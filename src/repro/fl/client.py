"""Device-side logic: local training, gradient reports, BN recalibration.

A :class:`Client` owns a local dataset shard and a development subset
(the paper's ``D_hat_k``, default 10% of local data, used for the
adaptive BN selection module). Clients never own a model — the
simulation loads the global state into a shared model instance before
invoking client methods, mirroring the download step of each round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.dataset import Dataset
from ..data.transforms import augment_batch
from ..nn import engine
from ..nn.loss import CrossEntropyLoss
from ..nn.module import Module
from ..nn.optim import SGD
from ..sparse.mask import prunable_parameters
from ..sparse.topk_buffer import TopKBuffer
from . import bn as bn_utils
from .latency import DeviceProfile
from .state import get_state

__all__ = ["Client", "LocalTrainResult"]

_STREAM_CHUNK = 4096


@dataclass
class LocalTrainResult:
    """What a device uploads after local training.

    The upload is either ``state``, a flat ``{name: array}`` dict, or
    ``payload``, the :class:`~repro.fl.payload.PackedPayload` a
    worker-backed executor received (:meth:`resolve_state` decodes it
    on demand). Both are ``None`` when :meth:`Client.train` was asked
    not to collect the state (``collect_state=False``) and after an
    executor handed the upload to a round's ``on_upload`` callback.
    """

    state: dict[str, np.ndarray] | None
    num_samples: int
    num_iterations: int
    mean_loss: float
    payload: object | None = None

    def resolve_state(self) -> dict[str, np.ndarray]:
        """The upload as a flat state dict, decoding the payload lazily.

        Executors that ship packed uploads leave ``state`` unset so a
        round that folds the payloads packed never pays the dense
        decode; consumers that do want dicts call this.
        """
        if self.state is None and self.payload is not None:
            from .payload import unpack_state

            self.state = unpack_state(self.payload, validate=False)
        return self.state


class Client:
    """One federated device with a local dataset shard."""

    def __init__(
        self,
        client_id: int,
        train_data: Dataset,
        dev_fraction: float = 0.1,
        seed: int = 0,
        device: DeviceProfile | None = None,
    ) -> None:
        if len(train_data) == 0:
            raise ValueError(f"client {client_id} has no local data")
        self.client_id = client_id
        self.train_data = train_data
        # The simulated hardware this client runs on; the round loop
        # uses it to translate per-round FLOPs/bytes into seconds.
        self.device = device
        self.rng = np.random.default_rng(seed * 100_003 + client_id)
        self.dev_data = train_data.sample_fraction(dev_fraction, self.rng)
        if len(self.dev_data) == 0:
            # An empty dev set would make evaluate_candidate_loss divide
            # by zero and recalibrate_bn silently iterate no batches —
            # fail loudly at construction, where the shard is visible.
            raise ValueError(
                f"client {client_id} drew an empty dev set from a "
                f"{len(train_data)}-sample shard "
                f"(dev_fraction={dev_fraction})"
            )
        # Materialized dev batches, keyed by batch size. Selection runs
        # 2C stats/loss sweeps over the same dev set; reusing one batch
        # list keeps the arrays' identity stable so the engine's
        # lowering cache can memoize the stem lowering across candidates
        # (contents are identical to Dataset.batches, so results are
        # bit-identical with or without the cache).
        self._dev_batch_cache: dict[int, list] = {}
        self._eval_loss_fn: CrossEntropyLoss | None = None

    @property
    def num_samples(self) -> int:
        return len(self.train_data)

    @property
    def num_dev_samples(self) -> int:
        return len(self.dev_data)

    def dev_batches(self, batch_size: int) -> list:
        """This client's dev set as a cached ``(images, labels)`` list."""
        batches = self._dev_batch_cache.get(batch_size)
        if batches is None:
            batches = list(self.dev_data.batches(batch_size))
            self._dev_batch_cache[batch_size] = batches
        return batches

    # ------------------------------------------------------------------
    # Local sparse SGD (paper Eq. 5)
    # ------------------------------------------------------------------
    def train(
        self,
        model: Module,
        epochs: int,
        batch_size: int,
        lr: float,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        augment: bool = False,
        collect_state: bool = True,
    ) -> LocalTrainResult:
        """Run ``epochs`` of local SGD and return the updated state.

        The model must already carry the global parameters and masks;
        updates are masked so pruned positions stay exactly zero.
        ``collect_state=False`` skips the full state-dict copy — for
        callers (executor workers) that read the trained values straight
        off the model, e.g. to pack a sparse upload.
        """
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        model.train(True)
        optimizer = SGD(
            model, lr=lr, momentum=momentum, weight_decay=weight_decay
        )
        loss_fn = CrossEntropyLoss()
        loss_sum = 0.0
        iterations = 0
        # Local SGD applies masked updates (paper Eq. 5), so gradients of
        # fully-pruned output rows would be discarded anyway — let the
        # engine skip computing them. Growth-signal collection (Eq. 6)
        # happens in compute_topk_pruned_gradients, outside this context.
        with engine.masked_weight_grads():
            for _ in range(epochs):
                for images, labels in self.train_data.batches(
                    batch_size, rng=self.rng
                ):
                    if augment:
                        images = augment_batch(images, self.rng)
                    logits = model(images)
                    loss = loss_fn(logits, labels)
                    model.zero_grad()
                    model.backward(loss_fn.backward())
                    optimizer.step()
                    loss_sum += loss
                    iterations += 1
        return LocalTrainResult(
            state=get_state(model) if collect_state else None,
            num_samples=self.num_samples,
            num_iterations=iterations,
            mean_loss=loss_sum / max(1, iterations),
        )

    # ------------------------------------------------------------------
    # Gradient reports
    # ------------------------------------------------------------------
    def _backward_on_batch(self, model: Module, batch_size: int) -> None:
        """One forward/backward pass on a local batch (no update)."""
        indices = self.rng.choice(
            len(self.train_data),
            size=min(batch_size, len(self.train_data)),
            replace=False,
        )
        images = self.train_data.images[indices]
        labels = self.train_data.labels[indices]
        loss_fn = CrossEntropyLoss()
        model.train(True)
        model.zero_grad()
        loss_fn(model(images), labels)
        model.backward(loss_fn.backward())

    def compute_topk_pruned_gradients(
        self,
        model: Module,
        layer_counts: dict[str, int],
        batch_size: int,
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Top-``a_t^l`` gradients of *pruned* parameters (paper Eq. 6).

        For every requested layer the dense gradient values at pruned
        positions are streamed through an O(a_t^l) :class:`TopKBuffer`;
        only the surviving (flat index, value) pairs are returned — the
        device never stores a dense score tensor.
        """
        self._backward_on_batch(model, batch_size)
        params = dict(prunable_parameters(model))
        report: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name, count in layer_counts.items():
            if name not in params:
                raise KeyError(f"unknown prunable layer {name!r}")
            param = params[name]
            if param.mask is None:
                raise ValueError(
                    f"layer {name!r} has no mask; nothing is pruned"
                )
            if count <= 0:
                continue
            pruned_idx = np.flatnonzero(param.mask.reshape(-1) == 0)
            grad_flat = param.grad.reshape(-1)
            buffer = TopKBuffer(int(count))
            for start in range(0, pruned_idx.size, _STREAM_CHUNK):
                chunk = pruned_idx[start : start + _STREAM_CHUNK]
                buffer.push_chunk(chunk, grad_flat[chunk])
            report[name] = buffer.items()
        return report

    def compute_dense_gradients(
        self,
        model: Module,
        batch_size: int,
        layer_names: list[str] | None = None,
    ) -> dict[str, np.ndarray]:
        """Dense gradient magnitudes for the named prunable layers.

        This is the memory-hungry report PruneFL-style methods need
        (``layer_names=None`` means every prunable layer).
        """
        self._backward_on_batch(model, batch_size)
        params = dict(prunable_parameters(model))
        if layer_names is None:
            layer_names = list(params)
        report = {}
        for name in layer_names:
            if name not in params:
                raise KeyError(f"unknown prunable layer {name!r}")
            report[name] = params[name].grad.copy()
        return report

    # ------------------------------------------------------------------
    # Adaptive BN selection support (paper Algorithm 1)
    # ------------------------------------------------------------------
    def recalibrate_bn(
        self, model: Module, batch_size: int = 64
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Local BN statistics on the development dataset."""
        return bn_utils.recalibrate_bn_statistics(
            model, self.dev_batches(batch_size), batch_size
        )

    def evaluate_candidate_loss(
        self, model: Module, batch_size: int = 64
    ) -> float:
        """Mean loss of the (recalibrated) model on the dev dataset.

        The loss object is constructed once per client and the sample
        sum accumulates in a Python float (IEEE float64) in dataset
        order — the exact accumulator and summation order of the
        original per-call implementation, so values are bit-identical.
        """
        batches = self.dev_batches(batch_size)
        if not batches:
            raise ValueError(
                f"client {self.client_id} has no dev batches to "
                f"evaluate on"
            )
        loss_fn = self._eval_loss_fn
        if loss_fn is None:
            loss_fn = self._eval_loss_fn = CrossEntropyLoss()
        was_training = model.training
        model.eval()
        loss_sum = 0.0
        count = 0
        with engine.inference_mode():
            for images, labels in batches:
                loss_sum += loss_fn(model(images), labels) * len(labels)
                count += len(labels)
        model.train(was_training)
        return loss_sum / count
