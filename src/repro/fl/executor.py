"""Pluggable client-execution backends for the federated round.

``FederatedContext.run_fedavg_round`` delegates the per-client local
training to a :class:`ClientExecutor`; the round policy (see
:mod:`repro.fl.policies`) decides *which* clients reach the executor,
so backends stay policy-agnostic. Each upload is handed to the round's
``on_upload`` callback, in participant order, as soon as it exists, so
the round can fold it and release the client before the next one is
built. Three backends ship built in:

- ``serial`` (:class:`SerialExecutor`) — trains every participant one
  after another through the context's shared model instance. The
  per-client "download" restores the model from the server's flat
  broadcast snapshot (one memcpy, no allocation) and is bit-identical
  to the original per-client ``load_into_model`` installation;
- ``process`` (:class:`ProcessPoolClientExecutor`) — persistent worker
  processes fed through a ``multiprocessing.shared_memory`` arena: the
  master writes each broadcast once and every worker maps the same
  segment;
- ``network`` (:class:`NetworkClientExecutor`) — worker processes talk
  to a long-lived localhost round server
  (:mod:`repro.fl.network_server`) over a small framed protocol: they
  register with session tokens, heartbeat, pull the broadcast, and push
  uploads over real sockets, which the server's
  :class:`~repro.fl.server.RoundIngest` re-validates on arrival. Churn
  (dropped connections, killed workers, a mid-run server restart) is
  survived by heartbeat liveness, session resume, idempotent upload
  replay, and bounded task reassignment; a client whose task exhausts
  the budget comes back as ``None`` and the round reweights it out.

The two worker backends differ only in transport; both run one worker
body, :class:`_WorkerRuntime`. The
:class:`~repro.fl.fleet.ClientDirectory`, pickled as its recipe, and
the model structure ship once per worker, and a worker materializes
only the clients it is assigned, so either client backend works under
both. Per round the
master's one publisher packs the broadcast sparse through a
:class:`~repro.fl.payload.ModelBinding`; the worker installs it through
zero-copy views, restores its model per task, installs the client RNG
stream the master ships, trains, and packs the upload through its own
binding. Data movement therefore scales with the active-parameter
count, and a fixed-seed run is byte-for-byte identical to the serial
backend.

Backends are selected via ``FLConfig.executor`` (and the ``--executor``
CLI flag); new ones can be added with :func:`register_executor` without
touching the simulation internals.
"""

from __future__ import annotations

import logging
import os
import pickle
import struct
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..nn import engine
from ..sparse.mask import MaskSet
from .bn import set_bn_statistics
from .client import Client, LocalTrainResult
from .payload import ModelBinding, PackedPayload, build_mask_indices
from .state import state_views

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fleet import ClientDirectory
    from .simulation import FederatedContext
    from .transport import TransportConfig

_LOG = logging.getLogger(__name__)

#: ``on_upload(position, result)``: called once per delivered client,
#: in participant order, as soon as its upload exists.
UploadCallback = Callable[[int, LocalTrainResult], None]

__all__ = [
    "ClientExecutor",
    "NetworkClientExecutor",
    "SelectionPass",
    "SerialExecutor",
    "ProcessPoolClientExecutor",
    "available_executors",
    "build_executor",
    "register_executor",
]


@dataclass(frozen=True)
class SelectionPass:
    """One candidate-selection sweep over the clients (Algorithm 1).

    The selection engine installs a candidate into the context's shared
    model and asks the executor to run one stats or loss pass on every
    client. ``mask_token`` is a hashable tag unique to the installed
    candidate — executors that broadcast the candidate to worker
    processes key their shipped-mask caches on it, exactly like the
    server's ``mask_epoch`` during training rounds. ``masks`` carries
    the candidate's :class:`~repro.sparse.mask.MaskSet` for backends
    that pack the broadcast sparse; in-process backends read the model
    directly and ignore it.
    """

    kind: str  # "bn_stats" | "dev_loss"
    batch_size: int
    mask_token: object
    masks: MaskSet | None = None
    bn_stats: dict | None = None


class ClientExecutor(ABC):
    """Strategy for running one round of local training."""

    name: str = "base"
    #: Whether a task can be lost for good (a ``None`` result slot).
    #: The round cannot fold such a backend's uploads before the cohort
    #: is final, so it holds them until training ends.
    loses_tasks: bool = False

    def __init__(
        self,
        max_workers: int | None = None,
        transport: "TransportConfig | None" = None,
    ) -> None:
        """Every backend is built as ``factory(max_workers=...,
        transport=...)``; in-process backends need neither."""

    @abstractmethod
    def run_clients(
        self,
        ctx: "FederatedContext",
        participants: Sequence[Client],
        on_upload: UploadCallback | None = None,
    ) -> list[LocalTrainResult | None]:
        """Train every participant on the current global model.

        Returns one :class:`LocalTrainResult` per participant, aligned
        with ``participants``. Implementations must leave each client's
        RNG in the same state serial execution would — methods replay
        the batch stream across rounds and backends must agree.

        With ``on_upload`` each delivered result goes to
        ``on_upload(position, result)`` in participant order as soon as
        it exists, with the client's RNG already advanced. Its upload
        (``state`` or ``payload``) is valid only during that call — the
        serial backend hands over views of the shared model — so the
        returned results then carry metadata only. Without it, results
        own their uploads.

        Backends with real transport may lose a client for good (its
        task exhausted the reassignment budget); such a client's slot is
        ``None`` and the caller excludes it from the round via
        ``RoundPlan.without_trained`` — its RNG was never advanced, so
        determinism of the surviving cohort is unaffected.
        """

    def run_selection(
        self,
        ctx: "FederatedContext",
        clients: list[Client],
        selection: SelectionPass,
    ) -> list:
        """One per-client stats/loss sweep for candidate selection.

        The candidate is already installed in ``ctx.model`` (weights,
        masks); ``selection.bn_stats`` — when present — are the
        aggregated statistics to install before scoring. Returns one
        per-client BN-stats dict (``kind="bn_stats"``) or scalar loss
        (``kind="dev_loss"``) aligned with ``clients``. The default
        implementation runs in-process on the shared model; it is
        bit-identical to the reference per-(candidate, client) loop
        because the stats/loss passes never mutate parameters and BN
        recalibration resets the running statistics it touches.
        """
        model = ctx.model
        if selection.bn_stats is not None:
            set_bn_statistics(model, selection.bn_stats)
        results = []
        for client in clients:
            if selection.kind == "bn_stats":
                results.append(
                    client.recalibrate_bn(model, selection.batch_size)
                )
            elif selection.kind == "dev_loss":
                results.append(
                    client.evaluate_candidate_loss(
                        model, selection.batch_size
                    )
                )
            else:
                raise ValueError(
                    f"unknown selection pass kind {selection.kind!r}"
                )
        return results

    def crash_worker(self, ctx: "FederatedContext") -> bool:
        """Kill one worker process, if the backend has any.

        The fault-injection hook behind the ``worker_crash`` fault
        (see :mod:`repro.fl.faults`). Returns ``True`` when a worker
        actually died and the backend repaired itself (pool respawn);
        in-process backends return ``False`` and the injector treats
        the fault as an ordinary pre-training client crash.
        """
        del ctx
        return False

    def drop_connection(self, ctx: "FederatedContext") -> bool:
        """Sever one live transport connection, if the backend has any.

        The hook behind the ``connection_drop`` fault. A real-transport
        backend drops a worker's session + socket (the worker must
        reconnect and resume); in-process backends return ``False`` and
        the injector treats the fault as a plain retried delivery.
        """
        del ctx
        return False

    def restart_server(self, ctx: "FederatedContext") -> bool:
        """Restart the backend's server endpoint, if it has one.

        The hook behind the ``server_restart`` fault. A real-transport
        backend tears down its listener, connections, and sessions and
        rebinds on the same port (round state intact); in-process
        backends return ``False`` and the injector treats the fault as
        a plain retried delivery.
        """
        del ctx
        return False

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "ClientExecutor":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        # Worker pools and shm arenas must die on exception paths too.
        self.close()


def _train_kwargs(ctx: "FederatedContext") -> dict:
    cfg = ctx.config
    return dict(
        epochs=cfg.local_epochs,
        batch_size=cfg.batch_size,
        lr=cfg.lr,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
        augment=cfg.augment,
    )


class SerialExecutor(ClientExecutor):
    """The reference backend: one client at a time on the shared model."""

    name = "serial"

    def run_clients(
        self,
        ctx: "FederatedContext",
        participants: Sequence[Client],
        on_upload: UploadCallback | None = None,
    ) -> list[LocalTrainResult | None]:
        if not participants:
            return []
        kwargs = _train_kwargs(ctx)
        results: list[LocalTrainResult | None] = []
        # One full install + snapshot per round; each client then "downloads"
        # the broadcast with a flat in-place restore instead of re-running
        # the allocating per-tensor installation.
        ctx.server.broadcast()
        for position, client in enumerate(participants):
            ctx.server.restore_broadcast()
            result = client.train(
                ctx.model, collect_state=on_upload is None, **kwargs
            )
            if on_upload is not None:
                # The upload is the trained model itself, uncopied; the
                # next client's download overwrites it.
                result.state = state_views(ctx.model)
                on_upload(position, result)
                result.state = None
            results.append(result)
        return results


# ----------------------------------------------------------------------
# Shared-memory broadcast arena
# ----------------------------------------------------------------------
#: Arena prologue: masks-blob length, payload length (both uint64).
_ARENA_HEADER = struct.Struct("<QQ")


def _arena_payload_offset(masks_len: int) -> int:
    """Start of the payload segment: 8-aligned past the masks blob.

    The codec guarantees 8-aligned tensor segments relative to the
    payload start; the pickled masks blob has arbitrary length, so the
    payload must be placed at an aligned offset or every worker-side
    int32/float32 view into the arena goes unaligned.
    """
    return (_ARENA_HEADER.size + masks_len + 7) & ~7


def _attach_shared_memory(name: str):
    """Attach to an existing segment without resource-tracker hijacking.

    On Python < 3.13 every attach registers the segment with a resource
    tracker that tries to unlink it again at exit (bpo-39959). The
    master owns the segment's lifetime. Under ``fork`` the workers share
    the master's tracker process and registration is a set — the
    duplicate is harmless and must *not* be unregistered (that would
    strip the master's own entry). Under ``spawn`` each worker has its
    own tracker, which would spuriously unlink at worker exit, so there
    the worker unregisters its attachment.
    """
    import multiprocessing
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    if multiprocessing.get_start_method(allow_none=True) != "fork":
        try:  # pragma: no cover - depends on interpreter internals
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except (ImportError, AttributeError, KeyError, OSError) as exc:
            # Worst case the worker's tracker unlinks the segment at
            # exit (bpo-39959); the run survives, so log and continue.
            _LOG.warning(
                "could not unregister shm attachment %s from the "
                "resource tracker: %s", name, exc,
            )
    return shm


def _pack_masks_blob(masks: MaskSet) -> bytes:
    """Bit-packed wire form of a mask structure (1 bit per parameter)."""
    packed = {
        name: (mask.shape, np.packbits(mask.reshape(-1)).tobytes())
        for name, mask in masks.items()
    }
    return pickle.dumps(packed, protocol=pickle.HIGHEST_PROTOCOL)


def _unpack_masks_blob(blob: bytes) -> MaskSet:
    packed = pickle.loads(blob)
    masks = {}
    for name, (shape, bits) in packed.items():
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        flat = np.unpackbits(
            np.frombuffer(bits, dtype=np.uint8), count=size
        )
        masks[name] = flat.astype(bool).reshape(shape)
    return MaskSet(masks)


class _WorkerRuntime:
    """The one worker body both worker backends run.

    Holds the worker's unpickled client directory and model. Per round,
    :meth:`install` takes the broadcast from whichever transport carried
    it; per task, :meth:`train` or :meth:`select` restores the model
    from it and runs one client. Masks are re-read only when the mask
    key changes (the server's mask epoch, or a candidate's mask token),
    and the :class:`ModelBinding` only when the spec layout does.
    Clients materialize from the directory on first assignment and stay
    cached for the worker's lifetime.
    """

    def __init__(self, directory_blob: bytes, model_blob: bytes) -> None:
        self.directory: "ClientDirectory" = pickle.loads(directory_blob)
        self.model = pickle.loads(model_blob)
        self.round_tag: object = None
        self.mask_key: object = None
        self.indices: dict[str, np.ndarray] | None = None
        self.binding: ModelBinding | None = None
        self.payload: PackedPayload | None = None
        #: The process pool's attached broadcast arena (and its name).
        self.arena = None
        self.arena_name: str | None = None
        # Persistent across selection passes: the dev batch arrays it
        # keys on live on the cached clients, so entries stay valid for
        # the worker's lifetime and are bounded by the layers that see
        # raw dev batches (the stem).
        self._lowering = engine.LoweringCache()
        self._lowering_keys: set = set()

    def install(
        self, round_tag: object, mask_key: object, masks_blob, payload_wire
    ) -> None:
        """Install one round's broadcast from its transport bytes.

        ``masks_blob`` and ``payload_wire`` may be views into transport
        memory; the payload keeps zero-copy views into ``payload_wire``
        until the next install or :meth:`close`.
        """
        masks_changed = self.mask_key != mask_key
        if masks_changed:
            masks = _unpack_masks_blob(masks_blob)
            # Applying the masks zeroes every pruned position, which is
            # what lets each task's restore scatter only active entries.
            masks.apply(self.model)
            self.indices = build_mask_indices(masks)
            self.mask_key = mask_key
        payload = PackedPayload.from_bytes(payload_wire, copy=False)
        if masks_changed or self.binding is None \
                or self.binding.specs != payload.specs:
            self.binding = ModelBinding(self.model, payload.specs)
        self.payload = payload
        self.round_tag = round_tag

    def _checkout(self, client_id: int) -> Client:
        # Per-task download: a second task of the round must not see the
        # previous task's trained weights. Pruned positions are already
        # zero (mask application on key change, masked SGD in between),
        # so only active entries are written.
        self.binding.restore(self.payload, assume_masked=True)
        return self.directory.materialize(client_id)

    def train(
        self, client_id: int, rng_state: dict, kwargs: dict
    ) -> tuple[bytearray, int, int, float, dict]:
        """Train one client on the broadcast; returns its packed upload
        ``(wire, num_samples, num_iterations, mean_loss, rng_state)``."""
        client = self._checkout(client_id)
        # The authoritative RNG stream lives in the master; install it
        # so batch draws match serial execution whichever worker (with
        # whatever stale cached client) picks the task up.
        client.rng.bit_generator.state = rng_state
        result = client.train(self.model, collect_state=False, **kwargs)
        return (
            self.binding.pack(indices=self.indices).to_wire(),
            result.num_samples,
            result.num_iterations,
            result.mean_loss,
            client.rng.bit_generator.state,
        )

    def select(self, client_id: int, kind: str, batch_size: int):
        """One selection pass on one client: its BN statistics
        (``kind="bn_stats"``) or its dev loss (``"dev_loss"``)."""
        client = self._checkout(client_id)
        key = (client_id, batch_size)
        if key not in self._lowering_keys:
            for index, (images, _) in enumerate(
                client.dev_batches(batch_size)
            ):
                self._lowering.register_source(
                    images, (client_id, batch_size, index)
                )
            self._lowering_keys.add(key)
        with engine.lowering_cache(self._lowering):
            if kind == "bn_stats":
                return client.recalibrate_bn(self.model, batch_size)
            return client.evaluate_candidate_loss(self.model, batch_size)

    def close(self) -> None:
        """Drop every view into the installed broadcast, then detach the
        arena (``SharedMemory.close`` refuses while views exist)."""
        self.payload = None
        self.round_tag = None
        if self.binding is not None:
            self.binding.release()
        if self.arena is not None:
            try:
                self.arena.close()
            except BufferError as exc:  # pragma: no cover - defensive
                # A straggling view keeps the old mapping alive; the
                # segment itself is owned (and unlinked) by the master.
                _LOG.warning(
                    "stale broadcast arena %s still has exported "
                    "buffers: %s", self.arena_name, exc,
                )
            self.arena = None
            self.arena_name = None


#: The pool worker's runtime, built once by the pool initializer.
_RUNTIME: _WorkerRuntime | None = None


def _init_worker(directory_blob: bytes, model_blob: bytes) -> None:
    global _RUNTIME
    _RUNTIME = _WorkerRuntime(directory_blob, model_blob)


def _arena_runtime(
    shm_name: str, round_tag: int, mask_key: object
) -> _WorkerRuntime:
    """The pool worker's runtime with the arena's broadcast installed."""
    runtime = _RUNTIME
    if runtime is None:  # pragma: no cover - defensive
        raise RuntimeError("worker used before _init_worker ran")
    if runtime.round_tag == round_tag:
        return runtime
    if runtime.arena_name != shm_name:
        runtime.close()
        runtime.arena = _attach_shared_memory(shm_name)
        runtime.arena_name = shm_name
    buf = runtime.arena.buf
    masks_len, payload_len = _ARENA_HEADER.unpack_from(buf)
    start = _ARENA_HEADER.size
    offset = _arena_payload_offset(masks_len)
    runtime.install(
        round_tag, mask_key, buf[start : start + masks_len],
        buf[offset : offset + payload_len],
    )
    return runtime


def _train_client_shm(
    shm_name: str,
    round_tag: int,
    mask_epoch: int,
    client_id: int,
    rng_state: dict,
    kwargs: dict,
) -> tuple[bytearray, int, int, float, dict]:
    """Pool task: train one client on the arena's broadcast."""
    runtime = _arena_runtime(shm_name, round_tag, mask_epoch)
    return runtime.train(client_id, rng_state, kwargs)


def _selection_pass_shm(
    shm_name: str,
    round_tag: int,
    mask_token: object,
    client_id: int,
    kind: str,
    batch_size: int,
):
    """Pool task: one selection pass on the arena's candidate.

    Aggregated BN statistics for a dev-loss pass arrive inside the
    broadcast (the master installs them into the model's buffers before
    packing), so no per-task stats payload is shipped.
    """
    runtime = _arena_runtime(shm_name, round_tag, mask_token)
    return runtime.select(client_id, kind, batch_size)


def _exit_worker() -> None:  # pragma: no cover - runs in a worker
    """Hard-kill the worker that picks this task up (fault injection)."""
    os._exit(3)


class _BroadcastPacker:
    """The master's one broadcast publisher, for both worker backends.

    Packs the model through a :class:`ModelBinding`, the object the
    workers restore and upload with, so a broadcast is one gather into
    a persistent buffer. Indices, the bit-packed masks blob and the
    binding are rebuilt only when the mask key changes (the server's
    mask epoch for training rounds, a candidate's mask token for
    selection passes), and the upload ``spec_cache`` is cleared with
    them: headers from a dead key can never recur.
    """

    def __init__(self) -> None:
        self.reset()

    def publish(
        self, model, masks: MaskSet, key: object
    ) -> tuple[bytes, PackedPayload]:
        """Pack ``model`` under ``masks``; returns (masks blob, payload).

        The payload's buffer is reused: serialize it before the next
        publish.
        """
        binding = self.binding
        if binding is None or binding.model is not model or self.key != key:
            self.indices = build_mask_indices(masks)
            self.masks_blob = _pack_masks_blob(masks)
            self.binding = binding = ModelBinding.for_masks(model, masks)
            self.spec_cache.clear()
            self.key = key
        return self.masks_blob, binding.pack(indices=self.indices)

    def reset(self) -> None:
        self.key: object = None
        self.indices: dict[str, np.ndarray] | None = None
        self.masks_blob: bytes | None = None
        self.binding: ModelBinding | None = None
        self.spec_cache: dict = {}


def _deliver(
    clients: Sequence[Client],
    uploads: Iterable[tuple | None],
    on_upload: UploadCallback | None,
) -> list[LocalTrainResult | None]:
    """Turn worker uploads into the round's results, in participant order.

    ``uploads`` yields, per client, ``None`` for a lost task or
    ``(payload, num_samples, num_iterations, mean_loss, rng_state)``.
    """
    results: list[LocalTrainResult | None] = []
    for position, (client, upload) in enumerate(zip(clients, uploads)):
        if upload is None:
            results.append(None)
            continue
        payload, num_samples, num_iterations, mean_loss, rng_state = upload
        # The worker trained its own copy of the client; pull its
        # advanced RNG back so later rounds draw the batches the serial
        # backend would.
        client.rng.bit_generator.state = rng_state
        result = LocalTrainResult(
            state=None,
            num_samples=num_samples,
            num_iterations=num_iterations,
            mean_loss=mean_loss,
            payload=payload,
        )
        if on_upload is not None:
            on_upload(position, result)
            result.payload = None
        results.append(result)
    return results


class ProcessPoolClientExecutor(ClientExecutor):
    """Train participants concurrently on persistent worker models."""

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        transport: "TransportConfig | None" = None,
    ) -> None:
        self.max_workers = max_workers
        self._pool = None
        self._pool_directory: "ClientDirectory | None" = None
        self._arena = None
        self._arena_name: str | None = None
        self._round_tag = 0
        self._bcast = _BroadcastPacker()

    # -- pool ----------------------------------------------------------
    def _ensure_pool(self, ctx: "FederatedContext"):
        directory = ctx.directory
        if self._pool is not None and self._pool_directory is not directory:
            self.close()
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            workers = self.max_workers
            if workers is None:
                workers = max(1, min(os.cpu_count() or 1, 8))
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(
                    pickle.dumps(
                        directory, protocol=pickle.HIGHEST_PROTOCOL
                    ),
                    pickle.dumps(
                        ctx.model, protocol=pickle.HIGHEST_PROTOCOL
                    ),
                ),
            )
            self._pool_directory = directory
        return self._pool

    # -- arena ---------------------------------------------------------
    def _ensure_arena(self, nbytes: int):
        """A shared segment with capacity for ``nbytes`` (grow-only)."""
        from multiprocessing import shared_memory

        if self._arena is not None and self._arena.size >= nbytes:
            return self._arena
        self._release_arena()
        # Slack so mask adjustments that grow the payload a little do
        # not force a remap every round. The name is OS-generated
        # (guaranteed collision-free, unlike anything derived from
        # pid/id) and shipped to workers with each task.
        capacity = max(1024, int(nbytes * 1.25))
        self._arena = shared_memory.SharedMemory(
            create=True, size=capacity
        )
        self._arena_name = self._arena.name
        return self._arena

    def _release_arena(self) -> None:
        if self._arena is not None:
            try:
                self._arena.close()
                self._arena.unlink()
            # repro-lint: allow[silent-except] -- best-effort cleanup:
            # the arena was already unlinked by another exit path.
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._arena = None
            self._arena_name = None

    def _publish(self, model, masks: MaskSet, key: object) -> int:
        """Write one broadcast into the arena; returns its round tag.

        One write per broadcast: the packed payload plus the bit-packed
        masks, which workers deserialize only when ``key`` changes.
        """
        masks_blob, payload = self._bcast.publish(model, masks, key)
        body_offset = _arena_payload_offset(len(masks_blob))
        arena = self._ensure_arena(body_offset + payload.wire_nbytes)
        _ARENA_HEADER.pack_into(
            arena.buf, 0, len(masks_blob), payload.wire_nbytes
        )
        offset = _ARENA_HEADER.size
        arena.buf[offset : offset + len(masks_blob)] = masks_blob
        payload.write_into(arena.buf, body_offset)
        self._round_tag += 1
        return self._round_tag

    # -- round ---------------------------------------------------------
    def run_clients(
        self,
        ctx: "FederatedContext",
        participants: Sequence[Client],
        on_upload: UploadCallback | None = None,
    ) -> list[LocalTrainResult | None]:
        if not participants:
            # A round policy dropped everyone it could; don't publish
            # the broadcast or spin up the pool for an empty round.
            return []
        clients = list(participants)
        # Keep the master model in sync with the broadcast, exactly as
        # the serial backend leaves it after a round's downloads; the
        # broadcast is packed from it.
        ctx.server.load_into_model()
        kwargs = _train_kwargs(ctx)
        pool = self._ensure_pool(ctx)
        mask_epoch = ctx.server.mask_epoch
        round_tag = self._publish(ctx.model, ctx.server.masks, mask_epoch)
        futures = [
            pool.submit(
                _train_client_shm,
                self._arena_name,
                round_tag,
                mask_epoch,
                client.client_id,
                client.rng.bit_generator.state,
                kwargs,
            )
            for client in clients
        ]

        def uploads():
            for position, future in enumerate(futures):
                wire, *stats = future.result()
                futures[position] = None  # the wire lives on in the upload
                # Trusted same-run producer; the wire backs the payload
                # zero-copy, and the dense state is decoded lazily
                # (resolve_state), so a packed fold never builds it.
                yield (PackedPayload.from_bytes(
                    wire, copy=False, validate=False,
                    spec_cache=self._bcast.spec_cache,
                ), *stats)

        return _deliver(clients, uploads(), on_upload)

    def run_selection(
        self,
        ctx: "FederatedContext",
        clients: list[Client],
        selection: SelectionPass,
    ) -> list:
        """Broadcast the installed candidate once, sweep clients in
        parallel on the persistent workers."""
        if not clients:
            return []
        if selection.masks is None:
            # Without the candidate's mask structure there is nothing to
            # pack the broadcast against; run the in-process reference.
            return super().run_selection(ctx, clients, selection)
        pool = self._ensure_pool(ctx)
        if selection.bn_stats is not None:
            # Bake the aggregated statistics into the broadcast's BN
            # buffers (exactly what the serial path installs into the
            # shared model) instead of pickling them into every task.
            set_bn_statistics(ctx.model, selection.bn_stats)
        round_tag = self._publish(
            ctx.model, selection.masks, selection.mask_token
        )
        futures = [
            pool.submit(
                _selection_pass_shm,
                self._arena_name,
                round_tag,
                selection.mask_token,
                client.client_id,
                selection.kind,
                selection.batch_size,
            )
            for client in clients
        ]
        return [future.result() for future in futures]

    def crash_worker(self, ctx: "FederatedContext") -> bool:
        """Kill one pool worker; tear down the (now broken) pool.

        ``concurrent.futures`` condemns the whole pool when any worker
        dies, so the repair is a full :meth:`close` — the next round's
        ``_ensure_pool`` rebuilds workers and arena lazily. Worker
        outputs are unaffected: clients, model structure, and RNG
        streams all re-ship from the master, so results after a respawn
        are bitwise identical.
        """
        from concurrent.futures.process import BrokenProcessPool

        pool = self._ensure_pool(ctx)
        future = pool.submit(_exit_worker)
        try:
            future.result(timeout=60)
        except BrokenProcessPool:
            _LOG.warning(
                "worker process died; respawning the process pool"
            )
            self.close()
            return True
        return False  # pragma: no cover - os._exit always breaks the pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_directory = None
        self._release_arena()
        self._bcast.reset()


# ----------------------------------------------------------------------
# Networked executor: real sockets, heartbeat liveness, reconnect/resume
# ----------------------------------------------------------------------
def _network_worker_main(
    address: tuple[str, int],
    worker_id: int,
    directory_blob: bytes,
    model_blob: bytes,
    transport: "TransportConfig",
) -> None:
    """Entry point of one networked worker process.

    The transport loop around :class:`_WorkerRuntime`: registers with
    the round server, heartbeats on a daemon thread, polls for tasks,
    pulls the broadcast when the round changes, and pushes each packed
    upload. Failure behavior: every exchange goes through
    :class:`~repro.fl.transport.WorkerConnection`, which reconnects and
    resumes the session with bounded backoff; if the server stays
    unreachable past the reconnect budget the worker logs and exits —
    the server reassigns its task.
    """
    import threading

    from .transport import MSG, TransportError, WorkerConnection

    runtime = _WorkerRuntime(directory_blob, model_blob)
    conn = WorkerConnection(address, worker_id, transport)
    stop = threading.Event()

    def _heartbeat() -> None:
        while not stop.wait(transport.heartbeat_interval):
            try:
                conn.request(MSG.HEARTBEAT)
            except TransportError as exc:
                # The request path already retried with backoff; the
                # next beat (or the main loop's request) tries again.
                _LOG.warning(
                    "worker %d: heartbeat failed: %s", worker_id, exc
                )

    beats = threading.Thread(
        target=_heartbeat, name=f"repro-heartbeat-{worker_id}",
        daemon=True,
    )
    try:
        conn.request(MSG.HEARTBEAT)  # registers the session
        beats.start()
        while True:
            kind, meta, _ = conn.request(MSG.GET_TASK)
            if kind == MSG.SHUTDOWN:
                _LOG.info("worker %d: draining on SHUTDOWN", worker_id)
                return
            if kind == MSG.WAIT:
                time.sleep(float(meta.get("poll", transport.poll_interval)))
                continue
            if kind != MSG.TASK:
                raise TransportError(
                    f"GET_TASK answered with message type {kind}"
                )
            if runtime.round_tag != meta["round_tag"]:
                bkind, bmeta, bblob = conn.request(
                    MSG.GET_BROADCAST, {"round_tag": meta["round_tag"]}
                )
                if bkind != MSG.BROADCAST:
                    # The round closed while we were pulling; re-poll.
                    _LOG.warning(
                        "worker %d: broadcast pull for round %r "
                        "answered %d; re-polling", worker_id,
                        meta["round_tag"], bkind,
                    )
                    continue
                runtime.install(
                    bmeta["round_tag"], bmeta["mask_epoch"],
                    bmeta["masks_blob"], bblob,
                )
            wire, num_samples, num_iterations, mean_loss, rng_state = (
                runtime.train(
                    int(meta["client_id"]), meta["rng_state"],
                    meta["kwargs"],
                )
            )
            _, ack, _ = conn.request(MSG.UPLOAD, {
                "client_id": meta["client_id"],
                "round_tag": meta["round_tag"],
                "attempt": meta["attempt"],
                "mask_epoch": runtime.mask_key,
                "num_samples": num_samples,
                "num_iterations": num_iterations,
                "mean_loss": mean_loss,
                "rng_state": rng_state,
            }, blob=wire)
            status = ack.get("status")
            if status not in ("accepted", "duplicate", "stale_round"):
                # Quarantined / stale-epoch bytes: the server requeued
                # the task; log and keep polling (we may redeliver it).
                _LOG.warning(
                    "worker %d: upload for client %s adjudicated %r",
                    worker_id, meta["client_id"], status,
                )
    except TransportError as exc:
        _LOG.error(
            "worker %d: giving up on server %s: %s",
            worker_id, address, exc,
        )
    finally:
        stop.set()
        conn.close()


class NetworkClientExecutor(ClientExecutor):
    """Train participants through a real localhost transport.

    The master runs a :class:`~repro.fl.network_server.NetworkRoundServer`
    and spawn-started worker processes (spawn, never fork: a forked
    child would inherit the listening socket and block the same-port
    rebind that the server-restart drill depends on). Each round the
    master packs one broadcast, opens an ingest session, and publishes
    the task list; workers pull, train, and push packed uploads that the
    ingest re-validates byte-by-byte before admission. Results are
    assembled in *participant order* (never arrival order), so float64
    aggregation folds identically to the serial backend and a fixed-seed
    sync run is byte-for-byte identical.

    A client whose task survives neither its assignment nor
    ``max_reconnects`` reassignments comes back as ``None``; the round
    loop reweights it out (its RNG was never advanced in the master, so
    the surviving cohort is unaffected).
    """

    name = "network"
    loses_tasks = True

    def __init__(
        self,
        max_workers: int | None = None,
        transport: "TransportConfig | None" = None,
    ) -> None:
        if transport is None:
            from .transport import TransportConfig

            transport = TransportConfig()
        self.transport = transport
        self.max_workers = max_workers
        self._server = None
        self._workers: list = []
        self._directory: "ClientDirectory | None" = None
        self._directory_blob: bytes | None = None
        self._model_blob: bytes | None = None
        self._round_tag = 0
        self._next_worker_id = 0
        self._supervise_respawns = 0
        self._bcast = _BroadcastPacker()
        self._records: list = []
        #: Real (wall-clock) seconds the last round's barrier took.
        self.last_round_real_seconds = 0.0
        #: Real per-client upload latencies of the last round.
        self.last_latencies: dict[int, float] = {}

    # -- lifecycle -----------------------------------------------------
    def _worker_count(self) -> int:
        if self.max_workers is not None:
            return max(1, self.max_workers)
        return max(1, min(os.cpu_count() or 1, 4))

    def _spawn_worker(self):
        import multiprocessing

        wid = self._next_worker_id
        self._next_worker_id += 1
        proc = multiprocessing.get_context("spawn").Process(
            target=_network_worker_main,
            args=(
                self._server.address,
                wid,
                self._directory_blob,
                self._model_blob,
                self.transport,
            ),
            name=f"repro-net-worker-{wid}",
            daemon=True,
        )
        proc.start()
        return proc

    def _ensure_started(self, ctx: "FederatedContext"):
        if self._server is not None and self._directory is not ctx.directory:
            self.close()
        if self._server is None:
            from .network_server import NetworkRoundServer

            self._server = NetworkRoundServer(self.transport)
            self._server.start()
            self._directory = ctx.directory
            self._directory_blob = pickle.dumps(
                ctx.directory, protocol=pickle.HIGHEST_PROTOCOL
            )
            self._model_blob = pickle.dumps(
                ctx.model, protocol=pickle.HIGHEST_PROTOCOL
            )
            self._workers = [
                self._spawn_worker() for _ in range(self._worker_count())
            ]
        return self._server

    def _supervise(self) -> None:
        """Respawn dead worker processes (bounded, so a crash-looping
        deployment fails the round instead of fork-bombing)."""
        limit = 3 * self._worker_count()
        for index, proc in enumerate(self._workers):
            if proc.is_alive():
                continue
            if self._supervise_respawns >= limit:
                continue  # let the stall detector fail the round loudly
            self._supervise_respawns += 1
            _LOG.warning(
                "network worker %s died (exit %s); respawning "
                "(%d/%d this run)", proc.name, proc.exitcode,
                self._supervise_respawns, limit,
            )
            self._workers[index] = self._spawn_worker()

    # -- round ---------------------------------------------------------
    def run_clients(
        self,
        ctx: "FederatedContext",
        participants: Sequence[Client],
        on_upload: UploadCallback | None = None,
    ) -> list[LocalTrainResult | None]:
        from .network_server import TaskSpec

        if not participants:
            return []
        clients = list(participants)
        # Keep the master model in sync with the broadcast, exactly as
        # the serial backend leaves it after a round's downloads; the
        # broadcast is packed from it.
        ctx.server.load_into_model()
        server = self._ensure_started(ctx)
        kwargs = _train_kwargs(ctx)
        masks_blob, payload = self._bcast.publish(
            ctx.model, ctx.server.masks, ctx.server.mask_epoch
        )
        self._round_tag += 1
        ingest = ctx.server.begin_ingest(self._round_tag)
        tasks = [
            TaskSpec(
                client_id=client.client_id,
                rng_state=client.rng.bit_generator.state,
                kwargs=kwargs,
            )
            for client in clients
        ]
        server.open_round(
            self._round_tag, ctx.server.mask_epoch, masks_blob,
            bytes(payload.to_wire()), tasks, ingest,
        )
        started = time.perf_counter()
        metas = server.await_round(supervise=self._supervise)
        self.last_round_real_seconds = time.perf_counter() - started
        self.last_latencies = dict(server.last_latencies)
        # Transport-level adjudications (dedup of replayed uploads,
        # quarantines) surface in the run's failure log via
        # ``drain_records``; counters the chaos invariants compare stay
        # with the deterministic fault runner.
        self._records.extend(ingest.records)

        def uploads():
            for client in clients:
                meta = metas.get(client.client_id)
                yield None if meta is None else (
                    ingest.accepted_payload(client.client_id),
                    meta["num_samples"], meta["num_iterations"],
                    meta["mean_loss"], meta["rng_state"],
                )

        return _deliver(clients, uploads(), on_upload)

    def drain_records(self) -> list:
        """Transport-level failure records since the last drain."""
        records, self._records = self._records, []
        return records

    # -- fault hooks ---------------------------------------------------
    def crash_worker(self, ctx: "FederatedContext") -> bool:
        """Kill one live worker process and respawn it.

        Unlike the futures pool, one death does not condemn the others:
        the server requeues whatever the victim held once its heartbeats
        lapse, and the respawned worker re-registers fresh.
        """
        self._ensure_started(ctx)
        for index, proc in enumerate(self._workers):
            if proc.is_alive():
                _LOG.warning(
                    "injected worker crash: terminating %s", proc.name
                )
                proc.terminate()
                proc.join(timeout=10.0)
                self._workers[index] = self._spawn_worker()
                return True
        return False

    def drop_connection(self, ctx: "FederatedContext") -> bool:
        """Sever one worker's session + socket (reconnect/resume drill)."""
        if self._server is None:
            return False
        del ctx
        return self._server.drop_one_session()

    def restart_server(self, ctx: "FederatedContext") -> bool:
        """Restart the transport endpoint on the same port."""
        if self._server is None:
            return False
        del ctx
        self._server.restart()
        return True

    def close(self) -> None:
        if self._server is None:
            return
        self._server.request_shutdown()
        deadline = time.monotonic() + max(
            2.0, 4.0 * self.transport.heartbeat_interval
        )
        for proc in self._workers:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in self._workers:
            if proc.is_alive():
                _LOG.warning(
                    "network worker %s ignored SHUTDOWN; terminating",
                    proc.name,
                )
                proc.terminate()
                proc.join(timeout=5.0)
        self._server.stop()
        self._server = None
        self._workers = []
        self._directory = None
        self._directory_blob = None
        self._model_blob = None
        self._supervise_respawns = 0
        self._bcast.reset()


_EXECUTORS: dict[str, Callable[..., ClientExecutor]] = {}


def register_executor(
    name: str, factory: Callable[..., ClientExecutor]
) -> None:
    """Register an executor factory under ``name`` (case-insensitive).

    The factory is called as ``factory(max_workers=..., transport=...)``
    — the :class:`ClientExecutor` constructor, which every subclass
    inherits or overrides.
    """
    key = name.lower()
    if key in _EXECUTORS:
        raise ValueError(f"executor {name!r} already registered")
    _EXECUTORS[key] = factory


def available_executors() -> list[str]:
    """Sorted names of registered execution backends."""
    return sorted(_EXECUTORS)


def build_executor(
    name: str,
    max_workers: int | None = None,
    transport: "TransportConfig | None" = None,
) -> ClientExecutor:
    """Build a registered execution backend by name.

    ``transport`` carries the networked backend's timeout, heartbeat
    and reconnect knobs; the other backends ignore it.
    """
    key = name.lower()
    if key not in _EXECUTORS:
        raise KeyError(
            f"unknown executor {name!r}; available: {available_executors()}"
        )
    return _EXECUTORS[key](max_workers=max_workers, transport=transport)


register_executor("serial", SerialExecutor)
register_executor("process", ProcessPoolClientExecutor)
register_executor("network", NetworkClientExecutor)
