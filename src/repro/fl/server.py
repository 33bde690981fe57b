"""Server-side state: the global model, its masks, and aggregation.

:meth:`Server.aggregate` is the only FedAvg: every upload — a state
dict, a view of the live model, or a packed sparse payload — folds
through one :class:`~repro.fl.aggregation.HierarchicalAggregator`
(``aggregation_fan_in=None`` is the flat fold). A round that streams
its uploads into the fold as clients finish opens it with
:meth:`Server.open_fold` and commits the result itself.
:class:`RoundIngest` is the admission control in front of it.
"""

from __future__ import annotations

import logging
from typing import Iterable

import numpy as np

from ..nn.module import Module
from ..sparse.mask import MaskSet
from .aggregation import HierarchicalAggregator
from .faults import FailureRecord
from .payload import PackedPayload, PayloadFormatError
from .state import FlatStateSnapshot, get_state, set_state

__all__ = ["RoundIngest", "Server"]

_LOG = logging.getLogger(__name__)


class RoundIngest:
    """Admission control for one round's uploads.

    The validation-before-write layer in front of aggregation: an
    upload is *accepted* only if it is the first arrival for its client
    this round, claims the server's current mask epoch, and (when raw
    wire bytes are submitted) parses and passes the codec's structural
    audit. Rejected uploads never touch server state; each rejection is
    recorded as a structured :class:`~repro.fl.faults.FailureRecord`.

    Wire bytes are optional because in-process uploads from the run's
    own executor are a trusted producer — they skip re-serialization
    and submit metadata only. Anything that crossed a byte boundary
    (uploads damaged by injected transport faults, and every upload the
    networked executor receives over its sockets) submits its wire form
    and is fully validated before admission.
    """

    def __init__(self, server: "Server", round_index: int) -> None:
        self.server = server
        self.round_index = round_index
        self.records: list[FailureRecord] = []
        self._accepted: dict[int, int] = {}  # client_id -> attempt
        # Validated payloads of wire-form submissions, retained so a
        # transport caller can aggregate without re-decoding — and in
        # *canonical* client order of its choosing, independent of the
        # arrival order the network produced.
        self._payloads: dict[int, PackedPayload] = {}
        self._spec_cache: dict = {}

    @property
    def accepted_clients(self) -> list[int]:
        """Client IDs admitted so far, in admission order."""
        return list(self._accepted)

    def accepted_payload(self, client_id: int) -> PackedPayload | None:
        """The validated payload a wire-form submission was admitted
        with (``None`` for metadata-only submissions or unknown IDs)."""
        return self._payloads.get(client_id)

    def submit(
        self,
        client_id: int,
        attempt: int,
        mask_epoch: int,
        wire: bytes | bytearray | memoryview | None = None,
    ) -> str:
        """Adjudicate one upload.

        Returns ``"accepted"``, ``"duplicate"``, ``"rejected_stale"``,
        or ``"quarantined"``. Only ``"accepted"`` uploads may be fed to
        the aggregation; everything else leaves the server bit-for-bit
        unchanged.
        """
        if client_id in self._accepted:
            _LOG.debug(
                "round %d: duplicate upload from client %d dropped",
                self.round_index, client_id,
            )
            self.records.append(
                FailureRecord(
                    self.round_index, client_id, attempt,
                    "duplicate_upload", "deduplicated",
                    detail=f"first accepted at attempt "
                           f"{self._accepted[client_id]}",
                )
            )
            return "duplicate"
        if mask_epoch != self.server.mask_epoch:
            _LOG.debug(
                "round %d: client %d upload rejected "
                "(mask epoch %d, server at %d)",
                self.round_index, client_id,
                mask_epoch, self.server.mask_epoch,
            )
            self.records.append(
                FailureRecord(
                    self.round_index, client_id, attempt,
                    "stale_epoch", "rejected_stale",
                    detail=f"claimed epoch {mask_epoch}, "
                           f"server at {self.server.mask_epoch}",
                )
            )
            return "rejected_stale"
        payload = None
        if wire is not None:
            try:
                payload = PackedPayload.from_bytes(
                    wire, copy=True, validate=True,
                    spec_cache=self._spec_cache,
                )
            except PayloadFormatError as exc:
                _LOG.warning(
                    "round %d: client %d upload quarantined: %s",
                    self.round_index, client_id, exc,
                )
                self.records.append(
                    FailureRecord(
                        self.round_index, client_id, attempt,
                        "payload_format", "quarantined",
                        detail=str(exc),
                    )
                )
                return "quarantined"
        self._accepted[client_id] = attempt
        if payload is not None:
            self._payloads[client_id] = payload
        return "accepted"


class Server:
    """Holds the authoritative global model state and mask structure.

    Round-loop hot paths allocate little in steady state: FedAvg folds
    through one :class:`~repro.fl.aggregation.HierarchicalAggregator`
    whose accumulators persist across rounds, committed states are
    written back into the existing ``_state`` arrays in place, and
    :meth:`broadcast`/:meth:`restore_broadcast` reset the shared model
    between clients with flat memcpys instead of re-running the
    per-tensor :func:`set_state` installation.
    """

    def __init__(
        self,
        model: Module,
        masks: MaskSet | None = None,
        aggregation_fan_in: int | None = None,
    ) -> None:
        if aggregation_fan_in is not None and aggregation_fan_in < 1:
            raise ValueError("aggregation_fan_in must be >= 1")
        self.model = model
        self.masks = masks if masks is not None else MaskSet.dense(model)
        self.masks.apply(model)
        self._state = get_state(model)
        # Edge-aggregator group size: when set, uploads reduce tree-wise
        # through a HierarchicalAggregator instead of one flat fold.
        self.aggregation_fan_in = aggregation_fan_in
        # Monotonic counter, bumped whenever the mask structure changes.
        # Executors key their shipped-mask caches on it.
        self.mask_epoch = 0
        self._fold: HierarchicalAggregator | None = None
        self._snapshot = FlatStateSnapshot()
        self._snapshot_fresh = False

    # ------------------------------------------------------------------
    # State movement
    # ------------------------------------------------------------------
    @property
    def state(self) -> dict[str, np.ndarray]:
        """The current global state (parameters + buffers)."""
        return self._state

    def load_into_model(self) -> Module:
        """Install the global state and masks into the shared model."""
        self.masks.apply(self.model)
        set_state(self.model, self._state, inplace=True)
        return self.model

    def broadcast(self) -> Module:
        """One round's download: install the global state and snapshot it.

        After this, :meth:`restore_broadcast` resets the model to the
        exact broadcast bytes without allocating — the per-client
        "download" of a serial round.
        """
        self.load_into_model()
        self._snapshot.capture(self.model)
        self._snapshot_fresh = True
        return self.model

    def restore_broadcast(self) -> Module:
        """Reset the shared model to the last :meth:`broadcast`."""
        if not self._snapshot_fresh:
            return self.broadcast()
        self._snapshot.restore(self.model)
        return self.model

    def _write_back_state(self) -> None:
        """Refresh ``_state`` from the model, reusing its arrays.

        Keys and shapes are stable across rounds, so the copies land in
        the existing arrays; any layout change falls back to a rebuild.
        """
        self._snapshot_fresh = False
        state = self._state
        for name, param in self.model.named_parameters():
            target = state.get(name)
            if target is None or target.shape != param.data.shape:
                self._state = get_state(self.model)
                return
            np.copyto(target, param.data)
        for name, buf in self.model.named_buffers():
            key = "buffer::" + name
            target = state.get(key)
            if target is None or target.shape != buf.shape:
                self._state = get_state(self.model)
                return
            np.copyto(target, buf)

    def commit_state(self, state: dict[str, np.ndarray]) -> None:
        """Replace the global state (masking prunable parameters)."""
        self.masks.apply(self.model)
        set_state(self.model, state, inplace=True)
        self._write_back_state()

    # ------------------------------------------------------------------
    # Aggregation and mask updates
    # ------------------------------------------------------------------
    def open_fold(
        self, sample_counts: list[int] | list[float] | np.ndarray
    ) -> HierarchicalAggregator:
        """The FedAvg fold for one cohort, weighted by ``sample_counts``.

        Uploads go in through :meth:`HierarchicalAggregator.add` in
        cohort order; ``commit_state(fold.finish())`` installs the
        result. The fold's accumulators are the server's own and are
        reused by the next round, so opening a fold abandons any fold
        still open. ``aggregation_fan_in`` groups the uploads under
        simulated edge aggregators (fan-in 1 or >= cohort stays bitwise
        identical to the flat fold).
        """
        if self._fold is None:
            self._fold = HierarchicalAggregator(
                sample_counts, fan_in=self.aggregation_fan_in
            )
        else:
            self._fold.restart(sample_counts)
        return self._fold

    def aggregate(
        self,
        uploads: Iterable[dict[str, np.ndarray] | PackedPayload],
        sample_counts: list[int] | list[float] | np.ndarray,
    ) -> None:
        """FedAvg ``uploads`` (aligned with ``sample_counts``) into the
        global state.

        Uploads are state dicts or packed payloads, one kind per call.
        Packed uploads fold their active values only, and the committed
        state is bitwise identical to decoding every payload first.
        Nothing is committed if any upload fails to fold.
        """
        fold = self.open_fold(sample_counts)
        for upload in uploads:
            fold.add(upload)
        self.commit_state(fold.finish())

    def begin_ingest(self, round_index: int) -> RoundIngest:
        """Open an admission-control session for one round's uploads."""
        return RoundIngest(self, round_index)

    def set_masks(self, masks: MaskSet) -> None:
        """Install a new mask structure and re-apply it to the state."""
        self.masks = masks
        self.mask_epoch += 1
        self.masks.apply(self.model)
        set_state(self.model, self._state, inplace=True)
        self._write_back_state()

    @property
    def density(self) -> float:
        return self.masks.density
