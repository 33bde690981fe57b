"""Deterministic fault injection and recovery for federated rounds.

Real fleets are defined by failure: clients crash mid-training, worker
processes die, uploads arrive corrupted, duplicated, late, or built
against a mask structure the server has since replaced. This module
makes those failures *reproducible*: a :class:`FaultSchedule` draws
faults per ``(round, client, attempt)`` from counter-based RNG streams
(`np.random.default_rng([seed, salt, round, client, attempt])`), so

- with faults disabled nothing here runs and the golden run stays
  byte-identical;
- with faults enabled the exact same failures fire on every run of the
  same seed, independent of executor backend, retry count, or the order
  in which other streams are consumed.

The defense side lives in :class:`RetryPolicy` (bounded retries with
exponential backoff and deterministic jitter, charged to the *simulated*
clock) and :class:`FaultTolerantRunner`, which wraps the executor call
of one round: each client gets an attempt loop, transport faults are
applied to real wire bytes and adjudicated by the server's ingest
pipeline (see :meth:`repro.fl.server.Server.begin_ingest`), worker
deaths respawn the pool, repeated pool breakage degrades the run to the
serial executor (bitwise-identical results), and a client that exhausts
its retries is excluded — the cohort reweights automatically because
aggregation normalizes over the sample counts actually submitted.

Fault semantics are chosen so a *recovered* fault is bitwise-invisible:
client-side faults (exception, worker crash) fire before training, so
the retry trains the untouched client RNG identically; transport faults
(corruption, truncation, duplicate, stale epoch, timeout, connection
drop, slow delivery, server restart) fire after training, so the retry
re-delivers the exact same bytes. Under a real-transport backend the
``connection_drop``/``server_restart``/``worker_crash`` kinds tear at
the actual transport through the executor hooks (a session is severed,
the endpoint rebinds, a worker process dies) while delivery
adjudication stays in this runner's deterministic ingest — so the
injected churn is real, and the accounting is still a pure function of
the seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .payload import pack_state

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .client import Client, LocalTrainResult
    from .simulation import FederatedContext

__all__ = [
    "FAULT_KINDS",
    "FAULT_PRESETS",
    "SWEEP_FAULT_KINDS",
    "FailureRecord",
    "FaultSchedule",
    "FaultSpec",
    "FaultTolerantRunner",
    "RetryPolicy",
    "RoundFaultStats",
    "corrupt_wire",
    "truncate_wire",
]

_LOG = logging.getLogger(__name__)

#: The injectable fault catalog. Client-side kinds fire before the
#: client trains; transport kinds fire on the trained upload's delivery.
FAULT_KINDS: tuple[str, ...] = (
    "client_exception",   # local training raises before it starts
    "worker_crash",       # a pool worker process dies (pool breakage)
    "corrupt_payload",    # structural bytes of the upload are damaged
    "truncate_payload",   # the upload wire is cut short
    "duplicate_upload",   # the accepted upload is re-sent verbatim
    "stale_epoch",        # the upload claims an outdated mask epoch
    "client_timeout",     # the upload misses the round's window
    "connection_drop",    # the client's transport session is severed
    "slow_client",        # delivery arrives a full timeout window late
    "server_restart",     # the server endpoint restarts mid-delivery
    # Sweep-level kinds (see repro.experiments.sweep): they target a
    # whole run or the sweep journal, not one client's upload, and are
    # inert inside the round-level runner below.
    "run_crash",          # a run's child process dies before training
    "run_hang",           # a run wedges until the watchdog kills it
    "journal_torn_write", # the sweep journal tears mid-append (power cut)
)

_CLIENT_SIDE = frozenset({"client_exception", "worker_crash"})

#: Fault kinds drawn by the sweep orchestrator per (run, attempt) or
#: per journal append. A round-level schedule that names them draws
#: no-ops, so mixing one spec string across both layers stays safe.
SWEEP_FAULT_KINDS = frozenset(
    {"run_crash", "run_hang", "journal_torn_write"}
)

#: Named schedules for ``--faults`` / ``repro chaos``.
FAULT_PRESETS: dict[str, str] = {
    "chaos": (
        "client_exception:0.06,worker_crash:0.04,corrupt_payload:0.06,"
        "truncate_payload:0.04,duplicate_upload:0.06,stale_epoch:0.04,"
        "client_timeout:0.06,connection_drop:0.04,slow_client:0.04,"
        "server_restart:0.02"
    ),
    "flaky_clients": "client_exception:0.15,client_timeout:0.10",
    "bad_transport": (
        "corrupt_payload:0.10,truncate_payload:0.05,"
        "duplicate_upload:0.10,stale_epoch:0.05,"
        "connection_drop:0.08,slow_client:0.05"
    ),
    "sweep_chaos": (
        "run_crash:0.12,run_hang:0.06,journal_torn_write:0.08"
    ),
}

# Stream salts: fault draws, injection randomness (which byte to damage)
# and backoff jitter each live on their own counter-based stream so no
# consumer can shift another.
_DRAW_SALT = 0x4641554C  # "FAUL"
_DAMAGE_SALT = 0x44414D47  # "DAMG"
_JITTER_SALT = 0x4A495454  # "JITT"


@dataclass(frozen=True)
class FailureRecord:
    """One structured entry in the run's failure log.

    ``kind`` names the fault (one of :data:`FAULT_KINDS`) or the defense
    observation (``payload_format``, ``retry_exhausted``,
    ``pool_failure``, ``connection_lost`` — a real-transport backend
    exhausted a task's reassignment budget); ``action`` is what the
    defense layer did about it (``retried``, ``quarantined``,
    ``deduplicated``, ``rejected_stale``, ``respawned_pool``,
    ``degraded_executor``, ``excluded``, ``reconnected``, ``delayed``,
    ``restarted_server``).
    """

    round_index: int
    client_id: int
    attempt: int
    kind: str
    action: str
    detail: str = ""


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind and its per-attempt probability."""

    kind: str
    probability: float

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"available: {list(FAULT_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"fault probability must be in [0, 1], "
                f"got {self.probability}"
            )


class FaultSchedule:
    """Seed-driven fault draws, independent per (round, client, attempt).

    Draws are *counter-based*: each query seeds a fresh generator from
    ``[seed, salt, round, client, attempt]`` instead of consuming a
    shared stream, so the set of faults a given coordinate receives is a
    pure function of the seed — retries, executor backends, and
    evaluation cadence cannot shift it.
    """

    def __init__(self, specs: list[FaultSpec], seed: int = 0) -> None:
        if not specs:
            raise ValueError("a fault schedule needs at least one fault")
        total = sum(spec.probability for spec in specs)
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"fault probabilities sum to {total:.3f} > 1"
            )
        seen = [spec.kind for spec in specs]
        if len(set(seen)) != len(seen):
            raise ValueError("duplicate fault kinds in schedule")
        self.specs = list(specs)
        self.seed = seed

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultSchedule":
        """Build a schedule from ``"kind:prob,kind:prob"`` or a preset.

        Preset names (:data:`FAULT_PRESETS`) expand to their spec
        string, so ``--faults chaos`` and
        ``--faults corrupt_payload:0.1`` share one grammar.
        """
        text = FAULT_PRESETS.get(spec.strip(), spec).strip()
        specs = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            kind, sep, prob = part.partition(":")
            if not sep:
                raise ValueError(
                    f"malformed fault spec {part!r}; expected 'kind:prob'"
                )
            try:
                probability = float(prob)
            except ValueError as exc:
                raise ValueError(
                    f"malformed fault probability {prob!r} in {part!r}"
                ) from exc
            specs.append(FaultSpec(kind.strip(), probability))
        return cls(specs, seed=seed)

    def spec_string(self) -> str:
        """Canonical ``kind:prob`` form (round-trips through parse)."""
        return ",".join(
            f"{spec.kind}:{spec.probability:g}" for spec in self.specs
        )

    def draw(
        self, round_index: int, client_id: int, attempt: int
    ) -> str | None:
        """The fault (or ``None``) injected at one coordinate."""
        rng = np.random.default_rng(
            [self.seed, _DRAW_SALT, round_index, client_id, attempt]
        )
        u = float(rng.random())
        acc = 0.0
        for spec in self.specs:
            acc += spec.probability
            if u < acc:
                return spec.kind
        return None

    def damage_rng(
        self, round_index: int, client_id: int, attempt: int
    ) -> np.random.Generator:
        """The stream that picks *how* to damage this upload's bytes."""
        return np.random.default_rng(
            [self.seed, _DAMAGE_SALT, round_index, client_id, attempt]
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    Backoff (and the timeout a ``client_timeout`` fault costs) is
    charged to the *simulated* clock, never the wall clock; jitter is
    drawn counter-based from the same seed discipline as the schedule,
    so the simulated time of a faulty run is reproducible too.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.5
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.1
    timeout_seconds: float = 5.0
    pool_failure_limit: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_seconds < 0.0:
            raise ValueError("backoff_seconds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")
        if self.timeout_seconds < 0.0:
            raise ValueError("timeout_seconds must be >= 0")
        if self.pool_failure_limit < 1:
            raise ValueError("pool_failure_limit must be >= 1")

    def backoff(
        self, seed: int, round_index: int, client_id: int, attempt: int
    ) -> float:
        """Simulated seconds to wait before the next attempt."""
        base = self.backoff_seconds * self.backoff_factor ** attempt
        rng = np.random.default_rng(
            [seed, _JITTER_SALT, round_index, client_id, attempt]
        )
        return base * (1.0 + self.jitter_fraction * float(rng.random()))


# ----------------------------------------------------------------------
# Wire damage
# ----------------------------------------------------------------------
def corrupt_wire(wire: bytes, rng: np.random.Generator) -> bytes:
    """Damage structural bytes of a payload wire form.

    The codec cannot detect a bit flip inside a *value* segment (floats
    carry no checksum), so injected corruption targets the structure the
    validator audits: the magic, the version byte, or the pickled spec
    header. Every variant is guaranteed to surface as
    :class:`~repro.fl.payload.PayloadFormatError` on ingest.
    """
    out = bytearray(wire)
    mode = int(rng.integers(0, 3))
    if mode == 0:
        out[0] ^= 0xFF  # magic
    elif mode == 1:
        out[4] ^= 0xFF  # version byte
    else:
        # Scribble over the start of the pickled spec table (offset 24:
        # the fixed header is 4s B B xx Q Q = 24 bytes).
        for offset in range(24, min(32, len(out))):
            out[offset] ^= 0x5A
    return bytes(out)


def truncate_wire(wire: bytes, rng: np.random.Generator) -> bytes:
    """Cut the wire short (always detected: the header length lies)."""
    if len(wire) <= 1:
        return b""
    cut = int(rng.integers(0, len(wire)))
    return bytes(wire[:cut])


# ----------------------------------------------------------------------
# The fault-tolerant round runner
# ----------------------------------------------------------------------
@dataclass
class RoundFaultStats:
    """Counters one round contributes to the failure accounting."""

    injected: int = 0
    retries: int = 0
    quarantined: int = 0
    recoveries: int = 0

    def merge(self, other: "RoundFaultStats") -> None:
        self.injected += other.injected
        self.retries += other.retries
        self.quarantined += other.quarantined
        self.recoveries += other.recoveries


@dataclass
class RoundOutcome:
    """What the runner produced for one round's trained cohort."""

    #: Aligned with the trained list; ``None`` marks an excluded client.
    results: list["LocalTrainResult | None"]
    #: Positions (into the trained list) excluded after retry exhaustion.
    excluded: frozenset[int]
    #: Simulated seconds of backoff/timeouts charged by retries.
    extra_seconds: float
    records: list[FailureRecord] = field(default_factory=list)
    stats: RoundFaultStats = field(default_factory=RoundFaultStats)

    @classmethod
    def of_executor(
        cls,
        results: list["LocalTrainResult | None"],
        client_ids: list[int],
        round_index: int,
    ) -> "RoundOutcome":
        """The outcome of a round run without a fault schedule.

        A ``None`` slot is a client a real-transport backend lost for
        good (its task exhausted the reassignment budget). It is
        excluded exactly like a retry-exhausted client: a
        ``connection_lost``/``excluded`` record and one recovery (the
        partial-cohort reweighting) each.
        """
        lost = [k for k, result in enumerate(results) if result is None]
        return cls(
            results=results,
            excluded=frozenset(lost),
            extra_seconds=0.0,
            records=[
                FailureRecord(
                    round_index, client_ids[k], 0,
                    "connection_lost", "excluded",
                )
                for k in lost
            ],
            stats=RoundFaultStats(recoveries=len(lost)),
        )


class FaultTolerantRunner:
    """Run one round's local training under a fault schedule.

    Wraps the context's executor with a per-client attempt loop: each
    attempt draws at most one fault, client-side faults skip training
    (so the retry trains identically), transport faults damage or
    misroute the *delivery* of an already-trained upload (so the retry
    re-sends identical bytes), and every admission decision goes through
    the server's per-round ingest session.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        retry: RetryPolicy,
        seed: int = 0,
    ) -> None:
        self.schedule = schedule
        self.retry = retry
        self.seed = seed
        self._pool_breakages = 0

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _wire_for(
        ctx: "FederatedContext", result: "LocalTrainResult"
    ) -> bytes:
        """The upload's wire bytes (packing serial results on demand)."""
        if result.payload is not None:
            return bytes(result.payload.to_wire())
        return bytes(
            pack_state(result.resolve_state(), ctx.server.masks).to_wire()
        )

    def _handle_worker_crash(
        self,
        ctx: "FederatedContext",
        round_index: int,
        client_id: int,
        attempt: int,
        records: list[FailureRecord],
        stats: RoundFaultStats,
    ) -> None:
        crashed = ctx.executor.crash_worker(ctx)
        if crashed:
            stats.recoveries += 1
            self._pool_breakages += 1
            records.append(
                FailureRecord(
                    round_index, client_id, attempt,
                    "worker_crash", "respawned_pool",
                )
            )
            if (
                self._pool_breakages >= self.retry.pool_failure_limit
                and ctx.degrade_executor()
            ):
                stats.recoveries += 1
                _LOG.warning(
                    "pool broke %d times; degrading to the serial "
                    "executor", self._pool_breakages,
                )
                records.append(
                    FailureRecord(
                        round_index, client_id, attempt,
                        "pool_failure", "degraded_executor",
                        detail=f"breakages={self._pool_breakages}",
                    )
                )
        else:
            # No worker process to kill (serial backend): the fault
            # lands as an in-process crash before training.
            records.append(
                FailureRecord(
                    round_index, client_id, attempt,
                    "worker_crash", "retried",
                )
            )

    # -- the round -----------------------------------------------------
    def run_round(
        self,
        ctx: "FederatedContext",
        trained: list["Client"],
        round_index: int,
    ) -> RoundOutcome:
        """Train + deliver each client, injecting and recovering faults."""
        ingest = ctx.server.begin_ingest(round_index)
        records: list[FailureRecord] = []
        stats = RoundFaultStats()
        results: list["LocalTrainResult | None"] = []
        excluded: set[int] = set()
        extra = 0.0
        retry = self.retry
        for position, client in enumerate(trained):
            cid = client.client_id
            result: "LocalTrainResult | None" = None
            delivered = False
            attempts_used = 0
            for attempt in range(retry.max_attempts):
                attempts_used = attempt + 1
                kind = self.schedule.draw(round_index, cid, attempt)
                if kind in SWEEP_FAULT_KINDS:
                    # Sweep-level kinds target whole runs / the sweep
                    # journal; inside a round they are no-ops (and not
                    # counted as injected).
                    kind = None
                if kind is not None:
                    stats.injected += 1
                    _LOG.debug(
                        "round %d client %d attempt %d: injecting %s",
                        round_index, cid, attempt, kind,
                    )
                if kind in _CLIENT_SIDE and result is None:
                    # The fault fires before local training starts, so
                    # the client's RNG is untouched and the retry will
                    # train bit-identically.
                    if kind == "client_exception":
                        records.append(
                            FailureRecord(
                                round_index, cid, attempt,
                                "client_exception", "retried",
                            )
                        )
                    else:
                        self._handle_worker_crash(
                            ctx, round_index, cid, attempt,
                            records, stats,
                        )
                    extra += retry.backoff(
                        self.seed, round_index, cid, attempt
                    )
                    continue
                if kind in _CLIENT_SIDE:
                    # Already trained: the crash hits the re-delivery
                    # context. The upload bytes are retained, so the
                    # retry re-sends them unchanged.
                    if kind == "worker_crash":
                        self._handle_worker_crash(
                            ctx, round_index, cid, attempt,
                            records, stats,
                        )
                    else:
                        records.append(
                            FailureRecord(
                                round_index, cid, attempt,
                                kind, "retried",
                            )
                        )
                    extra += retry.backoff(
                        self.seed, round_index, cid, attempt
                    )
                    continue
                if result is None:
                    result = ctx.executor.run_clients(ctx, [client])[0]
                    if result is None:
                        # A real-transport backend lost the task for
                        # good (assignment budget exhausted). The
                        # client's RNG never advanced, so the retry
                        # trains bit-identically.
                        records.append(
                            FailureRecord(
                                round_index, cid, attempt,
                                "connection_lost", "retried",
                            )
                        )
                        extra += retry.backoff(
                            self.seed, round_index, cid, attempt
                        )
                        continue
                epoch = ctx.server.mask_epoch
                if kind == "client_timeout":
                    records.append(
                        FailureRecord(
                            round_index, cid, attempt,
                            "client_timeout", "retried",
                        )
                    )
                    extra += retry.timeout_seconds
                    continue
                if kind == "connection_drop":
                    # Tear at the real transport when there is one: the
                    # severed worker must reconnect and resume its
                    # session. Delivery is retried either way, and the
                    # retained upload bytes re-send unchanged.
                    dropped = ctx.executor.drop_connection(ctx)
                    if dropped:
                        stats.recoveries += 1
                    records.append(
                        FailureRecord(
                            round_index, cid, attempt,
                            "connection_drop",
                            "reconnected" if dropped else "retried",
                        )
                    )
                    extra += retry.backoff(
                        self.seed, round_index, cid, attempt
                    )
                    continue
                if kind == "server_restart":
                    # A real backend restarts its endpoint (listener,
                    # connections, sessions) on the same port with
                    # round state intact; workers re-register fresh.
                    restarted = ctx.executor.restart_server(ctx)
                    if restarted:
                        stats.recoveries += 1
                    records.append(
                        FailureRecord(
                            round_index, cid, attempt,
                            "server_restart",
                            "restarted_server" if restarted
                            else "retried",
                        )
                    )
                    extra += retry.backoff(
                        self.seed, round_index, cid, attempt
                    )
                    continue
                if kind == "slow_client":
                    # The upload arrives a full timeout window late but
                    # *arrives*, on this same attempt: charge the clock
                    # and fall through to clean delivery below.
                    records.append(
                        FailureRecord(
                            round_index, cid, attempt,
                            "slow_client", "delayed",
                        )
                    )
                    extra += retry.timeout_seconds
                    kind = None
                if kind == "stale_epoch":
                    status = ingest.submit(
                        cid, attempt, mask_epoch=epoch - 1
                    )
                    assert status == "rejected_stale"
                    extra += retry.backoff(
                        self.seed, round_index, cid, attempt
                    )
                    continue
                if kind in ("corrupt_payload", "truncate_payload"):
                    rng = self.schedule.damage_rng(
                        round_index, cid, attempt
                    )
                    wire = self._wire_for(ctx, result)
                    damaged = (
                        corrupt_wire(wire, rng)
                        if kind == "corrupt_payload"
                        else truncate_wire(wire, rng)
                    )
                    status = ingest.submit(
                        cid, attempt, mask_epoch=epoch, wire=damaged
                    )
                    assert status == "quarantined"
                    stats.quarantined += 1
                    extra += retry.backoff(
                        self.seed, round_index, cid, attempt
                    )
                    continue
                # Clean delivery (kind is None or duplicate_upload —
                # the duplicate replays the accepted upload verbatim).
                status = ingest.submit(cid, attempt, mask_epoch=epoch)
                if status != "accepted":  # pragma: no cover - defensive
                    extra += retry.backoff(
                        self.seed, round_index, cid, attempt
                    )
                    continue
                if kind == "duplicate_upload":
                    replay = ingest.submit(
                        cid, attempt, mask_epoch=epoch
                    )
                    assert replay == "duplicate"
                    stats.recoveries += 1
                delivered = True
                break
            stats.retries += attempts_used - 1
            if delivered:
                results.append(result)
            else:
                results.append(None)
                excluded.add(position)
                stats.recoveries += 1  # partial-cohort reweighting
                _LOG.warning(
                    "round %d client %d excluded after %d attempts",
                    round_index, cid, attempts_used,
                )
                records.append(
                    FailureRecord(
                        round_index, cid, attempts_used - 1,
                        "retry_exhausted", "excluded",
                        detail=f"attempts={attempts_used}",
                    )
                )
        records.extend(ingest.records)
        return RoundOutcome(
            results=results,
            excluded=frozenset(excluded),
            extra_seconds=extra,
            records=records,
            stats=stats,
        )
