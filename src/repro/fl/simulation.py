"""Federated experiment context and the shared round loop.

Every method (FedTiny and each baseline) runs against a
:class:`FederatedContext`: a shared model instance, the client
population, the test set, cost profiles, and a communication tracker.
The context provides the one primitive all methods share — a FedAvg
training round over sparse models — while mask manipulation stays in
the method implementations.

The round loop is a *systems simulation*, not just a learning loop:
each client carries a :class:`~repro.fl.latency.DeviceProfile` drawn
from the configured fleet, a simulated wall clock advances by the
per-round compute+transfer time the configured
:class:`~repro.fl.policies.RoundPolicy` charges, and every round record
carries the cumulative ``sim_time_seconds`` — so accuracy-vs-wall-clock
curves fall out of ordinary runs.

:meth:`FederatedContext.run_fedavg_round` is the one round. It selects
and times its cohort by client ID, and every upload folds through the
server's one FedAvg fold as soon as the executor produces it, unless a
fault schedule or a lossy backend can still exclude a client. On the
virtual fleet a round therefore keeps at most one client live under the
serial executor and holds O(model) server memory at any cohort size.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..data.dataset import Dataset
from ..data.partition import VirtualShardPlan, plan_partition
from ..metrics.accuracy import evaluate
from ..metrics.flops import ModelProfile, profile_model, \
    training_flops_per_sample
from ..metrics.tracker import RoundRecord, RunResult
from ..nn.module import Module
from ..sparse.mask import MaskSet
from ..sparse.quantize import dequantize_state, quantize_state
from .client import Client, LocalTrainResult
from .comm import CommTracker
from .executor import available_executors, build_executor
from .faults import FailureRecord, FaultSchedule, FaultTolerantRunner, \
    RetryPolicy, RoundFaultStats, RoundOutcome
from .fleet import ClientDirectory, Cohort, cohort_size
from .latency import FleetPlan, parse_fleet_spec
from .payload import packed_nbytes
from .policies import RoundInfo, RoundPlan, available_policies, \
    build_policy
from .server import Server
from .state import set_state
from .transport import TransportConfig

__all__ = ["FLConfig", "FederatedContext"]

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class FLConfig:
    """Hyper-parameters of the federated protocol (paper Section IV-A1)."""

    num_clients: int = 10
    rounds: int = 300
    local_epochs: int = 5
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    dirichlet_alpha: float | None = 0.5
    dev_fraction: float = 0.1
    participation_fraction: float = 1.0
    quantize_upload_bits: int | None = None
    eval_every: int = 1
    augment: bool = False
    executor: str = "serial"
    executor_workers: int | None = None
    # Fleet-scale knobs (see repro.fl.fleet). client_backend chooses
    # whether the client directory keeps released clients: "materialized"
    # builds every client up front and keeps them, "virtual" builds a
    # client when selected and drops it after its upload; both run the
    # same bytes. virtual_shard_size switches the partition to derived
    # overlapping shards so the population can vastly exceed the
    # dataset; aggregation_fan_in groups uploads under simulated edge
    # aggregators; min_partition_samples is the Dirichlet per-client
    # floor.
    client_backend: str = "materialized"
    virtual_shard_size: int | None = None
    aggregation_fan_in: int | None = None
    min_partition_samples: int = 2
    # Systems-simulation knobs: the device fleet spec (see
    # repro.fl.latency.parse_fleet_spec) and the round policy plus its
    # parameters (see repro.fl.policies).
    fleet: str = "uniform"
    round_policy: str = "sync"
    deadline_fraction: float = 1.5
    deadline_over_select: float = 1.5
    dropout_rate: float = 0.1
    async_buffer_fraction: float = 0.5
    staleness_discount: float = 0.5
    # Fault-tolerance knobs (see repro.fl.faults). ``faults`` is a
    # schedule spec ("kind:prob,..." or a preset name); None disables
    # injection entirely and the round loop stays byte-identical to the
    # fault-free golden run. The retry knobs parameterize the
    # RetryPolicy that defends against whatever the schedule throws;
    # their defaults and validation are RetryPolicy's own.
    faults: str | None = None
    retry_max_attempts: int = RetryPolicy.max_attempts
    retry_backoff_seconds: float = RetryPolicy.backoff_seconds
    retry_backoff_factor: float = RetryPolicy.backoff_factor
    retry_timeout_seconds: float = RetryPolicy.timeout_seconds
    pool_failure_limit: int = RetryPolicy.pool_failure_limit
    # Networked-transport knobs (see repro.fl.transport): the socket
    # read/write timeout (doubling as the server's in-flight task
    # deadline), the worker heartbeat cadence, and the reconnect /
    # task-reassignment budget. Only the "network" executor reads them;
    # their defaults and validation are TransportConfig's own, checked
    # for every config so a bad flag fails fast.
    transport_timeout: float = TransportConfig.timeout
    heartbeat_interval: float = TransportConfig.heartbeat_interval
    max_reconnects: int = TransportConfig.max_reconnects
    # Crash-resume knobs: with checkpoint_dir set the method's round
    # loop snapshots the full run state every ``checkpoint_every``
    # rounds; ``resume=True`` restarts from the latest snapshot
    # bit-for-bit instead of from round 1.
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    resume: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if not 0.0 < self.dev_fraction <= 1.0:
            raise ValueError("dev_fraction must be in (0, 1]")
        if not 0.0 < self.participation_fraction <= 1.0:
            raise ValueError("participation_fraction must be in (0, 1]")
        if self.quantize_upload_bits is not None and not (
            2 <= self.quantize_upload_bits <= 16
        ):
            raise ValueError("quantize_upload_bits must be in [2, 16]")
        if self.executor not in available_executors():
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"available: {available_executors()}"
            )
        if self.executor_workers is not None and self.executor_workers < 1:
            raise ValueError("executor_workers must be >= 1")
        if self.client_backend not in ("materialized", "virtual"):
            raise ValueError(
                f"unknown client backend {self.client_backend!r}; "
                f"expected 'materialized' or 'virtual'"
            )
        if self.virtual_shard_size is not None:
            if self.client_backend != "virtual":
                raise ValueError(
                    "virtual_shard_size requires client_backend='virtual'"
                )
            if self.virtual_shard_size < 1:
                raise ValueError("virtual_shard_size must be >= 1")
        if self.aggregation_fan_in is not None and self.aggregation_fan_in < 1:
            raise ValueError("aggregation_fan_in must be >= 1")
        if self.min_partition_samples < 1:
            raise ValueError("min_partition_samples must be >= 1")
        parse_fleet_spec(self.fleet)  # raises on malformed specs
        if self.round_policy not in available_policies():
            raise ValueError(
                f"unknown round policy {self.round_policy!r}; "
                f"available: {available_policies()}"
            )
        if self.deadline_fraction <= 0.0:
            raise ValueError("deadline_fraction must be positive")
        if self.deadline_over_select < 1.0:
            raise ValueError("deadline_over_select must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if not 0.0 < self.async_buffer_fraction <= 1.0:
            raise ValueError("async_buffer_fraction must be in (0, 1]")
        if not 0.0 < self.staleness_discount <= 1.0:
            raise ValueError("staleness_discount must be in (0, 1]")
        if self.faults is not None:
            FaultSchedule.parse(self.faults)  # raises on malformed specs
        self.retry_policy()  # raises on malformed retry knobs
        self.transport_config()  # raises on malformed transport knobs
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        if self.checkpoint_dir is not None and self.round_policy == "async":
            # The async policy buffers late uploads across rounds in
            # process-local state the checkpoint cannot capture; a
            # resumed run would silently drop them.
            raise ValueError(
                "checkpointing does not support round_policy='async'"
            )

    def retry_policy(self) -> RetryPolicy:
        """The fault runner's retry knobs as one object."""
        return RetryPolicy(
            max_attempts=self.retry_max_attempts,
            backoff_seconds=self.retry_backoff_seconds,
            backoff_factor=self.retry_backoff_factor,
            timeout_seconds=self.retry_timeout_seconds,
            pool_failure_limit=self.pool_failure_limit,
        )

    def transport_config(self) -> TransportConfig:
        """The networked executor's transport knobs as one object."""
        return TransportConfig(
            timeout=self.transport_timeout,
            heartbeat_interval=self.heartbeat_interval,
            max_reconnects=self.max_reconnects,
        )


class FederatedContext:
    """Everything a federated pruning method needs to run."""

    def __init__(
        self,
        model: Module,
        train_data: Dataset,
        test_data: Dataset,
        config: FLConfig,
        dataset_name: str = "synthetic",
        model_name: str = "model",
    ) -> None:
        self.model = model
        self.test_data = test_data
        self.config = config
        self.dataset_name = dataset_name
        self.model_name = model_name
        self.comm = CommTracker()
        self.rng = np.random.default_rng(config.seed)

        if config.virtual_shard_size is not None:
            # Derived overlapping shards: the population can exceed the
            # dataset, and no per-client state exists up front.
            plan = VirtualShardPlan(
                len(train_data),
                config.num_clients,
                config.virtual_shard_size,
                seed=config.seed,
            )
        else:
            # The exact partition, computed as index arrays only. It is
            # the context's first draw from self.rng, ahead of every
            # cohort sample.
            plan = plan_partition(
                train_data,
                config.num_clients,
                config.dirichlet_alpha,
                self.rng,
                min_samples=config.min_partition_samples,
            )
        self.directory = ClientDirectory(
            train_data,
            plan,
            FleetPlan(config.fleet, config.num_clients, config.seed),
            dev_fraction=config.dev_fraction,
            seed=config.seed,
            retain=config.client_backend == "materialized",
        )
        self.profile: ModelProfile = profile_model(
            model, train_data.image_shape
        )
        self.server = Server(
            model, aggregation_fan_in=config.aggregation_fan_in
        )
        self.executor = build_executor(
            config.executor,
            max_workers=config.executor_workers,
            transport=config.transport_config(),
        )
        self.round_policy = build_policy(config.round_policy, config)
        # Simulation-only randomness (availability draws) lives on its
        # own stream so systems realism never perturbs client sampling
        # or batch order.
        self.sim_rng = np.random.default_rng(config.seed * 52_711 + 13)
        self.sim_time = 0.0
        # Real (wall-clock) seconds spent inside executor training
        # calls. The simulated clock stays authoritative for policy
        # decisions (that is the byte-parity contract); this counter
        # observes what the actual transport/compute cost, which is
        # only meaningfully nonzero under real-transport backends.
        self.real_time_seconds = 0.0
        self.last_round_info: RoundInfo | None = None
        self._dropped_since_record = 0
        # Fault tolerance: the schedule/runner exist only when faults
        # are enabled, so the fault-free round loop takes the exact
        # code path (and RNG consumption) it always did.
        self.retry_policy = config.retry_policy()
        self.fault_schedule: FaultSchedule | None = (
            FaultSchedule.parse(config.faults, seed=config.seed)
            if config.faults is not None else None
        )
        self.fault_runner: FaultTolerantRunner | None = (
            FaultTolerantRunner(
                self.fault_schedule, self.retry_policy, seed=config.seed
            )
            if self.fault_schedule is not None else None
        )
        # Failure records not yet folded into a round record (same
        # discipline as the comm counters: record_round drains them
        # into RunResult.failures).
        self._failures_since_record: list[FailureRecord] = []
        self._fault_stats_since_record = RoundFaultStats()
        self._round_counter = 0
        # IDs aggregated in the last round (None: the whole fleet), and
        # their clients once someone asks: eagerly listing them would
        # materialize every virtual client.
        self._last_participant_ids: list[int] | None = None
        self._last_participants: list[Client] | None = None
        # Comm totals already folded into earlier round records, so each
        # record holds this round's delta (RunResult sums them back up).
        self._recorded_upload = 0
        self._recorded_download = 0

    # ------------------------------------------------------------------
    # Shared primitives
    # ------------------------------------------------------------------
    @property
    def clients(self) -> list[Client]:
        """Every client, materialized (compatibility surface; O(N))."""
        return self.directory.all_clients()

    @property
    def last_participants(self) -> list[Client]:
        """Clients aggregated in the last round (whole fleet before
        any round has run), materialized on first access."""
        if self._last_participants is None:
            ids = self._last_participant_ids
            self._last_participants = (
                self.directory.all_clients() if ids is None
                else [self.directory.materialize(i) for i in ids]
            )
        return self._last_participants

    @property
    def sample_counts(self) -> list[int]:
        return self.directory.sample_counts()

    def new_result(self, method: str, target_density: float) -> RunResult:
        return RunResult(
            method=method,
            dataset=self.dataset_name,
            model=self.model_name,
            target_density=target_density,
        )

    def sample_participant_ids(
        self, fraction: float | None = None
    ) -> list[int]:
        """Sorted cohort IDs for the next round, no clients built.

        With ``participation_fraction < 1`` a random subset is drawn
        each round, as in standard FedAvg client sampling; its size
        follows the explicit :func:`~repro.fl.fleet.cohort_size` rule,
        ``max(1, ceil(fraction * n))``. ``fraction`` overrides the
        configured participation fraction (round policies over-select
        through it). Full participation consumes no randomness.
        """
        if fraction is None:
            fraction = self.config.participation_fraction
        population = self.directory.num_clients
        if fraction >= 1.0:
            return list(range(population))
        count = cohort_size(fraction, population)
        chosen = self.rng.choice(population, size=count, replace=False)
        return sorted(int(i) for i in chosen)

    def round_times(self, client_ids: list[int]) -> list[float]:
        """Simulated seconds each client needs for one round.

        Compute time comes from the method's per-sample training FLOPs
        at the current mask density; transfer time from the same byte
        accounting the communication tracker charges. Reads only the
        directory's per-ID metadata, so no client is built.
        """
        flops_per_sample = training_flops_per_sample(
            self.profile, self.server.masks
        )
        upload = self.upload_bytes_per_client()
        download = self.model_exchange_bytes()
        epochs = self.config.local_epochs
        directory = self.directory
        return [
            float(
                directory.device_profile(client_id).time_for(
                    flops_per_sample * epochs
                    * directory.sample_count(client_id),
                    upload,
                    download,
                )
            )
            for client_id in client_ids
        ]

    def run_fedavg_round(
        self, need_states: bool = True
    ) -> list[dict[str, np.ndarray]]:
        """One policy-driven round: select, train, fold, tick.

        The configured :class:`~repro.fl.policies.RoundPolicy` picks the
        participant IDs, decides which of them train and upload in time
        on the simulated fleet, and weights the fold; the context's
        simulated wall clock advances by the round's elapsed seconds.
        Local training is delegated to the configured
        :class:`~repro.fl.executor.ClientExecutor`, and every upload
        folds through the server's one FedAvg fold
        (:meth:`~repro.fl.server.Server.open_fold`).

        When nothing can exclude a client once training starts (no fault
        schedule, and a backend that cannot lose tasks), the fold's
        weights are known up front: each upload folds as soon as the
        executor produces it and its client is released, so on the
        virtual fleet with the serial executor at most one client is
        live and the round holds O(model) memory. Otherwise the uploads
        are held until the cohort is final, then folded.

        An upload is copied only when something still needs it once it
        is folded: ``need_states`` (the method's round hook reads the
        uploads, returned aligned with ``last_participants``) or a late
        upload the policy buffers. ``need_states=False`` returns ``[]``.

        A round that raises leaves no trace: the shared model is reset
        to the broadcast, the cohort's and the context's RNG streams
        are rewound to the round boundary, and comm is charged only
        after the commit, so a replay is bit-for-bit the round that
        failed.
        """
        policy = self.round_policy
        directory = self.directory
        boundary = (
            self._round_counter,
            self.rng.bit_generator.state,
            self.sim_rng.bit_generator.state,
        )
        self._round_counter += 1
        participants = policy.select(self)
        times = self.round_times(participants)
        plan = policy.plan(self, participants, times)
        trained = Cohort(directory, [participants[i] for i in plan.trained])
        # Nothing can exclude a client once training starts: the fold's
        # weights are final, so uploads stream into it.
        streaming = (
            self.fault_runner is None and not self.executor.loses_tasks
        )
        fault_seconds = 0.0
        try:
            fold = (
                _RoundFold(self, plan, trained.ids, need_states, True)
                if streaming and trained else None
            )
            train_started = time.perf_counter()
            if self.fault_runner is not None and trained:
                outcome = self.fault_runner.run_round(
                    self, trained, self._round_counter
                )
                fault_seconds = outcome.extra_seconds
            else:
                outcome = RoundOutcome.of_executor(
                    self.executor.run_clients(
                        self, trained, fold.on_upload if fold else None
                    ),
                    trained.ids,
                    self._round_counter,
                )
            self.real_time_seconds += time.perf_counter() - train_started
            self._failures_since_record.extend(outcome.records)
            self._fault_stats_since_record.merge(outcome.stats)
            drain = getattr(self.executor, "drain_records", None)
            if drain is not None:
                # Transport-level adjudications (deduped replays after a
                # reconnect, quarantined bytes) join the structured
                # failure log; the deterministic fault counters are
                # untouched, so chaos accounting still compares across
                # executors.
                self._failures_since_record.extend(drain())
            trained_ids = trained.ids
            results = outcome.results
            if outcome.excluded:
                # Excluded clients (retries exhausted, or a task the
                # backend lost) leave the cohort: the plan re-packs
                # around the survivors and they join the dropped set.
                keep = [
                    k for k in range(len(trained_ids))
                    if k not in outcome.excluded
                ]
                plan = plan.without_trained(outcome.excluded)
                trained_ids = [trained_ids[k] for k in keep]
                results = [results[k] for k in keep]
            if fold is None and trained_ids:
                fold = _RoundFold(
                    self, plan, trained_ids, need_states, False,
                    packed=all(r.payload is not None for r in results),
                )
                for position, result in enumerate(results):
                    fold.on_upload(position, result)
            # With nobody trained (the whole cohort was lost) nothing
            # arrived: the global state carries over unchanged.
            stale_applied = fold.close() if fold is not None else 0
        except BaseException:
            self.server.restore_broadcast()
            for client_id in trained.round_rng:
                directory.release(client_id)
            directory.restore_rng(trained.round_rng)
            self._round_counter, rng_state, sim_rng_state = boundary
            self.rng.bit_generator.state = rng_state
            self.sim_rng.bit_generator.state = sim_rng_state
            raise
        for client_id in trained.round_rng:
            directory.release(client_id)
        download = self.model_exchange_bytes()
        upload = self.upload_bytes_per_client()
        for _ in trained_ids:
            self.comm.record_download(download)
            self.comm.record_upload(upload)
        if plan.dropped_received_broadcast:
            # Deadline stragglers (and excluded clients) pulled the model
            # before being cut; offline (dropout) clients never saw it.
            for _ in plan.dropped:
                self.comm.record_download(download)
        on_time = frozenset(plan.on_time)
        self._last_participant_ids = [
            trained_ids[p] for p in sorted(on_time)
        ]
        self._last_participants = None
        elapsed = plan.elapsed_seconds + fault_seconds
        self.sim_time += elapsed
        self._dropped_since_record += len(plan.dropped)
        self.last_round_info = RoundInfo(
            selected_ids=tuple(participants),
            aggregated_ids=tuple(self._last_participant_ids),
            dropped_ids=tuple(participants[i] for i in plan.dropped),
            late_ids=tuple(
                client_id for p, client_id in enumerate(trained_ids)
                if p not in on_time
            ),
            stale_applied=stale_applied,
            elapsed_seconds=elapsed,
        )
        return fold.states if fold is not None else []

    def model_exchange_bytes(self) -> int:
        """Bytes to move the current sparse model one way (float32).

        This is the *measured* size of the packed payload the transport
        codec actually ships (active values + int32 indices, dense
        fallback at the crossover), which by construction reconciles
        with the :mod:`repro.sparse.storage` accounting model — see
        :func:`repro.fl.payload.packed_nbytes`.
        """
        return packed_nbytes(self.model, self.server.masks)

    def upload_bytes_per_client(self) -> int:
        """Upload size, honoring ``quantize_upload_bits`` if enabled.

        Quantization shrinks only the *value* payload; the 4-byte flat
        indices of sparse tensors are unaffected.
        """
        bits = self.config.quantize_upload_bits
        if bits is None:
            return self.model_exchange_bytes()
        total_bits = 0
        masked = set(self.server.masks.layer_names())
        for name, param in self.model.named_parameters():
            if name in masked:
                active = self.server.masks.layer_active(name)
                total_bits += min(
                    active * (bits + 32), param.size * bits
                )
            else:
                total_bits += param.size * bits
        for _, buf in self.model.named_buffers():
            total_bits += int(buf.size) * bits
        return (total_bits + 7) // 8

    def evaluate_global(self) -> tuple[float, float]:
        """(accuracy, loss) of the global model on the test set."""
        self.server.load_into_model()
        result = evaluate(self.model, self.test_data, self.config.batch_size)
        return result.accuracy, result.loss

    def record_round(
        self,
        result: RunResult,
        round_index: int,
        train_flops: float,
    ) -> None:
        """Evaluate (if scheduled) and append a round record."""
        if (
            round_index % self.config.eval_every != 0
            and round_index != self.config.rounds
        ):
            return
        accuracy, loss = self.evaluate_global()
        upload_delta = self.comm.upload_bytes - self._recorded_upload
        download_delta = self.comm.download_bytes - self._recorded_download
        self._recorded_upload = self.comm.upload_bytes
        self._recorded_download = self.comm.download_bytes
        fault_stats = self._fault_stats_since_record
        result.record_round(
            RoundRecord(
                round_index=round_index,
                test_accuracy=accuracy,
                test_loss=loss,
                density=self.server.masks.density,
                upload_bytes=upload_delta,
                download_bytes=download_delta,
                train_flops=train_flops,
                sim_time_seconds=self.sim_time,
                dropped_clients=self._dropped_since_record,
                faults_injected=fault_stats.injected,
                retries=fault_stats.retries,
                quarantined_uploads=fault_stats.quarantined,
                recovery_actions=fault_stats.recoveries,
            )
        )
        result.failures.extend(self._failures_since_record)
        self._failures_since_record = []
        self._fault_stats_since_record = RoundFaultStats()
        self._dropped_since_record = 0

    def close(self) -> None:
        """Release the execution backend's worker resources."""
        self.executor.close()

    def __enter__(self) -> "FederatedContext":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        # The shm arena and worker pool must be released even when the
        # round loop raises; `with FederatedContext(...) as ctx:`
        # guarantees it.
        self.close()

    def degrade_executor(self) -> bool:
        """Fall back to the serial executor (graceful degradation).

        Called by the fault-recovery layer after repeated pool
        breakage. The serial backend is bitwise-identical to the pool,
        so a degraded run finishes with the same results, just without
        parallelism. Returns ``False`` when already serial.
        """
        if self.executor.name == "serial":
            return False
        _LOG.warning(
            "degrading executor %r to 'serial'", self.executor.name
        )
        self.executor.close()
        self.executor = build_executor("serial")
        return True

    def sync_comm_baseline(self) -> None:
        """Exclude traffic recorded so far from future round deltas.

        Called after one-off phases (candidate selection) whose bytes
        are accounted separately on the run result.
        """
        self._recorded_upload = self.comm.upload_bytes
        self._recorded_download = self.comm.download_bytes

    # ------------------------------------------------------------------
    # Crash-resumable runs
    # ------------------------------------------------------------------
    def checkpoint_path(self, method_name: str) -> Path | None:
        """Where this run checkpoints (``None`` when disabled)."""
        if self.config.checkpoint_dir is None:
            return None
        return Path(self.config.checkpoint_dir) / (
            f"{method_name}_{self.model_name}_{self.dataset_name}"
            f"_seed{self.config.seed}.npz"
        )

    def _checkpoint_fingerprint(self, method_name: str) -> tuple:
        """Identity of the run a checkpoint belongs to.

        ``rounds`` is deliberately absent: the trained prefix does not
        depend on the target length, so a snapshot from a shorter (or
        killed) run legitimately resumes into a longer one.
        """
        cfg = self.config
        return (
            method_name, self.model_name, self.dataset_name,
            cfg.seed, cfg.num_clients, cfg.local_epochs,
            cfg.round_policy, cfg.client_backend,
        )

    def save_checkpoint(
        self,
        path: Path,
        result: RunResult,
        round_index: int,
        method_state: dict | None = None,
    ) -> None:
        """Snapshot the full run state after ``round_index``.

        Captures everything a bit-for-bit resume needs: the committed
        global state and masks, every RNG stream position (context,
        simulation, and per-client), the simulated clock, comm and
        failure counters, the recorded round metrics, and the method's
        own cross-round state (``method_state``, from
        :meth:`~repro.methods.base.FederatedMethod.checkpoint_state`).
        The write is atomic — a kill during checkpointing leaves the
        previous snapshot usable.
        """
        from ..nn.checkpoint import save_run_checkpoint

        stats = self._fault_stats_since_record
        meta = {
            "fingerprint": self._checkpoint_fingerprint(result.method),
            "round_index": round_index,
            "round_counter": self._round_counter,
            "mask_epoch": self.server.mask_epoch,
            "sim_time": self.sim_time,
            "rng_state": self.rng.bit_generator.state,
            "sim_rng_state": self.sim_rng.bit_generator.state,
            "client_rng_states": self.directory.rng_snapshot(),
            "comm": (
                self.comm.upload_bytes,
                self.comm.download_bytes,
                dict(self.comm.by_phase),
            ),
            "recorded_comm": (
                self._recorded_upload, self._recorded_download
            ),
            "dropped_since_record": self._dropped_since_record,
            "failures_since_record": list(self._failures_since_record),
            "fault_stats_since_record": (
                stats.injected, stats.retries,
                stats.quarantined, stats.recoveries,
            ),
            "method_state": dict(method_state or {}),
            "result": {
                "rounds": [vars(r) for r in result.rounds],
                "failures": list(result.failures),
                "max_training_flops_per_round":
                    result.max_training_flops_per_round,
                "memory_footprint_bytes": result.memory_footprint_bytes,
                "selection_comm_bytes": result.selection_comm_bytes,
                "selection_flops": result.selection_flops,
                "metadata": dict(result.metadata),
            },
        }
        save_run_checkpoint(
            path,
            self.server.state,
            {name: mask for name, mask in self.server.masks.items()},
            meta,
        )

    def try_resume(
        self, path: Path, result: RunResult
    ) -> tuple[int, dict] | None:
        """Restore a :meth:`save_checkpoint` snapshot, if one exists.

        Returns ``(next_round_index, method_state)`` after installing
        the snapshot into the context and ``result``, or ``None`` when
        no checkpoint is on disk. Raises when the checkpoint belongs to
        a different run configuration — resuming across configs would
        silently produce garbage.
        """
        from ..nn.checkpoint import load_run_checkpoint

        if not path.exists():
            return None
        ckpt = load_run_checkpoint(path)
        meta = ckpt.meta
        expected = self._checkpoint_fingerprint(result.method)
        found = meta.get("fingerprint")
        if tuple(found or ()) != expected:
            raise ValueError(
                f"checkpoint {path} belongs to a different run: "
                f"{found!r} != {expected!r}"
            )
        _LOG.info(
            "resuming %s from %s after round %d",
            result.method, path, ckpt.round_index,
        )
        # Server: masks first (set_masks re-applies them to the model),
        # then the committed state, then pin the epoch counter so
        # executors' mask-keyed caches line up with the original run.
        self.server.set_masks(
            MaskSet({
                name: np.asarray(mask, dtype=bool)
                for name, mask in ckpt.masks.items()
            })
        )
        self.server.commit_state(ckpt.state)
        self.server.mask_epoch = int(meta["mask_epoch"])
        # Every RNG stream back to its exact position.
        self.rng.bit_generator.state = meta["rng_state"]
        self.sim_rng.bit_generator.state = meta["sim_rng_state"]
        self.directory.restore_rng(meta["client_rng_states"])
        # Clocks and counters.
        self.sim_time = float(meta["sim_time"])
        self._round_counter = int(meta["round_counter"])
        self._dropped_since_record = int(meta["dropped_since_record"])
        upload, download, by_phase = meta["comm"]
        self.comm.upload_bytes = int(upload)
        self.comm.download_bytes = int(download)
        self.comm.by_phase = dict(by_phase)
        self._recorded_upload, self._recorded_download = (
            int(v) for v in meta["recorded_comm"]
        )
        self._failures_since_record = list(
            meta["failures_since_record"]
        )
        self._fault_stats_since_record = RoundFaultStats(
            *meta["fault_stats_since_record"]
        )
        # Round-scoped caches are stale by definition.
        self._last_participant_ids = None
        self._last_participants = None
        self.last_round_info = None
        # The run record so far.
        saved = meta["result"]
        result.rounds = [RoundRecord(**d) for d in saved["rounds"]]
        result.failures = list(saved["failures"])
        result.max_training_flops_per_round = saved[
            "max_training_flops_per_round"
        ]
        result.memory_footprint_bytes = saved["memory_footprint_bytes"]
        result.selection_comm_bytes = saved["selection_comm_bytes"]
        result.selection_flops = saved["selection_flops"]
        result.metadata = dict(saved["metadata"])
        return ckpt.round_index + 1, dict(meta.get("method_state") or {})

    # ------------------------------------------------------------------
    # Mask plumbing
    # ------------------------------------------------------------------
    def install_masks(self, masks: MaskSet) -> None:
        self.server.set_masks(masks)

    def reset_model_state(self, state: dict[str, np.ndarray]) -> None:
        """Overwrite the global state (e.g. rewind for LotteryFL)."""
        set_state(self.model, state)
        self.server.commit_state(state)


class _RoundFold:
    """One round's uploads on their way into the server's FedAvg fold.

    Built once the fold's weights are final: the on-time uploads' sample
    counts in participant order, then whatever the policy adds (its
    stale buffer). :meth:`on_upload` takes the upload of
    ``trained_ids[position]``; an on-time upload folds at once, a late
    one is kept for the policy, and a copy is made only when something
    still needs the upload after the call — the round's returned states
    (``need_states``) or the policy's buffer. ``borrowed`` says dense
    uploads are views of the live model (the serial executor's
    streaming uploads). The client is released once its upload is
    handled.

    Payloads fold packed, without a dense decode, unless the fold also
    takes dense uploads — quantized ones, the policy's stale buffer, or
    (``packed=False``) a held cohort that mixes payloads with dense
    states after a process-to-serial degrade.
    """

    def __init__(
        self,
        ctx: FederatedContext,
        plan: RoundPlan,
        trained_ids: list[int],
        need_states: bool,
        borrowed: bool,
        packed: bool = True,
    ) -> None:
        self.ctx = ctx
        self.trained_ids = trained_ids
        self.on_time = frozenset(plan.on_time)
        self.need_states = need_states
        self.borrowed = borrowed
        self.bits = ctx.config.quantize_upload_bits
        counts = [
            ctx.directory.sample_count(trained_ids[p])
            for p in sorted(plan.on_time)
        ]
        weights = ctx.round_policy.fold_weights(counts)
        self.fold = ctx.server.open_fold(weights) if len(weights) else None
        self.packed = (
            packed and self.bits is None and len(weights) == len(counts)
        )
        self.states: list[dict[str, np.ndarray]] = []
        self.late: list[tuple[dict[str, np.ndarray], int]] = []

    def on_upload(self, position: int, result: LocalTrainResult) -> None:
        on_time = position in self.on_time
        keep = self.need_states or not on_time
        if self.packed and result.payload is not None:
            upload = result.payload
            state = result.resolve_state() if keep else None
        else:
            view = self.borrowed and result.payload is None
            state = result.resolve_state()
            if self.bits is not None:
                # Lossy round trip: the server only ever sees the
                # dequantized upload (FL-PQSU's quantization stage).
                state = dequantize_state(quantize_state(state, self.bits))
            elif keep and view:
                state = {name: value.copy() for name, value in state.items()}
            upload = state
        client_id = self.trained_ids[position]
        if on_time:
            self.fold.add(upload)
            if self.need_states:
                self.states.append(state)
        else:
            self.late.append(
                (state, self.ctx.directory.sample_count(client_id))
            )
        self.ctx.directory.release(client_id)

    def close(self) -> int:
        """Fold the policy's stale uploads and commit; returns their
        count."""
        stale = self.ctx.round_policy.end_fold(self.late)
        for state in stale:
            self.fold.add(state)
        if self.fold is not None:
            self.ctx.server.commit_state(self.fold.finish())
        return len(stale)
