"""Tests for the fault-injection / recovery subsystem (PR 8).

Covers the deterministic fault schedule, the retry policy, wire damage
helpers, the server's ingest pipeline (dedup / stale-epoch / quarantine
with validation-before-write), the seeded chaos suite under both
executors, the round exception regression, context-manager
lifecycles, and crash-resumable checkpoints.
"""

import os
import shutil

import numpy as np
import pytest

from repro.data import SyntheticSpec, generate
from repro.experiments import run_experiment
from repro.fl import FLConfig, FederatedContext
from repro.fl.executor import SerialExecutor, build_executor
from repro.fl.faults import (
    FAULT_KINDS,
    FAULT_PRESETS,
    FaultSchedule,
    FaultSpec,
    RetryPolicy,
    corrupt_wire,
    truncate_wire,
)
from repro.fl.payload import PackedPayload, PayloadFormatError, pack_state
from repro.nn.models import build_model


def _make_context(**overrides):
    train, test = generate(
        SyntheticSpec(
            name="t", num_classes=4, num_train=160, num_test=48,
            image_size=8, noise=0.4, modes_per_class=1, seed=5,
        )
    )
    model = build_model(
        "resnet18", num_classes=4, width_multiplier=0.125, seed=2
    )
    kwargs = dict(
        num_clients=3, rounds=2, local_epochs=1, batch_size=16,
        lr=0.05, dirichlet_alpha=0.5, seed=0,
    )
    kwargs.update(overrides)
    return FederatedContext(
        model, train, test, FLConfig(**kwargs),
        dataset_name="unit", model_name="resnet18",
    )


def _server_fingerprint(server):
    """Bitwise snapshot of everything an upload could mutate."""
    state = {k: v.copy() for k, v in server.state.items()}
    masks = {k: v.copy() for k, v in server.masks.items()}
    return state, masks, server.mask_epoch


def _assert_fingerprint_unchanged(server, fingerprint):
    state, masks, epoch = fingerprint
    assert server.mask_epoch == epoch
    assert set(server.state) == set(state)
    for name, value in state.items():
        np.testing.assert_array_equal(server.state[name], value)
    for name, mask in masks.items():
        np.testing.assert_array_equal(server.masks[name], mask)


# ----------------------------------------------------------------------
# FaultSchedule / RetryPolicy
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_parse_pairs_roundtrip(self):
        schedule = FaultSchedule.parse(
            "corrupt_payload:0.1, client_timeout:0.05", seed=3
        )
        assert schedule.spec_string() == (
            "corrupt_payload:0.1,client_timeout:0.05"
        )
        reparsed = FaultSchedule.parse(schedule.spec_string(), seed=3)
        assert reparsed.spec_string() == schedule.spec_string()

    @pytest.mark.parametrize("preset", sorted(FAULT_PRESETS))
    def test_presets_parse(self, preset):
        schedule = FaultSchedule.parse(preset)
        assert schedule.specs

    @pytest.mark.parametrize(
        "bad",
        ["bogus:0.5", "corrupt_payload", "corrupt_payload:x",
         "corrupt_payload:1.5", "corrupt_payload:0.6,corrupt_payload:0.6",
         ""],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ValueError):
            FaultSchedule.parse(bad)

    def test_probabilities_must_not_exceed_one(self):
        with pytest.raises(ValueError, match="sum"):
            FaultSchedule(
                [FaultSpec("corrupt_payload", 0.7),
                 FaultSpec("client_timeout", 0.7)]
            )

    def test_draws_are_deterministic_and_coordinate_local(self):
        a = FaultSchedule.parse("chaos", seed=0)
        b = FaultSchedule.parse("chaos", seed=0)
        coords = [
            (r, c, t) for r in (1, 2, 7) for c in (0, 3, 11)
            for t in (0, 1, 2)
        ]
        draws = [a.draw(*coord) for coord in coords]
        assert draws == [b.draw(*coord) for coord in coords]
        # Querying one coordinate never shifts another (counter-based,
        # not stream-based): re-query in reverse order.
        assert draws[::-1] == [a.draw(*c) for c in coords[::-1]]

    def test_different_seeds_differ(self):
        a = FaultSchedule.parse("chaos", seed=0)
        b = FaultSchedule.parse("chaos", seed=1)
        coords = [(r, c, t) for r in range(8) for c in range(8)
                  for t in range(3)]
        assert [a.draw(*c) for c in coords] != [b.draw(*c) for c in coords]

    def test_draw_respects_probability_zero_and_one(self):
        never = FaultSchedule([FaultSpec("stale_epoch", 0.0)])
        always = FaultSchedule([FaultSpec("stale_epoch", 1.0)])
        for coord in [(1, 0, 0), (5, 2, 1)]:
            assert never.draw(*coord) is None
            assert always.draw(*coord) == "stale_epoch"

    def test_catalog_is_closed(self):
        for kind in FAULT_KINDS:
            FaultSpec(kind, 0.1)  # every catalog entry is constructible
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("cosmic_ray", 0.1)


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_grows(self):
        policy = RetryPolicy(backoff_seconds=0.5, backoff_factor=2.0)
        first = policy.backoff(0, 1, 2, 0)
        again = policy.backoff(0, 1, 2, 0)
        later = policy.backoff(0, 1, 2, 1)
        assert first == again
        assert later > first
        assert 0.5 <= first <= 0.5 * 1.1  # jitter_fraction=0.1

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_attempts": 0}, {"backoff_seconds": -1.0},
         {"backoff_factor": 0.5}, {"jitter_fraction": 2.0},
         {"timeout_seconds": -1.0}, {"pool_failure_limit": 0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ----------------------------------------------------------------------
# Wire damage + ingest pipeline (validation before write)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ingest_setup():
    ctx = _make_context()
    try:
        # A sparse mask so the packed payload exercises the sparse
        # encoding (indices + values) the tampering tests target.
        from repro.pruning import magnitude_mask_uniform

        ctx.install_masks(magnitude_mask_uniform(ctx.model, 0.2))
        results = ctx.executor.run_clients(ctx, ctx.last_participants)
        state = results[0].resolve_state()
        wire = bytes(pack_state(state, ctx.server.masks).to_wire())
        yield ctx, wire
    finally:
        ctx.close()


class TestWireDamage:
    def test_corrupt_wire_always_detected(self, ingest_setup):
        _, wire = ingest_setup
        for seed in range(24):
            rng = np.random.default_rng(seed)
            damaged = corrupt_wire(wire, rng)
            assert damaged != wire
            with pytest.raises(PayloadFormatError):
                PackedPayload.from_bytes(damaged, validate=True)

    def test_truncate_wire_always_detected(self, ingest_setup):
        _, wire = ingest_setup
        for seed in range(24):
            rng = np.random.default_rng(seed)
            damaged = truncate_wire(wire, rng)
            assert len(damaged) < len(wire)
            with pytest.raises(PayloadFormatError):
                PackedPayload.from_bytes(damaged, validate=True)


class TestRoundIngest:
    def test_accept_then_duplicate(self, ingest_setup):
        ctx, _ = ingest_setup
        ingest = ctx.server.begin_ingest(1)
        epoch = ctx.server.mask_epoch
        assert ingest.submit(0, 0, mask_epoch=epoch) == "accepted"
        assert ingest.submit(0, 1, mask_epoch=epoch) == "duplicate"
        assert ingest.accepted_clients == [0]
        assert [r.action for r in ingest.records] == ["deduplicated"]

    def test_stale_epoch_rejected(self, ingest_setup):
        ctx, _ = ingest_setup
        ingest = ctx.server.begin_ingest(1)
        epoch = ctx.server.mask_epoch
        assert ingest.submit(1, 0, mask_epoch=epoch - 1) == "rejected_stale"
        assert ingest.submit(1, 0, mask_epoch=epoch + 3) == "rejected_stale"
        assert ingest.accepted_clients == []
        assert {r.kind for r in ingest.records} == {"stale_epoch"}

    def test_valid_wire_accepted(self, ingest_setup):
        ctx, wire = ingest_setup
        ingest = ctx.server.begin_ingest(1)
        status = ingest.submit(
            2, 0, mask_epoch=ctx.server.mask_epoch, wire=wire
        )
        assert status == "accepted"

    def test_rejections_never_mutate_server_state(self, ingest_setup):
        """Property: arbitrary wire damage is quarantined (or, if the
        damage is structurally invisible, accepted) and the server is
        bitwise unchanged either way — ingest validates before any
        write."""
        ctx, wire = ingest_setup
        fingerprint = _server_fingerprint(ctx.server)
        epoch = ctx.server.mask_epoch
        statuses = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            mode = seed % 4
            damaged = bytearray(wire)
            if mode == 0:  # random single-bit flip anywhere
                pos = int(rng.integers(0, len(damaged)))
                damaged[pos] ^= 1 << int(rng.integers(0, 8))
            elif mode == 1:  # truncation
                damaged = damaged[: int(rng.integers(0, len(damaged)))]
            elif mode == 2:  # oversized offset/garbage header
                damaged = bytearray(corrupt_wire(wire, rng))
            else:  # scribble over a whole span
                start = int(rng.integers(0, len(damaged) - 64))
                for k in range(start, start + 64):
                    damaged[k] ^= 0xA5
            ingest = ctx.server.begin_ingest(1)
            status = ingest.submit(
                0, 0, mask_epoch=epoch, wire=bytes(damaged)
            )
            statuses.add(status)
            # A flipped bit inside a float value segment is invisible
            # to structural validation — acceptance is fine; *any*
            # mutation of server state is not.
            assert status in ("accepted", "quarantined")
            _assert_fingerprint_unchanged(ctx.server, fingerprint)
        assert "quarantined" in statuses

    def test_tampered_payload_fails_validation_before_aggregation(
        self, ingest_setup
    ):
        """Bad sparse indices / oversized offsets: the validator
        rejects the payload, and an aggregation attempt that slips
        past it raises before the commit — committed state is
        untouched both ways."""
        ctx, wire = ingest_setup
        fingerprint = _server_fingerprint(ctx.server)
        payload = PackedPayload.from_bytes(wire, copy=True)
        sparse_specs = [
            s for s in payload.specs if s.encoding == "sparse"
        ]
        assert sparse_specs, "fixture payload should have sparse tensors"
        spec = sparse_specs[0]
        # Point the first index far out of range.
        start = spec.offset
        np.frombuffer(
            payload.buffer, dtype=np.int32, count=1, offset=start
        ).flags  # (sanity: the view is addressable)
        payload.buffer[start:start + 4] = np.frombuffer(
            np.int32(2 ** 30).tobytes(), dtype=np.uint8
        )
        with pytest.raises(PayloadFormatError):
            payload.validate()
        with pytest.raises(Exception):
            ctx.server.aggregate([payload], [10])
        _assert_fingerprint_unchanged(ctx.server, fingerprint)


class TestUploadIdempotency:
    def test_permuted_duplicated_uploads_commit_identically(self):
        """Property: the committed state is a pure function of the
        round's accepted payloads. At-least-once delivery means a
        transport may present a round's uploads in any arrival order
        with any prefix replayed; the ingest must dedup the replays,
        accept each client exactly once, and — because the caller
        aggregates accepted payloads in canonical participant order,
        never arrival order — commit bitwise-identical state with
        identical accounting every time."""
        ctx = _make_context()
        try:
            participants = ctx.last_participants
            results = ctx.executor.run_clients(ctx, participants)
            wires = {}
            counts = {}
            for client, result in zip(participants, results):
                wires[client.client_id] = bytes(
                    pack_state(
                        result.resolve_state(), ctx.server.masks
                    ).to_wire()
                )
                counts[client.client_id] = result.num_samples
            canonical = [c.client_id for c in participants]
            epoch = ctx.server.mask_epoch
            saved = {k: v.copy() for k, v in ctx.server.state.items()}
            reference = None
            for trial in range(10):
                rng = np.random.default_rng(trial)
                order = list(canonical)
                rng.shuffle(order)
                dup_count = int(rng.integers(0, len(order) + 1))
                arrivals = order + order[:dup_count]
                ingest = ctx.server.begin_ingest(1)
                statuses = [
                    ingest.submit(
                        cid, attempt, mask_epoch=epoch, wire=wires[cid]
                    )
                    for attempt, cid in enumerate(arrivals)
                ]
                assert statuses.count("accepted") == len(order)
                assert statuses.count("duplicate") == dup_count
                assert sorted(ingest.accepted_clients) == sorted(
                    canonical
                )
                assert len(ingest.records) == dup_count
                assert all(
                    r.action == "deduplicated" for r in ingest.records
                )
                payloads = [
                    ingest.accepted_payload(cid) for cid in canonical
                ]
                assert all(p is not None for p in payloads)
                ctx.server.aggregate(
                    payloads, [counts[cid] for cid in canonical]
                )
                committed = {
                    k: v.copy() for k, v in ctx.server.state.items()
                }
                if reference is None:
                    reference = committed
                else:
                    assert set(committed) == set(reference)
                    for name in reference:
                        np.testing.assert_array_equal(
                            committed[name], reference[name], err_msg=name
                        )
                # Rewind for the next trial.
                ctx.server.commit_state(
                    {k: v.copy() for k, v in saved.items()}
                )
        finally:
            ctx.close()


# ----------------------------------------------------------------------
# The seeded chaos suite (both executors)
# ----------------------------------------------------------------------
_CHAOS_COMMON = dict(scale="tiny", seed=0)


@pytest.fixture(scope="module")
def chaos_baseline():
    return run_experiment(
        "fedavg", "resnet18", "cifar10", 1.0, **_CHAOS_COMMON
    )


def _metric_fields(result):
    """Per-round fields that must survive recovery bitwise (the
    simulated clock absorbs backoff and the recovery accounting is
    executor-dependent, so both are excluded)."""
    skip = ("sim_time_seconds", "recovery_actions")
    return [
        {k: v for k, v in vars(r).items() if k not in skip}
        for r in result.rounds
    ]


def _fault_free_fields(result):
    skip = (
        "sim_time_seconds", "recovery_actions", "faults_injected",
        "retries", "quarantined_uploads", "dropped_clients",
    )
    return [
        {k: v for k, v in vars(r).items() if k not in skip}
        for r in result.rounds
    ]


class TestChaosSuite:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize(
        "preset", ["chaos", "bad_transport", "flaky_clients"]
    )
    def test_recovery_invariants(self, chaos_baseline, executor, preset):
        faulted = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0,
            faults=preset, executor=executor, **_CHAOS_COMMON,
        )
        baseline = chaos_baseline
        # 1. Every round completed.
        assert len(faulted.rounds) == len(baseline.rounds)
        assert faulted.total_faults_injected > 0
        # 2. Accounting: quarantines and exclusions all carry records.
        quarantined = [
            f for f in faulted.failures if f.action == "quarantined"
        ]
        excluded = [
            f for f in faulted.failures if f.action == "excluded"
        ]
        assert len(quarantined) == faulted.total_quarantined_uploads
        assert (
            faulted.total_dropped_clients
            - baseline.total_dropped_clients
            == len(excluded)
        )
        # 3. Recovery: with no exclusions the faulted run is bitwise
        # equal to the fault-free baseline (modulo the clock); with
        # exclusions the partial cohorts are accounted as dropped.
        if not excluded:
            assert _fault_free_fields(faulted) == _fault_free_fields(
                baseline
            )
        # 4. The simulated clock absorbed backoff/timeouts.
        assert (
            faulted.sim_time_seconds > baseline.sim_time_seconds
        )

    def test_faulted_runs_identical_across_executors(
        self,
    ):
        serial = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0,
            faults="chaos", **_CHAOS_COMMON,
        )
        process = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0,
            faults="chaos", executor="process", **_CHAOS_COMMON,
        )
        assert _metric_fields(serial) == _metric_fields(process)

    def test_whole_cohort_lost_round_carries_state_over(self):
        result = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0,
            rounds=1, faults="corrupt_payload:1.0", **_CHAOS_COMMON,
        )
        assert len(result.rounds) == 1
        record = result.rounds[0]
        excluded = [f for f in result.failures if f.action == "excluded"]
        assert record.dropped_clients == len(excluded)
        assert record.quarantined_uploads > 0

    def test_worker_crash_respawns_and_degrades(self):
        result = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0,
            faults="worker_crash:0.4", executor="process",
            **_CHAOS_COMMON,
        )
        actions = {f.action for f in result.failures}
        assert "respawned_pool" in actions
        assert "degraded_executor" in actions
        # Degradation is graceful: the run still matches the serial
        # twin bitwise.
        serial = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0,
            faults="worker_crash:0.4", **_CHAOS_COMMON,
        )
        assert _metric_fields(result) == _metric_fields(serial)


# ----------------------------------------------------------------------
# Satellite 1: round exception safety
# ----------------------------------------------------------------------
class TestStreamingRoundExceptionSafety:
    def test_mid_round_failure_restores_everything(self, monkeypatch):
        ctx = _make_context(client_backend="virtual")
        try:
            fingerprint = _server_fingerprint(ctx.server)
            from repro.fl.client import Client

            calls = {"n": 0}
            original = Client.train

            def explode_on_second(self, *args, **kwargs):
                calls["n"] += 1
                if calls["n"] == 2:
                    raise RuntimeError("client died mid-round")
                return original(self, *args, **kwargs)

            monkeypatch.setattr(Client, "train", explode_on_second)
            with pytest.raises(RuntimeError, match="mid-round"):
                ctx.run_fedavg_round()
            # Committed state, masks and epoch are untouched.
            _assert_fingerprint_unchanged(ctx.server, fingerprint)
            # Every client was released: the directory can materialize
            # the whole fleet again.
            for client_id in range(ctx.config.num_clients):
                client = ctx.directory.materialize(client_id)
                assert client.client_id == client_id
                ctx.directory.release(client_id)
            # And the next (un-sabotaged) round runs to completion
            # exactly like a fresh context's first round would.
            monkeypatch.setattr(Client, "train", original)
            ctx.run_fedavg_round()
            info = ctx.last_round_info
            assert info.aggregated_ids == tuple(
                range(ctx.config.num_clients)
            )
        finally:
            ctx.close()

    def test_failed_round_is_bitwise_replayable(self, monkeypatch):
        """A crashed round leaves no trace: replaying it produces the
        same committed state as a run that never crashed."""
        from repro.fl.client import Client

        original = Client.train

        def run(sabotage_first):
            ctx = _make_context(client_backend="virtual")
            try:
                calls = {"n": 0}

                def maybe_explode(self, *args, **kwargs):
                    calls["n"] += 1
                    if sabotage_first and calls["n"] == 2:
                        raise RuntimeError("boom")
                    return original(self, *args, **kwargs)

                monkeypatch.setattr(Client, "train", maybe_explode)
                if sabotage_first:
                    with pytest.raises(RuntimeError):
                        ctx.run_fedavg_round()
                    calls["n"] = 10**9  # no more sabotage
                ctx.run_fedavg_round()
                state = {
                    k: v.copy() for k, v in ctx.server.state.items()
                }
                comm = (ctx.comm.upload_bytes, ctx.comm.download_bytes)
                return state, comm
            finally:
                monkeypatch.setattr(Client, "train", original)
                ctx.close()

        clean, clean_comm = run(sabotage_first=False)
        replayed, replayed_comm = run(sabotage_first=True)
        assert clean_comm == replayed_comm
        assert set(clean) == set(replayed)
        for name in clean:
            np.testing.assert_array_equal(clean[name], replayed[name])

    def test_failed_partial_round_replays_the_same_cohort(
        self, monkeypatch
    ):
        """Under partial participation the cohort draw rewinds too: the
        replay selects, trains and commits what a clean round does."""
        from repro.fl.client import Client

        original = Client.train

        def run(sabotage):
            ctx = _make_context(
                client_backend="virtual", num_clients=6,
                participation_fraction=0.5,
            )
            calls = {"n": 0}

            def explode_once(self, *args, **kwargs):
                calls["n"] += 1
                if sabotage and calls["n"] == 1:
                    raise RuntimeError("boom")
                return original(self, *args, **kwargs)

            monkeypatch.setattr(Client, "train", explode_once)
            try:
                if sabotage:
                    with pytest.raises(RuntimeError):
                        ctx.run_fedavg_round()
                ctx.run_fedavg_round()
                ctx.run_fedavg_round()
                return ctx.last_round_info, _server_fingerprint(ctx.server)
            finally:
                monkeypatch.setattr(Client, "train", original)
                ctx.close()

        clean_info, clean_server = run(sabotage=False)
        info, server = run(sabotage=True)
        assert info == clean_info
        for a, b in zip(clean_server[0].values(), server[0].values()):
            np.testing.assert_array_equal(a, b)


class TestExecutorOutcome:
    def test_lost_tasks_become_exclusions(self):
        # Without a fault schedule, a backend's None slots are excluded
        # with the records and recoveries a retry-exhausted client gets.
        from repro.fl.faults import RoundOutcome

        outcome = RoundOutcome.of_executor(
            ["a", None, "c", None], [7, 8, 9, 10], round_index=4
        )
        assert outcome.excluded == frozenset({1, 3})
        assert outcome.extra_seconds == 0.0
        assert [(r.round_index, r.client_id, r.kind, r.action)
                for r in outcome.records] == [
            (4, 8, "connection_lost", "excluded"),
            (4, 10, "connection_lost", "excluded"),
        ]
        assert outcome.stats.recoveries == 2
        assert outcome.stats.injected == outcome.stats.retries == 0
        clean = RoundOutcome.of_executor(["a"], [0], round_index=1)
        assert not clean.excluded and not clean.records


# ----------------------------------------------------------------------
# Satellite 2: context-manager lifecycles
# ----------------------------------------------------------------------
class TestContextManagers:
    def test_federated_context_closes_on_exit(self):
        with _make_context() as ctx:
            assert ctx.executor is not None
        # close() is idempotent and was called by __exit__.
        ctx.close()

    def test_executor_context_manager(self):
        executor = build_executor("serial")
        with executor as entered:
            assert entered is executor
        executor.close()

    def test_degrade_executor_swaps_to_serial(self):
        with _make_context(executor="process") as ctx:
            assert ctx.executor.name == "process"
            assert ctx.degrade_executor() is True
            assert isinstance(ctx.executor, SerialExecutor)
            # Already serial: no further degradation possible.
            assert ctx.degrade_executor() is False


# ----------------------------------------------------------------------
# Crash-resumable runs
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_killed_run_resumes_bit_for_bit(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        common = dict(scale="tiny", seed=0, checkpoint_dir=ckpt)
        full = run_experiment(
            "fedtiny", "resnet18", "cifar10", 0.1,
            pool_size=2, **common,
        )
        shutil.rmtree(ckpt)
        os.makedirs(ckpt)
        # "Kill" the run after round 2 by only running 2 rounds...
        run_experiment(
            "fedtiny", "resnet18", "cifar10", 0.1,
            pool_size=2, rounds=2, **common,
        )
        # ...then resume to the full length.
        resumed = run_experiment(
            "fedtiny", "resnet18", "cifar10", 0.1,
            pool_size=2, resume=True, **common,
        )
        assert [vars(r) for r in full.rounds] == [
            vars(r) for r in resumed.rounds
        ]
        assert resumed.final_accuracy == full.final_accuracy
        assert (
            resumed.memory_footprint_bytes == full.memory_footprint_bytes
        )
        assert resumed.metadata == full.metadata

    def test_resume_under_faults_is_bit_for_bit(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        common = dict(
            scale="tiny", seed=0, faults="bad_transport",
            checkpoint_dir=ckpt,
        )
        full = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0, **common
        )
        shutil.rmtree(ckpt)
        os.makedirs(ckpt)
        run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0, rounds=2, **common
        )
        resumed = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0, resume=True, **common
        )
        assert [vars(r) for r in full.rounds] == [
            vars(r) for r in resumed.rounds
        ]
        assert [vars(f) for f in full.failures] == [
            vars(f) for f in resumed.failures
        ]

    def test_mismatched_checkpoint_is_rejected(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0,
            scale="tiny", seed=0, rounds=1, checkpoint_dir=ckpt,
        )
        with pytest.raises(ValueError, match="different run"):
            run_experiment(
                "fedavg", "resnet18", "cifar10", 1.0,
                scale="tiny", seed=0, local_epochs=2,
                checkpoint_dir=ckpt, resume=True,
            )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="resume"):
            FLConfig(num_clients=2, rounds=1, resume=True)
        with pytest.raises(ValueError, match="async"):
            FLConfig(
                num_clients=2, rounds=1, round_policy="async",
                checkpoint_dir="/tmp/x",
            )
        with pytest.raises(ValueError):
            FLConfig(num_clients=2, rounds=1, faults="nope:1")
        with pytest.raises(ValueError):
            FLConfig(num_clients=2, rounds=1, retry_max_attempts=0)
