"""Tests for the systems-realism simulation layer.

Covers fleet specs, device assignment, the simulated wall clock, each
round policy's completion semantics, the staleness-discounted
aggregation path, and the empty-dataset guard in centralized training.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.data import Dataset
from repro.experiments import get_scale, make_context, run_experiment
from repro.fl import (
    BufferedAsyncPolicy,
    DeadlinePolicy,
    DropoutPolicy,
    FLConfig,
    SynchronousPolicy,
    available_policies,
    build_fleet,
    build_policy,
    parse_fleet_spec,
    register_policy,
    train_centralized,
    uniform_fleet,
    weighted_average_states,
)
from repro.fl.policies import _POLICIES, RoundPlan


class TestFleetSpecs:
    def test_parse_uniform(self):
        assert parse_fleet_spec("uniform") == ("uniform", None)

    def test_parse_heterogeneous_with_spread(self):
        assert parse_fleet_spec("heterogeneous:16") == ("heterogeneous", 16.0)

    def test_parse_heterogeneous_default(self):
        assert parse_fleet_spec("heterogeneous") == ("heterogeneous", None)

    @pytest.mark.parametrize(
        "spec",
        ["warp-drive", "uniform:2", "heterogeneous:0.5", "heterogeneous:x"],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_fleet_spec(spec)

    def test_uniform_fleet_is_homogeneous(self):
        fleet = uniform_fleet(5)
        assert len(fleet) == 5
        assert len({d.flops_per_second for d in fleet}) == 1

    def test_build_fleet_spread_respected(self):
        fleet = build_fleet("heterogeneous:16", 32, seed=0)
        speeds = [d.flops_per_second for d in fleet]
        assert max(speeds) / min(speeds) <= 16.0 + 1e-6
        assert max(speeds) / min(speeds) > 4.0  # actually spread out

    def test_build_fleet_deterministic_in_seed(self):
        one = build_fleet("heterogeneous:4", 8, seed=3)
        two = build_fleet("heterogeneous:4", 8, seed=3)
        other = build_fleet("heterogeneous:4", 8, seed=4)
        assert [d.flops_per_second for d in one] == [
            d.flops_per_second for d in two
        ]
        assert [d.flops_per_second for d in one] != [
            d.flops_per_second for d in other
        ]


class TestFLConfigValidation:
    def test_fleet_spec_validated(self):
        with pytest.raises(ValueError):
            FLConfig(fleet="warp-drive")

    def test_round_policy_validated(self):
        with pytest.raises(ValueError):
            FLConfig(round_policy="vibes")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_fraction": 0.0},
            {"deadline_over_select": 0.5},
            {"dropout_rate": 1.0},
            {"dropout_rate": -0.1},
            {"async_buffer_fraction": 0.0},
            {"staleness_discount": 0.0},
            {"staleness_discount": 1.5},
        ],
    )
    def test_parameter_ranges(self, kwargs):
        with pytest.raises(ValueError):
            FLConfig(**kwargs)

    def test_defaults_accepted(self):
        cfg = FLConfig()
        assert cfg.fleet == "uniform"
        assert cfg.round_policy == "sync"


class TestPolicyRegistry:
    def test_builtins_available(self):
        for name in ("sync", "deadline", "dropout", "async"):
            assert name in available_policies()

    def test_build_by_name(self):
        cfg = FLConfig()
        assert isinstance(build_policy("sync", cfg), SynchronousPolicy)
        assert isinstance(build_policy("deadline", cfg), DeadlinePolicy)
        assert isinstance(build_policy("dropout", cfg), DropoutPolicy)
        assert isinstance(build_policy("async", cfg), BufferedAsyncPolicy)

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError):
            build_policy("vibes", FLConfig())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_policy("sync", SynchronousPolicy)

    def test_custom_policy_registration(self):
        class _Probe(SynchronousPolicy):
            name = "probe"

        try:
            register_policy("probe", _Probe)
            assert "probe" in available_policies()
            assert FLConfig(round_policy="probe").round_policy == "probe"
        finally:
            _POLICIES.pop("probe", None)


def _stub_ctx(config, seed=0):
    """The slice of FederatedContext a policy's plan() touches."""
    return SimpleNamespace(
        config=config, sim_rng=np.random.default_rng(seed)
    )


class TestRoundPlans:
    def test_sync_waits_for_everyone(self):
        policy = SynchronousPolicy(FLConfig())
        plan = policy.plan(_stub_ctx(FLConfig()), [None] * 4,
                           [1.0, 3.0, 2.0, 4.0])
        assert plan.trained == (0, 1, 2, 3)
        assert plan.on_time == (0, 1, 2, 3)
        assert plan.dropped == ()
        assert plan.elapsed_seconds == 4.0

    def test_deadline_cuts_stragglers_at_budget(self):
        cfg = FLConfig(round_policy="deadline", deadline_fraction=1.5)
        policy = DeadlinePolicy(cfg)
        times = [1.0, 1.0, 1.0, 10.0]  # median 1.0 -> budget 1.5
        plan = policy.plan(_stub_ctx(cfg), [None] * 4, times)
        assert plan.trained == (0, 1, 2)
        assert plan.dropped == (3,)
        assert plan.elapsed_seconds == pytest.approx(1.5)
        assert plan.dropped_received_broadcast

    def test_deadline_no_stragglers_closes_at_last_arrival(self):
        cfg = FLConfig(round_policy="deadline", deadline_fraction=2.0)
        policy = DeadlinePolicy(cfg)
        plan = policy.plan(_stub_ctx(cfg), [None] * 3, [1.0, 1.2, 1.4])
        assert plan.dropped == ()
        assert plan.elapsed_seconds == pytest.approx(1.4)

    def test_deadline_keeps_at_least_the_fastest(self):
        cfg = FLConfig(round_policy="deadline", deadline_fraction=0.01)
        policy = DeadlinePolicy(cfg)
        plan = policy.plan(_stub_ctx(cfg), [None] * 3, [5.0, 2.0, 9.0])
        assert plan.trained == (1,)
        assert set(plan.dropped) == {0, 2}
        # The clock waits for the lone survivor's upload, not just the
        # (already expired) budget.
        assert plan.elapsed_seconds == pytest.approx(2.0)

    def test_dropout_draws_from_sim_rng(self):
        cfg = FLConfig(round_policy="dropout", dropout_rate=0.5)
        policy = DropoutPolicy(cfg)
        ctx = _stub_ctx(cfg, seed=7)
        expected_draws = np.random.default_rng(7).random(6)
        plan = policy.plan(ctx, [None] * 6, [1.0] * 6)
        alive = tuple(np.flatnonzero(expected_draws >= 0.5))
        assert plan.trained == alive
        assert not plan.dropped_received_broadcast
        assert len(plan.trained) + len(plan.dropped) == 6

    def test_dropout_keeps_someone_online(self):
        cfg = FLConfig(round_policy="dropout", dropout_rate=0.999)
        policy = DropoutPolicy(cfg)
        for seed in range(5):
            plan = policy.plan(_stub_ctx(cfg, seed), [None] * 4, [1.0] * 4)
            assert len(plan.trained) >= 1

    def test_async_closes_on_kth_arrival(self):
        cfg = FLConfig(round_policy="async", async_buffer_fraction=0.5)
        policy = BufferedAsyncPolicy(cfg)
        times = [4.0, 1.0, 3.0, 2.0]
        plan = policy.plan(_stub_ctx(cfg), [None] * 4, times)
        assert plan.trained == (0, 1, 2, 3)  # everyone still trains
        assert plan.on_time == (1, 3)  # two fastest
        assert plan.dropped == ()
        assert plan.elapsed_seconds == pytest.approx(2.0)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            RoundPlan(trained=(0,), on_time=(1,), dropped=(),
                      elapsed_seconds=1.0)
        with pytest.raises(ValueError):
            RoundPlan(trained=(0,), on_time=(0,), dropped=(),
                      elapsed_seconds=-1.0)


class TestStalenessAggregation:
    def test_async_commit_matches_discounted_fedavg(self, monkeypatch):
        """The async policy's commit is FedAvg over the on-time uploads
        and last round's late ones, at ``|D_k| * discount**staleness``
        (staleness 0 fresh, 1 buffered) — bitwise."""
        scale = get_scale("tiny")
        ctx, _ = make_context(
            "resnet18", "cifar10", scale, seed=0, rounds=2,
            fleet="heterogeneous:8", round_policy="async",
            staleness_discount=0.5,
        )
        handed = []
        end_fold = BufferedAsyncPolicy.end_fold

        def record_late(self, late):
            handed.append(list(late))
            return end_fold(self, late)

        monkeypatch.setattr(BufferedAsyncPolicy, "end_fold", record_late)
        try:
            ctx.run_fedavg_round()
            first = ctx.last_round_info
            fresh = ctx.run_fedavg_round()
            second = ctx.last_round_info
            stale = [state for state, _ in handed[0]]
            assert len(stale) == len(first.late_ids) > 0
            assert second.stale_applied == len(stale)
            count = ctx.directory.sample_count
            counts = np.asarray(
                [count(i) for i in second.aggregated_ids]
                + [count(i) for i in first.late_ids],
                dtype=np.float64,
            )
            staleness = np.asarray(
                [0] * len(fresh) + [1] * len(stale), dtype=np.float64
            )
            expected = weighted_average_states(
                fresh + stale, counts * 0.5**staleness
            )
            for name, value in expected.items():
                assert (
                    ctx.server.state[name].view(np.uint32)
                    == value.view(np.uint32)
                ).all(), name
        finally:
            ctx.close()


class TestSimulatedRounds:
    """End-to-end: policies drive real rounds on a real context."""

    def _context(self, **overrides):
        scale = get_scale("tiny")
        ctx, _ = make_context(
            "resnet18", "cifar10", scale, seed=0, rounds=3, **overrides
        )
        return ctx

    def test_devices_assigned_from_fleet(self):
        ctx = self._context(fleet="heterogeneous:4")
        try:
            assert all(c.device is not None for c in ctx.clients)
            speeds = {c.device.flops_per_second for c in ctx.clients}
            assert len(speeds) > 1
        finally:
            ctx.close()

    def test_clock_accumulates_monotonically(self):
        ctx = self._context(fleet="heterogeneous:4")
        try:
            assert ctx.sim_time == 0.0
            ctx.run_fedavg_round()
            first = ctx.sim_time
            ctx.run_fedavg_round()
            assert first > 0.0
            assert ctx.sim_time > first
            info = ctx.last_round_info
            assert info is not None
            assert info.elapsed_seconds > 0.0
            assert info.selected_ids == tuple(range(len(ctx.clients)))
        finally:
            ctx.close()

    def test_sync_clock_charges_slowest_device(self):
        ctx = self._context(fleet="heterogeneous:4")
        try:
            times = ctx.round_times(list(range(ctx.directory.num_clients)))
            ctx.run_fedavg_round()
            assert ctx.sim_time == pytest.approx(max(times))
        finally:
            ctx.close()

    def test_deadline_round_drops_and_still_aggregates(self):
        ctx = self._context(
            fleet="heterogeneous:16", round_policy="deadline",
            deadline_fraction=1.0,
        )
        try:
            states = ctx.run_fedavg_round()
            info = ctx.last_round_info
            assert len(states) == len(ctx.last_participants)
            assert len(states) + info.dropped_count == len(ctx.clients)
            assert info.dropped_count > 0
        finally:
            ctx.close()

    def test_dropout_round_skips_offline_clients(self):
        ctx = self._context(
            round_policy="dropout", dropout_rate=0.45,
        )
        try:
            dropped = 0
            for _ in range(3):
                states = ctx.run_fedavg_round()
                info = ctx.last_round_info
                dropped += info.dropped_count
                assert len(states) == len(ctx.clients) - info.dropped_count
            assert dropped > 0  # seed-0 draws do fail at 45%
        finally:
            ctx.close()

    def test_async_round_buffers_and_applies_stale_uploads(self):
        ctx = self._context(
            fleet="heterogeneous:8", round_policy="async",
        )
        try:
            states = ctx.run_fedavg_round()
            first = ctx.last_round_info
            assert first.stale_applied == 0
            assert len(first.late_ids) > 0
            assert len(states) == len(ctx.clients) - len(first.late_ids)
            ctx.run_fedavg_round()
            second = ctx.last_round_info
            assert second.stale_applied == len(first.late_ids)
        finally:
            ctx.close()

    def test_deadline_over_selects_under_partial_participation(self):
        ctx = self._context(
            round_policy="deadline", participation_fraction=0.5,
        )
        try:
            # 4 clients at 0.5 participation -> 2; over-select 1.5x -> 3.
            selected = ctx.round_policy.select(ctx)
            assert len(selected) == 3
        finally:
            ctx.close()

    def test_policy_knobs_reach_the_config(self):
        ctx = self._context(
            round_policy="async", async_buffer_fraction=0.25,
            staleness_discount=0.9, deadline_over_select=2.0,
            deadline_fraction=1.1, dropout_rate=0.3,
        )
        try:
            cfg = ctx.config
            assert cfg.async_buffer_fraction == 0.25
            assert cfg.staleness_discount == 0.9
            assert cfg.deadline_over_select == 2.0
            assert cfg.deadline_fraction == 1.1
            assert cfg.dropout_rate == 0.3
        finally:
            ctx.close()

    def test_records_carry_sim_time_and_drops(self):
        result = run_experiment(
            "fedavg", "resnet18", "cifar10", 1.0, scale="tiny",
            seed=0, rounds=3, fleet="heterogeneous:16",
            round_policy="deadline", deadline_fraction=1.0,
        )
        times = [r.sim_time_seconds for r in result.rounds]
        assert all(t > 0 for t in times)
        assert times == sorted(times)
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert result.sim_time_seconds == times[-1]
        assert result.total_dropped_clients == sum(
            r.dropped_clients for r in result.rounds
        )
        out = result.to_dict()
        assert out["sim_time_seconds"] == times[-1]
        assert out["total_dropped_clients"] == result.total_dropped_clients
        curve = result.wall_clock_curve()
        assert [t for t, _ in curve] == times


class TestTrainCentralizedValidation:
    def test_empty_dataset_raises(self, tiny_resnet):
        empty = Dataset(
            np.zeros((0, 3, 8, 8), dtype=np.float32),
            np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="empty dataset"):
            train_centralized(tiny_resnet, empty, epochs=1)
