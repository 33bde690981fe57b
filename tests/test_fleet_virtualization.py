"""Tests for the virtual client fleet and hierarchical aggregation.

The contract under test: the virtual backend (ID-based directory, lazy
materialization, streaming aggregation) is an implementation detail —
every observable of a run (committed states, round records, comm bytes,
simulated clock) is bitwise identical to the materialized backend.
"""

import numpy as np
import pytest

from repro.data.partition import (
    ListPartitionPlan,
    VirtualShardPlan,
    partition_dataset,
    plan_partition,
)
from repro.fl.aggregation import (
    HierarchicalAggregator,
    weighted_average_states,
)
from repro.fl.client import Client
from repro.fl.fleet import ClientDirectory, Cohort, cohort_size
from repro.fl.latency import FleetPlan, build_fleet
from repro.fl.payload import pack_state, unpack_state
from repro.fl.policies import RoundPlan
from repro.fl.simulation import FederatedContext, FLConfig
from repro.fl.state import get_state
from repro.nn.models import build_model
from repro.sparse.mask import MaskSet


# ----------------------------------------------------------------------
# Satellite: cohort sizing (ceil rule replaces banker's rounding)
# ----------------------------------------------------------------------
class TestCohortSize:
    def test_half_fractions_round_up(self):
        # int(round(...)) gave 2 for 2.5 but 4 for 3.5 (half-to-even);
        # the ceiling rule is monotone in the expected cohort.
        assert cohort_size(0.5, 5) == 3  # was round(2.5) == 2
        assert cohort_size(0.5, 7) == 4  # was round(3.5) == 4
        assert cohort_size(0.75, 6) == 5  # was round(4.5) == 4

    def test_exact_fractions_unchanged(self):
        assert cohort_size(0.5, 6) == 3
        assert cohort_size(1.0, 10) == 10

    def test_at_least_one(self):
        assert cohort_size(0.001, 3) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            cohort_size(0.0, 10)
        with pytest.raises(ValueError):
            cohort_size(1.5, 10)
        with pytest.raises(ValueError):
            cohort_size(0.5, 0)

    def test_sampler_uses_ceil_rule(self, tiny_dataset):
        train, test = tiny_dataset
        ctx = _make_ctx(train, test, "materialized",
                        num_clients=5, frac=0.5)
        try:
            ids = ctx.sample_participant_ids()
            assert len(ids) == 3
            assert ids == sorted(ids)
            assert all(0 <= i < 5 for i in ids)
        finally:
            ctx.close()


# ----------------------------------------------------------------------
# Satellite: dev-set floor on tiny shards
# ----------------------------------------------------------------------
class TestClientDevSet:
    def test_two_sample_shard_gets_dev_sample(self, tiny_dataset):
        train, _ = tiny_dataset
        shard = train.subset(np.arange(2))
        client = Client(client_id=0, train_data=shard, dev_fraction=0.1)
        assert client.num_dev_samples >= 1
        model = build_model(
            "small_cnn", num_classes=4, image_size=8,
            width_multiplier=0.25, seed=1,
        )
        loss = client.evaluate_candidate_loss(model, batch_size=8)
        assert np.isfinite(loss)

    def test_empty_shard_rejected_at_construction(self, tiny_dataset):
        train, _ = tiny_dataset
        empty = train.subset(np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="no local data"):
            Client(client_id=3, train_data=empty)

    def test_empty_dev_batches_raise_clearly(self, tiny_dataset):
        train, _ = tiny_dataset
        client = Client(client_id=0, train_data=train.subset(np.arange(4)))
        # Force the (otherwise unreachable) degenerate dev state to pin
        # the error message rather than a silent 0-batch evaluation.
        client.dev_data = train.subset(np.array([], dtype=np.int64))
        client._dev_batch_cache.clear()
        model = build_model(
            "small_cnn", num_classes=4, image_size=8,
            width_multiplier=0.25, seed=1,
        )
        with pytest.raises(ValueError, match="no dev batches"):
            client.evaluate_candidate_loss(model, batch_size=8)


# ----------------------------------------------------------------------
# Satellite: min_samples threading
# ----------------------------------------------------------------------
class TestPartitionMinSamples:
    def test_floor_is_respected(self, tiny_dataset):
        train, _ = tiny_dataset
        rng = np.random.default_rng(0)
        shards = partition_dataset(train, 4, 0.3, rng, min_samples=8)
        assert all(len(s) >= 8 for s in shards)

    def test_default_floor_unchanged(self, tiny_dataset):
        train, _ = tiny_dataset
        a = partition_dataset(train, 4, 0.5, np.random.default_rng(7))
        b = partition_dataset(
            train, 4, 0.5, np.random.default_rng(7), min_samples=2
        )
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.labels, sb.labels)

    def test_infeasible_floor_rejected(self, tiny_dataset):
        train, _ = tiny_dataset
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="cannot give"):
            partition_dataset(train, 4, 0.5, rng, min_samples=1_000)

    def test_invalid_floor_rejected(self, tiny_dataset):
        train, _ = tiny_dataset
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="min_samples"):
            partition_dataset(train, 4, 0.5, rng, min_samples=0)

    def test_config_threads_floor(self, tiny_dataset):
        train, test = tiny_dataset
        ctx = _make_ctx(train, test, "materialized",
                        num_clients=4, min_partition_samples=10)
        try:
            assert all(c >= 10 for c in ctx.sample_counts)
        finally:
            ctx.close()

    def test_config_validates_floor(self):
        with pytest.raises(ValueError, match="min_partition_samples"):
            FLConfig(num_clients=4, rounds=1, min_partition_samples=0)


# ----------------------------------------------------------------------
# Satellite: strict RoundPlan validation
# ----------------------------------------------------------------------
class TestRoundPlanValidation:
    def test_valid_plan_passes(self):
        plan = RoundPlan(
            trained=(0, 1, 2), on_time=(0, 1), dropped=(3,),
            elapsed_seconds=1.0,
        )
        assert plan.trained == (0, 1, 2)

    def test_negative_positions_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            RoundPlan(trained=(-1, 0), on_time=(), dropped=(),
                      elapsed_seconds=0.0)
        with pytest.raises(ValueError, match="negative"):
            RoundPlan(trained=(0,), on_time=(), dropped=(-2,),
                      elapsed_seconds=0.0)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RoundPlan(trained=(0, 0), on_time=(), dropped=(),
                      elapsed_seconds=0.0)
        with pytest.raises(ValueError, match="duplicate"):
            RoundPlan(trained=(0, 1), on_time=(0, 0), dropped=(),
                      elapsed_seconds=0.0)

    def test_trained_dropped_overlap_rejected(self):
        with pytest.raises(ValueError, match="both"):
            RoundPlan(trained=(0, 1), on_time=(0,), dropped=(1, 2),
                      elapsed_seconds=0.0)

    def test_preexisting_checks_still_enforced(self):
        with pytest.raises(ValueError, match="elapsed"):
            RoundPlan(trained=(0,), on_time=(), dropped=(),
                      elapsed_seconds=-1.0)
        with pytest.raises(ValueError, match="on_time"):
            RoundPlan(trained=(0,), on_time=(5,), dropped=(),
                      elapsed_seconds=0.0)


# ----------------------------------------------------------------------
# Partition plans
# ----------------------------------------------------------------------
class TestPartitionPlans:
    def test_plan_matches_materialized_partition(self, tiny_dataset):
        train, _ = tiny_dataset
        plan = plan_partition(train, 4, 0.5, np.random.default_rng(5))
        shards = partition_dataset(train, 4, 0.5, np.random.default_rng(5))
        assert plan.num_clients == 4
        for i, shard in enumerate(shards):
            assert plan.shard_size(i) == len(shard)
            np.testing.assert_array_equal(
                train.subset(plan.shard_indices(i)).labels, shard.labels
            )

    def test_plan_leaves_rng_in_same_state(self, tiny_dataset):
        train, _ = tiny_dataset
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        plan_partition(train, 4, 0.5, rng_a)
        partition_dataset(train, 4, 0.5, rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_virtual_shard_plan_is_deterministic(self):
        plan = VirtualShardPlan(2_048, 1_000_000, 8, seed=3)
        a = plan.shard_indices(999_999)
        b = plan.shard_indices(999_999)
        np.testing.assert_array_equal(a, b)
        assert a.size == 8 == plan.shard_size(999_999)
        assert (np.diff(a) > 0).all()  # sorted, no duplicates
        assert a.min() >= 0 and a.max() < 2_048

    def test_virtual_shards_differ_across_ids_and_seeds(self):
        plan = VirtualShardPlan(2_048, 100, 8, seed=3)
        other_seed = VirtualShardPlan(2_048, 100, 8, seed=4)
        assert not np.array_equal(
            plan.shard_indices(0), plan.shard_indices(1)
        )
        assert not np.array_equal(
            plan.shard_indices(0), other_seed.shard_indices(0)
        )

    def test_id_range_checked(self):
        plan = VirtualShardPlan(64, 10, 4)
        with pytest.raises(IndexError):
            plan.shard_indices(10)
        with pytest.raises(IndexError):
            ListPartitionPlan([np.arange(3)]).shard_indices(-1)

    def test_virtual_shard_plan_validation(self):
        with pytest.raises(ValueError):
            VirtualShardPlan(64, 10, 0)
        with pytest.raises(ValueError):
            VirtualShardPlan(64, 10, 65)
        with pytest.raises(ValueError):
            VirtualShardPlan(64, 0, 4)


# ----------------------------------------------------------------------
# Fleet plans
# ----------------------------------------------------------------------
class TestFleetPlan:
    @pytest.mark.parametrize(
        "spec", ["uniform", "heterogeneous:4", "heterogeneous:16"]
    )
    def test_profiles_match_eager_fleet(self, spec):
        eager = build_fleet(spec, 12, seed=3)
        plan = FleetPlan(spec, 12, seed=3)
        assert plan.num_devices == 12
        for i in range(12):
            assert plan.profile(i) == eager[i]

    def test_random_access_is_order_independent(self):
        plan = FleetPlan("heterogeneous:16", 50, seed=0)
        eager = build_fleet("heterogeneous:16", 50, seed=0)
        # Querying device 42 first must not disturb device 7's draw.
        assert plan.profile(42) == eager[42]
        assert plan.profile(7) == eager[7]


# ----------------------------------------------------------------------
# Client directories
# ----------------------------------------------------------------------
class TestVirtualDirectory:
    def _directory(self, train, num_clients=4, seed=0):
        plan = plan_partition(
            train, num_clients, 0.5, np.random.default_rng(seed)
        )
        fleet = FleetPlan("heterogeneous:4", num_clients, seed=seed)
        return ClientDirectory(train, plan, fleet, seed=seed)

    def test_matches_materialized_directory(self, tiny_dataset):
        # The oracles build the whole fleet eagerly: every shard from
        # partition_dataset, every profile from build_fleet.
        train, _ = tiny_dataset
        virtual = self._directory(train)
        shards = partition_dataset(train, 4, 0.5, np.random.default_rng(0))
        fleet = build_fleet("heterogeneous:4", 4, seed=0)
        eager = [
            Client(i, shard, seed=0, device=profile)
            for i, (shard, profile) in enumerate(zip(shards, fleet))
        ]
        assert virtual.num_clients == len(eager) == 4
        assert virtual.sample_counts() == [c.num_samples for c in eager]
        for i in range(4):
            assert virtual.device_profile(i) == eager[i].device
            a, b = virtual.materialize(i), eager[i]
            assert a.num_samples == b.num_samples
            np.testing.assert_array_equal(
                a.train_data.labels, b.train_data.labels
            )
            np.testing.assert_array_equal(
                a.dev_data.labels, b.dev_data.labels
            )
            assert (
                a.rng.bit_generator.state == b.rng.bit_generator.state
            )

    def test_release_resumes_rng_stream(self, tiny_dataset):
        train, _ = tiny_dataset
        virtual = self._directory(train)
        reference = self._directory(train).materialize(1)
        client = virtual.materialize(1)
        # Advance both RNG streams past construction, then drop one.
        expected = reference.rng.uniform(size=5)
        drawn = client.rng.uniform(size=5)
        np.testing.assert_array_equal(drawn, expected)
        virtual.release(1)
        assert virtual.live_count == 0
        resumed = virtual.materialize(1)
        assert resumed is not client  # genuinely rebuilt
        np.testing.assert_array_equal(
            resumed.rng.uniform(size=5), reference.rng.uniform(size=5)
        )

    def test_materialize_is_cached_until_release(self, tiny_dataset):
        train, _ = tiny_dataset
        virtual = self._directory(train)
        assert virtual.live_count == 0
        client = virtual.materialize(2)
        assert virtual.materialize(2) is client
        assert virtual.live_count == 1

    def test_metadata_needs_no_materialization(self, tiny_dataset):
        train, _ = tiny_dataset
        virtual = self._directory(train)
        virtual.sample_counts()
        virtual.device_profile(3)
        assert virtual.live_count == 0

    def test_cohort_materializes_on_access(self, tiny_dataset):
        train, _ = tiny_dataset
        virtual = self._directory(train)
        cohort = Cohort(virtual, [3, 1])
        assert len(cohort) == 2 and virtual.live_count == 0
        first = cohort[0]
        assert first.client_id == 3 and virtual.live_count == 1
        boundary = first.rng.bit_generator.state
        first.rng.uniform(size=3)
        # The RNG position recorded is the one at first access.
        assert cohort[0] is first
        assert cohort.round_rng == {3: boundary}
        assert [c.client_id for c in cohort] == [3, 1]
        assert set(cohort.round_rng) == {1, 3}

    def test_size_mismatch_rejected(self, tiny_dataset):
        train, _ = tiny_dataset
        plan = plan_partition(train, 4, 0.5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="fleet"):
            ClientDirectory(train, plan, FleetPlan("uniform", 5, seed=0))


# ----------------------------------------------------------------------
# Hierarchical aggregation
# ----------------------------------------------------------------------
def _random_states(rng, n, shapes=((4, 3), (5,), (2, 2, 2))):
    states = []
    for _ in range(n):
        states.append(
            {
                f"t{j}": rng.normal(size=shape).astype(np.float32)
                for j, shape in enumerate(shapes)
            }
        )
    return states


class TestHierarchicalAggregator:
    @pytest.mark.parametrize("fan_in", [None, 1, 7, 100])
    def test_degenerate_fan_ins_match_flat(self, rng, fan_in):
        # fan_in=None/>=n (single shard) and fan_in=1 (singleton shards)
        # are bitwise identical to the flat fold; 7 covers the uneven
        # tail shard (7 uploads into shards of 7 == single shard).
        states = _random_states(rng, 7)
        counts = [3, 9, 1, 4, 2, 8, 5]
        flat = weighted_average_states(states, counts)
        if fan_in is not None and 1 < fan_in < len(states):
            pytest.skip("intermediate fan-ins covered separately")
        agg = HierarchicalAggregator(counts, fan_in=fan_in)
        for state in states:
            agg.add_state(state)
        tree = agg.finish()
        for name in flat:
            np.testing.assert_array_equal(tree[name], flat[name])

    def test_intermediate_fan_in_matches_composition(self, rng):
        states = _random_states(rng, 7)
        counts = [3, 9, 1, 4, 2, 8, 5]
        fan_in = 3
        agg = HierarchicalAggregator(counts, fan_in=fan_in)
        for state in states:
            agg.add_state(state)
        tree = agg.finish()
        # The semantic contract: shard means (flat recipe per shard),
        # then a flat weighted mean of the means at shard totals.
        shard_means, shard_totals = [], []
        for start in range(0, len(states), fan_in):
            chunk = slice(start, start + fan_in)
            shard_means.append(
                weighted_average_states(states[chunk], counts[chunk])
            )
            shard_totals.append(sum(counts[chunk]))
        composed = weighted_average_states(shard_means, shard_totals)
        flat = weighted_average_states(states, counts)
        for name in flat:
            np.testing.assert_array_equal(tree[name], composed[name])
            # And the tree result is numerically (not bitwise) the
            # same average — IEEE addition is not associative.
            np.testing.assert_allclose(
                tree[name], flat[name], rtol=1e-5, atol=1e-6
            )

    @pytest.mark.parametrize("fan_in", [None, 1, 2])
    def test_packed_mode_matches_flat_packed(self, rng, fan_in):
        shapes = {"w": (6, 4), "b": (8,)}
        w_mask = rng.random(shapes["w"]) < 0.5
        masks = MaskSet({"w": w_mask})
        states, counts = [], [5, 2, 9, 4]
        for _ in counts:
            state = {
                name: rng.normal(size=shape).astype(np.float32)
                for name, shape in shapes.items()
            }
            state["w"] = np.where(w_mask, state["w"], np.float32(0.0))
            states.append(state)
        payloads = [pack_state(state, masks) for state in states]
        flat = weighted_average_states(
            [unpack_state(payload) for payload in payloads], counts
        )
        agg = HierarchicalAggregator(counts, fan_in=fan_in)
        for payload in payloads:
            agg.add_payload(payload)
        tree = agg.finish()
        assert set(tree) == set(flat)
        for name in flat:
            if fan_in == 2:
                np.testing.assert_allclose(
                    tree[name], flat[name], rtol=1e-5, atol=1e-6
                )
            else:
                np.testing.assert_array_equal(tree[name], flat[name])

    def test_upload_count_is_enforced(self, rng):
        states = _random_states(rng, 3)
        agg = HierarchicalAggregator([1, 1, 1])
        agg.add_state(states[0])
        with pytest.raises(ValueError, match="only 1 arrived"):
            agg.finish()
        agg.add_state(states[1])
        agg.add_state(states[2])
        agg.finish()
        with pytest.raises(ValueError, match="got more"):
            agg.add_state(states[0])

    def test_modes_cannot_mix(self, rng):
        states = _random_states(rng, 2, shapes=((3,),))
        masks = MaskSet({})
        payload = pack_state(states[0], masks)
        agg = HierarchicalAggregator([1, 1])
        agg.add_state(states[0])
        with pytest.raises(ValueError, match="dense"):
            agg.add_payload(payload)

    def test_mismatched_keys_rejected(self, rng):
        agg = HierarchicalAggregator([1, 1])
        agg.add_state({"a": np.zeros(2, dtype=np.float32)})
        with pytest.raises(ValueError, match="keys"):
            agg.add_state({"b": np.zeros(2, dtype=np.float32)})

    def test_count_validation(self):
        with pytest.raises(ValueError):
            HierarchicalAggregator([])
        with pytest.raises(ValueError):
            HierarchicalAggregator([4, 0])
        with pytest.raises(ValueError):
            HierarchicalAggregator([1, 2], fan_in=0)


# ----------------------------------------------------------------------
# End-to-end backend equivalence
# ----------------------------------------------------------------------
def _make_ctx(
    train,
    test,
    backend,
    *,
    num_clients=6,
    frac=1.0,
    policy="sync",
    fan_in=None,
    min_partition_samples=2,
    executor="serial",
):
    config = FLConfig(
        num_clients=num_clients,
        rounds=2,
        local_epochs=1,
        batch_size=16,
        lr=0.05,
        participation_fraction=frac,
        fleet="heterogeneous:4",
        round_policy=policy,
        client_backend=backend,
        aggregation_fan_in=fan_in,
        min_partition_samples=min_partition_samples,
        executor=executor,
        seed=0,
    )
    model = build_model(
        "small_cnn", num_classes=4, image_size=8,
        width_multiplier=0.25, seed=1,
    )
    return FederatedContext(
        model, train, test, config,
        dataset_name="synthetic", model_name="small_cnn",
    )


class TestBackendEquivalence:
    @pytest.mark.parametrize(
        "policy", ["sync", "deadline", "dropout", "async"]
    )
    def test_virtual_bitwise_equals_materialized(
        self, tiny_dataset, policy
    ):
        train, test = tiny_dataset
        a = _make_ctx(train, test, "materialized",
                      policy=policy, frac=0.6)
        b = _make_ctx(train, test, "virtual", policy=policy, frac=0.6)
        try:
            for _ in range(2):
                a.run_fedavg_round()
                b.run_fedavg_round()
                assert a.last_round_info == b.last_round_info
            sa, sb = get_state(a.model), get_state(b.model)
            assert set(sa) == set(sb)
            for name in sa:
                np.testing.assert_array_equal(sa[name], sb[name])
            assert a.sim_time == b.sim_time
            assert a.comm.upload_bytes == b.comm.upload_bytes
            assert a.comm.download_bytes == b.comm.download_bytes
        finally:
            a.close()
            b.close()

    def test_streaming_round_bitwise_equals_fedavg(self, tiny_dataset):
        train, test = tiny_dataset
        a = _make_ctx(train, test, "materialized")
        b = _make_ctx(train, test, "virtual")
        try:
            a.run_fedavg_round()
            b.run_fedavg_round()
            info = b.last_round_info
            sa, sb = get_state(a.model), get_state(b.model)
            for name in sa:
                np.testing.assert_array_equal(sa[name], sb[name])
            assert info.elapsed_seconds == (
                a.last_round_info.elapsed_seconds
            )
            assert info.selected_ids == a.last_round_info.selected_ids
            assert a.comm.upload_bytes == b.comm.upload_bytes
            assert a.comm.download_bytes == b.comm.download_bytes
            assert a.sim_time == b.sim_time
        finally:
            a.close()
            b.close()

    def test_streaming_keeps_at_most_one_client_live(self, tiny_dataset):
        train, test = tiny_dataset
        ctx = _make_ctx(train, test, "virtual")
        try:
            ctx.run_fedavg_round()
            assert ctx.directory.live_count == 0
        finally:
            ctx.close()

    def test_materialized_backend_keeps_every_client(self, tiny_dataset):
        # The default backend builds the whole fleet with the directory
        # and never drops a client, in or after a round.
        train, test = tiny_dataset
        ctx = _make_ctx(train, test, "materialized", frac=0.6)
        try:
            assert ctx.directory.live_count == 6
            before = ctx.clients
            ctx.run_fedavg_round()
            assert ctx.directory.live_count == 6
            assert all(a is b for a, b in zip(before, ctx.clients))
        finally:
            ctx.close()

    @pytest.mark.parametrize("need_states", [False, True])
    def test_fedavg_round_trains_one_live_client_at_a_time(
        self, tiny_dataset, monkeypatch, need_states
    ):
        # The round FedAvg runs (needs_round_states=False), and the one
        # a state-reading hook gets: on the virtual fleet with the
        # serial executor each client is built, trained, folded and
        # released before the next one exists.
        train, test = tiny_dataset
        ctx = _make_ctx(train, test, "virtual", frac=0.6)
        original = Client.train
        live = []

        def train_counting(self, *args, **kwargs):
            live.append(ctx.directory.live_count)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Client, "train", train_counting)
        try:
            for _ in range(2):
                ctx.run_fedavg_round(need_states=need_states)
                assert ctx.directory.live_count == 0
            cohort = len(ctx.last_round_info.selected_ids)
            assert len(live) == 2 * cohort
            assert max(live) <= 1
        finally:
            ctx.close()

    def test_server_fan_in_routing_stays_flat_equivalent(
        self, tiny_dataset
    ):
        train, test = tiny_dataset
        a = _make_ctx(train, test, "materialized")
        b = _make_ctx(train, test, "virtual", fan_in=1)
        try:
            a.run_fedavg_round()
            b.run_fedavg_round()
            sa, sb = get_state(a.model), get_state(b.model)
            for name in sa:
                np.testing.assert_array_equal(sa[name], sb[name])
        finally:
            a.close()
            b.close()

    def test_virtual_backend_valid_under_worker_executors(self):
        # The serial-only gate is gone: worker backends ship the pickled
        # directory recipe and materialize cohort clients worker-side.
        for executor in ("process", "network"):
            config = FLConfig(
                num_clients=4, rounds=1,
                client_backend="virtual", executor=executor,
            )
            assert config.executor == executor

    def test_backend_name_validated(self):
        with pytest.raises(ValueError, match="backend"):
            FLConfig(num_clients=4, rounds=1, client_backend="eager")

    def test_shard_size_requires_virtual_backend(self):
        with pytest.raises(ValueError, match="virtual"):
            FLConfig(num_clients=4, rounds=1, virtual_shard_size=8)

    def test_virtual_shard_backend_scales_population(self, tiny_dataset):
        # Population larger than the dataset: only representable with
        # per-ID virtual shards. One round must touch only the cohort.
        train, test = tiny_dataset
        config = FLConfig(
            num_clients=10_000,
            rounds=1,
            local_epochs=1,
            batch_size=8,
            lr=0.05,
            participation_fraction=4 / 10_000,
            fleet="heterogeneous:4",
            client_backend="virtual",
            virtual_shard_size=8,
            seed=0,
        )
        model = build_model(
            "small_cnn", num_classes=4, image_size=8,
            width_multiplier=0.25, seed=1,
        )
        ctx = FederatedContext(
            model, train, test, config,
            dataset_name="synthetic", model_name="small_cnn",
        )
        try:
            assert ctx.directory.num_clients == 10_000
            ctx.run_fedavg_round()
            info = ctx.last_round_info
            assert len(info.selected_ids) == 4
            assert ctx.directory.live_count == 0
        finally:
            ctx.close()
