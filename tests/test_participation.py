"""Tests for partial client participation (FedAvg client sampling)."""

import numpy as np
import pytest

from repro.core import FedTiny, FedTinyConfig
from repro.data import SyntheticSpec, generate
from repro.fl import FederatedContext, FLConfig
from repro.nn.models import build_model
from repro.pruning import PruningSchedule


@pytest.fixture(scope="module")
def setup():
    train, test = generate(
        SyntheticSpec(
            name="t", num_classes=4, num_train=240, num_test=60,
            image_size=8, noise=0.4, modes_per_class=1, seed=41,
        )
    )
    public, federated = train.split(0.2, np.random.default_rng(3))
    return public, federated, test


def _ctx(setup, participation=1.0, rounds=2, clients=6):
    public, federated, test = setup
    model = build_model(
        "resnet18", num_classes=4, width_multiplier=0.125, seed=5
    )
    config = FLConfig(
        num_clients=clients, rounds=rounds, local_epochs=1, batch_size=16,
        lr=0.05, participation_fraction=participation, seed=0,
    )
    return (
        FederatedContext(model, federated, test, config,
                         dataset_name="unit", model_name="resnet18"),
        public,
    )


class TestSampling:
    def test_full_participation_default(self, setup):
        ctx, _ = _ctx(setup)
        assert ctx.sample_participant_ids() == [
            c.client_id for c in ctx.clients
        ]

    def test_half_participation_size(self, setup):
        ctx, _ = _ctx(setup, participation=0.5)
        participants = ctx.sample_participant_ids()
        assert len(participants) == 3

    def test_at_least_one_client(self, setup):
        ctx, _ = _ctx(setup, participation=0.01)
        assert len(ctx.sample_participant_ids()) == 1

    def test_sampling_varies_across_rounds(self, setup):
        ctx, _ = _ctx(setup, participation=0.5)
        draws = {tuple(ctx.sample_participant_ids()) for _ in range(10)}
        assert len(draws) > 1

    def test_round_trains_only_participants(self, setup):
        ctx, _ = _ctx(setup, participation=0.5)
        states = ctx.run_fedavg_round()
        assert len(states) == len(ctx.last_participants) == 3

    def test_comm_scales_with_participation(self, setup):
        full_ctx, _ = _ctx(setup, participation=1.0)
        full_ctx.run_fedavg_round()
        half_ctx, _ = _ctx(setup, participation=0.5)
        half_ctx.run_fedavg_round()
        assert half_ctx.comm.total_bytes < full_ctx.comm.total_bytes

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FLConfig(participation_fraction=0.0)
        with pytest.raises(ValueError):
            FLConfig(participation_fraction=1.5)


class TestMethodsUnderPartialParticipation:
    def test_fedtiny_runs_with_sampling(self, setup):
        ctx, public = _ctx(setup, participation=0.5, rounds=3)
        config = FedTinyConfig(
            target_density=0.1, pool_size=2,
            schedule=PruningSchedule(delta_rounds=1, stop_round=3),
            pretrain_epochs=1,
        )
        result = FedTiny(config).run(ctx, public)
        assert result.final_density <= 0.1 * 1.001
        assert len(result.rounds) == 3

    def test_prunefl_runs_with_sampling(self, setup):
        from repro.baselines import PruneFLBaseline

        ctx, public = _ctx(setup, participation=0.5, rounds=2)
        result = PruneFLBaseline(
            0.1, schedule=PruningSchedule(delta_rounds=1, stop_round=2),
            pretrain_epochs=1,
        ).run(ctx, public)
        assert result.final_density == pytest.approx(0.1, rel=0.06)
