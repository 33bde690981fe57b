"""Tests for Client, Server, CommTracker and the federated context."""

import numpy as np
import pytest

from repro.data import Dataset, SyntheticSpec, generate
from repro.fl import Client, CommTracker, FLConfig, FederatedContext, Server
from repro.fl.faults import RetryPolicy
from repro.fl.transport import TransportConfig
from repro.nn.models import build_model
from repro.pruning import magnitude_mask_uniform
from repro.sparse import MaskSet, prunable_parameters


@pytest.fixture
def fl_setup():
    train, test = generate(
        SyntheticSpec(
            name="t", num_classes=4, num_train=200, num_test=60,
            image_size=8, noise=0.4, modes_per_class=1, seed=5,
        )
    )
    model = build_model(
        "resnet18", num_classes=4, width_multiplier=0.125, seed=2
    )
    config = FLConfig(
        num_clients=3, rounds=2, local_epochs=1, batch_size=16,
        lr=0.05, dirichlet_alpha=0.5, seed=0,
    )
    ctx = FederatedContext(model, train, test, config,
                           dataset_name="unit", model_name="resnet18")
    return ctx


class TestClient:
    def _client(self, n=60, seed=0):
        rng = np.random.default_rng(seed)
        data = Dataset(
            rng.normal(size=(n, 3, 8, 8)).astype(np.float32),
            rng.integers(0, 4, size=n),
        )
        return Client(0, data, dev_fraction=0.2, seed=seed)

    def test_dev_split_size(self):
        client = self._client(n=50)
        assert client.num_dev_samples == 10
        assert client.num_samples == 50

    def test_empty_data_raises(self):
        empty = Dataset(
            np.zeros((0, 3, 8, 8), dtype=np.float32),
            np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            Client(0, empty)

    def test_train_returns_state_and_iterations(self, fl_setup):
        ctx = fl_setup
        client = ctx.clients[0]
        ctx.server.load_into_model()
        result = client.train(ctx.model, epochs=1, batch_size=16, lr=0.05)
        assert result.num_iterations >= 1
        assert result.num_samples == client.num_samples
        assert "buffer::stem_bn.running_mean" in result.state

    def test_train_respects_masks(self, fl_setup):
        ctx = fl_setup
        masks = magnitude_mask_uniform(ctx.model, 0.2)
        ctx.install_masks(masks)
        ctx.server.load_into_model()
        client = ctx.clients[0]
        result = client.train(ctx.model, epochs=1, batch_size=16, lr=0.1)
        for name in masks:
            values = result.state[name][~masks[name]]
            np.testing.assert_array_equal(values, 0.0)

    def test_topk_gradients_only_pruned_positions(self, fl_setup):
        ctx = fl_setup
        masks = magnitude_mask_uniform(ctx.model, 0.3)
        ctx.install_masks(masks)
        ctx.server.load_into_model()
        client = ctx.clients[0]
        layer = "fc.weight"
        report = client.compute_topk_pruned_gradients(
            ctx.model, {layer: 5}, batch_size=16
        )
        indices, values = report[layer]
        assert len(indices) <= 5
        mask_flat = masks[layer].reshape(-1)
        assert not mask_flat[indices].any()  # all reported are pruned

    def test_topk_gradients_zero_count_skipped(self, fl_setup):
        ctx = fl_setup
        ctx.install_masks(magnitude_mask_uniform(ctx.model, 0.3))
        ctx.server.load_into_model()
        report = ctx.clients[0].compute_topk_pruned_gradients(
            ctx.model, {"fc.weight": 0}, batch_size=8
        )
        assert report == {}

    def test_topk_gradients_unmasked_layer_raises(self, fl_setup):
        ctx = fl_setup  # dense masks: Parameter.mask is all ones, fine
        ctx.server.load_into_model()
        # Remove the mask entirely to trigger the error path.
        dict(prunable_parameters(ctx.model))["fc.weight"].mask = None
        with pytest.raises(ValueError):
            ctx.clients[0].compute_topk_pruned_gradients(
                ctx.model, {"fc.weight": 3}, batch_size=8
            )

    def test_dense_gradients_all_layers(self, fl_setup):
        ctx = fl_setup
        ctx.server.load_into_model()
        grads = ctx.clients[0].compute_dense_gradients(ctx.model, 16)
        names = {n for n, _ in prunable_parameters(ctx.model)}
        assert set(grads) == names

    def test_evaluate_candidate_loss_positive(self, fl_setup):
        ctx = fl_setup
        ctx.server.load_into_model()
        loss = ctx.clients[0].evaluate_candidate_loss(ctx.model)
        assert loss > 0.0

    def test_train_validation(self, fl_setup):
        ctx = fl_setup
        with pytest.raises(ValueError):
            ctx.clients[0].train(ctx.model, epochs=0, batch_size=8, lr=0.1)


class TestServer:
    def test_masks_applied_on_init(self, tiny_resnet):
        masks = magnitude_mask_uniform(tiny_resnet, 0.5)
        server = Server(tiny_resnet, masks)
        assert server.density == pytest.approx(0.5, abs=0.02)
        for name, param in prunable_parameters(tiny_resnet):
            assert param.mask is not None

    def test_aggregate_updates_state(self, tiny_resnet):
        server = Server(tiny_resnet)
        state_a = {k: v + 1.0 for k, v in server.state.items()}
        state_b = {k: v - 1.0 for k, v in server.state.items()}
        before = {k: v.copy() for k, v in server.state.items()}
        server.aggregate([state_a, state_b], [1, 1])
        for key in before:
            np.testing.assert_allclose(
                server.state[key], before[key], atol=1e-5
            )

    def test_set_masks_zeroes_state(self, tiny_resnet):
        server = Server(tiny_resnet)
        masks = MaskSet.dense(tiny_resnet)
        masks["fc.weight"] = np.zeros_like(masks["fc.weight"])
        server.set_masks(masks)
        np.testing.assert_array_equal(server.state["fc.weight"], 0.0)


class TestCommTracker:
    def test_totals(self):
        tracker = CommTracker()
        tracker.record_download(100)
        tracker.record_upload(50, phase="pruning")
        assert tracker.total_bytes == 150
        assert tracker.phase_bytes("pruning") == 50
        assert tracker.phase_bytes("training") == 100

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            CommTracker().record_upload(-1)

    def test_reset(self):
        tracker = CommTracker()
        tracker.record_download(10)
        tracker.reset()
        assert tracker.total_bytes == 0


class TestFederatedContext:
    def test_clients_partition_data(self, fl_setup):
        ctx = fl_setup
        assert len(ctx.clients) == 3
        assert sum(ctx.sample_counts) == 200

    def test_round_trains_and_aggregates(self, fl_setup):
        ctx = fl_setup
        before = {k: v.copy() for k, v in ctx.server.state.items()}
        states = ctx.run_fedavg_round()
        assert len(states) == 3
        changed = any(
            not np.array_equal(ctx.server.state[k], before[k])
            for k in before
        )
        assert changed

    def test_round_records_communication(self, fl_setup):
        ctx = fl_setup
        ctx.run_fedavg_round()
        assert ctx.comm.upload_bytes > 0
        assert ctx.comm.download_bytes > 0

    def test_sparse_model_cheaper_to_exchange(self, fl_setup):
        ctx = fl_setup
        dense_bytes = ctx.model_exchange_bytes()
        ctx.install_masks(magnitude_mask_uniform(ctx.model, 0.05))
        assert ctx.model_exchange_bytes() < dense_bytes

    def test_evaluate_global(self, fl_setup):
        accuracy, loss = fl_setup.evaluate_global()
        assert 0.0 <= accuracy <= 1.0
        assert loss > 0.0

    def test_training_improves_over_rounds(self, fl_setup):
        ctx = fl_setup
        _, loss_before = ctx.evaluate_global()
        for _ in range(2):
            ctx.run_fedavg_round()
        _, loss_after = ctx.evaluate_global()
        assert loss_after < loss_before

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FLConfig(num_clients=0)
        with pytest.raises(ValueError):
            FLConfig(rounds=0)
        with pytest.raises(ValueError):
            FLConfig(dev_fraction=0.0)
        with pytest.raises(ValueError, match="eval_every"):
            FLConfig(eval_every=0)
        with pytest.raises(ValueError, match="batch_size"):
            FLConfig(batch_size=0)
        with pytest.raises(ValueError, match="momentum"):
            FLConfig(momentum=1.0)
        with pytest.raises(ValueError, match="weight_decay"):
            FLConfig(weight_decay=-0.1)

    def test_retry_and_transport_defaults_are_their_owners(self):
        config = FLConfig()
        assert config.retry_policy() == RetryPolicy()
        assert config.transport_config() == TransportConfig()
