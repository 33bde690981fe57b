"""Tests for the experiment registry, runner and reporting."""

import pytest

from repro.experiments import (
    METHOD_NAMES,
    build_method,
    format_accuracy_matrix,
    format_density_series,
    format_table,
    format_table1,
    get_scale,
    make_context,
    prepare_data,
    run_experiment,
)
from repro.experiments.specs import CONFIG_OVERRIDE_KEYS
from repro.metrics import RoundRecord, RunResult


class TestScales:
    def test_known_scales(self):
        for name in ("tiny", "bench", "paper"):
            preset = get_scale(name)
            assert preset.name == name

    def test_unknown_scale_raises(self):
        with pytest.raises(KeyError):
            get_scale("huge")

    def test_paper_scale_matches_paper(self):
        paper = get_scale("paper")
        assert paper.num_clients == 10
        assert paper.rounds == 300
        assert paper.local_epochs == 5
        assert paper.batch_size == 64
        assert paper.delta_rounds == 10
        assert paper.stop_round == 100

    def test_fl_config_override_rounds(self):
        preset = get_scale("tiny")
        assert preset.fl_config(rounds=7).rounds == 7

    def test_fl_config_rejects_fixed_knobs(self):
        with pytest.raises(TypeError, match="momentum"):
            get_scale("tiny").fl_config(momentum=0.5)

    def test_config_override_keys(self):
        assert CONFIG_OVERRIDE_KEYS == {
            "aggregation_fan_in", "async_buffer_fraction",
            "checkpoint_dir", "checkpoint_every", "client_backend",
            "deadline_fraction", "deadline_over_select", "dropout_rate",
            "executor", "executor_workers", "faults", "fleet",
            "heartbeat_interval", "local_epochs", "max_reconnects",
            "participation_fraction", "quantize_upload_bits", "resume",
            "retry_backoff_seconds", "retry_max_attempts",
            "retry_timeout_seconds", "round_policy", "rounds",
            "staleness_discount", "transport_timeout",
            "virtual_shard_size",
        }

    def test_schedule_overrides(self):
        preset = get_scale("tiny")
        sched = preset.schedule(granularity="layer", backward_order=False,
                                delta_rounds=3, stop_round=9)
        assert sched.granularity == "layer"
        assert not sched.backward_order
        assert sched.delta_rounds == 3
        assert sched.stop_round == 9


class TestPrepareData:
    def test_three_disjoint_splits(self):
        preset = get_scale("tiny")
        public, federated, test = prepare_data("cifar10", preset, seed=0)
        assert len(public) + len(federated) == preset.num_train
        assert len(test) == preset.num_test

    def test_deterministic(self):
        preset = get_scale("tiny")
        a = prepare_data("cifar10", preset, seed=3)[0]
        b = prepare_data("cifar10", preset, seed=3)[0]
        import numpy as np

        np.testing.assert_array_equal(a.images, b.images)


class TestBuildMethod:
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_every_registered_method_builds(self, name):
        preset = get_scale("tiny")
        method = build_method(name, 0.1, preset)
        assert hasattr(method, "run")

    def test_unknown_method_raises(self):
        with pytest.raises(KeyError):
            build_method("dropout", 0.1, get_scale("tiny"))

    def test_make_context(self):
        ctx, public = make_context("resnet18", "cifar10", get_scale("tiny"))
        assert len(ctx.clients) == get_scale("tiny").num_clients
        assert len(public) > 0


class TestRunExperiment:
    def test_fedtiny_tiny_scale(self):
        result = run_experiment(
            "fedtiny", "resnet18", "cifar10", 0.1,
            scale="tiny", pool_size=2, seed=0,
        )
        assert result.method == "fedtiny"
        assert result.final_density <= 0.1 * 1.001
        assert len(result.rounds) == get_scale("tiny").rounds

    def test_small_model_replaces_architecture(self):
        result = run_experiment(
            "small_model", "resnet18", "cifar10", 0.1, scale="tiny",
        )
        assert result.method == "small_model"
        assert "small_cnn" in result.model
        assert result.metadata["model_parameters"] > 0

    def test_rounds_override(self):
        result = run_experiment(
            "fl-pqsu", "resnet18", "cifar10", 0.1,
            scale="tiny", rounds=2,
        )
        assert len(result.rounds) == 2

    def test_iid_alpha_none(self):
        result = run_experiment(
            "fl-pqsu", "resnet18", "cifar10", 0.1,
            scale="tiny", dirichlet_alpha=None, rounds=1,
        )
        assert len(result.rounds) == 1


class TestReporting:
    def _result(self, method="m", acc=0.5, flops=100.0, mem=1_000_000):
        result = RunResult(method, "cifar10", "resnet18", 0.01)
        result.record_round(
            RoundRecord(1, acc, 1.0, 0.01, 0, 0, flops)
        )
        result.memory_footprint_bytes = mem
        return result

    def test_format_table_alignment(self):
        table = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_row_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_table1_block_structure(self):
        results = {
            0.01: [self._result("fedtiny", 0.8, 50.0)],
            0.001: [self._result("snip", 0.2, 10.0)],
        }
        table = format_table1(results, dense_flops_per_round=100.0)
        assert "fedtiny" in table
        assert "0.500x" in table
        assert "1.00MB" in table

    def test_density_series(self):
        series = {"fedtiny": {0.01: 0.8, 0.001: 0.6}, "snip": {0.01: 0.7}}
        out = format_density_series(series)
        assert "d=0.001" in out
        assert "-" in out  # missing cell placeholder

    def test_accuracy_matrix(self):
        matrix = {
            "fedtiny": {"cifar10": 0.85, "svhn": 0.88},
            "synflow": {"cifar10": 0.80},
        }
        out = format_accuracy_matrix(matrix)
        assert "cifar10" in out and "svhn" in out
