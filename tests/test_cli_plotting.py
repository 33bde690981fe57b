"""Tests for the CLI and the ASCII plotting helper."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.plotting import ascii_line_plot
from repro.experiments.specs import CONFIG_OVERRIDE_KEYS


class TestAsciiLinePlot:
    def test_basic_render(self):
        chart = ascii_line_plot(
            {"a": [(0.0, 0.0), (1.0, 1.0)], "b": [(0.0, 1.0), (1.0, 0.0)]},
            width=20,
            height=8,
        )
        assert "o = a" in chart
        assert "x = b" in chart
        assert "|" in chart

    def test_log_x_axis(self):
        chart = ascii_line_plot(
            {"m": [(0.001, 0.2), (0.01, 0.5), (0.1, 0.8)]},
            log_x=True,
            x_label="density",
        )
        assert "log scale" in chart
        assert "0.001" in chart

    def test_log_x_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ascii_line_plot({"m": [(0.0, 1.0)]}, log_x=True)

    def test_flat_series_does_not_crash(self):
        chart = ascii_line_plot({"m": [(0.0, 0.5), (1.0, 0.5)]})
        assert "m" in chart

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ascii_line_plot({})
        with pytest.raises(ValueError):
            ascii_line_plot({"a": []})

    def test_tiny_area_raises(self):
        with pytest.raises(ValueError):
            ascii_line_plot({"a": [(0, 0)]}, width=2, height=2)

    def test_markers_cycle_beyond_alphabet(self):
        series = {f"s{i}": [(0.0, float(i))] for i in range(10)}
        chart = ascii_line_plot(series)
        assert "s9" in chart


class TestCLIParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "--method", "fedtiny", "--density", "0.01"]
        )
        assert args.method == "fedtiny"
        assert args.density == 0.01
        assert args.scale == "tiny"

    def test_every_run_knob_is_a_run_flag_dest(self):
        args = build_parser().parse_args(["run", "--method", "fedtiny"])
        assert CONFIG_OVERRIDE_KEYS - {"executor_workers"} <= set(vars(args))

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--method", "magic"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table2"])
        assert args.experiment_id == "table2"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table9"])


class TestCLICommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fedtiny" in out
        assert "resnet18" in out
        assert "cifar10" in out

    def test_run_text_output(self, capsys):
        code = main(
            [
                "run", "--method", "fl-pqsu", "--density", "0.1",
                "--scale", "tiny", "--rounds", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final accuracy" in out
        assert "memory footprint" in out

    def test_run_json_output(self, capsys):
        code = main(
            [
                "run", "--method", "fl-pqsu", "--density", "0.1",
                "--scale", "tiny", "--rounds", "1", "--json",
            ]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["method"] == "fl-pqsu"
        assert record["num_rounds"] == 1

    def test_run_rejects_bad_knob_before_building_data(
        self, capsys, monkeypatch
    ):
        def no_data(*args, **kwargs):
            raise AssertionError("data generated for an invalid config")

        monkeypatch.setattr("repro.experiments.runner.prepare_data", no_data)
        code = main(["run", "--method", "fedavg", "--scale", "tiny",
                     "--quantize-bits", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: quantize_upload_bits must be in [2, 16]\n"

    def test_chaos_rejects_bad_knob(self, capsys):
        code = main(["chaos", "--scale", "tiny", "--retry-max-attempts", "0"])
        assert code == 2
        assert "max_attempts must be >= 1" in capsys.readouterr().err

    def test_run_iid_alpha(self, capsys):
        code = main(
            [
                "run", "--method", "fl-pqsu", "--density", "0.1",
                "--scale", "tiny", "--rounds", "1", "--alpha", "0",
            ]
        )
        assert code == 0

    def test_experiment_fig2(self, capsys):
        assert main(["experiment", "fig2", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "block" in out
        assert "resnet18" in out
