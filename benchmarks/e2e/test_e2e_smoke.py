"""Smoke test of the end-to-end benchmark: every workload, tiny scale.

Runs the benchmark command itself, so it also covers the child
processes, the output checks and the ``BENCHMARK.json`` contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_every_workload_reports_every_metric_and_passes_checks(tmp_path):
    done = _run("--smoke", "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads((tmp_path / "results.json").read_text())
    assert results["schema"] == "bench_e2e/v1"
    assert results["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    workloads = results["workloads"]
    whys = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert sorted(workloads) == sorted(whys)
    for name, summary in workloads.items():
        assert summary["why"] == whys[name]
        # Empty problems also means traced and untraced digests agree.
        assert summary["problems"] == [], name
        assert summary["end_to_end"]["error_rate"]["value"] == 0
        for kind in ("end_to_end", "per_layer"):
            for metric in BENCHMARK[kind]:
                reported = summary[kind][metric["name"]]
                assert reported["unit"] == metric["unit"], metric["name"]
        if summary["serial"]:
            assert summary["per_layer"]["trace.coverage"]["value"] >= 0.9
        assert (tmp_path / f"trace-{name}.jsonl").stat().st_size > 0


def test_trace_mode_prints_the_result_line(tmp_path):
    done = _run(
        "--smoke", "--workload", "fleet-virtual", "--seed", "3",
        "--seconds", "0", "--trace", "1", "--out", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert sorted(line["metrics"]) == sorted(
        metric["name"] for metric in BENCHMARK["per_layer"]
    )


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__", "results"),
        )
    done = _run("--workload", "fleet-virtual", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
