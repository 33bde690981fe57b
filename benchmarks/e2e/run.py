"""End-to-end run benchmark: whole ``run_spec`` calls, timed and traced.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--out DIR]

runs every workload (or one) twice, each time in a fresh child process:
an untraced run for the end-to-end metrics and a traced run for the
per-layer metrics. It prints every metric with its unit, and writes
``DIR/results.json`` (schema ``bench_e2e/v1``) and, per workload,
``DIR/trace-<workload>.jsonl``.

With ``--trace 0|1`` it runs one workload and prints, as its last line,
one JSON object with the metrics ``BENCHMARK.json`` lists: untraced runs
repeat until ``--seconds`` have passed (at least one run), and
``--trace 1`` adds one traced run and reports the per-layer metrics.

Every child gets ``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1``:
with one BLAS thread pool per process, the pool workers of the
``process`` executor oversubscribe the cores, and the numbers would
measure the scheduler instead of the program.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS
from workloads import WORKLOADS, Workload, check_run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

SCHEMA = "bench_e2e/v1"
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Set-up-only passes each untraced run adds to its own set-up time.
SETUP_PASSES = 4
#: Wall-clock budget of one ``--trace`` invocation, in seconds.
DRIVER_BUDGET_S = 170.0

#: End-to-end metrics with units. The ones in :data:`GATED` carry a
#: regression bound in ``BENCHMARK.json``; the others are reported only.
#: Comm volume repeats exactly on every run of a workload, accuracy on
#: ``fleet-virtual`` sits near chance and varies across seeds by more
#: than any bound allows, and ``error_rate`` is zero whenever the output
#: checks pass (the ``--trace`` line reports it as ``failed``).
E2E_METRICS: dict[str, str] = {
    "setup_s": "s",
    "run_s": "s",
    "round_s_p50": "s",
    "train_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "comm_mb_per_round": "MB",
    "final_accuracy": "fraction",
    "error_rate": "fraction",
}
GATED = ("setup_s", "run_s", "round_s_p50", "train_samples_per_s",
         "peak_rss_mb")


class ChildFailed(RuntimeError):
    """A measured run exited abnormally or timed out."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    return env


def _run_child(args: list[str], deadline: float) -> dict:
    """Run ``harness.py`` in its own process group; its JSON report."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "harness.py"), *args],
        stdout=subprocess.PIPE,
        env=_child_env(),
        cwd=ROOT,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"harness {' '.join(args)} timed out") from None
    finally:
        # Pool workers share the child's process group; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group already exited
        proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(
            f"harness {' '.join(args)} exited with {proc.returncode}"
        )
    return json.loads(out.strip().splitlines()[-1])


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool,
    out: Path,
    deadline: float,
) -> dict:
    """Run one workload and reduce its runs to metrics and checks."""
    base = ["--workload", workload.name, "--seed", str(seed)]
    if smoke:
        base.append("--smoke")
    started = time.monotonic()
    runs = []
    while not runs or time.monotonic() - started < seconds:
        runs.append(_run_child(
            base + ["--setup-passes", str(SETUP_PASSES)], deadline
        ))
    traced_run = None
    if traced:
        traced_run = _run_child(
            base + ["--traced", "--trace-file",
                    str(out / f"trace-{workload.name}.jsonl")],
            deadline,
        )
    every = runs + ([traced_run] if traced_run else [])

    rounds = workload.run_rounds(smoke)
    failed = 0
    problems: list[str] = []
    for run in every:
        run_failed, run_problems = check_run(
            workload, run["facts"], rounds, smoke
        )
        failed += run_failed
        problems += run_problems
    if len({run["facts"]["digest"] for run in every}) > 1:
        failed = rounds * len(every)
        problems.append("RunResult digests differ between runs")
    attempted = rounds * len(every)

    facts = runs[0]["facts"]
    setup = [value for run in runs for value in run["setup_s"]]
    round_s = [value for run in runs for value in run["round_s"]]
    run_s = statistics.median(run["run_s"] for run in runs)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "round_s_p50": statistics.median(round_s),
        "train_samples_per_s": statistics.median(
            sum(run["round_samples"]) / sum(run["round_s"]) for run in runs
        ),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        "comm_mb_per_round": (
            facts["upload_bytes"] + facts["download_bytes"]
        ) / rounds / 1e6,
        "final_accuracy": facts["final_accuracy"],
        "error_rate": failed / attempted,
    }
    per_layer = None
    if traced_run is not None:
        per_layer = dict(traced_run["layers"])
        per_layer.update({
            "fl.comm.upload_bytes": facts["upload_bytes"],
            "fl.comm.download_bytes": facts["download_bytes"],
            "trace.overhead_s": traced_run["run_s"] - run_s,
        })
        per_layer = _with_units(per_layer, LAYER_METRICS)
    return {
        "spec": runs[0]["spec"],
        "why": workload.why,
        "serial": workload.serial,
        "end_to_end": _with_units(end_to_end, E2E_METRICS),
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": facts["digest"],
        "sample_counts": {
            "untraced_runs": len(runs),
            "traced_runs": int(traced_run is not None),
            "setup_s": len(setup),
            "round_s_p50": len(round_s),
        },
        "environment": runs[0]["environment"],
    }


def _with_units(values: dict, units: dict[str, str]) -> dict:
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }


def _git_commit() -> str | None:
    # The ceiling keeps git from finding a repository above ROOT when
    # ROOT itself is a plain checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _print_tables(name: str, summary: dict) -> None:
    print(f"\n== {name}: {summary['why']}")
    tables = [("", summary["end_to_end"])]
    if summary["per_layer"] is not None:
        tables.append(("per layer (traced run):", summary["per_layer"]))
    for title, metrics in tables:
        if title:
            print(f"  {title}")
        for metric, entry in metrics.items():
            print(f"  {metric:<46} {entry['value']:>14.6g} {entry['unit']}")
    for problem in summary["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end run benchmark (see the module docstring)."
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny scale, two rounds (the tier-1 smoke test)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    driver = args.trace is not None
    if driver and args.workload is None:
        parser.error("--trace needs --workload")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    traced = args.trace != 0
    deadline = time.monotonic() + (DRIVER_BUDGET_S if driver else 3600.0)
    args.out.mkdir(parents=True, exist_ok=True)

    summaries = {}
    for name in names:
        try:
            summaries[name] = measure(
                WORKLOADS[name], args.seed, args.seconds, traced,
                args.smoke, args.out, deadline,
            )
        except ChildFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if not driver:
            _print_tables(name, summaries[name])

    environment = summaries[names[0]]["environment"]
    environment.update(
        git_commit=_git_commit(),
        seed=args.seed,
        sample_counts={
            name: summary.pop("sample_counts")
            for name, summary in summaries.items()
        },
    )
    for summary in summaries.values():
        del summary["environment"]
    (args.out / "results.json").write_text(json.dumps(
        {"schema": SCHEMA, "environment": environment,
         "workloads": summaries},
        indent=2, sort_keys=True,
    ) + "\n")
    if not driver:
        return int(any(summary["failed"] for summary in summaries.values()))
    summary = summaries[args.workload]
    if args.trace:
        metrics = summary["per_layer"]
    else:
        metrics = {name: summary["end_to_end"][name] for name in GATED}
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
