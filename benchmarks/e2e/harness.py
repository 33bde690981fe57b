"""One measured run of one workload, in a fresh process.

``run.py`` starts this script once per run with BLAS pinned to one
thread and ``src`` on ``PYTHONPATH``. It calls ``run_spec`` once and
prints one JSON line: timings, peak memory, the facts the output checks
need, and, for a traced run, the per-layer metrics.

An untraced run then repeats set-up alone ``--setup-passes`` times
(each pass stops at the first round), so ``setup_s`` is a median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

from spans import RoundMarks, SetupDone, SpanRecorder
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parents[2] / "src"


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {
            key: os.environ.get(key)
            for key in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS",
            )
        },
    }


def _facts(result) -> dict:
    """What the output checks and the comm metrics read off a result."""
    encoded = json.dumps(result.to_dict(), sort_keys=True, default=repr)
    return {
        "recorded_rounds": [
            (
                record.round_index,
                record.faults_injected + record.retries
                + record.quarantined_uploads + record.recovery_actions,
            )
            for record in result.rounds
        ],
        "failures": len(result.failures),
        "final_density": result.final_density,
        "final_accuracy": result.final_accuracy,
        "upload_bytes": result.total_upload_bytes,
        "download_bytes": result.total_download_bytes,
        "digest": hashlib.sha256(encoded.encode()).hexdigest(),
    }


def _setup_only(run_spec, spec, preset, marks: RoundMarks) -> float:
    marks.begin(stop_at_first_round=True)
    try:
        run_spec(spec, preset=preset)
    except SetupDone:
        return marks.setup_s
    raise RuntimeError("run finished without starting a round")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-passes", type=int, default=0)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    import repro
    from repro.experiments import run_spec

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {repro.__file__}, not from {SRC}")
    spec, preset = WORKLOADS[args.workload].build(args.seed, args.smoke)
    marks = RoundMarks()
    marks.install()
    recorder = None
    if args.traced:
        recorder = SpanRecorder()
        recorder.install()

    marks.begin()
    result = run_spec(spec, preset=preset)
    run_s = perf_counter() - marks.call_start
    # ru_maxrss is in KiB on Linux.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "spec": spec.to_dict(),
        "run_s": run_s,
        "setup_s": [marks.setup_s],
        "round_s": marks.round_s,
        "round_samples": marks.round_samples,
        "peak_rss_mb": peak_rss_mb,
        "facts": _facts(result),
        "environment": _environment(),
    }
    if recorder is not None:
        report["layers"] = recorder.layer_metrics(run_s)
        if args.trace_file:
            recorder.write(args.trace_file, marks.call_start)
    for _ in range(args.setup_passes):
        report["setup_s"].append(_setup_only(run_spec, spec, preset, marks))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
