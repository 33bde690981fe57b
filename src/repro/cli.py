"""Command-line interface.

Usage::

    python -m repro list
    python -m repro run --method fedtiny --model resnet18 \
        --dataset cifar10 --density 0.05 --scale tiny
    python -m repro experiment table1 --scale bench
    python -m repro bench --out BENCH_sparse_compute.json
    python -m repro bench --suite round_loop --out BENCH_round_loop.json
    python -m repro lint src/ --format json
    python -m repro chaos --faults chaos --scale tiny
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .data.synthetic import DATASET_BUILDERS
from .experiments import SCALES, RunSpec, get_scale, run_spec
from .experiments import paper as paper_experiments
from .experiments.configs import CONFIG_OVERRIDE_KEYS
from .fl.executor import available_executors
from .fl.policies import available_policies
from .methods import method_names, method_summaries
from .nn import engine
from .nn.models import available_models
from .sparse.storage import bytes_to_mb

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "fig2": paper_experiments.fig2_block_partition,
    "fig3": paper_experiments.fig3_density_sweep,
    "table1": paper_experiments.table1_accuracy_and_cost,
    "fig4": paper_experiments.fig4_ablation,
    "fig5": paper_experiments.fig5_pool_size,
    "table2": paper_experiments.table2_bn_overhead,
    "table3": paper_experiments.table3_schedules,
    "fig6": paper_experiments.fig6_noniid,
    "table4": paper_experiments.table4_small_model_datasets,
    "table5": paper_experiments.table5_small_model_densities,
}


def _density_threshold(raw: str) -> float:
    """Argparse type for ``--density-threshold``: a float in [0, 1].

    Rejecting bad values at parse time keeps the error at the command
    line (``argument --density-threshold: ...``) instead of a traceback
    out of :func:`repro.nn.engine.configure` mid-run.
    """
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a float in [0, 1], got {raw!r}"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 1], got {raw}"
        )
    return value


def _positive_seconds(raw: str) -> float:
    """Argparse type for transport durations: a float > 0."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {raw!r}"
        ) from None
    if not value > 0.0:
        raise argparse.ArgumentTypeError(
            f"must be > 0 seconds, got {raw}"
        )
    return value


def _nonnegative_int(raw: str) -> int:
    """Argparse type for retry counts: an int >= 0."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {raw!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0, got {raw}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "FedTiny reproduction: distributed pruning towards tiny "
            "neural networks in federated learning (ICDCS 2023)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list methods, models, datasets, scales")

    run = sub.add_parser("run", help="run one federated pruning experiment")
    run.add_argument("--method", required=True, choices=method_names())
    run.add_argument("--model", default="resnet18",
                     choices=available_models())
    run.add_argument("--dataset", default="cifar10",
                     choices=sorted(DATASET_BUILDERS))
    run.add_argument("--density", type=float, default=0.05)
    run.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    run.add_argument("--alpha", type=float, default=0.5,
                     help="Dirichlet alpha; <=0 means iid")
    run.add_argument("--rounds", type=int, default=None)
    run.add_argument("--pool-size", type=int, default=None)
    run.add_argument("--local-epochs", type=int, default=None,
                     help="override the preset's local epochs per round")
    run.add_argument("--participation-fraction", type=float, default=None,
                     help="fraction of clients sampled each round")
    run.add_argument("--quantize-bits", type=int, default=None,
                     dest="quantize_upload_bits",
                     help="quantize client uploads to this many bits")
    run.add_argument("--executor", default=None,
                     choices=available_executors(),
                     help="client execution backend (default: serial)")
    run.add_argument("--fleet", default=None,
                     help="device fleet spec: uniform or "
                          "heterogeneous[:spread], e.g. heterogeneous:16")
    run.add_argument("--round-policy", default=None,
                     choices=available_policies(),
                     help="round completion policy (default: sync)")
    run.add_argument("--deadline-fraction", type=float, default=None,
                     help="deadline policy: round budget as a multiple "
                          "of the median device's completion time")
    run.add_argument("--deadline-over-select", type=float, default=None,
                     help="deadline policy: participant over-selection "
                          "multiplier (>= 1)")
    run.add_argument("--dropout-rate", type=float, default=None,
                     help="dropout policy: per-round client failure "
                          "probability")
    run.add_argument("--async-buffer-fraction", type=float, default=None,
                     help="async policy: fraction of uploads that "
                          "closes the round")
    run.add_argument("--staleness-discount", type=float, default=None,
                     help="async policy: per-round weight discount for "
                          "late uploads")
    run.add_argument("--client-backend", default=None,
                     choices=("materialized", "virtual"),
                     help="client retention: 'materialized' builds "
                          "every client up front and keeps it, 'virtual' "
                          "builds a client when selected and drops it "
                          "after its upload; both run the same bytes "
                          "(default: materialized)")
    run.add_argument("--virtual-shard-size", type=int, default=None,
                     help="virtual backend: derive per-ID overlapping "
                          "shards of this size instead of an exact "
                          "partition (lets the population exceed the "
                          "dataset)")
    run.add_argument("--aggregation-fan-in", type=int, default=None,
                     help="reduce uploads tree-wise through simulated "
                          "edge-aggregator groups of this size")
    run.add_argument("--density-threshold", type=_density_threshold,
                     default=None,
                     help="enable sparse row dispatch below this weight "
                          "density (default 0: off, byte-identical to "
                          "the dense engine)")
    run.add_argument("--faults", default=None, metavar="SPEC",
                     help="inject deterministic faults: a preset name "
                          "(chaos, flaky_clients, bad_transport) or "
                          "'kind:prob,...' pairs, e.g. "
                          "corrupt_payload:0.1,client_timeout:0.05")
    run.add_argument("--retry-max-attempts", type=int, default=None,
                     help="delivery attempts per client per round "
                          "under fault injection (default 3)")
    run.add_argument("--retry-backoff-seconds", type=float, default=None,
                     help="base simulated backoff between retries "
                          "(default 0.5)")
    run.add_argument("--retry-timeout-seconds", type=float, default=None,
                     help="simulated seconds a client_timeout fault "
                          "costs (default 5)")
    run.add_argument("--transport-timeout", type=_positive_seconds,
                     default=None,
                     help="network executor: per-request socket timeout "
                          "and in-flight task reassignment budget in "
                          "real seconds (default 30)")
    run.add_argument("--heartbeat-interval", type=_positive_seconds,
                     default=None,
                     help="network executor: worker heartbeat period in "
                          "real seconds; liveness expires after 5 "
                          "missed beats (default 1)")
    run.add_argument("--max-reconnects", type=_nonnegative_int,
                     default=None,
                     help="network executor: reconnect attempts per "
                          "worker request and reassignments per task "
                          "before the client is excluded (default 3)")
    run.add_argument("--checkpoint-dir", default=None,
                     help="snapshot the run here for crash-resume")
    run.add_argument("--checkpoint-every", type=int, default=None,
                     help="rounds between checkpoints (default 1)")
    run.add_argument("--resume", action="store_true",
                     help="resume from the latest checkpoint in "
                          "--checkpoint-dir, bit-for-bit")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--json", action="store_true",
                     help="emit the result record as JSON")

    chaos = sub.add_parser(
        "chaos",
        help="run an experiment under a fault schedule and assert the "
             "recovery invariants",
        description=(
            "Runs the same experiment twice — fault-free, then under "
            "the given deterministic fault schedule — and asserts the "
            "recovery contract: the faulted run completes every round, "
            "every injected fault is accounted (retried, quarantined, "
            "deduplicated, or excluded) on the round records, and when "
            "no client exhausted its retries the faulted run's metrics "
            "are bitwise identical to the fault-free run. Exit codes: "
            "0 all invariants hold, 1 a recovery invariant failed."
        ),
    )
    chaos.add_argument("--faults", default="chaos", metavar="SPEC",
                       help="preset name or 'kind:prob,...' spec "
                            "(default: the chaos preset)")
    chaos.add_argument("--method", default="fedtiny",
                       choices=method_names())
    chaos.add_argument("--model", default="resnet18",
                       choices=available_models())
    chaos.add_argument("--dataset", default="cifar10",
                       choices=sorted(DATASET_BUILDERS))
    chaos.add_argument("--density", type=float, default=0.05)
    chaos.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    chaos.add_argument("--rounds", type=int, default=None)
    chaos.add_argument("--executor", default=None,
                       choices=available_executors())
    chaos.add_argument("--retry-max-attempts", type=int, default=None)
    chaos.add_argument("--transport-timeout", type=_positive_seconds,
                       default=None)
    chaos.add_argument("--heartbeat-interval", type=_positive_seconds,
                       default=None)
    chaos.add_argument("--max-reconnects", type=_nonnegative_int,
                       default=None)
    chaos.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser(
        "sweep",
        help="run a journaled, crash-resumable grid of experiments",
        description=(
            "Expands a declarative grid (--grid axis=v1,v2, repeatable) "
            "into a queue of runs and executes them with per-run "
            "process isolation, watchdog timeouts, retry/quarantine, "
            "and an fsync'd journal: a sweep killed at any point "
            "resumes with --resume and produces a results store "
            "byte-identical to an uninterrupted sweep. Exit codes: "
            "0 complete, 1 aborted via --max-failures, 2 usage or "
            "journal error, 3 killed by an injected fault (resume "
            "with --resume)."
        ),
    )
    sweep.add_argument("--out", required=True,
                       help="sweep directory (journal, index, per-run "
                            "results, assembled results.json)")
    sweep.add_argument("--grid", action="append", default=None,
                       metavar="AXIS=V1,V2",
                       help="grid axis: a core field (method, model, "
                            "dataset, density, scale, alpha, seed, "
                            "pool_size) or a run knob (a key of "
                            "CONFIG_OVERRIDE_KEYS, e.g. rounds, faults); "
                            "repeatable, cartesian product")
    sweep.add_argument("--method", default="fedtiny",
                       choices=method_names(),
                       help="base method for axes not in --grid")
    sweep.add_argument("--model", default="resnet18",
                       choices=available_models())
    sweep.add_argument("--dataset", default="cifar10",
                       choices=sorted(DATASET_BUILDERS))
    sweep.add_argument("--density", type=float, default=0.05)
    sweep.add_argument("--scale", default="bench",
                       choices=sorted(SCALES))
    sweep.add_argument("--alpha", type=float, default=0.5,
                       help="Dirichlet alpha; <=0 means iid")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--pool-size", type=int, default=None)
    sweep.add_argument("--scheduler", default="grid",
                       help="run-order scheduler: grid, random, or a "
                            "registered tuner (default: grid)")
    sweep.add_argument("--sweep-seed", type=int, default=0,
                       help="seed for the scheduler shuffle and the "
                            "sweep-level fault draws")
    sweep.add_argument("--isolation", default="process",
                       choices=("process", "serial"),
                       help="run each experiment in its own child "
                            "process (default) or in-process")
    sweep.add_argument("--watchdog", type=_positive_seconds,
                       default=300.0, metavar="SECONDS",
                       help="kill a run after this many real seconds "
                            "(process isolation; default 300)")
    sweep.add_argument("--max-failures", type=_nonnegative_int,
                       default=None,
                       help="abort the sweep once more than this many "
                            "runs are quarantined")
    sweep.add_argument("--retry-max-attempts", type=int, default=None,
                       help="attempts per run before quarantine "
                            "(default 3)")
    sweep.add_argument("--faults", default=None, metavar="SPEC",
                       help="sweep-level fault injection: a preset "
                            "(sweep_chaos) or 'kind:prob,...' over "
                            "run_crash, run_hang, journal_torn_write")
    sweep.add_argument("--checkpoint-runs", action="store_true",
                       help="give each run a checkpoint dir so an "
                            "interrupted run also resumes mid-round")
    sweep.add_argument("--resume", action="store_true",
                       help="resume the journaled sweep in --out")
    sweep.add_argument("--json", action="store_true",
                       help="emit the sweep report as JSON")

    experiment = sub.add_parser(
        "experiment", help="regenerate one paper table/figure"
    )
    experiment.add_argument("experiment_id", choices=sorted(_EXPERIMENTS))
    experiment.add_argument("--scale", default="bench",
                            choices=sorted(SCALES))
    experiment.add_argument(
        "--plot", action="store_true",
        help="also render the figure as an ASCII chart (fig3/4/5/6)",
    )

    bench = sub.add_parser(
        "bench",
        help="run a micro-benchmark suite (compute, transport, selection)",
        description=(
            "Measure a performance suite against its pre-change "
            "reference path and emit a machine-readable JSON record: "
            "'sparse_compute' times Conv2d/Linear forward+backward "
            "across a density x shape grid; 'round_loop' times the "
            "broadcast/upload/aggregate transport of one federated "
            "round across a clients x density x model grid; "
            "'candidate_selection' times the adaptive-BN selection "
            "protocol end to end across a pool x clients x model grid "
            "and reports the paper's Table 2 overhead ratios; "
            "'fleet_scale' runs virtual-fleet rounds across a "
            "population grid up to 1M simulated clients and records "
            "per-round RSS/tracemalloc alongside wall-clock."
        ),
    )
    bench.add_argument("--suite", default="sparse_compute",
                       choices=("sparse_compute", "round_loop",
                                "candidate_selection", "fleet_scale"),
                       help="which benchmark grid to run")
    bench.add_argument("--out", default=None,
                       help="output JSON path (default: "
                            "BENCH_<suite>.json)")
    bench.add_argument("--repeats", type=int, default=7,
                       help="interleaved timing samples per variant")
    bench.add_argument("--quick", action="store_true",
                       help="smaller grid for CI smoke runs")

    lint = sub.add_parser(
        "lint",
        help="statically check the repo's determinism/cache/shm contracts",
        description=(
            "AST-based analyzer enforcing the codebase's standing "
            "invariants: seeded RNGs and no set-order dependence "
            "(determinism), bump_version() after in-place writes to "
            "version-tagged parameter storage (cache-coherence), "
            "close()/unlink() on every SharedMemory exit path "
            "(shm-lifecycle), registered plugin subclasses "
            "(registry-completeness), fixed-order accumulation in "
            "golden-guarded modules (float-accumulation), and "
            "inference_mode() around evaluate paths (engine-mode). "
            "Exit codes: 0 clean, 1 findings, 2 analysis error."
        ),
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to analyze "
                           "(default: src)")
    lint.add_argument("--format", default="human",
                      choices=("human", "json"),
                      help="report format (json follows the "
                           "repro-lint/v1 schema)")
    lint.add_argument("--rule", action="append", default=None,
                      metavar="RULE_ID",
                      help="run only this rule (repeatable; default: "
                           "all rules)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    return parser


def _command_list() -> int:
    print("methods:")
    summaries = method_summaries()
    width = max(len(name) for name in summaries)
    for name, summary in summaries.items():
        print(f"  {name:<{width}}  {summary}")
    print("models   :", ", ".join(available_models()))
    print("datasets :", ", ".join(sorted(DATASET_BUILDERS)))
    print("scales   :", ", ".join(sorted(SCALES)))
    print("executors:", ", ".join(available_executors()))
    print("policies :", ", ".join(available_policies()))
    print("experiments:", ", ".join(sorted(_EXPERIMENTS)))
    return 0


def _knob_flags(args: argparse.Namespace) -> dict:
    """Every parsed flag that sets a run knob, keyed by its ``dest``."""
    return {
        key: value for key, value in vars(args).items()
        if key in CONFIG_OVERRIDE_KEYS
    }


def _checked_spec(
    args: argparse.Namespace,
    overrides: dict,
    dirichlet_alpha: float | None = 0.5,
    pool_size: int | None = None,
) -> RunSpec:
    """The run's :class:`RunSpec`, once its ``FLConfig`` has built.

    A bad knob raises ``ValueError`` here, before any data is generated.
    """
    spec = RunSpec(
        method=args.method,
        model=args.model,
        dataset=args.dataset,
        target_density=args.density,
        scale=args.scale,
        dirichlet_alpha=dirichlet_alpha,
        seed=args.seed,
        pool_size=pool_size,
        overrides=tuple(overrides.items()),
    )
    spec.fl_config(get_scale(spec.scale))
    return spec


def _command_run(args: argparse.Namespace) -> int:
    alpha = None if args.alpha is not None and args.alpha <= 0 else args.alpha
    try:
        spec = _checked_spec(
            args, _knob_flags(args), dirichlet_alpha=alpha,
            pool_size=args.pool_size,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.density_threshold is not None:
        engine.configure(density_threshold=args.density_threshold)
        # Spawned executor workers read the knob from the environment.
        os.environ["REPRO_DENSITY_THRESHOLD"] = str(args.density_threshold)
    result = run_spec(spec)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, default=str))
        return 0
    print(f"method            : {result.method}")
    print(f"model / dataset   : {result.model} / {result.dataset}")
    print(f"target density    : {result.target_density:g}")
    print(f"final density     : {result.final_density:.5f}")
    print(f"final accuracy    : {result.final_accuracy:.4f}")
    print(f"best accuracy     : {result.best_accuracy:.4f}")
    print(f"max FLOPs/round   : {result.max_training_flops_per_round:.3e}")
    print(f"memory footprint  : "
          f"{bytes_to_mb(result.memory_footprint_bytes):.3f} MB")
    print(f"total comm        : {bytes_to_mb(result.total_comm_bytes):.2f} MB")
    print(f"sim wall clock    : {result.sim_time_seconds:.2f} s")
    if result.total_dropped_clients:
        print(f"dropped clients   : {result.total_dropped_clients}")
    if result.total_faults_injected:
        print(f"faults injected   : {result.total_faults_injected}")
        print(f"retries           : {result.total_retries}")
        print(f"quarantined       : {result.total_quarantined_uploads}")
        print(f"recovery actions  : {result.total_recovery_actions}")
    return 0


def _command_chaos(args: argparse.Namespace) -> int:
    from .fl.faults import FaultSchedule

    knobs = _knob_flags(args)
    try:
        schedule = FaultSchedule.parse(args.faults, seed=args.seed)
        baseline_spec = _checked_spec(args, {**knobs, "faults": None})
        faulted_spec = _checked_spec(args, knobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"fault schedule    : {schedule.spec_string()}")
    print("running fault-free baseline ...")
    baseline = run_spec(baseline_spec)
    print("running faulted twin ...")
    faulted = run_spec(faulted_spec)

    problems: list[str] = []
    if len(faulted.rounds) != len(baseline.rounds):
        problems.append(
            f"faulted run recorded {len(faulted.rounds)} rounds, "
            f"baseline {len(baseline.rounds)}"
        )
    excluded = [
        f for f in faulted.failures if f.action == "excluded"
    ]
    quarantine_records = [
        f for f in faulted.failures if f.action == "quarantined"
    ]
    if len(quarantine_records) != faulted.total_quarantined_uploads:
        problems.append(
            f"{faulted.total_quarantined_uploads} quarantined uploads "
            f"but {len(quarantine_records)} quarantine records"
        )
    if faulted.total_faults_injected and not faulted.failures:
        problems.append(
            f"{faulted.total_faults_injected} faults injected but the "
            "failure log is empty"
        )
    extra_dropped = (
        faulted.total_dropped_clients - baseline.total_dropped_clients
    )
    if extra_dropped != len(excluded):
        problems.append(
            f"{len(excluded)} retry-exhausted exclusions but "
            f"{extra_dropped} extra dropped clients accounted"
        )
    if not excluded:
        # Every fault deterministically recovered: the faulted run must
        # be bitwise identical to the baseline (only the simulated
        # clock, which absorbed the backoff, may differ).
        pairs = zip(baseline.rounds, faulted.rounds)
        for base_round, fault_round in pairs:
            if (
                base_round.test_accuracy != fault_round.test_accuracy
                or base_round.test_loss != fault_round.test_loss
                or base_round.density != fault_round.density
            ):
                problems.append(
                    f"round {base_round.round_index}: recovered run "
                    "diverged from the fault-free baseline"
                )
                break
    print(f"faults injected   : {faulted.total_faults_injected}")
    print(f"retries           : {faulted.total_retries}")
    print(f"quarantined       : {faulted.total_quarantined_uploads}")
    print(f"recovery actions  : {faulted.total_recovery_actions}")
    print(f"excluded clients  : {len(excluded)}")
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    verdict = (
        "bitwise-equal to the fault-free baseline" if not excluded
        else "partial cohorts accounted on the round records"
    )
    print(f"OK: all recovery invariants hold ({verdict})")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from .experiments.journal import JournalError
    from .experiments.specs import expand_grid, parse_axis_value
    from .experiments.sweep import SweepKilled, SweepOrchestrator
    from .fl.faults import RetryPolicy

    axes: dict[str, list] = {}
    for item in args.grid or []:
        name, sep, values = item.partition("=")
        if not sep or not values:
            print(f"error: malformed --grid {item!r}; expected "
                  "AXIS=V1,V2", file=sys.stderr)
            return 2
        axes[name.strip()] = [
            parse_axis_value(v) for v in values.split(",")
        ]
    alpha = None if args.alpha is not None and args.alpha <= 0 else args.alpha
    base = {
        "method": args.method,
        "model": args.model,
        "dataset": args.dataset,
        "target_density": args.density,
        "scale": args.scale,
        "dirichlet_alpha": alpha,
        "seed": args.seed,
        "pool_size": args.pool_size,
    }
    retry = RetryPolicy() if args.retry_max_attempts is None else \
        RetryPolicy(max_attempts=args.retry_max_attempts)
    try:
        # On a bare resume the journaled index is authoritative; a
        # resume *with* grid axes verifies them against the journal.
        specs = None if (args.resume and not axes) else \
            expand_grid(axes, base)
        orchestrator = SweepOrchestrator(
            args.out,
            specs,
            resume=args.resume,
            scheduler=args.scheduler,
            sweep_seed=args.sweep_seed,
            faults=args.faults,
            isolation=args.isolation,
            watchdog_seconds=args.watchdog,
            retry=retry,
            max_failures=args.max_failures,
            checkpoint_runs=args.checkpoint_runs,
        )
        report = orchestrator.execute()
    except (JournalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepKilled as exc:
        print(f"sweep killed: {exc}", file=sys.stderr)
        print(f"resume with: repro sweep --out {args.out} --resume",
              file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, default=str))
    else:
        for line in report.summary_lines():
            print(line)
    return 1 if report.aborted else 0


def _command_experiment(args: argparse.Namespace) -> int:
    output = _EXPERIMENTS[args.experiment_id](scale=args.scale)
    print(output)
    if args.plot:
        _render_plots(output)
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    from .perf import run_candidate_selection_bench, run_fleet_scale_bench, \
        run_round_loop_bench, run_sparse_compute_bench, write_bench_json

    out = args.out or f"BENCH_{args.suite}.json"
    if args.suite == "fleet_scale":
        record = run_fleet_scale_bench(
            repeats=args.repeats, quick=args.quick
        )
        path = write_bench_json(record, out)
        print(f"wrote {path}")
        print("population  cohort  phase            s/round   "
              "peak alloc MB  RSS MB")
        for row in record["results"]:
            print(f"{row['population']:>10} {row['cohort']:>7}  "
                  f"{row['phase']:<15} {row['seconds']:>8.3f}  "
                  f"{row['peak_alloc_bytes'] / 1e6:>12.2f}  "
                  f"{row['peak_rss_bytes'] / 1e6:>6.1f}")
    elif args.suite == "candidate_selection":
        record = run_candidate_selection_bench(
            repeats=args.repeats, quick=args.quick
        )
        path = write_bench_json(record, out)
        print(f"wrote {path}")
        print("model           clients  pool  variant       "
              "   s/selection  identical")
        for row in record["results"]:
            print(f"{row['model']:<15} {row['clients']:>7} "
                  f"{row['pool_size']:>5}  {row['variant']:<14} "
                  f"{row['seconds']:>11.3f}  {row['outputs_identical']}")
    elif args.suite == "round_loop":
        record = run_round_loop_bench(
            repeats=args.repeats, quick=args.quick
        )
        path = write_bench_json(record, out)
        print(f"wrote {path}")
        print("model           clients  density  phase      variant "
              "    ms/round")
        for row in record["results"]:
            if "seconds" not in row:
                continue
            print(f"{row['model']:<15} {row['clients']:>7} "
                  f"{row['density']:>8.2f}  {row['phase']:<10} "
                  f"{row['variant']:<7} {row['seconds'] * 1e3:>9.3f}")
    else:
        record = run_sparse_compute_bench(
            repeats=args.repeats, quick=args.quick
        )
        path = write_bench_json(record, out)
        print(f"wrote {path}")
        print("shape                     density  variant            "
              "         ms/step")
        for row in record["results"]:
            print(f"{row['shape']:<25} {row['density']:>6.2f}  "
                  f"{row['variant']:<25} {row['seconds'] * 1e3:>8.3f}")
    print()
    acceptance = record["summary"]["acceptance"]
    for key, value in sorted(acceptance.items()):
        print(f"{key}: {value:.2f}x")
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the analyzer is pure stdlib and most CLI
    # invocations never need it.
    from .analysis import (
        linter, render_human, render_json, rule_summaries, run_lint,
    )

    if args.list_rules:
        summaries = rule_summaries()
        width = max(len(rule_id) for rule_id in summaries)
        for rule_id, summary in summaries.items():
            print(f"{rule_id:<{width}}  {summary}")
        return linter.EXIT_CLEAN
    try:
        result = run_lint(args.paths, rule_ids=args.rule)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return linter.EXIT_ERROR
    render = render_json if args.format == "json" else render_human
    print(render(result))
    return result.exit_code


def _render_plots(output) -> None:
    """ASCII charts for the figure experiments (no-op for tables)."""
    from .experiments import figures

    if output.experiment_id == "fig3":
        for dataset in output.data["series"]:
            print()
            print(figures.render_fig3(output, dataset))
    elif output.experiment_id == "fig4":
        print()
        print(figures.render_fig4(output))
    elif output.experiment_id == "fig5":
        accuracy_chart, comm_chart = figures.render_fig5(output)
        print()
        print(accuracy_chart)
        print()
        print(comm_chart)
    elif output.experiment_id == "fig6":
        print()
        print(figures.render_fig6(output))


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "chaos":
        return _command_chaos(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "bench":
        return _command_bench(args)
    if args.command == "lint":
        return _command_lint(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
