"""Population-scale benchmarks of the virtual client fleet.

The materialized simulation builds every client up front, so memory
and setup cost are O(population) and runs cap out at a few hundred
devices. The virtual backend keeps clients as IDs until selected
(:mod:`repro.fl.fleet`) and folds uploads through the streaming
:class:`~repro.fl.aggregation.HierarchicalAggregator`, so one round
over a 100k-1M-device population costs O(cohort) compute and O(model)
server memory. This suite pins both claims with numbers:

``setup``
    Build a :class:`~repro.fl.simulation.FederatedContext` on the
    virtual backend at population N. No client exists afterwards; the
    phase stays flat as N grows 10x.

``round``
    One full FedAvg round (:meth:`run_fedavg_round`): sample a cohort
    of IDs out of N, materialize -> train -> fold -> release one client
    at a time.

``aggregate``
    The server-side reduction alone at cohort sizes up to 100k uploads:
    every upload streams through the hierarchical aggregator, so the
    traced allocation peak stays O(model) + O(8 bytes x cohort) for the
    weight metadata — megabytes where buffering the uploads (cohort x
    state bytes) would take gigabytes.

The acceptance ratios are allocation-based, not timing-based, so they
are machine-independent and deterministic:

- ``naive_over_stream_alloc_at_100k`` — bytes a buffer-everything
  server would hold at the 100k cohort divided by the measured peak;
  collapses to ~1 if aggregation ever materializes the cohort.
- ``aggregate_alloc_scaling_headroom`` — cohort growth divided by
  allocation growth between the smallest and largest aggregate cells;
  collapses to ~1 if allocation grows linearly with the cohort.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass

import numpy as np

from ..data.synthetic import SyntheticSpec, generate
from ..fl.aggregation import HierarchicalAggregator
from ..fl.simulation import FederatedContext, FLConfig
from ..fl.state import get_state
from ..nn.models import build_model
from .round_loop import _peak_alloc, _peak_rss_bytes
from .sparse_compute import _time_variants, write_bench_json

__all__ = [
    "POPULATIONS",
    "AGGREGATE_COHORTS",
    "run_fleet_scale_bench",
    "write_bench_json",
]

#: Simulated population sizes for the setup/round phases.
POPULATIONS = (100_000, 1_000_000)

#: Upload counts for the aggregation-only phase.
AGGREGATE_COHORTS = (1_000, 10_000, 100_000)

#: Training cohort per round (kept modest so the grid runs
#: on laptop-class hardware; the aggregate phase covers the 100k axis).
ROUND_COHORT = 256

_DATASET_SAMPLES = 2_048
_SHARD_SIZE = 8
_IMAGE_SIZE = 8
_NUM_CLASSES = 4
_WIDTH = 0.25


def _build_dataset():
    train, _ = generate(
        SyntheticSpec(
            name="fleet_scale",
            num_classes=_NUM_CLASSES,
            num_train=_DATASET_SAMPLES,
            num_test=_NUM_CLASSES * 2,
            image_size=_IMAGE_SIZE,
            noise=0.3,
            modes_per_class=1,
            seed=11,
        )
    )
    return train


def _make_config(population: int, cohort: int) -> FLConfig:
    return FLConfig(
        num_clients=population,
        rounds=1,
        local_epochs=1,
        batch_size=_SHARD_SIZE,
        lr=0.05,
        participation_fraction=cohort / population,
        client_backend="virtual",
        virtual_shard_size=_SHARD_SIZE,
        fleet="heterogeneous:16",
        seed=0,
    )


@dataclass
class _Cell:
    """One population cell: shared dataset + a reusable context."""

    population: int
    cohort: int

    def __post_init__(self) -> None:
        self.train = _build_dataset()
        self.test = self.train.subset(np.arange(64))
        self.ctx: FederatedContext | None = None

    def setup(self) -> None:
        if self.ctx is not None:
            self.ctx.close()
        model = build_model(
            "small_cnn",
            num_classes=_NUM_CLASSES,
            width_multiplier=_WIDTH,
            image_size=_IMAGE_SIZE,
            seed=1,
        )
        self.ctx = FederatedContext(
            model,
            self.train,
            self.test,
            _make_config(self.population, self.cohort),
            dataset_name="synthetic",
            model_name="small_cnn",
        )

    def round(self) -> None:
        if self.ctx is None:
            self.setup()
        self.ctx.run_fedavg_round(need_states=False)

    def close(self) -> None:
        if self.ctx is not None:
            self.ctx.close()
            self.ctx = None


class _AggregateCell:
    """Aggregation-only fixture: one template upload fed ``cohort``
    times (upload content is irrelevant to reduction cost)."""

    def __init__(self, cohort: int, fan_in: int | None = None) -> None:
        self.cohort = cohort
        self.fan_in = fan_in
        model = build_model(
            "small_cnn",
            num_classes=_NUM_CLASSES,
            width_multiplier=_WIDTH,
            image_size=_IMAGE_SIZE,
            seed=1,
        )
        self.state = get_state(model)
        self.state_nbytes = 0
        for value in self.state.values():
            self.state_nbytes += int(value.nbytes)
        self.counts = [_SHARD_SIZE] * cohort

    def aggregate(self) -> None:
        aggregator = HierarchicalAggregator(
            self.counts, fan_in=self.fan_in
        )
        for _ in range(self.cohort):
            aggregator.add_state(self.state)
        aggregator.finish()


def run_fleet_scale_bench(repeats: int = 5, quick: bool = False) -> dict:
    """Run the population/cohort grid; returns a JSON record.

    ``quick`` drops the 1M-population cell and shrinks the training
    cohort for CI smoke runs while keeping the 100k-upload aggregation
    cell the acceptance ratios are read from.
    """
    populations = POPULATIONS[:1] if quick else POPULATIONS
    cohort = 64 if quick else ROUND_COHORT
    aggregate_cohorts = AGGREGATE_COHORTS

    results: list[dict] = []
    for population in populations:
        cell = _Cell(population, cohort)
        try:
            for phase, step in (
                ("setup", cell.setup),
                ("round", cell.round),
            ):
                times = _time_variants({"virtual": step}, repeats)
                results.append(
                    {
                        "population": population,
                        "cohort": cohort if phase == "round" else 0,
                        "phase": phase,
                        "variant": "virtual",
                        "seconds": times["virtual"],
                        "peak_alloc_bytes": _peak_alloc(step),
                        "peak_rss_bytes": _peak_rss_bytes(),
                    }
                )
        finally:
            cell.close()

    state_nbytes = 0
    for agg_cohort in aggregate_cohorts:
        agg = _AggregateCell(agg_cohort)
        state_nbytes = agg.state_nbytes
        times = _time_variants({"virtual": agg.aggregate}, repeats)
        results.append(
            {
                "population": agg_cohort,
                "cohort": agg_cohort,
                "phase": "aggregate",
                "variant": "virtual",
                "seconds": times["virtual"],
                "peak_alloc_bytes": _peak_alloc(agg.aggregate),
                "peak_rss_bytes": _peak_rss_bytes(),
            }
        )

    record = {
        "schema": "bench_fleet_scale/v1",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "peak_rss_bytes": _peak_rss_bytes(),
        },
        "config": {
            "repeats": repeats,
            "populations": list(populations),
            "round_cohort": cohort,
            "aggregate_cohorts": list(aggregate_cohorts),
            "shard_size": _SHARD_SIZE,
            "state_nbytes": state_nbytes,
            "quick": quick,
        },
        "results": results,
        "summary": _summarize(results, state_nbytes),
    }
    return record


def _summarize(results: list[dict], state_nbytes: int) -> dict:
    """Per-phase figures plus gate-ready acceptance ratios."""
    aggregate_rows = sorted(
        (r for r in results if r["phase"] == "aggregate"),
        key=lambda r: r["cohort"],
    )
    per_phase: dict[str, dict] = {}
    for row in results:
        key = f"{row['phase']}/p{row['population']}"
        per_phase[key] = {
            "seconds": row["seconds"],
            "peak_alloc_bytes": row["peak_alloc_bytes"],
            "peak_rss_bytes": row["peak_rss_bytes"],
        }
    acceptance: dict[str, float] = {}
    if aggregate_rows:
        largest = aggregate_rows[-1]
        naive = largest["cohort"] * state_nbytes
        measured = max(1, largest["peak_alloc_bytes"])
        acceptance[
            f"naive_over_stream_alloc_at_{largest['cohort']}"
        ] = naive / measured
    if len(aggregate_rows) >= 2:
        smallest = aggregate_rows[0]
        largest = aggregate_rows[-1]
        cohort_growth = largest["cohort"] / smallest["cohort"]
        alloc_growth = max(1, largest["peak_alloc_bytes"]) / max(
            1, smallest["peak_alloc_bytes"]
        )
        acceptance["aggregate_alloc_scaling_headroom"] = (
            cohort_growth / alloc_growth
        )
    return {"per_phase": per_phase, "acceptance": acceptance}
