"""The end-to-end benchmark's workloads and its output checks.

Each workload is one closed-loop ``run_spec`` call: round r+1 starts
only after round r has committed, and one run executes at a time. All
of them use synthetic data (nothing to download) and the ``bench``
scale preset; ``smoke=True`` shrinks every workload to the ``tiny``
preset and two rounds so the tier-1 smoke test stays fast.

Importing this module does not import ``repro``: the parent process
only needs the names, and must be able to fail cleanly when the sources
are missing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

__all__ = ["WORKLOADS", "Workload", "check_run"]

#: Rounds every workload runs in smoke mode.
SMOKE_ROUNDS = 2
#: Smoke mode divides fleet sizes by this, keeping the cohort's shape.
SMOKE_FLEET_DIVISOR = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a ``RunSpec`` recipe plus its checks."""

    name: str
    why: str
    method: str
    model: str
    density: float
    rounds: int
    overrides: tuple[tuple[str, Any], ...] = ()
    #: Fleet size replacing the preset's ``num_clients`` (None keeps it).
    num_clients: int | None = None
    #: Final-accuracy floor at bench scale (None: no floor).
    accuracy_floor: float | None = None
    #: Whether all training runs in the coordinator process, so the
    #: traced layers can explain the whole run.
    serial: bool = True

    def run_rounds(self, smoke: bool) -> int:
        return SMOKE_ROUNDS if smoke else self.rounds

    def build(self, seed: int, smoke: bool = False):
        """The ``(RunSpec, ScalePreset)`` pair for one run."""
        from repro.experiments import RunSpec, get_scale

        preset = get_scale("tiny" if smoke else "bench")
        if self.num_clients is not None:
            clients = self.num_clients
            if smoke:
                clients //= SMOKE_FLEET_DIVISOR
            preset = replace(preset, num_clients=clients)
        spec = RunSpec(
            method=self.method,
            model=self.model,
            dataset="cifar10",
            target_density=self.density,
            scale=preset.name,
            dirichlet_alpha=0.5,
            seed=seed,
            overrides=(("rounds", self.run_rounds(smoke)),) + self.overrides,
        )
        return spec, preset


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fedtiny-sparse",
            why=(
                "FedTiny at 5% density: the only workload that runs "
                "pretraining, candidate selection and progressive pruning, "
                "with convs under unstructured masks"
            ),
            method="fedtiny",
            model="resnet18",
            density=0.05,
            rounds=20,
            # Seeds 0 and 11-25 reached 0.69-0.99; chance is 0.1.
            accuracy_floor=0.5,
        ),
        Workload(
            name="fedavg-process",
            why=(
                "dense FedAvg on the process pool: bypasses any sparsity "
                "kernel, and the only workload whose broadcast and uploads "
                "cross a process boundary"
            ),
            method="fedavg",
            model="resnet18",
            density=1.0,
            rounds=20,
            overrides=(("executor", "process"),),
            accuracy_floor=0.9,
            serial=False,
        ),
        Workload(
            name="fleet-virtual",
            why=(
                "a 1,000-client cohort of a 20,000-client virtual fleet at "
                "batch 8: per-call and per-client overhead dominate, and "
                "server memory grows with the cohort"
            ),
            method="fedavg",
            model="small_cnn",
            density=1.0,
            rounds=10,
            overrides=(
                ("client_backend", "virtual"),
                ("participation_fraction", 0.05),
                ("virtual_shard_size", 8),
            ),
            num_clients=20_000,
        ),
    )
}


def check_run(
    workload: Workload, facts: dict, rounds: int, smoke: bool
) -> tuple[int, list[str]]:
    """Failed rounds of one run, and why.

    ``facts`` is what the harness reports about the run. A round fails
    when it was never recorded or was recorded with nonzero fault,
    retry, quarantine or recovery counters. Any failed end-of-run check
    fails every round of the run. Accuracy floors are calibrated at
    bench scale, so smoke runs skip them.
    """
    # (round_index, fault-counter sum) per recorded round.
    recorded = dict(facts["recorded_rounds"])
    faulty = sorted(index for index, faults in recorded.items() if faults)
    problems: list[str] = []
    if sorted(recorded) != list(range(1, rounds + 1)):
        problems.append(
            f"recorded rounds {sorted(recorded)}, expected 1..{rounds}"
        )
    if facts["failures"]:
        problems.append(f"{facts['failures']} failure records")
    density = facts["final_density"]
    if workload.density == 1.0:
        density_ok = density == 1.0
    else:
        density_ok = density <= workload.density
    if not density_ok:
        problems.append(
            f"final density {density} vs target {workload.density}"
        )
    floor = workload.accuracy_floor
    if floor is not None and not smoke and facts["final_accuracy"] < floor:
        problems.append(
            f"final accuracy {facts['final_accuracy']} below {floor}"
        )
    if problems:
        return rounds, problems
    if faulty:
        return len(faulty), [f"rounds with fault counters: {faulty}"]
    return 0, []
