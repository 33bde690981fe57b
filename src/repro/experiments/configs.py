"""Experiment scale presets (the method registry lives in repro.methods).

The paper's experiments run ResNet-18/VGG-11 for 200-300 federated
rounds on full datasets; this reproduction exposes the same experiment
definitions at three scales:

- ``tiny``  — seconds; used by the integration test suite;
- ``bench`` — minutes; used by the benchmark harness that regenerates
  every paper table and figure (qualitative shapes, not absolute
  numbers);
- ``paper`` — the paper's own hyper-parameters (documented; running it
  on this NumPy substrate would take GPU-class time).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from ..fl.simulation import FLConfig
from ..pruning.schedule import PruningSchedule

__all__ = [
    "CONFIG_OVERRIDE_KEYS", "ScalePreset", "SCALES", "get_scale",
    "METHOD_NAMES",
]

#: The FLConfig knobs a run may set: ``RunSpec.overrides`` keys, sweep
#: grid axes, and the ``dest`` of every ``repro run`` knob flag. The
#: rest are the preset's (``num_clients``, ``batch_size``, ``lr``), the
#: spec's own fields (``dirichlet_alpha``, ``seed``), or fixed for every
#: run.
CONFIG_OVERRIDE_KEYS: frozenset[str] = frozenset(
    f.name for f in fields(FLConfig)
) - {
    "num_clients", "batch_size", "lr",
    "dirichlet_alpha", "seed",
    "momentum", "weight_decay", "dev_fraction", "eval_every", "augment",
    "min_partition_samples", "retry_backoff_factor", "pool_failure_limit",
}


@dataclass(frozen=True)
class ScalePreset:
    """Everything that changes between tiny / bench / paper scale."""

    name: str
    width_multiplier: float
    image_size: int
    num_train: int
    num_test: int
    public_fraction: float  # share of train data held by the server as D_s
    num_clients: int
    rounds: int
    local_epochs: int
    batch_size: int
    lr: float
    delta_rounds: int
    stop_round: int
    pretrain_epochs: int
    snip_iterations: int
    synflow_iterations: int
    max_pool_size: int  # cap on the auto pool size C* = 0.1/d

    def fl_config(
        self,
        dirichlet_alpha: float | None = 0.5,
        seed: int = 0,
        **overrides: Any,
    ) -> FLConfig:
        """The preset's FLConfig with a run's knobs applied.

        Every key of ``overrides`` must be in :data:`CONFIG_OVERRIDE_KEYS`;
        a ``None`` value keeps the preset's (or FLConfig's) default.
        """
        for key in overrides:
            if key not in CONFIG_OVERRIDE_KEYS:
                raise TypeError(
                    f"fl_config() got an unexpected keyword argument {key!r}"
                )
        return FLConfig(**{
            "num_clients": self.num_clients,
            "rounds": self.rounds,
            "local_epochs": self.local_epochs,
            "batch_size": self.batch_size,
            "lr": self.lr,
            **{k: v for k, v in overrides.items() if v is not None},
            "dirichlet_alpha": dirichlet_alpha,
            "seed": seed,
        })

    def schedule(
        self, granularity: str = "block", backward_order: bool = True,
        delta_rounds: int | None = None, stop_round: int | None = None,
    ) -> PruningSchedule:
        return PruningSchedule(
            delta_rounds=(
                delta_rounds if delta_rounds is not None else
                self.delta_rounds
            ),
            stop_round=(
                stop_round if stop_round is not None else self.stop_round
            ),
            granularity=granularity,
            backward_order=backward_order,
        )


SCALES: dict[str, ScalePreset] = {
    "tiny": ScalePreset(
        name="tiny",
        width_multiplier=0.125,
        image_size=16,
        num_train=400,
        num_test=150,
        public_fraction=0.15,
        num_clients=4,
        rounds=4,
        local_epochs=1,
        batch_size=32,
        lr=0.05,
        delta_rounds=2,
        stop_round=3,
        pretrain_epochs=1,
        snip_iterations=3,
        synflow_iterations=5,
        max_pool_size=3,
    ),
    "bench": ScalePreset(
        name="bench",
        width_multiplier=0.125,
        image_size=16,
        num_train=600,
        num_test=240,
        public_fraction=0.12,
        num_clients=6,
        rounds=10,
        local_epochs=1,
        batch_size=32,
        lr=0.05,
        delta_rounds=2,
        stop_round=6,
        pretrain_epochs=2,
        snip_iterations=4,
        synflow_iterations=10,
        max_pool_size=6,
    ),
    "paper": ScalePreset(
        name="paper",
        width_multiplier=1.0,
        image_size=32,
        num_train=50_000,
        num_test=10_000,
        public_fraction=0.02,
        num_clients=10,
        rounds=300,
        local_epochs=5,
        batch_size=64,
        lr=0.05,
        delta_rounds=10,
        stop_round=100,
        pretrain_epochs=2,
        snip_iterations=100,
        synflow_iterations=100,
        max_pool_size=50,
    ),
}


def get_scale(name: str) -> ScalePreset:
    """Look up a scale preset by name (tiny / bench / paper)."""
    if name not in SCALES:
        raise KeyError(f"unknown scale {name!r}; available: {sorted(SCALES)}")
    return SCALES[name]


def __getattr__(name: str):
    # METHOD_NAMES is derived live from the method registry (PEP 562)
    # so it stays lazy — importing this module doesn't load the method
    # catalog — and reflects methods registered after import.
    if name == "METHOD_NAMES":
        from ..methods import method_names

        return method_names()
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
