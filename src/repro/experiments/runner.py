"""Build and run a named (method, model, dataset, density) experiment.

Methods resolve through the pluggable registry in :mod:`repro.methods`;
this module supplies the data/context plumbing around it. The unit of
work is a :class:`~repro.experiments.specs.RunSpec`: every public entry
point (:func:`run_experiment`, :func:`make_context`, the sweep
orchestrator) funnels into :func:`run_spec`, which builds the
``FLConfig`` exactly once via :meth:`RunSpec.fl_config` — the small-
model branch reuses that same frozen config instead of re-plumbing two
dozen keyword arguments a second time.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..baselines import build_small_model_context
from ..data.dataset import Dataset
from ..data.synthetic import build_dataset
from ..fl.simulation import FederatedContext, FLConfig
from ..methods import build_method, get_method_spec
from ..metrics.tracker import RunResult
from ..nn.models import build_model
from ..pruning.schedule import PruningSchedule
from .configs import ScalePreset, get_scale
from .specs import RunSpec, normalize_overrides

__all__ = [
    "prepare_data",
    "make_context",
    "build_method",
    "run_experiment",
    "run_spec",
]

Splits = tuple[Dataset, Dataset, Dataset]


def prepare_data(
    dataset_name: str, scale: ScalePreset, seed: int = 0
) -> Splits:
    """(public D_s, federated train, test) splits for a named dataset."""
    train, test = build_dataset(
        dataset_name,
        num_train=scale.num_train,
        num_test=scale.num_test,
        image_size=scale.image_size,
        seed=seed,
    )
    rng = np.random.default_rng(seed + 777)
    public, federated = train.split(scale.public_fraction, rng)
    return public, federated, test


def make_context(
    model_name: str,
    dataset_name: str,
    scale: ScalePreset,
    dirichlet_alpha: float | None = 0.5,
    seed: int = 0,
    splits: Splits | None = None,
    config: FLConfig | None = None,
    **config_overrides: Any,
) -> tuple[FederatedContext, Dataset]:
    """A fresh federated context plus the server's public dataset.

    ``splits`` lets callers reuse an already-built
    :func:`prepare_data` result instead of regenerating the dataset.
    ``config`` short-circuits config construction entirely (the spec
    runner passes the one it already built); otherwise any key of
    :data:`~repro.experiments.configs.CONFIG_OVERRIDE_KEYS`
    (``rounds``, ``executor``, ...) is accepted as an override.
    """
    if splits is None:
        splits = prepare_data(dataset_name, scale, seed)
    public, federated, test = splits
    model = build_model(
        model_name,
        num_classes=test.num_classes,
        width_multiplier=scale.width_multiplier,
        image_size=scale.image_size,
        seed=seed + 1,
    )
    if config is None:
        config = scale.fl_config(
            dirichlet_alpha, seed, **normalize_overrides(config_overrides)
        )
    elif config_overrides:
        raise ValueError(
            "make_context takes either a prebuilt config or overrides, "
            "not both"
        )
    ctx = FederatedContext(
        model,
        federated,
        test,
        config,
        dataset_name=dataset_name,
        model_name=model_name,
    )
    return ctx, public


def run_spec(
    spec: RunSpec,
    schedule: PruningSchedule | None = None,
    preset: ScalePreset | None = None,
    config_extras: dict[str, Any] | None = None,
) -> RunResult:
    """Execute one :class:`RunSpec` end to end.

    ``config_extras`` threads execution-only knobs (per-run checkpoint
    directories, resume flags) into the config without changing the
    spec's identity; ``preset`` lets callers pass an ad-hoc
    :class:`ScalePreset` instance instead of a registered scale name.
    """
    if preset is None:
        preset = get_scale(spec.scale)
    splits = prepare_data(spec.dataset, preset, spec.seed)
    config = spec.fl_config(preset, **(config_extras or {}))
    ctx, public = make_context(
        spec.model, spec.dataset, preset,
        seed=spec.seed, splits=splits, config=config,
    )
    method = build_method(
        spec.method, spec.target_density, preset,
        schedule=schedule, pool_size=spec.pool_size,
    )
    if get_method_spec(spec.method).replaces_model:
        # The small model replaces the big one entirely; it reuses the
        # already-built splits and the *same* frozen config — no second
        # trip through the keyword plumbing.
        _, federated, test = splits
        ctx = build_small_model_context(
            ctx, spec.target_density, federated, test, config,
        )
    try:
        return method.run(ctx, public)
    finally:
        ctx.close()


def run_experiment(
    method_name: str,
    model_name: str,
    dataset_name: str,
    target_density: float,
    scale: str | ScalePreset = "bench",
    dirichlet_alpha: float | None = 0.5,
    seed: int = 0,
    schedule: PruningSchedule | None = None,
    pool_size: int | None = None,
    **config_overrides: Any,
) -> RunResult:
    """End-to-end: build data, context and method, then run it.

    Any key of :data:`~repro.experiments.configs.CONFIG_OVERRIDE_KEYS`
    (``rounds``, ``executor``, ``faults``, ``checkpoint_dir``, ...) is
    accepted as a keyword and folded into the run's :class:`RunSpec`.
    """
    preset = get_scale(scale) if isinstance(scale, str) else scale
    spec = RunSpec(
        method=method_name,
        model=model_name,
        dataset=dataset_name,
        target_density=target_density,
        scale=preset.name,
        dirichlet_alpha=dirichlet_alpha,
        seed=seed,
        pool_size=pool_size,
        overrides=tuple(config_overrides.items()),
    )
    return run_spec(spec, schedule=schedule, preset=preset)
