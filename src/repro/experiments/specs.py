"""Declarative experiment specs: the sweep's (and runner's) unit of work.

A :class:`RunSpec` pins one experiment completely: the method, model,
dataset, target density, scale preset, seed, Dirichlet alpha, pool
size, and any run knob in
:data:`~repro.experiments.configs.CONFIG_OVERRIDE_KEYS` as an
``overrides`` mapping. It is the single place the experiment layer
translates keyword arguments into an ``FLConfig`` — the runner builds
every context through :meth:`RunSpec.fl_config`, so a new field added
to :class:`~repro.fl.simulation.FLConfig` is immediately sweepable and
cannot drift between call sites.

Specs are JSON-round-trippable and carry a stable content fingerprint
(:meth:`RunSpec.fingerprint`): the sweep journal uses it to re-verify
completed runs on resume, exactly like
:class:`~repro.nn.checkpoint.RunCheckpoint` fingerprints individual
runs. Execution-only knobs (``checkpoint_dir``/``checkpoint_every``/
``resume``) are excluded from the fingerprint — they change how a run
executes, never what it computes.

:func:`expand_grid` turns a declarative axes mapping (axis name →
value list) into the deterministic list of specs a sweep executes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .configs import CONFIG_OVERRIDE_KEYS, ScalePreset

__all__ = [
    "CONFIG_OVERRIDE_KEYS",
    "RunSpec",
    "expand_grid",
    "parse_axis_value",
]

#: Keyword aliases accepted for historical reasons (``run_experiment``
#: always called the quantization knob ``quantize_bits``).
_OVERRIDE_ALIASES = {"quantize_bits": "quantize_upload_bits"}

#: Spec fields with first-class meaning (not FLConfig overrides).
_CORE_AXES = {
    "method": "method",
    "model": "model",
    "dataset": "dataset",
    "density": "target_density",
    "target_density": "target_density",
    "scale": "scale",
    "alpha": "dirichlet_alpha",
    "dirichlet_alpha": "dirichlet_alpha",
    "seed": "seed",
    "pool_size": "pool_size",
}

#: FLConfig knobs that steer *execution* (crash-resume plumbing), not
#: the computed result: excluded from the spec fingerprint so a run
#: resumed through a checkpoint re-verifies as the same run.
_EXECUTION_ONLY_KEYS = frozenset(
    {"checkpoint_dir", "checkpoint_every", "resume"}
)

_JSON_SCALARS = (str, int, float, bool, type(None))


def normalize_overrides(overrides: Mapping[str, Any]) -> dict[str, Any]:
    """Validate/canonicalize FLConfig override kwargs.

    Aliases are resolved, ``None`` values dropped (they mean "use the
    preset default", exactly as the old explicit keyword plumbing did),
    and unknown keys rejected with the full valid-key list.
    """
    cleaned: dict[str, Any] = {}
    for key, value in overrides.items():
        key = _OVERRIDE_ALIASES.get(key, key)
        if key not in CONFIG_OVERRIDE_KEYS:
            raise ValueError(
                f"unknown config override {key!r}; valid keys: "
                f"{sorted(CONFIG_OVERRIDE_KEYS | set(_OVERRIDE_ALIASES))}"
            )
        if value is None:
            continue
        if not isinstance(value, _JSON_SCALARS):
            raise ValueError(
                f"config override {key}={value!r} is not a JSON scalar; "
                "specs must stay JSON-round-trippable"
            )
        if key in cleaned and cleaned[key] != value:
            raise ValueError(f"conflicting values for override {key!r}")
        cleaned[key] = value
    return cleaned


@dataclass(frozen=True)
class RunSpec:
    """Everything that identifies one experiment run.

    ``overrides`` maps FLConfig knob names (any key of
    :data:`CONFIG_OVERRIDE_KEYS`) to JSON-scalar values; it is
    canonicalized (aliases resolved, ``None`` dropped, keys sorted) so
    equal configurations always produce equal fingerprints.
    """

    method: str
    model: str = "resnet18"
    dataset: str = "cifar10"
    target_density: float = 0.05
    scale: str = "bench"
    dirichlet_alpha: float | None = 0.5
    seed: int = 0
    pool_size: int | None = None
    overrides: tuple[tuple[str, Any], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.method:
            raise ValueError("RunSpec needs a method name")
        if not 0.0 < self.target_density <= 1.0:
            raise ValueError(
                f"target_density must be in (0, 1], got {self.target_density}"
            )
        raw = self.overrides
        mapping = dict(raw) if not isinstance(raw, Mapping) else dict(raw)
        cleaned = normalize_overrides(mapping)
        object.__setattr__(
            self, "overrides", tuple(sorted(cleaned.items()))
        )

    @property
    def overrides_dict(self) -> dict[str, Any]:
        return dict(self.overrides)

    def fl_config(self, preset: ScalePreset, **extra: Any):
        """The run's FLConfig — the one call site for every knob.

        ``extra`` lets the orchestration layer thread execution-only
        knobs (per-run checkpoint dirs, resume flags) without widening
        the spec's identity; it is merged over :attr:`overrides`.
        """
        return preset.fl_config(
            self.dirichlet_alpha, self.seed, **{**self.overrides_dict, **extra}
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "method": self.method,
            "model": self.model,
            "dataset": self.dataset,
            "target_density": self.target_density,
            "scale": self.scale,
            "dirichlet_alpha": self.dirichlet_alpha,
            "seed": self.seed,
            "pool_size": self.pool_size,
            "overrides": self.overrides_dict,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "RunSpec":
        return cls(
            method=record["method"],
            model=record.get("model", "resnet18"),
            dataset=record.get("dataset", "cifar10"),
            target_density=record.get("target_density", 0.05),
            scale=record.get("scale", "bench"),
            dirichlet_alpha=record.get("dirichlet_alpha"),
            seed=record.get("seed", 0),
            pool_size=record.get("pool_size"),
            overrides=tuple(dict(record.get("overrides", {})).items()),
        )

    def fingerprint(self) -> str:
        """Stable content hash of the spec's *identity*.

        Execution-only override keys are excluded: resuming a run
        through its checkpoint plumbing must not change which spec the
        journal thinks it is.
        """
        canonical = self.to_dict()
        canonical["overrides"] = {
            key: value
            for key, value in self.overrides
            if key not in _EXECUTION_ONLY_KEYS
        }
        encoded = json.dumps(
            canonical, sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Compact human-readable identity for logs and reports."""
        return (
            f"{self.method}/{self.model}/{self.dataset}"
            f"@d={self.target_density:g},seed={self.seed}"
        )


def parse_axis_value(text: str) -> Any:
    """Parse one grid-axis value: int, float, bool, None, or string."""
    raw = text.strip()
    lowered = raw.lower()
    if lowered in ("none", "null"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(raw)
    except ValueError:  # repro-lint: allow[silent-except] -- type probe:
        pass            # non-int axis values fall through to float/str
    try:
        return float(raw)
    except ValueError:  # repro-lint: allow[silent-except] -- type probe:
        pass            # non-numeric axis values are plain strings
    return raw


def expand_grid(
    axes: Mapping[str, Sequence[Any]],
    base: Mapping[str, Any] | None = None,
) -> list[RunSpec]:
    """Expand a declarative grid into a deterministic list of RunSpecs.

    ``axes`` maps axis names to value lists; axis names are either
    core spec fields (``method``/``model``/``dataset``/``density``/
    ``scale``/``alpha``/``seed``/``pool_size``) or any key of
    :data:`CONFIG_OVERRIDE_KEYS`. ``base`` supplies values for core
    fields that are not gridded. Expansion order is the cartesian
    product with the *last* axis varying fastest — a pure function of
    the mapping's insertion order, so the same grid always enumerates
    the same queue.
    """
    for name, values in axes.items():
        if not values:
            raise ValueError(f"grid axis {name!r} has no values")
        if name not in _CORE_AXES:
            # Raises with the valid-key list on unknown names.
            normalize_overrides({name: values[0]})
    names = list(axes)
    specs: list[RunSpec] = []
    for combo in itertools.product(*(axes[name] for name in names)):
        fields: dict[str, Any] = dict(base or {})
        overrides: dict[str, Any] = dict(fields.pop("overrides", {}))
        for name, value in zip(names, combo):
            if name in _CORE_AXES:
                fields[_CORE_AXES[name]] = value
            else:
                overrides[name] = value
        specs.append(
            RunSpec(**{**fields, "overrides": tuple(overrides.items())})
        )
    return specs
