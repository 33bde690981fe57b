"""Density x shape micro-benchmarks of the sparsity-aware engine.

Measures one training step (forward + backward) of ``Conv2d`` and
``Linear`` against a *legacy* reference that reproduces the pre-engine
substrate exactly: double-loop ``im2col_reference``/``col2im_reference``
lowering and an effective weight re-materialized as ``data * mask`` on
every forward. Three engine variants are timed per density:

``engine``
    The shipped training configuration — cached effective weights,
    channels-last lowering, density dispatch, and
    :func:`repro.nn.engine.masked_weight_grads` (fully-pruned-row weight
    gradients skipped, exactly as local SGD runs).
``engine_growth_signal``
    Same, but with dense weight gradients everywhere (the configuration
    growth-signal collection uses).
``legacy``
    The pre-engine path at the same density.

Masks are output-channel structured (:func:`repro.sparse.mask.structured_row_mask`)
so the density dispatch has rows to drop — the regime the paper's
Fig. 3 / Table 5 density sweeps study. Results are machine-readable and
consumed by ``repro bench``, the CI benchmark job, and the README
performance table.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..nn import engine
from ..nn import functional as F
from ..nn.layers import Conv2d, Linear
from ..sparse.mask import structured_row_mask

__all__ = [
    "CONV_SHAPES",
    "LINEAR_SHAPES",
    "DENSITIES",
    "run_sparse_compute_bench",
    "write_bench_json",
]


@dataclass(frozen=True)
class ConvShape:
    name: str
    batch: int
    in_channels: int
    height: int
    width: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 1


@dataclass(frozen=True)
class LinearShape:
    name: str
    batch: int
    in_features: int
    out_features: int


#: The grid spans the three regimes of the im2col convolution:
#: matmul-bound (many output channels — density dispatch dominates),
#: lowering-bound (few output channels — the channels-last im2col/col2im
#: lowering dominates), and pointwise (1x1 — lowering is one relayout,
#: the sparse path is pure batched matmuls).
CONV_SHAPES = (
    ConvShape("conv_matmul_bound", 8, 64, 16, 16, 128, 3),
    ConvShape("conv_lowering_bound", 4, 64, 16, 16, 16, 3),
    ConvShape("conv_pointwise", 8, 256, 8, 8, 256, 1, 1, 0),
    ConvShape("conv_block", 16, 16, 16, 16, 32, 3),
)

LINEAR_SHAPES = (
    LinearShape("linear_wide", 256, 1024, 512),
    LinearShape("linear_head", 128, 512, 128),
)

DENSITIES = (1.0, 0.5, 0.25, 0.1, 0.05)


# ----------------------------------------------------------------------
# Legacy (pre-engine) reference steps
# ----------------------------------------------------------------------
def _legacy_conv_step(x, data, mask, bias, grad_out, stride, pad):
    n, c, h, w = x.shape
    c_out, _, k, _ = data.shape
    out_h = F.conv_output_size(h, k, stride, pad)
    out_w = F.conv_output_size(w, k, stride, pad)
    effective = data if mask is None else data * mask
    col = F.im2col_reference(x, k, k, stride, pad)
    w_eff = effective.reshape(c_out, -1)
    out = col @ w_eff.T
    if bias is not None:
        out += bias
    out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, c_out)
    grad_w = (grad_flat.T @ col).reshape(data.shape)
    effective = data if mask is None else data * mask
    grad_col = grad_flat @ effective.reshape(c_out, -1)
    grad_in = F.col2im_reference(grad_col, x.shape, k, k, stride, pad)
    return out, grad_w, grad_in


def _legacy_linear_step(x, data, mask, bias, grad_out):
    effective = data if mask is None else data * mask
    out = x @ effective.T
    if bias is not None:
        out += bias
    grad_w = grad_out.T @ x
    effective = data if mask is None else data * mask
    grad_in = grad_out @ effective
    return out, grad_w, grad_in


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def _time_variants(
    steps: dict[str, callable], repeats: int, min_time: float = 0.02
) -> dict[str, float]:
    """Median CPU-seconds per call for every variant, interleaved.

    The substrate is single-threaded NumPy, so ``process_time`` measures
    the same work as wall clock while being immune to scheduler noise.
    Variants are sampled round-robin (A, B, C, A, B, C, ...) so that
    machine-wide throughput drift hits every variant equally — the
    ratios between variants stay honest even on noisy shared hosts.
    """
    inners = {}
    for name, step in steps.items():
        step()  # warmup
        t0 = time.process_time()
        step()
        once = max(time.process_time() - t0, 1e-7)
        inners[name] = max(1, int(min_time / once))
    samples: dict[str, list[float]] = {name: [] for name in steps}
    for _ in range(repeats):
        for name, step in steps.items():
            inner = inners[name]
            t0 = time.process_time()
            for _ in range(inner):
                step()
            samples[name].append((time.process_time() - t0) / inner)
    return {
        name: float(np.median(values)) for name, values in samples.items()
    }


def _conv_cases(shape: ConvShape, density: float, rng: np.random.Generator):
    x = rng.normal(
        size=(shape.batch, shape.in_channels, shape.height, shape.width)
    ).astype(np.float32)
    out_h = F.conv_output_size(
        shape.height, shape.kernel, shape.stride, shape.padding
    )
    out_w = F.conv_output_size(
        shape.width, shape.kernel, shape.stride, shape.padding
    )
    grad_out = rng.normal(
        size=(shape.batch, shape.out_channels, out_h, out_w)
    ).astype(np.float32)

    conv = Conv2d(
        shape.in_channels,
        shape.out_channels,
        shape.kernel,
        stride=shape.stride,
        padding=shape.padding,
        rng=np.random.default_rng(1),
    )
    mask = None
    if density < 1.0:
        mask = structured_row_mask(
            conv.weight.shape, density, np.random.default_rng(2)
        )
        conv.weight.set_mask(mask)
        conv.weight.apply_mask()
        mask = conv.weight.mask  # float32 binarized copy

    data = conv.weight.data.copy()
    bias = conv.bias.data.copy()

    def legacy_step():
        _legacy_conv_step(
            x, data, mask, bias, grad_out, shape.stride, shape.padding
        )

    def engine_step():
        out = conv(x)
        conv.zero_grad()
        conv.backward(grad_out)
        return out

    return legacy_step, engine_step


def _linear_cases(shape: LinearShape, density: float, rng: np.random.Generator):
    x = rng.normal(size=(shape.batch, shape.in_features)).astype(np.float32)
    grad_out = rng.normal(
        size=(shape.batch, shape.out_features)
    ).astype(np.float32)

    layer = Linear(
        shape.in_features, shape.out_features, rng=np.random.default_rng(1)
    )
    mask = None
    if density < 1.0:
        mask = structured_row_mask(
            layer.weight.shape, density, np.random.default_rng(2)
        )
        layer.weight.set_mask(mask)
        layer.weight.apply_mask()
        mask = layer.weight.mask

    data = layer.weight.data.copy()
    bias = layer.bias.data.copy()

    def legacy_step():
        _legacy_linear_step(x, data, mask, bias, grad_out)

    def engine_step():
        layer(x)
        layer.zero_grad()
        layer.backward(grad_out)

    return legacy_step, engine_step


def _measure_case(kind, shape, density, cases, repeats, results):
    legacy_step, engine_step = cases

    saved = engine.get_config().density_threshold
    engine.configure(density_threshold=1.0)
    try:
        def engine_masked():
            with engine.masked_weight_grads():
                engine_step()

        times = _time_variants(
            {
                "legacy": legacy_step,
                "engine": engine_masked,
                "engine_growth_signal": engine_step,
            },
            repeats,
        )
    finally:
        engine.configure(density_threshold=saved)

    base = {
        "kind": kind,
        "shape": shape.name,
        "dims": vars(shape),
        "density": density,
    }
    for variant, seconds in times.items():
        results.append({**base, "variant": variant, "seconds": seconds})


def run_sparse_compute_bench(
    repeats: int = 5,
    densities: tuple[float, ...] = DENSITIES,
    quick: bool = False,
) -> dict:
    """Run the density x shape grid; returns a JSON-serializable record.

    ``quick`` shrinks the grid for CI smoke runs but keeps every conv
    regime, so the acceptance maxima stay comparable to full-grid
    records (the regression gate compares them against a checked-in
    baseline).
    """
    conv_shapes = (
        tuple(s for s in CONV_SHAPES if s.name != "conv_block")
        if quick
        else CONV_SHAPES
    )
    linear_shapes = LINEAR_SHAPES[:1] if quick else LINEAR_SHAPES
    if quick:
        densities = tuple(d for d in densities if d in (1.0, 0.5, 0.1))

    rng = np.random.default_rng(0)
    results: list[dict] = []
    for shape in conv_shapes:
        for density in densities:
            _measure_case(
                "conv",
                shape,
                density,
                _conv_cases(shape, density, rng),
                repeats,
                results,
            )
    for shape in linear_shapes:
        for density in densities:
            _measure_case(
                "linear",
                shape,
                density,
                _linear_cases(shape, density, rng),
                repeats,
                results,
            )

    record = {
        "schema": "bench_sparse_compute/v1",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "config": {
            "repeats": repeats,
            "densities": list(densities),
            "quick": quick,
        },
        "results": results,
        "summary": _summarize(results),
    }
    return record


def _summarize(results: list[dict]) -> dict:
    by_key: dict[tuple, float] = {
        (r["kind"], r["shape"], r["density"], r["variant"]): r["seconds"]
        for r in results
    }
    shapes = sorted({(r["kind"], r["shape"]) for r in results})
    densities = sorted({r["density"] for r in results})
    per_shape: dict[str, dict] = {}
    for kind, shape in shapes:
        legacy_dense = by_key.get((kind, shape, 1.0, "legacy"))
        entry: dict = {"kind": kind}
        if legacy_dense:
            engine_dense = by_key.get((kind, shape, 1.0, "engine"))
            if engine_dense:
                entry["dense_lowering_speedup"] = legacy_dense / engine_dense
            for density in densities:
                engine_s = by_key.get((kind, shape, density, "engine"))
                if engine_s and density < 1.0:
                    entry[f"speedup_at_{density:g}"] = (
                        legacy_dense / engine_s
                    )
        per_shape[shape] = entry

    conv_entries = [e for e in per_shape.values() if e["kind"] == "conv"]
    acceptance = {}
    dense_speedups = [
        e["dense_lowering_speedup"]
        for e in conv_entries
        if "dense_lowering_speedup" in e
    ]
    sparse_speedups = [
        e["speedup_at_0.1"] for e in conv_entries if "speedup_at_0.1" in e
    ]
    if dense_speedups:
        acceptance["max_conv_dense_lowering_speedup"] = max(dense_speedups)
    if sparse_speedups:
        acceptance["max_conv_speedup_at_0.1"] = max(sparse_speedups)
    return {"per_shape": per_shape, "acceptance": acceptance}


def write_bench_json(record: dict, path: str | Path) -> Path:
    """Write the benchmark record to ``path`` (creating parents)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=False) + "\n")
    return path
