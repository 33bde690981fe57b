"""Clients x density x model benchmarks of the round transport layer.

Measures the three data-movement phases of one federated round —
**broadcast** (server -> every client), **upload** (every client ->
server) and **aggregate** (folding the uploads into the global state) —
for two transport pipelines:

``legacy``
    The pre-codec path: the broadcast is ``pickle.dumps`` of the whole
    model plus one ``pickle.loads`` per client (exactly what the old
    process backend shipped per task), uploads are pickled dense
    ``{name: array}`` state dicts, and aggregation is the allocating
    FedAvg reference (a fresh float64 accumulator and a fresh product
    per contribution, per tensor, per round).

``packed``
    The sparse round-transport subsystem: the broadcast is packed once
    against the server masks (:mod:`repro.fl.payload`), written once
    into a ``multiprocessing.shared_memory`` arena, and restored into a
    persistent worker model through zero-copy ``np.frombuffer`` views;
    uploads are packed payloads; aggregation is the round's FedAvg fold
    (:class:`~repro.fl.aggregation.HierarchicalAggregator`), which
    accumulates only active entries into buffers reused across rounds.

Phase times scale with *density* under ``packed`` and with *model
size* under ``legacy`` — the gap at 10% density is the acceptance
ratio the CI regression gate tracks. (The default simulation
additionally materializes dict states from packed uploads for method
compatibility; the grid measures the pure transport pipelines.)

A second pass records allocation behavior: ``tracemalloc`` peaks per
phase (post-warm-up, so reusable buffers count once) and the process
peak RSS, reproducing the memory half of the story.
"""

from __future__ import annotations

import json
import pickle
import platform
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..fl.aggregation import HierarchicalAggregator, weighted_average_states
from ..fl.payload import ModelBinding, PackedPayload, \
    build_mask_indices, pack_state
from ..fl.state import get_state
from ..nn.models import build_model
from ..sparse.mask import MaskSet
from .sparse_compute import _time_variants, write_bench_json

__all__ = [
    "MODEL_GRID",
    "CLIENT_COUNTS",
    "DENSITIES",
    "run_round_loop_bench",
    "write_bench_json",
]


@dataclass(frozen=True)
class ModelCase:
    name: str
    model: str
    width: float


MODEL_GRID = (
    ModelCase("small_cnn", "small_cnn", 1.0),
    ModelCase("resnet18_w025", "resnet18", 0.25),
    ModelCase("resnet18_w050", "resnet18", 0.5),
)

CLIENT_COUNTS = (4, 16)

DENSITIES = (1.0, 0.5, 0.1)

_PHASES = ("broadcast", "upload", "aggregate")


def _random_masks(
    model, density: float, rng: np.random.Generator
) -> MaskSet:
    """Unstructured random masks at ``density`` over prunable params."""
    if density >= 1.0:
        return MaskSet.dense(model)
    masks = {}
    for name, param in model.named_parameters():
        if not param.prunable:
            continue
        mask = rng.random(param.shape) < density
        if not mask.any():
            mask.reshape(-1)[0] = True
        masks[name] = mask
    return MaskSet(masks)


class _Cell:
    """One grid cell: a model, a fleet size, a density — plus both
    pipelines' reusable fixtures (arena, worker model, fold)."""

    def __init__(
        self, case: ModelCase, clients: int, density: float
    ) -> None:
        from multiprocessing import shared_memory

        self.case = case
        self.clients = clients
        self.density = density
        rng = np.random.default_rng(7)
        self.model = build_model(
            case.model, num_classes=10, width_multiplier=case.width,
            image_size=32, seed=1,
        )
        self.masks = _random_masks(self.model, density, rng)
        self.masks.apply(self.model)
        self.state = get_state(self.model)
        self.indices = build_mask_indices(self.masks)
        # Per-client uploads: independent arrays with the same layout
        # (content is irrelevant to transport timing).
        self.client_states = [
            {k: v.copy() for k, v in self.state.items()}
            for _ in range(clients)
        ]
        self.counts = [100 + 10 * i for i in range(clients)]
        self.client_payloads = [
            pack_state(s, self.masks, indices=self.indices)
            for s in self.client_states
        ]
        # The persistent worker-side model the packed broadcast restores
        # into (the shm executor caches one of these per worker), plus
        # the cached target binding and a worker-style upload binding,
        # and the master's broadcast binding over the global model.
        self.worker_model = pickle.loads(
            pickle.dumps(self.model, protocol=pickle.HIGHEST_PROTOCOL)
        )
        self.master = ModelBinding.for_masks(self.model, self.masks)
        self.binding = ModelBinding(self.worker_model, self.master.specs)
        self.fold = HierarchicalAggregator(self.counts)
        self.spec_cache: dict = {}
        dense_cap = pack_state(self.state, MaskSet.dense(self.model))
        self.arena = shared_memory.SharedMemory(
            create=True, size=dense_cap.wire_nbytes + 4096
        )

    def close(self) -> None:
        self.binding.release()  # views into the arena pin the mapping
        self.arena.close()
        self.arena.unlink()

    # -- legacy pipeline ----------------------------------------------
    def legacy_broadcast(self) -> None:
        blob = pickle.dumps(self.model, protocol=pickle.HIGHEST_PROTOCOL)
        for _ in range(self.clients):
            pickle.loads(blob)

    def legacy_upload(self) -> None:
        for state in self.client_states:
            pickle.loads(
                pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            )

    def legacy_aggregate(self) -> None:
        weighted_average_states(self.client_states, self.counts)

    # -- packed pipeline ----------------------------------------------
    def packed_broadcast(self) -> None:
        payload = self.master.pack(indices=self.indices)
        length = payload.write_into(self.arena.buf)
        shared = PackedPayload.from_bytes(
            self.arena.buf[:length], copy=False, validate=False
        )
        for _ in range(self.clients):
            self.binding.restore(shared, assume_masked=True)
        del shared  # release the arena views before the next remap

    def packed_upload(self) -> None:
        for _ in self.client_states:
            # Worker side: pack straight off the trained model and ship
            # the wire bytes; master side: zero-copy parse with the
            # round's spec layout cached.
            blob = self.binding.pack(indices=self.indices).to_wire()
            PackedPayload.from_bytes(
                blob, copy=False, validate=False,
                spec_cache=self.spec_cache,
            )

    def packed_aggregate(self) -> None:
        # The server's steady state: one fold restarted every round.
        self.fold.restart(self.counts)
        for payload in self.client_payloads:
            self.fold.add(payload)
        self.fold.finish()

    def steps(self) -> dict[str, dict[str, callable]]:
        return {
            "broadcast": {
                "legacy": self.legacy_broadcast,
                "packed": self.packed_broadcast,
            },
            "upload": {
                "legacy": self.legacy_upload,
                "packed": self.packed_upload,
            },
            "aggregate": {
                "legacy": self.legacy_aggregate,
                "packed": self.packed_aggregate,
            },
        }


def _peak_alloc(step) -> int:
    """Peak bytes allocated by one (post-warm-up) call of ``step``."""
    step()  # warm up caches and reusable buffers
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def _peak_rss_bytes() -> int | None:
    try:
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB; macOS reports bytes.
        return rss * 1024 if platform.system() == "Linux" else rss
    # repro-lint: allow[silent-except] -- RSS is optional benchmark
    # metadata; platforms without the resource module report None.
    except Exception:  # pragma: no cover - non-POSIX
        return None


def run_round_loop_bench(
    repeats: int = 5,
    densities: tuple[float, ...] = DENSITIES,
    quick: bool = False,
) -> dict:
    """Run the clients x density x model grid; returns a JSON record.

    ``quick`` shrinks the grid for CI smoke runs while keeping a small
    and a convnet-sized model and the 10% density cell the acceptance
    ratios are read from.
    """
    models = MODEL_GRID[:2] if quick else MODEL_GRID
    client_counts = (8,) if quick else CLIENT_COUNTS
    if quick:
        densities = tuple(d for d in densities if d in (1.0, 0.1))

    results: list[dict] = []
    for case in models:
        for clients in client_counts:
            for density in densities:
                cell = _Cell(case, clients, density)
                try:
                    base = {
                        "model": case.name,
                        "clients": clients,
                        "density": density,
                        "params": cell.model.num_parameters(),
                    }
                    for phase, variants in cell.steps().items():
                        times = _time_variants(variants, repeats)
                        for variant, seconds in times.items():
                            results.append(
                                {
                                    **base,
                                    "phase": phase,
                                    "variant": variant,
                                    "seconds": seconds,
                                }
                            )
                        for variant, step in variants.items():
                            results.append(
                                {
                                    **base,
                                    "phase": phase,
                                    "variant": variant,
                                    "peak_alloc_bytes": _peak_alloc(step),
                                }
                            )
                finally:
                    cell.close()

    record = {
        "schema": "bench_round_loop/v1",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "peak_rss_bytes": _peak_rss_bytes(),
        },
        "config": {
            "repeats": repeats,
            "densities": list(densities),
            "clients": list(client_counts),
            "models": [case.name for case in models],
            "quick": quick,
        },
        "results": results,
        "summary": _summarize(results),
    }
    return record


def _summarize(results: list[dict]) -> dict:
    """Per-cell round totals, speedups, and gate-ready acceptance ratios."""
    times: dict[tuple, float] = {}
    for row in results:
        if "seconds" not in row:
            continue
        key = (
            row["model"], row["clients"], row["density"],
            row["phase"], row["variant"],
        )
        times[key] = row["seconds"]
    cells = sorted(
        {
            (r["model"], r["clients"], r["density"])
            for r in results
            if "seconds" in r
        }
    )
    per_cell: dict[str, dict] = {}
    speedups_at_01: list[float] = []
    broadcast_at_01: list[float] = []
    for model, clients, density in cells:
        legacy = sum(
            times[(model, clients, density, phase, "legacy")]
            for phase in _PHASES
        )
        packed = sum(
            times[(model, clients, density, phase, "packed")]
            for phase in _PHASES
        )
        entry = {
            "legacy_round_seconds": legacy,
            "packed_round_seconds": packed,
            "round_speedup": legacy / packed if packed else float("inf"),
        }
        for phase in _PHASES:
            lt = times[(model, clients, density, phase, "legacy")]
            pt = times[(model, clients, density, phase, "packed")]
            entry[f"{phase}_speedup"] = lt / pt if pt else float("inf")
        per_cell[f"{model}/c{clients}/d{density:g}"] = entry
        if density == 0.1:
            speedups_at_01.append(entry["round_speedup"])
            broadcast_at_01.append(entry["broadcast_speedup"])
    acceptance = {}
    if speedups_at_01:
        acceptance["max_round_speedup_at_0.1"] = max(speedups_at_01)
        acceptance["min_round_speedup_at_0.1"] = min(speedups_at_01)
    if broadcast_at_01:
        acceptance["max_broadcast_speedup_at_0.1"] = max(broadcast_at_01)
    return {"per_cell": per_cell, "acceptance": acceptance}
