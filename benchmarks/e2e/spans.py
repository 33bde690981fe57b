"""Outside-in timing of a ``run_spec`` call.

Two recorders, both installed by patching public class and module
attributes of ``repro`` before the run starts; neither reads or advances
an RNG or the simulated clock.

- :class:`RoundMarks` (untraced and traced runs) wraps only
  ``FederatedContext.run_fedavg_round`` entry and ``record_round`` exit,
  which bound each round.
- :class:`SpanRecorder` (traced runs) wraps every layer in
  :data:`LAYERS`. It keeps ``(name, start, end, parent)`` spans in memory
  on ``perf_counter`` and writes them out only when asked, after the run.

Spans opened inside pool worker processes are not collected: the
wrappers call straight through in any process but the one that
installed them, so worker compute shows up as the coordinator's
``fl.executor.run_clients`` self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable

__all__ = [
    "LAYERS",
    "LAYER_METRICS",
    "RoundMarks",
    "SetupDone",
    "SpanRecorder",
]


class SetupDone(Exception):
    """Raised at the first round when only set-up is being timed."""


class RoundMarks:
    """Round boundaries and trained samples of one ``run_spec`` call."""

    def __init__(self) -> None:
        self.begin()

    def begin(self, stop_at_first_round: bool = False) -> None:
        """Reset, and mark the start of a ``run_spec`` call."""
        self.round_starts: list[float] = []
        self.round_ends: list[float] = []
        self.round_samples: list[int] = []
        self.stop_at_first_round = stop_at_first_round
        self.call_start = perf_counter()

    @property
    def setup_s(self) -> float:
        return self.round_starts[0] - self.call_start

    @property
    def round_s(self) -> list[float]:
        return [
            end - start
            for start, end in zip(self.round_starts, self.round_ends)
        ]

    def install(self) -> None:
        from repro.fl.simulation import FederatedContext

        run_round = FederatedContext.run_fedavg_round
        record_round = FederatedContext.record_round
        marks = self

        @functools.wraps(run_round)
        def run_fedavg_round(ctx, *args, **kwargs):
            marks.round_starts.append(perf_counter())
            if marks.stop_at_first_round:
                raise SetupDone
            return run_round(ctx, *args, **kwargs)

        @functools.wraps(record_round)
        def record(ctx, *args, **kwargs):
            out = record_round(ctx, *args, **kwargs)
            marks.round_ends.append(perf_counter())
            ids = ctx.last_round_info.aggregated_ids
            marks.round_samples.append(
                ctx.config.local_epochs
                * sum(ctx.directory.sample_count(i) for i in ids)
            )
            return out

        FederatedContext.run_fedavg_round = run_fedavg_round
        FederatedContext.record_round = record


def _count_conv_multiplies(counters, args, out) -> None:
    # Multiplies by unpruned weights vs. a dense kernel's multiplies.
    conv = args[0]
    positions = out.shape[0] * out.shape[2] * out.shape[3]
    counters["conv.useful_macs"] += conv.weight.num_active * positions
    counters["conv.dense_macs"] += conv.weight.size * positions


def _count_trained_clients(counters, args, out) -> None:
    counters["clients_trained"] += len(args[2])


def _count_lowering_cache(counters, args, out) -> None:
    metadata = out[1].metadata
    counters["lowering.hits"] += metadata.get("lowering_cache_hits", 0)
    counters["lowering.misses"] += metadata.get("lowering_cache_misses", 0)


#: (span name, module, attribute, observer). A class attribute is
#: patched on the class and on every subclass that overrides it; a
#: module function wherever a loaded ``repro`` module binds it. An
#: observer runs after the span closes, so its cost is not the layer's.
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("nn.functional.im2col", "repro.nn.functional", "im2col", None),
    ("nn.functional.im2col", "repro.nn.functional",
     "im2col_kernel_major", None),
    ("nn.functional.col2im", "repro.nn.functional", "col2im", None),
    ("nn.functional.col2im", "repro.nn.functional",
     "col2im_kernel_major", None),
    ("nn.conv.forward", "repro.nn.layers.conv", "Conv2d.forward",
     _count_conv_multiplies),
    ("nn.conv.backward", "repro.nn.layers.conv", "Conv2d.backward", None),
    ("nn.batchnorm.forward", "repro.nn.layers.batchnorm",
     "BatchNorm2d.forward", None),
    ("nn.batchnorm.backward", "repro.nn.layers.batchnorm",
     "BatchNorm2d.backward", None),
    ("nn.linear", "repro.nn.layers.linear", "Linear.forward", None),
    ("nn.linear", "repro.nn.layers.linear", "Linear.backward", None),
    ("nn.optim.step", "repro.nn.optim", "SGD.step", None),
    ("fl.executor.run_clients", "repro.fl.executor",
     "ClientExecutor.run_clients", _count_trained_clients),
    ("fl.server.aggregate", "repro.fl.server", "Server.aggregate", None),
    ("fl.server.aggregate", "repro.fl.server",
     "Server.aggregate_packed", None),
    ("fl.server.broadcast", "repro.fl.server", "Server.broadcast", None),
    ("fl.server.broadcast", "repro.fl.server",
     "Server.restore_broadcast", None),
    ("fl.fleet.materialize", "repro.fl.fleet",
     "ClientDirectory.materialize", None),
    ("fl.client.train", "repro.fl.client", "Client.train", None),
    ("fl.simulation.evaluate_global", "repro.fl.simulation",
     "FederatedContext.evaluate_global", None),
    ("core.progressive.maybe_adjust", "repro.core.progressive",
     "ProgressivePruner.maybe_adjust", None),
    ("data.prepare_data", "repro.experiments.runner", "prepare_data", None),
    ("experiments.make_context", "repro.experiments.runner",
     "make_context", None),
    ("fl.training.server_pretrain", "repro.fl.training",
     "server_pretrain", None),
    ("pruning.generate_candidate_pool", "repro.pruning.candidate_pool",
     "generate_candidate_pool", None),
    ("core.adaptive_bn.select", "repro.core.adaptive_bn",
     "AdaptiveBNSelection.select", _count_lowering_cache),
)

#: Per-layer metrics of a traced run, with units. ``<span>.busy_s`` is
#: the wall time inside outermost spans of that name, ``.self_s`` that
#: time minus the time inside child spans, ``.calls`` the outermost span
#: count.
LAYER_METRICS: dict[str, str] = {
    "nn.functional.im2col.busy_s": "s",
    "nn.functional.im2col.calls": "count",
    "nn.functional.col2im.busy_s": "s",
    "nn.functional.col2im.calls": "count",
    "nn.conv.forward.busy_s": "s",
    "nn.conv.forward.self_s": "s",
    "nn.conv.forward.calls": "count",
    "nn.conv.backward.busy_s": "s",
    "nn.conv.backward.self_s": "s",
    "nn.conv.weight_density": "fraction",
    "nn.batchnorm.forward.busy_s": "s",
    "nn.batchnorm.backward.busy_s": "s",
    "nn.linear.busy_s": "s",
    "nn.optim.step.busy_s": "s",
    "fl.executor.run_clients.busy_s": "s",
    "fl.executor.run_clients.self_s": "s",
    "fl.server.aggregate.busy_s": "s",
    "fl.server.aggregate.calls": "count",
    "fl.fleet.materialize.busy_s": "s",
    "fl.fleet.materialize.calls": "count",
    "fl.server.broadcast.busy_s": "s",
    "fl.client.train.busy_s": "s",
    "fl.client.train.calls": "count",
    "fl.simulation.evaluate_global.busy_s": "s",
    "core.progressive.maybe_adjust.busy_s": "s",
    "data.prepare_data.busy_s": "s",
    "experiments.make_context.busy_s": "s",
    "fl.training.server_pretrain.busy_s": "s",
    "pruning.generate_candidate_pool.busy_s": "s",
    "core.adaptive_bn.select.busy_s": "s",
    "core.selection_engine.lowering_cache.hit_ratio": "fraction",
    "fl.comm.upload_bytes": "bytes",
    "fl.comm.download_bytes": "bytes",
    "fl.clients_trained": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "fraction",
}

_SPAN_STATS = ("busy_s", "self_s", "calls")


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class SpanRecorder:
    """Nested spans of the coordinator process, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._pid = os.getpid()

    def wrap(
        self, name: str, fn: Callable, observe: Callable | None = None
    ) -> Callable:
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack, counters = self.parents, self._stack, self.counters
        pid = self._pid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counters, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every layer in :data:`LAYERS`."""
        for name, module_name, attribute, observe in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                for cls in _subclasses(getattr(module, class_name)):
                    fn = cls.__dict__.get(method)
                    if fn is None or getattr(
                        fn, "__isabstractmethod__", False
                    ):
                        continue
                    setattr(cls, method, self.wrap(name, fn, observe))
                continue
            fn = getattr(module, attribute)
            traced = self.wrap(name, fn, observe)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is fn:
                        setattr(loaded, key, traced)

    def span_stats(self) -> dict[str, dict[str, float]]:
        """busy/self seconds and call counts per span name."""
        names, parents = self.names, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(names)
        for index, parent in enumerate(parents):
            if parent >= 0:
                child_time[parent] += durations[index]
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: dict.fromkeys(_SPAN_STATS, 0.0)
        )
        for index, name in enumerate(names):
            entry = stats[name]
            entry["self_s"] += durations[index] - child_time[index]
            ancestor = parents[index]
            while ancestor >= 0 and names[ancestor] != name:
                ancestor = parents[ancestor]
            if ancestor < 0:  # outermost span of its name
                entry["busy_s"] += durations[index]
                entry["calls"] += 1
        return stats

    def top_level_s(self) -> float:
        return sum(
            end - start
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent < 0
        )

    def layer_metrics(self, run_s: float) -> dict[str, float]:
        """Every span- and counter-derived entry of :data:`LAYER_METRICS`.

        The comm counts and ``trace.overhead_s`` need the run result and
        the untraced run, so the caller fills them in.
        """
        stats = self.span_stats()
        counters = self.counters
        metrics: dict[str, float] = {}
        for metric in LAYER_METRICS:
            span, _, stat = metric.rpartition(".")
            if stat in _SPAN_STATS:
                metrics[metric] = stats[span][stat] if span in stats else 0.0
        lowering = counters["lowering.hits"] + counters["lowering.misses"]
        metrics.update({
            "nn.conv.weight_density": _ratio(
                counters["conv.useful_macs"], counters["conv.dense_macs"]
            ),
            "core.selection_engine.lowering_cache.hit_ratio": _ratio(
                counters["lowering.hits"], lowering
            ),
            "fl.clients_trained": counters["clients_trained"],
            "trace.coverage": _ratio(self.top_level_s(), run_s),
        })
        return metrics

    def write(self, path: str, origin: float) -> None:
        """Write the spans as JSONL, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in zip(
                self.names, self.starts, self.ends, self.parents
            ):
                handle.write(json.dumps({
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                }) + "\n")
