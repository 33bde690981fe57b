"""Server-side aggregation rules.

Weighted FedAvg over uploaded states (paper Algorithm 2 line 18), the
BN-statistics aggregation of Algorithm 1 (Eq. 4), and the sparse top-K
gradient aggregation of Algorithm 2 (Eq. 7, implicit zeros for indices
a device did not report).

FedAvg has one implementation: :class:`HierarchicalAggregator`, the
streaming fold every round's uploads pass through — dense state dicts,
views of the live model, and packed sparse payloads alike.
:func:`weighted_average_states` is the allocating reference the fold is
tested against.
"""

from __future__ import annotations

import numpy as np

from .payload import PackedPayload

__all__ = [
    "HierarchicalAggregator",
    "normalized_weights",
    "weighted_average_states",
    "aggregate_bn_statistics",
    "aggregate_sparse_gradients",
]


def normalized_weights(
    sample_counts: list[int] | list[float] | np.ndarray,
) -> np.ndarray:
    """|D_k| / sum |D_k| weights used throughout the paper.

    Accepts any positive weights (e.g. staleness-discounted effective
    sample counts), not only integer dataset sizes.
    """
    counts = np.asarray(sample_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("sample_counts must be a non-empty 1-D sequence")
    if (counts <= 0).any():
        raise ValueError("sample counts must all be positive")
    return counts / counts.sum()


def weighted_average_states(
    states: list[dict[str, np.ndarray]],
    sample_counts: list[int] | list[float] | np.ndarray,
) -> dict[str, np.ndarray]:
    """FedAvg reference: weighted mean of parameter/buffer dicts.

    Float64 products accumulated in upload order with one final float32
    rounding. The round loop folds through
    :class:`HierarchicalAggregator` instead, which is bitwise identical
    to this function at the default fan-in.
    """
    if not states:
        raise ValueError("no states to aggregate")
    weights = normalized_weights(sample_counts)
    if len(weights) != len(states):
        raise ValueError(
            f"{len(states)} states but {len(weights)} sample counts"
        )
    keys = set(states[0])
    for state in states[1:]:
        if set(state) != keys:
            raise ValueError("states have mismatched keys")
    aggregated: dict[str, np.ndarray] = {}
    for key in states[0]:
        acc = np.zeros_like(states[0][key], dtype=np.float64)
        for weight, state in zip(weights, states):
            acc += weight * state[key]
        aggregated[key] = acc.astype(np.float32)
    return aggregated


def _reuse(
    pool: dict[str, np.ndarray], name: str, shape: tuple, dtype
) -> np.ndarray:
    """``pool[name]`` if it already has this shape and dtype, else new."""
    array = pool.get(name)
    if array is None or array.shape != shape or array.dtype != dtype:
        array = np.empty(shape, dtype=dtype)
    return array


class HierarchicalAggregator:
    """Streaming tree-wise FedAvg with O(model) server memory.

    Simulates edge aggregators in front of the server: uploads arrive
    one at a time in cohort order and are grouped into consecutive
    shards of ``fan_in``. Each shard folds its members with float64
    products accumulated in arrival order and one float32 rounding at
    the shard boundary; the global result is the weighted mean of the
    shard means, weighted by shard sample totals. Shards complete in
    order, so one shard accumulator and one global accumulator cover
    any cohort size — server memory is O(model), never O(cohort).

    Numerics: ``fan_in=None`` (single shard) and ``fan_in=1`` are both
    bitwise identical to flat :func:`weighted_average_states` — the
    single shard *is* the flat fold, and a one-member shard's mean
    round-trips through float64 exactly. Intermediate fan-ins insert
    extra float32 roundings at shard boundaries (IEEE addition is not
    associative), and are instead bitwise identical to the explicit
    composition ``weighted_average_states(shard_means, shard_totals)``.

    Uploads are dense state dicts (views are fine: they are only read
    during :meth:`add`) or :class:`~repro.fl.payload.PackedPayload`
    uploads, which fold their active values only — work scales with
    density, and pruned positions come out as exactly ``+0.0``, the
    bytes the dense fold of the decoded payloads produces. One cohort
    holds one kind, and packed uploads must share one spec layout.

    The cohort's sample counts are fixed up front — the selection is
    known before any upload arrives — so normalized weights never need
    the uploads themselves. Feed every upload through :meth:`add`, then
    read :meth:`finish` once; :meth:`restart` begins the next cohort on
    the same accumulators (the server keeps one instance across rounds,
    so steady-state rounds allocate only their results).
    """

    def __init__(
        self,
        sample_counts: list[int] | list[float] | np.ndarray,
        fan_in: int | None = None,
    ) -> None:
        if fan_in is not None and fan_in < 1:
            raise ValueError(f"fan_in must be >= 1, got {fan_in}")
        self.fan_in = fan_in
        self._shard_acc: dict[str, np.ndarray] = {}
        self._scratch: dict[str, np.ndarray] = {}
        self._shard_mean: dict[str, np.ndarray] = {}
        self._global_acc: dict[str, np.ndarray] = {}
        self.restart(sample_counts)

    def restart(
        self, sample_counts: list[int] | list[float] | np.ndarray
    ) -> None:
        """Begin a new cohort, keeping the accumulator buffers."""
        # A private copy: it becomes the shard weights in place, so the
        # weight metadata costs one cohort-sized array, not two.
        counts = np.array(sample_counts, dtype=np.float64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError(
                "sample_counts must be a non-empty 1-D sequence"
            )
        if (counts <= 0).any():
            raise ValueError("sample counts must all be positive")
        cohort = int(counts.size)
        fan_in = self.fan_in
        if fan_in is None or fan_in >= cohort:
            fan_in = cohort
        self._cohort = cohort
        self._fan_in = fan_in
        starts = list(range(0, cohort, fan_in))
        # A single shard is the flat fold: its float32-rounded mean is
        # the result, with no global stage.
        self._global_weights = None
        if len(starts) > 1:
            shard_totals = np.empty(len(starts), dtype=np.float64)
            for j, s in enumerate(starts):
                total = 0.0
                # Explicit left fold (not sum()): shard totals feed
                # weights, and the accumulation order must stay pinned.
                for value in counts[s : s + fan_in]:
                    total += float(value)
                shard_totals[j] = total
            self._global_weights = normalized_weights(shard_totals)
        self._shard_weights = []
        for s in starts:
            # normalized_weights of the shard, computed in place.
            shard = counts[s : s + fan_in]
            np.divide(shard, shard.sum(), out=shard)
            self._shard_weights.append(shard)
        self._position = 0
        self._mode: str | None = None
        self._keys: tuple[str, ...] | None = None
        # Packed mode extras: the shared spec layout and the reference
        # index segments every payload must match.
        self._specs = None
        self._indices: dict[str, np.ndarray] = {}

    def _bind(self, shapes: dict[str, tuple[int, ...]]) -> None:
        self._keys = tuple(shapes)
        f64, f32 = np.float64, np.float32
        shard_acc, scratch = self._shard_acc, self._scratch
        self._shard_acc = {
            n: _reuse(shard_acc, n, s, f64) for n, s in shapes.items()
        }
        self._scratch = {
            n: _reuse(scratch, n, s, f64) for n, s in shapes.items()
        }
        if self._global_weights is None:
            self._shard_mean, self._global_acc = {}, {}
            return
        shard_mean, global_acc = self._shard_mean, self._global_acc
        self._shard_mean = {
            n: _reuse(shard_mean, n, s, f32) for n, s in shapes.items()
        }
        self._global_acc = {
            n: _reuse(global_acc, n, s, f64) for n, s in shapes.items()
        }
        for acc in self._global_acc.values():
            acc.fill(0.0)

    def _fold(self, values: dict[str, np.ndarray]) -> None:
        """Fold upload ``position`` into the current shard."""
        i = self._position
        if i >= self._cohort:
            raise ValueError(
                f"cohort holds {self._cohort} uploads; got more"
            )
        shard, offset = divmod(i, self._fan_in)
        weight = self._shard_weights[shard][offset]
        for name in self._keys:
            acc = self._shard_acc[name]
            if offset == 0:
                acc.fill(0.0)
            scratch = self._scratch[name]
            np.multiply(values[name], weight, out=scratch)
            np.add(acc, scratch, out=acc)
        self._position = i + 1
        last = offset == self._shard_weights[shard].size - 1
        if last and self._global_weights is not None:
            # Shard complete: round its mean to float32 (the bytes an
            # edge aggregator would forward) and fold it into the
            # global accumulator at the shard's weight.
            global_weight = self._global_weights[shard]
            for name in self._keys:
                mean = self._shard_mean[name]
                mean[...] = self._shard_acc[name]
                scratch = self._scratch[name]
                np.multiply(mean, global_weight, out=scratch)
                np.add(
                    self._global_acc[name],
                    scratch,
                    out=self._global_acc[name],
                )

    def add(self, upload: dict[str, np.ndarray] | PackedPayload) -> None:
        """Fold the next upload, dense or packed."""
        if isinstance(upload, PackedPayload):
            self.add_payload(upload)
        else:
            self.add_state(upload)

    def add_state(self, state: dict[str, np.ndarray]) -> None:
        """Fold the next dense upload (read-only; views are fine)."""
        if self._mode is None:
            self._mode = "dense"
            self._bind(
                {name: value.shape for name, value in state.items()}
            )
        elif self._mode != "dense":
            raise ValueError("aggregator already holds packed uploads")
        if tuple(state) != self._keys:
            raise ValueError("states have mismatched keys")
        self._fold(state)

    def add_payload(self, payload: PackedPayload) -> None:
        """Fold the next packed upload (one spec layout per cohort)."""
        if self._mode is None:
            self._mode = "packed"
            self._specs = payload.specs
            self._bind(
                {spec.name: (spec.num_active,) for spec in payload.specs}
            )
            for spec in payload.specs:
                if spec.encoding == "sparse":
                    # Copied, not viewed: the payload's buffer may be
                    # released before finish() scatters the result.
                    self._indices[spec.name] = (
                        payload.indices_view(spec).copy()
                    )
        elif self._mode != "packed":
            raise ValueError("aggregator already holds dense uploads")
        else:
            if (
                payload.specs is not self._specs
                and payload.specs != self._specs
            ):
                raise ValueError(
                    "payloads have mismatched specs (different masks?)"
                )
            # Equal specs do not imply equal masks: two masks with the
            # same per-tensor active counts produce identical spec
            # tuples but different index segments, and summing values
            # at unrelated coordinates would be silently wrong.
            for spec in self._specs:
                if spec.encoding != "sparse":
                    continue
                if not np.array_equal(
                    payload.indices_view(spec), self._indices[spec.name]
                ):
                    raise ValueError(
                        f"payloads have mismatched active indices for "
                        f"{spec.name!r} (different masks?)"
                    )
        self._fold(
            {
                spec.name: payload.values_view(spec)
                for spec in self._specs
            }
        )

    def finish(self) -> dict[str, np.ndarray]:
        """The committed global state, after every upload arrived."""
        if self._position != self._cohort:
            raise ValueError(
                f"cohort holds {self._cohort} uploads; "
                f"only {self._position} arrived"
            )
        final = (
            self._shard_acc if self._global_weights is None
            else self._global_acc
        )
        aggregated: dict[str, np.ndarray] = {}
        if self._mode == "packed":
            for spec in self._specs:
                final32 = final[spec.name].astype(np.float32)
                if spec.encoding == "sparse":
                    dense = np.zeros(spec.size, dtype=np.float32)
                    dense[self._indices[spec.name]] = final32
                    aggregated[spec.name] = dense.reshape(spec.shape)
                else:
                    aggregated[spec.name] = final32.reshape(spec.shape)
            return aggregated
        for name in self._keys:
            aggregated[name] = final[name].astype(np.float32)
        return aggregated


def aggregate_bn_statistics(
    stats_list: list[dict[str, tuple[np.ndarray, np.ndarray]]],
    sample_counts: list[int] | np.ndarray,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Paper Eq. 4: weighted mean of per-device BN (mean, var) pairs."""
    if not stats_list:
        raise ValueError("no statistics to aggregate")
    weights = normalized_weights(sample_counts)
    if len(weights) != len(stats_list):
        raise ValueError(
            f"{len(stats_list)} stat dicts but {len(weights)} sample counts"
        )
    keys = set(stats_list[0])
    for stats in stats_list[1:]:
        if set(stats) != keys:
            raise ValueError("BN statistics have mismatched layer names")
    aggregated = {}
    for name in stats_list[0]:
        mean = np.zeros_like(stats_list[0][name][0], dtype=np.float64)
        var = np.zeros_like(stats_list[0][name][1], dtype=np.float64)
        for weight, stats in zip(weights, stats_list):
            mean += weight * stats[name][0]
            var += weight * stats[name][1]
        aggregated[name] = (mean.astype(np.float32), var.astype(np.float32))
    return aggregated


def aggregate_sparse_gradients(
    per_device: list[dict[str, tuple[np.ndarray, np.ndarray]]],
    sample_counts: list[int] | np.ndarray,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Paper Eq. 7 on sparse (indices, values) uploads.

    Each device reports, per layer, the flat indices and values of its
    top-K pruned-parameter gradients. The aggregate for an index is the
    weighted sum over devices, a device contributing zero where it did
    not report the index.
    """
    if not per_device:
        raise ValueError("no gradients to aggregate")
    weights = normalized_weights(sample_counts)
    if len(weights) != len(per_device):
        raise ValueError(
            f"{len(per_device)} gradient dicts but {len(weights)} counts"
        )
    layer_names: set[str] = set()
    for device in per_device:
        layer_names.update(device)
    aggregated: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name in sorted(layer_names):
        index_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        for weight, device in zip(weights, per_device):
            if name not in device:
                continue
            indices, values = device[name]
            index_parts.append(np.asarray(indices, dtype=np.int64))
            # float64 products and accumulation, matching the scalar
            # reference: weighted values are summed at full precision and
            # rounded to float32 exactly once at the end.
            value_parts.append(
                weight * np.asarray(values, dtype=np.float64)
            )
        if not index_parts:
            continue
        all_indices = np.concatenate(index_parts)
        if all_indices.size == 0:
            continue
        all_values = np.concatenate(value_parts)
        idx, inverse = np.unique(all_indices, return_inverse=True)
        sums = np.zeros(idx.size, dtype=np.float64)
        # Unbuffered scatter-add: contributions land in upload order, so
        # per-index accumulation order matches the scalar loop exactly.
        np.add.at(sums, inverse, all_values)
        aggregated[name] = (idx, sums.astype(np.float32))
    return aggregated
