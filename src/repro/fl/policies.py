"""Round policies: how the server opens and closes one federated round.

The paper's systems argument is that dense on-device work "may lead to
straggling issues in federated learning". A :class:`RoundPolicy` makes
that argument executable: given the participants sampled for a round
and the simulated seconds each needs on its assigned
:class:`~repro.fl.latency.DeviceProfile`, the policy decides which
clients actually train, whose uploads the server aggregates, and how
much simulated wall-clock time the round consumes. Four policies ship
built in:

- ``sync`` (:class:`SynchronousPolicy`) — the classic FedAvg barrier:
  every participant trains and is aggregated; the slowest device gates
  the round. Byte-identical to the pre-policy simulation.
- ``deadline`` (:class:`DeadlinePolicy`) — the server over-selects
  participants and closes the round ``deadline_fraction`` past the
  median device's completion time; stragglers beyond the deadline are
  dropped (their updates never arrive).
- ``dropout`` (:class:`DropoutPolicy`) — an availability model: each
  participant independently goes offline with probability
  ``dropout_rate``, re-drawn every round from the context's dedicated
  simulation RNG stream.
- ``async`` (:class:`BufferedAsyncPolicy`) — FedBuff-style buffered
  asynchrony: the round closes when an ``async_buffer_fraction`` share
  of uploads has arrived; late uploads are buffered and folded into
  the *next* aggregation with a ``staleness_discount`` weight.

Policies never aggregate themselves: the round folds the on-time
uploads through the server's one FedAvg fold at the weights
:meth:`RoundPolicy.fold_weights` returns, then any uploads the policy
hands back from :meth:`RoundPolicy.end_fold` (the async policy's stale
buffer).

New policies register via :func:`register_policy` without touching the
simulation internals, mirroring the executor registry.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .simulation import FederatedContext, FLConfig

__all__ = [
    "RoundPlan",
    "RoundInfo",
    "RoundPolicy",
    "SynchronousPolicy",
    "DeadlinePolicy",
    "DropoutPolicy",
    "BufferedAsyncPolicy",
    "available_policies",
    "build_policy",
    "register_policy",
]


@dataclass(frozen=True)
class RoundPlan:
    """The policy's decision for one round.

    Indices refer to positions in the round's participant list.
    ``on_time`` holds positions *into* ``trained`` whose uploads reach
    the server before the round closes; trained-but-not-on-time clients
    are late (buffered by asynchronous policies). ``dropped``
    participants never contribute: they either went offline before the
    broadcast (``dropped_received_broadcast=False``) or missed the
    deadline after downloading the model.
    """

    trained: tuple[int, ...]
    on_time: tuple[int, ...]
    dropped: tuple[int, ...]
    elapsed_seconds: float
    dropped_received_broadcast: bool = True

    def __post_init__(self) -> None:
        if self.elapsed_seconds < 0:
            raise ValueError("elapsed_seconds must be non-negative")
        for field_name in ("trained", "on_time", "dropped"):
            values = getattr(self, field_name)
            if any(p < 0 for p in values):
                raise ValueError(
                    f"{field_name} holds a negative position"
                )
            if len(set(values)) != len(values):
                raise ValueError(
                    f"{field_name} holds duplicate positions"
                )
        if any(p >= len(self.trained) for p in self.on_time):
            raise ValueError("on_time positions exceed the trained list")
        overlap = set(self.trained) & set(self.dropped)
        if overlap:
            # A participant both trained and dropped would be aggregated
            # twice by policies that weight the two sets differently.
            raise ValueError(
                f"participants {sorted(overlap)} appear in both "
                f"trained and dropped"
            )

    def without_trained(self, positions: frozenset[int]) -> "RoundPlan":
        """The plan with some trained-list positions moved to dropped.

        ``positions`` index into ``trained`` (not into the participant
        list). The fault-recovery layer uses this when a client exhausts
        its retries: the survivor positions are re-packed, ``on_time``
        is remapped onto them, and the excluded participants join
        ``dropped`` — so downstream aggregation sees a smaller cohort
        whose weights renormalize over the uploads that actually
        arrived.
        """
        if not positions:
            return self
        keep = [k for k in range(len(self.trained)) if k not in positions]
        remap = {old: new for new, old in enumerate(keep)}
        return RoundPlan(
            trained=tuple(self.trained[k] for k in keep),
            on_time=tuple(
                remap[p] for p in self.on_time if p in remap
            ),
            dropped=self.dropped + tuple(
                self.trained[k] for k in sorted(positions)
            ),
            elapsed_seconds=self.elapsed_seconds,
            dropped_received_broadcast=self.dropped_received_broadcast,
        )


@dataclass(frozen=True)
class RoundInfo:
    """What happened in the last round (``ctx.last_round_info``).

    Method hooks (e.g. :meth:`FederatedMethod.round_hook`) read this to
    learn which devices were dropped or arrived late, so mask-adjustment
    protocols can react to partial participation.
    """

    selected_ids: tuple[int, ...]
    aggregated_ids: tuple[int, ...]
    dropped_ids: tuple[int, ...]
    late_ids: tuple[int, ...]
    stale_applied: int
    elapsed_seconds: float

    @property
    def dropped_count(self) -> int:
        return len(self.dropped_ids)


class RoundPolicy(ABC):
    """Strategy for participant selection, completion, and aggregation."""

    name: str = "base"

    def __init__(self, config: "FLConfig") -> None:
        self.config = config

    def select(self, ctx: "FederatedContext") -> list[int]:
        """Sample this round's participant IDs (policies may
        over-select); no client is built."""
        return ctx.sample_participant_ids()

    @abstractmethod
    def plan(
        self,
        ctx: "FederatedContext",
        participants: Sequence[int],
        times: list[float],
    ) -> RoundPlan:
        """Decide who trains/uploads and how long the round takes.

        ``participants`` holds the selected client IDs; ``times`` the
        simulated seconds each needs for the full round (download +
        local compute + upload) on its device profile, aligned with it.
        """

    def fold_weights(self, counts: list[int]) -> Sequence[float]:
        """Weights of this round's FedAvg fold, in fold order.

        ``counts`` holds the sample counts of the on-time uploads in
        participant order. The fold takes those uploads first, then the
        uploads :meth:`end_fold` returns, so the weights cover both.
        The default folds the on-time uploads at their sample counts.
        """
        return counts

    def end_fold(
        self, late: list[tuple[dict[str, np.ndarray], int]]
    ) -> list[dict[str, np.ndarray]]:
        """Hand over the round's late uploads; return uploads to fold.

        Called once per round that trained anyone, after the on-time
        uploads were folded. ``late`` holds ``(state, num_samples)``
        copies of the trained uploads outside ``plan.on_time``; the
        returned uploads are folded last, at the tail of
        :meth:`fold_weights`. Synchronous policies have neither.
        """
        del late
        return []


class SynchronousPolicy(RoundPolicy):
    """The classic barrier: wait for everyone, aggregate everyone."""

    name = "sync"

    def plan(
        self,
        ctx: "FederatedContext",
        participants: Sequence[int],
        times: list[float],
    ) -> RoundPlan:
        everyone = tuple(range(len(participants)))
        return RoundPlan(
            trained=everyone,
            on_time=everyone,
            dropped=(),
            elapsed_seconds=max(times) if times else 0.0,
        )


class DeadlinePolicy(RoundPolicy):
    """Over-select, then cut stragglers at a median-relative deadline.

    The round budget is ``deadline_fraction`` times the median
    participant's completion time; devices that would finish past the
    budget are dropped before spending local compute (the server would
    discard their upload anyway). At least the fastest participant
    always survives.
    """

    name = "deadline"

    def select(self, ctx: "FederatedContext") -> list[int]:
        over = self.config.deadline_over_select
        fraction = min(1.0, ctx.config.participation_fraction * over)
        return ctx.sample_participant_ids(fraction)

    def plan(
        self,
        ctx: "FederatedContext",
        participants: Sequence[int],
        times: list[float],
    ) -> RoundPlan:
        budget = self.config.deadline_fraction * float(np.median(times))
        survivors = [i for i, t in enumerate(times) if t <= budget]
        if not survivors:
            survivors = [int(np.argmin(times))]
        dropped = tuple(sorted(set(range(len(times))) - set(survivors)))
        if dropped:
            # The server closes at the budget — unless the fallback kept
            # a lone survivor who finishes after it, in which case the
            # round can only close when that upload arrives.
            elapsed = max(budget, max(times[i] for i in survivors))
        else:
            elapsed = max(times)
        return RoundPlan(
            trained=tuple(survivors),
            on_time=tuple(range(len(survivors))),
            dropped=dropped,
            elapsed_seconds=elapsed,
        )


class DropoutPolicy(RoundPolicy):
    """Per-round Bernoulli availability: offline clients skip the round.

    Failures are re-drawn every round from the context's simulation RNG
    stream, so enabling dropout never perturbs participant sampling or
    batch order. If every draw fails, the client with the luckiest draw
    stays online so the round can still aggregate.
    """

    name = "dropout"

    def plan(
        self,
        ctx: "FederatedContext",
        participants: Sequence[int],
        times: list[float],
    ) -> RoundPlan:
        draws = ctx.sim_rng.random(len(participants))
        alive = [
            i for i, d in enumerate(draws) if d >= self.config.dropout_rate
        ]
        if not alive:
            alive = [int(np.argmax(draws))]
        dropped = tuple(sorted(set(range(len(times))) - set(alive)))
        return RoundPlan(
            trained=tuple(alive),
            on_time=tuple(range(len(alive))),
            dropped=dropped,
            elapsed_seconds=max(times[i] for i in alive),
            dropped_received_broadcast=False,
        )


class BufferedAsyncPolicy(RoundPolicy):
    """Buffered asynchronous aggregation with staleness discounting.

    The server closes the round once ``ceil(async_buffer_fraction * n)``
    uploads have arrived. Every participant still trains (its update is
    in flight), but late uploads land in a buffer and join the *next*
    aggregation, one server version stale, with weight
    ``|D_k| * staleness_discount**staleness``.
    """

    name = "async"

    def __init__(self, config: "FLConfig") -> None:
        super().__init__(config)
        # (state, num_samples) of last round's late uploads.
        self._buffer: list[tuple[dict[str, np.ndarray], int]] = []

    def plan(
        self,
        ctx: "FederatedContext",
        participants: Sequence[int],
        times: list[float],
    ) -> RoundPlan:
        n = len(participants)
        k = max(1, int(np.ceil(self.config.async_buffer_fraction * n)))
        order = np.argsort(times, kind="stable")
        on_time = tuple(sorted(int(i) for i in order[:k]))
        return RoundPlan(
            trained=tuple(range(n)),
            on_time=on_time,
            dropped=(),
            elapsed_seconds=float(times[order[k - 1]]),
        )

    def fold_weights(self, counts: list[int]) -> Sequence[float]:
        fresh = np.zeros(len(counts), dtype=np.float64)
        stale = np.ones(len(self._buffer), dtype=np.float64)
        samples = np.asarray(
            list(counts) + [n for _, n in self._buffer], dtype=np.float64
        )
        staleness = np.concatenate([fresh, stale])
        return samples * self.config.staleness_discount**staleness

    def end_fold(
        self, late: list[tuple[dict[str, np.ndarray], int]]
    ) -> list[dict[str, np.ndarray]]:
        stale, self._buffer = self._buffer, list(late)
        return [state for state, _ in stale]


_POLICIES: dict[str, Callable[["FLConfig"], RoundPolicy]] = {}


def register_policy(
    name: str, factory: Callable[["FLConfig"], RoundPolicy]
) -> None:
    """Register a round-policy factory under ``name`` (case-insensitive).

    The factory is called as ``factory(config)`` with the run's
    :class:`FLConfig`; one policy instance lives per context, so
    stateful policies (the async buffer) stay run-local.
    """
    key = name.lower()
    if key in _POLICIES:
        raise ValueError(f"round policy {name!r} already registered")
    _POLICIES[key] = factory


def available_policies() -> list[str]:
    """Sorted names of registered round policies."""
    return sorted(_POLICIES)


def build_policy(name: str, config: "FLConfig") -> RoundPolicy:
    """Build a registered round policy by name."""
    key = name.lower()
    if key not in _POLICIES:
        raise KeyError(
            f"unknown round policy {name!r}; "
            f"available: {available_policies()}"
        )
    return _POLICIES[key](config)


register_policy("sync", SynchronousPolicy)
register_policy("deadline", DeadlinePolicy)
register_policy("dropout", DropoutPolicy)
register_policy("async", BufferedAsyncPolicy)
