"""The uniform lifecycle every federated pruning method follows.

:class:`FederatedMethod` owns the shared round loop that used to be
duplicated across the baselines and FedTiny. A method customizes four
hooks:

- :meth:`setup` — one-off server-side preparation before round 1
  (pretraining on the public dataset, initial mask installation,
  candidate selection, ...);
- :meth:`train_round` — produce the round's uploaded client states;
  the default runs a plain FedAvg round through the context's
  execution backend, methods that replace the round itself (FedDST's
  train/adjust/fine-tune round) override it;
- :meth:`round_hook` — post-aggregation mask adjustment; returns any
  extra per-device FLOPs the method spent that round. Hooks that need
  to know which devices were dropped by the round policy (straggler
  cut-off, offline clients) or uploaded late read
  ``self.ctx.last_round_info`` (a :class:`~repro.fl.policies.RoundInfo`);
- :meth:`finalize` — final cost accounting on the run record.

``run`` ties them together and is what callers invoke; the attribute
``self.ctx`` holds the active context for the duration of a run so
hooks with the uniform ``(round_index, states)`` signature can still
reach the server and clients.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from ..metrics.flops import training_flops_per_sample
from ..metrics.memory import device_memory_footprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.dataset import Dataset
    from ..fl.simulation import FederatedContext
    from ..metrics.tracker import RunResult

__all__ = ["FederatedMethod"]


class FederatedMethod(abc.ABC):
    """Base class for FedTiny, its ablations, and every baseline."""

    method_name: str = "method"
    target_density: float = 1.0
    #: Whether :meth:`round_hook` reads the per-client uploaded states.
    #: This also decides whether the round copies uploads: with
    #: ``False`` each upload folds straight into the server's FedAvg
    #: fold and is dropped (a view of the live model, or a packed
    #: payload folded without a dense decode); with ``True`` every
    #: aggregated upload is also kept as a dense state for the hook.
    needs_round_states: bool = True

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def setup(
        self, ctx: "FederatedContext", public_data: "Dataset"
    ) -> None:
        """One-off preparation before the first federated round."""

    def train_round(
        self, ctx: "FederatedContext", round_index: int
    ) -> list[dict[str, np.ndarray]]:
        """Produce this round's uploaded client states (post-aggregation)."""
        return ctx.run_fedavg_round(need_states=self.needs_round_states)

    def round_hook(
        self, round_index: int, states: list[dict[str, np.ndarray]]
    ) -> float:
        """Adjust masks after aggregation; returns extra per-device FLOPs.

        ``states`` holds the uploads aggregated this round, aligned with
        ``self.ctx.last_participants``; ``self.ctx.last_round_info``
        reports dropped/late devices and the round's simulated seconds.
        """
        del round_index, states
        return 0.0

    def finalize(
        self, result: "RunResult", ctx: "FederatedContext"
    ) -> None:
        """Record final cost accounting on the run record."""
        result.memory_footprint_bytes = device_memory_footprint(
            ctx.model, ctx.server.masks
        ).total_bytes

    def checkpoint_state(self) -> dict:
        """The method's cross-round mutable state, for run checkpoints.

        Methods whose behavior depends on state that evolves across
        rounds *outside* the server (progressive-pruning counters,
        adaptation budgets, ...) must return it here and install it in
        :meth:`restore_checkpoint_state`, or a resumed run will not be
        bit-for-bit. Stateless methods inherit the empty default.
        """
        return {}

    def restore_checkpoint_state(self, state: dict) -> None:
        """Install :meth:`checkpoint_state` output on resume."""
        del state

    # ------------------------------------------------------------------
    # The shared round loop
    # ------------------------------------------------------------------
    def run(
        self, ctx: "FederatedContext", public_data: "Dataset"
    ) -> "RunResult":
        """Execute the full method lifecycle and return its run record."""
        self.ctx = ctx
        try:
            result = ctx.new_result(self.method_name, self.target_density)
            self.setup(ctx, public_data)
            # Resume after setup: setup re-derives the deterministic
            # prefix (pretraining, selection, initial masks) and the
            # checkpoint then overwrites every piece of state it
            # touched, so the restored run is bit-for-bit regardless of
            # what setup consumed.
            start_round = 1
            ckpt_path = ctx.checkpoint_path(self.method_name)
            if ckpt_path is not None and ctx.config.resume:
                resumed = ctx.try_resume(ckpt_path, result)
                if resumed is not None:
                    start_round, method_state = resumed
                    self.restore_checkpoint_state(method_state)
            max_samples = max(ctx.sample_counts)
            for round_index in range(start_round, ctx.config.rounds + 1):
                # Charged at the pre-adjustment density: the hook may
                # change the masks, but this round trained under the
                # current ones.
                base_flops = (
                    training_flops_per_sample(ctx.profile, ctx.server.masks)
                    * ctx.config.local_epochs
                    * max_samples
                )
                states = self.train_round(ctx, round_index)
                extra_flops = self.round_hook(round_index, states)
                ctx.record_round(
                    result, round_index, base_flops + extra_flops
                )
                if ckpt_path is not None and (
                    round_index % ctx.config.checkpoint_every == 0
                    or round_index == ctx.config.rounds
                ):
                    ctx.save_checkpoint(
                        ckpt_path, result, round_index,
                        self.checkpoint_state(),
                    )
            self.finalize(result, ctx)
            return result
        finally:
            # Don't keep the context (model, server state, every client
            # shard) alive through a surviving method object.
            self.ctx = None
