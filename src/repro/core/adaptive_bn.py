"""Adaptive batch-normalization selection (paper Algorithm 1).

The server holds a pool of coarse-pruned candidate structures. Devices
recalibrate each candidate's BN statistics on their local development
data (a cheap stats-only forward pass — no training), the server
aggregates the statistics sample-weighted (Eq. 4), devices then score
the recalibrated candidates by local loss, and the server keeps the
candidate with the lowest weighted loss.

``use_bn_recalibration=False`` gives the *vanilla selection* baseline of
the paper's ablation (Fig. 4): devices score the raw candidates without
the BN update, which is exactly the pre-fine-tuning selection that the
paper shows picks biased structures.

:meth:`AdaptiveBNSelection.select` runs the protocol through the fast
execution engine (:mod:`repro.core.selection_engine`): candidates are
installed once per candidate instead of once per (candidate, client)
pair, dev-batch lowerings are memoized across candidates, and the
per-client sweeps run through the context's pluggable executor. The
original nested loop is kept as :meth:`select_reference` — the fast
path is bit-identical to it in every report field, which the
equivalence suite asserts.

Selection traffic is accounted by direction: candidate masks and
aggregated statistics are *downloads*, per-device BN statistics and
scalar losses are *uploads*, both recorded under the ``"selection"``
phase of the context's :class:`~repro.fl.comm.CommTracker`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fl.aggregation import aggregate_bn_statistics, normalized_weights
from ..fl.bn import bn_layers, set_bn_statistics
from ..fl.simulation import FederatedContext
from ..metrics.flops import forward_flops
from ..pruning.candidate_pool import Candidate
from ..sparse.storage import mask_set_bytes

__all__ = ["SelectionReport", "AdaptiveBNSelection"]

_LOSS_SCALAR_BYTES = 4


@dataclass
class SelectionReport:
    """Cost and outcome bookkeeping of one selection pass."""

    selected_index: int
    candidate_losses: list[float]
    comm_bytes: int = 0
    download_bytes: int = 0
    upload_bytes: int = 0
    flops_per_device: float = 0.0
    pool_size: int = 0
    used_bn_recalibration: bool = True
    metadata: dict = field(default_factory=dict)


class AdaptiveBNSelection:
    """Selects the least-biased coarse-pruned candidate (Algorithm 1)."""

    def __init__(
        self,
        use_bn_recalibration: bool = True,
        batch_size: int = 64,
    ) -> None:
        self.use_bn_recalibration = use_bn_recalibration
        self.batch_size = batch_size

    def select(
        self, ctx: FederatedContext, candidates: list[Candidate]
    ) -> tuple[Candidate, SelectionReport]:
        """Run the full device/server selection protocol."""
        if not candidates:
            raise ValueError("candidate pool is empty")
        from .selection_engine import run_fast_selection

        return run_fast_selection(self, ctx, candidates)

    def select_reference(
        self, ctx: FederatedContext, candidates: list[Candidate]
    ) -> tuple[Candidate, SelectionReport]:
        """The reference per-(candidate, client) protocol loop.

        Kept as the bit-identity oracle for the fast path (and as the
        pre-change baseline the candidate-selection benchmark measures
        against).
        """
        if not candidates:
            raise ValueError("candidate pool is empty")
        dev_counts = [client.num_dev_samples for client in ctx.clients]
        weights = normalized_weights(dev_counts)
        bn_param_count = sum(
            layer.num_features for _, layer in bn_layers(ctx.model)
        )
        download_bytes = 0
        upload_bytes = 0
        flops_per_device = 0.0

        aggregated_stats = []
        if self.use_bn_recalibration:
            for candidate in candidates:
                # Devices fetch the candidate (sparse) and report local
                # BN statistics from stats-only forward passes.
                candidate_bytes = mask_set_bytes(candidate.masks)
                per_client_stats = []
                for client in ctx.clients:
                    self._install_candidate(ctx, candidate)
                    per_client_stats.append(
                        client.recalibrate_bn(ctx.model, self.batch_size)
                    )
                    download_bytes += candidate_bytes
                    upload_bytes += 2 * bn_param_count * 4  # mean+var
                aggregated_stats.append(
                    aggregate_bn_statistics(per_client_stats, dev_counts)
                )
                flops_per_device += self._stats_pass_flops(ctx, candidate)
        else:
            aggregated_stats = [None] * len(candidates)
            download_bytes += (
                sum(mask_set_bytes(c.masks) for c in candidates)
                * len(ctx.clients)
            )

        candidate_losses = []
        for candidate, stats in zip(candidates, aggregated_stats):
            losses = []
            for client in ctx.clients:
                self._install_candidate(ctx, candidate)
                if stats is not None:
                    set_bn_statistics(ctx.model, stats)
                    download_bytes += 2 * bn_param_count * 4  # stats
                losses.append(
                    client.evaluate_candidate_loss(ctx.model, self.batch_size)
                )
                upload_bytes += _LOSS_SCALAR_BYTES  # scalar loss
            candidate_losses.append(float(np.dot(weights, losses)))
            flops_per_device += self._stats_pass_flops(ctx, candidate)

        selected_index = int(np.argmin(candidate_losses))
        ctx.comm.record_download(download_bytes, phase="selection")
        ctx.comm.record_upload(upload_bytes, phase="selection")
        report = SelectionReport(
            selected_index=selected_index,
            candidate_losses=candidate_losses,
            comm_bytes=download_bytes + upload_bytes,
            download_bytes=download_bytes,
            upload_bytes=upload_bytes,
            flops_per_device=flops_per_device,
            pool_size=len(candidates),
            used_bn_recalibration=self.use_bn_recalibration,
            metadata={"engine": "reference"},
        )
        # Leave the model in its server state (selection must not leak
        # candidate masks or statistics into the global model).
        ctx.server.load_into_model()
        return candidates[selected_index], report

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _install_candidate(
        self, ctx: FederatedContext, candidate: Candidate
    ) -> None:
        """Load global weights and overlay the candidate's mask."""
        ctx.server.masks.apply(ctx.model)  # restore dense/base masks first
        from ..fl.state import set_state  # local import to avoid cycle

        set_state(ctx.model, ctx.server.state)
        candidate.masks.apply(ctx.model)

    def _stats_pass_flops(
        self, ctx: FederatedContext, candidate: Candidate
    ) -> float:
        """FLOPs of one dev-dataset forward sweep for one candidate."""
        per_sample = forward_flops(ctx.profile, candidate.masks)
        mean_dev = float(
            np.mean([client.num_dev_samples for client in ctx.clients])
        )
        return per_sample * mean_dev
