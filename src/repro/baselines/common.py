"""Shared plumbing for baseline methods."""

from __future__ import annotations

from ..data.dataset import Dataset
from ..fl.simulation import FederatedContext
from ..fl.state import get_state
from ..fl.training import server_pretrain
from ..metrics.memory import device_memory_footprint
from ..metrics.tracker import RunResult

__all__ = ["pretrain_on_server", "finalize_memory"]


def pretrain_on_server(
    ctx: FederatedContext, public_data: Dataset, epochs: int
) -> None:
    """Pretrain the global model on the public one-shot dataset D_s."""
    server_pretrain(
        ctx.model,
        public_data,
        epochs=epochs,
        batch_size=ctx.config.batch_size,
        lr=ctx.config.lr,
        seed=ctx.config.seed,
    )
    ctx.server.commit_state(get_state(ctx.model))


def finalize_memory(
    result: RunResult,
    ctx: FederatedContext,
    dense_importance_scores: bool = False,
    per_layer_dense_grad: bool = False,
    topk_buffer_entries: int = 0,
) -> None:
    """Record the method's device memory footprint on the result."""
    footprint = device_memory_footprint(
        ctx.model,
        ctx.server.masks,
        dense_importance_scores=dense_importance_scores,
        per_layer_dense_grad=per_layer_dense_grad,
        topk_buffer_entries=topk_buffer_entries,
    )
    result.memory_footprint_bytes = footprint.total_bytes
