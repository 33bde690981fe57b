"""Model and run checkpointing to ``.npz`` archives.

Saves parameters, masks and buffers so a pruned model (for example the
tiny specialized model FedTiny produces for deployment) can be stored,
shipped to a device, and reloaded without retraining.

The second half of the module is *run*-level: one archive per run
holding the server's global state, the mask structure, and a pickled
metadata blob (RNG stream positions, clocks, counters, recorded round
metrics) — everything a killed federated run needs to resume bit-for-
bit. The federated wiring lives in
:meth:`repro.fl.simulation.FederatedContext.save_checkpoint`; this
module only knows arrays and blobs.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .module import Module

__all__ = [
    "RunCheckpoint",
    "load_model",
    "load_run_checkpoint",
    "save_model",
    "save_run_checkpoint",
]

_MASK_SUFFIX = ".__mask__"
_BUFFER_PREFIX = "buffer::"


def save_model(model: Module, path: str | Path) -> None:
    """Write parameters, masks and buffers to a compressed ``.npz``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    for name, param in model.named_parameters():
        arrays[name] = param.data
        if param.mask is not None:
            arrays[name + _MASK_SUFFIX] = param.mask
    for name, buf in model.named_buffers():
        arrays[_BUFFER_PREFIX + name] = buf
    np.savez_compressed(path, **arrays)


def load_model(model: Module, path: str | Path) -> Module:
    """Load a checkpoint written by :func:`save_model` (strict).

    Masks present in the checkpoint are installed; parameters that were
    saved without a mask have any existing mask removed, so the loaded
    model reproduces the exact sparsity structure that was saved.
    """
    with np.load(Path(path)) as archive:
        arrays = {name: archive[name] for name in archive.files}
    params = dict(model.named_parameters())
    buffers = {name for name, _ in model.named_buffers()}

    param_keys = {
        k for k in arrays
        if not k.startswith(_BUFFER_PREFIX) and not k.endswith(_MASK_SUFFIX)
    }
    unknown = param_keys - set(params)
    if unknown:
        raise KeyError(f"checkpoint has unknown parameters: {sorted(unknown)}")
    missing = set(params) - param_keys
    if missing:
        raise KeyError(f"checkpoint is missing parameters: {sorted(missing)}")

    for name in param_keys:
        value = arrays[name]
        if params[name].data.shape != value.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: "
                f"{params[name].data.shape} vs {value.shape}"
            )
        params[name].data = value.astype(np.float32).copy()
        mask_key = name + _MASK_SUFFIX
        if mask_key in arrays:
            params[name].set_mask(arrays[mask_key])
            params[name].apply_mask()
        else:
            params[name].set_mask(None)

    for key in arrays:
        if key.startswith(_BUFFER_PREFIX):
            name = key[len(_BUFFER_PREFIX):]
            if name not in buffers:
                raise KeyError(f"checkpoint has unknown buffer {name!r}")
            model._assign_buffer(name, arrays[key])
    return model


# ----------------------------------------------------------------------
# Run-level checkpoints (crash-resumable federated runs)
# ----------------------------------------------------------------------
_STATE_PREFIX = "state::"
_RUN_MASK_PREFIX = "mask::"
_META_KEY = "__run_meta__"


@dataclass
class RunCheckpoint:
    """One resumable snapshot of a federated run.

    ``state`` is the server's committed global state (parameters plus
    ``buffer::``-prefixed buffers), ``masks`` the boolean mask arrays
    by layer name, and ``meta`` the pickled everything-else: RNG stream
    positions, simulated clock, comm counters, recorded rounds, and the
    method's own cross-round state. The metadata blob is pickled —
    same-trust local files only, exactly like the payload codec's spec
    header.
    """

    round_index: int
    state: dict[str, np.ndarray]
    masks: dict[str, np.ndarray]
    meta: dict


def save_run_checkpoint(
    path: str | Path,
    state: dict[str, np.ndarray],
    masks: dict[str, np.ndarray],
    meta: dict,
) -> None:
    """Atomically and durably write one run snapshot to a compressed
    ``.npz``.

    The archive is written to a sibling temp file, fsync'd, and moved
    into place with :func:`os.replace`, so a run killed *during*
    checkpointing leaves the previous checkpoint intact instead of a
    torn file, and a power cut after the rename cannot leave an empty
    one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if "round_index" not in meta:
        raise ValueError("run-checkpoint meta needs a 'round_index'")
    arrays: dict[str, np.ndarray] = {
        _STATE_PREFIX + name: value for name, value in state.items()
    }
    for name, mask in masks.items():
        arrays[_RUN_MASK_PREFIX + name] = np.asarray(mask, dtype=bool)
    arrays[_META_KEY] = np.frombuffer(
        pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL),
        dtype=np.uint8,
    )
    tmp = path.with_name(path.name + ".tmp.npz")
    with tmp.open("wb") as handle:
        np.savez_compressed(handle, **arrays)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_run_checkpoint(path: str | Path) -> RunCheckpoint:
    """Load a snapshot written by :func:`save_run_checkpoint`."""
    with np.load(Path(path)) as archive:
        arrays = {name: archive[name] for name in archive.files}
    if _META_KEY not in arrays:
        raise KeyError(f"{path} is not a run checkpoint (no metadata)")
    meta = pickle.loads(arrays.pop(_META_KEY).tobytes())
    state = {
        name[len(_STATE_PREFIX):]: value
        for name, value in arrays.items()
        if name.startswith(_STATE_PREFIX)
    }
    masks = {
        name[len(_RUN_MASK_PREFIX):]: value
        for name, value in arrays.items()
        if name.startswith(_RUN_MASK_PREFIX)
    }
    return RunCheckpoint(
        round_index=int(meta["round_index"]),
        state=state,
        masks=masks,
        meta=meta,
    )
