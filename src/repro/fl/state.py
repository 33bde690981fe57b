"""Flat state extraction/installation for model exchange.

Federated rounds move parameter values (and BN buffers) between the
server and devices. These helpers convert a model to and from plain
``{name: array}`` dicts without touching masks, which travel separately
as :class:`~repro.sparse.MaskSet` objects.

:class:`FlatStateSnapshot` is the fast in-process counterpart: it
freezes a model's post-broadcast state into one contiguous float32
buffer and restores it with plain memcpys, so a serial round can reset
the shared model between clients without the per-tensor allocations of
:func:`set_state`.
"""

from __future__ import annotations

import numpy as np

from ..nn.module import Module

__all__ = [
    "FlatStateSnapshot",
    "get_parameters",
    "set_parameters",
    "get_buffers",
    "set_buffers",
    "get_state",
    "set_state",
    "state_views",
    "zeros_like_state",
]


def get_parameters(model: Module) -> dict[str, np.ndarray]:
    """Copies of all parameter values."""
    return {name: p.data.copy() for name, p in model.named_parameters()}


def set_parameters(
    model: Module,
    values: dict[str, np.ndarray],
    inplace: bool = False,
) -> None:
    """Install parameter values (strict on names and shapes).

    ``inplace`` writes through each parameter's existing storage with
    ``np.copyto`` and masks it in place — bit-identical to the copying
    path but allocation-free. Only use it on a model whose arrays the
    caller owns (the server's shared model): external references to
    ``param.data`` observe the mutation instead of keeping stale values.
    """
    params = dict(model.named_parameters())
    for name, value in values.items():
        if name not in params:
            raise KeyError(f"unknown parameter {name!r}")
        if params[name].data.shape != value.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: "
                f"{params[name].data.shape} vs {value.shape}"
            )
        param = params[name]
        if inplace:
            np.copyto(param.data, value)
            if param.mask is not None:
                np.multiply(param.data, param.mask, out=param.data)
            param.bump_version()
            continue
        converted = np.asarray(value, dtype=np.float32)
        if converted is value:
            # Already float32: asarray aliased the input, so copy once.
            # (Any dtype conversion above already allocated a fresh
            # array — copying again would move every byte twice.)
            converted = value.copy()
        param.data = converted
        param.apply_mask()


def get_buffers(model: Module) -> dict[str, np.ndarray]:
    """Copies of all registered buffers (BN running statistics)."""
    return {name: buf.copy() for name, buf in model.named_buffers()}


def set_buffers(
    model: Module,
    values: dict[str, np.ndarray],
    inplace: bool = False,
) -> None:
    """Install buffer values (strict)."""
    if inplace:
        targets = dict(model.named_buffers())
        unknown = set(values) - set(targets)
        if unknown:
            raise KeyError(f"unknown buffers: {sorted(unknown)}")
        for name, value in values.items():
            if targets[name].shape != np.shape(value):
                raise ValueError(
                    f"shape mismatch for buffer {name!r}: "
                    f"{targets[name].shape} vs {np.shape(value)}"
                )
            np.copyto(targets[name], value)
        return
    known = {name for name, _ in model.named_buffers()}
    unknown = set(values) - known
    if unknown:
        raise KeyError(f"unknown buffers: {sorted(unknown)}")
    for name, value in values.items():
        model._assign_buffer(name, value)


def get_state(model: Module) -> dict[str, np.ndarray]:
    """Parameters and buffers in one flat dict (buffer keys prefixed)."""
    state = get_parameters(model)
    for name, buf in get_buffers(model).items():
        state["buffer::" + name] = buf
    return state


def state_views(model: Module) -> dict[str, np.ndarray]:
    """:func:`get_state`'s keys over the model's own arrays (no copies).

    The views change with the model: read them before it trains again.
    """
    views = {name: p.data for name, p in model.named_parameters()}
    for name, buf in model.named_buffers():
        views["buffer::" + name] = buf
    return views


def set_state(
    model: Module,
    state: dict[str, np.ndarray],
    inplace: bool = False,
) -> None:
    """Install a dict produced by :func:`get_state`."""
    params = {k: v for k, v in state.items() if not k.startswith("buffer::")}
    buffers = {
        k[len("buffer::") :]: v
        for k, v in state.items()
        if k.startswith("buffer::")
    }
    set_parameters(model, params, inplace=inplace)
    set_buffers(model, buffers, inplace=inplace)


def zeros_like_state(state: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A zero-filled state with the same keys and shapes."""
    return {name: np.zeros_like(value) for name, value in state.items()}


class FlatStateSnapshot:
    """Contiguous capture of a model's parameters and buffers.

    ``capture`` copies every parameter's (already masked) data and every
    buffer into slices of one preallocated float32 buffer; ``restore``
    copies them back in place, bumping each :class:`Parameter`'s cache
    version. Because the captured values are the *post-mask* data, a
    restore is a pure memcpy — no mask re-application is needed — and is
    bit-identical to re-running ``masks.apply`` + :func:`set_state` with
    the same state (multiplying by a 0/1 float mask is exact).

    The flat buffer and the per-tensor views are reused across captures
    as long as the model's layout (names, shapes, array identities) is
    unchanged, so steady-state rounds allocate nothing.
    """

    def __init__(self) -> None:
        self._buffer: np.ndarray | None = None
        self._views: list[np.ndarray] = []
        self._layout: tuple | None = None

    @staticmethod
    def _sources(model: Module) -> list[tuple[np.ndarray, object]]:
        """Current (array, owning-Parameter-or-None) pairs, in order.

        Resolved fresh on every call: ``set_state`` and optimizer code
        may replace the underlying arrays between capture and restore,
        so nothing here may cache array identities.
        """
        sources: list[tuple[np.ndarray, object]] = []
        for _, param in model.named_parameters():
            sources.append((param.data, param))
        for _, buf in model.named_buffers():
            sources.append((buf, None))
        return sources

    def capture(self, model: Module) -> None:
        """Copy the model's current state into the flat buffer."""
        sources = self._sources(model)
        layout = tuple(array.shape for array, _ in sources)
        if layout != self._layout:
            total = sum(int(array.size) for array, _ in sources)
            self._buffer = np.empty(total, dtype=np.float32)
            self._views = []
            cursor = 0
            for array, _ in sources:
                view = self._buffer[cursor : cursor + int(array.size)]
                self._views.append(view.reshape(array.shape))
                cursor += int(array.size)
            self._layout = layout
        for view, (array, _) in zip(self._views, sources):
            np.copyto(view, array)

    def restore(self, model: Module) -> None:
        """Copy the captured state back into the model, in place."""
        if self._buffer is None:
            raise RuntimeError("restore() before any capture()")
        sources = self._sources(model)
        if tuple(array.shape for array, _ in sources) != self._layout:
            raise RuntimeError(
                "model layout changed since capture(); re-capture before "
                "restoring"
            )
        for view, (array, owner) in zip(self._views, sources):
            np.copyto(array, view)
            if owner is not None:
                owner.bump_version()
