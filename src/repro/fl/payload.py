"""Sparse round-transport codec for federated state exchange.

Every round the server broadcasts the global state and each device
uploads its locally-trained state. Shipping those as ``{name: array}``
dicts (or pickled models) moves *dense* bytes regardless of how pruned
the model is. This codec packs a state dict against the server's
:class:`~repro.sparse.mask.MaskSet` into one contiguous byte buffer so
the bytes actually moved scale with the active-parameter count:

- masked tensors are stored COO-style — int32 flat indices followed by
  float32 values of the *active* entries — exactly the 8-bytes-per-active
  layout :mod:`repro.sparse.storage` has always charged for;
- when a tensor is dense enough that COO would cost more than plain
  float32 (the ``storage.py`` crossover at 50% density), it falls back
  to dense encoding, again matching the accounting model;
- unmasked parameters (biases, BN affine terms) and buffers (BN running
  statistics) are always dense.

``PackedPayload.nbytes`` is therefore the *measured* transfer size and
equals :func:`packed_nbytes`, which reproduces the
:func:`repro.sparse.storage.sparse_bytes` prediction tensor by tensor —
the reconciliation the communication tracker relies on.

Round-trips are bit-exact at every active position. Pruned positions
are canonicalized to ``+0.0`` on unpack (the arithmetic path
``data * mask`` can leave ``-0.0`` there; the two compare equal
everywhere).

The wire form is a fixed header (magic, version, a flags byte that must
be zero, section lengths), the pickled spec table, then the buffer.
:meth:`PackedPayload.from_bytes` rejects anything else with
:class:`PayloadFormatError`, so the server's ingest can quarantine
malformed uploads before they reach the aggregation.

:class:`ModelBinding` is the one persistent packer: it binds a spec
layout to a model once and then restores or packs that model with
tight per-tensor copies. The master packs every worker broadcast
through one, and each executor worker restores the broadcast and packs
its upload through its own. :func:`pack_state` packs a plain state dict
once.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass

import numpy as np

from ..nn.module import Module
from ..sparse.mask import MaskSet
from ..sparse.storage import INDEX_BYTES, VALUE_BYTES, dense_bytes, \
    sparse_bytes, sparse_is_cheaper

__all__ = [
    "PayloadFormatError",
    "TensorSpec",
    "PackedPayload",
    "ModelBinding",
    "build_mask_indices",
    "pack_state",
    "pack_model_state",
    "unpack_state",
    "unpack_into_model",
    "packed_nbytes",
]

_MAGIC = b"RPAY"
_VERSION = 1
_HEADER = struct.Struct("<4sBBxxQQ")  # magic, version, flags, header, body


def _align8(n: int) -> int:
    """Segments start 8-aligned so typed views stay aligned in shm."""
    return (n + 7) & ~7

#: Keys produced for registered buffers, matching ``fl.state.get_state``.
BUFFER_PREFIX = "buffer::"


class PayloadFormatError(ValueError):
    """A payload failed structural validation (malformed or corrupt)."""


@dataclass(frozen=True)
class TensorSpec:
    """Layout of one tensor inside a packed buffer."""

    name: str
    shape: tuple[int, ...]
    encoding: str  # "dense" | "sparse"
    offset: int  # byte offset of this tensor's segment
    num_active: int  # == size for dense tensors

    @property
    def size(self) -> int:
        size = 1
        for dim in self.shape:
            size *= int(dim)
        return size

    @property
    def nbytes(self) -> int:
        if self.encoding == "sparse":
            return self.num_active * (VALUE_BYTES + INDEX_BYTES)
        return dense_bytes(self.size)


class PackedPayload:
    """A state dict packed into one contiguous byte buffer."""

    def __init__(
        self, specs: tuple[TensorSpec, ...], buffer: np.ndarray
    ) -> None:
        self.specs = tuple(specs)
        self.buffer = np.ascontiguousarray(buffer, dtype=np.uint8)
        self._header_cache: bytes | None = None

    @property
    def nbytes(self) -> int:
        """Measured payload size: exactly the bytes in the buffer."""
        return int(self.buffer.nbytes)

    # ------------------------------------------------------------------
    # Typed views into the buffer (zero-copy)
    # ------------------------------------------------------------------
    def indices_view(self, spec: TensorSpec) -> np.ndarray:
        if spec.encoding != "sparse":
            raise ValueError(f"{spec.name!r} is dense; it has no indices")
        return np.frombuffer(
            self.buffer,
            dtype=np.int32,
            count=spec.num_active,
            offset=spec.offset,
        )

    def values_view(self, spec: TensorSpec) -> np.ndarray:
        offset = spec.offset
        if spec.encoding == "sparse":
            offset += spec.num_active * INDEX_BYTES
        return np.frombuffer(
            self.buffer,
            dtype=np.float32,
            count=spec.num_active,
            offset=offset,
        )

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def _header_bytes(self) -> bytes:
        if self._header_cache is None:
            self._header_cache = pickle.dumps(
                [
                    (s.name, s.shape, s.encoding, s.offset, s.num_active)
                    for s in self.specs
                ],
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        return self._header_cache

    def write_into(self, target, offset: int = 0) -> int:
        """Write the wire form into a writable buffer; returns its length.

        This is the shared-memory broadcast path: one copy of the packed
        values lands directly in the destination segment, with no
        intermediate ``bytes`` materialization.
        """
        header = self._header_bytes()
        header_span = _align8(len(header))
        total = _HEADER.size + header_span + self.nbytes
        view = memoryview(target)
        _HEADER.pack_into(
            view, offset, _MAGIC, _VERSION, 0, len(header), self.nbytes
        )
        cursor = offset + _HEADER.size
        view[cursor : cursor + len(header)] = header
        cursor = offset + _HEADER.size + header_span
        view[cursor : cursor + self.nbytes] = memoryview(self.buffer.data)
        return total

    @property
    def wire_nbytes(self) -> int:
        """Exact length :meth:`write_into` will produce."""
        return _HEADER.size + _align8(len(self._header_bytes())) + self.nbytes

    def to_wire(self) -> bytearray:
        """Wire form as a fresh ``bytearray`` (one copy of the values)."""
        out = bytearray(self.wire_nbytes)
        self.write_into(out)
        return out

    def to_bytes(self) -> bytes:
        """Self-describing wire form: fixed header + specs + buffer."""
        return bytes(self.to_wire())

    @classmethod
    def from_bytes(
        cls,
        data: bytes | bytearray | memoryview,
        copy: bool = True,
        validate: bool = True,
        spec_cache: dict | None = None,
    ) -> "PackedPayload":
        """Parse the wire form back into a payload.

        ``copy=False`` keeps the buffer as a zero-copy view into
        ``data`` — the caller must keep the backing memory (e.g. a
        shared-memory segment) alive for the payload's lifetime.
        ``validate=False`` skips the structural audit for payloads from
        a trusted same-run producer (executor workers); anything read
        from outside the process should keep it on. ``spec_cache`` maps
        raw header bytes to already-parsed spec tuples, so a server
        parsing one upload per client per round deserializes each mask
        epoch's layout once.
        """
        data = memoryview(data)
        if len(data) < _HEADER.size:
            raise PayloadFormatError("payload shorter than its header")
        magic, version, flags, header_len, body_len = _HEADER.unpack_from(
            data
        )
        if magic != _MAGIC:
            raise PayloadFormatError(f"bad payload magic {magic!r}")
        if version != _VERSION:
            raise PayloadFormatError(f"unsupported payload version {version}")
        if flags:
            raise PayloadFormatError(f"unknown payload flags {flags:#04x}")
        body_start = _HEADER.size + _align8(header_len)
        end = body_start + body_len
        if end > len(data):
            raise PayloadFormatError(
                f"payload truncated: header promises {end} bytes, "
                f"got {len(data)}"
            )
        header = bytes(data[_HEADER.size : _HEADER.size + header_len])
        specs = (
            spec_cache.get(header) if spec_cache is not None else None
        )
        if specs is None:
            # The spec table is pickled: parsing is only *robust* (not
            # safe) against corruption — a malformed header surfaces as
            # PayloadFormatError, but a deliberately crafted pickle can
            # execute code, so this wire format is for same-trust
            # producers (the run's own workers/arena), never for
            # untrusted network input.
            try:
                specs = tuple(
                    TensorSpec(
                        str(name), tuple(map(int, shape)), str(encoding),
                        int(offset), int(active),
                    )
                    for name, shape, encoding, offset, active
                    in pickle.loads(header)
                )
            except PayloadFormatError:
                raise
            except Exception as exc:
                raise PayloadFormatError(
                    f"unparseable payload spec header: {exc}"
                ) from exc
            if spec_cache is not None:
                spec_cache[header] = specs
        buffer = np.frombuffer(
            data, dtype=np.uint8, count=body_len, offset=body_start
        )
        if copy:
            buffer = buffer.copy()
        payload = cls(specs, buffer)
        if validate:
            payload.validate()
        return payload

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`PayloadFormatError` on any structural defect.

        Checks segment bounds (offset overflow), spec/shape consistency,
        and sparse index sanity (sorted, unique, in range) so a corrupt
        payload fails loudly instead of scribbling over model state.
        """
        seen: set[str] = set()
        cursor = 0
        for spec in self.specs:
            if spec.name in seen:
                raise PayloadFormatError(f"duplicate tensor {spec.name!r}")
            seen.add(spec.name)
            if spec.encoding not in ("dense", "sparse"):
                raise PayloadFormatError(
                    f"{spec.name!r}: unknown encoding {spec.encoding!r}"
                )
            if spec.num_active < 0 or spec.num_active > spec.size:
                raise PayloadFormatError(
                    f"{spec.name!r}: num_active={spec.num_active} outside "
                    f"[0, {spec.size}]"
                )
            if spec.encoding == "dense" and spec.num_active != spec.size:
                raise PayloadFormatError(
                    f"{spec.name!r}: dense tensor must have "
                    f"num_active == size"
                )
            if spec.offset != cursor:
                raise PayloadFormatError(
                    f"{spec.name!r}: segment offset {spec.offset} does not "
                    f"follow the previous segment (expected {cursor})"
                )
            cursor += spec.nbytes
            if cursor > self.nbytes:
                raise PayloadFormatError(
                    f"{spec.name!r}: segment overflows the buffer "
                    f"({cursor} > {self.nbytes})"
                )
            if spec.encoding == "sparse" and spec.num_active:
                idx = self.indices_view(spec)
                if int(idx[0]) < 0 or int(idx[-1]) >= spec.size:
                    raise PayloadFormatError(
                        f"{spec.name!r}: sparse index out of range "
                        f"for size {spec.size}"
                    )
                if idx.size > 1 and not (np.diff(idx) > 0).all():
                    raise PayloadFormatError(
                        f"{spec.name!r}: sparse indices must be strictly "
                        f"increasing"
                    )
        if cursor != self.nbytes:
            raise PayloadFormatError(
                f"buffer holds {self.nbytes} bytes but specs describe "
                f"{cursor}"
            )


# ----------------------------------------------------------------------
# Spec planning
# ----------------------------------------------------------------------
def _choose_encoding(num_active: int, size: int) -> str:
    """Sparse iff COO is strictly cheaper — the ``storage.py`` crossover."""
    return "sparse" if sparse_is_cheaper(num_active, size) else "dense"


def build_mask_indices(masks: MaskSet) -> dict[str, np.ndarray]:
    """Per-layer int32 flat indices of the active entries.

    Executors cache this per mask epoch so packing a round's payloads
    gathers through precomputed indices instead of re-scanning masks.
    """
    return {
        name: np.flatnonzero(np.asarray(mask).reshape(-1)).astype(np.int32)
        for name, mask in masks.items()
    }


def _plan(
    entries: list[tuple[str, tuple[int, ...], int | None]],
) -> tuple[tuple[TensorSpec, ...], int]:
    """Specs + total bytes for ``(name, shape, num_active_or_None)``."""
    specs = []
    offset = 0
    for name, shape, num_active in entries:
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if num_active is None:
            encoding, active = "dense", size
        else:
            encoding = _choose_encoding(num_active, size)
            active = num_active if encoding == "sparse" else size
        spec = TensorSpec(name, tuple(shape), encoding, offset, active)
        specs.append(spec)
        offset += spec.nbytes
    return tuple(specs), offset


def packed_nbytes(model: Module, masks: MaskSet) -> int:
    """Predicted payload size for ``model``'s state under ``masks``.

    Reconciles exactly with :func:`repro.sparse.storage.sparse_bytes`:
    masked tensors cost ``min(8 * active, 4 * size)`` and everything
    else is dense float32, so the value doubles as the communication
    tracker's per-exchange byte count.
    """
    total = 0
    for name, param in model.named_parameters():
        if name in masks:
            total += sparse_bytes(masks.layer_active(name), param.size)
        else:
            total += dense_bytes(param.size)
    for _, buf in model.named_buffers():
        total += dense_bytes(int(buf.size))
    return total


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------
def _write_segment(
    buffer: np.ndarray,
    spec: TensorSpec,
    flat: np.ndarray,
    idx: np.ndarray | None,
) -> None:
    """Fill one tensor's segment from its flat float32 source array."""
    offset = spec.offset
    if spec.encoding == "sparse":
        idx_view = np.frombuffer(
            buffer, dtype=np.int32, count=spec.num_active, offset=offset
        )
        np.copyto(idx_view, idx)
        offset += spec.num_active * INDEX_BYTES
    values = np.frombuffer(
        buffer, dtype=np.float32, count=spec.num_active, offset=offset
    )
    if spec.encoding == "sparse":
        np.take(flat, idx, out=values)
    else:
        np.copyto(values, flat)


def pack_state(
    state: dict[str, np.ndarray],
    masks: MaskSet,
    indices: dict[str, np.ndarray] | None = None,
) -> PackedPayload:
    """Pack a flat state dict against the server mask structure.

    ``indices`` supplies precomputed active-index arrays (see
    :func:`build_mask_indices`).
    """
    specs, total = _plan([
        (name, tuple(value.shape),
         masks.layer_active(name) if name in masks else None)
        for name, value in state.items()
    ])
    buffer = np.empty(total, dtype=np.uint8)
    for spec, value in zip(specs, state.values()):
        flat = np.ascontiguousarray(value, dtype=np.float32).reshape(-1)
        idx = None
        if spec.encoding == "sparse":
            if indices is not None and spec.name in indices:
                idx = indices[spec.name]
            else:
                idx = np.flatnonzero(
                    np.asarray(masks[spec.name]).reshape(-1)
                ).astype(np.int32)
        _write_segment(buffer, spec, flat, idx)
    return PackedPayload(specs, buffer)


def pack_model_state(
    model: Module,
    masks: MaskSet,
    indices: dict[str, np.ndarray] | None = None,
) -> PackedPayload:
    """Pack a model's parameters and buffers without a dict round-trip.

    Produces the same keys :func:`repro.fl.state.get_state` would
    (buffers prefixed with ``buffer::``), gathering straight from
    ``Parameter.data`` through a one-off :class:`ModelBinding`.
    """
    if indices is None:
        indices = build_mask_indices(masks)
    return ModelBinding.for_masks(model, masks).pack(indices=indices)


# ----------------------------------------------------------------------
# Unpacking
# ----------------------------------------------------------------------
def _decode_values(
    payload: PackedPayload, spec: TensorSpec
) -> tuple[np.ndarray, np.ndarray | None]:
    """(float32 values, indices-or-None) views for one tensor."""
    values = payload.values_view(spec)
    idx = payload.indices_view(spec) if spec.encoding == "sparse" else None
    return values, idx


def unpack_state(
    payload: PackedPayload, validate: bool = True
) -> dict[str, np.ndarray]:
    """Reconstruct the flat state dict a payload was packed from.

    Bit-exact at active positions; pruned positions come back as
    ``+0.0``.
    """
    if validate:
        payload.validate()
    state: dict[str, np.ndarray] = {}
    for spec in payload.specs:
        values, idx = _decode_values(payload, spec)
        if idx is None:
            state[spec.name] = values.reshape(spec.shape).copy()
        else:
            out = np.zeros(spec.size, dtype=np.float32)
            out[idx] = values
            state[spec.name] = out.reshape(spec.shape)
    return state


class ModelBinding:
    """Resolved pack/restore targets for one spec layout on one model.

    Executors restore and re-pack the same model against the same spec
    layout many times per round (the master once per broadcast, each
    worker once per task); resolving parameter and buffer targets
    through the module tree on every call would dominate the transport
    time for small models. A binding walks the tree once, checks every
    shape once, and then moves values through tight per-spec loops.

    Parameter storage is re-read through ``Parameter.data`` at call time
    (mask application replaces the underlying arrays), and buffers
    through their owning module attribute.
    """

    def __init__(
        self, model: Module, specs: tuple[TensorSpec, ...]
    ) -> None:
        self.model = model
        self.specs = specs
        params = dict(model.named_parameters())
        self._entries: list[tuple[TensorSpec, object, object]] = []
        # Per-payload decoded views (restore) and the persistent pack
        # buffer with its prebuilt segment views — the executor restores
        # and re-packs the same layout once per client per round, so
        # per-tensor view construction must happen once, not every call.
        self._prepared_payload: PackedPayload | None = None
        self._prepared: list | None = None
        self._pack_payload: PackedPayload | None = None
        self._pack_views: list | None = None
        self._pack_indices: object = None
        total = 0
        for spec in specs:
            if spec.name.startswith(BUFFER_PREFIX):
                name = spec.name[len(BUFFER_PREFIX) :]
                parts = name.split(".")
                module = model
                try:
                    for part in parts[:-1]:
                        module = module._children[part]
                    target = getattr(module, parts[-1])
                except (KeyError, AttributeError):
                    raise PayloadFormatError(f"unknown buffer {name!r}")
                if parts[-1] not in module._buffers:
                    raise PayloadFormatError(f"unknown buffer {name!r}")
                entry = (spec, module, parts[-1])
            elif spec.name in params:
                param = params[spec.name]
                target = param.data
                entry = (spec, param, None)
            else:
                raise PayloadFormatError(
                    f"unknown parameter {spec.name!r}"
                )
            if tuple(target.shape) != spec.shape:
                raise PayloadFormatError(
                    f"shape mismatch for {spec.name!r}: payload "
                    f"{spec.shape} vs model {tuple(target.shape)}"
                )
            self._entries.append(entry)
            total += spec.nbytes
        self.nbytes = total

    @classmethod
    def for_masks(cls, model: Module, masks: MaskSet) -> "ModelBinding":
        """A binding for the layout that packs ``model`` under ``masks``."""
        entries = [
            (name, param.shape,
             masks.layer_active(name) if name in masks else None)
            for name, param in model.named_parameters()
        ]
        entries += [
            (BUFFER_PREFIX + name, tuple(buf.shape), None)
            for name, buf in model.named_buffers()
        ]
        return cls(model, _plan(entries)[0])

    @staticmethod
    def _target(owner, attr) -> np.ndarray:
        if attr is None:
            return owner.data
        return getattr(owner, attr)

    def release(self) -> None:
        """Drop cached views into the last payload's backing memory.

        Required before closing a shared-memory segment the last
        restored payload was mapped from — exported views keep the
        mapping alive (and ``SharedMemory.close`` refuses while they
        exist).
        """
        self._prepared_payload = None
        self._prepared = None

    def _prepare(self, payload: PackedPayload) -> list:
        """Decoded (values, idx) views per entry, cached per payload."""
        if self._prepared_payload is payload:
            return self._prepared
        if payload.specs is not self.specs and payload.specs != self.specs:
            raise PayloadFormatError(
                "payload spec layout does not match this binding"
            )
        prepared = []
        for spec, owner, attr in self._entries:
            values, idx = _decode_values(payload, spec)
            prepared.append((values, idx, owner, attr))
        self._prepared = prepared
        self._prepared_payload = payload
        return prepared

    def restore(
        self, payload: PackedPayload, assume_masked: bool = False
    ) -> None:
        """Install a payload into the bound model, in place.

        ``assume_masked`` skips the dense zero-fill before scattering a
        sparse tensor — valid whenever the model's pruned positions are
        already exactly zero (true right after ``masks.apply`` and
        preserved by masked local SGD), which turns the per-client
        restore from O(model) writes into O(active).
        """
        for values, idx, owner, attr in self._prepare(payload):
            flat = self._target(owner, attr).reshape(-1)
            if idx is None:
                np.copyto(flat, values)
            else:
                if not assume_masked:
                    flat.fill(0.0)
                flat[idx] = values
            if attr is None:
                owner.bump_version()

    def pack(
        self, indices: dict[str, np.ndarray] | None = None
    ) -> PackedPayload:
        """Pack the bound model's current values into a payload.

        Reuses the binding's spec layout (no re-planning) so the upload
        of a round is guaranteed spec-compatible with its broadcast, and
        reuses one persistent buffer: the sparse index segments are
        written once (they only change with the mask epoch, when the
        executor rebuilds the binding) and later packs only refresh the
        value segments. The returned payload's buffer is therefore
        **invalidated by the next** ``pack()`` **call** — serialize it
        (``to_wire``) before packing again.
        """
        if self._pack_payload is None or self._pack_indices is not indices:
            buffer = np.empty(self.nbytes, dtype=np.uint8)
            views = []
            for spec, owner, attr in self._entries:
                idx = None
                if spec.encoding == "sparse":
                    if indices is None or spec.name not in indices:
                        raise ValueError(
                            f"packing {spec.name!r} needs its "
                            f"active-index array (see build_mask_indices)"
                        )
                    idx = indices[spec.name]
                    idx_view = np.frombuffer(
                        buffer, dtype=np.int32, count=spec.num_active,
                        offset=spec.offset,
                    )
                    np.copyto(idx_view, idx)
                val_view = np.frombuffer(
                    buffer,
                    dtype=np.float32,
                    count=spec.num_active,
                    offset=spec.offset
                    + (
                        spec.num_active * INDEX_BYTES
                        if spec.encoding == "sparse"
                        else 0
                    ),
                )
                views.append((val_view, idx, owner, attr))
            self._pack_payload = PackedPayload(self.specs, buffer)
            self._pack_views = views
            self._pack_indices = indices
        for val_view, idx, owner, attr in self._pack_views:
            flat = self._target(owner, attr).reshape(-1)
            if idx is None:
                np.copyto(val_view, flat)
            else:
                np.take(flat, idx, out=val_view)
        return self._pack_payload


def unpack_into_model(
    payload: PackedPayload,
    model: Module,
    validate: bool = True,
    assume_masked: bool = False,
) -> None:
    """Install a payload straight into a model, in place.

    Writes through each ``Parameter``'s existing storage (bumping its
    cache version) and each registered buffer, allocating nothing.
    Raises :class:`PayloadFormatError` on any name/shape mismatch
    *before* touching the model, so a malformed payload cannot leave it
    half-written. Repeated restores of the same model should build a
    :class:`ModelBinding` once instead.
    """
    if validate:
        payload.validate()
    ModelBinding(model, payload.specs).restore(
        payload, assume_masked=assume_masked
    )
