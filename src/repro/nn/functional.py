"""Stateless tensor operations used by the layer implementations.

The convolution primitives use the classic im2col/col2im lowering: a
convolution becomes a single large matrix multiplication, which is the
only way to get acceptable throughput out of NumPy. All functions take
and return ``float32`` arrays in NCHW layout.

The patch-major pair works channels-last inside. ``im2col`` copies the
input once into a zero-padded ``(N, Hp, Wp, C)`` image, then fills the
``(N, out_h, out_w, C, kh, kw)`` patch matrix — already the returned
``(N*out_h*out_w, C*kh*kw)`` layout — with one strided copy per kernel
offset. ``col2im`` adds each offset's columns into a zero channels-last
image and returns the cropped NCHW result as one C-contiguous copy.
Both walk the batch in blocks of about ``_BLOCK_BYTES`` of column
matrix, so at paper-scale shapes a block's working set stays in a
core's L2 cache. Windows that tile the image exactly (pooling with
``kernel == stride``, pointwise convolutions) skip the padded image:
each direction is then a single relayout.

Every construction is data movement plus, in ``col2im``, the
reference's per-pixel additions in the reference's (i, j) order starting
from ``+0.0``. Results are therefore byte-identical to the double-loop
``im2col_reference``/``col2im_reference`` — signed zeros, infinities and
NaNs included. The references stay as test oracles and benchmark
baselines; the kernel-offset loops serve the kernel-major pair, which
feeds the engine's opt-in sparse dispatch.
"""

# repro-lint: golden-guarded  (col2im's fold order is pinned by the golden run)

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "im2col_kernel_major",
    "col2im_kernel_major",
    "im2col_reference",
    "col2im_reference",
    "softmax",
    "log_softmax",
    "one_hot",
]


#: Bytes of column matrix lowered per batch block: enough samples to
#: amortize the per-offset NumPy calls, few enough that the block's
#: columns and its slice of the padded image stay in a core's L2 cache.
_BLOCK_BYTES = 1 << 20


def _offsets(
    kernel_h: int, kernel_w: int, stride: int, out_h: int, out_w: int
) -> Iterator[tuple[int, int, slice, slice]]:
    """``(i, j, rows, cols)`` per kernel offset, in the reference's order."""
    for i in range(kernel_h):
        rows = slice(i, i + stride * out_h, stride)
        for j in range(kernel_w):
            yield i, j, rows, slice(j, j + stride * out_w, stride)


def _tiles(
    h: int, w: int, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> bool:
    """Whether the windows cover the image exactly once (no overlap/gap)."""
    if pad == 0 and kernel_h == kernel_w == 1:
        return True  # pointwise: tiles the stride-subsampled image
    return pad == 0 and kernel_h == kernel_w == stride and (
        h % stride == w % stride == 0
    )


def _pad_input(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial axes (np.pad minus its Python overhead)."""
    if pad == 0:
        return x
    n, c, h, w = x.shape
    img = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    img[:, :, pad : pad + h, pad : pad + w] = x
    return img


def _im2col_loop(
    img: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Kernel-offset loop construction of ``(N, C, kh, kw, oh, ow)``."""
    n, c = img.shape[:2]
    col = np.empty((n, c, kernel_h, kernel_w, out_h, out_w), dtype=img.dtype)
    for i, j, rows, cols in _offsets(kernel_h, kernel_w, stride, out_h, out_w):
        col[:, :, i, j] = img[:, :, rows, cols]
    return col


def _col2im_loop(
    col: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Kernel-offset scatter-add of a ``(N, C, kh, kw, oh, ow)`` array.

    Accumulates in (i, j) order, matching :func:`col2im_reference`
    per-pixel, and crops the padded margin.
    """
    n, c, h, w = input_shape
    out_h, out_w = col.shape[4:]
    img = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=col.dtype)
    for i, j, rows, cols in _offsets(kernel_h, kernel_w, stride, out_h, out_w):
        img[:, :, rows, cols] += col[:, :, i, j]
    return img[:, :, pad : pad + h, pad : pad + w]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size {out} <= 0 "
            f"(input={size}, kernel={kernel}, stride={stride}, pad={pad})"
        )
    return out


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> np.ndarray:
    """Unfold image patches into a matrix.

    Args:
        x: input of shape ``(N, C, H, W)``.

    Returns:
        C-contiguous array of shape
        ``(N * out_h * out_w, C * kernel_h * kernel_w)`` where each row
        is one receptive field.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    rows, k = n * out_h * out_w, c * kernel_h * kernel_w
    if _tiles(h, w, kernel_h, kernel_w, stride, pad):
        if kernel_h == 1:
            x = x[:, :, ::stride, ::stride]
        tiles = x.reshape(n, c, out_h, kernel_h, out_w, kernel_w)
        return np.ascontiguousarray(tiles.transpose(0, 2, 4, 1, 3, 5)).reshape(
            rows, k
        )
    img = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    img[:, pad : pad + h, pad : pad + w] = x.transpose(0, 2, 3, 1)
    # Allocate the columns just above a freed block of their own size.
    # The arrays a training step allocates next reuse that block instead
    # of stacking above the cached columns. Otherwise a long-lived array
    # allocated mid-step can land at the top of the heap and keep the
    # allocator from returning the step's memory, which raises peak RSS.
    spare = np.empty((n, out_h, out_w, c, kernel_h, kernel_w), dtype=x.dtype)
    col = np.empty_like(spare)
    del spare
    step = max(1, _BLOCK_BYTES // col[0].nbytes)
    for lo in range(0, n, step):
        block, cols = img[lo : lo + step], col[lo : lo + step]
        for i, j, ys, xs in _offsets(kernel_h, kernel_w, stride, out_h, out_w):
            cols[..., i, j] = block[:, ys, xs]
    return col.reshape(rows, k)


def col2im(
    col: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold a patch matrix back into an image, accumulating overlaps.

    This is the adjoint of :func:`im2col` and therefore computes the
    gradient of a convolution with respect to its input. Returns a
    C-contiguous ``(N, C, H, W)`` array.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    col = col.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    if _tiles(h, w, kernel_h, kernel_w, stride, pad):
        # Each pixel receives at most one entry: the reference's +0.0 + v
        # (which turns -0.0 into +0.0) computed as one relayout.
        tiles = np.empty((n, c, out_h, kernel_h, out_w, kernel_w), col.dtype)
        np.add(col.dtype.type(0), col.transpose(0, 3, 1, 4, 2, 5), out=tiles)
        tiles = tiles.reshape(n, c, out_h * kernel_h, out_w * kernel_w)
        if kernel_h == stride:
            return tiles
        img = np.zeros(input_shape, dtype=col.dtype)
        img[:, :, ::stride, ::stride] = tiles
        return img
    step = max(1, _BLOCK_BYTES // col[0].nbytes)
    acc = np.empty((min(step, n), h + 2 * pad, w + 2 * pad, c), col.dtype)
    img = np.empty(input_shape, dtype=col.dtype)
    for lo in range(0, n, step):
        block, cols = acc[: n - lo], col[lo : lo + step]
        block.fill(0)
        for i, j, ys, xs in _offsets(kernel_h, kernel_w, stride, out_h, out_w):
            block[:, ys, xs] += cols[..., i, j]
        img[lo : lo + step] = block[:, pad : pad + h, pad : pad + w].transpose(
            0, 3, 1, 2
        )
    return img


def im2col_kernel_major(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> np.ndarray:
    """Unfold patches into kernel-major layout ``(N, C*kh*kw, L)``.

    ``L = out_h * out_w``. Row ``(c, i, j)`` of sample ``n`` holds the
    input plane ``c`` shifted by the kernel offset ``(i, j)`` — the
    layout the engine's sparse conv path consumes with batched matmuls,
    built from large spatially-contiguous copies instead of the
    patch-major gather of :func:`im2col`.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    if kernel_h == kernel_w == stride == 1 and pad == 0:
        # Pointwise, unit stride: the input already is the column
        # matrix — zero-copy view.
        return x.reshape(n, c, h * w)
    col = _im2col_loop(
        _pad_input(x, pad), kernel_h, kernel_w, stride, out_h, out_w
    )
    return col.reshape(n, c * kernel_h * kernel_w, out_h * out_w)


def col2im_kernel_major(
    col: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col_kernel_major` (no relayout needed)."""
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    col = col.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    return _col2im_loop(col, input_shape, kernel_h, kernel_w, stride, pad)


def im2col_reference(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> np.ndarray:
    """Pre-engine double-loop :func:`im2col` (bit-identity reference)."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)

    if pad > 0:
        img = np.pad(
            x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
        )
    else:
        img = x
    col = np.empty((n, c, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            col[:, :, i, j, :, :] = img[:, :, i:i_max:stride, j:j_max:stride]
    return col.transpose(0, 4, 5, 1, 2, 3).reshape(
        n * out_h * out_w, c * kernel_h * kernel_w
    )


def col2im_reference(
    col: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Pre-engine double-loop :func:`col2im` (bit-identity reference)."""
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    col = col.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(
        0, 3, 4, 5, 1, 2
    )
    img = np.zeros(
        (n, c, h + 2 * pad + stride - 1, w + 2 * pad + stride - 1),
        dtype=col.dtype,
    )
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            img[:, :, i:i_max:stride, j:j_max:stride] += col[:, :, i, j, :, :]
    return img[:, :, pad : pad + h, pad : pad + w]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels -> one-hot ``float32`` matrix."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
