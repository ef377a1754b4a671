"""Low-level tensor operations for the NumPy neural-network framework.

All image tensors use the ``NCHW`` layout: ``(batch, channels, height,
width)``.  Convolutions are implemented with the classic im2col/col2im
lowering so that both the forward and backward passes reduce to dense
matrix multiplications, which is the fastest strategy available to pure
NumPy code.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv_output_size",
    "pad2d",
    "unpad2d",
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "avgpool2d_forward",
    "avgpool2d_backward",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Return the spatial output size of a convolution/pooling window.

    Raises ``ValueError`` when the window does not fit the padded input.
    """
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"window (kernel={kernel}, stride={stride}, padding={padding}) "
            f"does not fit input of size {size}"
        )
    return out


def pad2d(x: np.ndarray, padding: int, value: float = 0.0) -> np.ndarray:
    """Constant-pad the two trailing axes of ``x`` by ``padding`` pixels.

    Works for any ``ndim >= 2`` and any dtype, and equals
    ``np.pad(x, ..., constant_values=value)`` on those axes — ``value``
    is cast to ``x.dtype`` the same way — without ``np.pad``'s per-call
    setup: one ``np.empty``, four border bands, one interior copy.
    ``padding == 0`` returns ``x`` itself, not a copy, so callers must
    not write into the result.
    """
    if padding == 0:
        return x
    if padding < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")
    p = padding
    h, w = x.shape[-2:]
    out = np.empty(x.shape[:-2] + (h + 2 * p, w + 2 * p), dtype=x.dtype)
    fill = np.asarray(value)
    out[..., :p, :] = fill
    out[..., p + h:, :] = fill
    out[..., p:p + h, :p] = fill
    out[..., p:p + h, p + w:] = fill
    out[..., p:p + h, p:p + w] = x
    return out


def unpad2d(x: np.ndarray, padding: int) -> np.ndarray:
    """Inverse of :func:`pad2d`: strip ``padding`` pixels from each border."""
    if padding == 0:
        return x
    return x[:, :, padding:-padding, padding:-padding]


def _window_strides(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Return a strided (no-copy) view of sliding windows over ``x``.

    ``x`` must already be padded.  The view has shape
    ``(n, c, out_h, out_w, kh, kw)``.
    """
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    pad_value: float = 0.0,
) -> np.ndarray:
    """Lower sliding convolution windows of ``x`` into a matrix.

    Parameters
    ----------
    x:
        Input tensor of shape ``(n, c, h, w)``.
    kh, kw, stride, padding:
        Convolution geometry.

    Returns
    -------
    np.ndarray
        Matrix of shape ``(c * kh * kw, n * out_h * out_w)``.  Column
        ``j`` holds one receptive field; rows are ordered channel-major
        then row-major within the kernel, matching
        ``weight.reshape(c_out, -1)``.

    ``pad_value`` fills the border (binary convolutions pad with -1,
    the "empty layout" value, so the packed popcount engine needs no
    validity mask).
    """
    xp = pad2d(x, padding, value=pad_value)
    windows = _window_strides(xp, kh, kw, stride)
    n, c, out_h, out_w = windows.shape[:4]
    # (n, out_h, out_w, c, kh, kw) -> (c*kh*kw, n*out_h*out_w)
    cols = windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, n * out_h * out_w)
    return np.ascontiguousarray(cols)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add an im2col matrix back into an image tensor.

    This is the adjoint of :func:`im2col` and is used to route output
    gradients back to the convolution input.
    """
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    cols6 = cols.reshape(c, kh, kw, n, out_h, out_w)
    xp = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            xp[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, i, j].transpose(
                1, 0, 2, 3
            )
    if padding == 0:
        return xp
    return xp[:, :, padding:-padding, padding:-padding]


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    cols: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run a 2-D convolution forward pass.

    Parameters
    ----------
    x:
        Input of shape ``(n, c_in, h, w)``.
    weight:
        Filters of shape ``(c_out, c_in, kh, kw)``.
    bias:
        Optional per-filter bias of shape ``(c_out,)``.
    cols:
        Pre-computed ``im2col(x, ...)`` matrix; passed by layers that
        already lowered the input (e.g. to share it with a scaling-factor
        computation).

    Returns
    -------
    (out, cols):
        ``out`` has shape ``(n, c_out, out_h, out_w)``; ``cols`` is the
        lowered input, cached for the backward pass.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels but weight expects {c_in_w}")
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    if cols is None:
        cols = im2col(x, kh, kw, stride, padding)
    out = weight.reshape(c_out, -1) @ cols
    out = out.reshape(c_out, n, out_h, out_w).transpose(1, 0, 2, 3)
    if bias is not None:
        out = out + bias.reshape(1, c_out, 1, 1)
    return out, cols


def conv2d_backward(
    grad_out: np.ndarray,
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    weight: np.ndarray,
    stride: int,
    padding: int,
    with_bias: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(grad_x, grad_weight, grad_bias)`` where ``grad_bias`` is
    ``None`` when ``with_bias`` is false.
    """
    n = x_shape[0]
    c_out, c_in, kh, kw = weight.shape
    # (n, c_out, oh, ow) -> (c_out, n*oh*ow)
    grad_mat = grad_out.transpose(1, 0, 2, 3).reshape(c_out, -1)
    grad_weight = (grad_mat @ cols.T).reshape(weight.shape)
    grad_bias = grad_out.sum(axis=(0, 2, 3)) if with_bias else None
    grad_cols = weight.reshape(c_out, -1).T @ grad_mat
    grad_x = col2im(grad_cols, x_shape, kh, kw, stride, padding)
    return grad_x, grad_weight, grad_bias


def maxpool2d_forward(
    x: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling.  Returns ``(out, argmax)``; ``argmax`` is cached for
    the backward pass (flat index within each window)."""
    windows = _window_strides(x, kernel, kernel, stride)
    n, c, out_h, out_w = windows.shape[:4]
    flat = windows.reshape(n, c, out_h, out_w, kernel * kernel)
    argmax = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
    return out, argmax


def maxpool2d_backward(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Route each output gradient back to the argmax position."""
    n, c, h, w = x_shape
    out_h, out_w = grad_out.shape[2:]
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
    ki, kj = np.divmod(argmax, kernel)
    oi = np.arange(out_h).reshape(1, 1, out_h, 1)
    oj = np.arange(out_w).reshape(1, 1, 1, out_w)
    rows = oi * stride + ki
    cols = oj * stride + kj
    ni = np.arange(n).reshape(n, 1, 1, 1)
    ci = np.arange(c).reshape(1, c, 1, 1)
    np.add.at(grad_x, (ni, ci, rows, cols), grad_out)
    return grad_x


def avgpool2d_forward(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Average pooling forward pass."""
    windows = _window_strides(x, kernel, kernel, stride)
    return windows.mean(axis=(4, 5))


def avgpool2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Spread each output gradient uniformly over its pooling window."""
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
    out_h, out_w = grad_out.shape[2:]
    share = grad_out / (kernel * kernel)
    for i in range(kernel):
        for j in range(kernel):
            grad_x[
                :,
                :,
                i : i + stride * out_h : stride,
                j : j + stride * out_w : stride,
            ] += share
    return grad_x
