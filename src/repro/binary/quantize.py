"""Binarization math (Section 3.2 of the paper).

Implements the closed-form solution of the binarization-loss
minimisation (Eq. 4-9) and the straight-through weight gradient rule
(Eq. 13):

* ``sign(C)`` is the optimal binary vector and ``mean(|C|)`` the optimal
  scaling factor for ``min ||C - alpha * C_B||^2`` (Eq. 7).
* Weights use one scalar scale per filter, ``alpha_W = ||W||_1 / n``.
* Activations use **per-input-channel** scaling factors, computed by a
  local averaging convolution over ``|T_in|`` (Eq. 14) — the paper's
  refinement over XNOR-Net's channel-averaged map.
"""

from __future__ import annotations

import numpy as np

from ..nn.functional import pad2d
from ..nn.layers.activations import sign

__all__ = [
    "sign",
    "optimal_scale",
    "binarize_weights",
    "weight_ste_grad",
    "box_mean",
    "box_sums",
    "input_scale_channelwise",
    "input_scale_xnor",
    "channel_sum",
]


def optimal_scale(c: np.ndarray, axis=None) -> np.ndarray:
    """Optimal scaling factor ``alpha* = ||C||_1 / n`` (Eq. 7).

    Minimises ``||C - alpha * sign(C)||^2`` for fixed sign pattern; with
    ``axis`` given, one factor per slice along the remaining axes.
    """
    return np.abs(c).mean(axis=axis)


def binarize_weights(weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binarize a filter bank ``(c_out, c_in, kh, kw)``.

    Returns ``(w_binary, alpha_w)`` with ``w_binary = sign(W)`` and one
    scalar ``alpha_w`` per output filter (Eq. 8), shaped ``(c_out,)``.
    """
    if weight.ndim != 4:
        raise ValueError(f"expected 4-D filter bank, got shape {weight.shape}")
    w_binary = sign(weight)
    alpha_w = optimal_scale(weight, axis=(1, 2, 3))
    return w_binary, alpha_w


def weight_ste_grad(
    weight: np.ndarray, grad_estimated: np.ndarray, alpha_w: np.ndarray
) -> np.ndarray:
    """Gradient of the loss w.r.t. the real-valued weights (Eq. 13).

    ``grad_estimated`` is the gradient w.r.t. the estimated (binarized
    and scaled) weight ``W~ = alpha_W * sign(W)``; the chain rule through
    the scale and the straight-through sign gives the element-wise
    factor ``1/n + alpha_W * 1_{|W| < 1}``, with ``n`` the kernel size.
    """
    n = weight[0].size  # c_in * kh * kw, per-filter kernel length
    alpha = alpha_w.reshape(-1, 1, 1, 1)
    ste_mask = (np.abs(weight) < 1.0).astype(weight.dtype)
    return grad_estimated * (1.0 / n + alpha * ste_mask)


def box_sums(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Sliding-window sums over the two trailing axes, *valid* positions.

    Accumulates the ``kh * kw`` shifted strided views of ``x`` in a fixed
    tap order (row-major over the kernel).  Because every output cell
    adds exactly its own receptive-field values in the same order, the
    result for a cell depends only on those values — never on the
    surrounding context — so a window cut from a larger plane yields
    bit-identical sums to the same computation on the window alone.
    The plane-compiled scan engine relies on this to share one scaling
    map across overlapping windows.
    """
    oh = (x.shape[-2] - kh) // stride + 1
    ow = (x.shape[-1] - kw) // stride + 1
    out = np.zeros(x.shape[:-2] + (oh, ow), dtype=np.result_type(x, np.float64))
    for dy in range(kh):
        for dx in range(kw):
            out += x[..., dy : dy + stride * oh : stride,
                     dx : dx + stride * ow : stride]
    return out


def box_mean(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """Sliding-window mean over the two trailing axes (zero padding).

    Computes the ``K = 1/(kh*kw)`` averaging convolution of Section
    3.4.3 via :func:`box_sums` — ``kh * kw`` shifted adds per output
    cell in a fixed tap order — over ``x`` zero-padded by
    :func:`~repro.nn.functional.pad2d`.  Padded cells count toward the
    mean: the divisor is always ``kh * kw``.  Input ``(..., h, w)`` of
    any leading shape gives output ``(..., oh, ow)`` with the main
    convolution's geometry.
    """
    return box_sums(pad2d(x, padding), kh, kw, stride) / (kh * kw)


def _local_mean_cols(
    x_abs: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """Average ``|T_in|`` over each kernel window, per channel (Eq. 14).

    Returns shape ``(c, n * oh * ow)`` — matching im2col column order
    (batch-major, then output row, then output column).
    """
    means = box_mean(x_abs, kh, kw, stride, padding)  # (n, c, oh, ow)
    n, c = means.shape[:2]
    return means.transpose(1, 0, 2, 3).reshape(c, -1)


def channel_sum(x: np.ndarray) -> np.ndarray:
    """Sum ``x`` over its leading (channel) axis, channel by channel.

    Every column is accumulated in channel order, whatever the number of
    columns.  ``x.sum(axis=0)`` does that only for two or more columns:
    a single column is summed pairwise, so the Eq. 14 channel reduction
    of a batch-1, 1x1 output map would round differently from the same
    cell in a larger batch.
    """
    return np.add.accumulate(x, axis=0)[-1]


def input_scale_channelwise(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """Per-channel activation scaling map ``alpha_T(c)`` (Eq. 14).

    Returns shape ``(c, n * oh * ow)`` in im2col column order; entry
    ``(c, j)`` is the mean of ``|x[channel c]|`` over receptive field
    ``j``.  Padding contributes zeros, matching a zero-padded main
    convolution.
    """
    return _local_mean_cols(np.abs(x), kh, kw, stride, padding)


def input_scale_xnor(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """XNOR-Net activation scaling map: channel-averaged ``A (*) K``.

    One scale per spatial window shared by every input channel; returned
    with shape ``(1, n * oh * ow)`` so it broadcasts against the
    channelwise variant.
    """
    # Sequential per-channel accumulation: bitwise equal to
    # ``np.abs(x).mean(axis=1)`` (numpy reduces an outer axis
    # slice-by-slice in order) but avoids materialising |x| for the
    # whole batch at once — the largest temporary in the deep layers.
    c = x.shape[1]
    a = np.abs(x[:, 0:1])
    for channel in range(1, c):
        a += np.abs(x[:, channel : channel + 1])
    if c > 1:
        a /= c
    return _local_mean_cols(a, kh, kw, stride, padding)
