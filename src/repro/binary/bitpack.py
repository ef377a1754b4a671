"""Bit-packed {-1,+1} linear algebra.

This is the engine behind the paper's speed claim: after binarization a
dot product of two {-1,+1} vectors of length ``n`` collapses to

    dot = n - 2 * popcount(xor(a_bits, b_bits))

so 64 multiply-accumulates become one XOR plus one popcount on a
``uint64`` word.  Bits encode ``+1 -> 1`` and ``-1 -> 0``.  Binary
convolutions pad inputs with ``-1`` (see
:class:`~repro.binary.binary_conv.BinaryConv2D`), so no validity mask is
needed and packed results are bit-exact with the float simulation.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..nn import functional as F
from .quantize import channel_sum

__all__ = [
    "WORD_BITS",
    "MAX_COLS",
    "popcount",
    "popcount_table16",
    "pack_signs",
    "pack_channels",
    "pack_filters",
    "packed_dot",
    "packed_matmul",
    "packed_conv_dots",
    "binary_conv2d_packed",
    "binary_conv2d_packed_channelwise",
]

WORD_BITS = 64

#: packed im2col columns one lowering materialises at most: the band
#: budget of the plane scan's whole-plane stage passes
MAX_COLS = 1 << 20

# One popcount per 16-bit chunk: a 64 KiB table halves the lookups (and
# the intermediate array) of the classic byte-table fallback.  Built by
# the SWAR bit-trick vectorised over all 2^16 values.
def _build_table16() -> np.ndarray:
    t = np.arange(1 << 16, dtype=np.uint32)
    t = (t & 0x5555) + ((t >> 1) & 0x5555)
    t = (t & 0x3333) + ((t >> 2) & 0x3333)
    t = (t & 0x0F0F) + ((t >> 4) & 0x0F0F)
    return ((t & 0x00FF) + (t >> 8)).astype(np.uint8)


_TABLE16 = _build_table16()


def popcount_table16(x: np.ndarray) -> np.ndarray:
    """Per-element population count via a 16-bit lookup table.

    Fallback for NumPy builds without ``np.bitwise_count`` (pre-2.0):
    each element is viewed as ``itemsize / 2`` unsigned 16-bit chunks
    gathered through one shared 65536-entry table — two lookups per
    ``uint16``-packed word, four per ``uint64`` word — instead of
    per-byte work.  Returns ``uint8`` counts with the input's shape, the
    per-element dtype ``np.bitwise_count`` returns, so callers may
    accumulate either into any wider integer buffer.
    """
    x = np.ascontiguousarray(x)
    if x.dtype.itemsize == 1:
        return _TABLE16[x.view(np.uint8)]
    chunks = x.view(np.uint16).reshape(x.shape + (x.dtype.itemsize // 2,))
    return _TABLE16[chunks].sum(axis=-1, dtype=np.uint8)


# np.bitwise_count arrived in NumPy 2.0; older installs use the table.
popcount = getattr(np, "bitwise_count", popcount_table16)


def pack_signs(x: np.ndarray) -> np.ndarray:
    """Pack a {-1,+1} array along its last axis into ``uint64`` words.

    ``x`` of shape ``(..., n)`` becomes ``(..., ceil(n/64))``.  Positive
    entries set their bit; tail padding bits of the last word stay 0.
    Because the tail is 0 in *both* operands of any subsequent
    :func:`packed_dot`, it never produces a mismatch, and the
    ``n - 2*hamming`` formula (with the true ``n``) stays exact.
    """
    bits = np.asarray(x) > 0
    packed8 = np.packbits(bits, axis=-1, bitorder="little")
    n_bytes = packed8.shape[-1]
    target = ((n_bytes + 7) // 8) * 8
    if target != n_bytes:
        pad = np.zeros(bits.shape[:-1] + (target - n_bytes,), dtype=np.uint8)
        packed8 = np.concatenate([packed8, pad], axis=-1)
    return np.ascontiguousarray(packed8).view(np.uint64)


def packed_dot(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Dot product of packed {-1,+1} vectors along the last axis.

    ``a`` and ``b`` are broadcast-compatible packed arrays; ``n`` is the
    true (unpadded) vector length.  Returns ``n - 2 * hamming`` as
    ``int64``.  Tail padding bits are zero in both operands, so they
    never contribute to the Hamming distance.
    """
    hamming = popcount(np.bitwise_xor(a, b)).sum(axis=-1, dtype=np.int64)
    return n - 2 * hamming


def packed_matmul(a_packed: np.ndarray, b_packed: np.ndarray, n: int) -> np.ndarray:
    """All-pairs packed dot products.

    ``a_packed`` has shape ``(rows, words)``, ``b_packed`` shape
    ``(cols, words)``; returns ``(rows, cols)`` of int64 dot products.
    Loops over the smaller operand to bound temporary memory.
    """
    rows, cols = a_packed.shape[0], b_packed.shape[0]
    out = np.empty((rows, cols), dtype=np.int64)
    if rows <= cols:
        for i in range(rows):
            out[i, :] = packed_dot(a_packed[i], b_packed, n)
    else:
        for j in range(cols):
            out[:, j] = packed_dot(a_packed, b_packed[j], n)
    return out


def pack_channels(x: np.ndarray) -> np.ndarray:
    """Pack an activation tensor along its channel axis by sign.

    ``(n, c, h, w)`` becomes ``(n, ceil(c/64), h, w)`` ``uint64`` with
    channel ``i``'s sign bit (``x >= 0``, matching ``quantize.sign``'s
    zero convention) in bit ``i % 64`` of word ``i // 64``.  This is the
    channel-major layout the deep-layer convolution path gathers from:
    one im2col word stands for up to 64 input channels.

    Each word is built straight from the contiguous per-channel sign
    planes ``x[:, ch] >= 0``: each plane is shifted to its bit in the
    narrowest unsigned type that holds the word's channel bits, the
    planes are OR-reduced in one pass, and the word is widened to
    ``uint64`` once — no transpose of the activation tensor, no byte
    packing.
    """
    n, c, h, w = x.shape
    n_words = (c + WORD_BITS - 1) // WORD_BITS
    out = np.empty((n, n_words, h, w), dtype=np.uint64)
    for word in range(n_words):
        lo = word * WORD_BITS
        bits = min(WORD_BITS, c - lo)
        dtype = np.min_scalar_type((1 << bits) - 1)  # uint8 .. uint64
        shifts = np.arange(bits, dtype=dtype).reshape(1, bits, 1, 1)
        planes = np.left_shift(x[:, lo : lo + bits] >= 0, shifts, dtype=dtype)
        out[:, word] = np.bitwise_or.reduce(planes, axis=1)
    return out


def _taps_per_word(in_channels: int) -> int:
    """How many kernel taps share one 64-bit word.

    With ``c <= 64`` input channels, each tap's channel bits occupy only
    ``c`` bits, so ``floor(64 / c)`` taps are packed densely into one
    word (the 1-channel stem fits a whole 3x3 receptive field in 9
    bits); with ``c > 64`` each tap needs ``ceil(c/64)`` words of its
    own and taps are not merged.
    """
    if in_channels > WORD_BITS:
        return 1
    return WORD_BITS // in_channels


def _conv_words(in_channels: int, kernel_size: int) -> int:
    """Words per receptive field under the dense tap packing."""
    taps = kernel_size * kernel_size
    if in_channels > WORD_BITS:
        return taps * ((in_channels + WORD_BITS - 1) // WORD_BITS)
    per_word = _taps_per_word(in_channels)
    return (taps + per_word - 1) // per_word


def pack_filters(w_sign: np.ndarray) -> np.ndarray:
    """Pack a {-1,+1} filter bank for :func:`binary_conv2d_packed`.

    Bit layout matches the activation packing of the convolution: for
    ``c <= 64``, word ``g`` holds taps ``g*t .. g*t + t - 1`` (row-major
    over the kernel) with tap ``j``'s channel bits at offset ``j * c``;
    for ``c > 64``, channel-major words per tap.  Returns
    ``(c_out, words)`` ``uint64``.
    """
    c_out, c, kh, kw = w_sign.shape
    bits = np.moveaxis(w_sign, 1, -1) >= 0            # (c_out, kh, kw, c)
    if c > WORD_BITS:
        packed = pack_signs(bits)                     # (c_out, kh, kw, cw)
        return np.ascontiguousarray(
            packed.transpose(0, 3, 1, 2)
        ).reshape(c_out, -1)
    tap_words = pack_signs(bits)[..., 0]              # (c_out, kh, kw)
    per_word = _taps_per_word(c)
    out = np.zeros((c_out, _conv_words(c, kh)), dtype=np.uint64)
    for tap, (dy, dx) in enumerate(
        (dy, dx) for dy in range(kh) for dx in range(kw)
    ):
        group, slot = divmod(tap, per_word)
        out[:, group] |= tap_words[:, dy, dx] << np.uint64(slot * c)
    return out


def _pack_activation_columns(
    x: np.ndarray, kernel_size: int, stride: int, padding: int
) -> np.ndarray:
    """Dense tap-packed im2col columns: ``(words, n*oh*ow)`` uint64.

    ``x`` is binarized by sign bit (``>= 0``); spatial -1 padding packs
    to all-zero words, so no validity masks are needed.
    """
    n, c, h, w = x.shape
    k = kernel_size
    oh = F.conv_output_size(h, k, stride, padding)
    ow = F.conv_output_size(w, k, stride, padding)
    if c * k * k <= 16:
        # tiny receptive fields (the 1-channel stem): build uint16
        # words straight from the sign bits — a quarter of the memory
        # traffic of 64-bit words.
        bits = F.pad2d(x >= 0, padding, value=False)
        words = np.zeros((n, oh, ow), dtype=np.uint16)
        index = 0
        for dy in range(k):
            for dx in range(k):
                for channel in range(c):
                    window = bits[
                        :, channel,
                        dy : dy + stride * oh : stride,
                        dx : dx + stride * ow : stride,
                    ]
                    words |= window.astype(np.uint16) << np.uint16(index)
                    index += 1
        return words.reshape(1, -1)
    x_packed = pack_channels(x)                       # (n, cw, h, w)
    if c > WORD_BITS:
        return F.im2col(x_packed, k, k, stride, padding, pad_value=0)
    padded = F.pad2d(x_packed[:, 0], padding, value=0)
    per_word = _taps_per_word(c)
    words = np.zeros((_conv_words(c, k), n, oh, ow), dtype=np.uint64)
    for tap, (dy, dx) in enumerate(
        (dy, dx) for dy in range(k) for dx in range(k)
    ):
        group, slot = divmod(tap, per_word)
        window = padded[
            :, dy : dy + stride * oh : stride, dx : dx + stride * ow : stride
        ]
        words[group] |= window << np.uint64(slot * c)
    return words.reshape(words.shape[0], -1)


@lru_cache(maxsize=8)
def _dot_table16(w_bytes: bytes, n_bits: int) -> np.ndarray:
    """Per-filter dot tables over every 16-bit activation word.

    For receptive fields that fit one ``uint16`` word (the 1-channel
    3x3 stem), the XNOR dot against filter ``f`` is a pure function of
    the activation word ``v``: ``n_bits - 2 * popcount(v ^ w_f)``.
    Tabulating all 2^16 values turns the convolution core into one
    gather per filter — no XOR, popcount, or wide temporaries on the
    hot path.  Keyed by the packed filter bytes so the table is built
    once per compiled layer.
    """
    w = np.frombuffer(w_bytes, dtype=np.uint16)
    values = np.arange(1 << 16, dtype=np.uint16)
    hamming = _TABLE16[values[None, :] ^ w[:, None]]
    return (n_bits - 2 * hamming.astype(np.int16)).astype(np.int16)


def packed_conv_dots(
    cols: np.ndarray, w_packed: np.ndarray, n_bits: int
) -> np.ndarray:
    """Integer dot products of packed activation columns and filters.

    ``cols`` is a ``(words, P)`` column matrix (from
    :func:`binary_conv2d_packed`'s internal lowering), ``w_packed`` a
    ``(c_out, words)`` filter bank sharing the same bit layout.  Returns
    ``(c_out, P)`` dot products ``n_bits - 2 * hamming`` — exact integers, so any
    caller computing the same receptive fields gets bit-identical
    results regardless of how the columns were gathered.  Dots are
    ``int32`` (Hamming distances are summed in ``int32``, exact because
    ``n_bits < 2**31``), or ``int16`` from the single-word table path.
    """
    if cols.dtype != w_packed.dtype:
        # narrow-word fast path: all bits fit the columns' dtype
        w_packed = w_packed.astype(cols.dtype)
    n_words, n_cols = cols.shape
    out_channels = w_packed.shape[0]
    if cols.dtype == np.uint16 and n_words == 1 and out_channels <= 64:
        table = _dot_table16(w_packed.astype(np.uint16).tobytes(), n_bits)
        return table[:, cols[0]]
    hamming = np.zeros((out_channels, n_cols), dtype=np.int32)
    if out_channels <= n_words:
        # few filters: one full-column pass per filter
        for filt in range(out_channels):
            hamming[filt] = popcount(
                np.bitwise_xor(cols, w_packed[filt][:, None])
            ).sum(axis=0, dtype=np.int32)
    else:
        # few words: accumulate word by word, each pass fully vectorised
        for word in range(n_words):
            hamming += popcount(
                np.bitwise_xor(cols[word][None, :], w_packed[:, word][:, None])
            )
    return n_bits - 2 * hamming


def binary_conv2d_packed(
    x_sign: np.ndarray,
    w_packed: np.ndarray,
    out_channels: int,
    kernel_size: int,
    stride: int,
    padding: int,
    in_channels: int | None = None,
) -> np.ndarray:
    """Packed binary convolution, channel-summed (XNOR-Net fast path).

    Parameters
    ----------
    x_sign:
        Input tensor, binarized internally by sign bit (``>= 0``,
        matching ``quantize.sign``); shape ``(n, c, h, w)``.
    w_packed:
        Filters packed by :func:`pack_filters`.
    out_channels, kernel_size, stride, padding:
        Convolution geometry.
    in_channels:
        True input channel count (defaults to ``x_sign.shape[1]``).

    Returns
    -------
    np.ndarray
        Integer dot products of shape ``(n, c_out, oh, ow)`` (callers
        apply the scaling factors of Eq. 15 afterwards).

    Notes
    -----
    Unused word bits are 0 in both operands (they never mismatch) and
    -1 spatial padding packs to all-zero words, so the
    ``n - 2 * hamming`` identity holds with the true bit count
    ``n = c * kh * kw``.
    """
    n, c, h, w = x_sign.shape
    if in_channels is None:
        in_channels = c
    k = kernel_size
    oh = F.conv_output_size(h, k, stride, padding)
    ow = F.conv_output_size(w, k, stride, padding)
    n_bits = in_channels * k * k

    cols = _pack_activation_columns(x_sign, k, stride, padding)
    out = packed_conv_dots(cols, w_packed, n_bits)
    # order="C": the transposed copy must be C-contiguous so every
    # downstream reduction sees one canonical memory layout — numpy's
    # strided reductions accumulate in layout-dependent order, and a
    # channels-innermost buffer here would make results depend on how
    # callers batched the inputs (breaking the engine's bit-identity
    # guarantees across batch sizes and the plane scan path).
    return out.reshape(out_channels, n, oh, ow).transpose(1, 0, 2, 3).astype(
        np.float64, order="C"
    )


def binary_conv2d_packed_channelwise(
    x_sign: np.ndarray,
    w_packed_per_channel: np.ndarray,
    alpha_cols: np.ndarray,
    out_channels: int,
    kernel_size: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Packed binary convolution with per-input-channel scaling (Eq. 14).

    The paper's channelwise scaling requires channel-resolved partial
    dot products, so filters are packed *per channel*:
    ``w_packed_per_channel`` has shape ``(c_out, c, words_kk)`` packed
    from each ``(kh*kw,)`` slice.  ``alpha_cols`` is the
    ``(c, P)`` scaling map from
    :func:`repro.binary.quantize.input_scale_channelwise`.

    Slower than :func:`binary_conv2d_packed` (the popcount runs per
    channel) but still multiplication-free in the binary core; returns
    the scaled output ``(n, c_out, oh, ow)``.
    """
    n, c, h, w = x_sign.shape
    k = kernel_size
    oh = F.conv_output_size(h, k, stride, padding)
    ow = F.conv_output_size(w, k, stride, padding)
    cols = F.im2col(x_sign.astype(np.int8), k, k, stride, padding, pad_value=-1)
    n_kk = k * k
    # (c, kh*kw, P) -> per-channel packed columns (c, P, words)
    cols_pc = pack_signs(cols.reshape(c, n_kk, -1).transpose(0, 2, 1))
    out = np.empty((out_channels, cols_pc.shape[1]), dtype=np.float64)
    for filt in range(out_channels):
        # (c, P): channel-resolved partial dots
        partial = n_kk - 2 * popcount(
            np.bitwise_xor(cols_pc, w_packed_per_channel[filt][:, None, :])
        ).sum(axis=-1, dtype=np.int64)
        out[filt] = channel_sum(partial * alpha_cols)
    # C-contiguous for the same layout-canonicalisation reason as
    # binary_conv2d_packed.
    return np.ascontiguousarray(
        out.reshape(out_channels, n, oh, ow).transpose(1, 0, 2, 3)
    )
