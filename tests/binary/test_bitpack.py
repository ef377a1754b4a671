"""Tests for bit-packed {-1,+1} arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binary import BinaryConv2D, bitpack, quantize
from repro.nn import functional as F


class TestPackSigns:
    def test_word_count(self, rng):
        x = quantize.sign(rng.normal(size=(3, 70)))
        packed = bitpack.pack_signs(x)
        assert packed.shape == (3, 2)
        assert packed.dtype == np.uint64

    def test_exact_word_boundary(self, rng):
        x = quantize.sign(rng.normal(size=(2, 128)))
        assert bitpack.pack_signs(x).shape == (2, 2)

    def test_bit_semantics(self):
        x = np.array([[1.0, -1.0, 1.0, 1.0]])
        packed = bitpack.pack_signs(x)
        assert packed[0, 0] == 0b1101

    def test_all_negative_is_zero(self):
        packed = bitpack.pack_signs(-np.ones((1, 100)))
        assert not packed.any()


class TestPackedDot:
    def test_matches_dense_dot(self, rng):
        a = quantize.sign(rng.normal(size=90))
        b = quantize.sign(rng.normal(size=90))
        packed = bitpack.packed_dot(
            bitpack.pack_signs(a), bitpack.pack_signs(b), 90
        )
        assert packed == int(a @ b)

    def test_self_dot_is_n(self, rng):
        a = quantize.sign(rng.normal(size=130))
        pa = bitpack.pack_signs(a)
        assert bitpack.packed_dot(pa, pa, 130) == 130

    def test_opposite_dot_is_minus_n(self, rng):
        a = quantize.sign(rng.normal(size=65))
        assert bitpack.packed_dot(
            bitpack.pack_signs(a), bitpack.pack_signs(-a), 65
        ) == -65

    def test_broadcast(self, rng):
        a = quantize.sign(rng.normal(size=(5, 40)))
        b = quantize.sign(rng.normal(size=40))
        dots = bitpack.packed_dot(
            bitpack.pack_signs(a), bitpack.pack_signs(b), 40
        )
        np.testing.assert_array_equal(dots, (a @ b).astype(np.int64))


class TestPackedMatmul:
    def test_matches_dense(self, rng):
        a = quantize.sign(rng.normal(size=(6, 100)))
        b = quantize.sign(rng.normal(size=(4, 100)))
        out = bitpack.packed_matmul(
            bitpack.pack_signs(a), bitpack.pack_signs(b), 100
        )
        np.testing.assert_array_equal(out, (a @ b.T).astype(np.int64))

    def test_tall_operand_path(self, rng):
        """rows > cols exercises the column-major loop branch."""
        a = quantize.sign(rng.normal(size=(9, 33)))
        b = quantize.sign(rng.normal(size=(2, 33)))
        out = bitpack.packed_matmul(
            bitpack.pack_signs(a), bitpack.pack_signs(b), 33
        )
        np.testing.assert_array_equal(out, (a @ b.T).astype(np.int64))


class TestPackedConv:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_float_sign_conv(self, rng, stride, padding):
        """Packed popcount conv == float conv of the +/-1 tensors with
        -1 border padding (the library's padding convention)."""
        x = quantize.sign(rng.normal(size=(2, 3, 6, 6)))
        w = quantize.sign(rng.normal(size=(4, 3, 3, 3)))
        w_packed = bitpack.pack_filters(w)
        out = bitpack.binary_conv2d_packed(x, w_packed, 4, 3, stride, padding)
        cols = F.im2col(x, 3, 3, stride, padding, pad_value=-1.0)
        oh = F.conv_output_size(6, 3, stride, padding)
        expected = (w.reshape(4, -1) @ cols).reshape(4, 2, oh, oh)
        expected = expected.transpose(1, 0, 2, 3)
        np.testing.assert_array_equal(out, expected)

    def test_channelwise_path_matches_layer(self, rng):
        layer = BinaryConv2D(3, 4, 3, stride=1, padding=1,
                             scaling="channelwise", rng=rng)
        x = rng.normal(size=(1, 3, 6, 6))
        w_b, alpha_w = quantize.binarize_weights(layer.weight.data)
        w_packed = bitpack.pack_signs(w_b.reshape(4, 3, 9))
        alpha = quantize.input_scale_channelwise(x, 3, 3, 1, 1)
        out = bitpack.binary_conv2d_packed_channelwise(
            quantize.sign(x), w_packed, alpha, 4, 3, 1, 1
        ) * alpha_w[None, :, None, None]
        np.testing.assert_allclose(out, layer.forward(x), atol=1e-10)


class TestChannelPacking:
    def test_pack_channels_shape_and_bits(self, rng):
        x = quantize.sign(rng.normal(size=(2, 70, 3, 3)))
        packed = bitpack.pack_channels(x)
        assert packed.shape == (2, 2, 3, 3)
        # channel 0's sign lands in bit 0 of word 0
        assert ((packed[:, 0, :, :] & 1) == (x[:, 0] > 0)).all()
        # channel 64's sign lands in bit 0 of word 1
        assert ((packed[:, 1, :, :] & 1) == (x[:, 64] > 0)).all()

    def test_pack_filters_matches_im2col_order(self, rng):
        """pack_filters rows must line up with im2col of pack_channels:
        a filter dotted against its own pattern gives the full n."""
        w = quantize.sign(rng.normal(size=(1, 5, 3, 3)))
        w_packed = bitpack.pack_filters(w)
        # build an input equal to the filter pattern at the only position
        out = bitpack.binary_conv2d_packed(w[:1], w_packed, 1, 3, 1, 0,
                                           in_channels=5)
        assert out[0, 0, 0, 0] == 5 * 9

    def test_many_filters_vectorised_branch(self, rng):
        """out_channels > words exercises the tap-accumulation path."""
        x = quantize.sign(rng.normal(size=(1, 4, 5, 5)))
        w = quantize.sign(rng.normal(size=(16, 4, 3, 3)))
        out = bitpack.binary_conv2d_packed(x, bitpack.pack_filters(w),
                                           16, 3, 1, 1)
        cols = F.im2col(x, 3, 3, 1, 1, pad_value=-1.0)
        expected = (w.reshape(16, -1) @ cols).reshape(16, 1, 5, 5)
        np.testing.assert_array_equal(out, expected.transpose(1, 0, 2, 3))


class TestPopcount:
    def test_known_values(self):
        x = np.array([0, 1, 3, 255, 2**64 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(
            bitpack.popcount(x).astype(int), [0, 1, 2, 8, 64]
        )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 200),
    seed=st.integers(0, 10_000),
)
def test_packed_dot_equals_dense_property(n, seed):
    """Property: n - 2*hamming == dense +/-1 dot for any length,
    including non-multiples of 64."""
    rng = np.random.default_rng(seed)
    a = quantize.sign(rng.normal(size=n))
    b = quantize.sign(rng.normal(size=n))
    packed = bitpack.packed_dot(bitpack.pack_signs(a), bitpack.pack_signs(b), n)
    assert packed == int(a @ b)


class TestPopcountTable16:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32,
                                       np.uint64])
    def test_parity_with_active_path(self, rng, dtype):
        """The LUT fallback agrees with whatever popcount is active."""
        bits = np.iinfo(dtype).bits
        x = rng.integers(0, 2**bits, size=(7, 13), dtype=np.uint64
                         ).astype(dtype)
        np.testing.assert_array_equal(
            bitpack.popcount_table16(x).astype(np.int64),
            bitpack.popcount(x).astype(np.int64),
        )

    def test_extremes(self):
        x = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(
            bitpack.popcount_table16(x).astype(int), [0, 1, 1, 64]
        )

    def test_non_contiguous_input(self, rng):
        x = rng.integers(0, 2**64, size=(6, 8), dtype=np.uint64)[::2, ::2]
        np.testing.assert_array_equal(
            bitpack.popcount_table16(x).astype(np.int64),
            bitpack.popcount(np.ascontiguousarray(x)).astype(np.int64),
        )


class TestPackedConvDots:
    def test_matches_packed_conv(self, rng):
        """The factored integer core reproduces binary_conv2d_packed."""
        c, k = 3, 3
        x = quantize.sign(rng.normal(size=(1, c, 10, 10)))
        w = quantize.sign(rng.normal(size=(6, c, k, k)))
        w_packed = bitpack.pack_filters(w)
        cols = bitpack._pack_activation_columns(x, k, 1, 1)
        dots = bitpack.packed_conv_dots(cols, w_packed, c * k * k)
        ref = bitpack.binary_conv2d_packed(x, w_packed, 6, k, 1, 1)
        np.testing.assert_array_equal(
            dots.reshape(6, 1, 10, 10).transpose(1, 0, 2, 3), ref
        )

    def test_table16_fast_path_matches_generic(self, rng):
        """Single-channel 3x3 dots hit the uint16 table; same integers."""
        k = 3
        x = quantize.sign(rng.normal(size=(2, 1, 12, 12)))
        w = quantize.sign(rng.normal(size=(8, 1, k, k)))
        w_packed = bitpack.pack_filters(w)
        cols = bitpack._pack_activation_columns(x, k, 1, 1)
        assert cols.dtype == np.uint16  # 9 bits: the table16 fast path
        fast = bitpack.packed_conv_dots(cols, w_packed, k * k)
        generic = bitpack.packed_conv_dots(
            cols.astype(np.uint64), w_packed, k * k
        )
        np.testing.assert_array_equal(fast, generic)

    def test_table16_skipped_above_64_filters(self, rng):
        """Wide filter banks fall back to the generic branch (the table
        would be 65 x 65536 int16 per bank, larger than the work)."""
        k = 3
        x = quantize.sign(rng.normal(size=(1, 1, 8, 8)))
        w = quantize.sign(rng.normal(size=(65, 1, k, k)))
        w_packed = bitpack.pack_filters(w)
        cols = bitpack._pack_activation_columns(x, k, 1, 1)
        out = bitpack.packed_conv_dots(cols, w_packed, k * k)
        ref = bitpack.packed_conv_dots(cols.astype(np.uint64), w_packed, k * k)
        np.testing.assert_array_equal(out, ref)


def _pack_channels_loop(x):
    """Reference channel packing: set bit ``ch % 64`` of word
    ``ch // 64`` wherever ``x[:, ch] >= 0``, one element at a time."""
    n, c, h, w = x.shape
    out = np.zeros((n, (c + 63) // 64, h, w), dtype=np.uint64)
    for index in np.ndindex(n, c, h, w):
        b, ch, i, j = index
        if x[index] >= 0:
            out[b, ch // 64, i, j] |= np.uint64(1) << np.uint64(ch % 64)
    return out


@settings(max_examples=40, deadline=None)
@given(
    c=st.integers(1, 130),
    seed=st.integers(0, 10_000),
)
def test_pack_channels_equals_bit_loop_property(c, seed):
    """Property: channel words match an explicit bit loop for every
    channel count across the uint8/16/32/64 accumulator boundaries, and
    exact ``0.0`` / ``-0.0`` pack as +1 (``quantize.sign``'s ``>= 0``)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, c, 3, 2))
    zeros = rng.random(x.shape) < 0.2
    x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    packed = bitpack.pack_channels(x)
    assert packed.dtype == np.uint64
    np.testing.assert_array_equal(packed, _pack_channels_loop(x))
    # the same bits as packing the sign values
    np.testing.assert_array_equal(
        bitpack.pack_channels(quantize.sign(x)), packed
    )


class TestPackedConvDotsInt32:
    @pytest.mark.parametrize("c,c_out", [
        (130, 2),   # 27 words per 3x3 field, 2 filters: per-filter branch
        (70, 18),   # 18 words, 18 filters: per-filter branch (boundary)
        (70, 19),   # 18 words, 19 filters: per-word branch
        (3, 8),     # one densely tap-packed word: per-word branch
    ])
    def test_matches_dense_im2col_matmul(self, rng, c, c_out):
        k = 3
        x = quantize.sign(rng.normal(size=(2, c, 5, 5)))
        w = quantize.sign(rng.normal(size=(c_out, c, k, k)))
        w_packed = bitpack.pack_filters(w)
        cols = bitpack._pack_activation_columns(x, k, 1, 1)
        assert cols.shape[0] == w_packed.shape[1]
        dots = bitpack.packed_conv_dots(cols, w_packed, c * k * k)
        assert dots.dtype == np.int32
        dense = w.reshape(c_out, -1) @ F.im2col(x, k, k, 1, 1,
                                                 pad_value=-1.0)
        np.testing.assert_array_equal(dots, dense.astype(np.int32))


class TestPopcountFallback:
    """The NumPy < 2 popcount (no ``np.bitwise_count``) drives every
    packed kernel to the same bits as the default path."""

    def test_counts_are_narrow_like_bitwise_count(self, rng):
        x = rng.integers(0, 2**64, size=(4, 5), dtype=np.uint64)
        assert bitpack.popcount_table16(x).dtype == np.uint8

    @pytest.mark.parametrize("c,c_out", [(130, 2), (70, 19), (3, 8)])
    def test_packed_conv_dots(self, rng, monkeypatch, c, c_out):
        k = 3
        x = quantize.sign(rng.normal(size=(2, c, 5, 5)))
        w_packed = bitpack.pack_filters(
            quantize.sign(rng.normal(size=(c_out, c, k, k)))
        )
        cols = bitpack._pack_activation_columns(x, k, 1, 1)
        default = bitpack.packed_conv_dots(cols, w_packed, c * k * k)
        monkeypatch.setattr(bitpack, "popcount", bitpack.popcount_table16)
        fallback = bitpack.packed_conv_dots(cols, w_packed, c * k * k)
        assert fallback.dtype == default.dtype
        assert fallback.tobytes() == default.tobytes()

    @pytest.mark.parametrize("c,stride", [(1, 1), (4, 2), (80, 1)])
    def test_binary_conv2d_packed(self, rng, monkeypatch, c, stride):
        x = rng.normal(size=(2, c, 7, 7))
        w_packed = bitpack.pack_filters(
            quantize.sign(rng.normal(size=(6, c, 3, 3)))
        )
        default = bitpack.binary_conv2d_packed(x, w_packed, 6, 3, stride, 1)
        monkeypatch.setattr(bitpack, "popcount", bitpack.popcount_table16)
        fallback = bitpack.binary_conv2d_packed(x, w_packed, 6, 3, stride, 1)
        assert fallback.tobytes() == default.tobytes()

    @pytest.mark.parametrize("scaling", ["xnor", "channelwise"])
    def test_program_engine_forward(self, monkeypatch, scaling):
        from repro.binary.inference import ProgramEngine
        from repro.engine.parity import seeded_model

        model = seeded_model(scaling=scaling, base_width=36)  # 36, 72 ch
        images = np.where(
            np.random.default_rng(5).random((4, 1, 16, 16)) < 0.5, 1.0, -1.0
        )
        engine = ProgramEngine(model, backend="packed")
        default = engine.forward(images.copy())
        monkeypatch.setattr(bitpack, "popcount", bitpack.popcount_table16)
        fallback = engine.forward(images.copy())
        assert fallback.tobytes() == default.tobytes()
