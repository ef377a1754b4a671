"""Tests for the low-level convolution/pooling kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F

from ..conftest import finite_difference


def naive_conv2d(x, w, b, stride, padding, pad_value=0.0):
    """Reference nested-loop convolution for cross-checking im2col."""
    n, c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.full(
        (n, c_in, h + 2 * padding, wd + 2 * padding), pad_value, dtype=x.dtype
    )
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    for b_i in range(n):
        for f in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[
                        b_i, :, i * stride : i * stride + kh,
                        j * stride : j * stride + kw,
                    ]
                    out[b_i, f, i, j] = (patch * w[f]).sum()
            if b is not None:
                out[b_i, f] += b[f]
    return out


class TestConvOutputSize:
    def test_basic(self):
        assert F.conv_output_size(8, 3, 1, 1) == 8
        assert F.conv_output_size(8, 3, 2, 1) == 4
        assert F.conv_output_size(7, 1, 1, 0) == 7

    def test_window_too_large_raises(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)


class TestPad:
    def test_pad_and_unpad_roundtrip(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        assert np.array_equal(F.unpad2d(F.pad2d(x, 2), 2), x)

    def test_pad_zero_is_identity(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        assert F.pad2d(x, 0) is x

    def test_pad_value(self):
        x = np.zeros((1, 1, 2, 2))
        padded = F.pad2d(x, 1, value=-1.0)
        assert padded[0, 0, 0, 0] == -1.0
        assert padded.shape == (1, 1, 4, 4)

    def test_negative_padding_raises(self):
        with pytest.raises(ValueError):
            F.pad2d(np.zeros((1, 1, 2, 2)), -1)

    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from([np.bool_, np.uint16, np.uint64, np.float64]),
        shape=st.one_of(
            st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5)),
            st.tuples(st.integers(1, 2), st.integers(1, 3),
                      st.integers(1, 5), st.integers(1, 5)),
        ),
        padding=st.integers(0, 3),
        value=st.sampled_from([False, 0, -1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_np_pad(self, dtype, shape, padding, value, seed):
        """Any trailing-axes constant pad equals ``np.pad``'s, dtype,
        values and the cast of the fill value included."""
        x = np.random.default_rng(seed).integers(-2, 3, shape).astype(dtype)
        width = [(0, 0)] * (x.ndim - 2) + [(padding, padding)] * 2
        expected = np.pad(x, width, constant_values=value)
        got = F.pad2d(x, padding, value=value)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


class TestIm2col:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_matches_naive_conv(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        out, _ = F.conv2d_forward(x, w, None, stride, padding)
        expected = naive_conv2d(x, w, None, stride, padding)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_pad_value_matches_naive(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        cols = F.im2col(x, 3, 3, 1, 1, pad_value=-1.0)
        out = (w.reshape(3, -1) @ cols).reshape(3, 1, 5, 5).transpose(1, 0, 2, 3)
        expected = naive_conv2d(x, w, None, 1, 1, pad_value=-1.0)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_column_count(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols = F.im2col(x, 3, 3, 2, 1)
        assert cols.shape == (3 * 9, 2 * 4 * 4)

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity."""
        x = rng.normal(size=(1, 2, 6, 6))
        cols = F.im2col(x, 3, 3, 2, 1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = F.col2im(y, x.shape, 3, 3, 2, 1)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestConvBackward:
    def test_grad_x_matches_finite_difference(self, rng):
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=(3,))
        out, cols = F.conv2d_forward(x, w, b, 1, 1)
        g = rng.normal(size=out.shape)
        gx, gw, gb = F.conv2d_backward(g, cols, x.shape, w, 1, 1)
        num_gx = finite_difference(
            lambda xv: F.conv2d_forward(xv, w, b, 1, 1)[0], x.copy(), g
        )
        np.testing.assert_allclose(gx, num_gx, atol=1e-5)

    def test_grad_w_matches_finite_difference(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3))
        out, cols = F.conv2d_forward(x, w, None, 1, 0)
        g = rng.normal(size=out.shape)
        _, gw, _ = F.conv2d_backward(g, cols, x.shape, w, 1, 0, with_bias=False)
        num_gw = finite_difference(
            lambda wv: F.conv2d_forward(x, wv, None, 1, 0)[0], w.copy(), g
        )
        np.testing.assert_allclose(gw, num_gw, atol=1e-5)

    def test_grad_bias_is_summed_grad(self, rng):
        x = rng.normal(size=(2, 1, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3))
        out, cols = F.conv2d_forward(x, w, np.zeros(2), 1, 1)
        g = rng.normal(size=out.shape)
        _, _, gb = F.conv2d_backward(g, cols, x.shape, w, 1, 1)
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)))

    def test_channel_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 3, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3))
        with pytest.raises(ValueError):
            F.conv2d_forward(x, w, None, 1, 0)


class TestPooling:
    def test_maxpool_forward(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out, _ = F.maxpool2d_forward(x, 2, 2)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self, rng):
        x = rng.normal(size=(2, 2, 6, 6))
        out, argmax = F.maxpool2d_forward(x, 2, 2)
        g = rng.normal(size=out.shape)
        gx = F.maxpool2d_backward(g, argmax, x.shape, 2, 2)
        num = finite_difference(
            lambda xv: F.maxpool2d_forward(xv, 2, 2)[0], x.copy(), g
        )
        np.testing.assert_allclose(gx, num, atol=1e-5)

    def test_avgpool_forward(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.avgpool2d_forward(x, 2, 2)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_backward(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        out = F.avgpool2d_forward(x, 2, 2)
        g = rng.normal(size=out.shape)
        gx = F.avgpool2d_backward(g, x.shape, 2, 2)
        num = finite_difference(
            lambda xv: F.avgpool2d_forward(xv, 2, 2), x.copy(), g
        )
        np.testing.assert_allclose(gx, num, atol=1e-5)

    def test_overlapping_maxpool_backward(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        out, argmax = F.maxpool2d_forward(x, 3, 2)
        g = rng.normal(size=out.shape)
        gx = F.maxpool2d_backward(g, argmax, x.shape, 3, 2)
        num = finite_difference(
            lambda xv: F.maxpool2d_forward(xv, 3, 2)[0], x.copy(), g
        )
        np.testing.assert_allclose(gx, num, atol=1e-5)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    size=st.integers(3, 8),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 2),
)
def test_im2col_conv_equals_naive_property(n, c, size, kernel, stride):
    """Property: im2col-lowered convolution equals the direct definition
    for arbitrary geometry."""
    rng = np.random.default_rng(n * 100 + c * 10 + size)
    padding = kernel // 2
    x = rng.normal(size=(n, c, size, size))
    w = rng.normal(size=(2, c, kernel, kernel))
    out, _ = F.conv2d_forward(x, w, None, stride, padding)
    expected = naive_conv2d(x, w, None, stride, padding)
    np.testing.assert_allclose(out, expected, atol=1e-9)
