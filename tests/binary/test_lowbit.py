"""Tests for the ternary and int8 quantization layers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.binary import (
    Int8Conv2D,
    TernaryConv2D,
    dequantize_int8,
    fake_quantize,
    quantize_int8,
    ternarize_weights,
)
from repro.nn import functional as F


class TestTernarizeWeights:
    def test_values_in_alphabet(self, rng):
        w = rng.normal(size=(4, 3, 3, 3))
        pattern, alpha = ternarize_weights(w)
        assert set(np.unique(pattern)) <= {-1.0, 0.0, 1.0}
        assert alpha.shape == (4,)
        assert (alpha >= 0).all()

    def test_threshold_semantics(self):
        w = np.array([[[[1.0, -1.0, 0.1, -0.1]]]]).reshape(1, 1, 2, 2)
        pattern, alpha = ternarize_weights(w, threshold_factor=0.7)
        # mean|w| = 0.55, delta = 0.385: the 0.1s zero out
        np.testing.assert_array_equal(
            pattern.reshape(-1), [1.0, -1.0, 0.0, 0.0]
        )
        assert alpha[0] == pytest.approx(1.0)

    def test_alpha_is_surviving_mean(self, rng):
        w = rng.normal(size=(2, 2, 3, 3))
        pattern, alpha = ternarize_weights(w)
        for k in range(2):
            kept = np.abs(w[k])[pattern[k] != 0]
            assert alpha[k] == pytest.approx(kept.mean())

    def test_all_below_threshold_gives_zero_filter(self):
        w = np.zeros((1, 1, 2, 2))
        pattern, alpha = ternarize_weights(w)
        assert not pattern.any()
        assert alpha[0] == 0.0

    def test_non_4d_raises(self, rng):
        with pytest.raises(ValueError):
            ternarize_weights(rng.normal(size=(3, 3)))


class TestTernaryConv:
    def test_forward_uses_quantized_weights(self, rng):
        layer = TernaryConv2D(2, 3, 3, padding=1, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        pattern, alpha = ternarize_weights(layer.weight.data)
        expected, _ = F.conv2d_forward(
            x, alpha.reshape(-1, 1, 1, 1) * pattern, None, 1, 1
        )
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-12)

    def test_backward_straight_through(self, rng):
        layer = TernaryConv2D(1, 2, 3, rng=rng)
        x = rng.normal(size=(1, 1, 4, 4))
        out = layer.forward(x, training=True)
        gx = layer.backward(np.ones_like(out))
        assert gx.shape == x.shape
        assert np.abs(layer.weight.grad).sum() > 0

    def test_sparsity_reported(self, rng):
        layer = TernaryConv2D(2, 2, 3, rng=rng)
        assert 0.0 <= layer.sparsity() <= 1.0

    def test_clip_weights(self, rng):
        layer = TernaryConv2D(1, 1, 3, rng=rng)
        layer.weight.data[...] = 9.0
        layer.clip_weights()
        assert np.abs(layer.weight.data).max() <= 1.0

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            TernaryConv2D(1, 1, 3, rng=rng).backward(np.zeros((1, 1, 1, 1)))


class TestInt8:
    def test_roundtrip_small_error(self, rng):
        x = rng.normal(size=100)
        q, scale = quantize_int8(x)
        recovered = dequantize_int8(q, scale)
        assert np.abs(recovered - x).max() <= scale / 2 + 1e-12

    def test_zero_tensor(self):
        q, scale = quantize_int8(np.zeros(5))
        assert not q.any()
        assert scale == 1.0

    def test_range_clamped(self):
        q, _ = quantize_int8(np.array([1.0, -1.0, 0.0]))
        assert q.max() == 127 and q.min() == -127

    def test_fake_quantize_idempotent(self, rng):
        x = rng.normal(size=50)
        once = fake_quantize(x)
        np.testing.assert_allclose(fake_quantize(once), once, atol=1e-9)

    def test_conv_close_to_float(self, rng):
        """int8 is the mild quantization: outputs stay near float."""
        layer = Int8Conv2D(2, 3, 3, padding=1, rng=rng)
        x = rng.normal(size=(2, 2, 6, 6))
        exact, _ = F.conv2d_forward(x, layer.weight.data, None, 1, 1)
        approx = layer.forward(x)
        rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert rel < 0.05

    def test_conv_backward(self, rng):
        layer = Int8Conv2D(1, 2, 3, rng=rng)
        x = rng.normal(size=(1, 1, 4, 4))
        out = layer.forward(x, training=True)
        gx = layer.backward(np.ones_like(out))
        assert gx.shape == x.shape
        assert np.abs(layer.weight.grad).sum() > 0

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Int8Conv2D(1, 1, 3, rng=rng).backward(np.zeros((1, 1, 1, 1)))


@settings(max_examples=30, deadline=None)
@given(x=arrays(np.float64, st.integers(1, 40),
                elements=st.floats(-100, 100, allow_nan=False)))
@example(x=np.array([5e-324, 0.0]))  # subnormal peak: peak / 127 == 0
def test_int8_error_bound_property(x):
    """Property: fake quantization error never exceeds half a step, and
    no step divides by zero or yields inf/NaN.  Subnormal inputs may
    underflow gradually; that is the one floating-point flag allowed."""
    with np.errstate(all="raise", under="ignore"):
        q, scale = quantize_int8(x)
        recovered = dequantize_int8(q, scale)
        assert np.abs(recovered - x).max() <= scale / 2 + 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 5000), factor=st.floats(0.2, 1.2))
def test_ternary_quantization_error_bounded_property(seed, factor):
    """Property: the ternary estimate never has larger L2 error than the
    all-zero estimate (alpha is fitted to the surviving pattern)."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(2, 1, 3, 3))
    pattern, alpha = ternarize_weights(w, threshold_factor=factor)
    estimate = alpha.reshape(-1, 1, 1, 1) * pattern
    assert np.linalg.norm(w - estimate) <= np.linalg.norm(w) + 1e-9
