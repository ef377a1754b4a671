"""8-bit fixed-point quantization (the int8 point of Section 2.2).

The paper's background cites Vanhoucke et al.'s 8-bit activation
quantization as the mild end of the precision spectrum.  This module
provides symmetric per-tensor int8 quantization (simulated: quantize,
dequantize, compute in float — the standard "fake quantization" used to
evaluate accuracy impact) and a drop-in conv layer, completing the
float -> int8 -> ternary -> binary ladder.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn import init
from ..nn.module import Module, Parameter

__all__ = ["quantize_int8", "dequantize_int8", "fake_quantize", "Int8Conv2D"]


def quantize_int8(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Symmetric per-tensor quantization to int8.

    Returns ``(q, scale)`` with ``q = round(x / scale)`` clamped to
    [-127, 127] and ``scale = max|x| / 127``.  Zero tensors, and
    tensors whose subnormal peak makes that quotient underflow to 0,
    get scale 1.
    """
    scale = float(np.abs(x).max()) / 127.0 or 1.0
    q = np.clip(np.round(x / scale), -127, 127).astype(np.int8)
    return q, scale


def dequantize_int8(q: np.ndarray, scale: float) -> np.ndarray:
    """Inverse of :func:`quantize_int8` (up to rounding error)."""
    return q.astype(np.float64) * scale


def fake_quantize(x: np.ndarray) -> np.ndarray:
    """Round-trip through int8: the standard quantization simulation."""
    q, scale = quantize_int8(x)
    return dequantize_int8(q, scale)


class Int8Conv2D(Module):
    """Convolution with int8-quantized weights and activations.

    Forward quantizes both operands through int8 (simulated in float);
    backward is straight-through (rounding treated as identity), the
    standard rule for quantization-aware training.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: np.random.Generator | None = None,
    ):
        rng = rng if rng is not None else np.random.default_rng()
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.xavier_uniform(shape, rng))
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self._cache: dict | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the layer's forward pass (see class docstring)."""
        x_q = fake_quantize(x)
        w_q = fake_quantize(self.weight.data)
        out, cols = F.conv2d_forward(x_q, w_q, None, self.stride, self.padding)
        if training:
            self._cache = {"cols": cols, "x_shape": x.shape, "w_q": w_q}
        else:
            self._cache = None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate through the layer (see class docstring)."""
        if self._cache is None:
            raise RuntimeError("backward() requires a prior forward(training=True)")
        cache = self._cache
        grad_x, grad_w, _ = F.conv2d_backward(
            grad, cache["cols"], cache["x_shape"], cache["w_q"],
            self.stride, self.padding, with_bias=False,
        )
        self.weight.grad += grad_w  # straight-through rounding
        return grad_x
