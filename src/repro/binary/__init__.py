"""Binarization subsystem: quantization math, binary layers and the
bit-packed inference engine (Sections 3.2-3.4 of the paper)."""

from . import bitpack, quantize
from .binary_conv import SCALING_MODES, BinaryConv2D
from .block import BNNConvBlock, clip_binary_weights
from .fixed_point import Int8Conv2D, dequantize_int8, fake_quantize, quantize_int8
from .inference import PlaneScanPlan, ProgramEngine
from .ternary import TernaryConv2D, ternarize_weights

__all__ = [
    "bitpack",
    "quantize",
    "SCALING_MODES",
    "BinaryConv2D",
    "BNNConvBlock",
    "clip_binary_weights",
    "Int8Conv2D",
    "dequantize_int8",
    "fake_quantize",
    "quantize_int8",
    "PlaneScanPlan",
    "ProgramEngine",
    "TernaryConv2D",
    "ternarize_weights",
]
