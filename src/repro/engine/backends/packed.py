"""Packed backend: XNOR/popcount kernels on 64-bit words.

The deployment substrate of the paper (Section 3.4): filters are
binarized (Eq. 8) and bit-packed once at compile time, activations are
sign-packed per call, and each dot product is computed as
``n_bits - 2 * popcount(xor)`` — an exact integer.  The scaling factors
(Eq. 14/15) are then applied in float, in a fixed expression order that
the float backend replicates multiply-for-multiply, which is what makes
the two backends bit-identical rather than merely close.

The data path below this backend lives in :mod:`repro.binary.bitpack`:
activations are packed into per-position channel words built straight
from the per-channel sign planes (:func:`~repro.binary.bitpack.pack_channels`),
and :func:`~repro.binary.bitpack.packed_conv_dots` sums Hamming
distances in ``int32``.  Single-word (``c_in * k * k <= 16``)
convolutions — the 1-channel 3x3 stem — are resolved through a
65536-entry dot table instead of popcounts.  The integer dots land in a
fresh float64 buffer that the Eq. 15 scaling multiplies in place.
Strided 1x1 shortcut convolutions reach this backend already
subsampled (see :meth:`Backend.compile_fused_conv`).  Every one of
these paths produces the same exact integers, so each stays invisible
to parity.
"""

from __future__ import annotations

import numpy as np

# Submodule imports (not names from repro.binary's __init__): this
# module is imported while repro.binary may itself still be
# initializing, and bitpack/quantize do not import back into it.
from ...binary import bitpack, quantize
from ...nn.layers.activations import sign
from .. import ir
from ..executor import Kernel
from . import Backend, register_backend

__all__ = ["PackedBackend"]


@register_backend("packed")
class PackedBackend(Backend):
    """Compile binary convolutions to bit-packed popcount kernels."""

    #: channelwise scaling's int8 columns and per-channel partial dots
    #: need about 2.8; the channel-summed kernels about 1.7
    plane_scratch = {"channelwise": 3.0, "xnor": 2.0, "none": 2.0}

    def compile_binary_conv(self, node: ir.BinaryConvOp,
                            hoisted=None) -> Kernel:
        """Pack the binarized filters once; popcount kernels at call time."""
        c_out, k = node.out_channels, node.kernel_size
        stride, padding = node.stride, node.padding
        w_binary, alpha_w = (quantize.binarize_weights(node.weight)
                             if hoisted is None else hoisted)
        mode = node.scaling

        if mode == "channelwise":
            w_packed = bitpack.pack_signs(
                w_binary.reshape(c_out, node.in_channels, k * k)
            )

            def run_channelwise(x: np.ndarray) -> np.ndarray:
                alpha_cols = quantize.input_scale_channelwise(
                    x, k, k, stride, padding
                )
                out = bitpack.binary_conv2d_packed_channelwise(
                    sign(x), w_packed, alpha_cols, c_out, k, stride, padding
                )
                return out * alpha_w[None, :, None, None]

            return Kernel(node, run_channelwise)

        w_packed = bitpack.pack_filters(w_binary)
        c_in = node.in_channels

        def run(x: np.ndarray) -> np.ndarray:
            # binary_conv2d_packed binarizes by sign bit internally
            out = bitpack.binary_conv2d_packed(
                x, w_packed, c_out, k, stride, padding, in_channels=c_in
            )
            out *= alpha_w[None, :, None, None]  # fresh dots, in place
            if mode == "xnor":
                n, _, oh, ow = out.shape
                alpha_map = quantize.input_scale_xnor(x, k, k, stride, padding)
                out *= alpha_map.reshape(n, 1, oh, ow)  # in-place, bit-equal
            return out

        return Kernel(node, run)
