"""Float backend: binary ops as float MACs over sign values.

This is *deployment* float arithmetic, not the training-time float
simulation: inputs are signed (±1) and lowered with -1 padding exactly
like the packed path, so every channel-summed dot product is a sum of
±1 products — an exact small integer that float64 represents without
rounding regardless of accumulation order (BLAS blocking, FMA, pairwise
sums all preserve exact integers below 2^53).  The scaling factors are
then applied with the same expressions, in the same order, on arrays of
the same memory layout as the packed kernels.  Result: this backend is
**bit-identical** to the packed backend (asserted by
``repro.engine.parity``), while exercising none of the bit-packing
machinery — which is exactly what makes it a useful cross-check and a
reference for future substrates.

(The training float simulation in ``BinaryConv2D.forward`` multiplies
pre-scaled columns and is only close to ~1e-8; parity is a property of
the deployment lowering, not of float arithmetic per se.)
"""

from __future__ import annotations

import numpy as np

from ...binary import quantize
from ...nn import functional as F
from ...nn.layers.activations import sign
from .. import ir
from ..executor import Kernel
from . import Backend, register_backend

__all__ = ["FloatBackend"]


@register_backend("float")
class FloatBackend(Backend):
    """Compile binary convolutions to exact-integer float-MAC kernels."""

    def compile_binary_conv(self, node: ir.BinaryConvOp,
                            hoisted=None) -> Kernel:
        c_out, k = node.out_channels, node.kernel_size
        stride, padding = node.stride, node.padding
        w_binary, alpha_w = (quantize.binarize_weights(node.weight)
                             if hoisted is None else hoisted)
        mode = node.scaling

        if mode == "channelwise":
            c_in = node.in_channels
            # (c_out, c, kh*kw) sign filters for channel-resolved partials
            w_sign = np.ascontiguousarray(w_binary.reshape(c_out, c_in, k * k))

            def run_channelwise(x: np.ndarray) -> np.ndarray:
                n, _, h, w = x.shape
                oh = F.conv_output_size(h, k, stride, padding)
                ow = F.conv_output_size(w, k, stride, padding)
                alpha_cols = quantize.input_scale_channelwise(
                    x, k, k, stride, padding
                )
                cols = F.im2col(sign(x), k, k, stride, padding, pad_value=-1.0)
                cols_pc = cols.reshape(c_in, k * k, -1)
                out = np.empty((c_out, cols_pc.shape[-1]), dtype=np.float64)
                for filt in range(c_out):
                    # (c, P) channel-resolved partial dots: exact integers,
                    # C-contiguous — the same values and layout as the
                    # packed kernel's popcount partials, reduced by the
                    # same channel-ordered sum.
                    partial = np.einsum("ck,ckp->cp", w_sign[filt], cols_pc)
                    out[filt] = quantize.channel_sum(partial * alpha_cols)
                out4 = np.ascontiguousarray(
                    out.reshape(c_out, n, oh, ow).transpose(1, 0, 2, 3)
                )
                return out4 * alpha_w[None, :, None, None]

            return Kernel(node, run_channelwise)

        w_mat = np.ascontiguousarray(w_binary.reshape(c_out, -1))

        def run(x: np.ndarray) -> np.ndarray:
            n, _, h, w = x.shape
            oh = F.conv_output_size(h, k, stride, padding)
            ow = F.conv_output_size(w, k, stride, padding)
            cols = F.im2col(sign(x), k, k, stride, padding, pad_value=-1.0)
            # exact integer dots; same canonical C layout as the packed
            # kernel so downstream strided reductions are bit-stable
            dots = (w_mat @ cols).reshape(c_out, n, oh, ow).transpose(
                1, 0, 2, 3
            ).astype(np.float64, order="C")
            out = dots * alpha_w[None, :, None, None]
            if mode == "xnor":
                alpha_map = quantize.input_scale_xnor(x, k, k, stride, padding)
                out *= alpha_map.reshape(n, 1, oh, ow)
            return out

        return Kernel(node, run)
