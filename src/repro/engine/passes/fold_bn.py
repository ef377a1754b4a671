"""Fold batch-norm into binarization: BN→BinaryConv pairs become fused ops.

The lowered graph runs ``y = x*scale + shift`` (frozen batch-norm), then
the convolution's backend binarizes ``y`` with ``y >= 0``.  Because
float addition of values that straddle zero is exact (Hauser's lemma:
when ``a + b`` is near zero the sum is representable, so no rounding
occurs) and rounding elsewhere is monotone and sign-preserving,

    fl(fl(x*scale) + shift) >= 0   ⟺   fl(x*scale) >= -shift

so a backend may binarize with a *threshold compare* against
``-shift`` without materializing the batch-norm output — and when it
does need the BN values (the ``|x|`` activation scale of Eq. 15), it
can still produce them exactly from the same ``t = x*scale`` product.
This pass only restructures the graph to license that: it moves the
affine's constants onto a :class:`~repro.engine.ir.FusedBinaryConvOp`
verbatim, with no arithmetic of its own.

Lone binary convolutions (no preceding batch-norm) are wrapped into
fused nodes too, so downstream passes and the backends see one node
type for the whole Eq. 8 family.
"""

from __future__ import annotations

from ..ir import (
    BatchNormAffine,
    BinaryConvOp,
    FusedBinaryConvOp,
    OpNode,
    Program,
    ResidualOp,
    op_counts,
)
from . import Pass


def _fuse(conv: BinaryConvOp, bn: BatchNormAffine | None) -> FusedBinaryConvOp:
    sources = (conv.name,) if bn is None else (bn.name, conv.name)
    return FusedBinaryConvOp(
        name=conv.name,
        in_channels=conv.in_channels,
        out_channels=conv.out_channels,
        kernel_size=conv.kernel_size,
        stride=conv.stride,
        padding=conv.padding,
        scaling=conv.scaling,
        weight=conv.weight,
        sources=sources,
        bn_scale=None if bn is None else bn.scale,
        bn_shift=None if bn is None else bn.shift,
    )


def _fold(program: Program) -> Program:
    nodes: list[OpNode] = []
    src = program.nodes
    i = 0
    while i < len(src):
        node = src[i]
        nxt = src[i + 1] if i + 1 < len(src) else None
        if (
            isinstance(node, BatchNormAffine)
            and isinstance(nxt, BinaryConvOp)
            and node.channels == nxt.in_channels
        ):
            nodes.append(_fuse(nxt, node))
            i += 2
        elif isinstance(node, BinaryConvOp):
            nodes.append(_fuse(node, None))
            i += 1
        elif isinstance(node, ResidualOp):
            nodes.append(
                ResidualOp(
                    name=node.name,
                    main=_fold(node.main),
                    shortcut=(
                        None if node.shortcut is None else _fold(node.shortcut)
                    ),
                )
            )
            i += 1
        else:
            nodes.append(node)
            i += 1
    return Program(tuple(nodes))


class FoldBatchNorm(Pass):
    """Fold ``BatchNormAffine -> BinaryConvOp`` chains into fused nodes."""

    name = "fold-bn"

    def run(self, program: Program) -> Program:
        return _fold(program)

    def notes(self, before: Program, after: Program) -> dict[str, object]:
        n_before = op_counts(before)
        n_after = op_counts(after)
        return {
            "bn_folded": (
                n_before.get("BatchNormAffine", 0)
                - n_after.get("BatchNormAffine", 0)
            ),
            "convs_fused": n_after.get("FusedBinaryConvOp", 0)
            - n_before.get("FusedBinaryConvOp", 0),
        }
