"""Buffer-liveness pass: mark fused inputs that die in place.

A fused convolution reads its input once (the threshold compare and
the Eq. 15 ``|x|`` accumulation are single passes), so when no other
node will read that buffer again the backend may treat it as scratch.
The pass marks such nodes ``inplace_input=True``.  Exceptions, kept
conservative: the first node of either residual branch (the branch
input is shared with the sibling branch — and with the post-branch add
when the shortcut is the identity) and the first node of the top-level
program (the caller's array).

The executor's ownership tracking is the second line of defense — it
only offers a kernel's in-place variant a buffer the pipeline owns —
so this annotation is a license, never an obligation.
"""

from __future__ import annotations

from dataclasses import replace

from ..ir import FusedBinaryConvOp, OpNode, Program, ResidualOp
from . import Pass


def _sweep(program: Program) -> Program:
    nodes: list[OpNode] = []
    for index, node in enumerate(program):
        if isinstance(node, FusedBinaryConvOp):
            # a program's (or branch's) input is never this pass's to
            # reuse: it is the caller's array or shared with a sibling
            want = index > 0
            if node.inplace_input != want:
                node = replace(node, inplace_input=want)
        elif isinstance(node, ResidualOp):
            node = ResidualOp(
                name=node.name,
                main=_sweep(node.main),
                shortcut=(
                    None if node.shortcut is None else _sweep(node.shortcut)
                ),
            )
        nodes.append(node)
    return Program(tuple(nodes))


class Liveness(Pass):
    """Annotate fused inputs that die in place."""

    name = "liveness"

    def run(self, program: Program) -> Program:
        return _sweep(program)

    def notes(self, before: Program, after: Program) -> dict[str, object]:
        inplace = sum(
            1
            for node in after.walk()
            if isinstance(node, FusedBinaryConvOp) and node.inplace_input
        )
        return {"inplace_marked": inplace}
