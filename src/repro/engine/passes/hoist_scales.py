"""Hoist the Eq. 8 weight-side constants to compile time.

Every backend binarizes the master filters the same way —
``B = sign(W)``, ``alpha = mean|W|`` per filter (Eq. 8) — and the
filters are frozen at lowering time, so recomputing these per forward
is pure waste.  This pass evaluates them once, with the *same* routine
backends use (:func:`repro.binary.quantize.binarize_weights`, so not a
reimplementation that could drift), and stores the results on the
fused nodes.  The verifier re-checks ``w_binary == sign(weight)`` on
every subsequent pass, so a stale hoist cannot survive a later rewrite
of the weights.

Activation-side scales (the ``|x|`` maps of Eq. 14-15) depend on the
input and stay runtime work; only weight-side constants move.
"""

from __future__ import annotations

from dataclasses import replace

from ...binary.quantize import binarize_weights
from ..ir import FusedBinaryConvOp, OpNode, Program, ResidualOp
from . import Pass


def _hoist(program: Program) -> Program:
    nodes: list[OpNode] = []
    for node in program:
        if isinstance(node, FusedBinaryConvOp) and node.w_binary is None:
            w_binary, alpha_w = binarize_weights(node.weight)
            nodes.append(replace(node, w_binary=w_binary, alpha_w=alpha_w))
        elif isinstance(node, ResidualOp):
            nodes.append(
                ResidualOp(
                    name=node.name,
                    main=_hoist(node.main),
                    shortcut=(
                        None if node.shortcut is None else _hoist(node.shortcut)
                    ),
                )
            )
        else:
            nodes.append(node)
    return Program(tuple(nodes))


class HoistScales(Pass):
    """Precompute ``sign(W)`` and per-filter ``mean|W|`` (Eq. 8)."""

    name = "hoist-scales"

    def run(self, program: Program) -> Program:
        return _hoist(program)

    def notes(self, before: Program, after: Program) -> dict[str, object]:
        hoisted = sum(
            1
            for node in after.walk()
            if isinstance(node, FusedBinaryConvOp) and node.alpha_w is not None
        )
        already = sum(
            1
            for node in before.walk()
            if isinstance(node, FusedBinaryConvOp) and node.alpha_w is not None
        )
        return {"scales_hoisted": hoisted - already}
