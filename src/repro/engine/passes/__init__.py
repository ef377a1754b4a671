"""Graph-rewrite passes over the engine IR: the optimizing middle end.

Lowering (:mod:`repro.engine.lower`) emits a *verbatim* program — one
node per source layer, executed as written.  The passes here rewrite
that program into a fused form (threshold-compare binarization,
hoisted weight constants, in-place buffer licenses) under one
inviolable contract: **a pass never changes an output bit**.
Every rewrite is value-preserving (the batch-norm→binarize fold relies
on float addition near zero being exact and rounding being monotone;
scale hoisting only moves compile-time-constant computation), and the
parity harness (:mod:`repro.engine.parity`) gates every backend across
{passes on, passes off}.

The default pipeline, in order:

1. ``fold-bn`` — fold ``BatchNormAffine -> BinaryConvOp`` pairs (and
   lone binary convolutions) into :class:`~repro.engine.ir.\
FusedBinaryConvOp` nodes whose binarization is a threshold compare.
2. ``hoist-scales`` — compute the Eq. 8 weight-side constants
   (``sign(W)``, per-filter ``mean|W|``) once at compile time and store
   them on the fused nodes.
3. ``liveness`` — mark fused nodes whose input buffer dies at the
   node (never the head of a residual branch, whose input is shared
   with a sibling), licensing in-place kernel variants.

``hoist-scales`` and ``liveness`` touch disjoint fields and commute;
``fold-bn`` must run before both (they only act on fused nodes) — the
claimed order properties are pinned by ``tests/engine/test_passes.py``.
Running the pipeline twice is a no-op (idempotence, also pinned).

Every pass runs :func:`~repro.engine.ir.verify_program` on its output,
so a malformed rewrite fails at compile time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import Program, verify_program

__all__ = [
    "Pass",
    "PassSnapshot",
    "DEFAULT_PIPELINE",
    "resolve_pipeline",
    "pipeline_signature",
    "run_pipeline",
    "run_pipeline_snapshots",
]


class Pass:
    """One value-preserving program rewrite."""

    name = "base"

    def run(self, program: Program) -> Program:
        raise NotImplementedError

    def notes(self, before: Program, after: Program) -> dict[str, object]:
        """Pass-specific facts for ``repro engine describe`` snapshots."""
        return {}


# The concrete passes subclass Pass, so they import after it.
from .fold_bn import FoldBatchNorm  # noqa: E402
from .hoist_scales import HoistScales  # noqa: E402
from .liveness import Liveness  # noqa: E402

#: The default pipeline, in execution order.
DEFAULT_PIPELINE: tuple[Pass, ...] = (
    FoldBatchNorm(), HoistScales(), Liveness(),
)


def resolve_pipeline(spec: str) -> tuple[Pass, ...]:
    """Resolve a pipeline spec to pass instances.

    ``"default"`` is :data:`DEFAULT_PIPELINE`; ``"none"`` is the empty
    pipeline (execute the lowered program verbatim), the reference the
    parity gate and ``repro engine describe`` compare against.
    """
    if spec == "default":
        return DEFAULT_PIPELINE
    if spec == "none":
        return ()
    raise ValueError(
        f"unknown pipeline spec {spec!r} (use 'default' or 'none')"
    )


def pipeline_signature(spec: str) -> str:
    """Canonical provenance string for a pipeline spec.

    ``"none"`` for the empty pipeline, else the ordered pass names
    joined with ``>``.  This is the token recorded by serving entries,
    worker provenance and chip-scan journals so artifacts compiled
    under different pipelines are never silently mixed.
    """
    passes = resolve_pipeline(spec)
    if not passes:
        return "none"
    return ">".join(p.name for p in passes)


@dataclass(frozen=True)
class PassSnapshot:
    """One pipeline stage for ``repro engine describe``.

    ``name`` is ``"lowered"`` for the stage-0 snapshot (the verbatim
    program), else the pass that produced ``program``.
    """

    name: str
    program: Program
    notes: dict[str, object]


def run_pipeline(
    program: Program,
    spec: str = "default",
    input_shape: tuple[int, ...] | None = None,
) -> Program:
    """Run a pass pipeline, verifying the program after every pass."""
    for p in resolve_pipeline(spec):
        program = p.run(program)
        verify_program(program, input_shape)
    return program


def run_pipeline_snapshots(
    program: Program,
    spec: str = "default",
    input_shape: tuple[int, ...] | None = None,
) -> list[PassSnapshot]:
    """Run a pipeline keeping the program after every stage.

    The first snapshot is the input program (``"lowered"``); each
    following snapshot is one pass's output plus its notes — what the
    ``repro engine describe`` CLI renders.
    """
    snapshots = [PassSnapshot("lowered", program, {})]
    for p in resolve_pipeline(spec):
        before = program
        program = p.run(program)
        verify_program(program, input_shape)
        snapshots.append(PassSnapshot(p.name, program, p.notes(before, program)))
    return snapshots
