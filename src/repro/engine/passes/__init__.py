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
    "register_pass",
    "available_passes",
    "get_pass",
    "DEFAULT_PIPELINE",
    "resolve_pipeline",
    "pipeline_signature",
    "run_pipeline",
    "run_pipeline_snapshots",
]

_REGISTRY: dict[str, type["Pass"]] = {}


class Pass:
    """One value-preserving program rewrite."""

    name = "base"

    def run(self, program: Program) -> Program:
        raise NotImplementedError

    def notes(self, before: Program, after: Program) -> dict[str, object]:
        """Pass-specific facts for ``repro engine describe`` snapshots."""
        return {}


def register_pass(name: str):
    """Class decorator adding a :class:`Pass` to the registry."""

    def decorate(cls: type[Pass]) -> type[Pass]:
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def available_passes() -> list[str]:
    """Registered pass names, sorted."""
    return sorted(_REGISTRY)


def get_pass(name: str) -> Pass:
    """Instantiate a pass by name; unknown names list what exists."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown pass {name!r} "
            f"(available: {', '.join(available_passes())})"
        ) from None
    return cls()


#: The default pipeline, in execution order.
DEFAULT_PIPELINE = ("fold-bn", "hoist-scales", "liveness")


def resolve_pipeline(
    spec: str | list[str] | tuple[str, ...] | None,
) -> tuple[Pass, ...]:
    """Resolve a pipeline spec to pass instances.

    ``"default"`` (or ``None``) is :data:`DEFAULT_PIPELINE`; ``"none"``
    is the empty pipeline (execute the lowered program verbatim); a
    list/tuple names passes explicitly, run in the given order.
    """
    if spec is None or spec == "default":
        names: tuple[str, ...] = DEFAULT_PIPELINE
    elif spec == "none":
        names = ()
    elif isinstance(spec, str):
        raise ValueError(
            f"unknown pipeline spec {spec!r} (use 'default', 'none', or "
            f"a list of pass names)"
        )
    else:
        names = tuple(spec)
    return tuple(get_pass(name) for name in names)


def pipeline_signature(
    spec: str | list[str] | tuple[str, ...] | None,
) -> str:
    """Canonical provenance string for a pipeline spec.

    ``"none"`` for the empty pipeline, else the ordered pass names
    joined with ``>``.  This is the token recorded by plane-scan plans,
    chip-scan journals, and serving checkpoints so artifacts compiled
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
    spec: str | list[str] | tuple[str, ...] | None = "default",
    input_shape: tuple[int, ...] | None = None,
) -> Program:
    """Run a pass pipeline, verifying the program after every pass."""
    for p in resolve_pipeline(spec):
        program = p.run(program)
        verify_program(program, input_shape)
    return program


def run_pipeline_snapshots(
    program: Program,
    spec: str | list[str] | tuple[str, ...] | None = "default",
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


# Import concrete passes last so their @register_pass decorators run on
# package import (mirrors the backend registry).
from . import fold_bn  # noqa: E402,F401
from . import hoist_scales  # noqa: E402,F401
from . import liveness  # noqa: E402,F401
