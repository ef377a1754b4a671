"""repro.engine — an inspectable op-graph IR under every inference backend.

The engine package splits inference into four stages:

1. :mod:`~repro.engine.ir` — a small typed op-graph IR (``Program`` of
   ``OpNode``\\ s) carrying frozen weights and geometry;
2. :mod:`~repro.engine.lower` — one walk of a trained module tree
   emitting the IR (``lower``), plus structural queries on it
   (``plane_prefix``: the stages a plane scan runs once per plane);
3. :mod:`~repro.engine.passes` — graph-rewrite passes over the IR
   (``run_pipeline``): batch-norm folding into fused threshold convs,
   compile-time scale hoisting, buffer-liveness marking;
4. :mod:`~repro.engine.backends` — the two compilers from IR to kernels
   (``packed``, which every served engine runs, and its ``float``
   parity reference; ``get_backend`` / ``available_backends``);
5. :mod:`~repro.engine.executor` — runs compiled kernels with
   activation-buffer reuse and optional per-op timing hooks.

:mod:`~repro.engine.parity` is the correctness gate: the two backends
must produce bit-identical logits on seeded models.
"""

from .backends import Backend, available_backends, get_backend
from .executor import Executor, Kernel, OpTimings
from .ir import (
    BatchNormAffine,
    BinaryConvOp,
    DenseOp,
    FusedBinaryConvOp,
    OpNode,
    PoolOp,
    Program,
    ResidualOp,
    VerifierError,
    describe,
    infer_shapes,
    is_pointwise,
    output_shape,
    verify_program,
)
from .lower import (
    DEFAULT_PIPELINE,
    LoweringError,
    PlaneStage,
    freeze_batchnorm,
    lower,
    pipeline_signature,
    plane_prefix,
    run_pipeline,
    run_pipeline_snapshots,
)

__all__ = [
    "Backend",
    "BatchNormAffine",
    "BinaryConvOp",
    "DEFAULT_PIPELINE",
    "DenseOp",
    "Executor",
    "FusedBinaryConvOp",
    "Kernel",
    "LoweringError",
    "OpNode",
    "OpTimings",
    "PlaneStage",
    "PoolOp",
    "Program",
    "ResidualOp",
    "VerifierError",
    "available_backends",
    "describe",
    "freeze_batchnorm",
    "get_backend",
    "infer_shapes",
    "is_pointwise",
    "lower",
    "output_shape",
    "pipeline_signature",
    "plane_prefix",
    "run_pipeline",
    "run_pipeline_snapshots",
    "verify_program",
]
