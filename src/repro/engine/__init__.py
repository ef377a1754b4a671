"""repro.engine — an inspectable op-graph IR under every inference backend.

The engine package splits inference into four stages:

1. :mod:`~repro.engine.ir` — a small typed op-graph IR (``Program`` of
   ``OpNode``\\ s) carrying frozen weights and geometry;
2. :mod:`~repro.engine.lower` — one walk of a trained module tree
   emitting the IR (``lower``), plus structural queries on it
   (``find_plane_stem``);
3. :mod:`~repro.engine.passes` — graph-rewrite passes over the IR
   (``run_pipeline``): batch-norm folding into fused threshold convs,
   compile-time scale hoisting, buffer-liveness marking;
4. :mod:`~repro.engine.backends` — named compilers from IR to kernels
   (``float``, ``packed``; registry: ``get_backend`` /
   ``available_backends``);
5. :mod:`~repro.engine.executor` — runs compiled kernels with
   activation-buffer reuse and optional per-op timing hooks.

:mod:`~repro.engine.parity` is the correctness gate: every registered
backend pair must produce bit-identical logits on seeded models.
"""

from .backends import Backend, available_backends, get_backend, register_backend
from .executor import Executor, Kernel, OpTimings
from .ir import (
    ActivationOp,
    BatchNormAffine,
    BinaryConvOp,
    BinaryDenseOp,
    ConvOp,
    DenseOp,
    FusedBinaryConvOp,
    OpNode,
    PoolOp,
    Program,
    ReshapeOp,
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
    find_plane_stem,
    freeze_batchnorm,
    lower,
    pipeline_signature,
    run_pipeline,
    run_pipeline_snapshots,
)

__all__ = [
    "ActivationOp",
    "Backend",
    "BatchNormAffine",
    "BinaryConvOp",
    "BinaryDenseOp",
    "ConvOp",
    "DEFAULT_PIPELINE",
    "DenseOp",
    "Executor",
    "FusedBinaryConvOp",
    "Kernel",
    "LoweringError",
    "OpNode",
    "OpTimings",
    "PoolOp",
    "Program",
    "ReshapeOp",
    "ResidualOp",
    "VerifierError",
    "available_backends",
    "describe",
    "find_plane_stem",
    "freeze_batchnorm",
    "get_backend",
    "infer_shapes",
    "is_pointwise",
    "lower",
    "output_shape",
    "pipeline_signature",
    "register_backend",
    "run_pipeline",
    "run_pipeline_snapshots",
    "verify_program",
]
