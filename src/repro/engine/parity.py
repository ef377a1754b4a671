"""Cross-backend parity harness: the correctness gate for backends.

Every registered backend must produce **bit-identical** logits on the
same lowered program — not merely close.  This is achievable because
the binary ops' channel-summed dot products are exact integers on every
substrate (popcount identities and float sums of ±1 products both
round nothing), and the shared scaling/structural kernels apply float
operations in one fixed expression order.  A backend that is "almost
right" — wrong padding semantics, a reordered reduction, a dropped
scaling factor — therefore fails loudly here instead of shifting
accuracy numbers quietly.

Use :func:`compare_backends` programmatically, or run as a module for
the CI quick gate::

    PYTHONPATH=src python -m repro.engine.parity --image-size 16

which exercises every registered backend pair on seeded models across
all scaling modes (including a ``stem_stride=1`` single-channel 3x3
stem, the table16 fast-path shape) and exits non-zero on any mismatch.
The same run checks the plane scan (:func:`plan_depth_failures`): on
every backend, a plan at every prefix depth must reproduce the
per-window logits bit for bit.  It also fails unless its variants
compiled every IR node type (every ``OpNode`` subclass), so an op added
without parity coverage turns the gate red.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

import numpy as np

from .backends import available_backends, get_backend
from .executor import Executor
from .ir import OpNode
from .lower import lower, pipeline_signature, run_pipeline

__all__ = [
    "PairResult",
    "ParityResult",
    "seeded_model",
    "compare_backends",
    "assert_backend_parity",
    "plan_depth_failures",
    "main",
]


@dataclass(frozen=True)
class PairResult:
    """Outcome of one backend-pair comparison."""

    left: str
    right: str
    identical: bool  #: byte-for-byte equal logits (shape, dtype, bits)
    max_abs_diff: float  #: 0.0 when identical; inf on shape/dtype mismatch


@dataclass
class ParityResult:
    """All pairwise comparisons for one model and input batch."""

    backends: tuple[str, ...]
    pairs: list[PairResult] = field(default_factory=list)
    #: IR node type names the compared programs hold
    op_types: set[str] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return all(pair.identical for pair in self.pairs)

    def failures(self) -> list[PairResult]:
        return [pair for pair in self.pairs if not pair.identical]


def seeded_model(
    image_size: int = 16,
    base_width: int = 4,
    scaling: str = "xnor",
    stem_stride: int = 1,
    seed: int = 0,
):
    """A small deterministic BNN-ResNet with non-trivial BN statistics.

    ``stem_stride=1`` keeps the 1-channel 3x3 stem (9 packed bits) so
    the packed backend's table16 fast path is on the comparison.
    """
    from ..detect.bnn_detector import stages_for_image_size
    from ..models.bnn_resnet import build_bnn_resnet

    stages = stages_for_image_size(image_size, stem_stride=stem_stride)
    channels = [base_width * (1 << index) for index in range(stages)]
    model = build_bnn_resnet(
        channels, scaling=scaling, stem_stride=stem_stride, seed=seed
    )
    rng = np.random.default_rng(seed + 1)
    # one training-mode pass accumulates batch-norm running statistics,
    # so the frozen affines the backends compile are non-trivial
    model.forward(
        rng.normal(size=(8, 1, image_size, image_size)), training=True
    )
    return model


def _bit_identical(a: np.ndarray, b: np.ndarray) -> tuple[bool, float]:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False, float("inf")
    if a.tobytes() == b.tobytes():
        return True, 0.0
    return False, float(np.max(np.abs(a - b)))


def compare_backends(
    model,
    images: np.ndarray | None = None,
    backends: list[str] | None = None,
    image_size: int = 16,
    batch: int = 8,
    seed: int = 0,
    pipelines: list[str] | None = None,
) -> ParityResult:
    """Lower ``model`` once, run every backend × pipeline, compare pairs.

    Each backend executes its compiled kernels over the program as
    rewritten by each pass pipeline in ``pipelines`` (default: the raw
    lowered program ``"none"`` and the full ``"default"`` pipeline), so
    the optimization passes themselves are under the bit-identity gate,
    not just the backends.  Variants are labelled
    ``backend[pipeline-signature]``.  Inputs default to a seeded ±1
    batch (the layout-clip domain); pass ``images`` to use real clips.
    """
    names = tuple(backends if backends is not None else available_backends())
    specs = tuple(pipelines if pipelines is not None else ("none", "default"))
    lowered = lower(model)
    if images is None:
        rng = np.random.default_rng(seed)
        images = np.where(
            rng.random((batch, 1, image_size, image_size)) < 0.5, 1.0, -1.0
        )
    variants: list[str] = []
    logits: dict[str, np.ndarray] = {}
    op_types: set[str] = set()
    for spec in specs:
        program = run_pipeline(lowered, spec)
        op_types.update(type(node).__name__ for node in program.walk())
        tag = pipeline_signature(spec)
        for name in names:
            executor: Executor = get_backend(name).compile(program)
            variant = f"{name}[{tag}]"
            variants.append(variant)
            # fresh copy per variant: a kernel mutating its input would
            # otherwise corrupt the comparison instead of failing it
            logits[variant] = executor.run(images.copy())
    result = ParityResult(backends=tuple(variants), op_types=op_types)
    for i, left in enumerate(variants):
        for right in variants[i + 1:]:
            identical, diff = _bit_identical(logits[left], logits[right])
            result.pairs.append(PairResult(left, right, identical, diff))
    return result


def assert_backend_parity(
    model=None,
    backends: list[str] | None = None,
    image_size: int = 16,
    batch: int = 8,
    seed: int = 0,
) -> ParityResult:
    """Raise ``AssertionError`` naming every backend pair that diverges."""
    if model is None:
        model = seeded_model(image_size=image_size, seed=seed)
    result = compare_backends(
        model, backends=backends, image_size=image_size, batch=batch, seed=seed
    )
    if not result.ok:
        lines = [
            f"  {pair.left} vs {pair.right}: max |diff| = {pair.max_abs_diff:g}"
            for pair in result.failures()
        ]
        raise AssertionError(
            "backend parity violated (logits must be bit-identical):\n"
            + "\n".join(lines)
        )
    return result


def plan_depth_failures(
    model, backend: str, image_size: int = 16, seed: int = 0
) -> tuple[int, list[int]]:
    """``(max_depth, depths whose plan logits differ)`` for one backend.

    Scans a seeded odd-sized ±1 plane with origins covering every phase
    of an 8-pixel cumulative stride plus both plane edges, and compares
    a plane-scan plan at each prefix depth against ``predict_logits`` on
    the stacked window slices.
    """
    from ..binary.inference import PlaneScanPlan, ProgramEngine

    engine = ProgramEngine(model, backend)
    side = 4 * image_size - 3
    rng = np.random.default_rng(seed)
    plane = np.where(rng.random((side, side)) < 0.5, 1.0, -1.0)
    far = side - image_size
    xs = sorted(set(range(8)) | {far // 2, far - 1, far})
    origins = [(x, y) for y in xs for x in xs]
    windows = np.stack([
        plane[y : y + image_size, x : x + image_size] for x, y in origins
    ])[:, None]
    expected = engine.predict_logits(windows)
    max_depth = engine.plan_scan(plane, image_size, origins).max_depth
    failures = [
        depth for depth in range(max_depth + 1)
        if not np.array_equal(
            PlaneScanPlan(plane, image_size, origins, engine._prefix,
                          depth=depth).logits(),
            expected,
        )
    ]
    return max_depth, failures


def main(argv: list[str] | None = None) -> int:
    """CLI gate: parity across all backends, every scaling mode."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.parity",
        description="Assert bit-identical logits across inference backends.",
    )
    parser.add_argument("--image-size", type=int, default=16)
    parser.add_argument("--base-width", type=int, default=4)
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scaling", action="append", default=None,
        choices=["channelwise", "xnor", "none"],
        help="scaling mode(s) to test (default: all)",
    )
    parser.add_argument(
        "--stem-stride", type=int, action="append", default=None,
        help="stem stride(s) to test (default: 1 and 2)",
    )
    parser.add_argument(
        "--passes", action="append", default=None,
        choices=["default", "none"],
        help="pass pipeline(s) to test (default: 'none' and 'default')",
    )
    args = parser.parse_args(argv)

    scalings = args.scaling or ["channelwise", "xnor", "none"]
    strides = args.stem_stride or [1, 2]
    pipelines = args.passes or ["none", "default"]
    names = available_backends()
    print(f"backends:  {', '.join(names)}")
    print(f"pipelines: {', '.join(pipeline_signature(p) for p in pipelines)}")
    failed = False
    compiled: set[str] = set()
    for scaling in scalings:
        for stem_stride in strides:
            model = seeded_model(
                image_size=args.image_size, base_width=args.base_width,
                scaling=scaling, stem_stride=stem_stride, seed=args.seed,
            )
            result = compare_backends(
                model, image_size=args.image_size,
                batch=args.batch, seed=args.seed, pipelines=pipelines,
            )
            compiled |= result.op_types
            status = "OK (bit-identical)" if result.ok else "MISMATCH"
            print(f"scaling={scaling:<12} stem_stride={stem_stride}  {status}")
            for pair in result.failures():
                failed = True
                print(f"    {pair.left} vs {pair.right}: "
                      f"max |diff| = {pair.max_abs_diff:g}")
            for name in names:
                max_depth, bad = plan_depth_failures(
                    model, name, image_size=args.image_size, seed=args.seed
                )
                # a plan that can only run whole windows checks nothing
                ok = not bad and max_depth >= 2
                failed = failed or not ok
                print(f"    plan[{name}] depths 0..{max_depth}: "
                      + ("OK (bit-identical)" if ok
                         else f"MISMATCH at {bad}" if bad
                         else "no residual stage planed"))
    missing = {cls.__name__ for cls in OpNode.__subclasses__()} - compiled
    print(f"node types compiled: {', '.join(sorted(compiled))}  "
          + ("OK (every OpNode type)" if not missing
             else f"MISSING {', '.join(sorted(missing))}"))
    return 1 if failed or missing else 0


if __name__ == "__main__":
    raise SystemExit(main())
