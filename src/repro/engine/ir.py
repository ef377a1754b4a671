"""Typed op-graph IR: the shared representation under every backend.

A trained :class:`~repro.nn.module.Module` tree is lowered (by
:mod:`repro.engine.lower`) into a :class:`Program` — a flat sequence of
typed op nodes carrying everything a backend needs to emit kernels:
frozen weights, channel counts, kernel/stride/padding geometry, and
activation-scaling modes.  Backends (:mod:`repro.engine.backends`)
compile nodes to kernels; the :class:`~repro.engine.executor.Executor`
runs them.

Design rules:

* **Nodes are frozen snapshots.**  Weight arrays are copied at lowering
  time, so a compiled program never changes under further training of
  the source model (a snapshot guarantee shared by every backend).
* **Inference-only.**  Training-time concerns (batch-norm batch
  statistics, STE gradients) are resolved away during lowering:
  batch-norm lowers to a frozen per-channel :class:`BatchNormAffine`.
* **The served network's ops and nothing else.**  The IR holds the op
  types the paper's BNN-ResNet lowers to (plus the fused op the passes
  produce); any other layer raises
  :class:`~repro.engine.lower.LoweringError`.
* **Structure is explicit.**  The only nesting is
  :class:`ResidualOp`, which carries its branches as sub-``Program``\\ s;
  everything else is a flat pipeline, which is what lets the plane-scan
  engine find a network's plane-able prefix by scanning the node list
  instead of pattern-matching layer classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..nn import functional as F

__all__ = [
    "OpNode",
    "BatchNormAffine",
    "BinaryConvOp",
    "FusedBinaryConvOp",
    "DenseOp",
    "PoolOp",
    "ResidualOp",
    "Program",
    "is_pointwise",
    "output_shape",
    "infer_shapes",
    "describe",
    "VerifierError",
    "verify_program",
    "fused_chains",
    "op_counts",
    "buffer_bytes",
]


@dataclass(frozen=True, eq=False)
class OpNode:
    """Base class of every IR node.

    ``name`` is the dotted path of the source layer in the module tree
    (e.g. ``"1.main.0.conv"``) — unique within a program, stable across
    backends, and the key under which per-op timings are reported.
    """

    name: str


@dataclass(frozen=True, eq=False)
class BatchNormAffine(OpNode):
    """Frozen batch-norm: one per-channel affine ``x * scale + shift``.

    ``scale = gamma / sqrt(running_var + eps)`` and
    ``shift = beta - running_mean * scale`` are computed once at
    lowering time from the layer's running statistics.
    """

    channels: int
    scale: np.ndarray  #: per-channel multiplier, shape ``(channels,)``
    shift: np.ndarray  #: per-channel offset, shape ``(channels,)``


@dataclass(frozen=True, eq=False)
class BinaryConvOp(OpNode):
    """Binarized convolution (Eq. 8/14-15): the substrate-defining op.

    Carries the real-valued master filters; backends binarize them
    (Eq. 8) and pick their arithmetic — float MACs over sign values or
    packed XNOR/popcount words — under the contract that the
    channel-summed dot products are **exact integers**, which is what
    makes every backend bit-identical (see ``repro.engine.parity``).
    """

    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int
    padding: int
    scaling: str  #: ``"channelwise"`` (Eq. 14), ``"xnor"``, or ``"none"``
    weight: np.ndarray  #: master filters ``(c_out, c_in, k, k)``


@dataclass(frozen=True, eq=False)
class FusedBinaryConvOp(OpNode):
    """A fused BatchNormAffine→Binarize→BinaryConv→scale chain.

    Produced by the pass pipeline (:mod:`repro.engine.passes`), never by
    lowering.  Semantically equal — bit for bit — to running the source
    nodes in sequence: the batch-norm affine is *folded into the
    binarization* as a threshold compare (``x*scale + shift >= 0`` iff
    ``x*scale >= -shift``; float addition near zero is exact and
    rounding is monotone, so the fold changes no sign bit), and the
    Eq. 8 weight-side constants may be hoisted to compile time.

    ``name`` is the anchor convolution's name, so per-op timing rows
    keep their historical keys; ``sources`` lists every source node
    folded in (the batch-norm first, when present) for attribution.
    """

    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int
    padding: int
    scaling: str  #: ``"channelwise"`` (Eq. 14), ``"xnor"``, or ``"none"``
    weight: np.ndarray  #: master filters ``(c_out, c_in, k, k)``
    sources: tuple[str, ...]  #: names of the folded source nodes
    #: folded batch-norm affine (both None when no batch-norm preceded)
    bn_scale: np.ndarray | None = None  #: per-channel multiplier ``(c_in,)``
    bn_shift: np.ndarray | None = None  #: per-channel offset ``(c_in,)``
    #: Eq. 8 constants hoisted by the scale-hoisting pass (else None)
    w_binary: np.ndarray | None = None  #: ``sign(weight)``, same shape
    alpha_w: np.ndarray | None = None  #: per-filter ``mean|W|``, ``(c_out,)``
    #: liveness annotation: the input buffer dies at this node (it is not
    #: shared with a residual sibling), so a backend may offer an
    #: in-place variant that treats the input as scratch
    inplace_input: bool = False


@dataclass(frozen=True, eq=False)
class DenseOp(OpNode):
    """Plain float fully connected layer (the network head)."""

    in_features: int
    out_features: int
    weight: np.ndarray
    bias: np.ndarray | None


@dataclass(frozen=True, eq=False)
class PoolOp(OpNode):
    """Spatial pooling; the one ``kind`` is ``"global_avg"``, which
    collapses ``(n, c, h, w)`` to ``(n, c)``."""

    kind: str


@dataclass(frozen=True, eq=False)
class ResidualOp(OpNode):
    """``out = main(x) + shortcut(x)`` (identity shortcut when None)."""

    main: "Program"
    shortcut: "Program | None"


def is_pointwise(node: OpNode) -> bool:
    """Whether ``node`` acts element-wise per pixel and channel.

    Applying such a node to a full plane and slicing a window afterwards
    is bit-identical to slicing first.  The plane-scan prefix analysis
    (:func:`repro.engine.lower.plane_prefix`) folds it into the stage of
    the convolution that follows it.
    """
    return isinstance(node, BatchNormAffine)


@dataclass(frozen=True, eq=False)
class Program:
    """An ordered pipeline of op nodes (the unit backends compile)."""

    nodes: tuple[OpNode, ...]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[OpNode]:
        return iter(self.nodes)

    def __getitem__(self, index: int) -> OpNode:
        return self.nodes[index]

    def walk(self) -> Iterator[OpNode]:
        """Pre-order traversal including residual branch sub-programs."""
        for node in self.nodes:
            yield node
            if isinstance(node, ResidualOp):
                yield from node.main.walk()
                if node.shortcut is not None:
                    yield from node.shortcut.walk()


def output_shape(node: OpNode, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Shape produced by ``node`` on an input of ``shape`` (batch-first)."""
    if isinstance(node, BatchNormAffine):
        return shape
    if isinstance(node, (BinaryConvOp, FusedBinaryConvOp)):
        n, _, h, w = shape
        k, s, p = node.kernel_size, node.stride, node.padding
        return (n, node.out_channels,
                F.conv_output_size(h, k, s, p), F.conv_output_size(w, k, s, p))
    if isinstance(node, DenseOp):
        return (shape[0], node.out_features)
    if isinstance(node, PoolOp):
        return shape[:2]
    if isinstance(node, ResidualOp):
        out = shape
        for sub in node.main:
            out = output_shape(sub, out)
        return out
    raise TypeError(f"unknown IR node type {type(node).__name__}")


def infer_shapes(
    program: Program, input_shape: tuple[int, ...]
) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per-node ``name -> (input_shape, output_shape)`` for a program.

    Residual branches are resolved too (both branches see the residual
    node's input shape), so every node of :meth:`Program.walk` appears.
    """
    shapes: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def visit(prog: Program, shape: tuple[int, ...]) -> tuple[int, ...]:
        for node in prog:
            out = output_shape(node, shape)
            shapes[node.name] = (shape, out)
            if isinstance(node, ResidualOp):
                visit(node.main, shape)
                if node.shortcut is not None:
                    visit(node.shortcut, shape)
            shape = out
        return shape

    visit(program, tuple(input_shape))
    return shapes


def _node_detail(node: OpNode) -> str:
    if isinstance(node, FusedBinaryConvOp):
        detail = (f"{node.in_channels}->{node.out_channels} "
                  f"k{node.kernel_size} s{node.stride} p{node.padding} "
                  f"{node.scaling}")
        if node.bn_scale is not None:
            detail += " +bn"
        if node.alpha_w is not None:
            detail += " hoisted"
        if node.inplace_input:
            detail += " inplace"
        return detail
    if isinstance(node, BinaryConvOp):
        return (f"{node.in_channels}->{node.out_channels} "
                f"k{node.kernel_size} s{node.stride} p{node.padding} "
                f"{node.scaling}")
    if isinstance(node, DenseOp):
        return f"{node.in_features}->{node.out_features}"
    if isinstance(node, BatchNormAffine):
        return f"c={node.channels}"
    if isinstance(node, PoolOp):
        return node.kind
    if isinstance(node, ResidualOp):
        return (f"main[{len(node.main)}]"
                + ("" if node.shortcut is None
                   else f" shortcut[{len(node.shortcut)}]"))
    return ""


class VerifierError(ValueError):
    """A program violates the IR's structural invariants.

    Raised by :func:`verify_program` — the pass pipeline runs it after
    every rewrite, so a malformed fusion fails at compile time instead
    of producing silently wrong kernels.
    """


def _verify_fused(node: FusedBinaryConvOp) -> None:
    c_out, c_in, k = node.out_channels, node.in_channels, node.kernel_size
    expected = (c_out, c_in, k, k)
    if tuple(node.weight.shape) != expected:
        raise VerifierError(
            f"fused op {node.name!r}: weight shape {node.weight.shape} "
            f"does not match geometry {expected}"
        )
    if node.kernel_size < 1 or node.stride < 1 or node.padding < 0:
        raise VerifierError(
            f"fused op {node.name!r}: bad geometry k={node.kernel_size} "
            f"s={node.stride} p={node.padding}"
        )
    if node.scaling not in ("channelwise", "xnor", "none"):
        raise VerifierError(
            f"fused op {node.name!r}: unknown scaling {node.scaling!r}"
        )
    if not node.sources or node.name not in node.sources:
        raise VerifierError(
            f"fused op {node.name!r}: sources {node.sources!r} must "
            f"include the anchor convolution's name"
        )
    if (node.bn_scale is None) != (node.bn_shift is None):
        raise VerifierError(
            f"fused op {node.name!r}: bn_scale and bn_shift must both be "
            f"set or both be None"
        )
    if node.bn_scale is not None:
        if node.bn_scale.shape != (c_in,) or node.bn_shift.shape != (c_in,):
            raise VerifierError(
                f"fused op {node.name!r}: folded batch-norm arrays must "
                f"have shape ({c_in},), got {node.bn_scale.shape} and "
                f"{node.bn_shift.shape}"
            )
    if (node.w_binary is None) != (node.alpha_w is None):
        raise VerifierError(
            f"fused op {node.name!r}: w_binary and alpha_w must both be "
            f"hoisted or both be None"
        )
    if node.w_binary is not None:
        if node.w_binary.shape != node.weight.shape:
            raise VerifierError(
                f"fused op {node.name!r}: hoisted w_binary shape "
                f"{node.w_binary.shape} != weight shape {node.weight.shape}"
            )
        if node.alpha_w.shape != (c_out,):
            raise VerifierError(
                f"fused op {node.name!r}: hoisted alpha_w must have shape "
                f"({c_out},), got {node.alpha_w.shape}"
            )
        # the hoisted constants must be *the* Eq. 8 values for this
        # weight — a stale snapshot would silently change every logit
        if not np.array_equal(
            node.w_binary, np.where(node.weight >= 0, 1.0, -1.0)
        ):
            raise VerifierError(
                f"fused op {node.name!r}: hoisted w_binary does not equal "
                f"sign(weight)"
            )


def verify_program(
    program: Program, input_shape: tuple[int, ...] | None = None
) -> None:
    """Check a program's structural invariants; raise :class:`VerifierError`.

    Verified: node names are unique across the walk, batch-norm arrays
    match their channel counts, and fused nodes are internally
    consistent (weight geometry, folded batch-norm shapes, hoisted
    Eq. 8 constants matching the master weights, source attribution).
    With ``input_shape`` given, shapes are propagated and residual
    branch outputs must agree.
    """
    seen: set[str] = set()
    for node in program.walk():
        if node.name in seen:
            raise VerifierError(f"duplicate node name {node.name!r}")
        seen.add(node.name)
        if isinstance(node, FusedBinaryConvOp):
            _verify_fused(node)
        elif isinstance(node, BatchNormAffine):
            if (node.scale.shape != (node.channels,)
                    or node.shift.shape != (node.channels,)):
                raise VerifierError(
                    f"batch-norm {node.name!r}: affine arrays must have "
                    f"shape ({node.channels},), got {node.scale.shape} "
                    f"and {node.shift.shape}"
                )
        elif isinstance(node, ResidualOp):
            if len(node.main) == 0:
                raise VerifierError(
                    f"residual {node.name!r}: empty main branch"
                )
    if input_shape is None:
        return

    def visit(prog: Program, shape: tuple[int, ...]) -> tuple[int, ...]:
        for node in prog:
            if isinstance(node, (BinaryConvOp, FusedBinaryConvOp)):
                if shape[1] != node.in_channels:
                    raise VerifierError(
                        f"{node.name!r}: expects {node.in_channels} input "
                        f"channels, dataflow provides {shape[1]}"
                    )
            if isinstance(node, ResidualOp):
                main_out = visit(node.main, shape)
                if node.shortcut is not None:
                    short_out = visit(node.shortcut, shape)
                    if main_out != short_out:
                        raise VerifierError(
                            f"residual {node.name!r}: branch shapes differ "
                            f"(main {main_out} vs shortcut {short_out})"
                        )
                elif main_out != shape:
                    raise VerifierError(
                        f"residual {node.name!r}: identity shortcut needs "
                        f"main to preserve shape ({shape} -> {main_out})"
                    )
                shape = main_out
            else:
                shape = output_shape(node, shape)
        return shape

    visit(program, tuple(input_shape))


def fused_chains(program: Program) -> list[tuple[str, tuple[str, ...]]]:
    """``(anchor_name, source_names)`` for every fused node in the walk."""
    return [
        (node.name, node.sources)
        for node in program.walk()
        if isinstance(node, FusedBinaryConvOp)
    ]


def op_counts(program: Program) -> dict[str, int]:
    """Walked node counts by IR type name, insertion-ordered."""
    counts: dict[str, int] = {}
    for node in program.walk():
        key = type(node).__name__
        counts[key] = counts.get(key, 0) + 1
    return counts


def buffer_bytes(
    program: Program, input_shape: tuple[int, ...]
) -> dict[str, int]:
    """Per-node output-buffer bytes (float64) keyed by node name.

    The sum over a program is the activation traffic a verbatim
    execution writes; comparing it before/after the pass pipeline is
    how ``repro engine describe`` quantifies eliminated intermediates.
    """
    shapes = infer_shapes(program, input_shape)
    return {
        name: int(np.prod(out)) * 8 for name, (_, out) in shapes.items()
    }


def describe(program: Program, input_shape: tuple[int, ...] | None = None) -> str:
    """Human-readable program listing (one line per walked node)."""
    shapes = infer_shapes(program, input_shape) if input_shape else {}
    lines = []
    for node in program.walk():
        line = f"{node.name:<24} {type(node).__name__:<16} {_node_detail(node)}"
        if node.name in shapes:
            _, out = shapes[node.name]
            line += f" -> {tuple(out)}"
        lines.append(line.rstrip())
    return "\n".join(lines)
