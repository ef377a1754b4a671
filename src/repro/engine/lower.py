"""Lowering: one walk of a trained ``Module`` tree emits the IR.

This pass replaces the per-engine ``isinstance`` ladders that used to
live in ``repro.binary.inference`` — every engine (packed, float,
plane-scan) now consumes the same :class:`~repro.engine.ir.Program`,
so structural knowledge about the model zoo lives in exactly one place.

``Sequential`` containers and :class:`~repro.binary.block.BNNConvBlock`
(batch-norm + binary conv) are flattened into the parent program, so a
program is a flat node pipeline except for explicit
:class:`~repro.engine.ir.ResidualOp` branches.  That flatness is what
makes the plane-scan prefix analysis (:func:`plane_prefix`) a scan over
the node list instead of a pattern match over layer classes.

Weights and batch-norm statistics are **copied** into the IR: lowering
snapshots the model, so later training never changes a compiled engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..binary.binary_conv import BinaryConv2D
from ..binary.block import BNNConvBlock
from ..nn.functional import conv_output_size
from ..nn.layers.batchnorm import BatchNorm2D
from ..nn.layers.container import Sequential
from ..nn.layers.dense import Dense
from ..nn.layers.pooling import GlobalAvgPool2D
from ..nn.layers.residual import ResidualBlock
from ..nn.module import Module
from .ir import (
    BatchNormAffine,
    BinaryConvOp,
    DenseOp,
    FusedBinaryConvOp,
    OpNode,
    PoolOp,
    Program,
    ResidualOp,
    is_pointwise,
)

# Re-exported so callers can treat lowering + optimization as one
# module: ``lower()`` emits the verbatim program, ``run_pipeline()``
# rewrites it (see :mod:`repro.engine.passes` for the passes).
from .passes import (  # noqa: F401
    DEFAULT_PIPELINE,
    pipeline_signature,
    run_pipeline,
    run_pipeline_snapshots,
)

__all__ = [
    "LoweringError",
    "lower",
    "freeze_batchnorm",
    "PlaneStage",
    "plane_prefix",
    "DEFAULT_PIPELINE",
    "pipeline_signature",
    "run_pipeline",
    "run_pipeline_snapshots",
]


class LoweringError(TypeError):
    """A module tree contains a layer the IR cannot represent.

    The IR holds the ops the served BNN-ResNet lowers to; every other
    layer (float convolutions, activations, local pooling, flatten,
    dropout, ...) raises this error naming its class.

    Subclasses :class:`TypeError` so callers of the historical compile
    APIs (which raised ``TypeError`` on unknown layers) keep working;
    ``layer_type`` carries the offending class name for fallback-reason
    reporting in the serving layer.
    """

    def __init__(self, message: str, layer_type: str):
        super().__init__(message)
        self.layer_type = layer_type


def freeze_batchnorm(layer: BatchNorm2D, name: str) -> BatchNormAffine:
    """Fold running statistics into one per-channel affine node."""
    scale = layer.gamma.data / np.sqrt(layer.running_var + layer.eps)
    shift = layer.beta.data - layer.running_mean * scale
    return BatchNormAffine(
        name=name, channels=int(scale.size),
        scale=scale.copy(), shift=shift.copy(),
    )


def _join(prefix: str, part: str) -> str:
    return part if not prefix else f"{prefix}.{part}"


def _lower_into(module: Module, name: str, out: list[OpNode]) -> None:
    """Append the IR node(s) for ``module`` to ``out`` (flattening)."""
    if isinstance(module, Sequential):
        for index, layer in enumerate(module.layers):
            _lower_into(layer, _join(name, str(index)), out)
        return
    if isinstance(module, ResidualBlock):
        main: list[OpNode] = []
        _lower_into(module.main, _join(name, "main"), main)
        shortcut: list[OpNode] | None = None
        if module.shortcut is not None:
            nodes: list[OpNode] = []
            _lower_into(module.shortcut, _join(name, "shortcut"), nodes)
            shortcut = nodes
        out.append(ResidualOp(
            name=name,
            main=Program(tuple(main)),
            shortcut=None if shortcut is None else Program(tuple(shortcut)),
        ))
        return
    if isinstance(module, BNNConvBlock):
        # batch-norm-then-conv, flattened so the stem finder sees the
        # batch-norm as part of the element-wise prefix
        out.append(freeze_batchnorm(module.bn, _join(name, "bn")))
        _lower_into(module.conv, _join(name, "conv"), out)
        return
    if isinstance(module, BinaryConv2D):
        out.append(BinaryConvOp(
            name=name,
            in_channels=module.in_channels,
            out_channels=module.out_channels,
            kernel_size=module.kernel_size,
            stride=module.stride,
            padding=module.padding,
            scaling=module.scaling,
            weight=module.weight.data.copy(),
        ))
        return
    if isinstance(module, BatchNorm2D):
        out.append(freeze_batchnorm(module, name))
        return
    if isinstance(module, Dense):
        weight = module.weight.data
        out.append(DenseOp(
            name=name,
            in_features=int(weight.shape[0]),
            out_features=int(weight.shape[1]),
            weight=weight.copy(),
            bias=None if module.bias is None else module.bias.data.copy(),
        ))
        return
    if isinstance(module, GlobalAvgPool2D):
        out.append(PoolOp(name=name, kind="global_avg"))
        return
    raise LoweringError(
        f"cannot lower layer type {type(module).__name__} to the engine IR",
        layer_type=type(module).__name__,
    )


def lower(model: Module) -> Program:
    """Lower a trained module tree to a flat :class:`Program`.

    Raises :class:`LoweringError` (a :class:`TypeError`) when the tree
    contains a layer type the IR has no node for.
    """
    nodes: list[OpNode] = []
    _lower_into(model, "", nodes)
    return Program(tuple(nodes))


@dataclass(frozen=True)
class PlaneStage:
    """One stage of the program prefix a plane scan can run on a plane.

    A stage is a run of top-level nodes ``program[start:stop]``: any
    element-wise nodes, then one binary convolution or one residual node
    whose branches hold only element-wise nodes and binary
    convolutions.  Every op in it is per-cell and position-independent,
    so running the stage over a whole plane and slicing a window's cells
    out is bit-identical to running it on the window — for every cell
    whose receptive field reads none of the window's padding.

    Geometry is per axis (kernels are square).  Relative to the stage's
    own input, output cell ``o`` reads input cells
    ``[o * stride - reach[0], o * stride + reach[1]]``; ``cum_stride`` and
    ``cum_reach`` give the same relative to the network input.
    """

    start: int  #: index of the stage's first top-level node
    stop: int  #: one past its last top-level node
    in_channels: int
    out_channels: int
    stride: int
    reach: tuple[int, int]
    cum_stride: int
    cum_reach: tuple[int, int]
    #: ``(kernel, stride, padding)`` of every convolution on the main
    #: path from the network input through this stage (output sizes)
    cum_convs: tuple[tuple[int, int, int], ...]
    #: ``(kernel, stride, padding)`` of this stage's own main path
    convs: tuple[tuple[int, int, int], ...]
    #: binary multiply-accumulates per output cell (a cost weight)
    macs: int
    #: activation-scaling modes of the stage's convolutions
    scalings: frozenset[str]

    def size(self, n: int) -> int:
        """Output length of this stage for an input of length ``n``."""
        for k, s, p in self.convs:
            n = conv_output_size(n, k, s, p)
        return n

    def window_size(self, window: int) -> int:
        """Output length of this stage for a network input of ``window``."""
        for k, s, p in self.cum_convs:
            window = conv_output_size(window, k, s, p)
        return window

    def interior(self, window: int) -> tuple[int, int]:
        """``[i0, i1)``: output cells of a ``window`` input that read no
        padding at any depth (clipped; ``i1 <= i0`` when none)."""
        (before, after), s = self.cum_reach, self.cum_stride
        i0 = -(-before // s)
        i1 = min((window - 1 - after) // s + 1, self.window_size(window))
        return i0, max(i1, i0)

    def span(self, a0: int, a1: int, n: int) -> tuple[int, int]:
        """Input cells ``[r0, r1)`` of an ``n``-long input that output
        cells ``[a0, a1)`` read, with ``r0`` a multiple of the stride.

        Running the stage on that slice yields output cell ``a`` at
        index ``a - r0 // stride``.  An end of the slice that is also an
        end of the input pads as the full input would; the cells
        ``[a0, a1)`` read nothing past the other ends, so they come out
        exactly as on the full input.
        """
        (before, after), s = self.reach, self.stride
        r0 = max(0, a0 * s - before) // s * s
        return r0, min(n, (a1 - 1) * s + after + 1)


class _Geometry(NamedTuple):
    """Per-axis geometry of one branch (see :class:`PlaneStage`)."""

    stride: int
    reach: tuple[int, int]
    in_channels: int
    out_channels: int
    convs: tuple[tuple[int, int, int], ...]
    macs: int
    scalings: frozenset[str]


#: an identity shortcut: reads exactly the cell it writes
_IDENTITY = _Geometry(1, (0, 0), 0, 0, (), 0, frozenset())


def _branch_geometry(program: Program) -> _Geometry | None:
    """Geometry of a flat branch; ``None`` when it holds a node a plane
    stage cannot run, or no convolution at all."""
    stride, before, after, macs = 1, 0, 0, 0
    convs, channels, scalings = [], [], set()
    for node in program:
        if is_pointwise(node):
            continue
        if not isinstance(node, (BinaryConvOp, FusedBinaryConvOp)):
            return None
        k, s, p = node.kernel_size, node.stride, node.padding
        if 2 * p > k - 1:
            # wider-than-same padding grows the map past its input (and
            # reads only padding at the rim); never planed
            return None
        before += p * stride
        after += (k - 1 - p) * stride
        stride *= s
        convs.append((k, s, p))
        channels.append((node.in_channels, node.out_channels))
        macs += node.in_channels * k * k * node.out_channels
        scalings.add(node.scaling)
    if not convs:
        return None
    return _Geometry(stride, (before, after), channels[0][0],
                     channels[-1][1], tuple(convs), macs, frozenset(scalings))


def _stage_geometry(node: OpNode) -> _Geometry | None:
    """Geometry of one conv-like top-level node (or ``None``)."""
    if not isinstance(node, ResidualOp):
        return _branch_geometry(Program((node,)))
    main = _branch_geometry(node.main)
    short = (_IDENTITY if node.shortcut is None
             else _branch_geometry(node.shortcut))
    if main is None or short is None or short.stride != main.stride:
        return None
    return main._replace(
        reach=(max(main.reach[0], short.reach[0]),
               max(main.reach[1], short.reach[1])),
        macs=main.macs + short.macs,
        scalings=main.scalings | short.scalings,
    )


def plane_prefix(program: Program) -> tuple[PlaneStage, ...]:
    """The stages of ``program``'s longest plane-able prefix.

    Walks the top-level nodes: element-wise nodes join the next stage,
    and each binary convolution or residual node of plane-able ops
    closes one.  The walk stops at the first other node (pooling, the
    head) or unsupported geometry.  The stem is stage 0; the plane scan
    runs some prefix of these stages once per plane (see
    :class:`~repro.binary.inference.PlaneScanPlan`).
    """
    stages: list[PlaneStage] = []
    cum_stride, cum_before, cum_after = 1, 0, 0
    cum_convs: tuple[tuple[int, int, int], ...] = ()
    start = 0
    for index, node in enumerate(program):
        if is_pointwise(node):
            continue
        geometry = _stage_geometry(node)
        if geometry is None:
            break
        cum_before += geometry.reach[0] * cum_stride
        cum_after += geometry.reach[1] * cum_stride
        cum_stride *= geometry.stride
        cum_convs += geometry.convs
        stages.append(PlaneStage(
            start=start, stop=index + 1,
            in_channels=geometry.in_channels,
            out_channels=geometry.out_channels,
            stride=geometry.stride, reach=geometry.reach,
            cum_stride=cum_stride, cum_reach=(cum_before, cum_after),
            cum_convs=cum_convs, convs=geometry.convs, macs=geometry.macs,
            scalings=geometry.scalings,
        ))
        start = index + 1
    return tuple(stages)
