"""Lowering: one walk of a trained ``Module`` tree emits the IR.

This pass replaces the per-engine ``isinstance`` ladders that used to
live in ``repro.binary.inference`` — every engine (packed, float,
plane-scan) now consumes the same :class:`~repro.engine.ir.Program`,
so structural knowledge about the model zoo lives in exactly one place.

``Sequential`` containers and :class:`~repro.binary.block.BNNConvBlock`
(batch-norm + binary conv) are flattened into the parent program, so a
program is a flat node pipeline except for explicit
:class:`~repro.engine.ir.ResidualOp` branches.  That flatness is what
makes stem detection (:func:`find_plane_stem`) a scan over the node
list instead of a pattern match over layer classes.

Weights and batch-norm statistics are **copied** into the IR: lowering
snapshots the model, so later training never changes a compiled engine.
"""

from __future__ import annotations

import numpy as np

from ..binary.binary_conv import BinaryConv2D
from ..binary.binary_dense import BinaryDense
from ..binary.block import BNNConvBlock
from ..nn.layers.activations import HardTanh, ReLU, SignSTE
from ..nn.layers.batchnorm import BatchNorm2D
from ..nn.layers.container import Sequential
from ..nn.layers.conv import Conv2D
from ..nn.layers.dense import Dense
from ..nn.layers.dropout import Dropout
from ..nn.layers.pooling import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from ..nn.layers.residual import ResidualBlock
from ..nn.layers.shape import Flatten
from ..nn.module import Module
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
    is_pointwise,
)

# Re-exported so callers can treat lowering + optimization as one
# module: ``lower()`` emits the verbatim program, ``run_pipeline()``
# rewrites it (see :mod:`repro.engine.passes` for the pass registry).
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
    "find_plane_stem",
    "DEFAULT_PIPELINE",
    "pipeline_signature",
    "run_pipeline",
    "run_pipeline_snapshots",
]


class LoweringError(TypeError):
    """A module tree contains a layer the IR cannot represent.

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


_ACTIVATION_KINDS: list[tuple[type, str]] = [
    (ReLU, "relu"),
    (HardTanh, "hardtanh"),
    (SignSTE, "sign"),
    (Dropout, "identity"),  # inference-time dropout is the identity
]


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
    if isinstance(module, BinaryDense):
        weight = module.weight.data
        out.append(BinaryDenseOp(
            name=name,
            in_features=int(weight.shape[0]),
            out_features=int(weight.shape[1]),
            scaling=bool(module.scaling),
            weight=weight.copy(),
        ))
        return
    if isinstance(module, BatchNorm2D):
        out.append(freeze_batchnorm(module, name))
        return
    if isinstance(module, Conv2D):
        weight = module.weight.data
        out.append(ConvOp(
            name=name,
            in_channels=int(weight.shape[1]),
            out_channels=int(weight.shape[0]),
            kernel_size=int(weight.shape[2]),
            stride=module.stride,
            padding=module.padding,
            weight=weight.copy(),
            bias=None if module.bias is None else module.bias.data.copy(),
        ))
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
    if isinstance(module, MaxPool2D):
        out.append(PoolOp(name=name, kind="max",
                          kernel_size=module.kernel_size, stride=module.stride))
        return
    if isinstance(module, AvgPool2D):
        out.append(PoolOp(name=name, kind="avg",
                          kernel_size=module.kernel_size, stride=module.stride))
        return
    if isinstance(module, GlobalAvgPool2D):
        out.append(PoolOp(name=name, kind="global_avg"))
        return
    if isinstance(module, Flatten):
        out.append(ReshapeOp(name=name, kind="flatten"))
        return
    for layer_type, kind in _ACTIVATION_KINDS:
        if isinstance(module, layer_type):
            out.append(ActivationOp(name=name, kind=kind))
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


def find_plane_stem(program: Program) -> int | None:
    """Index of the stem convolution the plane-scan engine can amortize.

    The stem is the first non-pointwise node of the program; it
    qualifies when it is a single-input-channel :class:`BinaryConvOp`
    — or the :class:`~repro.engine.ir.FusedBinaryConvOp` the pass
    pipeline folds it into, whose absorbed batch-norm is pointwise and
    so still plane-commuting — with ordinary ``padding < kernel_size``
    geometry.  Returns ``None`` otherwise — the plane scan then falls
    back to whole-window slicing.
    """
    index = 0
    while index < len(program) and is_pointwise(program[index]):
        index += 1
    if index >= len(program):
        return None
    node = program[index]
    if not isinstance(node, (BinaryConvOp, FusedBinaryConvOp)):
        return None
    if node.in_channels != 1 or node.padding >= node.kernel_size:
        return None
    return index
