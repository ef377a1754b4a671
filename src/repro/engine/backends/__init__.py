"""Backend registry: named compilers from IR programs to kernels.

A backend's job is tiny by design: provide kernels for the two
binarized op types (:class:`~repro.engine.ir.BinaryConvOp`,
:class:`~repro.engine.ir.BinaryDenseOp`) — the ops where an arithmetic
substrate choice exists at all.  Everything else (frozen batch-norm,
activations, pooling, the float head, residual structure) is shared
here in :class:`Backend`, compiled identically for every backend, which
is half of how cross-backend bit-identity is achieved (the other half
is the exact-integer dot-product contract on the binary ops — see
``repro.engine.parity``).

Adding a backend is one module: subclass :class:`Backend`, implement
``compile_binary_conv`` / ``compile_binary_dense``, decorate with
:func:`register_backend`, and import it below.  The parity harness then
picks it up automatically and gates it against every existing backend.
"""

from __future__ import annotations

import numpy as np

from ...nn import functional as F
from ...nn.layers.activations import sign
from .. import ir
from ..executor import Executor, Kernel, OpTimings

__all__ = [
    "Backend",
    "register_backend",
    "get_backend",
    "available_backends",
]

_REGISTRY: dict[str, type["Backend"]] = {}


def register_backend(name: str):
    """Class decorator adding a :class:`Backend` to the registry."""

    def decorate(cls: type["Backend"]) -> type["Backend"]:
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def get_backend(name: str) -> "Backend":
    """Instantiate a backend by name; unknown names list what exists."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r} "
            f"(available: {', '.join(available_backends())})"
        ) from None
    return cls()


class Backend:
    """Base compiler: shared kernels + dispatch to binary-op hooks.

    Every kernel here is written to be bit-identical to the historical
    closure-chain engine (same expression order, same in-place points),
    so rebuilding :class:`~repro.binary.inference.PackedBNN` on the IR
    changed no output byte.
    """

    name = "base"

    # -- binary ops: the substrate choice subclasses make ---------------

    def compile_binary_conv(self, node: ir.BinaryConvOp) -> Kernel:
        raise TypeError(
            f"backend {self.name!r} cannot compile {type(node).__name__}"
        )

    def compile_binary_dense(self, node: ir.BinaryDenseOp) -> Kernel:
        raise TypeError(
            f"backend {self.name!r} cannot compile {type(node).__name__}"
        )

    def compile_fused_conv(self, node: ir.FusedBinaryConvOp) -> Kernel:
        """Reference lowering of a fused op: replay its source nodes.

        Runs the folded batch-norm with the exact expressions of
        :func:`_batchnorm_kernel`, then this backend's own binary-conv
        kernel on the anchor convolution — so any backend is
        automatically bit-identical across {passes on, passes off}.
        """
        conv = self.compile_binary_conv(_unfused_conv(node))
        if node.bn_scale is None:
            return Kernel(node, conv.fn)
        scale, shift = node.bn_scale, node.bn_shift

        def run(x: np.ndarray) -> np.ndarray:
            shape = [1] * x.ndim
            shape[1] = scale.size
            out = x * scale.reshape(shape)
            out += shift.reshape(shape)
            return conv.fn(out)

        def run_inplace(x: np.ndarray) -> np.ndarray:
            shape = [1] * x.ndim
            shape[1] = scale.size
            x *= scale.reshape(shape)
            x += shift.reshape(shape)
            return conv.fn(x)

        # the in-place variant is offered only under the liveness pass's
        # license; the executor's ownership tracking guards it again
        return Kernel(
            node, run, inplace_fn=run_inplace if node.inplace_input else None
        )

    # -- program compilation --------------------------------------------

    def compile(self, program: ir.Program,
                timings: OpTimings | None = None) -> Executor:
        """Compile a program; kernels register timing rows in order.

        Each node's row is registered *before* its kernel is built so
        residual sub-programs (compiled eagerly inside their kernel)
        land after their parent's predecessors — snapshot rows come out
        in program pre-order.
        """
        kernels = []
        for node in program:
            if timings is not None and not isinstance(node, ir.ResidualOp):
                # fused ops register the source layers they absorbed so
                # reports can attribute their time back to paper layers
                timings.register(node.name, getattr(node, "sources", ()))
            kernels.append(self.compile_node(node, timings))
        return Executor(kernels, timings)

    def compile_node(self, node: ir.OpNode,
                     timings: OpTimings | None = None) -> Kernel:
        """Dispatch one IR node to its kernel builder."""
        if isinstance(node, ir.FusedBinaryConvOp):
            return self.compile_fused_conv(node)
        if isinstance(node, ir.BinaryConvOp):
            return self.compile_binary_conv(node)
        if isinstance(node, ir.BinaryDenseOp):
            return self.compile_binary_dense(node)
        if isinstance(node, ir.BatchNormAffine):
            return _batchnorm_kernel(node)
        if isinstance(node, ir.ActivationOp):
            return _activation_kernel(node)
        if isinstance(node, ir.PoolOp):
            return _pool_kernel(node)
        if isinstance(node, ir.ReshapeOp):
            return _reshape_kernel(node)
        if isinstance(node, ir.ConvOp):
            return _conv_kernel(node)
        if isinstance(node, ir.DenseOp):
            return _dense_kernel(node)
        if isinstance(node, ir.ResidualOp):
            return self._residual_kernel(node, timings)
        raise TypeError(
            f"backend {self.name!r} cannot compile {type(node).__name__}"
        )

    def _residual_kernel(self, node: ir.ResidualOp,
                         timings: OpTimings | None) -> Kernel:
        main = self.compile(node.main, timings)
        shortcut = (
            None if node.shortcut is None
            else self.compile(node.shortcut, timings)
        )

        def run(x: np.ndarray) -> np.ndarray:
            # both branches read x, so neither may own it
            out = main.run(x, owned=False)
            return out + (x if shortcut is None else shortcut.run(x, owned=False))

        # timed=False: time is attributed to the branch nodes, not the add
        return Kernel(node, run, timed=False)


def _unfused_conv(node: ir.FusedBinaryConvOp) -> ir.BinaryConvOp:
    """The anchor :class:`~repro.engine.ir.BinaryConvOp` of a fused op."""
    return ir.BinaryConvOp(
        name=node.name,
        in_channels=node.in_channels,
        out_channels=node.out_channels,
        kernel_size=node.kernel_size,
        stride=node.stride,
        padding=node.padding,
        scaling=node.scaling,
        weight=node.weight,
    )


# -- shared structural/float kernels ------------------------------------


def _batchnorm_kernel(node: ir.BatchNormAffine) -> Kernel:
    scale, shift = node.scale, node.shift

    def run(x: np.ndarray) -> np.ndarray:
        shape = [1] * x.ndim
        shape[1] = scale.size
        out = x * scale.reshape(shape)
        out += shift.reshape(shape)  # in-place on the fresh product
        return out

    def run_inplace(x: np.ndarray) -> np.ndarray:
        shape = [1] * x.ndim
        shape[1] = scale.size
        x *= scale.reshape(shape)
        x += shift.reshape(shape)
        return x

    return Kernel(node, run, inplace_fn=run_inplace)


def _activation_kernel(node: ir.ActivationOp) -> Kernel:
    if node.kind == "relu":
        return Kernel(
            node,
            lambda x: np.maximum(x, 0.0),
            inplace_fn=lambda x: np.maximum(x, 0.0, out=x),
        )
    if node.kind == "hardtanh":
        return Kernel(
            node,
            lambda x: np.clip(x, -1.0, 1.0),
            inplace_fn=lambda x: np.clip(x, -1.0, 1.0, out=x),
        )
    if node.kind == "sign":
        return Kernel(node, sign)
    if node.kind == "identity":
        return Kernel(node, lambda x: x, passthrough=True)
    raise TypeError(f"unknown activation kind {node.kind!r}")


def _pool_kernel(node: ir.PoolOp) -> Kernel:
    if node.kind == "max":
        k, s = node.kernel_size, node.stride
        return Kernel(node, lambda x: F.maxpool2d_forward(x, k, s)[0])
    if node.kind == "avg":
        k, s = node.kernel_size, node.stride
        return Kernel(node, lambda x: F.avgpool2d_forward(x, k, s))
    if node.kind == "global_avg":
        return Kernel(node, lambda x: x.mean(axis=(2, 3)))
    raise TypeError(f"unknown pool kind {node.kind!r}")


def _reshape_kernel(node: ir.ReshapeOp) -> Kernel:
    if node.kind != "flatten":
        raise TypeError(f"unknown reshape kind {node.kind!r}")
    # usually a view of the input buffer, hence passthrough
    return Kernel(node, lambda x: x.reshape(x.shape[0], -1), passthrough=True)


def _conv_kernel(node: ir.ConvOp) -> Kernel:
    weight, bias = node.weight, node.bias
    stride, padding = node.stride, node.padding
    return Kernel(
        node, lambda x: F.conv2d_forward(x, weight, bias, stride, padding)[0]
    )


def _dense_kernel(node: ir.DenseOp) -> Kernel:
    weight, bias = node.weight, node.bias
    # einsum (unoptimized) accumulates each output element in a fixed
    # per-row loop order, unlike `x @ weight` where BLAS picks different
    # kernels (gemv vs gemm) by batch size — keeping outputs
    # bit-identical however requests are batched.
    if bias is None:
        return Kernel(node, lambda x: np.einsum("nk,kc->nc", x, weight))
    return Kernel(node, lambda x: np.einsum("nk,kc->nc", x, weight) + bias)


# Import concrete backends last so their @register_backend decorators
# run on package import (each module is one self-contained backend).
from . import float as float_backend  # noqa: E402,F401
from . import packed as packed_backend  # noqa: E402,F401
