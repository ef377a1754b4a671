"""Executor: run a compiled program with buffer reuse and op timings.

A backend compiles each IR node to a :class:`Kernel`.  The executor
chains them with two cross-cutting services the closure-chain engines
could not offer:

**Activation-buffer reuse.**  Element-wise kernels (batch-norm affine,
the fused convolution's batch-norm prologue) may provide an
``inplace_fn`` that mutates its input instead of allocating a fresh
array.  The executor tracks buffer *ownership*: the caller's input is
never mutated, but once any kernel has produced a fresh intermediate
the chain owns it and downstream in-place variants run directly on it.
In-place and out-of-place variants are required to be bit-identical —
NumPy ufuncs with ``out=`` guarantee this — so reuse never changes
results, only allocation traffic.

**Per-op timing hooks.**  When constructed with an :class:`OpTimings`
table the executor wraps each kernel in a wall-clock measurement,
accumulated per node name.  The table is shared by sub-executors
(residual branches) and is thread-safe, because serving engines are
driven concurrently by the micro-batcher and the scan worker pool.
Structural wrapper kernels (residual add) set ``timed=False`` so only
leaf work is measured and branch time is attributed to branch nodes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ir import OpNode

__all__ = ["Kernel", "OpTimings", "Executor"]


@dataclass
class Kernel:
    """One compiled IR node.

    ``fn`` must never mutate its input.  ``inplace_fn``, when provided,
    may mutate and return its input and must be bit-identical to ``fn``;
    the executor only calls it on buffers the chain owns.  Every kernel
    returns a fresh array, so the chain owns its buffer after the first.
    """

    node: OpNode
    fn: Callable[[np.ndarray], np.ndarray]
    inplace_fn: Callable[[np.ndarray], np.ndarray] | None = None
    timed: bool = True


class OpTimings:
    """Thread-safe cumulative wall-clock time per op name.

    Registration order (compile order, i.e. program pre-order) fixes the
    order of :meth:`snapshot` rows so reports read like the network.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._order: list[str] = []
        self._calls: dict[str, int] = {}
        self._seconds: dict[str, float] = {}
        self._sources: dict[str, tuple[str, ...]] = {}

    def register(self, name: str, sources: tuple[str, ...] = ()) -> None:
        """Ensure ``name`` has a row (idempotent).

        ``sources`` names the source-model layers the row accounts for —
        more than one when the row is a fused op.  Reports use it to
        attribute fused-op time back to paper layers; a plain op's row
        defaults to covering just itself.
        """
        with self._lock:
            if name not in self._calls:
                self._order.append(name)
                self._calls[name] = 0
                self._seconds[name] = 0.0
            if sources:
                self._sources[name] = tuple(sources)

    def record(self, name: str, seconds: float) -> None:
        """Accumulate one timed call of ``name``."""
        with self._lock:
            self._calls[name] = self._calls.get(name, 0) + 1
            self._seconds[name] = self._seconds.get(name, 0.0) + seconds

    def snapshot(self) -> list[dict[str, object]]:
        """Per-op rows ``{op, calls, total_ms, mean_ms, sources}`` in
        program order; ``sources`` is ``(op,)`` unless registered wider."""
        with self._lock:
            rows = []
            for name in self._order:
                calls = self._calls[name]
                total_ms = self._seconds[name] * 1e3
                rows.append({
                    "op": name,
                    "calls": calls,
                    "total_ms": total_ms,
                    "mean_ms": total_ms / calls if calls else 0.0,
                    "sources": list(self._sources.get(name, (name,))),
                })
            return rows

    def reset(self) -> None:
        """Zero every counter (rows and their order are kept)."""
        with self._lock:
            for name in self._order:
                self._calls[name] = 0
                self._seconds[name] = 0.0


class Executor:
    """Run a sequence of compiled kernels over one activation buffer."""

    def __init__(self, kernels: list[Kernel], timings: OpTimings | None = None):
        self.kernels = list(kernels)
        self.timings = timings
        if timings is not None:
            for kernel in self.kernels:
                if kernel.timed:
                    timings.register(kernel.node.name)

    def run(self, x: np.ndarray, owned: bool = False) -> np.ndarray:
        """Execute the chain on ``x``.

        ``owned=True`` tells the executor the caller relinquishes ``x``
        (it is a scratch buffer), enabling in-place kernels from the
        first op; the default never mutates the caller's array.
        """
        timings = self.timings
        for kernel in self.kernels:
            fn = kernel.fn
            if owned and kernel.inplace_fn is not None:
                fn = kernel.inplace_fn
            if timings is not None and kernel.timed:
                start = time.perf_counter()
                x = fn(x)
                timings.record(kernel.node.name, time.perf_counter() - start)
            else:
                x = fn(x)
            owned = True
        return x

    __call__ = run
