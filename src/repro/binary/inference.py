"""Inference engines: lowered IR programs behind one engine class.

Every engine here is a thin shell over the :mod:`repro.engine` stack —
a trained model is lowered **once** to the typed op-graph IR
(:func:`repro.engine.lower.lower`), compiled by a named backend from
the registry, and executed with per-op timing hooks:

* :class:`ProgramEngine` — one compiled model.  ``backend="packed"``
  (the default) runs bit-packed XNOR/popcount kernels, the paper's
  deployment story (training simulates binarization in float,
  inference runs on binary arithmetic); ``backend="float"`` runs
  deployment float MACs over sign values, the bit-identical reference.
* :class:`PlaneScanPlan` — the plane-compiled sliding-window scan: a
  prefix of the network (the stem, then whole residual stages, as
  :func:`repro.engine.lower.plane_prefix` finds them) runs once over
  the plane, and each window assembles its prefix output from plane
  cells plus recomputed border bands.

Compiled engines are numerically identical to
``model.forward(training=False)`` — verified by the test suite — and
bit-identical to *each other* (verified by ``repro.engine.parity``).
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from ..engine.backends import get_backend
from ..engine.executor import Executor, OpTimings
from ..engine.ir import Program
from ..engine.lower import (
    lower,
    pipeline_signature,
    plane_prefix,
    run_pipeline,
)
from ..nn.module import Module
from . import bitpack

__all__ = ["PlaneScanPlan", "ProgramEngine"]

_Fn = Callable[[np.ndarray], np.ndarray]

def _phase_cells(stride: int) -> float:
    """Upper bound on one phase's cells per plane pixel at a cumulative
    ``stride``.

    A stage's phase plane is ``ceil(h / s)`` cells tall at most, and a
    plan planes a stage only on planes at least ``8 * (s - 1)`` pixels
    on a side (:meth:`PlaneScanPlan.max_depth`), where
    ``ceil(h / s) <= (h + s - 1) / s <= 1.125 * h / s``.
    """
    return 1.0 if stride == 1 else (1.125 / stride) ** 2


class _Prefix:
    """The plane-able stages of a compiled program, with their kernels.

    ``runs[j]`` runs stage ``j`` (the engine's own kernels for its
    top-level nodes); ``rests[d]`` runs everything after a depth-``d``
    prefix.  Both share the engine's timing table, so plane passes and
    border strips show up under the same per-op rows as per-window runs.
    """

    def __init__(self, program: Program, executor: Executor,
                 timings: OpTimings):
        self.stages = plane_prefix(program)
        kernels = executor.kernels
        self.runs = [
            Executor(kernels[stage.start:stage.stop], timings)
            for stage in self.stages
        ]
        self.rests = [
            Executor(kernels[stop:], timings)
            for stop in [0] + [stage.stop for stage in self.stages]
        ]


class PlaneScanPlan:
    """A compiled sliding-window scan over one rasterized plane.

    Built by :meth:`ProgramEngine.plan_scan`.  The plan runs a prefix of
    ``depth`` stages (:func:`~repro.engine.lower.plane_prefix`: the stem,
    then whole residual nodes) **once per plane** and the rest of the
    network per window:

    * per *phase* — the origin residue modulo the prefix's cumulative
      stride — each prefix stage runs over the whole plane with the
      engine's own kernels, in row bands that keep every packed-column
      buffer within the tiled kernel's budget;
    * a window's output at stage ``j`` then comes from two sources: the
      plane's cells for its *interior* (the cells whose receptive field
      reads none of the window's padding), and border bands recomputed
      by the same stage kernels from stride-aligned strips of the
      window's stage ``j - 1`` output — itself assembled the same way,
      down to slices of the plane — batched across the chunk.

    Every op in a stage is per-cell and position-independent (element-
    wise batch-norm, sign and residual add; exact-integer dots;
    tap-ordered box sums; channel sums in a fixed order), so the result
    is **bit-identical** to ``predict_logits`` on the stacked window
    slices.  ``depth`` 0 is the whole-window path: windows are sliced
    out of the plane and the full network runs per chunk.

    :meth:`ProgramEngine.plan_scan` picks the depth with the lowest
    estimated cost (:meth:`_cheapest_depth`); the constructor takes an
    explicit ``depth`` up to :attr:`max_depth`.  The plan keeps the
    plane and one phase's stage planes at a time.
    """

    def __init__(
        self,
        plane: np.ndarray,
        window: int,
        origins,
        prefix: _Prefix,
        depth: int | None = None,
    ):
        plane = np.asarray(plane, dtype=np.float64)
        if plane.ndim == 2:
            plane = plane[None, None]
        if plane.ndim != 4 or plane.shape[0] != 1:
            raise ValueError(
                f"expected one plane (h, w) or (1, c, h, w), got {plane.shape}"
            )
        self._plane = plane
        self._window = int(window)
        self._origins = [(int(x), int(y)) for x, y in origins]
        height, width = plane.shape[2], plane.shape[3]
        for ox, oy in self._origins:
            if not (0 <= ox <= width - self._window
                    and 0 <= oy <= height - self._window):
                raise ValueError(
                    f"window origin ({ox}, {oy}) out of plane bounds"
                )
        self._prefix = prefix
        #: per plane-able stage: (window output side, interior i0, i1)
        self._geometry = self._stage_geometry()
        if depth is None:
            depth = self._cheapest_depth()
        elif not 0 <= depth <= self.max_depth:
            raise ValueError(
                f"depth {depth} outside 0..{self.max_depth} for this plan"
            )
        #: number of prefix stages run once per plane
        self.depth = depth
        self._lock = threading.Lock()
        self._cached: tuple[tuple[int, int], list[np.ndarray]] | None = None
        if depth and self._origins:
            ox, oy = self._origins[0]
            self._phase_planes(self._phase(ox, oy))

    @property
    def max_depth(self) -> int:
        """Deepest prefix this plane and window allow: stages no wider
        in stride than the window, each with a non-empty interior, on a
        plane at least ``8 * (stride - 1)`` pixels on a side (which
        keeps the footprint of :meth:`ProgramEngine.plan_bytes_per_pixel`)."""
        return len(self._geometry)

    def _stage_geometry(self) -> list[tuple[int, int, int]]:
        stages = self._prefix.stages
        if not stages or self._plane.shape[1] != stages[0].in_channels:
            return []
        geometry = []
        for stage in stages:
            if stage.cum_stride > self._window or min(
                self._plane.shape[2:]
            ) < 8 * (stage.cum_stride - 1):
                break
            try:
                side = stage.window_size(self._window)
            except ValueError:  # the window does not reach this stage
                break
            i0, i1 = stage.interior(self._window)
            if i1 <= i0:
                break
            geometry.append((side, i0, i1))
        return geometry

    def _input_side(self, j: int) -> int:
        """Window side at stage ``j``'s input (the window for ``j = 0``)."""
        return self._geometry[j - 1][0] if j else self._window

    def _border(self, j: int, y0: int, y1: int, x0: int, x1: int):
        """Split region ``[y0, y1) x [x0, x1)`` of stage ``j``'s window
        output into its interior rectangle and up to four border bands."""
        _, i0, i1 = self._geometry[j]
        my0, my1 = max(y0, i0), min(y1, i1)
        mx0, mx1 = max(x0, i0), min(x1, i1)
        bands = [
            (y0, min(y1, i0), x0, x1), (max(y0, i1), y1, x0, x1),
            (my0, my1, x0, min(x1, i0)), (my0, my1, max(x0, i1), x1),
        ]
        return (
            (my0, my1, mx0, mx1),
            [b for b in bands if b[0] < b[1] and b[2] < b[3]],
        )

    def _cheapest_depth(self) -> int:
        """The depth with the lowest estimated cost for these origins.

        A stage run per window costs its output cells times its
        multiply-accumulates per cell; planed, it costs the cells of one
        plane pass per phase in use plus every window's border-band
        strips.  Unplaned stages keep their per-window cost.
        """
        stages, n = self._prefix.stages, len(self._origins)
        if not self._geometry or not n:
            return 0
        height, width = self._plane.shape[2], self._plane.shape[3]
        window_cost, strip_cost = [], []
        for j, (side, _, _) in enumerate(self._geometry):
            stage, n_in = stages[j], self._input_side(j)
            window_cost.append(stage.macs * n * side * side)
            cells = 0
            for y0, y1, x0, x1 in self._border(j, 0, side, 0, side)[1]:
                sy0, sy1 = stage.span(y0, y1, n_in)
                sx0, sx1 = stage.span(x0, x1, n_in)
                cells += stage.size(sy1 - sy0) * stage.size(sx1 - sx0)
            strip_cost.append(stage.macs * n * cells)
        best, best_cost = 0, sum(window_cost)
        for depth in range(1, len(self._geometry) + 1):
            stride = stages[depth - 1].cum_stride
            phases = {(oy % stride, ox % stride) for ox, oy in self._origins}
            cost = sum(window_cost[depth:]) + sum(strip_cost[:depth])
            for stage in stages[:depth]:
                cost += stage.macs * sum(
                    stage.window_size(height - py)
                    * stage.window_size(width - px)
                    for py, px in phases
                )
            if cost < best_cost:
                best, best_cost = depth, cost
        return best

    def _phase(self, ox: int, oy: int) -> tuple[int, int]:
        if not self.depth:
            return 0, 0
        stride = self._prefix.stages[self.depth - 1].cum_stride
        return oy % stride, ox % stride

    def _phase_planes(self, phase: tuple[int, int]) -> list[np.ndarray]:
        """Each prefix stage's output over the plane, for one phase.

        The plane is cut at the phase offset, so cell ``q`` of stage
        ``j``'s plane is cell ``q - (origin - phase) // cum_stride`` of
        every window in the phase.  One phase is kept at a time.
        """
        with self._lock:
            if self._cached is not None and self._cached[0] == phase:
                return self._cached[1]
            self._cached = None  # never hold two phases at once
        phy, phx = phase
        x = self._plane[:, :, phy:, phx:]
        planes = []
        for j in range(self.depth):
            x = self._run_plane(j, x)
            planes.append(x)
        with self._lock:
            self._cached = (phase, planes)
        return planes

    def _run_plane(self, j: int, x: np.ndarray) -> np.ndarray:
        """Stage ``j`` over a whole plane, in row bands of at most
        :data:`~repro.binary.bitpack.MAX_COLS` input cells (the plane
        is never mutated)."""
        stage, run = self._prefix.stages[j], self._prefix.runs[j]
        height, width = x.shape[2], x.shape[3]
        rows = max(1, bitpack.MAX_COLS // width)
        if height <= rows:
            return run.run(x, owned=False)
        (before, after), s = stage.reach, stage.stride
        step = max(1, (rows - before - after - s) // s + 1)
        side = stage.size(height)
        out = None
        for a0 in range(0, side, step):
            a1 = min(a0 + step, side)
            r0, r1 = stage.span(a0, a1, height)
            band = run.run(x[:, :, r0:r1], owned=False)
            if out is None:
                out = np.empty(band.shape[:2] + (side, band.shape[3]))
            out[:, :, a0:a1] = band[:, :, a0 - r0 // s : a1 - r0 // s]
        return out

    def _values(self, j, chunk, planes, phase, y0, y1, x0, x1) -> np.ndarray:
        """Stage ``j``'s window outputs over ``[y0, y1) x [x0, x1)`` for
        every window of ``chunk`` (``j = -1``: the window inputs)."""
        if j < 0:
            out = np.empty(
                (len(chunk), self._plane.shape[1], y1 - y0, x1 - x0)
            )
            for b, (ox, oy) in enumerate(chunk):
                out[b] = self._plane[0, :, oy + y0 : oy + y1,
                                     ox + x0 : ox + x1]
            return out
        stage = self._prefix.stages[j]
        out = np.empty((len(chunk), stage.out_channels, y1 - y0, x1 - x0))
        (my0, my1, mx0, mx1), bands = self._border(j, y0, y1, x0, x1)
        if my0 < my1 and mx0 < mx1:
            # per-window slice copies: each is a strided memcpy out of
            # the shared plane, cheaper than any fancy-indexed gather
            plane, s = planes[j], stage.cum_stride
            phy, phx = phase
            for b, (ox, oy) in enumerate(chunk):
                qy, qx = (oy - phy) // s, (ox - phx) // s
                out[b, :, my0 - y0 : my1 - y0, mx0 - x0 : mx1 - x0] = plane[
                    0, :, qy + my0 : qy + my1, qx + mx0 : qx + mx1
                ]
        n_in, s = self._input_side(j), stage.stride
        for by0, by1, bx0, bx1 in bands:
            sy0, sy1 = stage.span(by0, by1, n_in)
            sx0, sx1 = stage.span(bx0, bx1, n_in)
            strip = self._prefix.runs[j].run(
                self._values(j - 1, chunk, planes, phase, sy0, sy1, sx0, sx1),
                owned=True,
            )
            oy0, ox0 = sy0 // s, sx0 // s
            out[:, :, by0 - y0 : by1 - y0, bx0 - x0 : bx1 - x0] = strip[
                :, :, by0 - oy0 : by1 - oy0, bx0 - ox0 : bx1 - ox0
            ]
        return out

    def logits(self, origins=None, batch_size: int = 256) -> np.ndarray:
        """Class logits for ``origins`` (default: all plan origins).

        ``origins`` may be any in-bounds origins, not only the plan's;
        windows are grouped by phase and scored in chunks of
        ``batch_size``, and every window's logits are independent of the
        grouping.  Concurrent calls are safe.  Returns
        ``(len(origins), num_classes)``.
        """
        chosen = (
            self._origins
            if origins is None
            else [(int(x), int(y)) for x, y in origins]
        )
        if not chosen:
            return np.empty((0, 0), dtype=np.float64)
        groups: dict[tuple[int, int], list[int]] = {}
        for index, (ox, oy) in enumerate(chosen):
            groups.setdefault(self._phase(ox, oy), []).append(index)
        rest = self._prefix.rests[self.depth]
        side = self._input_side(self.depth)
        out = None
        for phase, indices in groups.items():
            planes = self._phase_planes(phase)
            for start in range(0, len(indices), batch_size):
                rows = indices[start : start + batch_size]
                x = self._values(
                    self.depth - 1, [chosen[i] for i in rows], planes,
                    phase, 0, side, 0, side,
                )
                result = rest.run(x, owned=True)
                if out is None:
                    out = np.empty((len(chosen),) + result.shape[1:])
                out[rows] = result
        return out


class ProgramEngine:
    """A trained model lowered to IR and compiled by a named backend.

    Construction snapshots the model: :func:`~repro.engine.lower.lower`
    copies weights and batch-norm statistics into the IR, the backend
    packs/binarizes them once, and later training of ``model`` does not
    affect the compiled engine.

    Compilation is strict: an unknown ``backend`` raises ``ValueError``
    listing the registered backends, and a model containing a layer the
    IR cannot represent raises :class:`~repro.engine.lower.LoweringError`
    naming the layer type.  The lowered program always runs the default
    pass pipeline (:data:`~repro.engine.passes.DEFAULT_PIPELINE`).

    Per-op wall-clock timings accumulate in :attr:`op_times` across
    every ``forward`` / ``predict_logits`` / plane-scan call (the table
    is thread-safe; serving drives engines from multiple threads); read
    them with :meth:`op_timings` and clear with
    :meth:`reset_op_timings`.
    """

    def __init__(self, model: Module, backend: str = "packed"):
        compiler = get_backend(backend)  # unknown names fail before lowering
        #: signature of the pass pipeline the program was compiled under
        #: — recorded on serving entries, scan reports and journals as
        #: provenance
        self.pipeline: str = pipeline_signature("default")
        self.program: Program = run_pipeline(lower(model))
        self.backend_name = backend
        self.op_times = OpTimings()
        self._executor: Executor = compiler.compile(
            self.program, self.op_times
        )
        self._fn: _Fn = self._executor
        self._prefix = _Prefix(self.program, self._executor, self.op_times)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the compiled network on a batch."""
        return self._fn(x)

    __call__ = forward

    def predict_logits(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Batched inference over a full array of images."""
        outputs = [
            self._fn(images[start : start + batch_size])
            for start in range(0, images.shape[0], batch_size)
        ]
        return np.concatenate(outputs, axis=0)

    def plan_scan(self, plane: np.ndarray, window: int, origins) -> PlaneScanPlan:
        """Compile a sliding-window scan over a rasterized plane.

        ``plane`` is the full-layout network input (``(h, w)`` or
        ``(1, c, h, w)``, already in the ±1 domain); ``window`` the
        window side in plane pixels; ``origins`` the ``(x, y)`` pixel
        origins of the windows to score.  The returned
        :class:`PlaneScanPlan` runs the prefix depth with the lowest
        estimated cost for these origins and yields logits
        bit-identical to ``predict_logits`` on the stacked window
        slices.
        """
        return PlaneScanPlan(plane, window, origins, self._prefix)

    def plan_bytes_per_pixel(self) -> int:
        """Upper bound on the bytes a :meth:`plan_scan` plan holds per
        plane pixel while it builds and keeps its plane passes.

        Held: the float64 plane and, for one phase at a time, every
        prefix stage's output plane (:func:`_phase_cells` cells per
        pixel each, for the deepest prefix).  Transient: one stage pass
        over the plane allocates at most the backend's
        :attr:`~repro.engine.backends.Backend.plane_scratch` times the
        bytes of that stage's input and output planes.  Per-chunk
        window buffers scale with the batch, not the plane, and are not
        counted.
        """
        return int(np.ceil(self._plan_footprint()[1]))

    def _plan_footprint(self) -> tuple[float, float]:
        """``(held, held + transient)`` bytes per plane pixel."""
        stages = self._prefix.stages
        if not stages:
            return 8.0, 8.0
        held = [stages[0].in_channels] + [
            stage.out_channels * _phase_cells(stage.cum_stride)
            for stage in stages
        ]
        scratch = get_backend(self.backend_name).plane_scratch
        passes = [
            max(scratch[mode] for mode in stage.scalings)
            * (held[j] + held[j + 1])
            for j, stage in enumerate(stages)
        ]
        return 8 * sum(held), 8 * (sum(held) + max(passes))

    def scan_plane(
        self, plane: np.ndarray, window: int, origins, batch_size: int = 256
    ) -> np.ndarray:
        """One-shot :meth:`plan_scan` + :meth:`PlaneScanPlan.logits`."""
        return self.plan_scan(plane, window, origins).logits(
            batch_size=batch_size
        )

    def op_timings(self) -> list[dict[str, object]]:
        """Cumulative per-op timing rows (program order) since the last
        :meth:`reset_op_timings`."""
        return self.op_times.snapshot()

    def reset_op_timings(self) -> None:
        """Zero the per-op timing table."""
        self.op_times.reset()


#: the former name of the by-backend-name constructor, kept importable
engine_for_backend = ProgramEngine
