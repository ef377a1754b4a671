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
* :class:`PlaneScanPlan` — the plane-compiled sliding-window scan,
  built on the stem the IR finder exposes
  (:func:`repro.engine.lower.find_plane_stem`).

Compiled engines are numerically identical to
``model.forward(training=False)`` — verified by the test suite — and
bit-identical to *each other* (verified by ``repro.engine.parity``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..engine.backends import get_backend
from ..engine.executor import Executor, OpTimings
from ..engine.ir import FusedBinaryConvOp, Program
from ..engine.lower import (
    find_plane_stem,
    lower,
    pipeline_signature,
    run_pipeline,
)
from ..nn import functional as F
from ..nn.module import Module
from . import bitpack, quantize

__all__ = ["PlaneScanPlan", "ProgramEngine"]

_Fn = Callable[[np.ndarray], np.ndarray]


def _stem_plane_spec(
    program: Program, executor: Executor, timings: OpTimings
) -> dict | None:
    """Describe the program prefix the plane scan engine can amortize.

    Uses :func:`~repro.engine.lower.find_plane_stem` to locate the stem
    convolution — an optional run of element-wise nodes, then a
    single-input-channel binary convolution with ordinary geometry.
    Returns ``None`` (plan falls back to whole-window slicing) when no
    such stem exists.

    ``pre`` holds the *out-of-place* kernel functions of the prefix
    (the cached plane must never be mutated); ``rest`` wraps the
    remaining kernels in a sub-executor that owns its input (the plan
    hands it freshly assembled stem outputs), sharing the engine's
    timing table so plane scans show up in the per-op breakdown.
    """
    index = find_plane_stem(program)
    if index is None:
        return None
    node = program[index]
    pre = [kernel.fn for kernel in executor.kernels[:index]]
    if isinstance(node, FusedBinaryConvOp):
        # the stem's batch-norm lives inside the fused node now; the
        # plane path still needs it as an element-wise prefix, with the
        # exact out-of-place expressions of the shared batch-norm kernel
        if node.bn_scale is not None:
            scale, shift = node.bn_scale, node.bn_shift

            def bn_plane(x: np.ndarray) -> np.ndarray:
                shape = [1] * x.ndim
                shape[1] = scale.size
                out = x * scale.reshape(shape)
                out += shift.reshape(shape)
                return out

            pre.append(bn_plane)
        if node.w_binary is not None:
            w_binary, alpha_w = node.w_binary, node.alpha_w
        else:
            w_binary, alpha_w = quantize.binarize_weights(node.weight)
    else:
        w_binary, alpha_w = quantize.binarize_weights(node.weight)
    rest_exec = Executor(executor.kernels[index + 1:], timings)
    return {
        "pre": pre,
        "rest": [lambda out: rest_exec.run(out, owned=True)],
        "w_packed": bitpack.pack_filters(w_binary),
        "alpha_w": alpha_w,
        "k": node.kernel_size,
        "stride": node.stride,
        "padding": node.padding,
        "c_out": node.out_channels,
        "scaling": node.scaling,
    }


class PlaneScanPlan:
    """A compiled sliding-window scan over one rasterized plane.

    Built by :meth:`ProgramEngine.plan_scan`.  The plan pre-computes,
    once per plane, everything the stem convolution shares between
    overlapping windows:

    * the element-wise prefix (batch-norm of the stem block) applied to
      the whole plane;
    * per *phase* — the residue ``(origin - padding) mod stride`` along
      each axis — a valid (padding-free) grid of integer XNOR/popcount
      dot products covering every in-plane receptive field, via the
      tiled packed convolution;
    * the matching grid of activation scaling means (Eq. 14/15 of the
      paper), via the tap-ordered :func:`~repro.binary.quantize.box_sums`.

    :meth:`logits` then assembles each window's stem output from plane
    slices (interior cells) plus thin border strips recomputed per
    window with the window's own -1 padding, and runs the remaining
    layers batched.  Because the dot products are exact integers and
    every float operation is element-wise in the same order as the
    per-window kernels, the result is **bit-identical** to
    ``predict_logits`` on the stacked window slices — that equivalence
    is what lets the serving layer swap this path in silently.

    When the model has no plane-able stem the plan still works: it
    slices whole windows out of the plane and runs the full compiled
    network per batch (still amortizing rasterisation).
    """

    def __init__(
        self,
        plane: np.ndarray,
        window: int,
        origins,
        stem: dict | None,
        fn: _Fn,
        backend: str = "",
        pipeline: str = "",
    ):
        #: provenance: the backend name and pass-pipeline signature of
        #: the engine that compiled this plan.  Scan reports and durable
        #: journals record both, so a resume refuses to mix artifacts
        #: produced under different compilation pipelines.
        self.backend = backend
        self.pipeline = pipeline
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
        self._fn = fn
        self._stem = stem if plane.shape[1] == 1 else None
        if self._stem is None:
            return
        k, s, p = stem["k"], stem["stride"], stem["padding"]
        oh = F.conv_output_size(self._window, k, s, p)
        self._oh = oh
        # interior rows/cols: output cells whose receptive field lies
        # fully inside the window (no padding contribution)
        i0 = min(-(-p // s), oh)
        i1 = (self._window + p - k) // s + 1
        self._i0, self._i1 = i0, max(min(i1, oh), i0)
        x = plane
        for f in stem["pre"]:
            x = f(x)
        self._plane_bn = x
        self._plane_abs = np.abs(x) if stem["scaling"] != "none" else None
        self._n_bits = k * k
        self._phases: dict[tuple[int, int], tuple] = {}
        for ox, oy in self._origins:
            self._phase_grids((oy - p) % s, (ox - p) % s)

    @property
    def uses_plane_stem(self) -> bool:
        """Whether the stem runs fully-convolutionally on the plane."""
        return self._stem is not None

    def _phase_grids(self, phy: int, phx: int) -> tuple:
        """Valid-conv dot and scaling grids for one origin phase."""
        grids = self._phases.get((phy, phx))
        if grids is not None:
            return grids
        stem = self._stem
        k, s = stem["k"], stem["stride"]
        sub = self._plane_bn[:, :, phy:, phx:]
        dots = bitpack.binary_conv2d_packed_tiled(
            sub, stem["w_packed"], stem["c_out"], k, s, 0, in_channels=1
        )[0]
        alpha = None
        if self._plane_abs is not None:
            alpha = quantize.box_sums(
                self._plane_abs[:, :, phy:, phx:], k, k, s
            )[0, 0] / (k * k)
        grids = (dots, alpha)
        self._phases[(phy, phx)] = grids
        return grids

    def _border_strip(
        self,
        chunk: list[tuple[int, int]],
        plane: np.ndarray,
        fill: float,
        lo: int,
        hi: int,
        rows: bool,
    ) -> np.ndarray:
        """Batched slice of the -1/0-padded window views, one side.

        Returns rows ``[lo, hi)`` (or columns, when ``rows`` is false) of
        each window's padded view — the exact strip the whole-window
        assembly would cut, without materialising the windows.
        ``fill`` is the padding value (-1 in the sign domain, 0 for the
        |x| plane).
        """
        p, w = self._stem["padding"], self._window
        wp = w + 2 * p
        shape = (
            (len(chunk), 1, hi - lo, wp) if rows else (len(chunk), 1, wp, hi - lo)
        )
        strip = np.full(shape, fill)
        # overlap of the strip with the window interior, in padded coords
        y0, y1 = max(lo, p), min(hi, p + w)
        if y1 <= y0:
            return strip
        for b, (ox, oy) in enumerate(chunk):
            if rows:
                strip[b, 0, y0 - lo : y1 - lo, p : p + w] = plane[
                    0, 0, oy + y0 - p : oy + y1 - p, ox : ox + w
                ]
            else:
                strip[b, 0, p : p + w, y0 - lo : y1 - lo] = plane[
                    0, 0, oy : oy + w, ox + y0 - p : ox + y1 - p
                ]
        return strip

    def _stem_chunk(self, chunk: list[tuple[int, int]]) -> np.ndarray:
        """Assemble stem outputs for a chunk of windows; run the rest."""
        stem = self._stem
        k, s, p = stem["k"], stem["stride"], stem["padding"]
        c_out, oh = stem["c_out"], self._oh
        i0, i1 = self._i0, self._i1
        w = self._window
        dots = np.empty((len(chunk), c_out, oh, oh), dtype=np.float64)
        alpha = (
            np.empty((len(chunk), 1, oh, oh), dtype=np.float64)
            if self._plane_abs is not None
            else None
        )
        if i1 > i0:
            # per-window slice copies: each assignment is a strided
            # memcpy out of the shared phase grid, which beats any
            # fancy-indexed batch gather (those materialise a
            # (c_out, B, ni, ni) temporary plus a transposed copy)
            for b, (ox, oy) in enumerate(chunk):
                phy, phx = (oy - p) % s, (ox - p) % s
                plane_dots, plane_alpha = self._phase_grids(phy, phx)
                qy, qx = (oy - p - phy) // s, (ox - p - phx) // s
                dots[b, :, i0:i1, i0:i1] = plane_dots[
                    :, qy + i0 : qy + i1, qx + i0 : qx + i1
                ]
                if alpha is not None:
                    alpha[b, 0, i0:i1, i0:i1] = plane_alpha[
                        qy + i0 : qy + i1, qx + i0 : qx + i1
                    ]
        if i0 > 0 or i1 < oh:
            # border cells read each window's own -1 padding: recompute
            # them from thin strips of the padded window views, batched
            # across the whole chunk (one packed conv and one box-sum
            # per border side, not per window).  Only the strips are
            # materialised — k-ish rows or columns per side, never the
            # full padded windows.
            for a0, a1, rows in (
                (0, i0, True), (i1, oh, True), (0, i0, False), (i1, oh, False),
            ):
                if a1 <= a0:
                    continue
                lo, hi = a0 * s, (a1 - 1) * s + k
                src = self._border_strip(
                    chunk, self._plane_bn, -1.0, lo, hi, rows
                )
                cols = bitpack._pack_activation_columns(src, k, s, 0)
                shape = (
                    (c_out, len(chunk), a1 - a0, oh)
                    if rows
                    else (c_out, len(chunk), oh, a1 - a0)
                )
                strip = bitpack.packed_conv_dots(
                    cols, stem["w_packed"], self._n_bits
                ).reshape(shape).transpose(1, 0, 2, 3)
                if rows:
                    dots[:, :, a0:a1, :] = strip
                else:
                    dots[:, :, :, a0:a1] = strip
                if alpha is None:
                    continue
                a_src = self._border_strip(
                    chunk, self._plane_abs, 0.0, lo, hi, rows
                )
                a_strip = quantize.box_sums(a_src, k, k, s) / (k * k)
                if rows:
                    alpha[:, :, a0:a1, :] = a_strip
                else:
                    alpha[:, :, :, a0:a1] = a_strip
        # scaling-factor application replicates the per-window kernels'
        # multiply order exactly (element-wise, so batch-independent)
        alpha_w = stem["alpha_w"][None, :, None, None]
        mode = stem["scaling"]
        if mode == "xnor":
            out = dots * alpha_w
            out *= alpha
        elif mode == "channelwise":
            out = dots * alpha
            out *= alpha_w
        else:
            out = dots * alpha_w
        for f in stem["rest"]:
            out = f(out)
        return out

    def logits(self, origins=None, batch_size: int = 256) -> np.ndarray:
        """Class logits for ``origins`` (default: all plan origins).

        ``origins`` may be any subset of the plan's origins — the
        serving layer shards contiguous ranges across workers — and the
        plan is read-only after construction, so concurrent calls are
        safe.  Returns ``(len(origins), num_classes)``.
        """
        chosen = (
            self._origins
            if origins is None
            else [(int(x), int(y)) for x, y in origins]
        )
        if not chosen:
            return np.empty((0, 0), dtype=np.float64)
        w = self._window
        outputs = []
        for start in range(0, len(chosen), batch_size):
            chunk = chosen[start : start + batch_size]
            if self._stem is not None:
                outputs.append(self._stem_chunk(chunk))
            else:
                batch = np.stack(
                    [
                        self._plane[0, :, oy : oy + w, ox : ox + w]
                        for ox, oy in chunk
                    ]
                )
                outputs.append(self._fn(batch))
        return np.concatenate(outputs, axis=0)


class ProgramEngine:
    """A trained model lowered to IR and compiled by a named backend.

    Construction snapshots the model: :func:`~repro.engine.lower.lower`
    copies weights and batch-norm statistics into the IR, the backend
    packs/binarizes them once, and later training of ``model`` does not
    affect the compiled engine.

    Compilation is strict: an unknown ``backend`` raises ``ValueError``
    listing the registered backends, and a model containing a layer the
    IR cannot represent raises :class:`~repro.engine.lower.LoweringError`
    naming the layer type.  ``passes`` selects the optimization pipeline
    (``"default"``, ``"none"``, or a list of pass names — see
    :mod:`repro.engine.passes`).

    Per-op wall-clock timings accumulate in :attr:`op_times` across
    every ``forward`` / ``predict_logits`` / plane-scan call (the table
    is thread-safe; serving drives engines from multiple threads); read
    them with :meth:`op_timings` and clear with
    :meth:`reset_op_timings`.
    """

    def __init__(
        self,
        model: Module,
        backend: str = "packed",
        passes: str | list[str] | tuple[str, ...] | None = "default",
    ):
        compiler = get_backend(backend)  # unknown names fail before lowering
        #: canonical signature of the pass pipeline the program was
        #: compiled under (``"none"`` when run verbatim) — recorded on
        #: scan plans, reports, and checkpoints as provenance
        self.pipeline: str = pipeline_signature(passes)
        self.program: Program = run_pipeline(lower(model), passes)
        self.backend_name = backend
        self.op_times = OpTimings()
        self._executor: Executor = compiler.compile(
            self.program, self.op_times
        )
        self._fn: _Fn = self._executor
        self._stem_spec = _stem_plane_spec(
            self.program, self._executor, self.op_times
        )

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
        :class:`PlaneScanPlan` yields logits bit-identical to
        ``predict_logits`` on the stacked window slices.
        """
        return PlaneScanPlan(
            plane, window, origins, self._stem_spec, self._fn,
            backend=self.backend_name, pipeline=self.pipeline,
        )

    def plan_bytes_per_pixel(self) -> int:
        """Upper bound on the bytes a :meth:`plan_scan` plan holds per
        plane pixel.

        The plan keeps the float64 plane, its stem-prefix copy and,
        unless the stem is unscaled, its |x| plane; per origin phase it
        builds a dot grid (``c_out`` values per stem output cell) and an
        α grid.  A stride-``s`` stem has at most ``s * s`` phases, each
        with one output cell per ``s * s`` pixels, so all phases
        together hold at most one cell per pixel.  Without a plane stem
        the plan holds only the plane.
        """
        stem = self._stem_spec
        if stem is None:
            return 8
        scaled = int(stem["scaling"] != "none")
        return 8 * ((2 + scaled) + (stem["c_out"] + scaled))

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
