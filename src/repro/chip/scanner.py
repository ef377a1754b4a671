"""Streaming full-chip scanner with incremental ECO re-scan.

:class:`ChipScanner` runs the sliding-window hotspot sweep over
layouts that do **not** fit in memory as one plane.  The sweep is cut
into halo-correct tiles (:mod:`repro.chip.tiling`); each tile is
rasterized from a spatial index (:mod:`repro.chip.index`) via
:func:`repro.litho.raster.rasterize_region` and scored through the
engine's plane-compiled scan (:meth:`plan_scan`).  Both the raster and
the per-window logits are bit-identical to a monolithic scan of the
whole layout — streaming is purely a memory shape, never a numerics
change — and the peak tile plane is bounded by ``tile_budget`` bytes
(tracked, reported as ``peak_tile_bytes``).  The serving layer's
``scan`` and ``scan_chip`` both run this sweep.

The incremental path closes the edit→verify ECO loop:
:meth:`ChipScanner.rescan` takes a previous :class:`ChipScanResult`
plus a :class:`~repro.litho.fullchip.LayoutEdit` list, computes the
dirty window set (:class:`~repro.chip.eco.DirtyRegionTracker`),
updates the spatial index in ``O(edit)``, re-scores **only** the dirty
windows, and merges them into a copy of the previous heatmap — a
result bit-identical to a from-scratch scan of the edited layout at a
small fraction of the cost.

Every full sweep scores each distinct window raster once: windows are
keyed by their packed sign bits, one representative per key goes to
the engine, and its score is scattered to every origin with the same
raster (logits depend on the raster alone and the engine is
batch-invariant, so this is exact).  The key→score memo lives only for
the sweep; see :meth:`ChipScanJob.scoring`.  A re-scan, and the
serving layer's ``scan`` of distinct layouts, open no memo and score
each window themselves.

An optional region-keyed plane cache (the chip mode of
:class:`repro.serve.cache.PlaneCache`, duck-typed here: any object
with ``get_chip_tile`` / ``invalidate_chip_regions``) carries tile
planes across scans of the same session token; a re-scan invalidates
exactly the entries whose region the edit touched.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from threading import Lock
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..features.downsample import to_network_input
from ..litho.fullchip import LayoutEdit, apply_edits
from ..litho.geometry import Clip, Rect
from ..litho.raster import rasterize_region
from .eco import DirtyRegionTracker
from .heatmap import HotspotHeatmap
from .index import RectIndex
from .tiling import TileGrid, TileSpec, plan_tiles

__all__ = ["ChipScanner", "ChipScanJob", "ChipScanResult",
           "DEFAULT_TILE_BUDGET", "scan_logits"]

#: Default tile-plane budget: 64 MiB of float64 raster per tile.
DEFAULT_TILE_BUDGET = 64 * 2**20

#: Spatial-index bucket side in nm (the tile scale of typical scans;
#: any positive value is correct).
INDEX_BUCKET = 4096

#: Key bytes one call's score memo may hold (128 B per key at 32 px);
#: past it, new windows are still scored but no longer remembered.
_MEMO_KEY_BYTES = 16 * 2**20


def scan_logits(
    engine, plane: np.ndarray, window_px: int,
    origins: list[tuple[int, int]], batch_size: int,
) -> np.ndarray:
    """Logits of the ``window_px`` windows at ``origins`` of one plane.

    The one engine call of every tile sweep, in-process and on the
    fleet's workers alike.  It picks whichever path is cheaper for that
    many windows: small sets slice their windows out of the plane and
    run the batched engine, large ones use a plane plan, whose
    per-phase grids cover the whole plane.  Both are bit-identical (the
    plan's contract), so the crossover is purely a cost choice.
    """
    w = window_px
    if len(origins) * w * w < plane.shape[2] * plane.shape[3]:
        # fewer window pixels than plane pixels, so the stack stays
        # inside the tile budget
        windows = np.stack(
            [plane[0, :, oy:oy + w, ox:ox + w] for ox, oy in origins]
        )
        return engine.predict_logits(windows, batch_size)
    return engine.plan_scan(plane, w, origins).logits(batch_size=batch_size)


class _ScoreMemo:
    """Window-raster key → score for one sweep.

    Guarded by the owning job's lock.  ``rows`` counts the windows
    actually sent to the engine.
    """

    def __init__(self):
        self.scores: dict[bytes, float] = {}
        self.key_bytes = 0
        self.rows = 0


class ChipScanJob:
    """A compiled streaming sweep: tile grid + spatial index + engine.

    Tiles are independent and the job is read-only while scoring, so
    :meth:`score_tile` may be called concurrently from a worker pool
    (the serving layer scores one tile per pool shard).
    ``peak_tile_bytes`` tracks the largest tile plane
    actually rasterized, under a lock, and so is the score memo that
    calls inside one :meth:`scoring` block share.
    """

    def __init__(self, scanner: "ChipScanner", layout: Clip,
                 grid: TileGrid, index: RectIndex, token: str | None):
        self.scanner = scanner
        self.layout = layout
        self.grid = grid
        self.index = index
        self.token = token
        self.peak_tile_bytes = 0
        self._lock = Lock()
        self._memo: _ScoreMemo | None = None

    @property
    def tiles(self) -> tuple[TileSpec, ...]:
        """The planned tiles, row-major over the origin grid."""
        return self.grid.tiles

    def _note_plane(self, plane: np.ndarray) -> None:
        with self._lock:
            if plane.nbytes > self.peak_tile_bytes:
                self.peak_tile_bytes = plane.nbytes

    def _raster(self, region: Rect) -> np.ndarray:
        """One region's ``(h, w)`` 0/1 layout raster."""
        return rasterize_region(
            self.index.query(region), region, self.grid.scale, "binary"
        )

    def _build_plane(self, region: Rect) -> np.ndarray:
        """Rasterize one region into the engine's ±1 input domain."""
        return to_network_input(self._raster(region)[None])

    def _region_plane(self, region: Rect) -> np.ndarray:
        cache = self.scanner.plane_cache
        if cache is not None and self.token is not None:
            plane = cache.get_chip_tile(
                self.token, region, self.grid.scale, "binary",
                lambda: self._build_plane(region),
            )
        else:
            plane = self._build_plane(region)
        self._note_plane(plane)
        return plane

    def _local_origin(self, region: Rect, i: int, j: int) -> tuple[int, int]:
        steps, scale = self.grid.steps, self.grid.scale
        return ((steps[i] - region.x0) // scale,
                (steps[j] - region.y0) // scale)

    def _fault_wrapped(self, fn):
        """Thread a scoring call through the scanner's ``"engine"`` fault
        site (chaos testing); identity when no injector is attached."""
        faults = self.scanner.faults
        if faults is None:
            return fn
        return faults.wrap("engine", fn)

    @contextmanager
    def scoring(self) -> Iterator[_ScoreMemo]:
        """Share one score memo across the scoring calls of the block.

        A full sweep wraps all its tiles in this block, so a window
        raster scored in one tile is reused by every later tile of the
        same call.  The memo is dropped when the block exits: nothing
        is carried to the next call, and a returned
        :class:`ChipScanResult` (which holds the job) keeps no scores.
        One block at a time per job; opening a second raises
        ``RuntimeError``.  Outside a block every window is scored
        itself.  Yields the memo, whose ``rows`` count the engine's
        windows.
        """
        memo = _ScoreMemo()
        with self._lock:
            if self._memo is not None:
                raise RuntimeError("a scoring block is already open")
            self._memo = memo
        try:
            yield memo
        finally:
            with self._lock:
                self._memo = None

    def score_tile(self, tile: TileSpec) -> np.ndarray:
        """Score every window of one tile; returns ``(ny, nx)`` scores."""
        return self._fault_wrapped(self._score_tile)(tile)

    def tile_origins(self, tile: TileSpec) -> list[tuple[int, int]]:
        """Plane-local origins of one tile's windows, row-major."""
        return [
            self._local_origin(tile.region, i, j)
            for j in range(tile.iy0, tile.iy1)
            for i in range(tile.ix0, tile.ix1)
        ]

    def tile_raster(self, tile: TileSpec) -> np.ndarray:
        """One tile's ``(h, w)`` 0/1 layout raster; its network input
        is :func:`~repro.features.downsample.to_network_input` of it."""
        return self._raster(tile.region)

    def _score_tile(self, tile: TileSpec) -> np.ndarray:
        scores = self._score(self._region_plane(tile.region),
                             self.tile_origins(tile))
        return scores.reshape(tile.iy1 - tile.iy0, tile.ix1 - tile.ix0)

    def score_origins(
        self, region: Rect, plane: np.ndarray,
        indices: list[tuple[int, int]],
    ) -> np.ndarray:
        """Score an arbitrary origin subset against one region plane.

        Same path as :meth:`score_tile`: inside a :meth:`scoring`
        block only windows whose raster the memo has not seen reach
        the engine, one per distinct raster; outside one (a re-scan)
        every window does.  Either way the engine call slices the
        windows or runs a plane plan, whichever is cheaper for that
        many windows.
        """
        return self._fault_wrapped(self._score_origins)(
            region, plane, indices
        )

    def _score_origins(
        self, region: Rect, plane: np.ndarray,
        indices: list[tuple[int, int]],
    ) -> np.ndarray:
        return self._score(
            plane, [self._local_origin(region, i, j) for i, j in indices]
        )

    def _window_keys(
        self, plane: np.ndarray, origins: list[tuple[int, int]]
    ) -> np.ndarray:
        """Each window's packed sign bits as one raw-bytes (``void``)
        key per origin: equal keys ⇔ equal rasters.

        Exact because :meth:`_build_plane` only yields ±1 pixels.
        """
        w, step = self.scanner.image_size, self.scanner.batch_size
        views = sliding_window_view(plane[0] > 0, (w, w), axis=(1, 2))
        chunks = []
        for start in range(0, len(origins), step):
            xs, ys = zip(*origins[start:start + step])
            windows = views[:, list(ys), list(xs)]
            chunks.append(np.packbits(
                np.moveaxis(windows, 1, 0).reshape(len(xs), -1), axis=1
            ))
        packed = np.concatenate(chunks)
        return packed.view(f"V{packed.shape[1]}").ravel()

    def _score(
        self, plane: np.ndarray, origins: list[tuple[int, int]]
    ) -> np.ndarray:
        """The one scoring path: key, look up, score new keys, scatter.

        Inside a :meth:`scoring` block each distinct raster the memo
        lacks is scored once; outside one every window is scored, each
        through :func:`scan_logits`.  Scores enter the memo only after
        every engine call here succeeded.
        """
        memo = self._memo
        if memo is None:
            return self._engine_scores(plane, origins)
        distinct, firsts, inverse = np.unique(
            self._window_keys(plane, origins),
            return_index=True, return_inverse=True,
        )
        keys = distinct.tolist()  # bytes, only for the distinct windows
        with self._lock:
            scores = np.array([memo.scores.get(key, np.nan) for key in keys])
        missing = np.flatnonzero(np.isnan(scores))
        if missing.size:
            fresh = self._engine_scores(
                plane, [origins[first] for first in firsts[missing]]
            )
            scores[missing] = fresh
            with self._lock:
                memo.rows += missing.size
                for slot, score in zip(missing.tolist(), fresh.tolist()):
                    key = keys[slot]
                    if key in memo.scores:
                        continue  # another worker raced us to it
                    if memo.key_bytes + len(key) > _MEMO_KEY_BYTES:
                        break
                    memo.scores[key] = score
                    memo.key_bytes += len(key)
        return scores[inverse]

    def _engine_scores(
        self, plane: np.ndarray, origins: list[tuple[int, int]]
    ) -> np.ndarray:
        scanner = self.scanner
        logits = scan_logits(scanner.engine, plane, scanner.image_size,
                             origins, scanner.batch_size)
        return logits[:, 1] - logits[:, 0]

    def empty_scores(self) -> np.ndarray:
        """A NaN-filled origin grid (NaN = not scored)."""
        n = len(self.grid.steps)
        return np.full((n, n), np.nan)

    def heatmap(self, scores: np.ndarray) -> HotspotHeatmap:
        """Wrap a filled origin grid as a :class:`HotspotHeatmap`."""
        return HotspotHeatmap(
            layout_size=self.grid.layout_size, window=self.grid.window,
            stride=self.grid.stride, steps=self.grid.steps, scores=scores,
        )


@dataclass
class ChipScanResult:
    """One streamed sweep: the heatmap plus its provenance and costs.

    Holds the compiled job so the ECO loop can chain:
    ``scanner.rescan(result, edits)`` updates the job's spatial index
    *in place* — after a re-scan, the previous result's job reflects
    the edited layout, so keep only the newest result of a session.
    """

    layout: Clip
    heatmap: HotspotHeatmap
    job: ChipScanJob
    tile_budget: int
    tiles: int
    windows: int
    peak_tile_bytes: int
    wall_s: float
    #: windows re-scored by the incremental path (None for a full scan)
    rescored_windows: int | None = None
    token: str | None = None
    #: tile indices whose scoring failed (tolerant paths leave them NaN)
    failed_tiles: tuple[int, ...] = ()
    #: per-call counters: ``"scored_windows"`` (windows the engine ran:
    #: one per distinct raster on a sweep, each dirty window on a
    #: re-scan) on every path, a re-scan's ``"retries"`` (tile scoring
    #: re-attempts), and the durable path's replay/retry/quarantine
    #: counters
    stats: dict[str, object] = field(default_factory=dict)

    def summary(self, bias: float = 0.0) -> dict[str, object]:
        """Heatmap summary extended with streaming cost counters."""
        out = self.heatmap.summary(bias)
        out.update(
            tiles=self.tiles,
            tile_budget=self.tile_budget,
            peak_tile_bytes=self.peak_tile_bytes,
            wall_s=self.wall_s,
            rescored_windows=self.rescored_windows,
        )
        return out


class ChipScanner:
    """Bounded-memory streaming scan of arbitrarily large layouts.

    Parameters
    ----------
    engine:
        A compiled inference engine exposing ``plan_scan`` and
        ``predict_logits`` (any :class:`repro.binary.inference.\
ProgramEngine` — packed or float; results are bit-identical across
        backends by the engine parity contract).
    image_size:
        Window side in pixels the engine expects; the raster scale is
        ``window // image_size`` nm per pixel.
    batch_size:
        Engine chunk size for window batches.
    plane_cache:
        Optional region-keyed tile-plane cache (chip mode of
        :class:`repro.serve.cache.PlaneCache`); only consulted when a
        scan carries a session ``token``.
    faults:
        Optional :class:`repro.serve.faults.FaultInjector` (duck-typed:
        anything with ``wrap(site, fn)``); every tile/origin scoring
        call then passes through its ``"engine"`` site.  Chaos testing
        only, never set in production.
    """

    def __init__(
        self,
        engine,
        image_size: int,
        batch_size: int = 256,
        plane_cache=None,
        faults=None,
    ):
        if image_size <= 0:
            raise ValueError(f"image_size must be positive, got {image_size}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.engine = engine
        self.image_size = image_size
        self.batch_size = batch_size
        self.plane_cache = plane_cache
        self.faults = faults

    # -- full scan -------------------------------------------------------

    def compile(
        self,
        layout: Clip,
        window: int,
        stride: int,
        tile_budget: int = DEFAULT_TILE_BUDGET,
        token: str | None = None,
    ) -> ChipScanJob:
        """Plan the tile grid and build the spatial index (no scoring).

        The serving layer uses the compiled job directly so it can
        shard :meth:`ChipScanJob.score_tile` calls across its worker
        pool; library callers normally want :meth:`scan`.
        """
        if window % self.image_size:
            raise ValueError(
                f"window {window} is not a multiple of the engine image "
                f"size {self.image_size} (windows must be whole pixels)"
            )
        scale = window // self.image_size
        grid = plan_tiles(layout.size, window, stride, scale, tile_budget)
        index = RectIndex(layout, bucket=max(INDEX_BUCKET, window))
        return ChipScanJob(self, layout, grid, index, token)

    def scan(
        self,
        layout: Clip,
        window: int,
        stride: int,
        tile_budget: int = DEFAULT_TILE_BUDGET,
        token: str | None = None,
    ) -> ChipScanResult:
        """Stream the full sweep tile by tile; peak plane <= budget.

        Each distinct window raster of the sweep is scored once (see
        :meth:`ChipScanJob.scoring`); the result's
        ``stats["scored_windows"]`` counts the windows the engine ran.
        The resulting heatmap is bit-identical to a monolithic
        ``plan_scan`` over ``rasterize_plane`` of the whole layout —
        the CI parity gate (``python -m repro.chip.parity``) holds this
        line for every backend.
        """
        started = time.perf_counter()
        job = self.compile(layout, window, stride, tile_budget, token)
        scores = job.empty_scores()
        with job.scoring() as memo:
            for tile in job.tiles:
                scores[tile.iy0:tile.iy1, tile.ix0:tile.ix1] = (
                    job.score_tile(tile)
                )
        return ChipScanResult(
            layout=layout, heatmap=job.heatmap(scores), job=job,
            tile_budget=tile_budget, tiles=len(job.tiles),
            windows=job.grid.n_windows,
            peak_tile_bytes=job.peak_tile_bytes,
            wall_s=time.perf_counter() - started, token=token,
            stats={"scored_windows": memo.rows},
        )

    # -- incremental ECO re-scan -----------------------------------------

    def rescan(
        self,
        previous: ChipScanResult,
        edits: list[LayoutEdit],
        retries: int = 0,
        tolerant: bool = False,
    ) -> ChipScanResult:
        """Re-score only the windows an edit list dirtied.

        Equivalent — bit for bit — to ``scan(apply_edits(layout,
        edits), ...)`` with the same parameters, but the cost scales
        with the edit, not the chip: the spatial index updates in
        ``O(edit)``, the edited layout's rect list is a C-level copy
        of the survivors with only the edit's appended rects clipped
        (no re-clip of the chip, see
        :func:`~repro.litho.fullchip.apply_edits`), only regions
        holding dirty windows are re-rasterized, and clean windows
        keep their previous scores (their rasters are untouched by
        construction, see :class:`~repro.chip.eco.DirtyRegionTracker`).
        On the ~4,070-rect fabric chip of ``perfbench`` chip-eco
        (2-vCPU VM), building the edited layout takes ~0.7 ms at p50,
        and a re-scan's own traced time outside the engine, raster and
        plane-cache spans is ~3.5 ms.

        The dirty windows go through the same scoring path as a sweep
        tile, but with no memo open: each dirty window is sent to the
        engine itself, so the engine runs exactly the dirty set
        (``rescored_windows`` — the dirty windows given fresh scores —
        equals ``stats["scored_windows"]``, the windows the engine
        ran).

        Windows the previous result never scored (NaN — a degraded
        scan's failed tiles, quarantined windows) are folded into the
        dirty set, so a re-scan *heals* a degraded heatmap wherever
        scoring now succeeds instead of propagating NaN forever.

        Failure handling mirrors the forward scan: a failing tile's
        scoring is re-attempted ``retries`` times; with
        ``tolerant=True`` a tile that still fails leaves its dirty
        windows NaN (never a stale score of the pre-edit layout) and is
        listed in the result's ``failed_tiles`` — otherwise the error
        propagates.  ``stats["retries"]`` counts the re-attempts made.
        """
        started = time.perf_counter()
        job = previous.job
        grid = job.grid
        tracker = DirtyRegionTracker(grid.steps, grid.window)
        dirty = set(tracker.dirty_windows(edits))
        dirty.update(tracker.unscored_windows(previous.heatmap.scores))
        # both raise on a missing target before changing anything, so
        # a rejected edit list leaves the job as it was
        layout = apply_edits(previous.layout, edits)
        job.index.apply(edits)
        job.layout = layout
        cache = self.plane_cache
        if cache is not None and previous.token is not None:
            cache.invalidate_chip_regions(
                previous.token, tracker.dirty_rects(edits)
            )
        scores = previous.heatmap.scores.copy()
        by_tile: dict[int, list[tuple[int, int]]] = {}
        for i, j in sorted(dirty, key=lambda ij: (ij[1], ij[0])):
            by_tile.setdefault(grid.tile_index_of(i, j), []).append((i, j))
        failed_tiles: list[int] = []
        failed_windows = retried = 0
        for tile_index, indices in sorted(by_tile.items()):
            tile = grid.tiles[tile_index]
            if cache is not None and previous.token is not None:
                # full tile region, so the rebuilt plane is reusable
                # by the next edit that lands in the same tile
                region = tile.region
            else:
                # minimal region: the bounding box of the dirty
                # windows (a subset of the tile region, so still
                # budget-bounded)
                xs = [i for i, _ in indices]
                ys = [j for _, j in indices]
                region = Rect(
                    grid.steps[min(xs)], grid.steps[min(ys)],
                    grid.steps[max(xs)] + grid.window,
                    grid.steps[max(ys)] + grid.window,
                )
            fresh = None
            for attempt in range(retries + 1):
                try:
                    plane = job._region_plane(region)
                    fresh = job.score_origins(region, plane, indices)
                    break
                except Exception:
                    if attempt < retries:
                        retried += 1
                        continue
                    if not tolerant:
                        raise
            if fresh is None:
                # edited geometry: the stale pre-edit score would
                # be silently wrong, so the windows go NaN until
                # healed
                for i, j in indices:
                    scores[j, i] = np.nan
                failed_tiles.append(tile_index)
                failed_windows += len(indices)
                continue
            for (i, j), score in zip(indices, fresh):
                scores[j, i] = score
        return ChipScanResult(
            layout=layout, heatmap=job.heatmap(scores), job=job,
            tile_budget=previous.tile_budget, tiles=len(by_tile),
            windows=grid.n_windows,
            peak_tile_bytes=job.peak_tile_bytes,
            wall_s=time.perf_counter() - started,
            rescored_windows=len(dirty) - failed_windows,
            token=previous.token,
            failed_tiles=tuple(failed_tiles),
            stats={"scored_windows": len(dirty) - failed_windows,
                   "retries": retried},
        )
