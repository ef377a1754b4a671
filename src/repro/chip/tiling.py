"""Tile decomposition of a full-chip sliding-window sweep.

A monolithic scan rasterizes the whole layout as one plane — ``(size /
scale)^2`` float64 pixels, quadratic in chip side.  The streaming scan
caps that: the sweep's origin grid is cut into rectangular *tiles* of
origins, and each tile rasterizes only the nm region its own windows
read — core span plus the **halo** to the right/top where windows
whose origin is inside the tile extend past it (a window covers
``[origin, origin + window)`` per axis, so the halo is up to ``window -
stride`` nm of overlap with the next tile).  Because every window's
full receptive field is inside its tile's region, per-window logits
are bit-identical to the monolithic scan no matter how the grid is
cut.

:func:`plan_tiles` sizes tiles from a byte budget: the float64 raster
of any planned tile is guaranteed ``<= tile_budget`` bytes, which is
what bounds the scanner's peak plane memory.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from ..litho.geometry import Rect

__all__ = ["TileSpec", "TileGrid", "origin_steps", "plan_tiles",
           "split_tile"]


def origin_steps(size: int, window: int, stride: int) -> list[int]:
    """Origin positions of one sweep axis (row-major grids use it twice).

    Multiples of ``stride`` with the last origin snapped to ``size -
    window`` so the sweep reaches the layout edge.  The one definition
    of the sweep grid: :func:`repro.serve.service.window_origins` is
    its row-major product.
    """
    if window <= 0 or window > size:
        raise ValueError(f"window {window} outside (0, {size}]")
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    last = size - window
    steps = list(range(0, last + 1, stride))
    if steps[-1] != last:
        steps.append(last)
    return steps


@dataclass(frozen=True)
class TileSpec:
    """One tile: an origin-index block plus the nm region its windows read.

    ``ix0:ix1`` / ``iy0:iy1`` are half-open ranges into the sweep's
    origin steps (x and y share the step list on a square layout);
    ``region`` spans from the first origin to the end of the last
    window — core plus halo — and is what gets rasterized.
    """

    ix0: int
    ix1: int
    iy0: int
    iy1: int
    region: Rect

    @property
    def n_origins(self) -> int:
        """Windows scored by this tile."""
        return (self.ix1 - self.ix0) * (self.iy1 - self.iy0)

    def contains_index(self, i: int, j: int) -> bool:
        """Whether origin-grid index ``(i, j)`` belongs to this tile."""
        return self.ix0 <= i < self.ix1 and self.iy0 <= j < self.iy1


@dataclass(frozen=True)
class TileGrid:
    """The planned decomposition of one sweep."""

    layout_size: int
    window: int
    stride: int
    scale: int
    tile_budget: int
    steps: tuple[int, ...]
    #: per-axis origin-index runs; tiles are their row-major product
    runs: tuple[tuple[int, int], ...]
    tiles: tuple[TileSpec, ...]

    @property
    def n_windows(self) -> int:
        """Total origins in the sweep."""
        return len(self.steps) ** 2

    def tile_index_of(self, i: int, j: int) -> int:
        """Index into :attr:`tiles` of the tile owning origin ``(i, j)``."""
        if not (0 <= i < len(self.steps) and 0 <= j < len(self.steps)):
            raise IndexError(f"origin index ({i}, {j}) outside the grid")
        starts = [a for a, _ in self.runs]
        rx = bisect_right(starts, i) - 1
        ry = bisect_right(starts, j) - 1
        return ry * len(self.runs) + rx

    def tile_of(self, i: int, j: int) -> TileSpec:
        """The tile owning origin-grid index ``(i, j)``."""
        return self.tiles[self.tile_index_of(i, j)]

    def tile_pixels(self, tile: TileSpec) -> tuple[int, int]:
        """Raster shape ``(height, width)`` of one tile's region."""
        return (
            (tile.region.y1 - tile.region.y0) // self.scale,
            (tile.region.x1 - tile.region.x0) // self.scale,
        )

    def tile_bytes(self, tile: TileSpec) -> int:
        """Bytes of one tile's float64 raster plane."""
        h, w = self.tile_pixels(tile)
        return h * w * 8


def split_tile(grid: TileGrid, tile: TileSpec) -> tuple[TileSpec, TileSpec]:
    """Halve a tile along its longer origin axis.

    The spatial arm of batch bisection: a persistently-failing tile is
    split until the failure is cornered in the smallest tile (one
    window).  Sub-tile regions are rebuilt from the grid's origin steps
    with the same first-origin-to-last-window-end formula
    :func:`plan_tiles` uses, so they stay halo-correct — scoring a
    sub-tile is bit-identical to the same windows of the parent tile.
    """
    nx = tile.ix1 - tile.ix0
    ny = tile.iy1 - tile.iy0
    if nx * ny < 2:
        raise ValueError("cannot split a single-origin tile")

    def make(ix0: int, ix1: int, iy0: int, iy1: int) -> TileSpec:
        return TileSpec(ix0, ix1, iy0, iy1, Rect(
            grid.steps[ix0], grid.steps[iy0],
            grid.steps[ix1 - 1] + grid.window,
            grid.steps[iy1 - 1] + grid.window,
        ))

    if nx >= ny:
        mid = tile.ix0 + nx // 2
        return (make(tile.ix0, mid, tile.iy0, tile.iy1),
                make(mid, tile.ix1, tile.iy0, tile.iy1))
    mid = tile.iy0 + ny // 2
    return (make(tile.ix0, tile.ix1, tile.iy0, mid),
            make(tile.ix0, tile.ix1, mid, tile.iy1))


def _axis_runs(steps: list[int], window: int, scale: int,
               max_side_px: int) -> list[tuple[int, int]]:
    """Greedy contiguous runs of origin indices whose span fits the
    pixel bound (origins are non-uniform at the snapped last step, so
    runs are computed on actual positions, not counts)."""
    runs = []
    a = 0
    while a < len(steps):
        b = a + 1
        while (b < len(steps)
               and (steps[b] + window - steps[a]) // scale <= max_side_px):
            b += 1
        runs.append((a, b))
        a = b
    return runs


def plan_tiles(
    layout_size: int,
    window: int,
    stride: int,
    scale: int,
    tile_budget: int,
) -> TileGrid:
    """Plan the tile grid of one sweep under a tile-plane byte budget.

    ``scale`` (nm per pixel) must divide the layout size, the window
    and the stride — the same alignment the monolithic plane path
    requires, and what makes every tile region land on pixel edges so
    streamed rasters are bit-identical to monolithic plane slices.
    The float64 raster of every planned tile is ``<= tile_budget``
    bytes; a budget below one window's raster is an error (that is the
    irreducible unit of work).
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    for name, value in (("layout size", layout_size), ("window", window),
                        ("stride", stride)):
        if value % scale:
            raise ValueError(
                f"{name} {value} is not a multiple of scale {scale}"
            )
    steps = origin_steps(layout_size, window, stride)
    window_px = window // scale
    min_budget = window_px * window_px * 8
    if tile_budget < min_budget:
        raise ValueError(
            f"tile_budget {tile_budget} cannot hold one "
            f"{window_px}x{window_px} window raster "
            f"({min_budget} bytes minimum)"
        )
    max_side_px = math.isqrt(tile_budget // 8)
    runs = _axis_runs(steps, window, scale, max_side_px)
    tiles = []
    for jy0, jy1 in runs:
        for ix0, ix1 in runs:
            tiles.append(TileSpec(
                ix0, ix1, jy0, jy1,
                Rect(steps[ix0], steps[jy0],
                     steps[ix1 - 1] + window, steps[jy1 - 1] + window),
            ))
    return TileGrid(
        layout_size=layout_size, window=window, stride=stride, scale=scale,
        tile_budget=tile_budget, steps=tuple(steps),
        runs=tuple(runs), tiles=tuple(tiles),
    )
