"""Rasterisation of layout clips to images.

Two modes:

* ``"area"`` — each pixel holds its covered-area fraction in [0, 1];
  used as the mask transmission function for lithography simulation.
* ``"binary"`` — 0/1 occupancy (area fraction > 0.5); the down-sampled
  binary images the paper feeds to the network (Section 3.4.1).
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter

import numpy as np

from .geometry import Clip, Rect

__all__ = ["rasterize", "rasterize_plane", "rasterize_region", "coverage_1d"]


def coverage_1d(lo: float, hi: float, pixels: int, scale: float) -> np.ndarray:
    """Covered fraction of each pixel by the 1-D interval [lo, hi).

    ``scale`` is nanometres per pixel.  The result has length
    ``pixels``; entries are in [0, 1].
    """
    edges = np.arange(pixels + 1) * scale
    left = np.clip(lo, edges[:-1], edges[1:])
    right = np.clip(hi, edges[:-1], edges[1:])
    return np.maximum(right - left, 0.0) / scale


_CORNERS = attrgetter("x0", "y0", "x1", "y1")


def _rect_array(rects) -> np.ndarray:
    """Rectangles as an ``(n, 4)`` float64 array of ``x0, y0, x1, y1``,
    rows in iteration order."""
    flat = np.fromiter(chain.from_iterable(map(_CORNERS, rects)), np.float64)
    return flat.reshape(-1, 4)


#: Covered pixels one accumulation pass expands at most.  Rectangles
#: taller than this budget allows are cut into row bands first, so the
#: flat index and value temporaries stay a few MiB whatever the layout
#: (one band row wider than the budget is the only overshoot).
_PASS_PIXELS = 1 << 16


def _runs(lo, hi, first, count, scale):
    """Concatenated 1-D coverage runs of intervals ``[lo, hi)``.

    Interval ``i`` covers pixels ``first[i] .. first[i] + count[i] - 1``;
    each value is the expression of :func:`coverage_1d` for that pixel
    (edges ``j * scale``, clamp, ``max(right - left, 0) / scale``).
    Returns the values and the pixel index ``j`` of each.
    """
    offset = count.cumsum() - count
    j = np.arange(offset[-1] + count[-1]) + (first - offset).repeat(count)
    e0 = j * scale
    e1 = (j + 1) * scale
    left = np.minimum(np.maximum(lo.repeat(count), e0), e1)
    right = np.minimum(np.maximum(hi.repeat(count), e0), e1)
    return np.maximum(right - left, 0.0) / scale, j


def _accumulate(image: np.ndarray, coords: np.ndarray, scale: float) -> None:
    """Add every rectangle's per-pixel coverage into ``image`` in order.

    ``coords`` is an ``(n, 4)`` float64 array of ``x0, y0, x1, y1`` in
    the image's coordinate frame.  The shared core of every raster entry
    point: each rectangle adds the outer product of its x and y coverage
    runs over its pixel span, and ``np.add.at`` (unbuffered, applied in
    index order) hands each pixel its additions in rectangle order.  So
    per pixel the float additions have the same operands in the same
    order as adding one rectangle at a time — which is what makes a
    plane raster's window slice bit-identical to rasterizing the
    extracted window, and a region raster bit-identical to the plane
    slice.
    """
    height, width = image.shape
    # pixel spans [first, last) per axis (columns x, y); clamping before
    # the cast keeps far-off coordinates finite (they come out empty)
    limit = np.array([width, height])
    first = np.clip(np.floor(coords[:, :2] / scale), 0, limit).astype(np.int64)
    last = np.clip(np.ceil(coords[:, 2:] / scale), 0, limit).astype(np.int64)
    keep = np.flatnonzero((last > first).all(axis=1))
    if keep.size == 0:
        return
    coords, first, last = coords[keep], first[keep], last[keep]
    w = last[:, 0] - first[:, 0]
    # cut each rectangle into row bands of at most _PASS_PIXELS pixels
    band_rows = np.maximum(_PASS_PIXELS // w, 1)
    bands = -(-(last[:, 1] - first[:, 1]) // band_rows)
    rect = np.arange(keep.size).repeat(bands)
    band = np.arange(rect.size) - (bands.cumsum() - bands).repeat(bands)
    band_rows = band_rows.repeat(bands)
    y_first = first[rect, 1] + band * band_rows
    h = np.minimum(band_rows, last[rect, 1] - y_first)
    w = w[rect]
    ends = (w * h).cumsum()
    flat_image = image.reshape(-1)
    start = 0
    while start < rect.size:
        done = ends[start - 1] if start else 0
        stop = max(int(ends.searchsorted(done + _PASS_PIXELS, "right")),
                   start + 1)
        r, bw, bh = rect[start:stop], w[start:stop], h[start:stop]
        x0, y0, x1, y1 = coords[r].T
        cov_x, _ = _runs(x0, x1, first[r, 0], bw, scale)
        cov_y, row = _runs(y0, y1, y_first[start:stop], bh, scale)
        # one segment per band pixel row: segment s adds cov_y[s] times
        # its rectangle's x run (at x_at[s] in cov_x) to seg_w[s] pixels
        # starting at flat index base[s]
        seg_w = bw.repeat(bh)
        x_at = (bw.cumsum() - bw).repeat(bh)
        base = row * width + first[r, 0].repeat(bh)
        pos = seg_w.cumsum() - seg_w
        k = np.arange(pos[-1] + seg_w[-1])
        index = k + (base - pos).repeat(seg_w)
        values = cov_y.repeat(seg_w) * cov_x[k + (x_at - pos).repeat(seg_w)]
        np.add.at(flat_image, index, values)
        start = stop


def _finish(image: np.ndarray, mode: str) -> np.ndarray:
    """Clamp accumulated coverage and apply the output mode."""
    np.clip(image, 0.0, 1.0, out=image)
    if mode == "binary":
        return (image > 0.5).astype(np.float64)
    return image


def rasterize(clip: Clip, pixels: int, mode: str = "area") -> np.ndarray:
    """Rasterise ``clip`` onto a ``pixels x pixels`` grid.

    Overlapping rectangles are ORed: per-pixel coverage is accumulated
    and clamped to 1 (exact for disjoint geometry; a tight upper bound
    for overlaps, which the pattern generators keep rare).

    Returns ``float64`` coverage in ``"area"`` mode, ``float64`` 0/1 in
    ``"binary"`` mode.  Row 0 is the bottom of the clip (y increases
    with row index).
    """
    if mode not in ("area", "binary"):
        raise ValueError(f"mode must be 'area' or 'binary', got {mode!r}")
    scale = clip.size / pixels
    image = np.zeros((pixels, pixels))
    _accumulate(image, _rect_array(clip.rects), scale)
    return _finish(image, mode)


def rasterize_plane(layout: Clip, scale: float, mode: str = "area") -> np.ndarray:
    """Rasterise a full layout once at a fixed ``scale`` (nm per pixel).

    The plane raster amortizes a sliding-window scan: windows whose
    origins fall on pixel boundaries are plain array views of the
    returned plane.  When ``scale`` is a positive integer dividing
    ``layout.size`` and the window origins (the geometry the serving
    layer checks before taking this path), each aligned
    ``pixels x pixels`` slice is **bit-identical** to
    ``rasterize(extract_window(layout, x, y, window), pixels, mode)``:
    rectangle clipping at window borders lands exactly on pixel edges,
    per-pixel coverage terms are the same exact-integer differences
    divided by the same ``scale``, and rectangles accumulate in the
    same order.

    ``layout.size / scale`` must be a whole number of pixels.
    """
    if mode not in ("area", "binary"):
        raise ValueError(f"mode must be 'area' or 'binary', got {mode!r}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    pixels = round(layout.size / scale)
    if pixels * scale != layout.size:
        raise ValueError(
            f"scale {scale} does not divide layout size {layout.size}"
        )
    image = np.zeros((pixels, pixels))
    _accumulate(image, _rect_array(layout.rects), scale)
    return _finish(image, mode)


def rasterize_region(
    rects, region: Rect, scale: float, mode: str = "area"
) -> np.ndarray:
    """Rasterise one rectangular sub-region of a layout.

    ``rects`` is an iterable of layout rectangles *in insertion order*
    (a superset containing every rectangle that overlaps ``region`` is
    fine — rectangles outside contribute exactly ``+0.0`` per pixel,
    which never changes a float bit).  ``region`` is the axis-aligned
    nm window to rasterise; its four coordinates must be whole multiples
    of ``scale`` so that clipping at the region border lands exactly on
    pixel edges.

    **Bit-identity contract** (the streaming scan depends on it): when
    ``scale`` is a positive integer, the returned ``(h, w)`` image is
    bit-identical to the matching slice of the monolithic
    :func:`rasterize_plane` raster of the whole layout::

        rasterize_plane(layout, scale, mode)[region.y0 // scale :
                                             region.y1 // scale,
                                             region.x0 // scale :
                                             region.x1 // scale]

    Clipping a rectangle to a pixel-aligned region does not change its
    per-pixel coverage inside the region (the clipped bound is outside
    every interior pixel's span), shifting to region-local coordinates
    subtracts the same exact integers from rectangle bounds and pixel
    edges, and rectangles accumulate in the same order — so every float
    operation sees the same operands in the same order as the plane
    raster.
    """
    if mode not in ("area", "binary"):
        raise ValueError(f"mode must be 'area' or 'binary', got {mode!r}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    for name, value in (("x0", region.x0), ("y0", region.y0),
                        ("x1", region.x1), ("y1", region.y1)):
        steps = round(value / scale)
        if steps * scale != value:
            raise ValueError(
                f"region.{name} = {value} is not a multiple of scale {scale}"
            )
    width = round((region.x1 - region.x0) / scale)
    height = round((region.y1 - region.y0) / scale)
    # clip to the region and shift to its frame, as Rect.intersection
    # then Rect.shifted would; rectangles left empty are dropped
    lo = np.array([region.x0, region.y0, region.x0, region.y0], np.float64)
    hi = np.array([region.x1, region.y1, region.x1, region.y1], np.float64)
    local = np.minimum(np.maximum(_rect_array(rects), lo), hi) - lo
    local = local[(local[:, 2] > local[:, 0]) & (local[:, 3] > local[:, 1])]
    image = np.zeros((height, width))
    _accumulate(image, local, scale)
    return _finish(image, mode)
