"""LRU rasterization cache keyed by clip geometry.

Rasterizing a clip (:func:`repro.litho.raster.rasterize`) walks every
rectangle and is the dominant per-request cost for geometry requests.
Real workloads re-submit identical clips constantly — the same library
cell instantiated thousands of times across a chip — so the service
keeps a bounded LRU cache keyed by the clip's exact geometry (window
size, raster resolution, mode, and the multiset of rectangles).  Two
`Clip` objects with the same rectangles hit the same entry regardless
of insertion order or object identity.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import attrgetter
from threading import Lock

import numpy as np

from ..litho.geometry import Clip
from ..litho.raster import rasterize, rasterize_plane

__all__ = ["RasterCache", "PlaneCache", "geometry_key"]

_CORNERS = attrgetter("x0", "y0", "x1", "y1")


def geometry_key(clip: Clip, pixels: int, mode: str) -> tuple:
    """Stable hashable key for a clip's raster: geometry + resolution.

    Rectangles are sorted so the key is insertion-order independent.
    """
    return (clip.size, pixels, mode, tuple(sorted(map(_CORNERS, clip.rects))))


class _ArrayLRU:
    """Lock-protected LRU of read-only arrays, keyed by hashable tuples.

    Shared machinery of :class:`RasterCache` and :class:`PlaneCache`;
    subclasses provide the key and the build function.  Cached arrays
    are returned with ``writeable=False`` — callers share the stored
    array and must copy before mutating.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0

    def _get_or_build(self, key: tuple, build) -> np.ndarray:
        with self._lock:
            image = self._entries.get(key)
            if image is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return image
            self.misses += 1
        # build outside the lock: misses are the expensive path and
        # concurrent misses on the same key just do redundant work once
        image = build()
        image.flags.writeable = False
        with self._lock:
            self._entries[key] = image
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return image

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


class RasterCache(_ArrayLRU):
    """Thread-safe LRU cache of rasterized clip images."""

    def __init__(self, capacity: int = 2048):
        super().__init__(capacity)

    def get(self, clip: Clip, pixels: int, mode: str = "binary") -> np.ndarray:
        """Return the raster of ``clip``, computing and caching on miss."""
        key = geometry_key(clip, pixels, mode)
        return self._get_or_build(key, lambda: rasterize(clip, pixels, mode))


class PlaneCache(_ArrayLRU):
    """Thread-safe LRU cache of plane rasters: chip tiles (or whole layouts).

    Planes are orders of magnitude larger than window rasters, so the
    default capacity is small.  Neither service's ``scan`` caches
    planes; :meth:`HotspotService.scan_chip
    <repro.serve.service.HotspotService.scan_chip>` uses the chip mode.

    **Region-aware chip mode.**  Full-chip streaming scans
    (:mod:`repro.chip`) cannot key by geometry — hashing millions of
    rectangles per tile lookup would dwarf rasterization — so chip tile
    planes are keyed instead by an opaque session ``token`` plus the
    tile's nm region: the caller owns token freshness (a token names
    one layout *state*; edit the layout, and either mint a new token or
    invalidate the touched regions).  :meth:`invalidate_chip_regions`
    is the edit hook the ECO re-scan path uses: it drops exactly the
    entries whose region strictly overlaps a dirty rectangle, so clean
    tiles stay warm across re-scans.  Both key shapes share one LRU
    (chip keys are tagged, so they can never collide with the geometry
    keys of :meth:`get`).
    """

    def __init__(self, capacity: int = 8):
        super().__init__(capacity)

    def get(self, layout: Clip, scale: float, mode: str = "binary") -> np.ndarray:
        """Return the plane raster of ``layout``, caching on miss.

        Keyed by the layout's exact geometry plus the plane resolution,
        like :class:`RasterCache`.  Nothing in ``src/`` calls it any
        more; it stays only because ``perfbench/spans.py`` wraps it by
        name.
        """
        pixels = round(layout.size / scale)
        key = geometry_key(layout, pixels, mode)
        return self._get_or_build(
            key, lambda: rasterize_plane(layout, scale, mode)
        )

    def get_chip_tile(
        self, token: str, region, scale: int, mode: str, build
    ) -> np.ndarray:
        """Return the tile plane of ``region`` under ``token``.

        ``build`` is a zero-argument callable producing the plane on a
        miss (the chip scanner rasterizes from its spatial index).
        """
        key = ("chip", token, (region.x0, region.y0, region.x1, region.y1),
               scale, mode)
        return self._get_or_build(key, build)

    def invalidate_chip_regions(self, token: str, rects) -> int:
        """Drop ``token``'s tile entries overlapping any of ``rects``.

        Overlap is strict (shared borders do not count), matching the
        dirty-window semantics of :class:`repro.chip.eco.\
DirtyRegionTracker`: a rectangle touching a tile's border cannot have
        changed any pixel of its raster.  Returns the number of entries
        dropped.
        """
        dirty = [(r.x0, r.y0, r.x1, r.y1) for r in rects]
        with self._lock:
            stale = [
                key for key in self._entries
                if key[0] == "chip" and key[1] == token and any(
                    key[2][0] < x1 and x0 < key[2][2]
                    and key[2][1] < y1 and y0 < key[2][3]
                    for x0, y0, x1, y1 in dirty
                )
            ]
            for key in stale:
                del self._entries[key]
        return len(stale)

    def invalidate_token(self, token: str) -> int:
        """Drop every chip-tile entry of one session token."""
        with self._lock:
            stale = [
                key for key in self._entries
                if key[0] == "chip" and key[1] == token
            ]
            for key in stale:
                del self._entries[key]
        return len(stale)
