"""Dirty-region tracking for incremental (ECO) re-scans.

After a layout edit, almost every window of a full-chip sweep is
untouched: a window's classification reads exactly the pixels of its
own ``window x window`` nm extent (that *is* the network's receptive
field — the plane-compiled scan recomputes window borders with the
window's own padding, so nothing outside the window ever reaches the
logits).  A window therefore needs re-scoring **iff** its extent
overlaps a region whose geometry changed.

:class:`DirtyRegionTracker` turns an edit list into that exact window
set: per edited rectangle (both positions of a move), a bisection over
the sweep's origin steps yields the half-open index ranges of
overlapping windows per axis, and the union over edits is the dirty
set.  Everything else keeps its previous score bit-for-bit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

import numpy as np

from ..litho.fullchip import LayoutEdit
from ..litho.geometry import Rect

__all__ = ["DirtyRegionTracker"]


class DirtyRegionTracker:
    """Maps layout edits to the window set whose scores can change."""

    def __init__(self, steps: Sequence[int], window: int):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.steps = list(steps)
        self.window = window

    def dirty_rects(self, edits: Iterable[LayoutEdit]) -> list[Rect]:
        """The nm regions whose raster content the edits can change."""
        rects: list[Rect] = []
        for edit in edits:
            rects.extend(edit.dirty_rects())
        return rects

    def _axis_range(self, lo: int, hi: int) -> tuple[int, int]:
        """Index range of origins whose window ``[s, s + w)`` overlaps
        the open nm interval ``(lo, hi)`` — strict overlap, because a
        rectangle touching a window's border contributes zero coverage
        to its raster."""
        start = bisect_right(self.steps, lo - self.window)
        stop = bisect_left(self.steps, hi)
        return start, stop

    def dirty_windows(
        self, edits: Iterable[LayoutEdit]
    ) -> list[tuple[int, int]]:
        """Origin-grid indices ``(i, j)`` needing re-scoring, sorted
        row-major (j, then i) — the sweep's window order."""
        dirty: set[tuple[int, int]] = set()
        for rect in self.dirty_rects(edits):
            x0, x1 = self._axis_range(rect.x0, rect.x1)
            y0, y1 = self._axis_range(rect.y0, rect.y1)
            for j in range(y0, y1):
                for i in range(x0, x1):
                    dirty.add((i, j))
        return sorted(dirty, key=lambda ij: (ij[1], ij[0]))

    @staticmethod
    def unscored_windows(scores: np.ndarray) -> list[tuple[int, int]]:
        """Origin indices ``(i, j)`` of NaN (never-scored) heatmap
        entries, sorted row-major like :meth:`dirty_windows`.

        A degraded scan leaves failed tiles NaN; a re-scan folds these
        into its dirty set so a recovered tile is scored instead of
        propagating NaN forever.
        """
        return [
            (int(i), int(j)) for j, i in np.argwhere(np.isnan(scores))
        ]

    def dirty_fraction(self, edits: Iterable[LayoutEdit]) -> float:
        """Dirty windows as a fraction of the sweep (bench axis)."""
        total = len(self.steps) ** 2
        return len(self.dirty_windows(edits)) / total if total else 0.0
