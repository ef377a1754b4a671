"""Bucketed spatial index over a layout's rectangles.

A full-chip layout holds too many rectangles to walk per tile —
rasterizing T tiles by scanning all N rectangles each time is
``O(N * T)``.  :class:`RectIndex` hashes every rectangle into the
coarse grid buckets it overlaps, so a tile query touches only the
rectangles near the tile: build is ``O(N)``, a query is proportional
to the geometry actually in the queried region.

Two properties the streaming scan leans on:

* **Order-preserving**: every rectangle gets a monotonically
  increasing id at insertion, and queries return matches sorted by id
  — i.e. in layout insertion order, which is the raster accumulation
  order the bit-identity contract of
  :func:`repro.litho.raster.rasterize_region` requires.
* **Incrementally editable**: :meth:`apply` mirrors the list semantics
  of :func:`repro.litho.fullchip.apply_edits` (remove-first-equal,
  append-on-add, appended rects clipped when the list ends) in
  ``O(edit)`` instead of rebuilding, so an ECO re-scan pays for the
  edit, not for the chip.  After any edit list ``apply_edits``
  accepts, the index enumerates exactly the rectangles of
  ``apply_edits(layout, edits)`` in the same order; a list it rejects
  leaves the index untouched.
"""

from __future__ import annotations

from bisect import insort

from ..litho.geometry import Clip, Rect

__all__ = ["RectIndex"]


class RectIndex:
    """Uniform-grid spatial index of a layout's rectangle list."""

    def __init__(self, layout: Clip, bucket: int = 4096):
        if bucket <= 0:
            raise ValueError(f"bucket must be positive, got {bucket}")
        self.size = layout.size
        self.bucket = bucket
        self._rects: dict[int, Rect] = {}
        #: rect value -> sorted ids of equal rects (remove-first-equal);
        #: only :meth:`apply` reads it, so it is built on the first edit
        #: — a sweep that never edits never hashes a rectangle
        self._ids: dict[Rect, list[int]] | None = None
        self._buckets: dict[tuple[int, int], list[int]] = {}
        self._next_id = 0
        for rect in layout.rects:
            self._insert(rect)

    def __len__(self) -> int:
        return len(self._rects)

    def _bucket_range(self, rect: Rect) -> tuple[range, range]:
        b = self.bucket
        return (range(rect.x0 // b, (rect.x1 - 1) // b + 1),
                range(rect.y0 // b, (rect.y1 - 1) // b + 1))

    def _insert(self, rect: Rect) -> None:
        rect_id = self._next_id
        self._next_id += 1
        self._rects[rect_id] = rect
        if self._ids is not None:
            insort(self._ids.setdefault(rect, []), rect_id)
        xs, ys = self._bucket_range(rect)
        for by in ys:
            for bx in xs:
                self._buckets.setdefault((bx, by), []).append(rect_id)

    def _remove(self, rect_id: int) -> None:
        rect = self._rects.pop(rect_id)
        ids = self._ids[rect]
        ids.remove(rect_id)
        if not ids:
            del self._ids[rect]
        xs, ys = self._bucket_range(rect)
        for by in ys:
            for bx in xs:
                bucket = self._buckets[(bx, by)]
                bucket.remove(rect_id)
                if not bucket:
                    del self._buckets[(bx, by)]

    def apply(self, edits) -> None:
        """Apply one :class:`~repro.litho.fullchip.LayoutEdit` list in place.

        The list is the unit, as in ``apply_edits``: a ``remove`` (or a
        ``move``'s source) takes the first equal surviving rectangle,
        else the first equal one appended earlier in the same list —
        named by the value it was added with, since appended
        rectangles are clipped to the layout window (and dropped when
        wholly outside) only once the list ends.  The whole list is
        resolved before the index changes, so a missing target raises
        ``ValueError`` and leaves the index as it was.
        """
        if self._ids is None:
            # ids ascend in insertion order, so each list comes out sorted
            self._ids = {}
            for rect_id, rect in self._rects.items():
                self._ids.setdefault(rect, []).append(rect_id)
        taken: dict[Rect, int] = {}  # rect -> equal survivors consumed
        removed: list[int] = []
        appended: list[Rect] = []
        for edit in edits:
            if edit.kind in ("remove", "move"):
                rect = edit.rect
                ids = self._ids.get(rect, ())
                used = taken.get(rect, 0)
                if used < len(ids):
                    removed.append(ids[used])
                    taken[rect] = used + 1
                else:
                    try:
                        appended.remove(rect)
                    except ValueError:
                        raise ValueError(
                            f"rectangle not in index: {rect}"
                        ) from None
            if edit.kind != "remove":
                appended.append(edit.to if edit.kind == "move" else edit.rect)
        for rect_id in removed:
            self._remove(rect_id)
        window = Rect(0, 0, self.size, self.size)
        for rect in appended:
            clipped = rect.clipped(window)
            if clipped is not None:
                self._insert(clipped)

    def query(self, region: Rect) -> list[Rect]:
        """Rectangles overlapping ``region``, in insertion order."""
        b = self.bucket
        seen: set[int] = set()
        for by in range(region.y0 // b, (region.y1 - 1) // b + 1):
            for bx in range(region.x0 // b, (region.x1 - 1) // b + 1):
                seen.update(self._buckets.get((bx, by), ()))
        return [
            self._rects[i]
            for i in sorted(seen)
            if self._rects[i].intersects(region)
        ]

    def rects(self) -> list[Rect]:
        """Every rectangle, in insertion order (the edited layout list)."""
        return [self._rects[i] for i in sorted(self._rects)]
