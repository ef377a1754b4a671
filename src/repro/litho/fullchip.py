"""Full-chip layout synthesis and ECO edit traces.

The window-scale generators in :mod:`repro.litho.patterns` emit one
clip per call — fine for training data, useless for exercising a
mm-scale streaming scan.  This module synthesizes *whole layouts*:

* :func:`synthesize_chip` — a deterministic, :class:`Technology`-aware
  standard-cell-like fabric of arbitrary size.  Generation is
  block-local (each ``block`` x ``block`` nm region is filled from its
  own counter-based RNG stream), so the same ``(size, tech, seed)``
  always produces the same rectangle list, generation cost is linear in
  area, and no rectangle crosses a block boundary.
* :func:`synthesize_cell_array` — a cell-library chip: three distinct
  cells placed on a grid inside an empty border, so windows repeat
  exactly wherever the same neighbourhood of cells recurs.
* :class:`LayoutEdit` / :func:`apply_edits` — the rect add/remove/move
  edit vocabulary of an ECO (engineering change order) loop, with
  deterministic list semantics the incremental scanner can mirror.
* :func:`synthesize_edit_trace` — a seeded generator of valid edit
  sequences, optionally confined to a sub-region so benchmarks can
  dial "how local is the edit" as an axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Clip, Rect
from .patterns import Technology

__all__ = [
    "LayoutEdit",
    "apply_edits",
    "synthesize_cell_array",
    "synthesize_chip",
    "synthesize_edit_trace",
]


# -- chip synthesis -------------------------------------------------------


def _fill_wires(clip: Clip, rng: np.random.Generator, tech: Technology,
                x0: int, y0: int, w: int, h: int, vertical: bool) -> None:
    """A grating of segmented wires spanning one block."""
    width = tech.random_width(rng)
    pitch = width + tech.random_space(rng)
    seg = int(rng.integers(6, 14)) * pitch
    span, across = (h, w) if vertical else (w, h)
    for off in range(pitch // 2, across - width, pitch):
        pos = 0
        while pos < span:
            length = min(int(seg * (0.6 + 0.8 * rng.random())), span - pos)
            if length > 2 * width and rng.random() < 0.88:
                if vertical:
                    clip.add(Rect(x0 + off, y0 + pos,
                                  x0 + off + width, y0 + pos + length))
                else:
                    clip.add(Rect(x0 + pos, y0 + off,
                                  x0 + pos + length, y0 + off + width))
            pos += length + tech.random_space(rng)


def _fill_vias(clip: Clip, rng: np.random.Generator, tech: Technology,
               x0: int, y0: int, w: int, h: int) -> None:
    """A farm of contact squares on a coarse grid."""
    side = int(rng.integers(tech.via_min, tech.via_max + 1))
    pitch = side + tech.random_space(rng)
    for gy in range(pitch // 2, h - side, pitch):
        for gx in range(pitch // 2, w - side, pitch):
            if rng.random() < 0.55:
                clip.add(Rect(x0 + gx, y0 + gy,
                              x0 + gx + side, y0 + gy + side))


def _fill_cell_row(clip: Clip, rng: np.random.Generator, tech: Technology,
                   x0: int, y0: int, w: int, h: int) -> None:
    """Rail-bounded rows of short vertical fingers (standard-cell-ish)."""
    rail = tech.width_max
    row = 4 * tech.width_max + 2 * tech.space_max
    for ry in range(0, h - rail, row):
        clip.add(Rect(x0, y0 + ry, x0 + w, y0 + ry + rail))
        width = tech.random_width(rng)
        pitch = width + tech.random_space(rng)
        top = min(ry + row - rail, h)
        if top - (ry + rail) < 2 * width:
            continue
        for off in range(pitch // 2, w - width, pitch):
            if rng.random() < 0.7:
                clip.add(Rect(x0 + off, y0 + ry + rail,
                              x0 + off + width, y0 + top))


_BLOCK_FILLS = (_fill_wires, _fill_vias, _fill_cell_row)


def _fill_block(clip: Clip, rng: np.random.Generator, tech: Technology,
                x0: int, y0: int, w: int, h: int) -> None:
    """Fill one block with a motif drawn from ``rng``."""
    fill = _BLOCK_FILLS[int(rng.integers(len(_BLOCK_FILLS)))]
    if fill is _fill_wires:
        fill(clip, rng, tech, x0, y0, w, h, vertical=bool(rng.integers(2)))
    else:
        fill(clip, rng, tech, x0, y0, w, h)


def synthesize_chip(
    size: int,
    tech: Technology | None = None,
    seed: int = 0,
    block: int = 4096,
) -> Clip:
    """Synthesize a deterministic full-chip metal layer of side ``size`` nm.

    The layout is a checkerboard of ``block`` x ``block`` nm regions,
    each filled with one motif (wire grating, via farm, or cell rows)
    drawn from a counter-based RNG stream seeded by ``(seed, bx, by)``
    — so layouts of different sizes share their common blocks, and the
    rectangle list is a pure function of the arguments.  Rectangles are
    emitted in row-major block order and never cross a block boundary.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if block <= 0:
        raise ValueError(f"block must be positive, got {block}")
    tech = tech if tech is not None else Technology()
    layout = Clip(size)
    for by in range(0, size, block):
        for bx in range(0, size, block):
            _fill_block(layout, np.random.default_rng([seed, bx, by]), tech,
                        bx, by, min(block, size - bx), min(block, size - by))
    return layout


def synthesize_cell_array(size: int, cell: int, seed: int = 0) -> Clip:
    """A chip tiled from a library of three distinct cell motifs.

    The layout is a grid of ``cell`` x ``cell`` nm sites; the outer ring
    of sites is left empty and every inner site holds one library cell,
    placed by a seeded draw.  Each cell type is generated from its own
    RNG stream, so all its placements are the same rectangles shifted
    by whole cell pitches — windows on a pitch-aligned grid repeat
    exactly wherever the same cells surround them.
    """
    if cell <= 0 or size < 3 * cell:
        raise ValueError(
            f"need a positive cell of at most size/3, got cell {cell} "
            f"for size {size}"
        )
    tech = Technology()
    n = size // cell
    placement = np.random.default_rng(seed).integers(3, size=(n - 2, n - 2))
    layout = Clip(size)
    for cy in range(1, n - 1):
        for cx in range(1, n - 1):
            kind = int(placement[cy - 1, cx - 1])
            _fill_block(layout, np.random.default_rng([seed, kind]), tech,
                        cx * cell, cy * cell, cell, cell)
    return layout


# -- ECO edits ------------------------------------------------------------


@dataclass(frozen=True)
class LayoutEdit:
    """One ECO edit: add, remove, or move a rectangle.

    ``rect`` is the subject (for ``"move"``: the rectangle's *current*
    position, which must exist in the layout); ``to`` is the target
    position of a move and must be ``None`` otherwise.
    """

    kind: str
    rect: Rect
    to: Rect | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("add", "remove", "move"):
            raise ValueError(f"unknown edit kind {self.kind!r}")
        if (self.kind == "move") != (self.to is not None):
            raise ValueError("to= is required for move edits and only them")

    def dirty_rects(self) -> tuple[Rect, ...]:
        """The nm regions whose raster content this edit can change."""
        if self.kind == "move":
            return (self.rect, self.to)
        return (self.rect,)


def apply_edits(layout: Clip, edits: list[LayoutEdit]) -> Clip:
    """Apply an edit sequence, returning a new layout.

    List semantics are deterministic and mirrored by the incremental
    scanner's spatial index: ``remove`` deletes the *first* rectangle
    equal to ``edit.rect`` (``ValueError`` when absent), ``add`` appends
    the rectangle (clipped to the layout window), and ``move`` is a
    remove of ``rect`` followed by an append of ``to``.  The surviving
    rectangles keep their relative order, so the edited layout's raster
    accumulation order — and therefore its raster, bit for bit — is a
    pure function of the original layout and the edit list.
    """
    rects = list(layout.rects)
    for edit in edits:
        if edit.kind in ("remove", "move"):
            try:
                rects.remove(edit.rect)
            except ValueError:
                raise ValueError(
                    f"{edit.kind} edit targets a rectangle not in the "
                    f"layout: {edit.rect}"
                ) from None
        if edit.kind == "add":
            rects.append(edit.rect)
        elif edit.kind == "move":
            rects.append(edit.to)
    return Clip(layout.size, rects)


def synthesize_edit_trace(
    layout: Clip,
    n_edits: int,
    seed: int = 0,
    region: Rect | None = None,
    tech: Technology | None = None,
) -> list[LayoutEdit]:
    """Generate a valid, seeded ECO edit trace for ``layout``.

    Each edit is drawn uniformly from add/remove/move, confined to
    ``region`` (default: the whole layout) — the knob benchmarks turn
    to measure re-scan latency as a function of edit locality.  The
    trace is *sequentially valid*: removes and moves always target a
    rectangle still present at that point, so
    :func:`apply_edits(layout, trace)` never raises.
    """
    if n_edits < 0:
        raise ValueError(f"n_edits must be >= 0, got {n_edits}")
    tech = tech if tech is not None else Technology()
    region = region if region is not None else Rect(0, 0, layout.size,
                                                   layout.size)
    rng = np.random.default_rng(seed)
    live = list(layout.rects)
    local = [r for r in live if r.intersects(region)]
    edits: list[LayoutEdit] = []

    def draw_rect() -> Rect:
        side_w = int(rng.integers(tech.via_min, tech.width_max + 1))
        side_h = int(rng.integers(tech.via_min, tech.width_max + 1))
        x0 = int(rng.integers(region.x0, max(region.x0 + 1,
                                             region.x1 - side_w)))
        y0 = int(rng.integers(region.y0, max(region.y0 + 1,
                                             region.y1 - side_h)))
        x1 = min(x0 + side_w, layout.size)
        y1 = min(y0 + side_h, layout.size)
        return Rect(x0, y0, x1, y1)

    for _ in range(n_edits):
        kind = ("add", "remove", "move")[int(rng.integers(3))]
        if kind != "add" and not local:
            kind = "add"
        if kind == "add":
            rect = draw_rect()
            edits.append(LayoutEdit("add", rect))
            live.append(rect)
            if rect.intersects(region):
                local.append(rect)
        elif kind == "remove":
            rect = local.pop(int(rng.integers(len(local))))
            live.remove(rect)
            edits.append(LayoutEdit("remove", rect))
        else:
            rect = local.pop(int(rng.integers(len(local))))
            live.remove(rect)
            span = max(tech.space_min, 1)
            dx = int(rng.integers(-span, span + 1))
            dy = int(rng.integers(-span, span + 1))
            dx = min(max(dx, -rect.x0), layout.size - rect.x1)
            dy = min(max(dy, -rect.y0), layout.size - rect.y1)
            target = rect.shifted(dx, dy)
            edits.append(LayoutEdit("move", rect, to=target))
            live.append(target)
            if target.intersects(region):
                local.append(target)
    return edits
