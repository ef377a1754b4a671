"""Tests for the bucketed spatial index."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chip import RectIndex
from repro.litho.fullchip import LayoutEdit, apply_edits
from repro.litho.geometry import Clip, Rect


def random_layout(seed=0, size=4096, n=200):
    rng = np.random.default_rng(seed)
    clip = Clip(size)
    for _ in range(n):
        x0 = int(rng.integers(0, size - 64))
        y0 = int(rng.integers(0, size - 64))
        clip.add(Rect(x0, y0, x0 + int(rng.integers(8, 60)),
                      y0 + int(rng.integers(8, 60))))
    return clip


class TestQuery:
    def test_matches_brute_force_in_insertion_order(self):
        layout = random_layout(1)
        index = RectIndex(layout, bucket=512)
        for region in [Rect(0, 0, 1024, 1024), Rect(1000, 2000, 3000, 2600),
                       Rect(4000, 4000, 4096, 4096)]:
            expected = [r for r in layout.rects if r.intersects(region)]
            assert index.query(region) == expected

    def test_touching_border_is_not_a_match(self):
        layout = Clip(256, [Rect(0, 0, 64, 64)])
        index = RectIndex(layout, bucket=64)
        assert index.query(Rect(64, 0, 128, 64)) == []
        assert index.query(Rect(63, 0, 128, 64)) == [Rect(0, 0, 64, 64)]

    def test_rects_enumerates_layout_order(self):
        layout = random_layout(2)
        assert RectIndex(layout).rects() == list(layout.rects)


class TestApply:
    def test_edit_sequence_matches_apply_edits(self):
        layout = random_layout(3, n=50)
        rects = list(layout.rects)
        edits = [
            LayoutEdit("remove", rects[7]),
            LayoutEdit("add", Rect(10, 10, 40, 44)),
            LayoutEdit("move", rects[3], to=rects[3].shifted(16, 0)),
            LayoutEdit("add", Rect(10, 10, 40, 44)),  # duplicate geometry
            LayoutEdit("remove", Rect(10, 10, 40, 44)),
        ]
        index = RectIndex(layout, bucket=512)
        index.apply(edits)
        assert index.rects() == list(apply_edits(layout, edits).rects)

    def test_remove_first_equal_with_duplicates(self):
        rect = Rect(0, 0, 32, 32)
        layout = Clip(256, [rect, Rect(100, 100, 130, 130), rect])
        index = RectIndex(layout, bucket=64)
        index.apply([LayoutEdit("remove", rect)])
        # one copy survives, and it is the *later* insertion
        assert index.rects() == [Rect(100, 100, 130, 130), rect]
        assert len(index) == 2

    def test_remove_missing_raises(self):
        index = RectIndex(Clip(256, [Rect(0, 0, 8, 8)]))
        with pytest.raises(ValueError, match="not in index"):
            index.apply([LayoutEdit("remove", Rect(1, 1, 9, 9))])

    def test_query_after_edits_stays_consistent(self):
        layout = random_layout(4, n=80)
        index = RectIndex(layout, bucket=256)
        current = layout
        rng = np.random.default_rng(5)
        for _ in range(30):
            rects = list(current.rects)
            victim = rects[int(rng.integers(len(rects)))]
            edit = LayoutEdit("move", victim,
                              to=Rect(victim.x0, victim.y0,
                                      victim.x1 + 1, victim.y1 + 1))
            index.apply([edit])
            current = apply_edits(current, [edit])
        region = Rect(512, 512, 3584, 3584)
        expected = [r for r in current.rects if r.intersects(region)]
        assert index.query(region) == expected

    def test_build_hashes_no_rect(self, monkeypatch):
        """The equal-rect map behind ``apply`` is built on the first
        edit: a sweep's index, which is never edited, hashes nothing."""
        calls = []
        original = Rect.__hash__

        def counting(rect):
            calls.append(rect)
            return original(rect)

        layout = random_layout(2, n=100)
        monkeypatch.setattr(Rect, "__hash__", counting)
        index = RectIndex(layout, bucket=512)
        assert calls == []
        index.apply([LayoutEdit("remove", layout.rects[3])])
        assert calls  # the first edit builds the map
        assert index.rects() == list(layout.rects[:3] + layout.rects[4:])

    def test_validation(self):
        with pytest.raises(ValueError, match="bucket"):
            RectIndex(Clip(256), bucket=0)


SIDE = 32


@st.composite
def rects(draw, lo=-24, hi=SIDE + 24):
    """Coarse rects, so equal values recur; may lie partly or wholly
    outside the ``SIDE`` window."""
    x0 = draw(st.integers(lo, hi - 8).map(lambda v: v - v % 4))
    y0 = draw(st.integers(lo, hi - 8).map(lambda v: v - v % 4))
    return Rect(x0, y0, x0 + draw(st.sampled_from([4, 8, 16])),
                y0 + draw(st.sampled_from([4, 8, 16])))


@st.composite
def edit_lists(draw):
    """A layout and an edit list ``apply_edits`` accepts.

    Removes and moves name a value from a shadow of ``apply_edits``'s
    own list: the clipped survivors, then the adds and move targets of
    this list as they were added (unclipped).
    """
    layout = Clip(SIDE, draw(st.lists(rects(0, SIDE), max_size=6)))
    names = list(layout.rects)
    edits = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["add", "remove", "move"]))
        if kind == "add" or not names:
            rect = draw(rects())
            edits.append(LayoutEdit("add", rect))
            names.append(rect)
            continue
        # bias towards the newest names: this list's own adds
        target = names[-1 - draw(st.integers(0, len(names) - 1))]
        names.remove(target)
        if kind == "remove":
            edits.append(LayoutEdit("remove", target))
        else:
            to = draw(rects())
            edits.append(LayoutEdit("move", target, to=to))
            names.append(to)
    return layout, edits


class TestApplyMirrorsApplyEdits:
    @settings(max_examples=300, deadline=None)
    @given(case=edit_lists(), missing=rects())
    @example(
        case=(Clip(32, [Rect(0, 0, 8, 8)]), [
            LayoutEdit("add", Rect(-4, 8, 8, 16)),
            LayoutEdit("remove", Rect(-4, 8, 8, 16)),
        ]),
        missing=Rect(40, 40, 44, 44),
    )
    def test_index_matches_apply_edits(self, case, missing):
        layout, edits = case
        index = RectIndex(layout, bucket=16)
        expected = list(apply_edits(layout, edits).rects)
        index.apply(edits)
        assert index.rects() == expected
        assert len(index) == len(expected)
        assert index.query(Rect(0, 0, SIDE, SIDE)) == expected

        # a list apply_edits rejects leaves the index untouched
        bad = edits + [LayoutEdit("remove", missing)]
        try:
            apply_edits(layout, bad)
        except ValueError:
            index = RectIndex(layout, bucket=16)
            with pytest.raises(ValueError, match="not in index"):
                index.apply(bad)
            assert index.rects() == list(layout.rects)
            assert index.query(Rect(0, 0, SIDE, SIDE)) == list(layout.rects)
