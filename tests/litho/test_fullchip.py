"""Tests for full-chip synthesis and ECO edit traces."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.litho.fullchip import (
    LayoutEdit,
    apply_edits,
    synthesize_chip,
    synthesize_edit_trace,
)
from repro.litho.geometry import Clip, Rect
from repro.litho.patterns import Technology


class TestSynthesizeChip:
    def test_deterministic(self):
        a = synthesize_chip(8192, seed=5)
        b = synthesize_chip(8192, seed=5)
        assert list(a.rects) == list(b.rects)
        assert list(a.rects) != list(synthesize_chip(8192, seed=6).rects)

    def test_blocks_are_local(self):
        """No rectangle crosses a block boundary."""
        block = 2048
        layout = synthesize_chip(8192, seed=1, block=block)
        assert len(layout.rects) > 0
        for rect in layout.rects:
            assert rect.x0 // block == (rect.x1 - 1) // block
            assert rect.y0 // block == (rect.y1 - 1) // block

    def test_size_extension_shares_common_blocks(self):
        """Growing the chip keeps the shared blocks' geometry."""
        small = synthesize_chip(4096, seed=3, block=2048)
        large = synthesize_chip(8192, seed=3, block=2048)
        small_set = {(r.x0, r.y0, r.x1, r.y1) for r in small.rects}
        large_subset = {
            (r.x0, r.y0, r.x1, r.y1)
            for r in large.rects
            if r.x1 <= 4096 and r.y1 <= 4096
        }
        assert small_set == large_subset

    def test_rects_stay_in_bounds(self):
        layout = synthesize_chip(5000, seed=2, block=2048)
        for rect in layout.rects:
            assert 0 <= rect.x0 < rect.x1 <= 5000
            assert 0 <= rect.y0 < rect.y1 <= 5000

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize_chip(0)
        with pytest.raises(ValueError):
            synthesize_chip(1024, block=0)


class TestLayoutEdit:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown edit kind"):
            LayoutEdit("replace", Rect(0, 0, 8, 8))

    def test_move_requires_target(self):
        with pytest.raises(ValueError, match="to="):
            LayoutEdit("move", Rect(0, 0, 8, 8))
        with pytest.raises(ValueError, match="to="):
            LayoutEdit("add", Rect(0, 0, 8, 8), to=Rect(8, 8, 16, 16))

    def test_dirty_rects(self):
        move = LayoutEdit("move", Rect(0, 0, 8, 8), to=Rect(8, 8, 16, 16))
        assert move.dirty_rects() == (Rect(0, 0, 8, 8), Rect(8, 8, 16, 16))
        add = LayoutEdit("add", Rect(0, 0, 8, 8))
        assert add.dirty_rects() == (Rect(0, 0, 8, 8),)


class TestApplyEdits:
    def test_list_semantics(self):
        a, b = Rect(0, 0, 8, 8), Rect(16, 16, 32, 32)
        layout = Clip(64, [a, b, a])  # duplicate geometry allowed
        edited = apply_edits(layout, [
            LayoutEdit("remove", a),            # first equal goes
            LayoutEdit("move", b, to=b.shifted(4, 0)),
            LayoutEdit("add", Rect(40, 40, 50, 50)),
        ])
        assert list(edited.rects) == [
            a, b.shifted(4, 0), Rect(40, 40, 50, 50)
        ]
        # the original layout is untouched
        assert list(layout.rects) == [a, b, a]

    def test_remove_missing_raises(self):
        layout = Clip(64, [Rect(0, 0, 8, 8)])
        with pytest.raises(ValueError, match="not in the layout"):
            apply_edits(layout, [LayoutEdit("remove", Rect(1, 1, 9, 9))])

    def test_survivors_are_the_input_objects(self):
        layout = synthesize_chip(4096, seed=4)
        gone = layout.rects[5]
        edited = apply_edits(layout, [
            LayoutEdit("remove", Rect(gone.x0, gone.y0, gone.x1, gone.y1)),
            LayoutEdit("add", Rect(0, 0, 8, 8)),
        ])
        survivors = layout.rects[:5] + layout.rects[6:]
        assert len(edited.rects) == len(survivors) + 1
        assert all(a is b for a, b in zip(edited.rects, survivors))

    def test_rect_constructions_scale_with_the_edit(self, monkeypatch):
        """Building the edited layout constructs O(edits) rects, however
        many the chip holds: survivors are copied, never re-clipped."""
        constructed = []
        init = Rect.__init__

        def counted_init(self, *args, **kwargs):
            constructed.append(1)
            init(self, *args, **kwargs)

        def count(size):
            layout = synthesize_chip(size, seed=4)
            a, b = layout.rects[3], layout.rects[-3]
            edits = [
                LayoutEdit("remove", a),
                LayoutEdit("move", b, to=b.shifted(-1, 0)),
                LayoutEdit("add", Rect(10, 10, 20, 20)),
            ]
            with monkeypatch.context() as patch:
                patch.setattr(Rect, "__init__", counted_init)
                constructed.clear()
                apply_edits(layout, edits)
                return len(layout.rects), len(constructed)

        small_rects, small = count(4096)
        large_rects, large = count(16384)
        assert large_rects > 10 * small_rects
        assert small == large <= 2 * 3


def reference_apply_edits(layout, edits):
    """The rebuild-the-clip implementation, kept verbatim as an oracle."""
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


#: rects on a coarse grid around a 32 nm window: duplicates are common,
#: and some lie partly or wholly outside the window
rects = st.builds(
    lambda x, y, w, h: Rect(4 * x, 4 * y, 4 * (x + w), 4 * (y + h)),
    st.integers(-3, 9), st.integers(-3, 9),
    st.integers(1, 3), st.integers(1, 3),
)


@st.composite
def layouts_and_edits(draw):
    layout = Clip(32, draw(st.lists(rects, max_size=12)))
    named = list(layout.rects)  # rects an edit may name again

    def subject():
        # a rect named earlier: original or appended, the last few most
        # often, and maybe already removed (a missing target)
        if not named:
            return draw(rects)
        return draw(st.one_of(st.sampled_from(named[-3:]),
                              st.sampled_from(named)))

    def target():
        # a fresh rect, or an earlier one again so equal rects recur
        if not named:
            return draw(rects)
        return draw(st.one_of(rects, st.sampled_from(named)))

    edits = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["add", "remove", "move"]))
        if kind == "add":
            edit = LayoutEdit("add", target())
        else:
            edit = LayoutEdit(kind, subject(),
                              to=target() if kind == "move" else None)
        named.extend(r for r in (edit.rect, edit.to) if r is not None)
        edits.append(edit)
    return layout, edits


_A, _B, _WIDE = Rect(0, 0, 8, 8), Rect(8, 8, 16, 16), Rect(-4, 0, 8, 8)


@settings(max_examples=300, deadline=None)
@given(case=layouts_and_edits())
# duplicate survivors: the first equal one goes
@example(case=(Clip(32, [_A, _B, _A]), [LayoutEdit("remove", _A)] * 2))
# duplicate appended rects, and an earlier-appended rect removed
@example(case=(Clip(32), [LayoutEdit("add", _A), LayoutEdit("add", _B),
                          LayoutEdit("add", _A), LayoutEdit("remove", _A)]))
# appended rects stay unclipped until the end: named as added, an
# outside one dropped, and missing by the clipped value
@example(case=(Clip(32), [LayoutEdit("add", _WIDE),
                          LayoutEdit("add", Rect(40, 0, 48, 8)),
                          LayoutEdit("move", _WIDE, to=Rect(24, 24, 40, 40))]))
@example(case=(Clip(32), [LayoutEdit("add", _WIDE),
                          LayoutEdit("remove", _WIDE.clipped(_A))]))
@example(case=(Clip(32, [_A]), []))
def test_apply_edits_matches_rebuild_oracle(case):
    """Remove-first-equal order, appended-then-removed rects, adds outside
    the window, missing targets: the copy-survivors implementation gives
    the rebuild's exact rect list, or the same ValueError."""
    layout, edits = case
    before = list(layout.rects)
    try:
        expected = reference_apply_edits(layout, edits).rects
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            apply_edits(layout, edits)
        assert str(got.value) == str(exc)
    else:
        assert apply_edits(layout, edits).rects == expected
    assert layout.rects == before


class TestSynthesizeEditTrace:
    def test_deterministic_and_valid(self):
        layout = synthesize_chip(8192, seed=4)
        a = synthesize_edit_trace(layout, 20, seed=9)
        b = synthesize_edit_trace(layout, 20, seed=9)
        assert a == b
        assert len(a) == 20
        apply_edits(layout, a)  # sequential validity: must not raise

    def test_region_confines_edits(self):
        layout = synthesize_chip(8192, seed=4)
        region = Rect(0, 0, 2048, 2048)
        trace = synthesize_edit_trace(layout, 30, seed=10, region=region)
        for edit in trace:
            for rect in edit.dirty_rects():
                assert rect.intersects(region) or (
                    # moves may shift a region rect slightly outward
                    edit.kind == "move"
                )

    def test_empty_trace(self):
        layout = synthesize_chip(4096, seed=4)
        assert synthesize_edit_trace(layout, 0) == []
        with pytest.raises(ValueError):
            synthesize_edit_trace(layout, -1)

    def test_trace_on_empty_layout_stays_valid(self):
        """Removes/moves only ever target rects an earlier add created."""
        layout = Clip(4096)
        trace = synthesize_edit_trace(layout, 10, seed=11)
        assert trace[0].kind == "add"
        apply_edits(layout, trace)  # must not raise
