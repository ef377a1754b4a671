"""Dirty-region tracking and incremental re-scan equivalence."""

import numpy as np
import pytest

from repro.binary.inference import ProgramEngine
from repro.chip import ChipScanner, DirtyRegionTracker
from repro.litho.fullchip import (
    LayoutEdit,
    apply_edits,
    synthesize_chip,
    synthesize_edit_trace,
)
from repro.litho.geometry import Rect
from repro.serve import PlaneCache

from .test_scanner import BUDGET, IMAGE, SIZE, STRIDE, WINDOW, warmed_model


@pytest.fixture(scope="module")
def engine():
    return ProgramEngine(warmed_model())


@pytest.fixture(scope="module")
def layout():
    return synthesize_chip(SIZE, seed=11)


class TestDirtyWindows:
    def test_exact_overlap_set(self):
        steps = [0, 256, 512, 768]
        tracker = DirtyRegionTracker(steps, window=512)
        # x extent (600, 640) reaches windows at 256 and 512;
        # y extent (100, 140) reaches only the window at 0
        edits = [LayoutEdit("add", Rect(600, 100, 640, 140))]
        dirty = tracker.dirty_windows(edits)
        assert dirty == [(1, 0), (2, 0)]

    def test_touching_border_is_clean(self):
        steps = [0, 256, 512]
        tracker = DirtyRegionTracker(steps, window=256)
        # rect exactly on [256, 512): windows at 0 end at 256 -> clean
        dirty = tracker.dirty_windows(
            [LayoutEdit("add", Rect(256, 256, 512, 512))]
        )
        assert dirty == [(1, 1)]

    def test_move_dirties_both_positions(self):
        steps = [0, 256, 512]
        tracker = DirtyRegionTracker(steps, window=256)
        dirty = tracker.dirty_windows([
            LayoutEdit("move", Rect(0, 0, 64, 64),
                       to=Rect(300, 300, 364, 364)),
        ])
        assert (0, 0) in dirty and (1, 1) in dirty

    def test_dirty_fraction(self):
        steps = [0, 256, 512]
        tracker = DirtyRegionTracker(steps, window=256)
        edits = [LayoutEdit("add", Rect(0, 0, 64, 64))]
        assert tracker.dirty_fraction(edits) == pytest.approx(1 / 9)


class TestRescanEquivalence:
    def test_rescan_matches_scratch_bit_for_bit(self, engine, layout):
        scanner = ChipScanner(engine, IMAGE)
        baseline = scanner.scan(layout, WINDOW, STRIDE, BUDGET)
        edits = synthesize_edit_trace(layout, 5, seed=21)
        rescanned = scanner.rescan(baseline, edits)
        scratch = ChipScanner(engine, IMAGE).scan(
            apply_edits(layout, edits), WINDOW, STRIDE, BUDGET
        )
        assert rescanned.heatmap.equals(scratch.heatmap)

    def test_rescores_only_the_dirty_set(self, engine, layout):
        scanner = ChipScanner(engine, IMAGE)
        baseline = scanner.scan(layout, WINDOW, STRIDE, BUDGET)
        edits = synthesize_edit_trace(
            layout, 2, seed=22, region=Rect(0, 0, 1024, 1024)
        )
        tracker = DirtyRegionTracker(
            list(baseline.heatmap.steps), WINDOW
        )
        rescanned = scanner.rescan(baseline, edits)
        assert rescanned.rescored_windows == len(tracker.dirty_windows(edits))
        assert rescanned.rescored_windows < baseline.windows

    def test_chained_rescans(self, engine, layout):
        """Each re-scan builds on the previous result's state."""
        scanner = ChipScanner(engine, IMAGE)
        result = scanner.scan(layout, WINDOW, STRIDE, BUDGET)
        current = layout
        for seed in (31, 32, 33):
            edits = synthesize_edit_trace(current, 3, seed=seed)
            result = scanner.rescan(result, edits)
            current = apply_edits(current, edits)
        scratch = ChipScanner(engine, IMAGE).scan(
            current, WINDOW, STRIDE, BUDGET
        )
        assert result.heatmap.equals(scratch.heatmap)

    def test_adds_outside_the_chip_are_named_as_added(self, engine, layout):
        """Within one edit list an add is named by the value it was
        added with, even when it reaches past the chip edge."""
        scanner = ChipScanner(engine, IMAGE)
        baseline = scanner.scan(layout, WINDOW, STRIDE, BUDGET)
        edge = Rect(-64, 100, 40, 180)
        edits = [
            LayoutEdit("add", edge),
            LayoutEdit("add", Rect(-64, 300, -8, 340)),  # wholly outside
            LayoutEdit("move", edge, to=Rect(SIZE - 40, 200, SIZE + 60, 260)),
            LayoutEdit("remove", Rect(-64, 300, -8, 340)),
        ]
        rescanned = scanner.rescan(baseline, edits)
        edited = apply_edits(layout, edits)
        assert rescanned.job.index.rects() == list(edited.rects)
        scratch = ChipScanner(engine, IMAGE).scan(
            edited, WINDOW, STRIDE, BUDGET
        )
        assert rescanned.heatmap.equals(scratch.heatmap)

    def test_rejected_edit_list_leaves_the_job_untouched(
        self, engine, layout
    ):
        scanner = ChipScanner(engine, IMAGE)
        baseline = scanner.scan(layout, WINDOW, STRIDE, BUDGET)
        job = baseline.job
        bad = [
            LayoutEdit("remove", layout.rects[0]),
            LayoutEdit("add", Rect(10, 10, 50, 50)),
            LayoutEdit("remove", Rect(1, 1, 2, 2)),  # not in the layout
        ]
        with pytest.raises(ValueError):
            scanner.rescan(baseline, bad)
        assert job.layout is layout
        assert job.index.rects() == list(layout.rects)
        # the job still re-scans correctly afterwards
        edits = synthesize_edit_trace(layout, 3, seed=25)
        rescanned = scanner.rescan(baseline, edits)
        scratch = ChipScanner(engine, IMAGE).scan(
            apply_edits(layout, edits), WINDOW, STRIDE, BUDGET
        )
        assert rescanned.heatmap.equals(scratch.heatmap)

    def test_noop_edit_list_rescores_nothing(self, engine, layout):
        scanner = ChipScanner(engine, IMAGE)
        baseline = scanner.scan(layout, WINDOW, STRIDE, BUDGET)
        rescanned = scanner.rescan(baseline, [])
        assert rescanned.rescored_windows == 0
        assert rescanned.heatmap.equals(baseline.heatmap)


class TestCachedRescan:
    def test_cache_reuse_and_region_invalidation(self, engine, layout):
        cache = PlaneCache(capacity=256)
        scanner = ChipScanner(engine, IMAGE, plane_cache=cache)
        baseline = scanner.scan(layout, WINDOW, STRIDE, BUDGET, token="s1")
        misses_after_scan = cache.misses
        assert misses_after_scan == baseline.tiles
        edits = synthesize_edit_trace(
            layout, 2, seed=23, region=Rect(0, 0, 1024, 1024)
        )
        rescanned = scanner.rescan(baseline, edits)
        # only the dirtied tiles were rebuilt
        rebuilt = cache.misses - misses_after_scan
        assert 0 < rebuilt < baseline.tiles
        scratch = ChipScanner(engine, IMAGE).scan(
            apply_edits(layout, edits), WINDOW, STRIDE, BUDGET
        )
        assert rescanned.heatmap.equals(scratch.heatmap)

    def test_cached_and_uncached_rescans_agree(self, engine, layout):
        edits = synthesize_edit_trace(layout, 4, seed=24)
        cached = ChipScanner(engine, IMAGE, plane_cache=PlaneCache(256))
        plain = ChipScanner(engine, IMAGE)
        a = cached.rescan(
            cached.scan(layout, WINDOW, STRIDE, BUDGET, token="s2"), edits
        )
        b = plain.rescan(plain.scan(layout, WINDOW, STRIDE, BUDGET), edits)
        assert a.heatmap.equals(b.heatmap)
