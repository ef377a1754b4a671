"""Each distinct window raster is scored once per chip sweep.

A cell-library chip repeats window rasters wherever the same cells
recur; the scanner keys windows by raster and sends one representative
per key to the engine.  These tests count engine rows (an operation
count, not a timing) against an independent count of distinct window
rasters taken from a monolithic plane, and check that every heatmap
stays bit-identical to the monolithic scan.
"""

import weakref
from contextlib import contextmanager

import numpy as np
import pytest

from repro.binary.inference import PlaneScanPlan, ProgramEngine
from repro.chip import ChipScanJob, ChipScanner, DurableChipScan
from repro.chip import scanner as scanner_module
from repro.features.downsample import to_network_input
from repro.litho.fullchip import synthesize_cell_array
from repro.litho.raster import rasterize_plane
from repro.serve import ChipScanRequest, HotspotService

from .test_scanner import (
    BUDGET,
    IMAGE,
    SCALE,
    SIZE,
    STRIDE,
    WINDOW,
    monolithic_scores,
    warmed_model,
)

# one cell per window: cell-aligned windows hold exactly one cell, and
# the half-pitch ones see one of a few cell neighbourhoods
CELL = WINDOW


@pytest.fixture(scope="module")
def layout():
    return synthesize_cell_array(SIZE, CELL, seed=5)


@pytest.fixture(scope="module", params=["packed", "float"])
def backend(request):
    return request.param


@pytest.fixture(scope="module")
def model():
    return warmed_model()


@pytest.fixture(scope="module")
def engine(model, backend):
    return ProgramEngine(model, backend)


@pytest.fixture(scope="module")
def plane(layout):
    return to_network_input(rasterize_plane(layout, SCALE, "binary")[None])


def window_bytes(plane, steps, windows=None):
    """Raw float bytes of each window of the monolithic plane."""
    if windows is None:
        windows = [(i, j) for j in range(len(steps))
                   for i in range(len(steps))]
    out = []
    for i, j in windows:
        x, y = steps[i] // SCALE, steps[j] // SCALE
        out.append(plane[0, :, y:y + IMAGE, x:x + IMAGE].tobytes())
    return out


@pytest.fixture
def engine_rows(monkeypatch):
    """Count the window rows every engine entry point scores."""
    rows = []
    logits, predict = PlaneScanPlan.logits, ProgramEngine.predict_logits

    def counted_logits(self, *args, **kwargs):
        out = logits(self, *args, **kwargs)
        rows.append(out.shape[0])
        return out

    def counted_predict(self, *args, **kwargs):
        out = predict(self, *args, **kwargs)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(PlaneScanPlan, "logits", counted_logits)
    monkeypatch.setattr(ProgramEngine, "predict_logits", counted_predict)

    class Counter:
        def take(self):
            total = sum(rows)
            rows.clear()
            return total

    return Counter()


def sweep(job):
    """One sweep of a compiled job under one scoring memo."""
    scores = job.empty_scores()
    with job.scoring() as memo:
        for tile in job.tiles:
            scores[tile.iy0:tile.iy1, tile.ix0:tile.ix1] = job.score_tile(tile)
    return scores, weakref.ref(memo)


class TestScanDedup:
    def test_matches_monolithic_and_scores_distinct_once(
        self, engine, layout, plane, engine_rows
    ):
        result = ChipScanner(engine, IMAGE).scan(
            layout, WINDOW, STRIDE, BUDGET
        )
        scored = engine_rows.take()
        steps = result.heatmap.steps
        distinct = len(set(window_bytes(plane, steps)))
        assert result.tiles > 1
        assert distinct < result.windows // 2  # the layout repeats
        assert scored == result.stats["scored_windows"] == distinct
        np.testing.assert_array_equal(
            result.heatmap.scores, monolithic_scores(engine, layout, steps)
        )

    def test_memo_is_scoped_to_one_call(
        self, engine, layout, plane, engine_rows
    ):
        job = ChipScanner(engine, IMAGE).compile(
            layout, WINDOW, STRIDE, BUDGET
        )
        distinct = len(set(window_bytes(plane, job.grid.steps)))
        first, first_memo = sweep(job)
        assert engine_rows.take() == distinct
        second, second_memo = sweep(job)
        assert engine_rows.take() == distinct  # nothing carried over
        np.testing.assert_array_equal(first, second)
        assert first_memo() is None and second_memo() is None

    def test_returned_result_keeps_no_memo(
        self, engine, layout, monkeypatch
    ):
        memos = []
        scoring = ChipScanJob.scoring

        @contextmanager
        def tracked(job):
            with scoring(job) as memo:
                memos.append(weakref.ref(memo))
                yield memo

        monkeypatch.setattr(ChipScanJob, "scoring", tracked)
        result = ChipScanner(engine, IMAGE).scan(
            layout, WINDOW, STRIDE, BUDGET
        )
        assert result.stats["scored_windows"] > 0
        assert len(memos) == 1 and memos[0]() is None

    def test_zero_cap_stores_nothing_and_scores_every_tile(
        self, engine, layout, plane, engine_rows, monkeypatch
    ):
        monkeypatch.setattr(scanner_module, "_MEMO_KEY_BYTES", 0)
        scanner = ChipScanner(engine, IMAGE)
        result = scanner.scan(layout, WINDOW, STRIDE, BUDGET)
        scored = engine_rows.take()
        steps = result.heatmap.steps
        # with nothing stored, each tile call dedups only its own windows
        per_tile = sum(
            len(set(window_bytes(plane, steps, [
                (i, j) for j in range(t.iy0, t.iy1)
                for i in range(t.ix0, t.ix1)
            ])))
            for t in result.job.tiles
        )
        assert per_tile > len(set(window_bytes(plane, steps)))
        assert scored == per_tile
        np.testing.assert_array_equal(
            result.heatmap.scores, monolithic_scores(engine, layout, steps)
        )

    def test_tile_planes_are_plus_minus_one(self, engine, layout):
        """The key's exactness precondition: sign bits are the raster."""
        job = ChipScanner(engine, IMAGE).compile(
            layout, WINDOW, STRIDE, BUDGET
        )
        for tile in job.tiles:
            values = np.unique(job._build_plane(tile.region))
            assert set(values.tolist()) <= {-1.0, 1.0}


class TestMemoBlock:
    def test_one_block_at_a_time(self, engine, layout):
        job = ChipScanner(engine, IMAGE).compile(
            layout, WINDOW, STRIDE, BUDGET
        )
        with job.scoring():
            with pytest.raises(RuntimeError, match="already open"):
                with job.scoring():
                    pass
        with job.scoring():  # the first block's exit released the job
            pass

    def test_raced_key_is_stored_and_counted_once(
        self, engine, layout, monkeypatch
    ):
        job = ChipScanner(engine, IMAGE).compile(
            layout, WINDOW, STRIDE, BUDGET
        )
        engine_scores = job._engine_scores

        def racing(plane, origins):
            # another worker scores the same windows while this call's
            # engine batch runs, and stores its keys first
            monkeypatch.setattr(job, "_engine_scores", engine_scores)
            job._score(plane, origins)
            return engine_scores(plane, origins)

        monkeypatch.setattr(job, "_engine_scores", racing)
        tile = job.tiles[0]
        with job.scoring() as memo:
            job.score_tile(tile)
            assert memo.scores
            assert memo.key_bytes == sum(map(len, memo.scores))


class TestRescanScoresDirtySet:
    def test_every_dirty_window_reaches_the_engine(
        self, engine, layout, plane, engine_rows
    ):
        scanner = ChipScanner(engine, IMAGE)
        baseline = scanner.scan(layout, WINDOW, STRIDE, BUDGET)
        engine_rows.take()
        steps = baseline.heatmap.steps
        # blank a band of windows: the re-scan folds unscored windows
        # into its dirty set, and the band repeats rasters across tiles
        blanked = [(i, j) for j in (1, 2, 5) for i in range(len(steps))]
        for i, j in blanked:
            baseline.heatmap.scores[j, i] = np.nan
        healed = scanner.rescan(baseline, [])
        scored = engine_rows.take()
        assert len(set(window_bytes(plane, steps, blanked))) < len(blanked)
        # no memo: repeated dirty rasters are each scored
        assert scored == healed.stats["scored_windows"] == len(blanked)
        assert healed.rescored_windows == len(blanked)
        np.testing.assert_array_equal(
            healed.heatmap.scores, monolithic_scores(engine, layout, steps)
        )


class TestServedDedup:
    def test_parallel_and_durable_scans_match_serial(
        self, model, engine, layout, plane, tmp_path
    ):
        """The served (packed) scans equal a serial scan on each backend."""
        serial = ChipScanner(engine, IMAGE).scan(
            layout, WINDOW, STRIDE, BUDGET
        )
        distinct = len(set(window_bytes(plane, serial.heatmap.steps)))
        with HotspotService.from_model(model, IMAGE, workers=2) as svc:
            served = svc.scan_chip(
                ChipScanRequest(layout, WINDOW, STRIDE, tile_budget=BUDGET)
            )
            journaled = svc.scan_chip(ChipScanRequest(
                layout, WINDOW, STRIDE, tile_budget=BUDGET,
                journal=str(tmp_path / "scan.journal"),
            ))
            stats = svc.metrics.stats()
        for report in (served, journaled):
            assert not report.degraded
            np.testing.assert_array_equal(
                report.heatmap.scores, serial.heatmap.scores
            )
            # two workers may race on one key: at worst duplicate work
            scored = report.result.stats["scored_windows"]
            assert distinct <= scored < report.windows_scanned
        assert stats["chip_windows_scored_total"] == (
            served.result.stats["scored_windows"]
            + journaled.result.stats["scored_windows"]
        )

    def test_durable_library_scan_dedups(
        self, engine, layout, plane, engine_rows, tmp_path
    ):
        result = DurableChipScan(
            ChipScanner(engine, IMAGE), layout, WINDOW, STRIDE, BUDGET,
            journal=tmp_path / "scan.journal",
        ).run()
        scored = engine_rows.take()
        distinct = len(set(window_bytes(plane, result.heatmap.steps)))
        assert scored == result.stats["scored_windows"] == distinct
        np.testing.assert_array_equal(
            result.heatmap.scores,
            monolithic_scores(engine, layout, result.heatmap.steps),
        )
