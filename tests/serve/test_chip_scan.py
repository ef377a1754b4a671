"""Service-level tests for the streaming chip-scan path.

The contract: ``scan_chip`` and :meth:`scan` flag exactly the windows a
monolithic plane scan flags (bit-identical scores, tile-bounded memory),
``rescan_chip`` equals a from-scratch ``scan_chip`` of the edited
layout, and injected tile failures degrade the report instead of
raising.
"""

import numpy as np
import pytest

from repro.binary.inference import ProgramEngine
from repro.chip import ChipScanResult, origin_steps
from repro.chip.parity import _monolithic_scores
from repro.litho.fullchip import (
    apply_edits,
    synthesize_chip,
    synthesize_edit_trace,
)
from repro.litho.geometry import Clip, Rect
from repro.models.bnn_resnet import build_bnn_resnet
from repro.serve import (
    ChipScanRequest,
    ChipScanReport,
    FaultInjector,
    HotspotService,
    ScanRequest,
)

SIZE = 4096
WINDOW = 512
STRIDE = 256
IMAGE = 16
# two windows per tile axis -> a 4x4 multi-tile grid at this geometry
BUDGET = (2 * IMAGE) ** 2 * 8


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(99)
    model = build_bnn_resnet((4, 8), scaling="xnor", seed=7)
    x = (rng.random((8, 1, IMAGE, IMAGE)) > 0.5) * 2.0 - 1.0
    model.forward(x, training=True)
    return model


@pytest.fixture(scope="module")
def layout():
    return synthesize_chip(SIZE, seed=7)


def chip_request(layout, **kwargs):
    kwargs.setdefault("tile_budget", BUDGET)
    return ChipScanRequest(layout, WINDOW, STRIDE, **kwargs)


class TestScanChip:
    def test_hits_match_monolithic_scan(self, model, layout):
        engine = ProgramEngine(model)
        mono = _monolithic_scores(engine, layout, WINDOW, STRIDE, IMAGE)
        steps = origin_steps(SIZE, WINDOW, STRIDE)
        mono_hits = [
            (x, y, x + WINDOW, y + WINDOW, float(mono[j, i]))
            for j, y in enumerate(steps) for i, x in enumerate(steps)
            if mono[j, i] > 0
        ]
        with HotspotService.from_model(model, IMAGE) as svc:
            chip = svc.scan_chip(chip_request(layout))
            scan = svc.scan(ScanRequest(layout, WINDOW, STRIDE))
        assert not chip.degraded and chip.failed_tiles == ()
        assert chip.tiles_total > 1
        assert chip.windows_scanned == scan.windows_scanned == mono.size
        chip_hits = [(h.x0, h.y0, h.x1, h.y1, h.score) for h in chip.hits()]
        scan_hits = [(h.x0, h.y0, h.x1, h.y1, h.score) for h in scan.hits]
        assert chip_hits == mono_hits
        assert scan_hits == mono_hits

    def test_report_carries_memory_accounting(self, model, layout):
        with HotspotService.from_model(model, IMAGE) as svc:
            report = svc.scan_chip(chip_request(layout))
        assert 0 < report.peak_tile_bytes <= BUDGET
        assert report.windows_failed == 0
        assert report.rescored_windows is None
        assert isinstance(report.result, ChipScanResult)

    def test_metrics_counters(self, model, layout):
        with HotspotService.from_model(model, IMAGE) as svc:
            report = svc.scan_chip(chip_request(layout))
            stats = svc.metrics.stats()
        assert stats["chip_scan_requests_total"] == 1
        assert stats["chip_rescan_requests_total"] == 0
        assert stats["chip_tiles_scanned_total"] == report.tiles_total
        assert stats["chip_tiles_failed_total"] == 0
        assert stats["chip_peak_tile_bytes"] == report.peak_tile_bytes
        assert stats["windows_scanned_total"] == report.windows_scanned

    def test_token_populates_plane_cache(self, model, layout):
        with HotspotService.from_model(
            model, IMAGE, plane_cache_capacity=64
        ) as svc:
            report = svc.scan_chip(chip_request(layout, token="eco"))
            assert svc.plane_cache.misses == report.tiles_total
            svc.scan_chip(chip_request(layout, token="eco"))
            assert svc.plane_cache.hits == report.tiles_total


class TestRescanChip:
    def test_matches_scratch_scan(self, model, layout):
        edits = synthesize_edit_trace(layout, 4, seed=41)
        with HotspotService.from_model(model, IMAGE) as svc:
            baseline = svc.scan_chip(chip_request(layout, token="eco"))
            rescanned = svc.rescan_chip(baseline, edits)
            scratch = svc.scan_chip(
                chip_request(apply_edits(layout, edits))
            )
        assert rescanned.heatmap.equals(scratch.heatmap)
        assert 0 < rescanned.rescored_windows < baseline.windows_scanned
        assert rescanned.hits() == scratch.hits()

    def test_rescan_metrics(self, model, layout):
        edits = synthesize_edit_trace(
            layout, 2, seed=42, region=Rect(0, 0, 1024, 1024)
        )
        with HotspotService.from_model(model, IMAGE) as svc:
            baseline = svc.scan_chip(chip_request(layout))
            rescanned = svc.rescan_chip(baseline, edits)
            stats = svc.metrics.stats()
        assert stats["chip_scan_requests_total"] == 2
        assert stats["chip_rescan_requests_total"] == 1
        assert (stats["chip_windows_rescored_total"]
                == rescanned.rescored_windows > 0)

    def test_rescan_retries_count_as_shard_retries(self, model, layout):
        edits = synthesize_edit_trace(
            layout, 2, seed=42, region=Rect(0, 0, 1024, 1024)
        )
        faults = FaultInjector(seed=0)
        with HotspotService.from_model(
            model, IMAGE, faults=faults, shard_retries=1
        ) as svc:
            baseline = svc.scan_chip(chip_request(layout))
            faults.add_error("engine", times=1)  # the first dirty tile
            rescanned = svc.rescan_chip(baseline, edits)
            stats = svc.metrics.stats()
        assert not rescanned.degraded and rescanned.failed_tiles == ()
        assert stats["shard_retries_total"] == 1

    def test_requires_scanner_state(self, model, layout):
        with HotspotService.from_model(model, IMAGE) as svc:
            report = svc.scan_chip(chip_request(layout))
            stripped = ChipScanReport(
                request_id="",
                windows_scanned=report.windows_scanned,
                tiles_total=report.tiles_total,
                peak_tile_bytes=report.peak_tile_bytes,
                heatmap=report.heatmap,
                result=None,
                model=report.model,
                backend=report.backend,
                latency_ms=report.latency_ms,
            )
            with pytest.raises(ValueError, match="scanner state"):
                svc.rescan_chip(stripped, [])


class TestDegradedChipScan:
    def test_failed_tiles_stay_nan_and_are_listed(self, model, layout):
        faults = FaultInjector(seed=0)
        faults.add_error("engine", on_calls=[2, 5])
        with HotspotService.from_model(
            model, IMAGE, faults=faults, shard_retries=0
        ) as svc:
            report = svc.scan_chip(chip_request(layout))
            healthy = HotspotService.from_model(model, IMAGE).scan_chip(
                chip_request(layout)
            )
        assert report.degraded
        assert len(report.failed_tiles) == 2
        assert report.windows_failed > 0
        # every scored window is bit-identical to the healthy sweep
        scores, reference = report.heatmap.scores, healthy.heatmap.scores
        scored = ~np.isnan(scores)
        assert scored.sum() == scores.size - report.windows_failed
        np.testing.assert_array_equal(scores[scored], reference[scored])
        stats = svc.metrics.stats()
        assert stats["chip_tiles_failed_total"] == 2
        assert stats["degraded_scans_total"] == 1

    def test_shard_retry_recovers(self, model, layout):
        faults = FaultInjector(seed=0)
        faults.add_error("engine", times=1)
        with HotspotService.from_model(
            model, IMAGE, faults=faults, shard_retries=1
        ) as svc:
            report = svc.scan_chip(chip_request(layout))
        assert not report.degraded and report.failed_tiles == ()
        assert svc.metrics.stats()["shard_retries_total"] == 1


class TestDurableScanChip:
    def test_durable_path_matches_plain_scan(self, model, layout, tmp_path):
        journal = tmp_path / "scan.journal"
        with HotspotService.from_model(model, IMAGE) as svc:
            plain = svc.scan_chip(chip_request(layout))
            report = svc.scan_chip(
                chip_request(layout, journal=str(journal))
            )
            stats = svc.metrics.stats()
        assert not report.degraded and not report.resumed
        assert report.tiles_replayed == 0
        np.testing.assert_array_equal(
            report.heatmap.scores, plain.heatmap.scores
        )
        assert journal.exists()
        assert stats["chip_resumed_scans_total"] == 0
        assert stats["chip_tile_retries_total"] == 0

    def test_resume_replays_journal(self, model, layout, tmp_path):
        journal = tmp_path / "scan.journal"
        with HotspotService.from_model(model, IMAGE) as svc:
            first = svc.scan_chip(
                chip_request(layout, journal=str(journal))
            )
            again = svc.scan_chip(
                chip_request(layout, journal=str(journal), resume=True)
            )
            stats = svc.metrics.stats()
        assert again.resumed
        assert again.tiles_replayed == first.tiles_total
        np.testing.assert_array_equal(
            again.heatmap.scores, first.heatmap.scores
        )
        assert stats["chip_resumed_scans_total"] == 1
        assert stats["chip_tiles_replayed_total"] == first.tiles_total

    def test_quarantined_poison_window_degrades_report(
        self, model, layout, tmp_path
    ):
        from repro.chip.tiling import TileSpec

        poison = (5, 6)
        faults = FaultInjector(seed=0)
        faults.add_error("engine", match=lambda args: (
            isinstance(args[0], TileSpec)
            and args[0].contains_index(*poison)
        ))
        with HotspotService.from_model(model, IMAGE, faults=faults) as svc:
            report = svc.scan_chip(chip_request(
                layout, journal=str(tmp_path / "scan.journal"),
                max_retries=0,
            ))
            stats = svc.metrics.stats()
        assert report.degraded
        assert report.quarantined_windows == (poison,)
        assert report.windows_failed == 1
        assert np.isnan(report.heatmap.scores[poison[1], poison[0]])
        assert stats["chip_windows_quarantined_total"] == 1
        assert stats["degraded_scans_total"] == 1

    def test_resume_requires_journal(self, layout):
        with pytest.raises(ValueError, match="resume"):
            chip_request(layout, resume=True)


class TestRescanHealsNaN:
    def test_rescan_rescores_failed_windows(self, model, layout):
        """The NaN-recovery regression: a no-edit re-scan must heal a
        degraded heatmap once the fault clears, not skip NaN windows as
        'clean'."""
        faults = FaultInjector(seed=0)
        faults.add_error("engine", on_calls=[2, 5])
        with HotspotService.from_model(
            model, IMAGE, faults=faults, shard_retries=0
        ) as svc:
            degraded = svc.scan_chip(chip_request(layout))
            assert degraded.degraded and degraded.windows_failed > 0
            faults.clear()
            healed = svc.rescan_chip(degraded, [])
            healthy = HotspotService.from_model(model, IMAGE).scan_chip(
                chip_request(layout)
            )
        assert not healed.degraded
        assert healed.windows_failed == 0
        assert healed.rescored_windows == degraded.windows_failed
        np.testing.assert_array_equal(
            healed.heatmap.scores, healthy.heatmap.scores
        )

    def test_degraded_rescan_chain_never_returns_stale_scores(
        self, model, layout
    ):
        """A failing rescan tile goes NaN (degraded), and a follow-up
        re-scan heals it — the chain never silently keeps pre-edit
        scores for dirtied windows."""
        edits = synthesize_edit_trace(
            layout, 2, seed=42, region=Rect(0, 0, 1024, 1024)
        )
        faults = FaultInjector(seed=0)
        with HotspotService.from_model(
            model, IMAGE, faults=faults, shard_retries=0
        ) as svc:
            baseline = svc.scan_chip(chip_request(layout))
            faults.add_error("engine")  # every rescan tile fails
            broken = svc.rescan_chip(baseline, edits)
            assert broken.degraded and len(broken.failed_tiles) > 0
            assert broken.windows_failed > 0
            scratch = HotspotService.from_model(model, IMAGE).scan_chip(
                chip_request(apply_edits(layout, edits))
            )
            # dirtied windows are NaN, never the stale pre-edit score
            scores = broken.heatmap.scores
            stale = ~np.isnan(scores) & ~np.isclose(
                scores, scratch.heatmap.scores
            )
            assert not stale.any()
            faults.clear()
            healed = svc.rescan_chip(broken, [])
        assert not healed.degraded
        np.testing.assert_array_equal(
            healed.heatmap.scores, scratch.heatmap.scores
        )

    def test_rescan_journal_snapshot_resumes(self, model, layout, tmp_path):
        from repro.chip import read_journal

        journal = tmp_path / "rescan.journal"
        edits = synthesize_edit_trace(
            layout, 2, seed=42, region=Rect(0, 0, 1024, 1024)
        )
        with HotspotService.from_model(model, IMAGE) as svc:
            baseline = svc.scan_chip(chip_request(layout))
            merged = svc.rescan_chip(baseline, edits, journal=str(journal))
            # the snapshot replays against the *edited* layout
            resumed = svc.scan_chip(ChipScanRequest(
                apply_edits(layout, edits), WINDOW, STRIDE,
                tile_budget=BUDGET, journal=str(journal), resume=True,
            ))
        # the snapshot covers the whole grid, not just the dirty tiles
        assert len(read_journal(journal).tiles) == baseline.tiles_total
        assert resumed.resumed
        assert resumed.tiles_replayed == baseline.tiles_total
        np.testing.assert_array_equal(
            resumed.heatmap.scores, merged.heatmap.scores
        )


class TestChipScanRequest:
    def test_validation(self):
        layout = Clip(1024)
        with pytest.raises(ValueError, match="window"):
            ChipScanRequest(layout, 2048, 256)
        with pytest.raises(ValueError, match="stride"):
            ChipScanRequest(layout, 512, 0)
        with pytest.raises(ValueError, match="tile_budget"):
            ChipScanRequest(layout, 512, 256, tile_budget=-1)
        with pytest.raises(ValueError, match="max_retries"):
            ChipScanRequest(layout, 512, 256, max_retries=-1)

    def test_report_invariant(self, model, layout):
        with HotspotService.from_model(model, IMAGE) as svc:
            report = svc.scan_chip(chip_request(layout))
        with pytest.raises(ValueError, match="degraded"):
            ChipScanReport(
                request_id="",
                windows_scanned=report.windows_scanned,
                tiles_total=report.tiles_total,
                peak_tile_bytes=report.peak_tile_bytes,
                heatmap=report.heatmap,
                model=report.model,
                backend=report.backend,
                latency_ms=1.0,
                degraded=True,
                failed_tiles=(),
            )
