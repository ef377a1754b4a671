"""Bit-identity and memory bounds of the streaming chip scanner."""

import numpy as np
import pytest

from repro.binary.inference import ProgramEngine
from repro.chip import ChipScanner
from repro.features.downsample import to_network_input
from repro.litho.fullchip import synthesize_chip
from repro.litho.raster import rasterize_plane
from repro.models.bnn_resnet import build_bnn_resnet

SIZE = 4096
WINDOW = 512
STRIDE = 256
IMAGE = 16
SCALE = WINDOW // IMAGE
# budget forcing a multi-tile grid: two windows per tile axis
BUDGET = (2 * IMAGE) ** 2 * 8


def warmed_model(seed=3):
    rng = np.random.default_rng(99)
    model = build_bnn_resnet((4, 8), scaling="xnor", seed=seed)
    x = (rng.random((8, 1, IMAGE, IMAGE)) > 0.5) * 2.0 - 1.0
    model.forward(x, training=True)
    return model


@pytest.fixture(scope="module")
def layout():
    return synthesize_chip(SIZE, seed=11)


@pytest.fixture(scope="module", params=["packed", "float"])
def engine(request):
    return ProgramEngine(warmed_model(), request.param)


def monolithic_scores(engine, layout, steps):
    plane = to_network_input(
        rasterize_plane(layout, SCALE, "binary")[None]
    )
    origins = [(x // SCALE, y // SCALE) for y in steps for x in steps]
    logits = engine.scan_plane(plane, IMAGE, origins)
    n = len(steps)
    return (logits[:, 1] - logits[:, 0]).reshape(n, n)


class TestStreamedBitIdentity:
    def test_matches_monolithic_scan(self, engine, layout):
        scanner = ChipScanner(engine, IMAGE)
        result = scanner.scan(layout, WINDOW, STRIDE, BUDGET)
        assert result.tiles > 1
        reference = monolithic_scores(engine, layout, result.heatmap.steps)
        np.testing.assert_array_equal(result.heatmap.scores, reference)

    def test_budget_independent(self, engine, layout):
        """Any tile decomposition scores identically."""
        scanner = ChipScanner(engine, IMAGE)
        small = scanner.scan(layout, WINDOW, STRIDE, BUDGET)
        large = scanner.scan(layout, WINDOW, STRIDE, 2**28)
        assert small.tiles > large.tiles == 1
        assert small.heatmap.equals(large.heatmap)

    def test_snapped_stride_matches(self, engine, layout):
        """A stride that doesn't divide size-window snaps identically."""
        stride = 320  # (4096-512) % 320 != 0 -> snapped last origin
        scanner = ChipScanner(engine, IMAGE)
        result = scanner.scan(layout, WINDOW, stride, BUDGET)
        assert result.heatmap.steps[-1] == SIZE - WINDOW
        reference = monolithic_scores(engine, layout, result.heatmap.steps)
        np.testing.assert_array_equal(result.heatmap.scores, reference)


class TestMemoryBound:
    def test_peak_tile_bytes_tracked_and_bounded(self, engine, layout):
        result = ChipScanner(engine, IMAGE).scan(
            layout, WINDOW, STRIDE, BUDGET
        )
        assert 0 < result.peak_tile_bytes <= BUDGET
        # far below the monolithic plane footprint
        assert result.peak_tile_bytes < (SIZE // SCALE) ** 2 * 8

    def test_result_summary_reports_costs(self, engine, layout):
        result = ChipScanner(engine, IMAGE).scan(
            layout, WINDOW, STRIDE, BUDGET
        )
        summary = result.summary()
        assert summary["tiles"] == result.tiles
        assert summary["peak_tile_bytes"] == result.peak_tile_bytes
        assert summary["tile_budget"] == BUDGET
        assert summary["unscored"] == 0
        assert summary["rescored_windows"] is None


class TestValidation:
    def test_window_must_be_pixel_aligned(self, engine, layout):
        scanner = ChipScanner(engine, IMAGE)
        with pytest.raises(ValueError, match="multiple of the engine"):
            scanner.compile(layout, WINDOW + 1, STRIDE, BUDGET)

    def test_constructor_knobs(self, engine):
        with pytest.raises(ValueError):
            ChipScanner(engine, 0)
        with pytest.raises(ValueError):
            ChipScanner(engine, IMAGE, batch_size=0)


class TestHeatmap:
    def test_hits_match_score_threshold(self, engine, layout):
        result = ChipScanner(engine, IMAGE).scan(
            layout, WINDOW, STRIDE, BUDGET
        )
        heatmap = result.heatmap
        hits = heatmap.hits(0.0)
        assert len(hits) == int((heatmap.scores > 0.0).sum())
        for hit in hits:
            assert hit.x1 - hit.x0 == WINDOW
            assert hit.score > 0.0

    def test_npz_roundtrip(self, engine, layout, tmp_path):
        heatmap = ChipScanner(engine, IMAGE).scan(
            layout, WINDOW, STRIDE, BUDGET
        ).heatmap
        heatmap.save_npz(tmp_path / "h.npz")
        loaded = type(heatmap).load_npz(tmp_path / "h.npz")
        assert loaded.equals(heatmap)
