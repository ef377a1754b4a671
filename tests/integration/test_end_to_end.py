"""End-to-end integration tests: litho benchmark -> detector -> metrics.

Uses a tiny generated benchmark (seconds, not minutes); the full-scale
reproduction lives in benchmarks/.
"""

import numpy as np
import pytest

from repro.binary import ProgramEngine
from repro.bench import load_benchmark, run_detectors
from repro.detect import (
    BNNDetector,
    DAC17Detector,
    ICCAD16Detector,
    SPIE15Detector,
)
from repro.litho import generate_iccad2012_like
from repro.nn import load_model, save_model


@pytest.fixture(scope="module")
def tiny_benchmark(tmp_path_factory):
    """Scale-0.004 benchmark at 32 px: ~5 HS / 68 NHS train."""
    return generate_iccad2012_like(scale=0.004, image_size=32, seed=77)


class TestPipeline:
    def test_benchmark_has_both_classes(self, tiny_benchmark):
        assert tiny_benchmark.train.labels.sum() >= 4
        assert (tiny_benchmark.train.labels == 0).sum() >= 60

    def test_bnn_detector_above_chance(self, tiny_benchmark):
        detector = BNNDetector(channels=(6, 12), epochs=6, finetune_epochs=2,
                               batch_size=16, seed=0, stem_stride=1)
        metrics = detector.fit_evaluate(
            tiny_benchmark.train, tiny_benchmark.test, np.random.default_rng(0)
        )
        # tiny data: only require meaningfully-above-chance behaviour
        flagged = metrics.confusion.tp + metrics.confusion.fp
        assert flagged > 0
        assert metrics.confusion.tp >= 1

    def test_all_detectors_run_on_benchmark(self, tiny_benchmark):
        detectors = [
            SPIE15Detector(grid=4, n_estimators=8),
            ICCAD16Detector(n_selected=24, epochs=4),
            DAC17Detector(block=4, coefficients=6, stage_widths=(4, 8),
                          epochs=2, finetune_epochs=0),
            BNNDetector(channels=(4,), epochs=2, finetune_epochs=0,
                        batch_size=16, stem_stride=1),
        ]
        results = run_detectors(detectors, tiny_benchmark, seed=0)
        assert len(results) == 4
        for metrics in results:
            assert 0.0 <= metrics.accuracy <= 1.0
            assert metrics.confusion.total == len(tiny_benchmark.test)

    def test_trained_model_save_load_predict(self, tiny_benchmark, tmp_path):
        detector = BNNDetector(channels=(4, 8), epochs=2, finetune_epochs=0,
                               batch_size=16, seed=1, stem_stride=1)
        detector.fit(tiny_benchmark.train, np.random.default_rng(1))
        before = detector.predict(tiny_benchmark.test.images)

        path = tmp_path / "bnn.npz"
        save_model(detector.model, path)
        fresh = BNNDetector(channels=(4, 8), seed=999, stem_stride=1)
        fresh.model = fresh._build(32)
        load_model(fresh.model, path)
        fresh.engine = ProgramEngine(fresh.model)
        after = fresh.predict(tiny_benchmark.test.images)
        np.testing.assert_array_equal(before, after)

    def test_harness_cache_integration(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = load_benchmark(scale=0.001, image_size=16, seed=11)
        second = load_benchmark(scale=0.001, image_size=16, seed=11)
        np.testing.assert_array_equal(first.test.images, second.test.images)
