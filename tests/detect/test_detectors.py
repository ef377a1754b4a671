"""Detector-level tests on a fast planted-signal dataset.

These tests verify the detector *protocol* (fit / predict / evaluate)
and that each method learns an easy signal quickly; the lithography
benchmark integration lives in tests/integration.
"""

import numpy as np
import pytest

from repro.detect import (
    BNNDetector,
    DAC17Detector,
    ICCAD16Detector,
    SPIE15Detector,
    stages_for_image_size,
)
from repro.nn import ArrayDataset

from ..conftest import make_separable_images


@pytest.fixture(scope="module")
def planted():
    rng = np.random.default_rng(0)
    train_images, train_labels = make_separable_images(30, size=16, rng=rng)
    test_images, test_labels = make_separable_images(15, size=16, rng=rng)
    return (
        ArrayDataset(train_images, train_labels),
        ArrayDataset(test_images, test_labels),
    )


def fast_detectors():
    return [
        SPIE15Detector(grid=4, n_estimators=10, max_depth=2),
        ICCAD16Detector(n_selected=32, epochs=5),
        DAC17Detector(block=2, coefficients=4, stage_widths=(4, 8),
                      epochs=4, finetune_epochs=1, seed=0),
        BNNDetector(channels=(4, 8), epochs=4, finetune_epochs=1,
                    batch_size=16, seed=0, stem_stride=1),
    ]


@pytest.mark.parametrize("detector", fast_detectors(),
                         ids=lambda d: type(d).__name__)
class TestDetectorProtocol:
    def test_learns_planted_signal(self, planted, detector):
        train, test = planted
        rng = np.random.default_rng(1)
        metrics = detector.fit_evaluate(train, test, rng)
        assert metrics.accuracy > 0.6
        assert metrics.confusion.total == len(test)

    def test_predict_shape_and_dtype(self, planted, detector):
        train, test = planted
        predictions = detector.predict(test.images)
        assert predictions.shape == (len(test),)
        assert set(np.unique(predictions)) <= {0, 1}


class TestBNNSpecifics:
    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            BNNDetector().predict(np.zeros((1, 1, 16, 16)))

    def test_packed_and_sim_predictions_agree(self, planted):
        train, test = planted
        detector = BNNDetector(channels=(4, 8), epochs=3, finetune_epochs=0,
                               batch_size=16, seed=0, backend="packed",
                               stem_stride=1)
        detector.fit(train, np.random.default_rng(2))
        packed = detector.predict(test.images)
        detector.engine = None  # fall back to the float simulation
        sim = detector.predict(test.images)
        np.testing.assert_array_equal(packed, sim)

    def test_stages_for_image_size(self):
        assert stages_for_image_size(128) == 5   # the paper's layout
        assert stages_for_image_size(64) == 4
        assert stages_for_image_size(32) == 3
        assert stages_for_image_size(64, stem_stride=2) == 3
        assert stages_for_image_size(8) == 2     # clamped floor

    def test_unbalanced_mode(self, planted):
        train, test = planted
        detector = BNNDetector(channels=(4,), epochs=2, finetune_epochs=0,
                               balance=False, batch_size=16, seed=0,
                               stem_stride=1)
        detector.fit(train, np.random.default_rng(3))
        assert detector.predict(test.images).shape == (len(test),)


class TestDAC17Specifics:
    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DAC17Detector().predict(np.zeros((1, 1, 16, 16)))

    def test_incompatible_block_raises(self, planted):
        train, _ = planted
        with pytest.raises(ValueError):
            DAC17Detector(block=5).fit(train, np.random.default_rng(0))


class TestBaselineSpecifics:
    def test_spie_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            SPIE15Detector().predict(np.zeros((1, 1, 16, 16)))

    def test_iccad_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            ICCAD16Detector().predict(np.zeros((1, 1, 16, 16)))

    def test_iccad_threshold_monotone_in_flags(self, planted):
        train, test = planted
        rng = np.random.default_rng(4)
        loose = ICCAD16Detector(n_selected=32, epochs=5, threshold=0.1)
        loose.fit(train, rng)
        flags_loose = loose.predict(test.images).sum()
        loose.threshold = 0.9
        flags_strict = loose.predict(test.images).sum()
        assert flags_loose >= flags_strict


class TestEvaluateTiming:
    def test_metrics_record_times(self, planted):
        train, test = planted
        detector = SPIE15Detector(grid=4, n_estimators=5)
        metrics = detector.fit_evaluate(train, test, np.random.default_rng(5))
        assert metrics.train_time_s > 0.0
        assert metrics.eval_time_s > 0.0
        assert metrics.odst >= metrics.eval_time_s
