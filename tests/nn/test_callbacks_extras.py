"""Tests for warmup scheduling and the weighted loss."""

import numpy as np
import pytest

from repro.nn import (
    LinearWarmup,
    Parameter,
    ReduceLROnPlateau,
    SGD,
    SoftmaxCrossEntropy,
    WeightedCrossEntropy,
)


def make_opt(lr=1.0):
    return SGD([Parameter(np.zeros(1))], lr=lr)


class TestLinearWarmup:
    def test_ramps_to_target(self):
        opt = make_opt(lr=1.0)
        sched = LinearWarmup(opt, warmup_epochs=4, start_factor=0.2)
        assert opt.lr == pytest.approx(0.2)
        lrs = []
        for _ in range(4):
            sched.step()
            lrs.append(opt.lr)
        assert lrs[-1] == pytest.approx(1.0)
        assert lrs == sorted(lrs)

    def test_hands_over_to_inner_scheduler(self):
        opt = make_opt(lr=1.0)
        inner = ReduceLROnPlateau(opt, factor=0.5, patience=0)
        sched = LinearWarmup(opt, warmup_epochs=1, after=inner)
        sched.step(1.0)                # warmup epoch
        assert opt.lr == pytest.approx(1.0)
        sched.step(1.0)                # inner sees first loss
        assert sched.step(1.0)         # plateau -> inner decays
        assert opt.lr == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearWarmup(make_opt(), warmup_epochs=0)
        with pytest.raises(ValueError):
            LinearWarmup(make_opt(), warmup_epochs=2, start_factor=0.0)


class TestPlateauNoneSignal:
    def test_none_is_noop(self):
        opt = make_opt()
        sched = ReduceLROnPlateau(opt, factor=0.5, patience=0)
        assert not sched.step(None)
        assert opt.lr == 1.0


class TestWeightedCrossEntropy:
    def test_equal_weights_match_unweighted(self, rng):
        logits = rng.normal(size=(6, 2))
        labels = rng.integers(0, 2, size=6)
        weighted = WeightedCrossEntropy(np.array([1.0, 1.0]))
        plain = SoftmaxCrossEntropy()
        assert weighted.forward(logits, labels) == pytest.approx(
            plain.forward(logits, labels)
        )
        np.testing.assert_allclose(weighted.backward(), plain.backward())

    def test_upweighted_class_dominates_loss(self, rng):
        logits = np.zeros((2, 2))
        labels = np.array([0, 1])
        loss_fn = WeightedCrossEntropy(np.array([1.0, 10.0]))
        loss_fn.forward(logits, labels)
        grad = loss_fn.backward()
        # the hotspot row's gradient is 10x the non-hotspot row's
        assert np.abs(grad[1]).sum() == pytest.approx(
            10 * np.abs(grad[0]).sum()
        )

    def test_gradient_matches_finite_difference(self, rng):
        from ..conftest import finite_difference

        logits = rng.normal(size=(4, 2))
        labels = np.array([0, 1, 1, 0])
        loss_fn = WeightedCrossEntropy(np.array([1.0, 3.0]))
        loss_fn.forward(logits, labels)
        grad = loss_fn.backward()

        def f(z):
            inner = WeightedCrossEntropy(np.array([1.0, 3.0]))
            return np.array([inner.forward(z, labels)])

        num = finite_difference(f, logits.copy(), np.array([1.0]))
        np.testing.assert_allclose(grad, num, atol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedCrossEntropy(np.array([1.0, -1.0]))
        loss_fn = WeightedCrossEntropy(np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            loss_fn.forward(np.zeros((2, 2)), np.array([0, 1]))
