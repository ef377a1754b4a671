"""Integration tests combining the framework extensions: warmup
schedules, weighted losses and the trainer loop."""

import numpy as np
import pytest

from repro.nn import (
    ArrayDataset,
    DataLoader,
    Dense,
    LinearWarmup,
    NAdam,
    ReduceLROnPlateau,
    ReLU,
    Sequential,
    SGD,
    Trainer,
    WeightedCrossEntropy,
    predict_logits,
)


def imbalanced_blobs(rng, n=120, positive_fraction=0.1):
    n_pos = max(2, int(n * positive_fraction))
    x0 = rng.normal(loc=-1.0, size=(n - n_pos, 3))
    x1 = rng.normal(loc=+1.0, size=(n_pos, 3))
    x = np.vstack([x0, x1])
    y = np.array([0] * (n - n_pos) + [1] * n_pos)
    order = rng.permutation(n)
    return ArrayDataset(x[order], y[order])


def make_model(rng):
    return Sequential(Dense(3, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng))


class TestWeightedLossTraining:
    def test_weighted_loss_raises_minority_recall(self, rng):
        ds = imbalanced_blobs(rng)

        def train(loss_fn, seed):
            model = make_model(np.random.default_rng(seed))
            trainer = Trainer(model, NAdam(model.parameters(), lr=0.01),
                              loss_fn=loss_fn)
            loader = DataLoader(ds, 16, rng=np.random.default_rng(0))
            trainer.fit(loader, epochs=12)
            pred = predict_logits(model, ds.images).argmax(1)
            positives = ds.labels == 1
            return (pred[positives] == 1).mean()

        plain = train(None, seed=3)
        weighted = train(WeightedCrossEntropy(np.array([1.0, 9.0])), seed=3)
        assert weighted >= plain


class TestWarmupInTrainer:
    def test_warmup_steps_without_validation(self, rng):
        """The trainer must step schedulers even with no val loader."""
        ds = imbalanced_blobs(rng, n=32)
        model = make_model(rng)
        opt = SGD(model.parameters(), lr=1.0)
        sched = LinearWarmup(opt, warmup_epochs=3, start_factor=0.1)
        trainer = Trainer(model, opt, scheduler=sched)
        loader = DataLoader(ds, 16, rng=np.random.default_rng(0))
        history = trainer.fit(loader, epochs=3)
        # lr recorded per epoch climbs toward the target
        assert history.lr[0] < history.lr[-1]
        assert opt.lr == pytest.approx(1.0)

    def test_warmup_then_plateau(self, rng):
        ds = imbalanced_blobs(rng, n=48)
        model = make_model(rng)
        opt = SGD(model.parameters(), lr=1e-8)  # cannot improve: plateau
        sched = LinearWarmup(
            opt, warmup_epochs=1,
            after=ReduceLROnPlateau(opt, factor=0.5, patience=0,
                                    min_lr=1e-12),
        )
        trainer = Trainer(model, opt, scheduler=sched)
        loader = DataLoader(ds, 16, rng=np.random.default_rng(0))
        val = DataLoader(ds, 16, shuffle=False)
        trainer.fit(loader, epochs=5, val_loader=val)
        assert opt.lr < 1e-8  # the inner plateau scheduler decayed
