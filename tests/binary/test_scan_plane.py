"""Bit-identity of the plane-compiled scan engine (ProgramEngine.plan_scan).

The whole point of the plane engine is that it is a pure optimisation:
for every scaling mode, stem stride and window phase, the logits must
equal ``predict_logits`` on the stacked window slices *bit for bit* —
not approximately.  These tests assert exact array equality.
"""

import numpy as np
import pytest

from repro.binary.inference import PlaneScanPlan, ProgramEngine
from repro.models.bnn_resnet import build_bnn_resnet
from repro.nn.layers.container import Sequential
from repro.nn.layers.dense import Dense
from repro.nn.layers.pooling import GlobalAvgPool2D


def _warmed_model(scaling, stem_stride=1, channels=(4, 8), seed=3):
    rng = np.random.default_rng(99)
    model = build_bnn_resnet(channels, scaling=scaling, seed=seed,
                             stem_stride=stem_stride)
    x = (rng.random((8, 1, 32, 32)) > 0.5) * 2.0 - 1.0
    model.forward(x, training=True)  # give BN non-trivial running stats
    return model


def _plane(size=96, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random((size, size)) > 0.5) * 2.0 - 1.0


def _reference(engine, plane, window, origins):
    batch = np.stack(
        [plane[oy : oy + window, ox : ox + window] for ox, oy in origins]
    )[:, None]
    return engine.predict_logits(batch)


class TestPlaneScanBitIdentity:
    @pytest.mark.parametrize("scaling", ["xnor", "channelwise", "none"])
    @pytest.mark.parametrize("stem_stride", [1, 2])
    def test_matches_per_window_logits(self, scaling, stem_stride):
        engine = ProgramEngine(_warmed_model(scaling, stem_stride))
        assert engine._stem_spec is not None
        plane, window = _plane(), 32
        # origins cover every phase of both stem strides, plus edges
        origins = [(x, y) for x in (0, 16, 33, 64) for y in (0, 7, 48, 64)]
        plan = engine.plan_scan(plane, window, origins)
        assert plan.uses_plane_stem
        np.testing.assert_array_equal(
            plan.logits(), _reference(engine, plane, window, origins)
        )

    def test_origin_subsets_and_batch_sizes(self):
        """Sharded / re-batched evaluation changes nothing."""
        engine = ProgramEngine(_warmed_model("xnor", stem_stride=2))
        plane, window = _plane(), 32
        origins = [(8 * i, 8 * j) for i in range(5) for j in range(5)]
        plan = engine.plan_scan(plane, window, origins)
        full = plan.logits()
        np.testing.assert_array_equal(
            full, _reference(engine, plane, window, origins)
        )
        np.testing.assert_array_equal(full, plan.logits(batch_size=7))
        shard = origins[11:19]
        np.testing.assert_array_equal(
            plan.logits(shard), full[11:19]
        )

    def test_unseen_origin_builds_phase_lazily(self):
        engine = ProgramEngine(_warmed_model("channelwise", stem_stride=2))
        plane, window = _plane(), 32
        plan = engine.plan_scan(plane, window, [(0, 0)])
        np.testing.assert_array_equal(
            plan.logits([(3, 5)]), _reference(engine, plane, window, [(3, 5)])
        )

    def test_scan_plane_one_shot(self):
        engine = ProgramEngine(_warmed_model("xnor"))
        plane, window = _plane(64), 32
        origins = [(0, 0), (16, 16), (32, 32)]
        np.testing.assert_array_equal(
            engine.scan_plane(plane, window, origins),
            _reference(engine, plane, window, origins),
        )


class TestFallbackPath:
    def test_non_sequential_model_falls_back(self):
        """A bare head (no conv stem) still scans, via whole windows."""
        rng = np.random.default_rng(1)
        model = Sequential(GlobalAvgPool2D(), Dense(1, 2, rng=rng))
        engine = ProgramEngine(model)
        assert engine._stem_spec is None
        plane, window = _plane(48), 16
        origins = [(0, 0), (5, 9), (32, 32)]
        plan = engine.plan_scan(plane, window, origins)
        assert not plan.uses_plane_stem
        np.testing.assert_array_equal(
            plan.logits(), _reference(engine, plane, window, origins)
        )

    def test_multichannel_plane_falls_back(self):
        engine = ProgramEngine(_warmed_model("xnor"))
        plane3 = np.stack([_plane(48, seed=s) for s in range(3)])[None]
        plan = PlaneScanPlan(plane3, 16, [(0, 0)], engine._stem_spec,
                             engine._fn)
        assert not plan.uses_plane_stem


class TestValidation:
    def test_out_of_bounds_origin_raises(self):
        engine = ProgramEngine(_warmed_model("none"))
        with pytest.raises(ValueError):
            engine.plan_scan(_plane(64), 32, [(40, 0)])
        with pytest.raises(ValueError):
            engine.plan_scan(_plane(64), 32, [(0, -1)])

    def test_bad_plane_shape_raises(self):
        engine = ProgramEngine(_warmed_model("none"))
        with pytest.raises(ValueError):
            engine.plan_scan(np.zeros((2, 1, 64, 64)), 32, [(0, 0)])

    def test_empty_origins_empty_logits(self):
        engine = ProgramEngine(_warmed_model("none"))
        plan = engine.plan_scan(_plane(64), 32, [])
        assert plan.logits().shape[0] == 0
