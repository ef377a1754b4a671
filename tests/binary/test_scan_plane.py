"""Bit-identity of the plane-compiled scan engine (ProgramEngine.plan_scan).

The whole point of the plane engine is that it is a pure optimisation:
for every scaling mode, stem stride, window phase and prefix depth, the
logits must equal ``predict_logits`` on the stacked window slices *bit
for bit* — not approximately.  These tests assert exact array equality,
and that a plan stays within its engine's per-pixel footprint bound.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binary import bitpack
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
        plane, window = _plane(), 32
        # origins cover every phase of both stem strides, plus edges
        origins = [(x, y) for x in (0, 16, 33, 64) for y in (0, 7, 48, 64)]
        expected = _reference(engine, plane, window, origins)
        chosen = engine.plan_scan(plane, window, origins)
        assert chosen.max_depth >= 2  # the stem and the first stage
        np.testing.assert_array_equal(chosen.logits(), expected)
        for depth in range(chosen.max_depth + 1):
            plan = PlaneScanPlan(plane, window, origins, engine._prefix,
                                 depth=depth)
            np.testing.assert_array_equal(plan.logits(), expected)

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
        plan = PlaneScanPlan(plane, window, [(0, 0)], engine._prefix,
                             depth=2)
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
        assert engine._prefix.stages == ()
        plane, window = _plane(48), 16
        origins = [(0, 0), (5, 9), (32, 32)]
        plan = engine.plan_scan(plane, window, origins)
        assert plan.max_depth == plan.depth == 0
        np.testing.assert_array_equal(
            plan.logits(), _reference(engine, plane, window, origins)
        )

    def test_multichannel_plane_falls_back(self):
        engine = ProgramEngine(_warmed_model("xnor"))
        plane3 = np.stack([_plane(48, seed=s) for s in range(3)])[None]
        plan = PlaneScanPlan(plane3, 16, [(0, 0)], engine._prefix)
        assert plan.max_depth == plan.depth == 0


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


_ENGINES: dict = {}


def _engine(scaling, stem_stride, flip_bn=False, backend="packed"):
    """Cached engines; ``flip_bn`` makes batch-norm scales <= 0 on half
    the channels (the threshold compare then flips direction)."""
    key = (scaling, stem_stride, flip_bn, backend)
    if key not in _ENGINES:
        model = _warmed_model(scaling, stem_stride)
        if flip_bn:
            for name, param in model.named_parameters():
                if name.endswith("gamma"):
                    param.data[::2] *= -1.0
                    param.data[1::4] = 0.0
        _ENGINES[key] = ProgramEngine(model, backend)
    return _ENGINES[key]


@st.composite
def scans(draw):
    window = draw(st.sampled_from([15, 16, 17, 24, 31, 32]))
    side = draw(st.integers(window, 72))
    xs = st.integers(0, side - window)
    origins = draw(st.lists(st.tuples(xs, xs), min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**16))
    density = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    rng = np.random.default_rng(seed)
    plane = np.where(rng.random((side, side)) < density, 1.0, -1.0)
    return plane, window, origins


class TestEveryDepthIsBitIdentical:
    @settings(max_examples=40, deadline=None)
    @given(
        scan=scans(),
        scaling=st.sampled_from(["xnor", "channelwise", "none"]),
        stem_stride=st.sampled_from([1, 2]),
        flip_bn=st.booleans(),
    )
    def test_plan_logits_match_window_logits(
        self, scan, scaling, stem_stride, flip_bn
    ):
        plane, window, origins = scan
        engine = _engine(scaling, stem_stride, flip_bn)
        expected = _reference(engine, plane, window, origins)
        chosen = engine.plan_scan(plane, window, origins)
        np.testing.assert_array_equal(chosen.logits(), expected)
        for depth in range(chosen.max_depth + 1):
            plan = PlaneScanPlan(plane, window, origins, engine._prefix,
                                 depth=depth)
            np.testing.assert_array_equal(plan.logits(), expected)

    def test_depth_out_of_range_raises(self):
        engine = _engine("xnor", 1)
        plan = engine.plan_scan(_plane(64), 32, [(0, 0)])
        with pytest.raises(ValueError, match="depth"):
            PlaneScanPlan(_plane(64), 32, [(0, 0)], engine._prefix,
                          depth=plan.max_depth + 1)


class TestPlaneBands:
    @pytest.mark.parametrize("stem_stride", [1, 2])
    def test_banded_plane_passes_match_whole_ones(
        self, stem_stride, monkeypatch
    ):
        """Stage passes over a plane wider than the column budget run in
        row bands: no packed-column buffer exceeds it, and the stage
        planes equal the unbanded ones bit for bit."""
        engine = _engine("xnor", stem_stride)
        plane, window = _plane(72), 32
        plan = PlaneScanPlan(plane, window, [], engine._prefix, depth=0)
        plan = PlaneScanPlan(plane, window, [], engine._prefix,
                             depth=plan.max_depth)
        whole = plan._phase_planes((1, 1))
        plan._cached = None
        widths = []
        original = bitpack._pack_activation_columns

        def tracking(*args, **kwargs):
            cols = original(*args, **kwargs)
            widths.append(cols.shape[1])
            return cols

        monkeypatch.setattr(bitpack, "MAX_COLS", 300)
        monkeypatch.setattr(bitpack, "_pack_activation_columns", tracking)
        banded = plan._phase_planes((1, 1))
        assert widths and max(widths) <= 300
        for a, b in zip(whole, banded):
            np.testing.assert_array_equal(a, b)


def _held_bytes(plan):
    """Every array the plan holds: the plane and its cached phase."""
    planes = plan._cached[1] if plan._cached is not None else []
    return plan._plane.nbytes + sum(p.nbytes for p in planes)


class TestFootprintBound:
    @pytest.mark.parametrize("backend", ["packed", "float"])
    @pytest.mark.parametrize("scaling", ["xnor", "channelwise", "none"])
    @pytest.mark.parametrize("stem_stride", [1, 2])
    def test_plan_stays_within_bytes_per_pixel(
        self, backend, scaling, stem_stride
    ):
        engine = _engine(scaling, stem_stride, backend=backend)
        held_bound, total_bound = engine._plan_footprint()
        assert engine.plan_bytes_per_pixel() == int(np.ceil(total_bound))
        plane, window = _plane(72), 32
        probe = PlaneScanPlan(plane, window, [], engine._prefix, depth=0)
        assert probe.max_depth >= 2
        pixels = plane.size
        for depth in range(1, probe.max_depth + 1):
            plan = PlaneScanPlan(plane, window, [], engine._prefix,
                                 depth=depth)
            stride = engine._prefix.stages[depth - 1].cum_stride
            plan._phase_planes((stride - 1, stride - 1))  # warm caches
            for phase in [(y, x) for y in range(stride)
                          for x in range(stride)]:
                plan._cached = None
                tracemalloc.start()
                plan._phase_planes(phase)
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                held = _held_bytes(plan)
                assert held <= held_bound * pixels, (depth, phase)
                assert plan._plane.nbytes + peak <= total_bound * pixels, (
                    depth, phase
                )


class TestPlaneOpTimings:
    def test_plane_passes_report_per_layer_times(self):
        engine = ProgramEngine(_warmed_model("xnor", stem_stride=2))
        plane, window = _plane(192), 64
        origins = [(x, y) for x in range(0, 129, 16)
                   for y in range(0, 129, 16)]
        engine.reset_op_timings()
        plan = engine.plan_scan(plane, window, origins)
        assert plan.depth >= 2  # the first residual stage is planed

        def calls():
            return {row["op"]: row["calls"] for row in engine.op_timings()}

        # construction ran the stage-1 plane pass and nothing per window
        assert calls()["1.main.0.conv"] > 0
        assert calls()["2.main.0.conv"] == 0
        plan.logits()
        assert calls()["1.main.0.conv"] > 0
        assert calls()["2.main.0.conv"] > 0
        engine.reset_op_timings()
        assert calls()["1.main.0.conv"] == 0


class TestDepthChoice:
    @pytest.fixture(scope="class")
    def engine(self):
        return ProgramEngine(build_bnn_resnet(
            (8, 16, 32, 64), scaling="xnor", seed=0, stem_stride=2
        ))

    def test_dense_sweep_planes_the_first_stage(self, engine):
        plane, window = _plane(384), 128
        steps = range(0, 384 - window + 1, 64)
        plan = engine.plan_scan(plane, window,
                                [(x, y) for y in steps for x in steps])
        assert plan.depth == 2  # the stem and residual stage 1

    def test_sparse_origins_run_whole_windows(self, engine):
        plan = engine.plan_scan(_plane(384), 128, [(0, 0), (256, 64)])
        assert plan.depth == 0
