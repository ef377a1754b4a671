"""Tests for the executor: timing hooks, buffer ownership, in-place kernels."""

import numpy as np
import pytest

from repro.engine import Executor, Kernel, OpTimings, get_backend, lower
from repro.engine.ir import BatchNormAffine, Program, ResidualOp
from repro.models import bnn_resnet8


@pytest.fixture
def rng():
    return np.random.default_rng(1)


def _affine(name):
    return BatchNormAffine(name=name, channels=1, scale=np.ones(1),
                           shift=np.zeros(1))


def _spies(seen):
    """An out-of-place / in-place doubling kernel pair that logs its calls."""

    def fn(x):
        seen.append("out_of_place")
        return x * 2.0

    def inplace_fn(x):
        seen.append("inplace")
        x *= 2.0
        return x

    return fn, inplace_fn


def _warm_model(rng, **kwargs):
    model = bnn_resnet8(seed=0, base_width=4, **kwargs)
    model.forward(rng.normal(size=(4, 1, 16, 16)), training=True)
    return model


class TestTimings:
    def test_rows_follow_program_order(self, rng):
        model = _warm_model(rng)
        program = lower(model)
        timings = OpTimings()
        executor = get_backend("packed").compile(program, timings)
        executor.run(rng.normal(size=(2, 1, 16, 16)))
        rows = timings.snapshot()
        names = [row["op"] for row in rows]
        walked = [node.name for node in program.walk()]
        # registration order is the program pre-order, minus untimed ops
        assert names == [name for name in walked if name in set(names)]
        assert "0.conv" in names

    def test_calls_and_totals_accumulate(self, rng):
        model = _warm_model(rng)
        timings = OpTimings()
        executor = get_backend("packed").compile(lower(model), timings)
        x = rng.normal(size=(2, 1, 16, 16))
        executor.run(x.copy())
        executor.run(x.copy())
        for row in timings.snapshot():
            assert row["calls"] == 2
            assert row["total_ms"] >= 0.0
            assert row["mean_ms"] == pytest.approx(row["total_ms"] / 2)

    def test_reset_keeps_registration(self, rng):
        model = _warm_model(rng)
        timings = OpTimings()
        executor = get_backend("packed").compile(lower(model), timings)
        executor.run(rng.normal(size=(2, 1, 16, 16)))
        timings.reset()
        rows = timings.snapshot()
        assert rows and all(row["calls"] == 0 for row in rows)

    def test_residual_branch_ops_are_timed(self, rng):
        model = _warm_model(rng)
        timings = OpTimings()
        executor = get_backend("packed").compile(lower(model), timings)
        executor.run(rng.normal(size=(2, 1, 16, 16)))
        names = [row["op"] for row in timings.snapshot()]
        assert any(".main." in name for name in names)
        assert any(".shortcut." in name for name in names)


class TestOwnership:
    def test_caller_input_never_mutated(self, rng):
        model = _warm_model(rng)
        executor = get_backend("packed").compile(lower(model))
        x = rng.normal(size=(2, 1, 16, 16))
        keep = x.copy()
        executor.run(x)
        np.testing.assert_array_equal(x, keep)

    def test_inplace_matches_out_of_place(self, rng):
        # an owned buffer may be updated in place by pointwise kernels;
        # the result must be bit-identical to the out-of-place path
        model = _warm_model(rng)
        executor = get_backend("packed").compile(lower(model))
        x = rng.normal(size=(3, 1, 16, 16))
        owned = executor.run(x.copy(), owned=True)
        borrowed = executor.run(x.copy(), owned=False)
        assert owned.tobytes() == borrowed.tobytes()

    def test_borrowed_input_is_copied_once(self):
        seen = []
        fn, inplace_fn = _spies(seen)
        kernels = [
            Kernel(node=_affine("a"), fn=fn, inplace_fn=inplace_fn),
            Kernel(node=_affine("b"), fn=fn, inplace_fn=inplace_fn),
        ]
        executor = Executor(kernels, OpTimings())
        x = np.ones(4)
        out = executor.run(x, owned=False)
        # the first kernel must copy the caller's array; its fresh output
        # is the chain's own, so the second kernel runs in place on it
        assert seen == ["out_of_place", "inplace"]
        np.testing.assert_array_equal(x, np.ones(4))
        np.testing.assert_array_equal(out, np.full(4, 4.0))

    def test_owned_buffer_uses_inplace_kernels(self):
        seen = []
        fn, inplace_fn = _spies(seen)
        executor = Executor(
            [Kernel(node=_affine("dbl"), fn=fn, inplace_fn=inplace_fn)],
            OpTimings(),
        )
        executor.run(np.ones(4), owned=True)
        assert seen == ["inplace"]

    def test_untimed_kernel_absent_from_snapshot(self):
        node = ResidualOp(name="quiet", main=Program(()), shortcut=None)
        timings = OpTimings()
        executor = Executor(
            [Kernel(node=node, fn=lambda x: x + 1.0, timed=False)], timings
        )
        executor.run(np.zeros(2))
        assert timings.snapshot() == []


class TestEngineSurface:
    def test_engine_exposes_op_timings(self, rng):
        from repro.binary import ProgramEngine

        model = _warm_model(rng)
        engine = ProgramEngine(model)
        engine.predict_logits(rng.normal(size=(2, 1, 16, 16)))
        rows = engine.op_timings()
        assert rows and all(row["calls"] >= 1 for row in rows)
        engine.reset_op_timings()
        assert all(row["calls"] == 0 for row in engine.op_timings())
