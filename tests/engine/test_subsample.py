"""Subsample-first lowering of strided 1x1 fused convolutions.

A fused ``BatchNormAffine → BinaryConvOp`` with a 1x1 kernel, no
padding and stride ``s > 1`` reads only every ``s``-th row and column,
so ``Backend.compile_fused_conv`` slices its input first and runs the
batch-norm prologue, the sign packing and the |x| scaling map on those
positions alone.  These tests pin that the rewrite is bit-exact against
the unfused program (which never subsamples early) and the float
backend, on odd and even maps, and that the prologue really sees only
the subsampled positions.
"""

import numpy as np
import pytest

from repro.binary import quantize
from repro.engine import (
    BatchNormAffine,
    BinaryConvOp,
    FusedBinaryConvOp,
    Program,
    run_pipeline,
)
from repro.engine.backends import available_backends, get_backend
from repro.engine.parity import compare_backends, seeded_model

C_IN, C_OUT, BATCH = 5, 7, 3


def strided_program(size_stride, scaling, with_bn=True, seed=0):
    """A one-op program: [batch-norm →] 1x1 stride-``s`` binary conv."""
    rng = np.random.default_rng(seed)
    conv = BinaryConvOp(
        name="shortcut.conv",
        in_channels=C_IN,
        out_channels=C_OUT,
        kernel_size=1,
        stride=size_stride,
        padding=0,
        scaling=scaling,
        weight=rng.normal(size=(C_OUT, C_IN, 1, 1)),
    )
    if not with_bn:
        return Program((conv,))
    bn = BatchNormAffine(
        name="shortcut.bn",
        channels=C_IN,
        scale=rng.uniform(0.5, 2.0, size=C_IN),
        shift=rng.normal(scale=0.3, size=C_IN),
    )
    return Program((bn, conv))


def features(size, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(BATCH, C_IN, size, size))
    x[0, :, 0, 0] = 0.0  # exact zeros take the >= 0 branch of sign
    return x


def run(program, backend, x, owned=False):
    executor = get_backend(backend).compile(program)
    return executor.run(x.copy(), owned=owned)


MAPS = [(5, 2), (5, 3), (6, 2), (6, 3)]


class TestSubsampleFirst:
    @pytest.mark.parametrize("size,stride", MAPS)
    @pytest.mark.parametrize("scaling", ["xnor", "channelwise", "none"])
    @pytest.mark.parametrize("with_bn", [True, False])
    def test_fused_equals_unfused_and_float(self, size, stride, scaling,
                                            with_bn):
        program = strided_program(stride, scaling, with_bn)
        fused = run_pipeline(program, "default")
        assert isinstance(fused[0], FusedBinaryConvOp)
        x = features(size)
        reference = run(program, "float", x)  # passes="none", unfused
        out_h = (size - 1) // stride + 1
        assert reference.shape == (BATCH, C_OUT, out_h, out_h)
        for backend in available_backends():
            for owned in (False, True):
                for prog in (fused, program):
                    got = run(prog, backend, x, owned=owned)
                    assert got.dtype == reference.dtype
                    assert got.tobytes() == reference.tobytes(), (
                        backend, owned, prog is fused
                    )

    @pytest.mark.parametrize("backend", ["float", "packed"])
    @pytest.mark.parametrize("size,stride", MAPS)
    def test_prologue_sees_only_subsampled_positions(self, monkeypatch,
                                                     backend, size, stride):
        program = strided_program(stride, "xnor")
        fused = run_pipeline(program, "default")
        seen = []
        original = quantize.input_scale_xnor

        def recording(x, *args):
            seen.append(x.copy())
            return original(x, *args)

        monkeypatch.setattr(quantize, "input_scale_xnor", recording)
        x = features(size)
        run(fused, backend, x)
        assert len(seen) == 1
        bn = program[0]
        expected = (
            x * bn.scale[None, :, None, None] + bn.shift[None, :, None, None]
        )[:, :, ::stride, ::stride]
        out_h = (size - 1) // stride + 1
        assert seen[0].shape == (BATCH, C_IN, out_h, out_h)
        assert seen[0].tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize("backend", ["float", "packed"])
    def test_unfused_conv_reads_full_resolution(self, monkeypatch, backend):
        """passes="none" keeps the strided conv on the whole map, so it
        stays an independent check of the subsample-first rewrite."""
        seen = []
        original = quantize.input_scale_xnor

        def recording(x, *args):
            seen.append(x.shape)
            return original(x, *args)

        monkeypatch.setattr(quantize, "input_scale_xnor", recording)
        run(strided_program(2, "xnor"), backend, features(6))
        assert seen == [(BATCH, C_IN, 6, 6)]


class TestOddFeatureMaps:
    @pytest.mark.parametrize("image_size", [20, 24])
    @pytest.mark.parametrize("scaling", ["xnor", "channelwise"])
    def test_engine_parity(self, image_size, scaling):
        # stem stride 2 and two stages: 20 -> 10 -> 5 -> 3 feeds an odd
        # map into a strided shortcut; 24 -> 12 -> 6 -> 3 ends on one
        model = seeded_model(
            image_size=image_size, stem_stride=2, scaling=scaling
        )
        result = compare_backends(model, image_size=image_size)
        assert result.ok, result.failures()
