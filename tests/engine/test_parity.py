"""Tests for the cross-backend parity harness (bit-identical logits)."""

import numpy as np
import pytest

from repro.engine import available_backends, pipeline_signature
from repro.engine.parity import (
    PairResult,
    ParityResult,
    assert_backend_parity,
    compare_backends,
    main,
    seeded_model,
)


class TestCompareBackends:
    @pytest.mark.parametrize("scaling", ["xnor", "channelwise", "none"])
    def test_bit_identical_across_backends(self, scaling):
        model = seeded_model(scaling=scaling)
        result = compare_backends(model)
        assert result.ok, result.failures()
        for pair in result.pairs:
            assert pair.identical
            assert pair.max_abs_diff == 0.0

    def test_table16_eligible_stem_is_covered(self):
        # stem_stride=1 keeps the 3x3 single-channel stem (9 bits, one
        # word) on the table16 fast path inside the packed backend; the
        # float backend must still match bit for bit
        model = seeded_model(stem_stride=1)
        result = compare_backends(model)
        assert result.ok, result.failures()

    def test_strided_stem(self):
        model = seeded_model(stem_stride=2)
        assert compare_backends(model).ok

    def test_all_registered_backends_are_compared(self):
        result = compare_backends(seeded_model())
        # variants are backend[pipeline-signature], covering every
        # registered backend under both the raw lowered program and
        # the default pass pipeline
        backends = {v.split("[", 1)[0] for v in result.backends}
        pipelines = {v.split("[", 1)[1].rstrip("]") for v in result.backends}
        assert backends == set(available_backends())
        assert pipelines == {"none", pipeline_signature("default")}
        names = {name for pair in result.pairs
                 for name in (pair.left, pair.right)}
        assert names == set(result.backends)

    def test_reuses_caller_images(self):
        rng = np.random.default_rng(3)
        images = np.sign(rng.normal(size=(4, 1, 16, 16))) + 0.0
        keep = images.copy()
        model = seeded_model()
        result = compare_backends(model, images=images)
        assert result.ok
        np.testing.assert_array_equal(images, keep)

    def test_failures_reported(self):
        bad = ParityResult(
            backends=("float", "packed"),
            pairs=[PairResult(left="float", right="packed",
                              identical=False, max_abs_diff=1.0)],
        )
        assert not bad.ok
        assert bad.failures() == bad.pairs


class TestAssertParity:
    def test_passes_on_seeded_model(self):
        assert_backend_parity(seeded_model())

    def test_raises_on_mismatch(self, monkeypatch):
        import repro.engine.parity as parity_mod

        def rigged(model, **kwargs):
            return parity_mod.ParityResult(
                backends=("float", "packed"),
                pairs=[parity_mod.PairResult(
                    left="float", right="packed",
                    identical=False, max_abs_diff=0.5,
                )],
            )

        monkeypatch.setattr(parity_mod, "compare_backends", rigged)
        with pytest.raises(AssertionError):
            parity_mod.assert_backend_parity(seeded_model())


class TestCli:
    def test_quick_run_exits_zero(self, capsys):
        code = main([
            "--image-size", "16", "--base-width", "4", "--batch", "4",
            "--scaling", "xnor", "--stem-stride", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "OK (every OpNode type)" in out

    def test_node_type_without_coverage_fails(self, capsys):
        # without the default passes no variant compiles a fused op
        code = main([
            "--image-size", "16", "--base-width", "4", "--batch", "4",
            "--scaling", "xnor", "--stem-stride", "1", "--passes", "none",
        ])
        assert code == 1
        assert "MISSING FusedBinaryConvOp" in capsys.readouterr().out


class TestBatchInvariance:
    @pytest.mark.parametrize("backend", ["packed", "float"])
    def test_channelwise_logits_do_not_depend_on_the_batch(self, backend):
        """Channelwise scaling sums channel partials per output cell; a
        batch of one on a 1x1 map is a single column, which must still
        be summed channel by channel, as in any larger batch."""
        from repro.binary.inference import ProgramEngine
        from repro.models.bnn_resnet import build_bnn_resnet

        rng = np.random.default_rng(99)
        model = build_bnn_resnet((16, 32, 64), scaling="channelwise",
                                 seed=0, stem_stride=2)  # 16 px -> 1x1
        model.forward(rng.normal(size=(8, 1, 16, 16)), training=True)
        engine = ProgramEngine(model, backend)
        x = np.where(rng.random((6, 1, 16, 16)) < 0.5, 1.0, -1.0)
        batched = engine.predict_logits(x)
        singles = np.concatenate(
            [engine.predict_logits(x[i : i + 1]) for i in range(len(x))]
        )
        np.testing.assert_array_equal(batched, singles)
