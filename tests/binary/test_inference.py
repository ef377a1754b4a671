"""Tests for the packed inference engine: bit-exact parity with the
float-simulated forward pass."""

import numpy as np
import pytest

from repro.binary import BinaryConv2D, ProgramEngine
from repro.models import bnn_resnet8, bnn_resnet12
from repro.nn import BatchNorm2D, Module


class TestLayerParity:
    @pytest.mark.parametrize("scaling", ["channelwise", "xnor", "none"])
    def test_binary_conv(self, rng, scaling):
        layer = BinaryConv2D(3, 5, 3, stride=2, padding=1, scaling=scaling,
                             rng=rng)
        x = rng.normal(size=(2, 3, 9, 9))
        np.testing.assert_allclose(
            ProgramEngine(layer).forward(x), layer.forward(x), atol=1e-9
        )

    def test_batchnorm_uses_running_stats(self, rng):
        bn = BatchNorm2D(3)
        for _ in range(5):
            bn.forward(rng.normal(loc=1.5, size=(8, 3, 4, 4)), training=True)
        x = rng.normal(size=(2, 3, 4, 4))
        np.testing.assert_allclose(
            ProgramEngine(bn).forward(x), bn.forward(x, training=False), atol=1e-12
        )

    def test_unknown_layer_raises(self):
        class Strange(Module):
            pass

        with pytest.raises(TypeError):
            ProgramEngine(Strange())


class TestNetworkParity:
    @pytest.mark.parametrize("scaling", ["channelwise", "xnor", "none"])
    def test_full_bnn_resnet(self, rng, scaling):
        model = bnn_resnet8(scaling=scaling, seed=3, base_width=4)
        # accumulate batch-norm statistics so eval mode is non-trivial
        model.forward(rng.normal(size=(8, 1, 16, 16)), training=True)
        x = rng.normal(size=(4, 1, 16, 16))
        np.testing.assert_allclose(
            ProgramEngine(model).forward(x), model.forward(x), atol=1e-8
        )

    def test_resnet12_block_with_projection(self, rng):
        model = bnn_resnet12(scaling="xnor", seed=1, base_width=4)
        model.forward(rng.normal(size=(4, 1, 32, 32)), training=True)
        x = rng.normal(size=(2, 1, 32, 32))
        np.testing.assert_allclose(
            ProgramEngine(model).forward(x), model.forward(x), atol=1e-8
        )

    def test_engine_is_a_snapshot(self, rng):
        model = bnn_resnet8(seed=0, base_width=4)
        x = rng.normal(size=(2, 1, 16, 16))
        engine = ProgramEngine(model)
        before = engine.forward(x)
        for p in model.parameters():
            p.data[...] = 0.12345  # packed weights were captured already
        np.testing.assert_allclose(engine.forward(x), before)

    def test_predict_logits_batches(self, rng):
        model = bnn_resnet8(seed=0, base_width=4)
        engine = ProgramEngine(model)
        x = rng.normal(size=(10, 1, 16, 16))
        np.testing.assert_allclose(
            engine.predict_logits(x, batch_size=3), engine.forward(x), atol=1e-10
        )

    def test_argmax_predictions_identical(self, rng):
        """The deployment guarantee: packed predictions never differ
        from the float simulation's predictions."""
        model = bnn_resnet8(scaling="xnor", seed=7, base_width=4)
        model.forward(rng.normal(size=(16, 1, 16, 16)), training=True)
        x = rng.normal(size=(32, 1, 16, 16))
        sim = model.forward(x).argmax(1)
        packed = ProgramEngine(model).forward(x).argmax(1)
        np.testing.assert_array_equal(sim, packed)
