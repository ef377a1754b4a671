"""Audit of the paper-exact network configuration (Figure 2 at 128x128)."""

import numpy as np

from repro.binary import ProgramEngine
from repro.models import bnn_resnet12, summarize


class TestPaperNetwork:
    def test_stage_filter_doubling(self):
        """Default widths double per stage: 8, 16, 32, 64, 128."""
        infos = [i for i in summarize(bnn_resnet12(seed=0))
                 if i.kind == "binary_conv" and not i.shortcut]
        # stem + 5 stages x 2 convs = 11 binary convolutions
        assert len(infos) == 11
        widths = [i.shape[0] for i in infos]
        assert widths == [8, 16, 16, 32, 32, 64, 64, 128, 128, 256, 256][:11] or (
            widths == [8, 8, 8, 16, 16, 32, 32, 64, 64, 128, 128]
        )

    def test_shortcut_at_every_shape_change(self):
        """Each stage down-samples, so each needs a projection shortcut."""
        infos = summarize(bnn_resnet12(seed=0))
        shortcuts = [i for i in infos if i.shortcut]
        assert len(shortcuts) == 5

    def test_128px_forward_and_packed_parity(self, rng):
        """Paper-scale input: forward works and the packed engine agrees."""
        model = bnn_resnet12(seed=0, base_width=4)
        model.forward(rng.normal(size=(2, 1, 128, 128)), training=True)
        x = np.where(rng.random((2, 1, 128, 128)) < 0.3, 1.0, -1.0)
        sim = model.forward(x)
        packed = ProgramEngine(model).forward(x)
        np.testing.assert_allclose(sim, packed, atol=1e-8)

    def test_spatial_reduction_to_4x4(self, rng):
        """Five stride-2 stages: 128 -> 4 before global pooling."""
        model = bnn_resnet12(seed=0, base_width=4)
        # probe the tensor entering the head batch-norm
        x = rng.normal(size=(1, 1, 128, 128))
        out = x
        for layer in model.layers[:-3]:   # stop before BN/pool/dense head
            out = layer.forward(out)
        assert out.shape[2:] == (4, 4)

    def test_binary_weight_fraction(self):
        """Nearly all parameters live in 1-bit layers: the model stores
        and ships mostly binary weights (the compression claim)."""
        model = bnn_resnet12(seed=0)
        binary_params = sum(
            p.size for name, p in model.named_parameters()
            if "conv.weight" in name
        )
        assert binary_params / model.num_parameters() > 0.95
