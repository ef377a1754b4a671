"""Tests for the lowering pass: module trees -> typed IR programs."""

import numpy as np
import pytest

from repro.binary import BinaryConv2D, ProgramEngine
from repro.detect.bnn_detector import stages_for_image_size
from repro.engine import (
    BatchNormAffine,
    BinaryConvOp,
    DenseOp,
    FusedBinaryConvOp,
    LoweringError,
    PoolOp,
    ResidualOp,
    describe,
    get_backend,
    infer_shapes,
    lower,
    plane_prefix,
    run_pipeline,
)
from repro.models import bnn_resnet8
from repro.models.bnn_resnet import build_bnn_resnet
from repro.nn import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    HardTanh,
    MaxPool2D,
    Module,
    ReLU,
    Sequential,
    SignSTE,
)


class Strange(Module):
    pass


#: the node types the paper's network lowers to, plus the passes' fused op
KEPT_NODE_TYPES = {
    BatchNormAffine, BinaryConvOp, FusedBinaryConvOp, ResidualOp, PoolOp,
    DenseOp,
}


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestLower:
    def test_resnet_structure_is_flattened(self):
        model = bnn_resnet8(seed=0, base_width=4)
        program = lower(model)
        # stem BNNConvBlock flattens to [BatchNormAffine, BinaryConvOp]
        assert isinstance(program[0], BatchNormAffine)
        assert isinstance(program[1], BinaryConvOp)
        kinds = [type(node) for node in program]
        assert ResidualOp in kinds and DenseOp in kinds and PoolOp in kinds

    def test_names_are_dotted_module_paths(self):
        model = bnn_resnet8(seed=0, base_width=4)
        program = lower(model)
        names = [node.name for node in program.walk()]
        assert len(names) == len(set(names)), "node names must be unique"
        assert "0.bn" in names and "0.conv" in names
        assert any(".main." in name for name in names)

    def test_weights_are_snapshots(self, rng):
        conv = BinaryConv2D(1, 4, 3, rng=rng)
        program = lower(Sequential(conv))
        before = program[0].weight.copy()
        conv.weight.data[...] = 7.0
        np.testing.assert_array_equal(program[0].weight, before)

    def test_batchnorm_freezes_running_stats(self, rng):
        bn = BatchNorm2D(3)
        bn.running_mean = rng.normal(size=3)
        bn.running_var = np.abs(rng.normal(size=3)) + 0.5
        node = lower(Sequential(bn))[0]
        expected_scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
        np.testing.assert_allclose(node.scale, expected_scale)
        np.testing.assert_allclose(
            node.shift, bn.beta.data - bn.running_mean * expected_scale
        )

    @pytest.mark.parametrize("layer", [
        Strange(), Conv2D(1, 2, 3), MaxPool2D(2), AvgPool2D(2), Flatten(),
        ReLU(), HardTanh(), SignSTE(), Dropout(0.5),
    ], ids=lambda layer: type(layer).__name__)
    def test_unknown_layer_raises_typed_error(self, layer):
        name = type(layer).__name__
        with pytest.raises(LoweringError, match=name) as excinfo:
            lower(Sequential(BinaryConv2D(1, 2, 3), layer))
        assert excinfo.value.layer_type == name
        assert isinstance(excinfo.value, TypeError)  # legacy contract

    @pytest.mark.parametrize("stem_stride", [1, 2])
    @pytest.mark.parametrize("scaling", ["channelwise", "xnor", "none"])
    def test_paper_network_holds_only_kept_node_types(self, scaling,
                                                      stem_stride):
        stages = stages_for_image_size(32, stem_stride=stem_stride)
        model = build_bnn_resnet([4 << i for i in range(stages)],
                                 scaling=scaling, stem_stride=stem_stride)
        program = run_pipeline(lower(model), "default")
        assert {type(node) for node in program.walk()} <= KEPT_NODE_TYPES
        out = get_backend("packed").compile(program).run(
            np.ones((1, 1, 32, 32))
        )
        assert out.shape == (1, 2)


class TestStemFinder:
    def test_resnet_stem_found_after_pointwise_prefix(self):
        model = bnn_resnet8(seed=0, base_width=4)
        program = lower(model)
        stages = plane_prefix(program)
        # the stem block's batch-norm joins the stem stage; then one
        # stage per residual block (pooling and the head end the prefix)
        assert (stages[0].start, stages[0].stop) == (0, 2)
        assert stages[0].in_channels == 1
        assert [s.stop for s in stages[1:]] == [3, 4, 5]
        assert [s.cum_stride for s in stages] == [1, 2, 4, 8]

    def test_multichannel_stem_rejected(self, rng):
        """A 3-channel stem is a plane stage, but a plane with another
        channel count gets no plane prefix."""
        model = Sequential(BinaryConv2D(3, 4, 3, rng=rng), GlobalAvgPool2D())
        (stage,) = plane_prefix(lower(model))
        assert stage.in_channels == 3
        plan = ProgramEngine(model).plan_scan(np.ones((32, 32)), 16, [])
        assert plan.max_depth == 0

    def test_exotic_padding_rejected(self, rng):
        program = lower(
            Sequential(BinaryConv2D(1, 4, 3, padding=3, rng=rng))
        )
        assert plane_prefix(program) == ()

    def test_no_conv_at_all(self):
        program = lower(Sequential(GlobalAvgPool2D(), Dense(1, 2)))
        assert plane_prefix(program) == ()


class TestShapes:
    def test_infer_shapes_covers_residual_branches(self):
        model = bnn_resnet8(seed=0, base_width=4)
        program = lower(model)
        shapes = infer_shapes(program, (2, 1, 16, 16))
        walked = {node.name for node in program.walk()}
        assert set(shapes) == walked
        # the head sees (n, classes)
        last = program[len(program) - 1]
        assert shapes[last.name][1] == (2, 2)

    def test_shapes_match_execution(self, rng):
        model = bnn_resnet8(seed=0, base_width=4)
        model.forward(rng.normal(size=(4, 1, 16, 16)), training=True)
        program = lower(model)
        out = get_backend("packed").compile(program).run(
            rng.normal(size=(3, 1, 16, 16))
        )
        shapes = infer_shapes(program, (3, 1, 16, 16))
        assert tuple(out.shape) == shapes[program[len(program) - 1].name][1]

    def test_describe_lists_every_node(self):
        model = bnn_resnet8(seed=0, base_width=4)
        program = lower(model)
        text = describe(program, input_shape=(1, 1, 16, 16))
        assert "BinaryConvOp" in text and "ResidualOp" in text
        assert "-> (1, 2)" in text
