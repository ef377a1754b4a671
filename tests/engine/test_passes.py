"""Tests for the pass pipeline: idempotence, ordering, verification.

The pass layer's contracts beyond "logits never change" (which
``repro.engine.parity`` and its tests gate):

* running the default pipeline twice is a no-op (idempotence);
* ``hoist-scales`` and ``liveness`` commute (they touch disjoint
  fields of the fused nodes);
* :func:`~repro.engine.ir.verify_program` rejects the malformed fused
  graphs a buggy rewrite could emit — each rejection here corresponds
  to a silent-wrong-logits failure mode if it slipped through.
"""

import numpy as np
import pytest

from repro.engine import (
    BatchNormAffine,
    BinaryConvOp,
    DEFAULT_PIPELINE,
    FusedBinaryConvOp,
    Program,
    ResidualOp,
    VerifierError,
    lower,
    pipeline_signature,
    run_pipeline,
    run_pipeline_snapshots,
    verify_program,
)
from repro.binary import quantize
from repro.engine.backends import available_backends, get_backend
from repro.engine.passes import (
    FoldBatchNorm,
    HoistScales,
    Liveness,
    resolve_pipeline,
)
from repro.models import bnn_resnet8


@pytest.fixture(scope="module")
def lowered():
    return lower(bnn_resnet8(seed=0, base_width=4))


def apply(program, *passes):
    """Run pass instances in order, verifying after each, as
    ``run_pipeline`` does for a named spec."""
    for p in passes:
        program = p.run(program)
        verify_program(program)
    return program


def fingerprint(program):
    """Structural + numerical identity of a program, order-sensitive."""
    rows = []
    for node in program.walk():
        row = [type(node).__name__, node.name]
        for attr in ("sources", "inplace_input", "kind", "scaling",
                     "stride", "padding"):
            row.append(getattr(node, attr, None))
        for attr in ("weight", "bn_scale", "bn_shift", "w_binary",
                     "alpha_w", "scale", "shift"):
            value = getattr(node, attr, None)
            row.append(None if value is None else value.tobytes())
        rows.append(tuple(row))
    return rows


class TestPipelineAlgebra:
    def test_default_pipeline_is_idempotent(self, lowered):
        once = run_pipeline(lowered, "default")
        twice = run_pipeline(once, "default")
        assert fingerprint(once) == fingerprint(twice)

    def test_each_pass_is_idempotent(self, lowered):
        program = lowered
        for p in DEFAULT_PIPELINE:
            program = apply(program, p)
            again = apply(program, p)
            assert fingerprint(program) == fingerprint(again), p.name

    def test_hoist_scales_and_liveness_commute(self, lowered):
        ab = apply(lowered, FoldBatchNorm(), HoistScales(), Liveness())
        ba = apply(lowered, FoldBatchNorm(), Liveness(), HoistScales())
        assert fingerprint(ab) == fingerprint(ba)

    def test_fold_bn_absorbs_batchnorms_before_binary_convs(self, lowered):
        folded = apply(lowered, FoldBatchNorm())
        walked = list(folded.walk())
        fused = [n for n in walked if isinstance(n, FusedBinaryConvOp)]
        assert fused, "fold-bn must emit fused nodes"
        # every fused node carries its anchor name plus the folded bn
        for node in fused:
            assert node.name in node.sources
            if node.bn_scale is not None:
                assert len(node.sources) == 2
        # no BatchNormAffine directly feeding a binary conv remains
        for prog in [folded] + [
            branch
            for n in walked if isinstance(n, ResidualOp)
            for branch in (n.main, n.shortcut) if branch is not None
        ]:
            for prev, nxt in zip(prog, list(prog)[1:]):
                assert not (
                    isinstance(prev, BatchNormAffine)
                    and isinstance(nxt, (BinaryConvOp, FusedBinaryConvOp))
                )

    def test_pipeline_specs_resolve(self):
        # the signature is provenance: serving entries and chip-scan
        # journal headers record it, so it must not drift
        assert pipeline_signature("default") == \
            "fold-bn>hoist-scales>liveness"
        assert pipeline_signature("none") == "none"
        assert resolve_pipeline("default") == DEFAULT_PIPELINE
        assert resolve_pipeline("none") == ()
        # only the two specs exist: no pass names, no lists
        for spec in ("fold-bn", ["fold-bn"], None):
            with pytest.raises(ValueError, match="unknown pipeline spec"):
                resolve_pipeline(spec)

    def test_snapshots_cover_every_stage(self, lowered):
        snaps = run_pipeline_snapshots(lowered, "default")
        assert [s.name for s in snaps] == [
            "lowered", *(p.name for p in DEFAULT_PIPELINE)
        ]
        assert fingerprint(snaps[-1].program) == fingerprint(
            run_pipeline(lowered, "default")
        )


@pytest.mark.parametrize("backend", available_backends())
def test_compile_reuses_hoisted_scales(backend, lowered, monkeypatch):
    """Compiling a hoisted program never re-binarizes a weight tensor.

    The fused-op replay hands the ``hoist-scales`` constants to the
    backend's binary-conv kernel; without the pass, each fused op
    binarizes its own weights once.
    """
    calls = []
    real = quantize.binarize_weights

    def counting(weight):
        calls.append(weight.shape)
        return real(weight)

    hoisted = run_pipeline(lowered, "default")
    unhoisted = apply(lowered, FoldBatchNorm(), Liveness())
    monkeypatch.setattr(quantize, "binarize_weights", counting)
    get_backend(backend).compile(hoisted)
    assert calls == []
    get_backend(backend).compile(unhoisted)
    fused = [node for node in unhoisted.walk()
             if isinstance(node, FusedBinaryConvOp)]
    assert len(fused) > 0 and len(calls) == len(fused)


def _fused(**overrides):
    """A minimal valid hoisted fused node; overrides inject defects."""
    rng = np.random.default_rng(0)
    weight = rng.normal(size=(4, 2, 3, 3))
    fields = dict(
        name="conv",
        in_channels=2,
        out_channels=4,
        kernel_size=3,
        stride=1,
        padding=1,
        scaling="xnor",
        weight=weight,
        sources=("bn", "conv"),
        bn_scale=np.ones(2),
        bn_shift=np.zeros(2),
        w_binary=np.where(weight >= 0, 1.0, -1.0),
        alpha_w=np.abs(weight).mean(axis=(1, 2, 3)),
    )
    fields.update(overrides)
    return FusedBinaryConvOp(**fields)


class TestVerifierRejections:
    def test_valid_node_passes(self):
        verify_program(Program((_fused(),)))

    def test_one_sided_batchnorm_fold(self):
        with pytest.raises(VerifierError, match="both be set or both"):
            verify_program(Program((_fused(bn_shift=None),)))

    def test_batchnorm_arrays_must_match_in_channels(self):
        with pytest.raises(VerifierError, match="folded batch-norm"):
            verify_program(Program((
                _fused(bn_scale=np.ones(3), bn_shift=np.zeros(3)),
            )))

    def test_one_sided_hoist(self):
        with pytest.raises(VerifierError, match="both be hoisted"):
            verify_program(Program((_fused(alpha_w=None),)))

    def test_stale_hoisted_w_binary(self):
        node = _fused()
        stale = node.w_binary.copy()
        stale[0, 0, 0, 0] = -stale[0, 0, 0, 0]
        with pytest.raises(VerifierError, match="does not equal"):
            verify_program(Program((_fused(w_binary=stale),)))

    def test_sources_must_include_anchor(self):
        with pytest.raises(VerifierError, match="anchor"):
            verify_program(Program((_fused(sources=("bn",)),)))
        with pytest.raises(VerifierError, match="anchor"):
            verify_program(Program((_fused(sources=()),)))

    def test_weight_geometry_mismatch(self):
        with pytest.raises(VerifierError, match="weight shape"):
            verify_program(Program((_fused(kernel_size=5),)))

    def test_bad_geometry(self):
        weight = np.ones((4, 2, 3, 3))
        with pytest.raises(VerifierError, match="bad geometry"):
            verify_program(Program((
                _fused(stride=0, weight=weight,
                       w_binary=np.where(weight >= 0, 1.0, -1.0)),
            )))

    def test_unknown_scaling(self):
        with pytest.raises(VerifierError, match="unknown scaling"):
            verify_program(Program((_fused(scaling="l2"),)))

    def test_duplicate_names(self):
        with pytest.raises(VerifierError, match="duplicate node name"):
            verify_program(Program((_fused(), _fused())))

    def test_channel_dataflow_mismatch(self):
        with pytest.raises(VerifierError, match="input channels"):
            verify_program(
                Program((_fused(),)), input_shape=(1, 3, 8, 8)
            )

    def test_residual_branch_shape_mismatch(self):
        main = Program((_fused(),))           # 2ch -> 4ch, same spatial
        shortcut = Program((
            _fused(name="short", sources=("short",), stride=2,
                   bn_scale=None, bn_shift=None),
        ))
        residual = ResidualOp(name="res", main=main, shortcut=shortcut)
        with pytest.raises(VerifierError, match="branch shapes differ"):
            verify_program(
                Program((residual,)), input_shape=(1, 2, 8, 8)
            )

    def test_pipeline_output_verifies_with_shapes(self, lowered):
        program = run_pipeline(
            lowered, "default", input_shape=(2, 1, 32, 32)
        )
        verify_program(program, input_shape=(2, 1, 32, 32))
