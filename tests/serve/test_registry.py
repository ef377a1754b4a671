"""Tests for the model registry and checkpoint round-trips."""

import warnings

import numpy as np
import pytest

from repro.binary.inference import ProgramEngine
from repro.engine.lower import LoweringError
from repro.features.downsample import to_network_input
from repro.models.bnn_resnet import build_bnn_resnet
from repro.nn import Dense, Module, Sequential, load_meta, save_model
from repro.serve import ModelRegistry, model_from_meta


def make_model(seed=0, image_size=16, base_width=4, scaling="xnor"):
    channels = (base_width, base_width * 2)
    return build_bnn_resnet(channels, scaling=scaling, seed=seed)


def make_images(n=12, size=16, seed=3):
    rng = np.random.default_rng(seed)
    return to_network_input((rng.random((n, size, size)) < 0.3).astype(float))


class Unsupported(Module):
    """A layer type the engine IR cannot represent."""

    def forward(self, x, training=False):
        return np.tanh(x)


def unlowerable_model():
    return Sequential(Unsupported(), Dense(4, 2, rng=np.random.default_rng(0)))


class TestCompileEngine:
    def test_packed_by_default(self):
        assert ProgramEngine(make_model()).backend_name == "packed"
        entry = ModelRegistry().register("m", make_model(), image_size=16)
        assert entry.backend == entry.engine.backend_name == "packed"
        assert entry.pipeline == "fold-bn>hoist-scales>liveness"

    def test_float_on_request(self):
        entry = ModelRegistry().register(
            "m", make_model(), image_size=16, backend="float"
        )
        assert entry.backend == entry.engine.backend_name == "float"

    @pytest.mark.parametrize("backend", ["packed", "float"])
    def test_unsupported_layer_is_refused(self, backend):
        with pytest.raises(LoweringError, match="Unsupported") as info:
            ProgramEngine(unlowerable_model(), backend)
        assert info.value.layer_type == "Unsupported"


class TestModelRegistry:
    def test_register_get_names(self):
        registry = ModelRegistry()
        entry = registry.register("m", make_model(), image_size=16)
        assert registry.get("m") is entry
        assert "m" in registry and registry.names() == ["m"] and len(registry) == 1

    def test_unknown_name_lists_known(self):
        registry = ModelRegistry()
        registry.register("present", make_model(), image_size=16)
        with pytest.raises(KeyError, match="present"):
            registry.get("absent")

    def test_reregister_replaces(self):
        registry = ModelRegistry()
        registry.register("m", make_model(seed=0), image_size=16)
        second = registry.register("m", make_model(seed=9), image_size=16)
        assert registry.get("m") is second and len(registry) == 1


class TestCheckpointRoundTrip:
    def test_packed_predictions_bit_identical_after_reload(self, tmp_path):
        """save -> fresh architecture -> load -> compile == in-memory."""
        model = make_model(seed=1)
        # non-trivial BN running stats
        model.forward(make_images(seed=5), training=True)
        path = save_model(model, tmp_path / "trained.npz")

        fresh = make_model(seed=999)  # different init, same architecture
        from repro.nn import load_model

        load_model(fresh, path)
        images = make_images(seed=6)
        original = ProgramEngine(model).predict_logits(images)
        reloaded = ProgramEngine(fresh).predict_logits(images)
        np.testing.assert_array_equal(reloaded, original)

    def test_load_checkpoint_rebuilds_from_meta(self, tmp_path):
        model = make_model(seed=2, base_width=4)
        model.forward(make_images(seed=7), training=True)
        path = save_model(model, tmp_path / "ck", meta={
            "image_size": 16, "base_width": 4, "scaling": "xnor",
            "stem_stride": 1, "decision_bias": 0.125,
        })
        assert path.name == "ck.npz"

        registry = ModelRegistry()
        entry = registry.load_checkpoint("served", tmp_path / "ck")
        assert entry.backend == "packed"
        assert entry.image_size == 16
        assert entry.decision_bias == 0.125
        images = make_images(seed=8)
        np.testing.assert_array_equal(
            entry.engine.predict_logits(images),
            ProgramEngine(model).predict_logits(images),
        )

    def test_meta_scalars_round_trip_types(self, tmp_path):
        path = save_model(make_model(), tmp_path / "m", meta={
            "image_size": 16, "scaling": "channelwise", "decision_bias": -0.5,
        })
        meta = load_meta(path)
        assert meta["image_size"] == 16 and isinstance(meta["image_size"], int)
        assert meta["scaling"] == "channelwise"
        assert meta["decision_bias"] == -0.5

    def test_model_from_meta_requires_image_size(self):
        with pytest.raises(KeyError, match="image_size"):
            model_from_meta({"base_width": 8})

    def test_legacy_checkpoint_needs_explicit_model(self, tmp_path):
        model = make_model(seed=3)
        path = save_model(model, tmp_path / "legacy.npz")  # no meta
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.load_checkpoint("m", path)
        entry = registry.load_checkpoint(
            "m", path, model=make_model(seed=4), image_size=16
        )
        assert entry.backend == "packed" and entry.image_size == 16


class TestExplicitBackend:
    def test_explicit_float_is_compiled_not_live(self):
        model = make_model()
        model.forward(make_images(seed=4), training=True)
        engine = ProgramEngine(model, "float")
        assert engine.backend_name == "float"
        assert engine.program is not None  # compiled IR, not a model view
        images = make_images(seed=5)
        np.testing.assert_array_equal(
            engine.predict_logits(images),
            ProgramEngine(model).predict_logits(images),
        )

    def test_unknown_backend_raises_listing_available(self):
        # "compiled" names a backend that no longer exists
        for name in ("turbo", "compiled"):
            with pytest.raises(ValueError, match="available: float, packed"):
                ProgramEngine(make_model(), name)
            with pytest.raises(ValueError, match="available: float, packed"):
                ModelRegistry().register(
                    "m", make_model(), image_size=16, backend=name
                )

    def test_explicit_packed_is_strict_on_unloweredable(self):
        with pytest.raises(TypeError):
            ProgramEngine(unlowerable_model(), "packed")

    def test_register_threads_backend_through(self):
        registry = ModelRegistry()
        entry = registry.register(
            "m", make_model(), image_size=16, backend="float"
        )
        assert entry.backend == entry.engine.backend_name == "float"
        assert entry.pipeline == entry.engine.pipeline == \
            "fold-bn>hoist-scales>liveness"


class TestFallbackReason:
    """There is no fallback left to give a reason for: the requested
    backend is what serves, or the model is refused — and a refused
    model replaces nothing."""

    def test_unlowerable_model_raises_naming_layer(self):
        registry = ModelRegistry()
        with pytest.raises(LoweringError, match="Unsupported") as info:
            registry.register("m", unlowerable_model(), image_size=16)
        assert info.value.layer_type == "Unsupported"
        assert "m" not in registry and len(registry) == 0

    @pytest.mark.parametrize("model, backend, error", [
        (unlowerable_model, "packed", LoweringError),
        (make_model, "turbo", ValueError),
    ], ids=["unlowerable", "unknown-backend"])
    def test_failed_reregister_keeps_previous_entry(self, model, backend,
                                                    error):
        registry = ModelRegistry()
        previous = registry.register("m", make_model(seed=1), image_size=16)
        with pytest.raises(error):
            registry.register("m", model(), image_size=16, backend=backend)
        assert registry.get("m") is previous
        images = make_images(seed=9)
        np.testing.assert_array_equal(
            registry.get("m").engine.predict_logits(images),
            ProgramEngine(make_model(seed=1)).predict_logits(images),
        )

    def test_no_reason_when_float_requested(self):
        entry = ModelRegistry().register(
            "m", make_model(), image_size=16, backend="float"
        )
        assert entry.backend == entry.engine.backend_name == "float"
        assert not hasattr(entry, "fallback_reason")

    def test_no_reason_on_successful_packed(self):
        entry = ModelRegistry().register("m", make_model(), image_size=16)
        assert entry.backend == entry.engine.backend_name == "packed"
        assert not hasattr(entry, "fallback_reason")


class TestBackendMeta:
    def _save(self, tmp_path, backend="packed", name="ck"):
        model = make_model(seed=2)
        model.forward(make_images(seed=7), training=True)
        return save_model(model, tmp_path / name, meta={
            "image_size": 16, "base_width": 4, "scaling": "xnor",
            "stem_stride": 1, "backend": backend,
        })

    def test_matching_backend_loads_silently(self, tmp_path):
        path = self._save(tmp_path, backend="packed")
        registry = ModelRegistry()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entry = registry.load_checkpoint("m", path)
        assert entry.backend == "packed"

    def test_mismatched_backend_warns(self, tmp_path):
        path = self._save(tmp_path, backend="packed")
        registry = ModelRegistry()
        with pytest.warns(UserWarning, match="records backend 'packed'"):
            entry = registry.load_checkpoint("m", path, backend="float")
        assert entry.backend == "float"
        # a checkpoint recording a backend that no longer exists still
        # loads, with the same warning, and serves packed bit-identically
        old = self._save(tmp_path, backend="compiled", name="old")
        with pytest.warns(UserWarning, match="records backend 'compiled'"):
            entry = registry.load_checkpoint("old", old)
        assert entry.backend == "packed"
        packed = registry.load_checkpoint("m", path)
        images = make_images(seed=8)
        np.testing.assert_array_equal(
            entry.engine.predict_logits(images),
            packed.engine.predict_logits(images),
        )

    def test_explicit_backend_mismatch_warns(self, tmp_path):
        path = self._save(tmp_path, backend="float")
        registry = ModelRegistry()
        with pytest.warns(UserWarning, match="'packed' was requested"):
            registry.load_checkpoint("m", path, backend="packed")

    def test_legacy_checkpoint_without_record_is_silent(self, tmp_path):
        model = make_model(seed=3)
        path = save_model(model, tmp_path / "ck", meta={
            "image_size": 16, "base_width": 4,
        })
        registry = ModelRegistry()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entry = registry.load_checkpoint("m", path, backend="float")
        assert entry.backend == "float"
