"""Tests for the model registry and checkpoint round-trips."""

import warnings

import numpy as np
import pytest

from repro.binary.inference import FloatEngine, PackedBNN
from repro.features.downsample import to_network_input
from repro.models.bnn_resnet import build_bnn_resnet
from repro.nn import Dense, Module, Sequential, load_meta, save_model
from repro.serve import ModelRegistry, compile_engine, model_from_meta


def make_model(seed=0, image_size=16, base_width=4, scaling="xnor"):
    channels = (base_width, base_width * 2)
    return build_bnn_resnet(channels, scaling=scaling, seed=seed)


def make_images(n=12, size=16, seed=3):
    rng = np.random.default_rng(seed)
    return to_network_input((rng.random((n, size, size)) < 0.3).astype(float))


class Unsupported(Module):
    """A layer type the packed compiler cannot handle."""

    def forward(self, x, training=False):
        return np.tanh(x)


class TestCompileEngine:
    def test_packed_by_default(self):
        engine, backend = compile_engine(make_model())
        assert backend == "packed" and isinstance(engine, PackedBNN)

    def test_float_on_request(self):
        engine, backend = compile_engine(make_model(), prefer_packed=False)
        assert backend == "float" and isinstance(engine, FloatEngine)

    def test_graceful_fallback_on_unsupported_layer(self):
        model = Sequential(Unsupported(), Dense(4, 2,
                                                rng=np.random.default_rng(0)))
        engine, backend = compile_engine(model)
        assert backend == "float"
        x = np.random.default_rng(1).normal(size=(3, 4))
        np.testing.assert_array_equal(engine.forward(x),
                                      model.forward(x, training=False))


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
        original = PackedBNN(model).predict_logits(images)
        reloaded = PackedBNN(fresh).predict_logits(images)
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
            PackedBNN(model).predict_logits(images),
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
        engine, backend = compile_engine(model, backend="float")
        assert backend == "float" and isinstance(engine, FloatEngine)
        assert not engine.is_live  # compiled program, not a model view
        images = make_images(seed=5)
        np.testing.assert_array_equal(
            engine.predict_logits(images),
            PackedBNN(model).predict_logits(images),
        )

    def test_unknown_backend_raises_listing_available(self):
        # "compiled" names a backend that no longer exists
        for name in ("turbo", "compiled"):
            with pytest.raises(ValueError, match="available: float, packed"):
                compile_engine(make_model(), backend=name)
            with pytest.raises(ValueError, match="available: float, packed"):
                ModelRegistry().register(
                    "m", make_model(), image_size=16, backend=name
                )

    def test_explicit_packed_is_strict_on_unloweredable(self):
        model = Sequential(Unsupported(), Dense(4, 2,
                                                rng=np.random.default_rng(0)))
        with pytest.raises(TypeError):
            compile_engine(model, backend="packed")

    def test_register_threads_backend_through(self):
        registry = ModelRegistry()
        entry = registry.register(
            "m", make_model(), image_size=16, backend="float"
        )
        assert entry.backend == "float"
        assert isinstance(entry.engine, FloatEngine)
        assert entry.fallback_reason is None


class TestFallbackReason:
    def test_reason_recorded_on_silent_fallback(self):
        model = Sequential(Unsupported(), Dense(4, 2,
                                                rng=np.random.default_rng(0)))
        registry = ModelRegistry()
        entry = registry.register("m", model, image_size=16)
        assert entry.backend == "float"
        assert entry.fallback_reason is not None
        assert "Unsupported" in entry.fallback_reason

    def test_no_reason_when_float_requested(self):
        registry = ModelRegistry()
        entry = registry.register(
            "m", make_model(), image_size=16, prefer_packed=False
        )
        assert entry.backend == "float"
        assert entry.fallback_reason is None

    def test_no_reason_on_successful_packed(self):
        registry = ModelRegistry()
        entry = registry.register("m", make_model(), image_size=16)
        assert entry.backend == "packed"
        assert entry.fallback_reason is None


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
            entry = registry.load_checkpoint("m", path, prefer_packed=False)
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
            entry = registry.load_checkpoint("m", path, prefer_packed=False)
        assert entry.backend == "float"
