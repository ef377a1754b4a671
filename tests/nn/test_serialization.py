"""Tests for model checkpointing."""

import errno

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2D,
    CheckpointError,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    Sequential,
    checkpoint_path,
    load_meta,
    load_model,
    save_model,
)


def build(rng):
    return Sequential(
        Conv2D(1, 4, 3, padding=1, rng=rng),
        BatchNorm2D(4),
        GlobalAvgPool2D(),
        Dense(4, 2, rng=rng),
    )


class TestSerialization:
    def test_roundtrip_preserves_outputs(self, rng, tmp_path):
        model = build(rng)
        # exercise BN running stats so extra state is non-trivial
        x = rng.normal(size=(4, 1, 6, 6))
        model.forward(x, training=True)
        path = tmp_path / "model.npz"
        save_model(model, path)

        fresh = build(np.random.default_rng(999))
        load_model(fresh, path)
        np.testing.assert_allclose(model.forward(x), fresh.forward(x), atol=1e-12)

    def test_checkpoint_is_snapshot(self, rng, tmp_path):
        model = build(rng)
        path = tmp_path / "ck.npz"
        save_model(model, path)
        before = model.layers[0].weight.data.copy()
        model.layers[0].weight.data += 1.0
        load_model(model, path)
        np.testing.assert_array_equal(model.layers[0].weight.data, before)

    def test_flatten_dense_model(self, rng, tmp_path):
        model = Sequential(Flatten(), Dense(9, 2, rng=rng))
        path = tmp_path / "m.npz"
        save_model(model, path)
        fresh = Sequential(Flatten(), Dense(9, 2, rng=np.random.default_rng(5)))
        load_model(fresh, path)
        x = rng.normal(size=(2, 1, 3, 3))
        np.testing.assert_allclose(model.forward(x), fresh.forward(x))


    def test_failed_write_keeps_previous_checkpoint(self, rng, tmp_path,
                                                    monkeypatch):
        """A crash or full disk mid-write must not destroy the checkpoint
        already at the path: it stays byte-identical and loadable, and
        no temporary file is left behind."""
        model = build(rng)
        path = save_model(model, tmp_path / "ck.npz")
        before = path.read_bytes()
        saved = model.layers[0].weight.data.copy()

        def torn_savez(file, **arrays):
            if hasattr(file, "write"):
                file.write(before[:100])
            else:
                with open(file, "wb") as handle:
                    handle.write(before[:100])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(np, "savez", torn_savez)
        model.layers[0].weight.data += 1.0
        with pytest.raises(OSError, match="No space"):
            save_model(model, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]
        fresh = build(np.random.default_rng(3))
        load_model(fresh, path)
        np.testing.assert_array_equal(fresh.layers[0].weight.data, saved)


class TestCheckpointPath:
    def test_appends_npz_suffix(self, tmp_path):
        assert checkpoint_path(tmp_path / "model").name == "model.npz"

    def test_keeps_existing_suffix(self, tmp_path):
        assert checkpoint_path(tmp_path / "model.npz").name == "model.npz"

    def test_save_without_suffix_loads_back(self, rng, tmp_path):
        """np.savez always writes ``.npz``; loading must find that file."""
        model = build(rng)
        written = save_model(model, tmp_path / "bare")
        assert written == tmp_path / "bare.npz" and written.exists()

        fresh = build(np.random.default_rng(1))
        load_model(fresh, tmp_path / "bare")  # suffix-less path round-trips
        x = rng.normal(size=(2, 1, 6, 6))
        np.testing.assert_allclose(model.forward(x), fresh.forward(x))

    def test_save_returns_written_path(self, rng, tmp_path):
        path = save_model(build(rng), tmp_path / "ck.npz")
        assert path == tmp_path / "ck.npz"


class TestMeta:
    def test_meta_round_trip(self, rng, tmp_path):
        meta = {"image_size": 32, "scaling": "xnor", "decision_bias": 0.25}
        path = save_model(build(rng), tmp_path / "m", meta=meta)
        loaded = load_meta(path)
        assert loaded == meta
        assert isinstance(loaded["image_size"], int)
        assert isinstance(loaded["decision_bias"], float)

    def test_meta_does_not_disturb_weights(self, rng, tmp_path):
        model = build(rng)
        path = save_model(model, tmp_path / "m", meta={"image_size": 16})
        fresh = build(np.random.default_rng(2))
        load_model(fresh, path)  # __meta__ keys must be filtered out
        x = rng.normal(size=(3, 1, 6, 6))
        np.testing.assert_allclose(model.forward(x), fresh.forward(x))

    def test_no_meta_gives_empty_dict(self, rng, tmp_path):
        path = save_model(build(rng), tmp_path / "m")
        assert load_meta(path) == {}

    def test_tampered_meta_refused(self, rng, tmp_path):
        """Meta entries drive model reconstruction (architecture knobs,
        decision threshold), so they carry their own checksum: a re-zipped
        edit to a ``__meta__`` entry fails both loaders loudly."""
        path = save_model(build(rng), tmp_path / "m",
                          meta={"image_size": 32, "decision_bias": 0.25})
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays["__meta__.decision_bias"] = np.asarray(-0.25)  # stale digests
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="metadata checksum"):
            load_meta(path)
        with pytest.raises(CheckpointError, match="metadata checksum"):
            load_model(build(rng), path)
