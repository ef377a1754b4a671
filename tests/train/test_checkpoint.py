"""Tests for atomic run-state checkpoints and the retention policy."""

import errno
import os
import stat

import numpy as np
import pytest

from repro.nn.serialization import CheckpointError
from repro.train import (
    CheckpointManager,
    load_run_state,
    save_run_state,
)


def sample_state(step=0, val_loss=float("nan")):
    return {
        "model.w": np.arange(6, dtype=np.float64).reshape(2, 3),
        "optim.t": np.int64(step),
        "run.val_loss": np.float64(val_loss),
        "run.schedule": np.asarray('[["main", 2]]'),
    }


class TestSaveLoad:
    def test_roundtrip_preserves_arrays(self, tmp_path):
        path = tmp_path / "state-000000001.npz"
        save_run_state(path, sample_state(step=7))
        loaded = load_run_state(path)
        np.testing.assert_array_equal(
            loaded["model.w"], np.arange(6).reshape(2, 3)
        )
        assert int(loaded["optim.t"]) == 7
        assert str(loaded["run.schedule"].item()) == '[["main", 2]]'

    def test_no_temp_files_left_behind(self, tmp_path):
        save_run_state(tmp_path / "state.npz", sample_state())
        leftovers = [p.name for p in tmp_path.iterdir()
                     if "tmp" in p.name]
        assert leftovers == []

    def test_reserved_checksum_key_rejected(self, tmp_path):
        state = sample_state()
        state["__run__.content_sha256"] = np.asarray("spoofed")
        with pytest.raises(ValueError, match="reserved"):
            save_run_state(tmp_path / "state.npz", state)
        assert list(tmp_path.iterdir()) == []  # nothing half-written

    def test_truncated_file_refused(self, tmp_path):
        path = save_run_state(tmp_path / "state.npz", sample_state())
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_run_state(path)

    def test_bit_flip_refused(self, tmp_path):
        path = save_run_state(tmp_path / "state.npz", sample_state())
        data = bytearray(path.read_bytes())
        # flip a bit inside the payload, past the zip local header
        data[len(data) // 2] ^= 0x10
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_run_state(path)

    def test_missing_checksum_refused(self, tmp_path):
        path = tmp_path / "state.npz"
        np.savez(path, **sample_state())  # bypasses save_run_state
        with pytest.raises(CheckpointError, match="no content checksum"):
            load_run_state(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run_state(tmp_path / "absent.npz")

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        path = tmp_path / "state.npz"
        save_run_state(path, sample_state(step=1))
        save_run_state(path, sample_state(step=2))
        assert int(load_run_state(path)["optim.t"]) == 2

    def test_directory_fsync_error_raises(self, tmp_path, monkeypatch):
        """A rename whose directory fsync failed is not durable; the
        caller must hear so instead of trusting the checkpoint."""
        real_fsync = os.fsync

        def fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(errno.EIO, "directory fsync failed")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(OSError, match="directory fsync failed"):
            save_run_state(tmp_path / "state.npz", sample_state())


class TestCheckpointManager:
    def test_empty_directory(self, tmp_path):
        manager = CheckpointManager(tmp_path / "does-not-exist-yet")
        assert manager.checkpoints() == []
        assert manager.latest() is None
        assert manager.best() is None
        assert manager.load_latest() is None

    def test_invalid_keep_raises(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)

    def test_latest_is_highest_step(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=5)
        for step in (3, 11, 7):
            manager.save(step, sample_state(step=step))
        assert manager.latest().step == 11
        assert [c.step for c in manager.checkpoints()] == [3, 7, 11]

    def test_retention_keeps_last_n_plus_best(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        losses = {1: 0.9, 2: 0.1, 3: 0.5, 4: 0.4, 5: 0.3}
        for step, loss in losses.items():
            manager.save(step, sample_state(step=step, val_loss=loss))
        kept = [c.step for c in manager.checkpoints()]
        # last two (4, 5) plus the best-validation one (2)
        assert kept == [2, 4, 5]
        assert manager.best().step == 2

    def test_best_ignores_nan_losses(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=5)
        manager.save(1, sample_state(step=1))  # nan val loss
        manager.save(2, sample_state(step=2, val_loss=0.7))
        assert manager.best().step == 2

    def test_load_latest_raises_on_corrupt_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=5)
        manager.save(1, sample_state(step=1))
        path = manager.save(2, sample_state(step=2))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        # silently resuming from step 1 would be worse than failing
        with pytest.raises(CheckpointError):
            manager.load_latest()

    def test_ignores_foreign_files(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        manager.save(1, sample_state(step=1))
        (tmp_path / "notes.txt").write_text("keep me")
        (tmp_path / "state-5.npz.tmp-123").write_bytes(b"partial")
        assert [c.step for c in manager.checkpoints()] == [1]
        manager.prune()
        assert (tmp_path / "notes.txt").exists()
