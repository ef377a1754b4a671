"""Atomic, integrity-checked run-state checkpoints with retention.

A *run-state* checkpoint is a single flat ``.npz`` archive bundling
everything a training run needs to continue bit-identically: model
master weights, optimizer moments, scheduler state, DataLoader RNG
states, epoch/phase position and the :class:`~repro.nn.trainer.History`
so far (the key layout is produced by
:meth:`repro.train.TrainingRun._capture_state`).

Two guarantees matter here:

**Atomicity** — :func:`save_run_state` writes through
:func:`~repro.nn.serialization.atomic_write`: a temporary file in the
same directory, flushed, fsynced and ``os.replace``-renamed over the
final name (the directory fsynced so the rename itself is durable).  A
crash mid-write therefore leaves either the previous checkpoint or a
stray ``*.tmp-*`` file — never a half-written archive under the real
name.

**Integrity** — every archive carries a SHA-256 over its full contents
(the same :func:`~repro.nn.serialization.state_checksum` scheme model
checkpoints use), re-verified on load.  A truncated or bit-rotted file
raises :class:`~repro.nn.serialization.CheckpointError` instead of
resuming from garbage.

:class:`CheckpointManager` layers a retention policy on top: keep the
last ``keep`` checkpoints plus the one with the best validation loss.
"""

from __future__ import annotations

import os
import re
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..nn.serialization import CheckpointError, atomic_write, state_checksum

__all__ = [
    "CheckpointInfo",
    "CheckpointManager",
    "load_run_state",
    "save_run_state",
]

#: Key holding the content checksum inside a run-state archive.
_RUN_CHECKSUM_KEY = "__run__.content_sha256"

#: Run-state file name pattern: ``state-<global_step>.npz``.
_STATE_NAME = re.compile(r"^state-(\d+)\.npz$")


def save_run_state(path: str | os.PathLike, state: dict[str, np.ndarray]) -> Path:
    """Atomically write a run-state archive (temp + fsync + rename).

    Adds the content checksum; the input dict is not modified.  Returns
    the path written.
    """
    path = Path(path)
    record = {key: np.asarray(value) for key, value in state.items()}
    if _RUN_CHECKSUM_KEY in record:
        raise ValueError(f"state must not contain the reserved key "
                         f"{_RUN_CHECKSUM_KEY!r}")
    record[_RUN_CHECKSUM_KEY] = np.asarray(state_checksum(record))
    return atomic_write(path, lambda handle: np.savez(handle, **record))


def load_run_state(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read a run-state archive, verifying its content checksum.

    Raises :class:`~repro.nn.serialization.CheckpointError` on a
    missing checksum, a checksum mismatch, or any form of truncation /
    corruption the zip layer surfaces.
    """
    path = Path(path)
    try:
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError, EOFError, KeyError) as exc:
        raise CheckpointError(
            f"corrupt or truncated run state {path}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    recorded = arrays.pop(_RUN_CHECKSUM_KEY, None)
    if recorded is None:
        raise CheckpointError(
            f"run state {path} records no content checksum; refusing to "
            "resume from an unverifiable file"
        )
    expected = str(recorded.item() if recorded.ndim == 0 else recorded)
    actual = state_checksum(arrays)
    if actual != expected:
        raise CheckpointError(
            f"run state {path} failed its content checksum "
            f"(recorded {expected[:12]}…, computed {actual[:12]}…); "
            "the file is corrupt or was modified after writing"
        )
    return arrays


@dataclass(frozen=True)
class CheckpointInfo:
    """Index entry for one on-disk run-state checkpoint."""

    path: Path
    step: int  #: global batch step the state was captured at
    val_loss: float  #: last validation loss at capture (nan when none)


class CheckpointManager:
    """Directory of run-state checkpoints with a keep-N + best policy.

    Parameters
    ----------
    directory:
        Created on first save if missing.
    keep:
        Number of most-recent checkpoints retained.  The checkpoint
        with the lowest recorded validation loss is *always* retained
        in addition (the divergence sentinel and post-hoc model
        selection both want it), so up to ``keep + 1`` files persist.
    """

    def __init__(self, directory: str | os.PathLike, keep: int = 3):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep

    def path_for(self, step: int) -> Path:
        """Canonical file name of the checkpoint at ``step``."""
        return self.directory / f"state-{step:09d}.npz"

    def checkpoints(self) -> list[CheckpointInfo]:
        """On-disk checkpoints sorted by ascending step.

        ``val_loss`` is read lazily from each archive; a file whose
        archive cannot be opened still appears (with ``nan`` loss) so
        that :meth:`latest` points at it and the subsequent verified
        load fails loudly rather than silently skipping it.
        """
        if not self.directory.is_dir():
            return []
        entries = []
        for path in self.directory.iterdir():
            match = _STATE_NAME.match(path.name)
            if not match:
                continue
            entries.append(CheckpointInfo(
                path=path,
                step=int(match.group(1)),
                val_loss=self._peek_val_loss(path),
            ))
        return sorted(entries, key=lambda info: info.step)

    @staticmethod
    def _peek_val_loss(path: Path) -> float:
        try:
            with np.load(path) as archive:
                return float(archive["run.val_loss"])
        except Exception:
            return float("nan")

    def latest(self) -> CheckpointInfo | None:
        """Most recent checkpoint on disk, or ``None``."""
        entries = self.checkpoints()
        return entries[-1] if entries else None

    def best(self) -> CheckpointInfo | None:
        """Checkpoint with the lowest recorded validation loss, or None."""
        scored = [c for c in self.checkpoints() if np.isfinite(c.val_loss)]
        return min(scored, key=lambda info: info.val_loss) if scored else None

    def save(self, step: int, state: dict[str, np.ndarray]) -> Path:
        """Atomically persist ``state`` at ``step`` and apply retention."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = save_run_state(self.path_for(step), state)
        self.prune()
        return path

    def load_latest(self) -> dict[str, np.ndarray] | None:
        """Verified contents of the newest checkpoint (None when empty).

        A corrupt newest checkpoint raises
        :class:`~repro.nn.serialization.CheckpointError` — resuming
        silently from an older state than the caller expects would be
        worse than failing.
        """
        info = self.latest()
        if info is None:
            return None
        return load_run_state(info.path)

    def prune(self) -> list[Path]:
        """Delete checkpoints outside the retention set; returns them."""
        entries = self.checkpoints()
        retained = {info.path for info in entries[-self.keep:]}
        best = self.best()
        if best is not None:
            retained.add(best.path)
        removed = []
        for info in entries:
            if info.path not in retained:
                info.path.unlink(missing_ok=True)
                removed.append(info.path)
        return removed
