"""Model weight persistence (.npz checkpoints).

Checkpoints are flat ``np.savez`` archives mapping dotted parameter
paths to arrays (see :meth:`Module.state_dict`).  A checkpoint may also
carry a small metadata record (architecture knobs, decision threshold)
under ``__meta__.``-prefixed keys so that consumers — notably the
serving layer's model registry — can rebuild the matching architecture
without out-of-band information.

Integrity: :func:`save_model` records a SHA-256 over the parameter
arrays (``content_sha256``) *and* one over the metadata record itself
(``meta_sha256`` — architecture knobs and the decision threshold drive
model reconstruction, so they need tamper detection just as much as the
weights).  :func:`load_model` and :func:`load_meta` re-verify the
digests covering what they return, so a corrupt or tampered checkpoint
fails loudly with :class:`CheckpointError` instead of serving garbage
predictions.  Truncated or non-zip files raise the same typed error.
Checkpoints written before a checksum existed load unchanged (no
checksum recorded, none verified).

Atomicity: :func:`save_model` writes through :func:`atomic_write`
(temp file + fsync + ``os.replace`` + directory fsync), the helper the
training run-state checkpoints and the chip-scan journal snapshots use
too.  A crash or full disk mid-write leaves the previous file at the
path intact, never a half-written archive.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .module import Module

__all__ = [
    "atomic_write",
    "fsync_directory",
    "save_model",
    "load_model",
    "load_meta",
    "checkpoint_path",
    "CheckpointError",
    "state_checksum",
]

#: Archive-key prefix separating metadata entries from model state.
_META_PREFIX = "__meta__."

#: Metadata key holding the parameter-content checksum.
_CHECKSUM_KEY = "content_sha256"

#: Metadata key holding the checksum over the metadata record itself
#: (every other ``__meta__.`` entry, including ``content_sha256``).
_META_CHECKSUM_KEY = "meta_sha256"


class CheckpointError(RuntimeError):
    """A checkpoint file is corrupt, truncated, or fails its checksum."""


def state_checksum(state: dict[str, np.ndarray]) -> str:
    """SHA-256 over a state dict: key names, dtypes, shapes, and bytes.

    Keys are visited in sorted order so the digest is independent of
    dict insertion order; dtype and shape are hashed so a reshaped or
    re-typed array with identical bytes still changes the digest.
    """
    digest = hashlib.sha256()
    for key in sorted(state):
        array = np.ascontiguousarray(state[key])
        digest.update(key.encode())
        digest.update(str(array.dtype).encode())
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def fsync_directory(directory: Path) -> None:
    """Make a create/rename in ``directory`` durable.

    A no-op where directory fds are unsupported (``os.open`` fails),
    but an ``fsync`` error propagates: swallowing it would let the
    caller believe a rename is durable when it may not be.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: Path, write: Callable[[BinaryIO], None]) -> Path:
    """Replace ``path`` all-or-nothing with what ``write`` writes.

    ``write(handle)`` fills a ``<name>.tmp-<pid>`` file beside ``path``,
    which is flushed, fsynced and ``os.replace``-renamed over ``path``;
    the directory is then fsynced so the rename is durable too.  If
    ``write`` (or the rename) raises, the temporary file is removed and
    the previous file at ``path``, if any, is left untouched.  Returns
    ``path``.
    """
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_directory(path.parent)
    return path


def checkpoint_path(path: str | os.PathLike) -> Path:
    """Normalize a checkpoint path to carry the ``.npz`` suffix.

    ``np.savez`` silently appends ``.npz`` when the path lacks it, so
    without normalization ``save_model(m, "ckpt")`` writes ``ckpt.npz``
    while ``load_model(m, "ckpt")`` looks for ``ckpt`` and fails.  Both
    directions go through this helper so suffix-less paths round-trip.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def save_model(
    model: Module,
    path: str | os.PathLike,
    meta: dict[str, object] | None = None,
) -> Path:
    """Serialize every parameter and extra state array to a ``.npz`` file.

    ``meta`` entries (ints, floats, strings, or arrays) are stored under
    ``__meta__.`` keys and recovered with :func:`load_meta`.  A
    ``content_sha256`` checksum over the parameter arrays and a
    ``meta_sha256`` over the metadata record (architecture knobs,
    decision threshold — everything the registry rebuilds a model from)
    are always added.  The write is atomic (:func:`atomic_write`).
    Returns the path actually written (the input with ``.npz`` appended
    if missing).
    """
    path = checkpoint_path(path)
    state = model.state_dict()
    checksum = state_checksum(state)
    # npz keys cannot contain '/', but dots are fine.
    if meta:
        for key, value in meta.items():
            state[_META_PREFIX + key] = np.asarray(value)
    state[_META_PREFIX + _CHECKSUM_KEY] = np.asarray(checksum)
    meta_state = {
        key: value
        for key, value in state.items()
        if key.startswith(_META_PREFIX)
    }
    state[_META_PREFIX + _META_CHECKSUM_KEY] = np.asarray(
        state_checksum(meta_state)
    )
    return atomic_write(path, lambda handle: np.savez(handle, **state))


def _read_archive(path: Path) -> dict[str, np.ndarray]:
    """Read every array of a checkpoint, typed-erroring on corruption.

    ``np.load`` surfaces truncation and bit-rot as a grab-bag of
    ``zipfile.BadZipFile`` / ``OSError`` / ``ValueError`` / ``EOFError``
    depending on where the damage sits; all of them become one
    :class:`CheckpointError` naming the file.
    """
    try:
        with np.load(path) as archive:
            return {key: archive[key] for key in archive.files}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError, EOFError, KeyError) as exc:
        raise CheckpointError(
            f"corrupt or truncated checkpoint {path}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def _recorded_digest(arrays: dict[str, np.ndarray], key: str) -> str | None:
    """The hex digest stored under a ``__meta__.`` key, or None."""
    recorded = arrays.get(_META_PREFIX + key)
    if recorded is None:
        return None
    return str(recorded.item() if recorded.ndim == 0 else recorded)


def _verify_meta(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Check ``meta_sha256`` over the metadata record, when recorded.

    The registry rebuilds architecture and decision threshold from the
    metadata, so a flipped ``__meta__.`` entry is exactly as dangerous
    as a flipped weight — it gets the same loud :class:`CheckpointError`.
    """
    expected = _recorded_digest(arrays, _META_CHECKSUM_KEY)
    if expected is None:
        return  # pre-meta-checksum checkpoint: nothing to verify
    meta_state = {
        key: value
        for key, value in arrays.items()
        if key.startswith(_META_PREFIX)
        and key != _META_PREFIX + _META_CHECKSUM_KEY
    }
    actual = state_checksum(meta_state)
    if actual != expected:
        raise CheckpointError(
            f"checkpoint {path} failed its metadata checksum "
            f"(recorded {expected[:12]}…, computed {actual[:12]}…); "
            "the metadata record is corrupt or was modified after writing"
        )


def load_model(model: Module, path: str | os.PathLike) -> Module:
    """Load a checkpoint written by :func:`save_model` into ``model``.

    The model must already have the matching architecture; shapes are
    validated by :meth:`Module.load_state_dict`.  When the checkpoint
    records a ``content_sha256`` / ``meta_sha256``, the parameter arrays
    and the metadata record are re-hashed and a mismatch raises
    :class:`CheckpointError` before any state is applied.  Metadata
    entries are ignored here — use :func:`load_meta` to read them.
    """
    path = checkpoint_path(path)
    arrays = _read_archive(path)
    state = {
        key: value
        for key, value in arrays.items()
        if not key.startswith(_META_PREFIX)
    }
    expected = _recorded_digest(arrays, _CHECKSUM_KEY)
    if expected is not None:
        actual = state_checksum(state)
        if actual != expected:
            raise CheckpointError(
                f"checkpoint {path} failed its content checksum "
                f"(recorded {expected[:12]}…, computed {actual[:12]}…); "
                "the file is corrupt or was modified after writing"
            )
    _verify_meta(path, arrays)
    model.load_state_dict(state)
    return model


def load_meta(path: str | os.PathLike) -> dict[str, object]:
    """Read the metadata record of a checkpoint (empty dict if none).

    Scalar entries come back as plain Python values (``int``, ``float``,
    ``str``); array entries stay arrays.  When the checkpoint records a
    ``meta_sha256``, the record is re-hashed first and a mismatch raises
    :class:`CheckpointError` — consumers (the serving registry) rebuild
    architectures and decision thresholds from these entries.
    """
    path = checkpoint_path(path)
    arrays = _read_archive(path)
    _verify_meta(path, arrays)
    meta: dict[str, object] = {}
    for key, value in arrays.items():
        if key.startswith(_META_PREFIX):
            name = key[len(_META_PREFIX):]
            if name in (_CHECKSUM_KEY, _META_CHECKSUM_KEY):
                continue  # integrity records, not user metadata
            meta[name] = value.item() if value.ndim == 0 else value
    return meta
