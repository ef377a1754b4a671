"""Shared-memory array transport between router and worker processes.

Scan tile rasters and prepared input batches are the bulky part of
every request; pickling them through a ``multiprocessing`` queue would
copy each array twice and serialize it byte-by-byte.  Instead the
router writes each payload once into a
:mod:`multiprocessing.shared_memory` segment and ships only a tiny
:class:`FrameRef` (name, shape, dtype, SHA-256 digest) through the
queue; the worker scoring the task reads it once.

Integrity is not optional: a worker that scores a torn or corrupted
frame would return silently-wrong predictions, which is strictly worse
than crashing.  Every frame carries the SHA-256 of its payload bytes,
computed by the writer *after* the copy; readers re-hash before use and
raise :class:`~repro.serve.errors.FrameIntegrityError` on mismatch, so
the router can re-create the frame and retry.  The chaos suite drives
this path deliberately via ``FaultInjector.add_tear`` (bytes flipped
after the digest — exactly a torn write).

Lifecycle: one frame per task, and the **writer owns the name** — it
unlinks the segment when the task completes (POSIX keeps the pages
alive for processes that still have them mapped).  Readers copy, verify
and close in one step (:func:`read_frame`).  The fleet starts the
``resource_tracker`` *before* forking workers, so the whole process
tree shares one tracker: reader registrations are idempotent, a
SIGKILLed worker leaks nothing, and cleanup-on-crash of the router
still works.  (A per-worker tracker would unlink still-shared frames
when its worker died — that is why attach does not re-register or
unregister anything itself.)
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..errors import FrameIntegrityError
from ..faults import FaultInjector

__all__ = ["FrameRef", "Frame", "put_frame", "read_frame"]


def _digest(view: memoryview | bytes) -> str:
    return hashlib.sha256(view).hexdigest()


@dataclass(frozen=True)
class FrameRef:
    """Queue-sized handle to a shared-memory array frame.

    ``digest`` is the SHA-256 hex of the payload bytes as written;
    readers must verify it before scoring anything from the frame.
    """

    name: str  #: shared-memory segment name
    shape: tuple[int, ...]
    dtype: str  #: numpy dtype string, e.g. ``"float64"``
    digest: str

    @property
    def nbytes(self) -> int:
        """Payload size in bytes."""
        return int(np.dtype(self.dtype).itemsize * np.prod(self.shape, dtype=np.int64))


class Frame:
    """Writer-side handle: the segment plus its :class:`FrameRef`.

    The writer keeps this object alive until every reader is done, then
    calls :meth:`close` (which unlinks).  Idempotent.
    """

    def __init__(self, ref: FrameRef, shm: shared_memory.SharedMemory):
        self.ref = ref
        self._shm: shared_memory.SharedMemory | None = shm

    def close(self) -> None:
        """Close and unlink the segment (safe to call repeatedly)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        except OSError:  # pragma: no cover - platform teardown races
            pass
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass

    def __del__(self):  # pragma: no cover - GC safety net
        self.close()


def put_frame(
    array: np.ndarray,
    faults: FaultInjector | None = None,
    site: str = "frame",
) -> Frame:
    """Copy ``array`` into a fresh shared-memory segment.

    The digest is computed over the segment bytes after the copy; a
    reader that hashes the same bytes therefore proves it saw exactly
    what the writer wrote.  When a :class:`FaultInjector` is given, its
    ``site`` rules fire per frame write — a ``tear`` rule flips payload
    bytes *after* the digest so readers must reject the frame.
    """
    array = np.ascontiguousarray(array)
    size = max(1, array.nbytes)  # zero-byte segments are not allowed
    shm = shared_memory.SharedMemory(create=True, size=size)
    try:
        target = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        target[...] = array
        digest = _digest(shm.buf[: array.nbytes])
        if faults is not None and faults.fire_frame(site, (array,)).tear:
            # the torn-write chaos mode: the digest above is now a lie
            shm.buf[0] = shm.buf[0] ^ 0xFF
        return Frame(
            FrameRef(
                name=shm.name,
                shape=tuple(array.shape),
                dtype=str(array.dtype),
                digest=digest,
            ),
            shm,
        )
    except BaseException:
        shm.close()
        shm.unlink()
        raise


def _attach(ref: FrameRef) -> shared_memory.SharedMemory:
    # CPython registers attached segments with the resource tracker
    # too.  The process tree shares ONE tracker (the fleet starts it
    # before forking), so the duplicate registration is an idempotent
    # no-op: the name stays tracked until the writer's unlink, and a
    # SIGKILLed reader leaks nothing.  (Do not "fix" the duplicate with
    # resource_tracker.unregister — under a shared tracker that removes
    # the *writer's* registration.)
    return shared_memory.SharedMemory(name=ref.name)


def read_frame(ref: FrameRef) -> np.ndarray:
    """Attach, verify, copy out, and detach in one step.

    The returned array is private to the caller (the copy is taken
    before verification hashes the *shared* bytes again, so a
    concurrent tear between copy and hash is still caught: the hash
    runs on the copy).  Every task's frame, a classify batch or a scan
    tile, is consumed exactly once this way.
    """
    shm = _attach(ref)
    try:
        view = np.ndarray(ref.shape, dtype=ref.dtype, buffer=shm.buf)
        copy = np.array(view, copy=True)
    finally:
        shm.close()
    if _digest(copy.tobytes()) != ref.digest:
        raise FrameIntegrityError(
            f"shared-memory frame {ref.name!r} failed its SHA-256 digest "
            f"check (torn or corrupt write); refusing to score it",
            frame=ref.name,
        )
    return copy
