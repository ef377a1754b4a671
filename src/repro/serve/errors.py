"""Typed error hierarchy of the serving layer.

Every failure mode the service distinguishes gets its own exception
type, so callers (and tests) can route on *what went wrong* instead of
string-matching messages:

* :class:`DeadlineExceeded` — a request ran past its deadline; the work
  was abandoned (threads cannot be killed, but no caller blocks on it).
* :class:`ServiceOverloaded` — the admission queue was full under the
  ``"shed"`` overflow policy; the request was rejected *before* any
  work was done, so retrying later is always safe.
* :class:`CheckpointError` — a checkpoint file is corrupt, truncated,
  or fails its content checksum (defined next to the serialization code
  in :mod:`repro.nn.serialization`, re-exported here).
* :class:`FrameIntegrityError` — a shared-memory frame failed its
  SHA-256 digest check (torn write or corruption in transit between
  router and worker processes); the frame is retried, never scored.
* :class:`WorkerCrashError` — work was lost to worker-process crashes
  more times than the failover budget allows; carries the crash count.
* :class:`RolloutError` — a rolling checkpoint rollout failed (drain
  timeout, load failure, or a canary parity mismatch) and was aborted.

All serving errors derive from :class:`ServeError` so ``except
ServeError`` catches the whole family without also swallowing
programming errors like ``TypeError``.
"""

from __future__ import annotations

from ..nn.serialization import CheckpointError

__all__ = [
    "ServeError",
    "DeadlineExceeded",
    "ServiceOverloaded",
    "CheckpointError",
    "FrameIntegrityError",
    "WorkerCrashError",
    "RolloutError",
]


class ServeError(RuntimeError):
    """Base class of every serving-layer failure."""


class DeadlineExceeded(ServeError):
    """A request (or one stage of it) ran past its deadline.

    The in-flight work is abandoned, not killed: a hung engine call
    keeps its worker thread until it returns, but no caller waits for
    it and its result is discarded.
    """

    def __init__(self, message: str, timeout_s: float | None = None,
                 stage: str = ""):
        super().__init__(message)
        self.timeout_s = timeout_s
        self.stage = stage  #: where the deadline fired, e.g. ``"queue"``


class ServiceOverloaded(ServeError):
    """The admission queue was full and the overflow policy is ``"shed"``.

    Raised at ``submit()`` time — the request did no work and holds no
    queue slot, so the caller can back off and retry.
    """


class FrameIntegrityError(ServeError):
    """A shared-memory frame failed its SHA-256 digest verification.

    Raised by the frame reader (worker side) when the payload bytes do
    not hash to the digest the writer recorded — a torn write, a
    partially-initialized segment, or corruption in transit.  The
    router treats it as retryable: the frame is re-created from the
    source array and the task resubmitted; a torn frame is **never**
    silently scored.
    """

    def __init__(self, message: str, frame: str = ""):
        super().__init__(message)
        self.frame = frame  #: shared-memory segment name


class WorkerCrashError(ServeError):
    """Work was lost to worker crashes beyond the failover budget.

    A task whose worker dies is failed over to a sibling; a task that
    keeps killing workers (a poison batch) must not crash-loop the
    whole fleet, so after ``crashes`` losses it fails with this error
    instead of being re-queued again.
    """

    def __init__(self, message: str, crashes: int = 0):
        super().__init__(message)
        self.crashes = crashes


class RolloutError(ServeError):
    """A rolling checkpoint rollout was aborted.

    Raised when a replica fails to drain within the rollout deadline,
    fails to load the new checkpoint, or — the integrity case — its
    canary batch is not bit-identical to the router's reference engine
    for the new weights.  The fleet is left serving: replicas not yet
    swapped keep the old model, and the failing replica is rolled back
    when possible.
    """
