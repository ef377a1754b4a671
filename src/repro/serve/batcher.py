"""Micro-batching queue: coalesce single-clip requests into batches.

The engines (:class:`~repro.binary.inference.ProgramEngine` on the
packed or float backend) amortize their per-invocation overhead —
im2col setup, bit packing, BLAS dispatch — across the batch dimension,
so serving one clip per call wastes most of the machine.  The batcher runs one
consumer thread that drains a queue: the first waiting request opens a
batch, then the thread keeps collecting until either ``max_batch``
requests are in hand or ``max_wait_ms`` has elapsed since the batch
opened, stacks the inputs, and runs the engine once.

Every per-sample operation on both backends (convolution, frozen
batch-norm affine, pooling, dense head) is independent of the other
samples in the batch, so predictions are **bit-identical regardless of
how requests happen to coalesce** — the test suite pins this down.

Fault tolerance (the coalescing flip side — one bad request must not
take down the batch it happened to share):

* **Validation at the door.**  ``submit()`` rejects inputs whose shape
  or dtype disagrees with the batch contract (locked in by the first
  accepted request), so a malformed request raises in the *caller*,
  never poisons ``np.concatenate`` in the consumer thread.
* **Backpressure.**  The queue is bounded (``queue_depth``); when it is
  full, the ``overflow`` policy either blocks the submitter (``"block"``,
  bounded by its deadline) or rejects immediately with
  :class:`~repro.serve.errors.ServiceOverloaded` (``"shed"``).
* **Deadlines.**  ``submit(x, timeout=...)`` stamps a deadline on the
  request: it is shed with :class:`DeadlineExceeded` if still queued
  when it expires, and ``infer`` converts a wait timeout into the same
  typed error instead of blocking forever on a hung engine.
* **Poison quarantine.**  When the engine raises on a multi-request
  batch, the batch is bisected and re-run so the poison request(s) fail
  alone and every healthy co-batched request still gets its
  (bit-identical) result.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np

from .errors import DeadlineExceeded, ServiceOverloaded
from .metrics import ServiceMetrics

__all__ = ["MicroBatcher"]

_SHUTDOWN = object()

#: How long (seconds) a blocked ``submit()`` waits between admission
#: attempts.  The lock is never held while waiting, so the slice bounds
#: only the latency of noticing a freed slot / a concurrent ``close()``.
_ADMISSION_SLICE_S = 0.01


class _Item:
    """One queued request: input, future, and optional deadline."""

    __slots__ = ("x", "future", "deadline")

    def __init__(self, x: np.ndarray, future: Future,
                 deadline: float | None = None):
        self.x = x
        self.future = future
        self.deadline = deadline  #: ``time.monotonic()`` expiry, or None


class MicroBatcher:
    """Coalesces single-sample inference calls into engine batches.

    Parameters
    ----------
    infer_fn:
        Callable mapping a stacked input batch ``(n, c, h, w)`` to an
        output array with leading dimension ``n`` (e.g. an engine's
        ``forward``).
    max_batch:
        Upper bound on clips per engine invocation.
    max_wait_ms:
        How long an open batch waits for more requests before running.
        ``0`` degenerates to per-request invocation (useful as the
        unbatched baseline in benchmarks).
    metrics:
        Optional :class:`ServiceMetrics` receiving batch observations.
    queue_depth:
        Admission-queue bound.  ``None`` keeps the legacy unbounded
        queue (no backpressure, overload means memory growth).
    overflow:
        Full-queue policy: ``"block"`` waits for a slot (up to the
        request deadline), ``"shed"`` raises
        :class:`ServiceOverloaded` immediately.
    """

    def __init__(
        self,
        infer_fn,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        metrics: ServiceMetrics | None = None,
        queue_depth: int | None = None,
        overflow: str = "block",
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if queue_depth is not None and queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if overflow not in ("block", "shed"):
            raise ValueError(
                f"overflow must be 'block' or 'shed', got {overflow!r}"
            )
        self._infer_fn = infer_fn
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.metrics = metrics
        self.queue_depth = queue_depth
        self.overflow = overflow
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth or 0)
        self._closed = False
        # guards the closed flag and queue puts so a submit can never
        # land behind the shutdown sentinel, and the input contract
        self._lock = threading.Lock()
        self._contract: tuple[tuple[int, ...], np.dtype] | None = None
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    # -- public API ------------------------------------------------------

    def _validate(self, x: np.ndarray) -> np.ndarray:
        """Canonicalize to ``(1, c, h, w)`` and enforce the batch contract.

        The first accepted request locks in the sample shape and dtype;
        later mismatches raise ``ValueError`` here, at the door, instead
        of blowing up ``np.concatenate`` inside the consumer thread and
        failing every co-batched request.
        """
        x = np.asarray(x)
        if x.ndim == 3:
            x = x[None]
        if x.ndim != 4 or x.shape[0] != 1:
            raise ValueError(
                f"expected one sample (c, h, w) or (1, c, h, w), got {x.shape}"
            )
        if not (np.issubdtype(x.dtype, np.number)
                or np.issubdtype(x.dtype, np.bool_)):
            raise ValueError(f"expected a numeric sample, got dtype {x.dtype}")
        with self._lock:
            if self._contract is None:
                self._contract = (x.shape[1:], x.dtype)
            else:
                shape, dtype = self._contract
                if x.shape[1:] != shape:
                    raise ValueError(
                        f"sample shape {x.shape[1:]} does not match this "
                        f"batcher's contract {shape}"
                    )
                if x.dtype != dtype:
                    raise ValueError(
                        f"sample dtype {x.dtype} does not match this "
                        f"batcher's contract {dtype} (mixed dtypes would "
                        "silently promote co-batched requests)"
                    )
        return x

    def submit(self, x: np.ndarray, timeout: float | None = None) -> Future:
        """Enqueue one sample ``(c, h, w)`` or ``(1, c, h, w)``.

        Returns a future resolving to that sample's output row (leading
        batch dimension stripped).  ``timeout`` (seconds) stamps a
        deadline on the request: admission blocks at most that long
        under the ``"block"`` overflow policy, and a request still
        queued past its deadline fails with :class:`DeadlineExceeded`
        instead of running.
        """
        x = self._validate(x)
        future: Future = Future()
        deadline = None if timeout is None else time.monotonic() + timeout
        item = _Item(x, future, deadline)
        # The lock only ever guards non-blocking work (closed check +
        # put_nowait) so a full queue under a wedged consumer can never
        # wedge *other* submitters or close() on the lock.  Under the
        # "block" policy the wait happens outside the lock, in short
        # slices that re-check both the closed flag and the deadline.
        while True:
            with self._lock:
                if self._closed:
                    raise RuntimeError("submit() on a closed MicroBatcher")
                try:
                    self._queue.put_nowait(item)
                    return future
                except queue.Full:
                    pass
            if self.overflow == "shed":
                if self.metrics is not None:
                    self.metrics.add(shed_total=1)
                raise ServiceOverloaded(
                    f"admission queue full ({self.queue_depth} deep); "
                    "request shed"
                )
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                if self.metrics is not None:
                    self.metrics.add(timeouts_total=1)
                raise DeadlineExceeded(
                    f"request not admitted within {timeout}s "
                    f"(queue full at depth {self.queue_depth})",
                    timeout_s=timeout, stage="admission",
                )
            time.sleep(
                _ADMISSION_SLICE_S if remaining is None
                else min(_ADMISSION_SLICE_S, remaining)
            )

    def infer(self, x: np.ndarray, timeout: float | None = None) -> np.ndarray:
        """Synchronous convenience: submit one sample and wait.

        ``timeout`` is one deadline over the whole call — admission and
        result wait combined, never 2x.  A request that has not resolved
        in time is cancelled (if still queued) and
        :class:`DeadlineExceeded` raised — the caller never hangs on a
        wedged engine.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        future = self.submit(x, timeout=timeout)
        remaining = (
            None if deadline is None
            else max(0.0, deadline - time.monotonic())
        )
        try:
            return future.result(timeout=remaining)
        except FutureTimeoutError:
            future.cancel()
            if self.metrics is not None:
                self.metrics.add(timeouts_total=1)
            raise DeadlineExceeded(
                f"inference did not complete within {timeout}s",
                timeout_s=timeout, stage="infer",
            ) from None

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop the consumer thread after draining queued requests.

        Raises ``RuntimeError`` when the consumer fails to stop within
        ``timeout`` — a wedged batcher (an engine call that never
        returns) must be visible, not silently leaked.  Safe to call
        repeatedly; concurrent ``submit()`` either lands before the
        shutdown sentinel (and is drained) or raises cleanly.
        """
        with self._lock:
            self._closed = True
        deadline = None if timeout is None else time.monotonic() + timeout
        if self._thread.is_alive():
            try:
                # bounded put: a full queue with a wedged consumer would
                # otherwise hang close() itself.  Re-attempted on every
                # close() so a retry after a transient backlog can still
                # deliver the sentinel (extra sentinels are harmless —
                # the drain loop skips them).
                self._queue.put(_SHUTDOWN, timeout=timeout)
            except queue.Full:
                pass  # consumer wedged; the join below reports it
        remaining = (
            None if deadline is None
            else max(0.0, deadline - time.monotonic())
        )
        self._thread.join(timeout=remaining)
        if self._thread.is_alive():
            raise RuntimeError(
                f"MicroBatcher consumer thread failed to stop within "
                f"{timeout}s; the engine call is likely wedged and its "
                "thread is leaked"
            )

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- consumer loop ---------------------------------------------------

    def _collect(self, first: _Item) -> tuple[list[_Item], bool]:
        """Fill a batch starting from ``first``; returns (batch, stop)."""
        batch = [first]
        deadline = time.monotonic() + self.max_wait_ms / 1000.0
        while len(batch) < self.max_batch:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                return batch, True
            batch.append(item)
        return batch, False

    def _expire(self, batch: list[_Item]) -> list[_Item]:
        """Shed items whose deadline passed while they sat in the queue."""
        now = time.monotonic()
        live = []
        for item in batch:
            if item.deadline is not None and now > item.deadline:
                if not item.future.cancelled():
                    item.future.set_exception(DeadlineExceeded(
                        "request expired in the admission queue",
                        stage="queue",
                    ))
                    if self.metrics is not None:
                        self.metrics.add(timeouts_total=1)
            else:
                live.append(item)
        return live

    def _execute(self, batch: list[_Item], quarantining: bool = False) -> None:
        """Run one batch; on failure bisect to isolate poison requests.

        A single-request batch that fails is the poison itself: its
        future gets the engine's exception.  A multi-request batch that
        fails is split in half and each half re-run — healthy requests
        eventually land in an all-healthy sub-batch and succeed with
        outputs bit-identical to any other coalescing (per-sample
        independence, the serving layer's core invariant).  Cost is
        O(log n) extra engine calls per poison request, paid only on
        failure.
        """
        started = time.perf_counter()
        try:
            stacked = np.concatenate([item.x for item in batch], axis=0)
            outputs = self._infer_fn(stacked)
        except Exception as exc:
            if len(batch) == 1:
                if not batch[0].future.cancelled():
                    batch[0].future.set_exception(exc)
                if self.metrics is not None and quarantining:
                    self.metrics.add(quarantined_total=1)
                return
            if self.metrics is not None:
                self.metrics.add(batch_splits_total=1)
            mid = len(batch) // 2
            self._execute(batch[:mid], quarantining=True)
            self._execute(batch[mid:], quarantining=True)
            return
        elapsed_ms = (time.perf_counter() - started) * 1e3
        if self.metrics is not None:
            self.metrics.add(batches_total=1, batched_clips_total=len(batch))
            self.metrics.peak(max_batch_size=len(batch))
            self.metrics.observe(batch_latency=elapsed_ms)
        for row, item in enumerate(batch):
            if not item.future.cancelled():
                item.future.set_result(outputs[row])

    def _run_batch(self, batch: list[_Item]) -> None:
        batch = self._expire(batch)
        if batch:
            self._execute(batch)

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                break
            batch, stop = self._collect(item)
            self._run_batch(batch)
            if stop:
                break
        # resolve anything enqueued after shutdown began
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                self._run_batch([item])
