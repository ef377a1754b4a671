"""Worker pool for scan-mode requests: shard ranges over threads.

A scan request sweeps a full layout tile by tile; each tile is
rasterized and scored independently, so the tile list shards
cleanly.  Threads (not processes) are the right pool here:
the work is NumPy-bound — rasterization and the engine's matmuls drop
the GIL — and threads share the raster cache and compiled engine
without pickling model weights per worker.

Results are returned **in shard order** (each shard a contiguous slice
of the input list), so the pool is deterministic: the same item list
produces the same flattened result list regardless of worker count or
scheduling.

Failure semantics: :meth:`WorkerPool.map_shards_tolerant` degrades
instead of raising.  Each failed shard is retried up to ``retries``
times, a ``timeout`` bounds the whole call (running shards are
abandoned, never joined — threads cannot be killed), and the call
returns per-shard :class:`ShardOutcome` records, so the caller (the
scan path) can keep every healthy shard's results and report the
failed tiles instead of discarding the sweep.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .errors import DeadlineExceeded

__all__ = ["WorkerPool", "ShardOutcome", "shard_slices"]

T = TypeVar("T")
R = TypeVar("R")


def shard_slices(n_items: int, n_shards: int) -> list[slice]:
    """Split ``range(n_items)`` into at most ``n_shards`` near-equal
    contiguous slices (empty shards are dropped)."""
    n_shards = max(1, min(n_shards, n_items)) if n_items else 0
    slices = []
    base, extra = divmod(n_items, n_shards) if n_shards else (0, 0)
    start = 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


@dataclass
class ShardOutcome:
    """Result of one shard in a tolerant map.

    Exactly one of ``results`` / ``error`` is set.  ``start``/``stop``
    are the shard's item range; ``retries`` counts re-runs that
    happened (whether the shard ultimately succeeded or not).
    """

    start: int
    stop: int
    results: list | None = None
    error: BaseException | None = None
    retries: int = 0

    @property
    def ok(self) -> bool:
        """Whether the shard produced results."""
        return self.error is None


class WorkerPool:
    """A small persistent thread pool mapping shard functions over lists."""

    def __init__(self, workers: int | None = None):
        if workers is None:
            workers = max(1, min(8, os.cpu_count() or 1))
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve-worker"
        )

    def map_shards_tolerant(
        self,
        fn: Callable[[Sequence[T]], list[R]],
        items: Sequence[T],
        shards: int | None = None,
        timeout: float | None = None,
        retries: int = 1,
    ) -> list[ShardOutcome]:
        """Map shards, degrading instead of raising on partial failure.

        Every shard runs (subject to ``timeout``, a deadline over the
        whole call); a shard that raises is retried up to ``retries``
        times, and the returned :class:`ShardOutcome` list — one entry
        per shard, in item order — records results or the final
        exception per shard.  A shard whose result is not available by
        the deadline is recorded as failed with
        :class:`DeadlineExceeded` (its thread is abandoned, and any
        shard not yet started is cancelled).  Only programming errors
        escape this method.
        """
        if len(items) == 0:
            return []
        slices = shard_slices(len(items), shards or self.workers)
        deadline = None if timeout is None else time.monotonic() + timeout
        futures = [self._executor.submit(fn, items[s]) for s in slices]
        outcomes: list[ShardOutcome] = []
        timed_out = False
        for i, (s, future) in enumerate(zip(slices, futures)):
            outcome = ShardOutcome(start=s.start, stop=s.stop)
            attempts = 0
            while True:
                remaining = (
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                try:
                    outcome.results = list(future.result(timeout=remaining))
                    outcome.error = None
                    break
                except (FutureTimeoutError, CancelledError):
                    outcome.error = DeadlineExceeded(
                        f"shard [{s.start}:{s.stop}) did not complete "
                        f"within the {timeout}s scan deadline",
                        timeout_s=timeout, stage="shard",
                    )
                    timed_out = True
                    break  # no retry: the deadline already passed
                except Exception as exc:
                    outcome.error = exc
                    if attempts >= retries:
                        break
                    if deadline is not None and time.monotonic() >= deadline:
                        break  # no budget left to retry into
                    attempts += 1
                    outcome.retries = attempts
                    future = self._executor.submit(fn, items[s])
            outcomes.append(outcome)
            if timed_out:
                # deadline passed: collect already-finished shards for
                # free, fail the rest without waiting
                self._cancel_pending(futures[i + 1:])
        return outcomes

    @staticmethod
    def _cancel_pending(futures) -> None:
        """Cancel every not-yet-started future (running ones are
        abandoned — thread work cannot be interrupted)."""
        for future in futures:
            future.cancel()

    def close(self, timeout: float | None = 10.0) -> None:
        """Shut the pool down, waiting at most ``timeout`` seconds.

        Queued-but-unstarted shards are cancelled; in-flight shards get
        ``timeout`` to finish.  A worker still alive past the deadline —
        an abandoned shard wedged in an engine call (threads are never
        killed) — raises ``RuntimeError`` so the leak is visible instead
        of blocking shutdown forever.  ``timeout=None`` restores the
        unbounded ``shutdown(wait=True)`` wait.
        """
        if timeout is None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            return
        self._executor.shutdown(wait=False, cancel_futures=True)
        deadline = time.monotonic() + timeout
        threads = list(getattr(self._executor, "_threads", ()))
        for thread in threads:
            remaining = deadline - time.monotonic()
            if remaining > 0:
                thread.join(timeout=remaining)
        wedged = [t.name for t in threads if t.is_alive()]
        if wedged:
            raise RuntimeError(
                f"WorkerPool failed to stop within {timeout}s; wedged "
                f"worker thread(s) leaked: {', '.join(wedged)}"
            )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
