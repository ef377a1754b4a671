"""Service observability: counters, latency histograms, batch stats.

Everything is in-process and lock-protected; :meth:`ServiceMetrics.stats`
returns a plain-dict snapshot suitable for logging, table formatting, or
export to an external metrics system.  Histograms use fixed logarithmic
bucket bounds (Prometheus-style cumulative-free counts) so percentile
estimates are cheap and allocation-free on the hot path.
"""

from __future__ import annotations

import math
from threading import Lock

__all__ = ["LatencyHistogram", "ServiceMetrics", "DEFAULT_BUCKETS_MS"]

#: Upper bounds (milliseconds) of the latency histogram buckets.
DEFAULT_BUCKETS_MS = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, math.inf,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with mean and percentile estimates."""

    def __init__(self, bounds_ms: tuple[float, ...] = DEFAULT_BUCKETS_MS):
        if not bounds_ms or bounds_ms[-1] != math.inf:
            raise ValueError("bucket bounds must end with +inf")
        self.bounds_ms = bounds_ms
        self.counts = [0] * len(bounds_ms)
        self.total = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, latency_ms: float) -> None:
        """Record one latency sample."""
        for i, bound in enumerate(self.bounds_ms):
            if latency_ms <= bound:
                self.counts[i] += 1
                break
        self.total += 1
        self.sum_ms += latency_ms
        if latency_ms > self.max_ms:
            self.max_ms = latency_ms

    @property
    def mean_ms(self) -> float:
        """Mean observed latency (0.0 when empty)."""
        return self.sum_ms / self.total if self.total else 0.0

    def quantile_ms(self, q: float) -> float:
        """Upper bucket bound containing the ``q`` quantile (0.0 empty).

        A conservative estimate: the true quantile is at or below the
        returned bound (the last finite bound for the +inf bucket).
        """
        if self.total == 0:
            return 0.0
        rank = q * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count:
                bound = self.bounds_ms[i]
                return bound if math.isfinite(bound) else self.max_ms
        return self.max_ms

    def snapshot(self) -> dict[str, float]:
        """Summary dict: count, mean, p50/p95/p99 estimates, max."""
        return {
            "count": self.total,
            "mean_ms": round(self.mean_ms, 3),
            "p50_ms": self.quantile_ms(0.50),
            "p95_ms": self.quantile_ms(0.95),
            "p99_ms": self.quantile_ms(0.99),
            "max_ms": round(self.max_ms, 3),
        }


class ServiceMetrics:
    """Thread-safe counters and histograms for one service instance.

    Besides its own counters, the object can host per-model engine
    op-timing tables (:meth:`register_op_table`): any object with
    ``snapshot() -> list[dict]`` and ``reset()`` — in practice
    :class:`repro.engine.executor.OpTimings` — whose rows then appear
    under ``per_op_ms`` in :meth:`stats`, giving the per-layer time
    breakdown of everything the engines executed.
    """

    def __init__(self):
        self._lock = Lock()
        self._op_tables: dict[str, object] = {}
        self.requests_total = 0
        self.errors_total = 0
        self.shed_total = 0
        self.timeouts_total = 0
        self.quarantined_total = 0
        self.batches_total = 0
        self.batch_splits_total = 0
        self.batched_clips_total = 0
        self.max_batch_size = 0
        self.scan_requests_total = 0
        self.degraded_scans_total = 0
        self.windows_scanned_total = 0
        self.windows_failed_total = 0
        self.shard_retries_total = 0
        self.chip_scan_requests_total = 0
        self.chip_rescan_requests_total = 0
        self.chip_tiles_scanned_total = 0
        self.chip_tiles_failed_total = 0
        self.chip_windows_rescored_total = 0
        self.chip_windows_scored_total = 0
        self.chip_peak_tile_bytes = 0
        self.chip_tiles_replayed_total = 0
        self.chip_tile_retries_total = 0
        self.chip_backoff_ms_total = 0.0
        self.chip_windows_quarantined_total = 0
        self.chip_resumed_scans_total = 0
        self.workers_spawned_total = 0
        self.workers_reaped_total = 0
        self.worker_timeouts_total = 0
        self.tasks_failed_over_total = 0
        self.frame_retries_total = 0
        self.slots_quarantined_total = 0
        self.rollouts_total = 0
        self.rollout_failures_total = 0
        self.request_latency = LatencyHistogram()
        self.batch_latency = LatencyHistogram()
        self.scan_latency = LatencyHistogram()
        self.chip_scan_latency = LatencyHistogram()

    # -- recording hooks -------------------------------------------------

    def record_request(self, latency_ms: float) -> None:
        """One classify request completed end-to-end."""
        with self._lock:
            self.requests_total += 1
            self.request_latency.observe(latency_ms)

    def record_error(self) -> None:
        """One request failed (exception surfaced to the caller)."""
        with self._lock:
            self.errors_total += 1

    def record_shed(self) -> None:
        """One request rejected at admission (queue full, shed policy)."""
        with self._lock:
            self.shed_total += 1

    def record_timeout(self) -> None:
        """One request abandoned past its deadline."""
        with self._lock:
            self.timeouts_total += 1

    def record_quarantine(self, n: int = 1) -> None:
        """``n`` poison requests isolated by batch bisection."""
        with self._lock:
            self.quarantined_total += n

    def record_batch_split(self) -> None:
        """One failed batch bisected to isolate its poison request(s)."""
        with self._lock:
            self.batch_splits_total += 1

    def record_batch(self, size: int, latency_ms: float) -> None:
        """One coalesced engine invocation of ``size`` clips."""
        with self._lock:
            self.batches_total += 1
            self.batched_clips_total += size
            if size > self.max_batch_size:
                self.max_batch_size = size
            self.batch_latency.observe(latency_ms)

    def record_scan(
        self,
        windows: int,
        latency_ms: float,
        failed_windows: int = 0,
        retried_shards: int = 0,
    ) -> None:
        """One scan request sweeping ``windows`` windows.

        ``failed_windows`` counts windows left unscored even after retry
        (a degraded scan); ``retried_shards`` counts shard retries that
        happened (whether or not the retry succeeded).
        """
        with self._lock:
            self.scan_requests_total += 1
            if failed_windows:
                self.degraded_scans_total += 1
            self.windows_scanned_total += windows
            self.windows_failed_total += failed_windows
            self.shard_retries_total += retried_shards
            self.scan_latency.observe(latency_ms)

    def record_chip_scan(
        self,
        windows: int,
        tiles: int,
        latency_ms: float,
        failed_tiles: int = 0,
        failed_windows: int = 0,
        peak_tile_bytes: int = 0,
        rescored_windows: int | None = None,
        scored_windows: int = 0,
        retried_shards: int = 0,
        replayed_tiles: int = 0,
        tile_retries: int = 0,
        backoff_ms: float = 0.0,
        quarantined_windows: int = 0,
        resumed: bool = False,
    ) -> None:
        """One full-chip streaming scan (or incremental re-scan).

        ``rescored_windows`` is ``None`` for a full scan; an integer
        marks the request as an ECO re-scan and accumulates the dirty
        windows actually re-scored.  ``scored_windows`` is how many
        windows the engine ran for the request — on a full scan one per
        distinct window raster, so it falls below the windows covered
        wherever rasters repeat; on a re-scan each dirty window.  ``peak_tile_bytes`` keeps a
        high-water mark across requests (the budget-compliance signal
        an operator watches).

        The durable-scan arguments: ``replayed_tiles`` counts tiles
        served from a resume journal instead of being re-scored,
        ``tile_retries``/``backoff_ms`` the retry-policy work spent,
        ``quarantined_windows`` the poison windows isolated by
        bisection (these degrade the scan like failed tiles do), and
        ``resumed`` marks a scan continued from a journal.
        """
        with self._lock:
            self.chip_scan_requests_total += 1
            if rescored_windows is not None:
                self.chip_rescan_requests_total += 1
                self.chip_windows_rescored_total += rescored_windows
            self.chip_windows_scored_total += scored_windows
            if failed_tiles or quarantined_windows:
                self.degraded_scans_total += 1
            self.chip_tiles_scanned_total += tiles - failed_tiles
            self.chip_tiles_failed_total += failed_tiles
            self.windows_scanned_total += windows
            self.windows_failed_total += failed_windows
            self.shard_retries_total += retried_shards
            self.chip_tiles_replayed_total += replayed_tiles
            self.chip_tile_retries_total += tile_retries
            self.chip_backoff_ms_total += backoff_ms
            self.chip_windows_quarantined_total += quarantined_windows
            if resumed:
                self.chip_resumed_scans_total += 1
            if peak_tile_bytes > self.chip_peak_tile_bytes:
                self.chip_peak_tile_bytes = peak_tile_bytes
            self.chip_scan_latency.observe(latency_ms)

    # -- cluster (worker-process fleet) hooks ----------------------------

    def record_worker_spawn(self) -> None:
        """One worker process spawned (initial fleet or a respawn)."""
        with self._lock:
            self.workers_spawned_total += 1

    def record_worker_reap(self, timed_out: bool = False) -> None:
        """One worker process reaped (crash, kill, or heartbeat timeout).

        ``timed_out`` marks a reap forced by a missed heartbeat (the
        supervisor killed a hung worker) rather than an observed death.
        """
        with self._lock:
            self.workers_reaped_total += 1
            if timed_out:
                self.worker_timeouts_total += 1

    def record_failover(self, n: int = 1) -> None:
        """``n`` in-flight tasks re-queued to sibling workers."""
        with self._lock:
            self.tasks_failed_over_total += n

    def record_frame_retry(self) -> None:
        """One shared-memory frame rejected by digest check and rebuilt."""
        with self._lock:
            self.frame_retries_total += 1

    def record_slot_quarantine(self) -> None:
        """One fleet slot quarantined after a crash loop."""
        with self._lock:
            self.slots_quarantined_total += 1

    def record_rollout(self, ok: bool = True) -> None:
        """One rolling checkpoint rollout finished (or aborted)."""
        with self._lock:
            self.rollouts_total += 1
            if not ok:
                self.rollout_failures_total += 1

    def register_op_table(self, model: str, table: object) -> None:
        """Attach a per-op timing table for ``model`` (idempotent).

        ``table`` must provide ``snapshot()`` and ``reset()``; the same
        object may be registered repeatedly (services register on every
        request path touch, engines own the table).
        """
        with self._lock:
            self._op_tables[model] = table

    def reset(self) -> None:
        """Zero every counter and histogram (e.g. after a warm-up phase).

        In-place, so holders of a reference — batchers, services — keep
        recording into the same object.  Registered per-op tables are
        reset too (their registration is kept).
        """
        with self._lock:
            tables = list(self._op_tables.values())
        for table in tables:
            table.reset()
        with self._lock:
            self.requests_total = 0
            self.errors_total = 0
            self.shed_total = 0
            self.timeouts_total = 0
            self.quarantined_total = 0
            self.batches_total = 0
            self.batch_splits_total = 0
            self.batched_clips_total = 0
            self.max_batch_size = 0
            self.scan_requests_total = 0
            self.degraded_scans_total = 0
            self.windows_scanned_total = 0
            self.windows_failed_total = 0
            self.shard_retries_total = 0
            self.chip_scan_requests_total = 0
            self.chip_rescan_requests_total = 0
            self.chip_tiles_scanned_total = 0
            self.chip_tiles_failed_total = 0
            self.chip_windows_rescored_total = 0
            self.chip_windows_scored_total = 0
            self.chip_peak_tile_bytes = 0
            self.chip_tiles_replayed_total = 0
            self.chip_tile_retries_total = 0
            self.chip_backoff_ms_total = 0.0
            self.chip_windows_quarantined_total = 0
            self.chip_resumed_scans_total = 0
            self.workers_spawned_total = 0
            self.workers_reaped_total = 0
            self.worker_timeouts_total = 0
            self.tasks_failed_over_total = 0
            self.frame_retries_total = 0
            self.slots_quarantined_total = 0
            self.rollouts_total = 0
            self.rollout_failures_total = 0
            self.request_latency = LatencyHistogram()
            self.batch_latency = LatencyHistogram()
            self.scan_latency = LatencyHistogram()
            self.chip_scan_latency = LatencyHistogram()

    # -- reporting -------------------------------------------------------

    @property
    def mean_batch_size(self) -> float:
        """Average clips per engine invocation (0.0 when no batches)."""
        if self.batches_total == 0:
            return 0.0
        return self.batched_clips_total / self.batches_total

    def stats(self) -> dict[str, object]:
        """Plain-dict snapshot of every counter and histogram summary.

        ``per_op_ms`` maps each model with a registered op table to its
        per-layer timing rows (``op``, ``calls``, ``total_ms``,
        ``mean_ms`` — cumulative since the last reset, in program
        order), covering batched classify *and* scan work because
        both run through the same executor.
        """
        with self._lock:
            tables = dict(self._op_tables)
        per_op = {name: table.snapshot() for name, table in tables.items()}
        with self._lock:
            return {
                "per_op_ms": per_op,
                "requests_total": self.requests_total,
                "errors_total": self.errors_total,
                "shed_total": self.shed_total,
                "timeouts_total": self.timeouts_total,
                "quarantined_total": self.quarantined_total,
                "batches_total": self.batches_total,
                "batch_splits_total": self.batch_splits_total,
                "batched_clips_total": self.batched_clips_total,
                "mean_batch_size": round(self.mean_batch_size, 2),
                "max_batch_size": self.max_batch_size,
                "scan_requests_total": self.scan_requests_total,
                "degraded_scans_total": self.degraded_scans_total,
                "windows_scanned_total": self.windows_scanned_total,
                "windows_failed_total": self.windows_failed_total,
                "shard_retries_total": self.shard_retries_total,
                "chip_scan_requests_total": self.chip_scan_requests_total,
                "chip_rescan_requests_total": self.chip_rescan_requests_total,
                "chip_tiles_scanned_total": self.chip_tiles_scanned_total,
                "chip_tiles_failed_total": self.chip_tiles_failed_total,
                "chip_windows_rescored_total":
                    self.chip_windows_rescored_total,
                "chip_windows_scored_total": self.chip_windows_scored_total,
                "chip_peak_tile_bytes": self.chip_peak_tile_bytes,
                "chip_tiles_replayed_total": self.chip_tiles_replayed_total,
                "chip_tile_retries_total": self.chip_tile_retries_total,
                "chip_backoff_ms_total": round(self.chip_backoff_ms_total, 3),
                "chip_windows_quarantined_total":
                    self.chip_windows_quarantined_total,
                "chip_resumed_scans_total": self.chip_resumed_scans_total,
                "workers_spawned_total": self.workers_spawned_total,
                "workers_reaped_total": self.workers_reaped_total,
                "worker_timeouts_total": self.worker_timeouts_total,
                "tasks_failed_over_total": self.tasks_failed_over_total,
                "frame_retries_total": self.frame_retries_total,
                "slots_quarantined_total": self.slots_quarantined_total,
                "rollouts_total": self.rollouts_total,
                "rollout_failures_total": self.rollout_failures_total,
                "request_latency": self.request_latency.snapshot(),
                "batch_latency": self.batch_latency.snapshot(),
                "scan_latency": self.scan_latency.snapshot(),
                "chip_scan_latency": self.chip_scan_latency.snapshot(),
            }
