"""Service observability: counters, latency histograms, batch stats.

Each counter is declared once, as a row of :data:`COUNTERS`: the table
alone decides what ``stats()`` reports and in which order, what
``reset()`` zeroes and which counters degrade a service's ``health()``.
Everything is in-process and lock-protected; ``stats()`` returns a
plain-dict snapshot suitable for logging, table formatting, or export
to an external metrics system.  Histograms use fixed logarithmic
bucket bounds (Prometheus-style cumulative-free counts) so percentile
estimates are cheap and allocation-free on the hot path.
"""

from __future__ import annotations

import math
from operator import attrgetter
from threading import Lock
from typing import Callable, NamedTuple

__all__ = ["COUNTERS", "Counter", "DEFAULT_BUCKETS_MS", "HISTOGRAMS",
           "LatencyHistogram", "ServiceMetrics"]

#: Upper bounds (milliseconds) of the latency histogram buckets.
DEFAULT_BUCKETS_MS = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, math.inf,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with mean and percentile estimates."""

    def __init__(self):
        self.counts = [0] * len(DEFAULT_BUCKETS_MS)
        self.total = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, latency_ms: float) -> None:
        """Record one latency sample."""
        for i, bound in enumerate(DEFAULT_BUCKETS_MS):
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
                bound = DEFAULT_BUCKETS_MS[i]
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




def _mean_batch_size(counts: dict[str, float]) -> float:
    """Average clips per engine invocation (0.0 when no batches)."""
    batches = counts["batches_total"]
    return counts["batched_clips_total"] / batches if batches else 0.0


class Counter(NamedTuple):
    """One :data:`COUNTERS` row: ``key`` names it in ``stats()``, ``add``
    and ``peak``.  While a counter with a ``fault`` phrase is non-zero,
    ``health()`` is DEGRADED with reason ``"<count> <fault>"`` (listed by
    ``rank``, then in table order).  ``digits`` marks a float counter and
    its ``stats()`` rounding; ``derive`` computes a value instead.
    """

    key: str
    fault: str = ""
    rank: int = 0
    digits: int | None = None
    derive: Callable[[dict[str, float]], float] | None = None


#: Every counter, in ``stats()`` order.  Sums are fed by
#: :meth:`ServiceMetrics.add`, the two high-water marks (commented
#: below) by :meth:`ServiceMetrics.peak`.
COUNTERS: tuple[Counter, ...] = (
    # classify requests and the micro-batcher
    Counter("requests_total"),
    Counter("errors_total", "request errors"),
    Counter("shed_total", "requests shed (queue full)"),
    Counter("timeouts_total", "deadline timeouts"),
    Counter("quarantined_total", "poison requests quarantined"),
    Counter("batches_total"),
    Counter("batch_splits_total"),
    Counter("batched_clips_total"),
    Counter("mean_batch_size", digits=2, derive=_mean_batch_size),
    Counter("max_batch_size"),  # high-water mark
    # scans; windows and retries count plane and chip scans alike
    Counter("scan_requests_total"),
    Counter("degraded_scans_total", "degraded scans", rank=1),
    Counter("windows_scanned_total"),
    Counter("windows_failed_total"),
    Counter("shard_retries_total"),
    # streaming chip scans, ECO re-scans and durable (journalled) scans
    Counter("chip_scan_requests_total"),
    Counter("chip_rescan_requests_total"),
    Counter("chip_tiles_scanned_total"),
    Counter("chip_tiles_failed_total"),
    Counter("chip_windows_rescored_total"),
    Counter("chip_windows_scored_total"),
    Counter("chip_peak_tile_bytes"),  # high-water mark
    Counter("chip_tiles_replayed_total"),
    Counter("chip_tile_retries_total"),
    Counter("chip_backoff_ms_total", digits=3),
    Counter("chip_windows_quarantined_total"),
    Counter("chip_resumed_scans_total"),
    # the worker-process fleet (zero in-process)
    Counter("workers_spawned_total"),
    Counter("workers_reaped_total", "workers reaped"),
    Counter("worker_timeouts_total", "worker heartbeat timeouts"),
    Counter("tasks_failed_over_total", "tasks failed over"),
    Counter("frame_retries_total", "frame integrity retries"),
    Counter("slots_quarantined_total"),
    Counter("rollouts_total"),
    Counter("rollout_failures_total", "rollout failures", rank=1),
)

#: The latency histograms :meth:`ServiceMetrics.observe` feeds, in
#: ``stats()`` order (after every counter).
HISTOGRAMS = ("request_latency", "batch_latency", "scan_latency",
              "chip_scan_latency")

_FAULTS = sorted((r for r in COUNTERS if r.fault), key=attrgetter("rank"))


class ServiceMetrics:
    """Thread-safe counters and histograms for one service instance.

    Counters are read with ``metrics[key]`` and updated with :meth:`add`
    and :meth:`peak`, histograms with :meth:`observe`; an unknown key
    raises ``KeyError``.  Besides its own counters, the object can host
    per-model engine op-timing tables (:meth:`register_op_table`): any
    object with ``snapshot() -> list[dict]`` and ``reset()`` — in
    practice :class:`repro.engine.executor.OpTimings` — whose rows then
    appear under ``per_op_ms`` in :meth:`stats`, giving the per-layer
    time breakdown of everything the engines executed.
    """

    def __init__(self):
        self._lock = Lock()
        self._op_tables: dict[str, object] = {}
        self.reset()

    def __getitem__(self, key: str) -> float:
        return self._counts[key]

    def add(self, **deltas: float) -> None:
        """Add each delta to its counter, all under one lock."""
        with self._lock:
            for key, delta in deltas.items():
                self._counts[key] += delta

    def peak(self, **values: float) -> None:
        """Raise each high-water mark to its value if that is higher."""
        with self._lock:
            for key, value in values.items():
                self._counts[key] = max(self._counts[key], value)

    def observe(self, **latencies_ms: float) -> None:
        """Record one latency sample in each named histogram."""
        with self._lock:
            for name, latency_ms in latencies_ms.items():
                self._histograms[name].observe(latency_ms)

    def fault_reasons(self) -> tuple[str, ...]:
        """One ``health()`` reason per non-zero fault counter."""
        with self._lock:
            counts = self._counts
            return tuple(f"{counts[row.key]} {row.fault}"
                         for row in _FAULTS if counts[row.key])

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
            self._counts = {row.key: 0.0 if row.digits else 0
                            for row in COUNTERS if row.derive is None}
            self._histograms = {name: LatencyHistogram()
                                for name in HISTOGRAMS}

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
        snapshot: dict[str, object] = {"per_op_ms": per_op}
        with self._lock:
            counts = self._counts
            for row in COUNTERS:
                value = row.derive(counts) if row.derive else counts[row.key]
                snapshot[row.key] = (
                    value if row.digits is None else round(value, row.digits)
                )
            for name, histogram in self._histograms.items():
                snapshot[name] = histogram.snapshot()
        return snapshot
