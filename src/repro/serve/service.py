"""The hotspot inference service: one request path, two executors.

:class:`HotspotService` is the synchronous front door of the serving
layer.  Two request shapes:

* **classify** — one clip (raster image or geometry) -> one
  :class:`~repro.serve.types.Prediction`.  Requests from concurrent
  callers coalesce in a per-model :class:`MicroBatcher` so the engine
  runs on real batches even though every caller sees a simple blocking
  call.
* **scan** — a full layout swept by a sliding window
  (:class:`~repro.serve.types.ScanRequest`) -> a
  :class:`~repro.serve.types.ScanReport` of hotspot windows.  The sweep
  is the chip scan's tile sweep (:class:`repro.chip.ChipScanJob`): the
  origin grid is cut into halo-correct tiles, each tile is rasterized
  once from a spatial index and scored through the engine's plane
  plan, one tile per :class:`WorkerPool` shard.  ``scan`` sizes the
  tiles from the engine's plan footprint and scores every window;
  :meth:`HotspotService.scan_chip` runs the same sweep under a
  caller-chosen budget with a per-request score memo.

The request path — model selection, request normalisation, deadlines,
prediction and report assembly, metrics, ``health()`` and ``stats()``
— is written once, in ``_ServiceBase``.  Its two subclasses differ
only in where the work runs: :class:`HotspotService` scores in this
process (batcher threads and a thread pool), and
:class:`~repro.serve.cluster.ClusterService` scores on a supervised
fleet of worker processes.

Both paths produce predictions bit-identical to a direct
``engine.predict_logits`` call on the same inputs — batching, tiling
and sharding are pure throughput plumbing, never a numerics change.

Fault tolerance (see ``docs/serving.md`` → "Failure modes &
guarantees"): requests carry **deadlines** (``timeout=`` per call, or
``default_timeout_s`` service-wide) and fail with typed
:class:`~repro.serve.errors.DeadlineExceeded` /
:class:`~repro.serve.errors.ServiceOverloaded` instead of hanging or
OOMing; a poison clip that crashes the engine is **quarantined** by
batch bisection so co-batched requests still succeed; a failing scan
tile is retried once and then reported as a **degraded**
:class:`~repro.serve.types.ScanReport` (``failed_ranges``) rather than
discarding the healthy tiles; and a seeded
:class:`~repro.serve.faults.FaultInjector` can be threaded through the
engine and raster call sites to rehearse all of the above
deterministically.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Iterable, Sequence

import numpy as np

from ..chip import (
    DEFAULT_TILE_BUDGET,
    ChipScanner,
    ChipScanResult,
    DurableChipScan,
    RetryPolicy,
    TileRecord,
    journal_header,
    origin_steps,
    snapshot_journal,
)
from ..features.downsample import downsample_binary, to_network_input
from ..litho.geometry import Clip, Rect
from ..nn.module import Module
from .batcher import MicroBatcher
from .cache import PlaneCache, RasterCache
from .errors import DeadlineExceeded, ServiceOverloaded
from .faults import FaultInjector
from .metrics import ServiceMetrics
from .pool import WorkerPool
from .registry import ModelEntry, ModelRegistry
from .types import (
    ChipScanReport,
    ChipScanRequest,
    ClipRequest,
    HealthReport,
    HealthState,
    Prediction,
    ScanHit,
    ScanReport,
    ScanRequest,
)

__all__ = [
    "HotspotService",
    "window_origins",
    "extract_window",
]


def window_origins(size: int, window: int, stride: int) -> list[tuple[int, int]]:
    """Sliding-window origins covering a ``size`` x ``size`` layout.

    Row-major ``(x, y)`` pairs over :func:`repro.chip.origin_steps` on
    both axes (the last row/column snaps to the layout edge), so index
    ``j * n + i`` is cell ``(i, j)`` of a tile sweep's origin grid.
    """
    steps = origin_steps(size, window, stride)
    return [(x, y) for y in steps for x in steps]


def scan_tile_budget(engine, image_size: int) -> int:
    """Raster bytes per tile of a :meth:`HotspotService.scan` sweep.

    Sized so one tile's plane plan (``engine.plan_bytes_per_pixel()``
    bytes per plane pixel) stays within ``DEFAULT_TILE_BUDGET``, and
    never below one window's float64 raster.
    """
    pixels = DEFAULT_TILE_BUDGET // engine.plan_bytes_per_pixel()
    return 8 * max(pixels, image_size * image_size)


def _unscored_ranges(scores: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Maximal ``[start, stop)`` runs of NaN (unscored) entries."""
    edges = np.diff(np.concatenate(
        ([0], np.isnan(scores).astype(np.int8), [0])
    ))
    starts = np.flatnonzero(edges == 1).tolist()
    stops = np.flatnonzero(edges == -1).tolist()
    return tuple(zip(starts, stops))


def extract_window(layout: Clip, x0: int, y0: int, window: int) -> Clip:
    """Cut the ``window``-sized sub-clip of ``layout`` at ``(x0, y0)``.

    Rectangles are clipped to the window and shifted to the window's
    local origin, matching how training clips are framed.
    """
    frame = Rect(x0, y0, x0 + window, y0 + window)
    out = Clip(window)
    for rect in layout.rects:
        part = rect.intersection(frame)
        if part is not None:
            out.add(part.shifted(-x0, -y0))
    return out


def _remaining(deadline: float | None) -> float | None:
    """Seconds left before ``deadline`` (monotonic), or None for none."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


def _cache_stats(cache: RasterCache | PlaneCache) -> dict[str, object]:
    return {
        "entries": len(cache),
        "capacity": cache.capacity,
        "hits": cache.hits,
        "misses": cache.misses,
        "hit_rate": round(cache.hit_rate, 4),
    }


class _ServiceBase:
    """The request path both services share, from admission to report.

    Owns model selection, request normalisation (through the cached,
    fault-injectable ``"raster"`` site), deadlines, prediction and
    :class:`ScanReport` assembly, metrics, ``health()`` and ``stats()``.
    A scan is one tile sweep (:class:`repro.chip.ChipScanJob`),
    compiled here once (:meth:`_scan_job`) with tiles sized by
    :meth:`_tile_budget`.
    Where the scoring runs is the subclass's business, through two
    hooks:

    * :meth:`_score_clips` scores prepared network inputs under a
      deadline and yields one logits row per input, in order;
    * :meth:`_score_tiles` scores every tile of a compiled job and
      returns the origin-grid scores (NaN where a tile failed) plus the
      count of retries.

    :class:`HotspotService` runs both in-process (micro-batcher and
    thread pool); :class:`~repro.serve.cluster.ClusterService` runs them
    on a supervised fleet of worker processes.
    """

    def __init__(
        self,
        registry: ModelRegistry | None,
        default_model: str | None,
        max_batch: int,
        queue_depth: int | None,
        overflow: str,
        default_timeout_s: float | None,
        faults: FaultInjector | None,
    ):
        if queue_depth is not None and queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if overflow not in ("block", "shed"):
            raise ValueError(
                f"overflow must be 'block' or 'shed', got {overflow!r}"
            )
        self.registry = registry if registry is not None else ModelRegistry()
        self.default_model = default_model
        self.max_batch = max_batch
        self.queue_depth = queue_depth
        self.overflow = overflow
        self.default_timeout_s = default_timeout_s
        self.faults = faults
        self.metrics = ServiceMetrics()
        # LRU window rasters (2048) shared by every model and request type
        self.cache = RasterCache()
        self._closed = False

    @classmethod
    def from_model(cls, model: Module, image_size: int, name: str = "default",
                   decision_bias: float = 0.0, **kwargs):
        """Convenience: wrap one live model in a ready-to-serve service.

        An unlowerable model raises; nothing is served.
        """
        service = cls(default_model=name, **kwargs)
        service.register(
            name, model, image_size=image_size, decision_bias=decision_bias,
        )
        return service

    def register(self, name: str, model: Module, image_size: int,
                 decision_bias: float = 0.0,
                 meta: dict | None = None) -> ModelEntry:
        """Compile and register a model (:meth:`ModelRegistry.register`)."""
        return self.registry.register(
            name, model, image_size=image_size,
            decision_bias=decision_bias, meta=meta,
        )

    # -- scoring hooks (where the work runs) -----------------------------

    def _score_clips(self, entry, inputs, timeout, deadline):
        """Yield one logits row per network input, in input order."""
        raise NotImplementedError

    def _score_tiles(self, entry, job, timeout):
        """Score every tile of ``job`` -> (origin-grid scores, NaN =
        unscored; retries)."""
        raise NotImplementedError

    def _tile_budget(self, request: ScanRequest, entry: ModelEntry) -> int:
        """Raster bytes per tile of one :meth:`scan`: the memory bound
        :func:`scan_tile_budget`, which depends on the model alone, so
        the in-process tile count never depends on the host."""
        return scan_tile_budget(entry.engine, entry.image_size)

    def _scan_job(self, request: ScanRequest, entry: ModelEntry):
        """Compile the tile sweep of one :meth:`scan` under
        :meth:`_tile_budget`.  Geometry that is not pixel-aligned raises
        ``ValueError``."""
        scanner = ChipScanner(entry.engine, entry.image_size,
                              batch_size=self.max_batch, faults=self.faults)
        return scanner.compile(
            request.layout, request.window, request.stride,
            self._tile_budget(request, entry),
        )

    # -- internals -------------------------------------------------------

    def _entry(self, model: str | None) -> ModelEntry:
        if self._closed:
            raise RuntimeError("service is closed")
        name = model or self.default_model
        if name is None:
            names = self.registry.names()
            if len(names) == 1:
                name = names[0]
            else:
                raise ValueError(
                    "no model selected: pass model= or set default_model "
                    f"(registered: {names or 'none'})"
                )
        entry = self.registry.get(name)
        # engines accumulate per-op wall times; exposing the table via
        # the metrics object makes stats() report a per-layer breakdown
        table = getattr(entry.engine, "op_times", None)
        if table is not None:
            self.metrics.register_op_table(entry.name, table)
        return entry

    def _raster(self, clip: Clip, pixels: int) -> np.ndarray:
        """Cached rasterization, threaded through the ``"raster"`` faults."""
        if self.faults is None:
            return self.cache.get(clip, pixels, "binary")
        return self.faults.wrap(
            "raster", lambda: self.cache.get(clip, pixels, "binary")
        )()

    def _prepare(self, request: ClipRequest, entry: ModelEntry) -> np.ndarray:
        """Request -> network input ``(1, 1, s, s)`` in the {-1,+1} domain."""
        if request.clip is not None:
            image = self._raster(request.clip, entry.image_size)
        else:
            image = np.asarray(request.image, dtype=np.float64)
            if image.shape[-1] != entry.image_size:
                image = downsample_binary(image, entry.image_size)
        return to_network_input(image[None])

    def _as_request(self, item: ClipRequest | Clip | np.ndarray) -> ClipRequest:
        if isinstance(item, ClipRequest):
            return item
        if isinstance(item, Clip):
            return ClipRequest(clip=item)
        return ClipRequest(image=np.asarray(item))

    def _deadline_exceeded(
        self, stage: str, timeout: float | None, message: str = ""
    ) -> DeadlineExceeded:
        """Count one timeout and build its typed error."""
        self.metrics.add(timeouts_total=1)
        return DeadlineExceeded(
            message or f"{stage} did not complete within {timeout}s",
            timeout_s=timeout, stage=stage,
        )

    # -- classify path ---------------------------------------------------

    def classify(
        self,
        request: ClipRequest | Clip | np.ndarray,
        model: str | None = None,
        timeout: float | None = None,
    ) -> Prediction:
        """Classify one clip (blocking; coalesces with concurrent calls)."""
        return self.classify_many([request], model=model, timeout=timeout)[0]

    def classify_many(
        self,
        requests: Iterable[ClipRequest | Clip | np.ndarray],
        model: str | None = None,
        timeout: float | None = None,
    ) -> list[Prediction]:
        """Classify several clips, submitting all before waiting on any.

        This is the batching-friendly entry point: the requests are
        admitted together and coalesce into ``max_batch``-sized engine
        invocations; predictions come back in request order.

        ``timeout`` (seconds, default ``default_timeout_s``) is one
        deadline over the whole call — admission and result waits
        combined.  Exceeding it abandons the outstanding requests and
        raises :class:`DeadlineExceeded` (carrying ``timeout_s`` and the
        ``stage`` that fired); a full admission queue under the
        ``"shed"`` policy raises :class:`ServiceOverloaded` without
        doing any work.
        """
        entry = self._entry(model)
        if timeout is None:
            timeout = self.default_timeout_s
        started = time.perf_counter()
        deadline = None if timeout is None else time.monotonic() + timeout
        prepared = [self._as_request(item) for item in requests]
        inputs = (self._prepare(request, entry) for request in prepared)
        rows = self._score_clips(entry, inputs, timeout, deadline)
        predictions = []
        for request, logits in zip(prepared, rows):
            score = float(logits[1] - logits[0])
            latency_ms = (time.perf_counter() - started) * 1e3
            self.metrics.add(requests_total=1)
            self.metrics.observe(request_latency=latency_ms)
            predictions.append(
                Prediction(
                    request_id=request.request_id,
                    label=int(score > entry.decision_bias),
                    score=score,
                    model=entry.name,
                    backend=entry.backend,
                    latency_ms=latency_ms,
                )
            )
        return predictions

    # -- scan path -------------------------------------------------------

    def scan(
        self,
        request: ScanRequest,
        model: str | None = None,
        timeout: float | None = None,
    ) -> ScanReport:
        """Sweep a full layout; returns the windows flagged as hotspots.

        Deterministic by construction: every window's score depends on
        its raster alone, and scores are placed by origin, so worker
        count and scheduling never change the report.

        Partial failure degrades instead of raising: work that keeps
        failing after its retry budget — or that misses the ``timeout``
        deadline (seconds, default ``default_timeout_s``) — leaves its
        windows unscored; they are dropped from the hit list and
        reported as the ``failed_ranges`` of a ``degraded`` report,
        while every other window's hit is returned unchanged
        (bit-identical to a fully healthy sweep).
        """
        entry = self._entry(model)
        if timeout is None:
            timeout = self.default_timeout_s
        started = time.perf_counter()
        origins = window_origins(
            request.layout.size, request.window, request.stride
        )
        job = self._scan_job(request, entry)
        scores, retried_shards = self._score_tiles(entry, job, timeout)
        scores = scores.ravel()
        hits = tuple(
            ScanHit(x, y, x + request.window, y + request.window, score)
            for (x, y), score in zip(origins, scores.tolist())
            if score > entry.decision_bias
        )
        failed_ranges = _unscored_ranges(scores)
        latency_ms = (time.perf_counter() - started) * 1e3
        failed_windows = sum(stop - start for start, stop in failed_ranges)
        self.metrics.add(
            scan_requests_total=1,
            degraded_scans_total=int(failed_windows > 0),
            windows_scanned_total=len(origins),
            windows_failed_total=failed_windows,
            shard_retries_total=retried_shards,
        )
        self.metrics.observe(scan_latency=latency_ms)
        return ScanReport(
            request_id=request.request_id,
            windows_scanned=len(origins),
            hits=hits,
            model=entry.name,
            backend=entry.backend,
            latency_ms=latency_ms,
            degraded=bool(failed_ranges),
            failed_ranges=failed_ranges,
            tiles_total=len(job.tiles),
        )

    # -- observability ---------------------------------------------------

    def _health_reasons(self) -> tuple[str, ...]:
        """Executor-specific DEGRADED reasons (none in-process)."""
        return ()

    def _extend_stats(self, snapshot: dict[str, object]) -> None:
        """Add executor-specific blocks to a ``stats()`` snapshot."""

    def health(self) -> HealthReport:
        """Probe the service's health state.

        ``DRAINING`` once ``close()`` has begun; ``DEGRADED`` when any
        fault counter (a row of :data:`repro.serve.metrics.COUNTERS`
        with a ``fault`` phrase) has incremented since the metrics were
        last reset — the reasons enumerate which — or when the executor
        reports a condition of its own (a fleet's down, draining or
        mixed replicas); ``READY`` otherwise.  Degradation from fault
        counters is sticky until ``metrics.reset()``: a service that
        shed load five minutes ago should keep telling its load
        balancer so until an operator (or a warm-up cycle) clears it.
        """
        if self._closed:
            return HealthReport(
                HealthState.DRAINING, ("service is closed/draining",)
            )
        reasons = self.metrics.fault_reasons() + self._health_reasons()
        if reasons:
            return HealthReport(HealthState.DEGRADED, reasons)
        return HealthReport(HealthState.READY)

    def stats(self) -> dict[str, object]:
        """Snapshot of service metrics, cache counters, and models."""
        snapshot = self.metrics.stats()
        snapshot["health"] = self.health().state.value
        snapshot["cache"] = _cache_stats(self.cache)
        snapshot["models"] = {
            name: {
                "backend": entry.backend,
                "pipeline": entry.pipeline,
                "image_size": entry.image_size,
            }
            for name in self.registry.names()
            for entry in (self.registry.get(name),)
        }
        self._extend_stats(snapshot)
        return snapshot

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class HotspotService(_ServiceBase):
    """Batched, multi-worker hotspot inference over registered models.

    Parameters
    ----------
    registry:
        Model store; a fresh empty one is created when omitted.
    default_model:
        Registry name used when a request does not pick a model.
    max_batch / max_wait_ms:
        Micro-batching knobs (see :class:`MicroBatcher`).  ``max_batch``
        is also the engine chunk size of every scan tile.
    plane_cache_capacity:
        LRU entries of tile planes kept for :meth:`scan_chip` requests
        that carry a session ``token`` (tiles are large, keep this
        small).  :meth:`scan` caches no planes.
    workers:
        Scan-mode worker threads (default: CPU count, capped at 8).
    queue_depth:
        Admission-queue bound per model batcher (backpressure); ``None``
        restores the legacy unbounded queue.
    overflow:
        Full-queue policy: ``"block"`` (wait, bounded by the request
        deadline) or ``"shed"`` (reject with ``ServiceOverloaded``).
    default_timeout_s:
        Service-wide request deadline in seconds, used when a call does
        not pass its own ``timeout=``.  ``None`` means no deadline.
    shard_retries:
        How often a failed scan tile is re-run before its windows are
        reported as failed in a degraded report (``failed_ranges`` of
        a ``ScanReport``, ``failed_tiles`` of a ``ChipScanReport``).
    faults:
        Optional :class:`~repro.serve.faults.FaultInjector` threaded
        through the engine (``"engine"``) and rasterization
        (``"raster"``) call sites — chaos testing only, never set in
        production.
    """

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        default_model: str | None = None,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        plane_cache_capacity: int = 8,
        workers: int | None = None,
        queue_depth: int | None = 1024,
        overflow: str = "block",
        default_timeout_s: float | None = None,
        shard_retries: int = 1,
        faults: FaultInjector | None = None,
    ):
        # validate eagerly: batchers are built lazily, and a bad knob
        # must fail service construction, not the first request
        if shard_retries < 0:
            raise ValueError(f"shard_retries must be >= 0, got {shard_retries}")
        super().__init__(
            registry, default_model, max_batch, queue_depth, overflow,
            default_timeout_s, faults,
        )
        self.plane_cache = PlaneCache(capacity=plane_cache_capacity)
        self.max_wait_ms = max_wait_ms
        self.shard_retries = shard_retries
        self.pool = WorkerPool(workers=workers)
        self._batchers: dict[str, tuple[object, MicroBatcher]] = {}

    def _batcher(self, entry: ModelEntry) -> MicroBatcher:
        engine_and_batcher = self._batchers.get(entry.name)
        if engine_and_batcher is None or engine_and_batcher[0] is not entry.engine:
            # lazily created; rebuilt when a name is re-registered
            if engine_and_batcher is not None:
                engine_and_batcher[1].close()
            infer_fn = entry.engine.forward
            if self.faults is not None:
                infer_fn = self.faults.wrap("engine", infer_fn)
            batcher = MicroBatcher(
                infer_fn,
                max_batch=self.max_batch,
                max_wait_ms=self.max_wait_ms,
                metrics=self.metrics,
                queue_depth=self.queue_depth,
                overflow=self.overflow,
            )
            self._batchers[entry.name] = (entry.engine, batcher)
        return self._batchers[entry.name][1]

    # -- classify path ---------------------------------------------------

    def _score_clips(self, entry, inputs, timeout, deadline):
        """Per-request :meth:`MicroBatcher.submit`, rows as they resolve.

        Every input is submitted before any result is awaited, so
        concurrent callers' requests coalesce into engine batches; each
        row is yielded the moment its future resolves, which keeps
        ``Prediction.latency_ms`` per request.
        """
        batcher = self._batcher(entry)
        futures = []
        try:
            for x in inputs:
                futures.append(batcher.submit(x, timeout=_remaining(deadline)))
        except (DeadlineExceeded, ServiceOverloaded):
            for future in futures:
                future.cancel()
            raise
        for future in futures:
            try:
                logits = future.result(timeout=_remaining(deadline))
            except FutureTimeoutError:
                for pending in futures:
                    pending.cancel()
                raise self._deadline_exceeded("classify", timeout) from None
            except Exception:
                self.metrics.add(errors_total=1)
                raise
            yield logits

    # -- scan path -------------------------------------------------------

    def _score_tiles(self, entry, job, timeout):
        scores, _failed_tiles, retried_shards = self._sweep(job, timeout)
        return scores, retried_shards

    def _extend_stats(self, snapshot: dict[str, object]) -> None:
        snapshot["plane_cache"] = _cache_stats(self.plane_cache)

    def _chip_scanner(self, entry: ModelEntry) -> ChipScanner:
        # the scanner threads every tile/origin scoring call through the
        # injector's "engine" site itself, so the forward scan, the ECO
        # re-scan and the durable path all share one chaos surface
        return ChipScanner(
            entry.engine, entry.image_size, batch_size=self.max_batch,
            plane_cache=self.plane_cache, faults=self.faults,
        )

    def _sweep(self, job, timeout):
        """Score every tile of ``job``, one tile per pool shard.

        The tile sweep behind both :meth:`scan` and :meth:`scan_chip`.
        A :meth:`scan` opens no score memo, so every window of every
        tile goes to the engine: on the distinct layouts a scan serves,
        a memo would only add keying cost.  A tile whose plan fails to
        build is a failed tile like any other.  Returns the row-major
        origin-grid scores (NaN where a tile failed after
        ``shard_retries`` re-runs or missed the deadline), the failed
        tile indices and the count of shard retries.
        """
        score_tile = job.score_tile

        def score_shard(tiles):
            return [score_tile(tile) for tile in tiles]

        outcomes = self.pool.map_shards_tolerant(
            score_shard, job.tiles, shards=len(job.tiles),
            timeout=timeout, retries=self.shard_retries,
        )
        scores = job.empty_scores()
        failed_tiles: list[int] = []
        retried_shards = 0
        for outcome in outcomes:
            retried_shards += outcome.retries
            if not outcome.ok:
                failed_tiles.extend(range(outcome.start, outcome.stop))
                continue
            for tile, block in zip(
                job.tiles[outcome.start:outcome.stop], outcome.results
            ):
                scores[tile.iy0:tile.iy1, tile.ix0:tile.ix1] = block
        return scores, tuple(failed_tiles), retried_shards

    def _chip_report(
        self,
        request_id: str,
        result: ChipScanResult,
        entry: ModelEntry,
        started: float,
        failed_tiles: tuple[int, ...] = (),
        retried_shards: int = 0,
    ) -> ChipScanReport:
        latency_ms = (time.perf_counter() - started) * 1e3
        failed_tiles = tuple(failed_tiles) or tuple(result.failed_tiles)
        stats = result.stats
        quarantined = tuple(stats.get("quarantined_windows", ()))
        replayed = int(stats.get("tiles_replayed", 0))
        tile_retries = int(stats.get("tile_retries", 0))
        resumed = bool(stats.get("resumed", False))
        degraded = bool(failed_tiles or quarantined)
        # rescored_windows is None on a full scan, an int on an ECO re-scan
        rescan = result.rescored_windows is not None
        self.metrics.add(
            chip_scan_requests_total=1,
            chip_rescan_requests_total=int(rescan),
            chip_windows_rescored_total=result.rescored_windows or 0,
            chip_windows_scored_total=int(stats.get("scored_windows", 0)),
            degraded_scans_total=int(degraded),
            chip_tiles_scanned_total=result.tiles - len(failed_tiles),
            chip_tiles_failed_total=len(failed_tiles),
            windows_scanned_total=result.windows,
            windows_failed_total=result.heatmap.n_unscored,
            shard_retries_total=retried_shards,
            chip_tiles_replayed_total=replayed,
            chip_tile_retries_total=tile_retries,
            chip_backoff_ms_total=float(stats.get("backoff_s", 0.0)) * 1e3,
            chip_windows_quarantined_total=len(quarantined),
            chip_resumed_scans_total=int(resumed),
        )
        self.metrics.peak(chip_peak_tile_bytes=result.peak_tile_bytes)
        self.metrics.observe(chip_scan_latency=latency_ms)
        return ChipScanReport(
            request_id=request_id,
            windows_scanned=result.windows,
            tiles_total=result.tiles,
            peak_tile_bytes=result.peak_tile_bytes,
            heatmap=result.heatmap,
            result=result,
            model=entry.name,
            backend=entry.backend,
            pipeline=entry.pipeline,
            latency_ms=latency_ms,
            degraded=degraded,
            failed_tiles=failed_tiles,
            rescored_windows=result.rescored_windows,
            quarantined_windows=quarantined,
            tiles_replayed=replayed,
            tile_retries=tile_retries,
            resumed=resumed,
        )

    def scan_chip(
        self,
        request: ChipScanRequest,
        model: str | None = None,
        timeout: float | None = None,
        handle_signals: bool = False,
    ) -> ChipScanReport:
        """Stream-scan a full chip; peak plane memory stays tile-bounded.

        The layout is never rasterized whole: the sweep is compiled to
        halo-correct tiles (:func:`repro.chip.plan_tiles`) under
        ``request.tile_budget`` bytes of raster per tile, and each tile
        is rasterized independently, one tile per worker-pool shard —
        the same sweep :meth:`scan` runs.  Unlike :meth:`scan`, all
        shards of the request share one score memo keyed by window
        raster, so each distinct window is sent to the engine once per
        request; the memo is dropped when the request returns
        (``stats()["chip_windows_scored_total"]`` counts the windows the
        engine ran).  Scores are bit-identical to :meth:`scan` and to a
        monolithic plane scan of the same layout (the chip parity gate
        holds that line), so the memo and the budget are purely cost
        choices.

        Partial failure degrades instead of raising, at tile
        granularity: a tile that keeps failing after
        ``shard_retries`` re-runs (or misses the deadline) stays ``NaN``
        in the heatmap and is listed in the report's ``failed_tiles``;
        healthy tiles are returned unchanged.

        A ``request.token`` enrolls the scan in the region-keyed plane
        cache: pass the returned report to :meth:`rescan_chip` with an
        edit list, and only the dirtied tile planes are rebuilt.

        A ``request.journal`` switches to the **durable** path (see
        :meth:`_scan_chip_durable`): journaled tile completion,
        kill-anywhere resume, retry waves with deterministic backoff,
        and poison-window quarantine by spatial bisection.  The durable
        path is governed by its retry budget rather than ``timeout``
        (stop it with SIGINT/SIGTERM under ``handle_signals=True`` —
        main thread only — and resume later).
        """
        entry = self._entry(model)
        if request.journal:
            return self._scan_chip_durable(request, entry, handle_signals)
        if timeout is None:
            timeout = self.default_timeout_s
        started = time.perf_counter()
        scanner = self._chip_scanner(entry)
        job = scanner.compile(
            request.layout, request.window, request.stride,
            request.tile_budget or DEFAULT_TILE_BUDGET,
            token=request.token or None,
        )
        with job.scoring() as memo:
            scores, failed_tiles, retried_shards = self._sweep(job, timeout)
        result = ChipScanResult(
            layout=request.layout, heatmap=job.heatmap(scores), job=job,
            tile_budget=job.grid.tile_budget, tiles=len(job.tiles),
            windows=job.grid.n_windows,
            peak_tile_bytes=job.peak_tile_bytes,
            wall_s=time.perf_counter() - started,
            token=request.token or None,
            stats={"scored_windows": memo.rows},
        )
        return self._chip_report(
            request.request_id, result, entry, started,
            failed_tiles=failed_tiles,
            retried_shards=retried_shards,
        )

    def _scan_chip_durable(
        self,
        request: ChipScanRequest,
        entry: ModelEntry,
        handle_signals: bool,
    ) -> ChipScanReport:
        """Serve one journaled, resumable, retrying chip scan.

        Tiles are scored wave by wave: each retry wave fans out
        one-tile-per-shard over the worker pool (retries are the
        durable layer's responsibility, so the pool runs each wave with
        ``retries=0``), failures are classified and re-attempted with
        backoff, and persistent failures are bisected down to
        quarantined windows.  Completed tiles hit the journal before
        the next wave starts, so a kill at any point resumes
        bit-identically via ``request.resume``.
        """
        started = time.perf_counter()
        scanner = self._chip_scanner(entry)
        policy = RetryPolicy() if request.max_retries is None else \
            RetryPolicy(max_retries=request.max_retries)

        def parallel(tiles, score_fn):
            outcomes = self.pool.map_shards_tolerant(
                lambda shard: [score_fn(tile) for tile in shard],
                tiles, shards=len(tiles), retries=0,
            )
            return [
                outcome.results[0] if outcome.ok else outcome.error
                for outcome in outcomes
            ]

        durable = DurableChipScan(
            scanner, request.layout, request.window, request.stride,
            request.tile_budget or DEFAULT_TILE_BUDGET,
            journal=request.journal, resume=request.resume, policy=policy,
            token=request.token or None, handle_signals=handle_signals,
        )
        result = durable.run(parallel=parallel)
        return self._chip_report(request.request_id, result, entry, started)

    def rescan_chip(
        self,
        report: ChipScanReport,
        edits: Sequence,
        model: str | None = None,
        request_id: str = "",
        max_retries: int | None = None,
        journal: str = "",
    ) -> ChipScanReport:
        """Incrementally re-scan after layout edits (the ECO loop).

        ``report`` must come from :meth:`scan_chip` (or a previous
        ``rescan_chip``) of this process — it carries the compiled
        scanner state.  Only the windows whose extent the edits dirtied
        are re-scored (:class:`repro.chip.DirtyRegionTracker`); the
        merged heatmap is bit-identical to a from-scratch
        :meth:`scan_chip` of the edited layout.  When the originating
        request carried a ``token``, clean tile planes are reused from
        the region-keyed plane cache and only dirtied regions are
        re-rasterized.

        Windows the previous report left NaN (failed tiles, quarantined
        windows) are re-scored too, so a re-scan *heals* a degraded
        heatmap wherever scoring now succeeds.  Conversely the re-scan
        itself is tolerant: a dirty tile that keeps failing after
        ``max_retries`` re-attempts (default: the service's
        ``shard_retries``) goes NaN and the merged report is degraded —
        never a stale pre-edit score.  Those re-attempts count into
        ``stats()["shard_retries_total"]``, like a sweep's shard
        retries.

        Passing ``journal=`` checkpoints the merged heatmap as an
        atomically-written scan journal of the *edited* layout: a later
        ``scan_chip(..., journal=..., resume=True)`` of that layout
        replays every fully-scored tile.

        The compiled state chains forward: re-scan against the
        *newest* report of a session (earlier reports' state reflects
        the edited layout after this call).
        """
        entry = self._entry(model)
        result = report.result
        if not isinstance(result, ChipScanResult):
            raise ValueError(
                "report carries no scanner state; pass a report returned "
                "by scan_chip()/rescan_chip() of this process"
            )
        started = time.perf_counter()
        scanner = self._chip_scanner(entry)
        retries = self.shard_retries if max_retries is None else max_retries
        merged = scanner.rescan(
            result, list(edits), retries=retries, tolerant=True,
        )
        if journal:
            self._snapshot_rescan(journal, merged)
        return self._chip_report(request_id, merged, entry, started,
                                 retried_shards=merged.stats["retries"])

    @staticmethod
    def _snapshot_rescan(path: str, merged: ChipScanResult) -> None:
        """Checkpoint a merged re-scan as an atomic resume journal.

        Only fully-scored tiles are recorded — a tile with any NaN
        window is left out so a resume re-scores it whole instead of
        trusting a partial block.
        """
        job = merged.job
        scores = merged.heatmap.scores
        records = []
        for index, tile in enumerate(job.tiles):
            block = scores[tile.iy0:tile.iy1, tile.ix0:tile.ix1]
            if np.isnan(block).any():
                continue
            records.append(TileRecord(index=index, scores=block))
        engine = job.scanner.engine
        snapshot_journal(
            path,
            journal_header(merged.layout, job.grid,
                           job.scanner.image_size,
                           backend=getattr(engine, "backend_name", ""),
                           pipeline=getattr(engine, "pipeline", "")),
            records,
        )

    # -- lifecycle -------------------------------------------------------

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop batcher threads and the scan worker pool.

        Every batcher and the pool are closed even when one of them is
        wedged: each gets at most ``timeout`` seconds, the pool shuts
        down with a bounded wait (a shard abandoned by a past
        ``DeadlineExceeded`` scan cannot block shutdown forever), and
        the first wedged-component error is re-raised at the end so the
        leak is visible without leaving the rest of the service running.
        """
        if self._closed:
            return
        self._closed = True  # health() now reports DRAINING
        wedged: Exception | None = None
        for _engine, batcher in self._batchers.values():
            try:
                batcher.close(timeout=timeout)
            except RuntimeError as exc:
                wedged = wedged or exc
        self._batchers.clear()
        try:
            self.pool.close(timeout=timeout)
        except RuntimeError as exc:
            wedged = wedged or exc
        if wedged is not None:
            raise wedged
