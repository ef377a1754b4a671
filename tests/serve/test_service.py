"""Tests for the HotspotService front door: classify, scan, stats."""

import threading

import numpy as np
import pytest

import repro.chip.scanner as scanner_module
import repro.serve.cache as cache_module
import repro.serve.service as service_module
from repro.binary import bitpack
from repro.binary.inference import PlaneScanPlan, ProgramEngine
from repro.chip import plan_tiles
from repro.features.downsample import to_network_input
from repro.litho.geometry import Clip, Rect
from repro.litho.raster import rasterize
from repro.models.bnn_resnet import build_bnn_resnet
from repro.serve import (
    ClipRequest,
    ClusterService,
    HealthState,
    HotspotService,
    ModelRegistry,
    ScanReport,
    ScanRequest,
    ServiceOverloaded,
    extract_window,
    window_origins,
)
from repro.serve.metrics import COUNTERS, HISTOGRAMS, ServiceMetrics


@pytest.fixture(scope="module")
def model():
    return build_bnn_resnet((4, 8), scaling="xnor", seed=0)


@pytest.fixture
def service(model):
    svc = HotspotService.from_model(model, image_size=16, max_wait_ms=1.0)
    yield svc
    svc.close()


def make_images(n=8, size=16, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random((n, size, size)) < 0.3).astype(float)


def make_layout(size=2048, seed=1, n=20):
    rng = np.random.default_rng(seed)
    layout = Clip(size)
    for _ in range(n):
        x0 = int(rng.integers(0, size - 200))
        y0 = int(rng.integers(0, size - 200))
        layout.add(Rect(x0, y0, x0 + int(rng.integers(60, 180)),
                        y0 + int(rng.integers(60, 180))))
    return layout


def per_window_hits(model, request):
    """Independent reference: each window cut out of the layout,
    rasterized on its own and scored by a freshly compiled engine."""
    origins = window_origins(
        request.layout.size, request.window, request.stride
    )
    images = np.stack([
        rasterize(extract_window(request.layout, x, y, request.window),
                  16, "binary")
        for x, y in origins
    ])
    logits = ProgramEngine(model).predict_logits(to_network_input(images))
    scores = (logits[:, 1] - logits[:, 0]).tolist()
    return [(x, y, score) for (x, y), score in zip(origins, scores)
            if score > 0]


def hit_key(report):
    return [(h.x0, h.y0, h.score) for h in report.hits]


def small_tiles(monkeypatch, model, side_px):
    """Shrink ``scan``'s tiles to ``side_px`` plane pixels a side."""
    per_pixel = ProgramEngine(model).plan_bytes_per_pixel()
    monkeypatch.setattr(service_module, "DEFAULT_TILE_BUDGET",
                        side_px * side_px * per_pixel)


class TestWindowGeometry:
    def test_origins_cover_layout_with_edge_snap(self):
        origins = window_origins(size=100, window=40, stride=30)
        xs = sorted({x for x, _ in origins})
        assert xs == [0, 30, 60]  # 60 = 100 - 40 snaps the edge
        assert len(origins) == 9

    def test_tail_window_not_duplicated_when_snap_coincides(self):
        origins = window_origins(size=100, window=40, stride=20)
        assert sorted({x for x, _ in origins}) == [0, 20, 40, 60]

    def test_window_equals_size_single_origin(self):
        assert window_origins(size=64, window=64, stride=16) == [(0, 0)]

    def test_stride_larger_than_window_still_covers_edges(self):
        origins = window_origins(size=100, window=20, stride=70)
        assert sorted({x for x, _ in origins}) == [0, 70, 80]

    def test_window_larger_than_layout_raises(self):
        with pytest.raises(ValueError):
            window_origins(size=100, window=128, stride=32)
        with pytest.raises(ValueError):
            window_origins(size=100, window=0, stride=32)
        with pytest.raises(ValueError):
            window_origins(size=100, window=50, stride=0)

    def test_extract_window_tail_clips_rects(self):
        layout = Clip(100, [Rect(55, 55, 100, 100)])
        tail = extract_window(layout, 60, 60, 40)
        assert [(r.x0, r.y0, r.x1, r.y1) for r in tail.rects] == [
            (0, 0, 40, 40)
        ]

    def test_origins_exact_tiling_no_duplicate(self):
        origins = window_origins(size=64, window=16, stride=16)
        assert len(origins) == 16
        assert len(set(origins)) == 16

    def test_extract_window_matches_local_geometry(self):
        layout = Clip(100, [Rect(10, 10, 30, 30), Rect(60, 60, 90, 90)])
        window = extract_window(layout, 50, 50, 50)
        assert [(r.x0, r.y0, r.x1, r.y1) for r in window.rects] == [
            (10, 10, 40, 40)
        ]
        empty = extract_window(layout, 30, 0, 20)
        assert len(empty) == 0


class TestClassify:
    def test_image_and_request_agree(self, service):
        image = make_images(1)[0]
        direct = service.classify(image)
        wrapped = service.classify(ClipRequest(image=image, request_id="r1"))
        assert wrapped.request_id == "r1"
        assert wrapped.score == direct.score
        assert direct.backend == "packed" and direct.model == "default"

    def test_matches_engine_exactly(self, service, model):
        images = make_images(6, seed=2)
        engine = ProgramEngine(model)
        logits = engine.predict_logits(to_network_input(images))
        expected = logits[:, 1] - logits[:, 0]
        predictions = service.classify_many(list(images))
        np.testing.assert_array_equal(
            np.array([p.score for p in predictions]), expected
        )
        for p, score in zip(predictions, expected):
            assert p.label == int(score > 0)

    def test_geometry_request_uses_cache(self, service):
        clip = make_layout(size=512, seed=3, n=5)
        first = service.classify(clip)
        second = service.classify(ClipRequest(clip=clip))
        assert second.score == first.score
        assert service.cache.hits == 1

    def test_downsamples_larger_rasters(self, service):
        image = make_images(1, size=32, seed=4)[0]
        prediction = service.classify(image)
        assert prediction.label in (0, 1)

    def test_decision_bias_shifts_labels(self, model):
        images = make_images(10, seed=5)
        with HotspotService.from_model(model, 16) as neutral:
            scores = [p.score for p in neutral.classify_many(list(images))]
        bias = float(np.median(scores))
        with HotspotService.from_model(model, 16,
                                       decision_bias=bias) as biased:
            predictions = biased.classify_many(list(images))
        for p, score in zip(predictions, scores):
            assert p.score == score
            assert p.label == int(score > bias)

    def test_model_selection_errors(self, model):
        registry = ModelRegistry()
        registry.register("a", model, image_size=16)
        registry.register("b", model, image_size=16)
        with HotspotService(registry) as service:  # no default set
            with pytest.raises(ValueError, match="no model selected"):
                service.classify(make_images(1)[0])
            assert service.classify(make_images(1)[0], model="a").model == "a"

    def test_bad_request_shape(self, service):
        with pytest.raises(ValueError):
            ClipRequest(image=np.ones((4, 8)))
        with pytest.raises(ValueError):
            ClipRequest()  # neither image nor clip

    def test_concurrent_classify_deterministic(self, service, model):
        """Same request set -> same predictions under thread contention."""
        images = make_images(32, seed=6)
        engine = ProgramEngine(model)
        logits = engine.predict_logits(to_network_input(images))
        expected = logits[:, 1] - logits[:, 0]
        results = [None] * len(images)

        def worker(indices):
            for i in indices:
                results[i] = service.classify(images[i]).score

        threads = [threading.Thread(target=worker,
                                    args=(range(k, len(images), 4),))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        np.testing.assert_array_equal(np.array(results), expected)


class TestBurstCoalescing:
    def test_burst_coalesces_and_matches_one_at_a_time(self, model):
        """A ``classify_many`` burst runs as a few large engine batches
        and scores every clip bit-identically to one-clip batches."""
        images = make_images(64, seed=12)
        with HotspotService.from_model(model, 16, max_batch=1,
                                       max_wait_ms=0.0) as single:
            alone = [single.classify(image) for image in images]
            assert single.stats()["mean_batch_size"] == 1.0
        # the wait bound only caps a partial batch: a burst of 64 fills
        # four batches of 16 long before it runs out
        with HotspotService.from_model(model, 16, max_batch=16,
                                       max_wait_ms=1000.0) as batched:
            burst = batched.classify_many(list(images))
            assert batched.stats()["mean_batch_size"] > 4
        assert [p.score for p in burst] == [p.score for p in alone]
        assert [p.label for p in burst] == [p.label for p in alone]


class TestScan:
    def test_report_shape_and_counts(self, service):
        layout = make_layout()
        report = service.scan(ScanRequest(layout, window=512, stride=256,
                                          request_id="scan-1"))
        origins = window_origins(2048, 512, 256)
        assert report.request_id == "scan-1"
        assert report.windows_scanned == len(origins)
        assert 0.0 <= report.hotspot_rate <= 1.0
        for hit in report.hits:
            assert hit.x1 - hit.x0 == 512 and hit.y1 - hit.y0 == 512

    def test_scan_matches_manual_classification(self, service, model):
        layout = make_layout(seed=8)
        request = ScanRequest(layout, window=512, stride=512)
        report = service.scan(request)
        assert hit_key(report) == per_window_hits(model, request)

    def test_worker_count_invariant(self, model):
        layout = make_layout(seed=9)
        request = ScanRequest(layout, window=512, stride=128)
        reports = []
        for workers in (1, 3, 7):
            with HotspotService.from_model(model, 16,
                                           workers=workers) as service:
                reports.append(service.scan(request))
        assert reports[0].hits == reports[1].hits == reports[2].hits
        assert (reports[0].windows_scanned == reports[1].windows_scanned
                == reports[2].windows_scanned)

    def test_repeated_cells_match_the_reference(self, model, monkeypatch):
        """Repeated windows are each scored, with no score memo: the
        engine sees every window of the sweep."""
        layout = Clip(8192)  # gratings stamped on a coarse grid
        for gx in range(0, 8192, 1024):
            for gy in range(0, 8192, 2048):
                for wire in range(4):
                    x = gx + 100 + wire * 220
                    layout.add(Rect(x, gy + 100, x + 90, gy + 1000))
        request = ScanRequest(layout, window=1024, stride=512)
        rows = []

        def counting(cls, name):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                rows.append(len(out))
                return out

            monkeypatch.setattr(cls, name, wrapper)

        counting(PlaneScanPlan, "logits")
        counting(ProgramEngine, "predict_logits")
        with HotspotService.from_model(model, 16, workers=4) as svc:
            report = svc.scan(request)
        assert report.windows_scanned == 225  # 15 x 15 origins
        assert sum(rows) == 225
        monkeypatch.undo()
        assert hit_key(report) == per_window_hits(model, request)

    def test_scan_validation(self):
        layout = make_layout()
        with pytest.raises(ValueError):
            ScanRequest(layout, window=4096, stride=128)  # window > layout
        with pytest.raises(ValueError):
            ScanRequest(layout, window=512, stride=0)


class TestPlaneScan:
    """The tile sweep scores through plane plans, and its reports are
    bit-identical to an independent per-window reference for any worker
    count and any tile cut."""

    @pytest.mark.parametrize("stride", [32, 64, 128])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_bit_identical_reports(self, model, stride, workers,
                                   monkeypatch):
        layout = make_layout(size=512, seed=5)
        request = ScanRequest(layout, window=128, stride=stride)
        small_tiles(monkeypatch, model, 32)  # a 64 px plane: 2-3 tiles a side
        with HotspotService.from_model(model, 16, workers=workers) as svc:
            report = svc.scan(request)
        assert hit_key(report) == per_window_hits(model, request)
        assert report.windows_scanned == len(window_origins(512, 128, stride))

    def test_rasterizes_the_layout_once(self, model, monkeypatch):
        """A scan rasterizes each tile once from the layout geometry:
        never the whole layout, never per window."""
        calls = {"extract_window": 0, "rasterize": 0, "rasterize_plane": 0,
                 "rasterize_region": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(service_module, "extract_window")
        counting(cache_module, "rasterize")
        counting(cache_module, "rasterize_plane")
        counting(scanner_module, "rasterize_region")
        small_tiles(monkeypatch, model, 32)
        request = ScanRequest(make_layout(size=512, seed=5), window=128,
                              stride=32)
        with HotspotService.from_model(model, 16, workers=4) as svc:
            svc.scan(request)
            svc.scan(request)
            budget = service_module.scan_tile_budget(
                svc.registry.get("default").engine, 16
            )
            assert svc.plane_cache.hits + svc.plane_cache.misses == 0
        tiles = len(plan_tiles(512, 128, 32, 8, budget).tiles)
        assert tiles > 1
        assert calls == {"extract_window": 0, "rasterize": 0,
                         "rasterize_plane": 0, "rasterize_region": 2 * tiles}

    def test_packed_columns_stay_within_the_tiling_budget(
        self, model, monkeypatch
    ):
        """A tile's whole-plane stem pass runs in row bands: no
        packed-column buffer exceeds ``bitpack.MAX_COLS``, though the
        stem conv of the whole tile plane would."""
        budget = bitpack.MAX_COLS
        widths = []
        original = bitpack._pack_activation_columns

        def tracking(*args, **kwargs):
            cols = original(*args, **kwargs)
            widths.append(cols.shape[1])
            return cols

        monkeypatch.setattr(bitpack, "_pack_activation_columns", tracking)
        size, window = 8320, 128  # 1040 px plane at 8 nm per pixel
        pixels = size // (window // 16)
        assert (pixels - 2) ** 2 > budget  # untiled 3x3 valid conv
        small_tiles(monkeypatch, model, pixels)  # one tile: the whole plane
        # half-window stride: overlapping windows make planing the stem
        # cheaper than running it per window
        request = ScanRequest(make_layout(size=size, seed=13, n=60),
                              window=window, stride=64)
        with HotspotService.from_model(model, 16) as svc:
            report = svc.scan(request)
            assert svc.stats()["windows_failed_total"] == 0
        assert report.windows_scanned == 129 * 129
        # the largest buffer is a band of the stem's whole-plane pass
        assert widths and budget // 2 < max(widths) <= budget

    def test_tiles_do_not_depend_on_the_worker_count(self, model):
        """In-process tiles are the memory bound alone: the pool size,
        which defaults to the host's CPU count, never re-cuts a scan."""
        request = ScanRequest(make_layout(size=256, seed=4), window=64,
                              stride=32)
        cuts = []
        for workers in (1, 2, 8):
            with HotspotService.from_model(model, 16,
                                           workers=workers) as svc:
                job = svc._scan_job(request, svc.registry.get("default"))
                cuts.append([tile.region for tile in job.tiles])
        assert cuts[0] == cuts[1] == cuts[2]
        assert len(cuts[0]) == 1  # 256 nm fits one tile's memory bound

    def test_misaligned_geometry_is_refused(self, model):
        # window 200 is not a whole number of 16-px cells; stride 100 is
        # not a whole number of the 8 nm pixels of a 128 nm window
        layout = make_layout(size=512, seed=6)
        with HotspotService.from_model(model, 16) as svc:
            for window, stride in ((200, 100), (128, 100)):
                request = ScanRequest(layout, window=window, stride=stride)
                with pytest.raises(ValueError, match="multiple"):
                    svc.scan(request)
            assert svc.metrics["scan_requests_total"] == 0
            assert len(svc.cache) == 0 and len(svc.plane_cache) == 0

    def test_plan_failure_degrades_the_report(self, model, monkeypatch):
        """A plan that fails to build fails its tile: the report is
        degraded, never silently re-scored window by window."""

        def broken(*args, **kwargs):
            raise MemoryError("plan does not fit")

        calls = []
        original = service_module.extract_window
        monkeypatch.setattr(service_module, "extract_window",
                            lambda *a: calls.append(a) or original(*a))
        monkeypatch.setattr(ProgramEngine, "plan_scan", broken)
        request = ScanRequest(make_layout(size=512, seed=5), window=128,
                              stride=32)
        with HotspotService.from_model(model, 16) as svc:
            report = svc.scan(request)
        assert report.degraded
        assert report.failed_ranges == ((0, report.windows_scanned),)
        assert report.hits == ()
        assert calls == []


class TestStatsAndLifecycle:
    def test_stats_snapshot_fields(self, service):
        service.classify_many(list(make_images(5, seed=10)))
        service.scan(ScanRequest(make_layout(), window=512, stride=512))
        stats = service.stats()
        assert stats["requests_total"] == 5
        assert stats["scan_requests_total"] == 1
        assert stats["windows_scanned_total"] == 16
        assert stats["batches_total"] >= 1
        assert stats["request_latency"]["count"] == 5
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert stats["models"]["default"]["backend"] == "packed"

    def test_close_idempotent_and_rejects_new_work(self, model):
        service = HotspotService.from_model(model, 16)
        service.classify(make_images(1)[0])
        service.close()
        service.close()
        with pytest.raises(RuntimeError):
            service.classify(make_images(1)[0])

    def test_float_backend_served_on_request(self, model):
        with HotspotService.from_model(model, 16,
                                       backend="float") as service:
            prediction = service.classify(make_images(1)[0])
        assert prediction.backend == "float"

    def test_stats_exposes_robustness_counters(self, service):
        service.classify(make_images(1)[0])
        stats = service.stats()
        for key in ("shed_total", "timeouts_total", "quarantined_total",
                    "batch_splits_total", "degraded_scans_total",
                    "windows_failed_total", "shard_retries_total"):
            assert stats[key] == 0
        assert stats["health"] == "ready"

    def test_invalid_robustness_knobs_rejected(self, model):
        with pytest.raises(ValueError):
            HotspotService.from_model(model, 16, overflow="drop")
        with pytest.raises(ValueError):
            HotspotService.from_model(model, 16, queue_depth=0)
        with pytest.raises(ValueError):
            HotspotService.from_model(model, 16, shard_retries=-1)

    def test_shed_policy_reaches_service_front_door(self, model):
        """queue_depth/overflow plumb through to every batcher: with a
        one-slot shed queue, a flood of submits must shed rather than
        block, and the shed counter must tick."""
        with HotspotService.from_model(model, 16, queue_depth=1,
                                       overflow="shed",
                                       max_wait_ms=50.0) as svc:
            batcher = svc._batcher(svc.registry.get("default"))
            shed = 0
            for image in make_images(32, seed=11):
                try:
                    batcher.submit(np.ascontiguousarray(image[None, None]))
                except ServiceOverloaded:
                    shed += 1
            assert svc.metrics["shed_total"] == shed


class TestHealth:
    def test_ready_then_degraded_then_draining(self, service):
        assert service.health().state is HealthState.READY
        assert service.health().ok
        service.metrics.add(shed_total=1)
        report = service.health()
        assert report.state is HealthState.DEGRADED
        assert report.ok  # degraded still serves
        assert any("shed" in reason for reason in report.reasons)
        service.metrics.reset()
        assert service.health().state is HealthState.READY
        service.close()
        final = service.health()
        assert final.state is HealthState.DRAINING
        assert not final.ok

    @pytest.mark.parametrize(
        "row", [row for row in COUNTERS if row.fault], ids=lambda row: row.key
    )
    def test_each_fault_counter_degrades_with_reason(self, service, row):
        service.metrics.add(**{row.key: 2})
        report = service.health()
        assert report.state is HealthState.DEGRADED
        assert report.reasons == (f"2 {row.fault}",)
        service.metrics.reset()
        assert service.health().state is HealthState.READY

    def test_every_fault_reason_in_order(self, service):
        """The exact reasons, in the order operators have always seen
        them, when every fault counter has ticked."""
        service.metrics.add(**{row.key: 1 for row in COUNTERS if row.fault})
        assert service.health().reasons == (
            "1 request errors",
            "1 requests shed (queue full)",
            "1 deadline timeouts",
            "1 poison requests quarantined",
            "1 workers reaped",
            "1 worker heartbeat timeouts",
            "1 tasks failed over",
            "1 frame integrity retries",
            "1 degraded scans",
            "1 rollout failures",
        )


#: The counter block of ``stats()``, in order, on both services.
COUNTER_KEYS = [
    "requests_total", "errors_total", "shed_total", "timeouts_total",
    "quarantined_total", "batches_total", "batch_splits_total",
    "batched_clips_total", "mean_batch_size", "max_batch_size",
    "scan_requests_total", "degraded_scans_total", "windows_scanned_total",
    "windows_failed_total", "shard_retries_total",
    "chip_scan_requests_total", "chip_rescan_requests_total",
    "chip_tiles_scanned_total", "chip_tiles_failed_total",
    "chip_windows_rescored_total", "chip_windows_scored_total",
    "chip_peak_tile_bytes", "chip_tiles_replayed_total",
    "chip_tile_retries_total", "chip_backoff_ms_total",
    "chip_windows_quarantined_total", "chip_resumed_scans_total",
    "workers_spawned_total", "workers_reaped_total", "worker_timeouts_total",
    "tasks_failed_over_total", "frame_retries_total",
    "slots_quarantined_total", "rollouts_total", "rollout_failures_total",
    "request_latency", "batch_latency", "scan_latency", "chip_scan_latency",
]


class TestCounterTable:
    def test_stats_keys_of_both_services(self, service, model):
        assert list(service.stats()) == [
            "per_op_ms", *COUNTER_KEYS, "health", "cache", "models",
            "plane_cache",
        ]
        # the fleet starts lazily: stats() spawns no worker
        with ClusterService.from_model(model, image_size=16,
                                       processes=2) as fleet:
            assert list(fleet.stats()) == [
                "per_op_ms", *COUNTER_KEYS, "health", "cache", "models",
                "cluster",
            ]

    def test_reset_zeroes_every_counter_and_histogram(self):
        metrics = ServiceMetrics()
        metrics.add(**{row.key: 3 for row in COUNTERS if not row.derive})
        metrics.observe(**{name: 4.0 for name in HISTOGRAMS})
        stats = metrics.stats()
        assert all(stats[row.key] for row in COUNTERS)
        assert all(stats[name]["count"] == 1 for name in HISTOGRAMS)
        metrics.reset()
        stats = metrics.stats()
        assert all(stats[row.key] == 0 for row in COUNTERS)
        assert all(stats[name] == {"count": 0, "mean_ms": 0.0,
                                   "p50_ms": 0.0, "p95_ms": 0.0,
                                   "p99_ms": 0.0, "max_ms": 0.0}
                   for name in HISTOGRAMS)

    def test_sums_peaks_and_rounding(self):
        metrics = ServiceMetrics()
        assert repr(metrics.stats()["chip_backoff_ms_total"]) == "0.0"
        for size in (5, 3):
            metrics.add(batches_total=1, batched_clips_total=size)
            metrics.peak(max_batch_size=size)
        metrics.add(chip_backoff_ms_total=1.23456)
        metrics.add(chip_backoff_ms_total=1.0)
        stats = metrics.stats()
        assert stats["mean_batch_size"] == 4.0
        assert stats["max_batch_size"] == 5
        assert stats["chip_backoff_ms_total"] == 2.235
        metrics.add(batches_total=1, batched_clips_total=0)
        assert metrics.stats()["mean_batch_size"] == 2.67
        with pytest.raises(KeyError):
            metrics.add(mean_batch_size=1)
        with pytest.raises(KeyError):
            metrics.add(no_such_total=1)


class TestScanReportContract:
    def _report(self, **overrides):
        fields = dict(request_id="r", model="m", windows_scanned=10,
                      hits=(), latency_ms=1.0)
        fields.update(overrides)
        return ScanReport(**fields)

    def test_degraded_flag_must_match_failed_ranges(self):
        with pytest.raises(ValueError):
            self._report(degraded=True, failed_ranges=())
        with pytest.raises(ValueError):
            self._report(degraded=False, failed_ranges=((0, 4),))

    def test_windows_failed_sums_ranges(self):
        report = self._report(degraded=True, failed_ranges=((0, 4), (8, 10)))
        assert report.windows_failed == 6

    def test_hotspot_rate_counts_only_scored_windows(self):
        report = self._report(hits=(1, 2), degraded=True,
                              failed_ranges=((0, 5),))
        assert report.hotspot_rate == 2 / 5  # 10 windows, 5 scored
        empty = self._report(windows_scanned=4, degraded=True,
                             failed_ranges=((0, 4),))
        assert empty.hotspot_rate == 0.0  # nothing scored: no divide


class TestBackendObservability:
    def test_per_op_ms_in_stats(self, service):
        service.classify_many(list(make_images(4, seed=20)))
        per_op = service.stats()["per_op_ms"]
        assert "default" in per_op
        rows = per_op["default"]
        assert rows and all(row["calls"] >= 1 for row in rows)
        assert any(".conv" in row["op"] or row["op"].endswith("conv")
                   for row in rows)
        assert all(row["total_ms"] >= 0.0 for row in rows)

    def test_per_op_tables_reset_with_metrics(self, service):
        service.classify(make_images(1, seed=21)[0])
        service.metrics.reset()
        rows = service.stats()["per_op_ms"]["default"]
        assert rows and all(row["calls"] == 0 for row in rows)

    def test_no_fallback_reason_on_packed_default(self, service):
        service.classify(make_images(1, seed=22)[0])
        record = service.stats()["models"]["default"]
        assert record["backend"] == "packed"
        assert "fallback_reason" not in record
        assert service.health().state is HealthState.READY

    def test_explicit_backend_threads_to_service(self, model):
        with HotspotService.from_model(model, 16,
                                       backend="float") as service:
            prediction = service.classify(make_images(1, seed=23)[0])
            assert prediction.backend == "float"
            assert service.health().state is HealthState.READY
            assert service.stats()["models"]["default"]["backend"] == "float"

    def test_unlowerable_model_is_refused_previous_keeps_serving(
        self, service
    ):
        from repro.engine.lower import LoweringError
        from repro.nn import Dense, GlobalAvgPool2D, Module, Sequential

        class Unsupported(Module):
            def forward(self, x, training=False):
                return np.tanh(x)

        rng = np.random.default_rng(0)
        unlowerable = Sequential(
            Unsupported(), GlobalAvgPool2D(), Dense(1, 2, rng=rng)
        )
        with pytest.raises(LoweringError, match="Unsupported"):
            HotspotService.from_model(unlowerable, 16)
        image = make_images(1, seed=24)[0]
        before = service.classify(image)
        with pytest.raises(LoweringError, match="Unsupported") as info:
            service.register("default", unlowerable, image_size=16)
        assert info.value.layer_type == "Unsupported"
        # nothing was replaced: the packed entry keeps serving unchanged
        after = service.classify(image)
        assert after.backend == "packed" and after.score == before.score
        assert service.health().state is HealthState.READY
