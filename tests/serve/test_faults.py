"""Chaos suite: the service under injected faults.

The acceptance bar for the fault-tolerance layer: with injected engine
exceptions, latency spikes, and corrupt checkpoints, the service never
hangs past its deadline, healthy co-batched/co-sharded requests still
return bit-identical predictions, and degraded scan reports enumerate
exactly the failed window ranges.  Every fault here is driven by the
seeded :class:`FaultInjector`, so failures reproduce.
"""

import time

import numpy as np
import pytest

import repro.serve.service as service_module
from repro.binary.inference import ProgramEngine
from repro.chip import plan_tiles
from repro.litho.geometry import Clip, Rect
from repro.models.bnn_resnet import build_bnn_resnet
from repro.nn.serialization import CheckpointError, load_model, save_model
from repro.serve import (
    DeadlineExceeded,
    FaultInjector,
    HealthState,
    HotspotService,
    InjectedFault,
    ModelRegistry,
    ScanRequest,
    window_origins,
)


@pytest.fixture(scope="module")
def model():
    return build_bnn_resnet((4, 8), scaling="xnor", seed=0)


def make_images(n=8, size=16, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random((n, size, size)) < 0.3).astype(float)


def small_tiles(monkeypatch, model, side_px):
    """Shrink ``scan``'s tiles to ``side_px`` plane pixels a side."""
    per_pixel = ProgramEngine(model).plan_bytes_per_pixel()
    monkeypatch.setattr(service_module, "DEFAULT_TILE_BUDGET",
                        side_px * side_px * per_pixel)


def make_layout(size=2048, seed=1, n=30):
    rng = np.random.default_rng(seed)
    layout = Clip(size)
    for _ in range(n):
        x0 = int(rng.integers(0, size - 200))
        y0 = int(rng.integers(0, size - 200))
        layout.add(Rect(x0, y0, x0 + int(rng.integers(60, 180)),
                        y0 + int(rng.integers(60, 180))))
    return layout


class TestFaultInjector:
    def test_on_calls_is_deterministic(self):
        faults = FaultInjector(seed=0)
        faults.add_error("site", on_calls=[1, 3])
        fn = faults.wrap("site", lambda: "ok")
        results = []
        for _ in range(5):
            try:
                results.append(fn())
            except InjectedFault:
                results.append("boom")
        assert results == ["ok", "boom", "ok", "boom", "ok"]
        assert faults.calls("site") == 5

    def test_times_budget_exhausts(self):
        faults = FaultInjector(seed=0)
        faults.add_error("site", times=2)
        fn = faults.wrap("site", lambda: "ok")
        outcomes = []
        for _ in range(4):
            try:
                outcomes.append(fn())
            except InjectedFault:
                outcomes.append("boom")
        assert outcomes == ["boom", "boom", "ok", "ok"]

    def test_seeded_probability_reproduces(self):
        def run():
            faults = FaultInjector(seed=42)
            faults.add_error("s", probability=0.5)
            fn = faults.wrap("s", lambda: True)
            out = []
            for _ in range(20):
                try:
                    out.append(fn())
                except InjectedFault:
                    out.append(False)
            return out

        first, second = run(), run()
        assert first == second
        assert False in first and True in first

    def test_corruption_negates_array_output(self):
        faults = FaultInjector(seed=0)
        faults.add_corruption("site", on_calls=[1])
        fn = faults.wrap("site", lambda: np.arange(3.0))
        np.testing.assert_array_equal(fn(), [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(fn(), [-0.0, -1.0, -2.0])

    def test_latency_rule_sleeps(self):
        faults = FaultInjector(seed=0)
        faults.add_latency("site", latency_ms=50.0, times=1)
        fn = faults.wrap("site", lambda: None)
        started = time.perf_counter()
        fn()
        assert time.perf_counter() - started >= 0.045
        started = time.perf_counter()
        fn()  # budget spent: no sleep
        assert time.perf_counter() - started < 0.045

    def test_match_predicate_targets_arguments(self):
        """A ``match`` rule fires only on calls whose first positional
        argument satisfies the predicate — the spatially-targeted
        poison used by the durable chip scan's chaos tests."""
        faults = FaultInjector(seed=0)
        faults.add_error("site", match=lambda args: args[0] == "poison")
        fn = faults.wrap("site", lambda tag: tag)
        assert fn("healthy") == "healthy"
        with pytest.raises(InjectedFault):
            fn("poison")
        assert fn("healthy") == "healthy"
        with pytest.raises(InjectedFault):
            fn("poison")  # no times= budget: fires every matching call

    def test_match_rule_ignores_argless_fire(self):
        """Bare ``fire(site)`` probes carry no args, so a match rule
        must not trigger on them (matching nothing is never a fault)."""
        faults = FaultInjector(seed=0)
        faults.add_error("site", match=lambda args: True)
        faults.fire("site")  # must not raise
        with pytest.raises(InjectedFault):
            faults.wrap("site", lambda x: x)(1)

    def test_custom_exception_and_clear(self):
        faults = FaultInjector(seed=0)
        faults.add_error("site", error=KeyError("kaboom"))
        with pytest.raises(KeyError):
            faults.wrap("site", lambda: None)()
        faults.clear("site")
        faults.wrap("site", lambda: None)()  # rules gone


class TestClassifyUnderFaults:
    def test_transient_engine_error_recovers_bit_identically(self, model):
        """A one-off engine crash fails the batch, bisection re-runs it,
        and every request still gets the healthy-service prediction."""
        images = make_images(12, seed=3)
        with HotspotService.from_model(model, 16) as healthy:
            expected = [p.score for p in healthy.classify_many(list(images))]

        faults = FaultInjector(seed=0)
        faults.add_error("engine", on_calls=[0])  # first invocation dies
        with HotspotService.from_model(model, 16, max_wait_ms=20.0,
                                       faults=faults) as svc:
            predictions = svc.classify_many(list(images))
            stats = svc.stats()
        assert [p.score for p in predictions] == expected
        assert faults.calls("engine") >= 2  # the failure plus re-runs
        assert stats["batch_splits_total"] >= 1

    def test_latency_spike_hits_deadline_not_forever(self, model):
        faults = FaultInjector(seed=0)
        faults.add_latency("engine", latency_ms=2000.0)
        svc = HotspotService.from_model(model, 16, faults=faults)
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            svc.classify(make_images(1)[0], timeout=0.15)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0  # bounded by the deadline, not the spike
        assert svc.metrics["timeouts_total"] >= 1
        assert svc.health().state is HealthState.DEGRADED
        # the wedged engine call is still sleeping; a bounded close must
        # report the leak instead of silently returning
        batcher = svc._batchers["default"][1]
        with pytest.raises(RuntimeError, match="failed to stop"):
            batcher.close(timeout=0.2)
        time.sleep(2.1)  # let the abandoned call drain
        svc.close()

    def test_raster_fault_fails_only_its_request(self, model):
        images = make_images(4, seed=4)
        clip = Clip(256, [Rect(10, 10, 120, 200)])
        faults = FaultInjector(seed=0)
        faults.add_error("raster")
        with HotspotService.from_model(model, 16, faults=faults) as svc:
            with pytest.raises(InjectedFault):
                svc.classify(clip)  # geometry -> rasterized -> fault
            # image requests skip rasterization entirely
            predictions = svc.classify_many(list(images))
        assert len(predictions) == 4


class TestScanUnderFaults:
    def test_all_shards_failing_enumerates_every_range(self, model,
                                                        monkeypatch):
        """Every tile fails: the failed ranges cover each origin exactly
        once, adjacent tiles' row runs merged into one range."""
        small_tiles(monkeypatch, model, 32)
        layout = make_layout(seed=5)
        request = ScanRequest(layout, window=512, stride=128)
        origins = window_origins(2048, 512, 128)
        faults = FaultInjector(seed=0)
        faults.add_error("engine")
        with HotspotService.from_model(model, 16, workers=4, faults=faults,
                                       shard_retries=0) as svc:
            report = svc.scan(request)
        covered = [i for start, stop in report.failed_ranges
                   for i in range(start, stop)]
        assert covered == list(range(len(origins)))
        assert report.failed_ranges == ((0, len(origins)),)
        assert report.degraded
        assert report.windows_failed == len(origins)
        assert report.hits == ()

    def test_failed_tile_reports_exactly_its_row_runs(self, model,
                                                      monkeypatch):
        """One failing tile of a multi-tile sweep: ``failed_ranges`` are
        exactly its per-row origin runs, and every other hit is
        bit-identical to a healthy scan."""
        small_tiles(monkeypatch, model, 32)
        layout = make_layout(seed=6)
        request = ScanRequest(layout, window=512, stride=128)
        origins = window_origins(2048, 512, 128)
        budget = service_module.scan_tile_budget(ProgramEngine(model), 16)
        grid = plan_tiles(2048, 512, 128, 32, budget)
        n = len(grid.steps)
        # an interior tile, so its row runs are not adjacent to each other
        target = grid.tiles[len(grid.tiles) // 2]
        assert 0 < target.ix0 and target.ix1 < n
        with HotspotService.from_model(model, 16, workers=4) as healthy:
            reference = healthy.scan(request)

        faults = FaultInjector(seed=0)
        faults.add_error("engine", match=lambda args: args[0] == target)
        with HotspotService.from_model(model, 16, workers=4, faults=faults,
                                       shard_retries=0) as svc:
            report = svc.scan(request)
        expected_ranges = tuple(
            (j * n + target.ix0, j * n + target.ix1)
            for j in range(target.iy0, target.iy1)
        )
        assert report.failed_ranges == expected_ranges
        assert report.windows_failed == target.n_origins
        failed = {origins[i] for start, stop in expected_ranges
                  for i in range(start, stop)}
        assert report.hits == tuple(
            h for h in reference.hits if (h.x0, h.y0) not in failed
        )
        assert len(report.hits) < len(reference.hits)

    def test_partial_failure_keeps_healthy_shards_bit_identical(
        self, model, monkeypatch
    ):
        """Failed ranges account for exactly the missing windows; every
        surviving window's score matches the healthy sweep bit for bit."""
        small_tiles(monkeypatch, model, 32)
        layout = make_layout(seed=6)
        request = ScanRequest(layout, window=512, stride=128)
        origins = window_origins(2048, 512, 128)
        with HotspotService.from_model(model, 16, workers=4) as healthy:
            reference = healthy.scan(request)

        faults = FaultInjector(seed=0)
        faults.add_error("engine", times=2)
        with HotspotService.from_model(model, 16, workers=4, faults=faults,
                                       shard_retries=0) as svc:
            report = svc.scan(request)
            stats = svc.stats()
        assert report.degraded and report.failed_ranges
        # which shards died depends on scheduling; exactness does not:
        # the surviving hits must be the reference hits outside the
        # failed ranges, nothing more, nothing less, bit-identical
        index_of = {origin: i for i, origin in enumerate(origins)}

        def failed(hit):
            i = index_of[(hit.x0, hit.y0)]
            return any(start <= i < stop
                       for start, stop in report.failed_ranges)

        expected_hits = tuple(h for h in reference.hits if not failed(h))
        assert report.hits == expected_hits
        assert report.windows_failed == sum(
            stop - start for start, stop in report.failed_ranges
        )
        assert stats["degraded_scans_total"] == 1
        assert stats["health"] == "degraded"

    def test_shard_retry_heals_transient_fault(self, model):
        layout = make_layout(size=512, seed=7, n=10)
        request = ScanRequest(layout, window=128, stride=64)
        with HotspotService.from_model(model, 16, workers=2) as healthy:
            reference = healthy.scan(request)

        faults = FaultInjector(seed=0)
        faults.add_error("engine", times=1)
        with HotspotService.from_model(model, 16, workers=2, faults=faults,
                                       shard_retries=1) as svc:
            report = svc.scan(request)
        assert not report.degraded
        assert report.failed_ranges == ()
        assert report.hits == reference.hits  # bit-identical after retry
        assert svc.metrics["shard_retries_total"] >= 1

    def test_scan_deadline_bounds_wall_clock(self, model):
        layout = make_layout(size=512, seed=8, n=10)
        request = ScanRequest(layout, window=128, stride=128)
        faults = FaultInjector(seed=0)
        faults.add_latency("engine", latency_ms=1500.0)
        with HotspotService.from_model(model, 16, workers=4,
                                       faults=faults) as svc:
            started = time.perf_counter()
            report = svc.scan(request, timeout=0.2)
            elapsed = time.perf_counter() - started
        assert elapsed < 5.0  # deadline, not 1.5s x shard count
        assert report.degraded
        assert report.windows_failed == report.windows_scanned
        for start, stop in report.failed_ranges:
            assert stop > start

    def test_shutdown_bounded_after_timed_out_scan(self, model):
        """A ``DeadlineExceeded`` scan abandons its wedged shard threads
        by design (threads cannot be killed); ``close()`` must then
        still finish within its own timeout — raising on the leak — not
        wait on the abandoned work forever."""
        layout = make_layout(size=512, seed=8, n=10)
        request = ScanRequest(layout, window=128, stride=128)
        faults = FaultInjector(seed=0)
        faults.add_latency("engine", latency_ms=3000.0)
        svc = HotspotService.from_model(model, 16, workers=2, faults=faults)
        report = svc.scan(request, timeout=0.2)
        assert report.degraded
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="failed to stop"):
            svc.close(timeout=0.3)
        assert time.perf_counter() - started < 2.0
        # let the abandoned tile drain: once awake it still rasterizes
        # and scores, which must not land in a later test's counts
        svc.pool.close(timeout=None)

    def test_corrupted_engine_output_stays_contained(self, model):
        """Score corruption flips predictions but never breaks the sweep:
        the report is structurally sound and non-degraded."""
        layout = make_layout(size=512, seed=9, n=10)
        request = ScanRequest(layout, window=128, stride=64)
        faults = FaultInjector(seed=0)
        faults.add_corruption("engine")
        with HotspotService.from_model(model, 16, workers=2,
                                       faults=faults) as svc:
            report = svc.scan(request)
        assert not report.degraded
        assert report.windows_scanned == len(window_origins(512, 128, 64))


class TestCorruptCheckpoints:
    def test_bitrot_raises_typed_error(self, model, tmp_path):
        path = save_model(model, tmp_path / "ckpt", meta={"image_size": 16})
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        registry = ModelRegistry()
        with pytest.raises(CheckpointError, match="ckpt"):
            registry.load_checkpoint("m", path)
        assert len(registry) == 0  # nothing half-registered

    def test_truncation_raises_typed_error(self, model, tmp_path):
        path = save_model(model, tmp_path / "ckpt", meta={"image_size": 16})
        path.write_bytes(path.read_bytes()[:128])
        with pytest.raises(CheckpointError):
            ModelRegistry().load_checkpoint("m", path)

    def test_checksum_catches_valid_zip_with_tampered_weights(
        self, model, tmp_path
    ):
        """Re-zipped tampering passes every CRC; the content checksum
        still refuses it."""
        path = save_model(model, tmp_path / "ckpt", meta={"image_size": 16})
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        param = next(k for k in arrays if not k.startswith("__meta__."))
        tampered = dict(arrays)
        tampered[param] = arrays[param] + 1.0  # stale checksum kept
        np.savez(path, **tampered)
        fresh = build_bnn_resnet((4, 8), scaling="xnor", seed=1)
        with pytest.raises(CheckpointError, match="checksum"):
            load_model(fresh, path)

    def test_tampered_meta_threshold_refused(self, model, tmp_path):
        """The registry rebuilds architecture and decision threshold
        from the meta record, so meta is covered by its own checksum: a
        valid-zip flip of the decision threshold is refused, not served.
        """
        path = save_model(model, tmp_path / "ckpt",
                          meta={"image_size": 16, "decision_bias": 0.5})
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        tampered = dict(arrays)
        tampered["__meta__.decision_bias"] = np.asarray(-0.5)  # stale digest
        np.savez(path, **tampered)
        registry = ModelRegistry()
        with pytest.raises(CheckpointError, match="metadata checksum"):
            registry.load_checkpoint("m", path)
        assert len(registry) == 0  # nothing half-registered

    def test_service_keeps_serving_old_model_after_bad_rollout(
        self, model, tmp_path
    ):
        good = save_model(model, tmp_path / "good",
                          meta={"image_size": 16, "base_width": 4})
        registry = ModelRegistry()
        registry.load_checkpoint("prod", good)
        bad = tmp_path / "bad.npz"
        bad.write_bytes(good.read_bytes()[:200])
        with pytest.raises(CheckpointError):
            registry.load_checkpoint("prod", bad)  # rolling update fails
        with HotspotService(registry, default_model="prod") as svc:
            prediction = svc.classify(make_images(1)[0])
        assert prediction.model == "prod"  # previous entry still serves
