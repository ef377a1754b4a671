"""Tests for the supervised multi-process cluster: parity & plumbing.

Chaos scenarios (kills, hangs, torn frames, crash loops, rollouts under
load) live in ``test_cluster_chaos.py``; this module pins the sunny-day
contract: bit-identical serving vs. the in-process reference, frame
transport integrity, provenance aggregation, and health semantics.
"""

import queue as queue_mod
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

import repro.serve.service as service_module
from repro.binary.inference import ProgramEngine
from repro.chip import origin_steps, plan_tiles
from repro.engine import available_backends
from repro.litho.geometry import Clip, Rect
from repro.models.bnn_resnet import build_bnn_resnet
from repro.serve import (
    ClipRequest,
    ClusterService,
    DeadlineExceeded,
    FaultInjector,
    FrameIntegrityError,
    HealthState,
    HotspotService,
    InjectedFault,
    ReplicaState,
    ScanRequest,
)
from repro.serve.cluster import FrameRef, put_frame, read_frame
from repro.serve.cluster.messages import ClassifyTask, WorkerConfig
from repro.serve.cluster.service import _spread_budget
from repro.serve.cluster.worker import _Served, _Worker

pytestmark = pytest.mark.timeout(240)


@pytest.fixture(scope="module")
def model():
    return build_bnn_resnet((4, 8), scaling="xnor", seed=0)


@pytest.fixture(scope="module")
def cluster(model):
    svc = ClusterService.from_model(
        model, image_size=16, processes=2,
        heartbeat_s=0.2, heartbeat_timeout_s=10.0,
    )
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def reference(model):
    svc = HotspotService.from_model(model, image_size=16)
    yield svc
    svc.close()


def make_images(n=8, size=16, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random((n, size, size)) < 0.3).astype(float)


def small_tiles(monkeypatch, model, side_px):
    """Shrink the router's scan tiles to ``side_px`` plane pixels a side."""
    per_pixel = ProgramEngine(model).plan_bytes_per_pixel()
    monkeypatch.setattr(service_module, "DEFAULT_TILE_BUDGET",
                        side_px * side_px * per_pixel)


def task_id_is(task_id, args):
    """Fault match on one task; a module-level partial pickles into
    every worker's copy of the injector."""
    return args[0].task_id == task_id


def make_layout(size=256, seed=3, n=40):
    rng = np.random.default_rng(seed)
    layout = Clip(size)
    for _ in range(n):
        x0 = int(rng.integers(0, size - 40))
        y0 = int(rng.integers(0, size - 40))
        layout.add(Rect(x0, y0, x0 + int(rng.integers(8, 40)),
                        y0 + int(rng.integers(8, 40))))
    return layout


class TestFrames:
    def test_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(0)
        array = rng.random((3, 17, 17))
        frame = put_frame(array)
        try:
            out = read_frame(frame.ref)
        finally:
            frame.close()
        assert out.dtype == array.dtype
        assert np.array_equal(out, array)

    def test_corrupt_frame_is_refused(self):
        frame = put_frame(np.ones((4, 4)))
        ref = FrameRef(name=frame.ref.name, shape=frame.ref.shape,
                       dtype=frame.ref.dtype, digest="0" * 64)
        try:
            with pytest.raises(FrameIntegrityError):
                read_frame(ref)
        finally:
            frame.close()

    def test_frame_close_is_idempotent(self):
        frame = put_frame(np.zeros(3))
        frame.close()
        frame.close()
        with pytest.raises(FileNotFoundError):
            read_frame(frame.ref)


class TestClusterParity:
    def test_classify_matches_in_process_reference(self, cluster, reference):
        images = make_images()
        got = cluster.classify_many([ClipRequest(image=i) for i in images])
        want = [reference.classify(ClipRequest(image=i)) for i in images]
        assert [p.score for p in got] == [p.score for p in want]
        assert [p.label for p in got] == [p.label for p in want]

    def test_scan_matches_in_process_reference(self, cluster, reference):
        req = ScanRequest(layout=make_layout(), window=64, stride=32)
        got = cluster.scan(req)
        want = reference.scan(req)
        assert not got.degraded
        assert [(h.x0, h.y0, h.score) for h in got.hits] == \
            [(h.x0, h.y0, h.score) for h in want.hits]
        assert got.windows_scanned == want.windows_scanned

    def test_replicas_ready_and_crash_isolated(self, cluster):
        states = cluster.replica_states()
        assert set(states) == {0, 1}
        assert all(s is ReplicaState.READY for s in states.values())
        replicas = cluster.stats()["cluster"]["replicas"]
        pids = {r["pid"] for r in replicas.values()}
        assert len(pids) == 2  # distinct worker processes


class TestTileScan:
    """The fleet runs the in-process tile sweep: one frame and one task
    per tile, scored bit-identically, failing tile by tile."""

    def test_multi_tile_scan_matches_in_process(self, cluster, reference,
                                                model, monkeypatch):
        small_tiles(monkeypatch, model, 32)  # a 64 px plane: 3 tiles a side
        req = ScanRequest(layout=make_layout(seed=5), window=64, stride=32)
        tiles = cluster._scan_job(req, cluster.registry.get("default")).tiles
        assert len(tiles) >= 4
        first = cluster._next_task_id
        got = cluster.scan(req)
        assert cluster._next_task_id - first == len(tiles)
        want = reference.scan(req)
        assert not got.degraded
        assert [(h.x0, h.y0, h.score) for h in got.hits] == \
            [(h.x0, h.y0, h.score) for h in want.hits]
        assert got.windows_scanned == want.windows_scanned

    def test_failed_tile_reports_exactly_its_row_runs(self, model, reference,
                                                      monkeypatch):
        small_tiles(monkeypatch, model, 32)
        req = ScanRequest(layout=make_layout(seed=6), window=64, stride=32)
        healthy = reference.scan(req)
        faults = FaultInjector(seed=0)
        with ClusterService.from_model(
            model, image_size=16, processes=2, faults=faults,
            heartbeat_s=0.2, heartbeat_timeout_s=10.0,
        ) as svc:
            job = svc._scan_job(req, svc.registry.get("default"))
            n = len(job.grid.steps)
            # an interior tile, so its row runs are not adjacent; a fresh
            # router numbers the scan's tasks in tile order from 0
            index = len(job.tiles) // 2
            target = job.tiles[index]
            assert 0 < target.ix0 and target.ix1 < n
            faults.add_error("worker", match=partial(task_id_is, index))
            report = svc.scan(req, timeout=120)
            stats = svc.stats()
        expected_ranges = tuple(
            (j * n + target.ix0, j * n + target.ix1)
            for j in range(target.iy0, target.iy1)
        )
        assert report.failed_ranges == expected_ranges
        assert report.windows_failed == target.n_origins
        assert stats["errors_total"] == 1  # the one task, past its retries
        steps = job.grid.steps
        failed = {(steps[i], steps[j]) for j in range(target.iy0, target.iy1)
                  for i in range(target.ix0, target.ix1)}
        assert report.hits == tuple(
            h for h in healthy.hits if (h.x0, h.y0) not in failed
        )
        assert len(report.hits) < len(healthy.hits)

    def test_scan_of_more_tiles_than_queue_depth_is_not_shed(
        self, model, reference, monkeypatch
    ):
        """A scan keeps at most ``min(2 * processes, queue_depth)``
        tasks in flight, so under ``overflow="shed"`` a scan of more
        tiles than ``queue_depth`` is admitted tile by tile."""
        small_tiles(monkeypatch, model, 32)
        req = ScanRequest(layout=make_layout(seed=7), window=64, stride=32)
        with ClusterService.from_model(
            model, image_size=16, processes=2, queue_depth=3,
            overflow="shed", heartbeat_s=0.2, heartbeat_timeout_s=10.0,
        ) as svc:
            tiles = svc._scan_job(req, svc.registry.get("default")).tiles
            assert len(tiles) > svc.queue_depth
            outstanding = []
            submit = svc._submit_locked

            def tracking(msg, holder, **kwargs):
                task = submit(msg, holder, **kwargs)
                outstanding.append(len(svc._tasks))
                return task

            svc._submit_locked = tracking
            got = svc.scan(req, timeout=120)
            assert svc.metrics["shed_total"] == 0
        assert len(outstanding) == len(tiles)
        assert max(outstanding) <= 3
        want = reference.scan(req)
        assert not got.degraded
        assert [(h.x0, h.y0, h.score) for h in got.hits] == \
            [(h.x0, h.y0, h.score) for h in want.hits]

    def test_unaligned_scan_is_refused(self, cluster):
        layout = make_layout(seed=6)
        scans = cluster.metrics["scan_requests_total"]
        for window, stride in ((60, 32), (64, 30)):
            with pytest.raises(ValueError, match="multiple"):
                cluster.scan(ScanRequest(layout, window=window,
                                         stride=stride))
        assert cluster.metrics["scan_requests_total"] == scans


class TestTileSpread:
    @pytest.mark.parametrize("processes", [1, 2, 3, 4, 8])
    def test_spread_tiles_are_near_equal(self, processes):
        """A scan of at least ``2 * processes`` windows is cut into at
        least that many tiles, none holding more than twice an equal
        share, so no replica is left only slivers."""
        want = 2 * processes
        for stride in (32, 48, 100):
            for size in range(64, 1200, 28):
                n = len(origin_steps(size, 64, stride))
                if n * n < want:
                    continue
                budget = _spread_budget(
                    1 << 40, ScanRequest(Clip(size), window=64,
                                         stride=stride), 16, want,
                )
                tiles = plan_tiles(size, 64, stride, 4, budget).tiles
                assert len(tiles) >= want
                assert max(t.n_origins for t in tiles) <= 2 * n * n / want


class TestProvenanceAndHealth:
    def test_stats_aggregate_per_replica_provenance(self, cluster):
        stats = cluster.stats()
        replicas = stats["cluster"]["replicas"]
        for replica in replicas.values():
            prov = replica["provenance"]["default"]
            assert prov["backend"] in available_backends()
            assert set(prov) == {"backend", "pipeline", "version"}
            assert prov["version"] == 1
        fleet = stats["cluster"]["fleet"]["default"]
        assert fleet["mixed_backend"] is False
        assert len(fleet["backends"]) == 1

    def test_health_ready_on_clean_fleet(self, model):
        with ClusterService.from_model(
            model, image_size=16, processes=2,
            heartbeat_s=0.2, heartbeat_timeout_s=10.0,
        ) as svc:
            report = svc.health()
            assert report.state is HealthState.READY
            assert report.reasons == ()

    def test_mixed_backend_fleet_is_degraded(self, cluster):
        # simulate a rollout caught midway from packed to float: one
        # replica already reports the new backend (a fallback no longer
        # exists, so mid-rollout is the only way a fleet gets mixed)
        handle = cluster._handles[0]
        original = {k: dict(v) for k, v in handle.provenance.items()}
        try:
            handle.provenance["default"] = dict(
                handle.provenance["default"], backend="float"
            )
            report = cluster.health()
            assert report.state is HealthState.DEGRADED
            assert any("mixed" in r and "backend" in r
                       for r in report.reasons)
        finally:
            handle.provenance = original
        assert cluster.health().state is HealthState.READY

    def test_closed_cluster_reports_draining(self, model):
        svc = ClusterService.from_model(model, image_size=16, processes=2)
        svc.close()
        assert svc.health().state is HealthState.DRAINING
        with pytest.raises(RuntimeError):
            svc.classify(ClipRequest(image=make_images(1)[0]))


class TestDeadlines:
    def test_classify_deadline_is_typed_like_in_process(self, model):
        """No worker of a fresh fleet can be READY within a microsecond,
        so the deadline fires deterministically — and the error carries
        the same ``timeout_s``/``stage`` as the in-process service's."""
        with ClusterService.from_model(
            model, image_size=16, processes=2
        ) as svc:
            with pytest.raises(DeadlineExceeded) as excinfo:
                svc.classify(make_layout(size=128, n=5), timeout=1e-6)
            assert excinfo.value.timeout_s == 1e-6
            assert excinfo.value.stage == "classify"
            assert svc.metrics["timeouts_total"] == 1


class TestSharedRequestPath:
    """The fleet prepares requests and reports health through the same
    code as the in-process service (the two copies had drifted)."""

    def test_raster_fault_site_fires_router_side(self, model):
        faults = FaultInjector(seed=0)
        faults.add_error("raster")
        with ClusterService.from_model(
            model, image_size=16, processes=2, faults=faults
        ) as svc:
            with pytest.raises(InjectedFault):
                svc.classify(make_layout(size=128, n=5))
            # the request failed while being prepared: nothing was
            # admitted, so the fleet was never even started
            assert svc.stats()["cluster"]["started"] is False

    def test_quarantine_counter_degrades_health(self, model):
        with ClusterService.from_model(
            model, image_size=16, processes=2
        ) as svc:
            svc.metrics.add(quarantined_total=1)
            report = svc.health()
            assert report.state is HealthState.DEGRADED
            assert "1 poison requests quarantined" in report.reasons


def make_worker():
    """An in-process _Worker with plain queues (no process, no model)."""
    config = WorkerConfig(slot=0, generation=1, models=())
    return _Worker(config, queue_mod.Queue(), queue_mod.Queue())


def worker_with_engine(engine, version=1):
    worker = make_worker()
    worker.models["default"] = _Served(
        spec=SimpleNamespace(version=version), engine=engine, provenance={}
    )
    return worker


class TestWorkerTaskGuards:
    """The worker refuses, typed, everything it must not score."""

    def test_version_mismatch_is_refused_typed(self):
        scored = []
        engine = SimpleNamespace(
            predict_logits=lambda batch, **kw: scored.append(batch)
        )
        worker = worker_with_engine(engine, version=1)
        worker._handle_task(ClassifyTask(
            task_id=7, model="default", version=2, frame=None,
        ))
        msg = worker.results.get_nowait()
        assert msg.version_mismatch
        assert msg.logits is None
        assert "v1" in msg.error and "v2" in msg.error
        assert not scored  # the wrong weights never scored anything

    def test_missing_model_is_a_typed_error(self):
        worker = make_worker()
        worker._handle_task(ClassifyTask(
            task_id=1, model="nope", version=1, frame=None,
        ))
        msg = worker.results.get_nowait()
        assert "has no model" in msg.error
        assert not msg.version_mismatch

    def test_scoring_keyerror_is_not_misreported_as_missing_model(self):
        def predict_logits(batch, **kw):
            raise KeyError("bn_stats")

        worker = worker_with_engine(
            SimpleNamespace(predict_logits=predict_logits)
        )
        frame = put_frame(np.zeros((1, 1, 16, 16)))
        try:
            worker._handle_task(ClassifyTask(
                task_id=2, model="default", version=1, frame=frame.ref,
            ))
        finally:
            frame.close()
        msg = worker.results.get_nowait()
        assert "KeyError" in msg.error
        assert "has no model" not in msg.error


class TestVersionedRouting:
    def test_task_admitted_under_rolled_version_fails_loudly(self, cluster):
        """A task stamped with a version no replica serves (and none
        ever will) must fail with a clear error, never be silently
        scored by different weights or wait forever."""
        from repro.serve.cluster.service import _FrameHolder

        holder = _FrameHolder(np.zeros((1, 1, 16, 16)), None)
        msg = ClassifyTask(
            task_id=-1, model="default", version=99, frame=holder.ref,
        )
        with cluster._cond:
            task = cluster._submit_locked(msg, holder)
        assert task.event.wait(timeout=60)
        assert task.error is not None
        assert "v99" in str(task.error)
