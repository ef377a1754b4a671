"""Tests for the supervised multi-process cluster: parity & plumbing.

Chaos scenarios (kills, hangs, torn frames, crash loops, rollouts under
load) live in ``test_cluster_chaos.py``; this module pins the sunny-day
contract: bit-identical serving vs. the in-process reference, frame
transport integrity, provenance aggregation, and health semantics.
"""

import queue as queue_mod
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import available_backends
from repro.litho.geometry import Clip, Rect
from repro.models.bnn_resnet import build_bnn_resnet
from repro.serve import (
    ClipRequest,
    ClusterService,
    FrameIntegrityError,
    HealthState,
    HotspotService,
    ReplicaState,
    ScanRequest,
    plane_scan_scale,
)
from repro.serve.cluster import FrameRef, put_frame, read_frame
from repro.serve.cluster.messages import ClassifyTask, WorkerConfig
from repro.serve.cluster.shm import FrameAttachment
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
            with pytest.raises(FrameIntegrityError):
                FrameAttachment(ref)
        finally:
            frame.close()

    def test_attachment_is_zero_copy_and_read_only(self):
        array = np.arange(12.0).reshape(3, 4)
        frame = put_frame(array)
        attachment = FrameAttachment(frame.ref)
        try:
            assert np.array_equal(attachment.array, array)
            with pytest.raises(ValueError):
                attachment.array[0, 0] = 99.0
        finally:
            attachment.close()
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


class TestProvenanceAndHealth:
    def test_stats_aggregate_per_replica_provenance(self, cluster):
        stats = cluster.stats()
        replicas = stats["cluster"]["replicas"]
        for replica in replicas.values():
            prov = replica["provenance"]["default"]
            assert prov["backend"] in available_backends()
            assert "fallback_reason" in prov
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
        # simulate one replica having fallen back to the float engine
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


class TestPlaneScanScale:
    """The alignment contract shared by the thread pool and the cluster."""

    def test_aligned_geometry_yields_scale(self):
        assert plane_scan_scale(256, 64, 32, pixels=16) == 4

    def test_misaligned_stride_disables_plane_path(self):
        assert plane_scan_scale(256, 64, 30, pixels=16) is None

    def test_window_not_multiple_of_pixels_disables(self):
        assert plane_scan_scale(256, 60, 32, pixels=16) is None

    def test_service_delegates_to_module_function(self, reference):
        req = ScanRequest(layout=make_layout(), window=64, stride=32)
        entry = reference.registry.get("default")
        assert reference._plane_scale(req, entry) == \
            plane_scan_scale(256, 64, 32, pixels=16)


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


class TestAttachmentCache:
    def test_eviction_drops_the_oldest_attachment(self):
        worker = make_worker()  # _ATTACH_CACHE == 2
        frames = [put_frame(np.full((2, 2), float(i))) for i in range(3)]
        try:
            for frame in frames:
                worker._attachment(frame.ref)
            # LRU, not MRU: the first-attached frame is the one evicted
            assert set(worker.attachments) == {
                frames[1].ref.name, frames[2].ref.name,
            }
        finally:
            for attachment in worker.attachments.values():
                attachment.close()
            for frame in frames:
                frame.close()


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
