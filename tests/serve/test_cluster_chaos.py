"""Chaos tests for the cluster: crashes, hangs, torn frames, rollouts.

Every scenario asserts the same bottom line the paper-scale deployment
needs: process-level faults may cost latency, never correctness — the
served scores stay bit-identical to an unfaulted in-process reference,
and the typed fault counters prove the failure actually happened (a
chaos test that passes without its fault firing is testing nothing).
"""

import threading
import time

import numpy as np
import pytest

from repro.engine.lower import LoweringError
from repro.litho.geometry import Clip, Rect
from repro.models.bnn_resnet import build_bnn_resnet
from repro.nn import Dense, GlobalAvgPool2D, Module, Sequential
from repro.serve import (
    ClipRequest,
    ClusterService,
    FaultInjector,
    HealthState,
    HotspotService,
    ReplicaState,
    RolloutError,
    ScanRequest,
)
from repro.serve.cluster.fleet import WorkerHandle
from repro.serve.cluster.messages import ClassifyTask, ScanShardTask

pytestmark = [pytest.mark.slow, pytest.mark.timeout(300)]


@pytest.fixture(scope="module")
def model():
    return build_bnn_resnet((4, 8), scaling="xnor", seed=0)


class NotAModel:
    """Not a module tree at all."""


class Unsupported(Module):
    """A layer type the engine IR cannot represent."""

    def forward(self, x, training=False):
        return np.tanh(x)


def unsupported_model():
    return Sequential(Unsupported(), GlobalAvgPool2D(),
                      Dense(1, 2, rng=np.random.default_rng(0)))


@pytest.fixture(scope="module")
def scan_req():
    rng = np.random.default_rng(3)
    layout = Clip(256)
    for _ in range(40):
        x0 = int(rng.integers(0, 216))
        y0 = int(rng.integers(0, 216))
        layout.add(Rect(x0, y0, x0 + int(rng.integers(8, 40)),
                        y0 + int(rng.integers(8, 40))))
    return ScanRequest(layout=layout, window=64, stride=32)


@pytest.fixture(scope="module")
def reference_hits(model, scan_req):
    with HotspotService.from_model(model, image_size=16) as ref:
        return [(h.x0, h.y0, h.score) for h in ref.scan(scan_req).hits]


def make_cluster(model, faults=None, **overrides):
    knobs = dict(processes=2, heartbeat_s=0.2, heartbeat_timeout_s=5.0,
                 respawn_backoff_s=0.1, faults=faults)
    knobs.update(overrides)
    return ClusterService.from_model(model, image_size=16, **knobs)


def hit_key(report):
    return [(h.x0, h.y0, h.score) for h in report.hits]


def wait_all_ready(svc, timeout_s=60.0):
    """Block until every replica is READY (or ``timeout_s`` passes).

    The fleet spawns lazily and one READY replica is enough to serve,
    so a sibling can still be STARTING after the first request returns.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        states = svc.replica_states()
        if all(s is ReplicaState.READY for s in states.values()):
            return states
        time.sleep(0.05)
    return svc.replica_states()


class TestCrashFailover:
    def test_sigkill_mid_batch_fails_over_bit_identically(
        self, model, scan_req, reference_hits
    ):
        faults = FaultInjector(seed=0)
        faults.add_kill("worker:0", on_calls=[1])  # slot 0 dies in-flight
        with make_cluster(model, faults) as svc:
            # the scan makes 2 x processes tile tasks; the first two are
            # pinned to slot 0, so its second task, the kill's call,
            # exists by construction, whatever the dispatch timing
            pinned = []
            submit = svc._submit_locked

            def pin_first_two(msg, holder, pin_slot=None, **kwargs):
                if isinstance(msg, ScanShardTask) and len(pinned) < 2:
                    pinned.append(msg)
                    pin_slot = 0
                return submit(msg, holder, pin_slot=pin_slot, **kwargs)

            svc._submit_locked = pin_first_two
            tiles = svc._scan_job(scan_req, svc.registry.get("default")).tiles
            assert len(tiles) >= 2 * svc.processes
            report = svc.scan(scan_req, timeout=120)
            stats = svc.stats()
        assert len(pinned) == 2  # slot 0 was given two scan tasks
        assert stats["workers_reaped_total"] >= 1  # the kill fired
        assert not report.degraded
        assert hit_key(report) == reference_hits
        assert stats["tasks_failed_over_total"] >= 1

    def test_killed_slot_respawns_ready(self, model):
        faults = FaultInjector(seed=0)
        faults.add_kill("worker:0", on_calls=[0])
        with make_cluster(model, faults) as svc:
            # the classify task is pinned to slot 0, so the kill's call
            # exists by construction, whatever the dispatch timing
            submit = svc._submit_locked

            def pin_classify(msg, holder, pin_slot=None, **kwargs):
                if isinstance(msg, ClassifyTask):
                    pin_slot = 0
                return submit(msg, holder, pin_slot=pin_slot, **kwargs)

            svc._submit_locked = pin_classify
            image = np.zeros((16, 16))
            svc.classify(ClipRequest(image=image), timeout=120)
            assert svc.stats()["workers_reaped_total"] == 1  # the kill fired
            states = wait_all_ready(svc)
            assert all(s is ReplicaState.READY for s in states.values())
            assert svc.stats()["workers_spawned_total"] >= 3  # 2 + respawn


class TestHangDetection:
    def test_hung_worker_is_killed_and_work_fails_over(
        self, model, scan_req, reference_hits
    ):
        faults = FaultInjector(seed=0)
        faults.add_hang("worker", hang_s=60.0, times=1)
        with make_cluster(model, faults, heartbeat_timeout_s=1.0,
                          task_timeout_s=1.0) as svc:
            report = svc.scan(scan_req, timeout=120)
            stats = svc.stats()
        assert not report.degraded
        assert hit_key(report) == reference_hits
        assert stats["worker_timeouts_total"] >= 1
        assert stats["tasks_failed_over_total"] >= 1

    def test_busy_worker_is_not_mistaken_for_hung(
        self, model, scan_req, reference_hits
    ):
        # a legitimately slow task blocks the single-threaded worker's
        # ping loop for far longer than heartbeat_timeout_s; the
        # supervisor must treat in-flight work as proof of life and
        # never kill it (busy != hung)
        faults = FaultInjector(seed=0)
        faults.add_hang("worker", hang_s=2.0, times=1)
        with make_cluster(model, faults, heartbeat_s=0.1,
                          heartbeat_timeout_s=0.5) as svc:
            report = svc.scan(scan_req, timeout=120)
            stats = svc.stats()
        assert not report.degraded
        assert hit_key(report) == reference_hits
        assert stats["worker_timeouts_total"] == 0
        assert stats["workers_reaped_total"] == 0


class TestFrameIntegrity:
    def test_torn_frame_retried_never_scored(
        self, model, scan_req, reference_hits
    ):
        faults = FaultInjector(seed=0)
        faults.add_tear("frame", times=1)  # one torn write, then clean
        with make_cluster(model, faults) as svc:
            report = svc.scan(scan_req, timeout=120)
            stats = svc.stats()
        assert not report.degraded
        assert hit_key(report) == reference_hits  # torn bytes never scored
        assert stats["frame_retries_total"] >= 1


class TestQuarantine:
    def test_crash_loop_quarantines_slot_and_degrades_health(self, model):
        faults = FaultInjector(seed=0)
        faults.add_kill("worker:0")  # every task on slot 0 is fatal
        with make_cluster(
            model, faults, faults_in_respawn=True,
            respawn_backoff_s=0.05, quarantine_after=2,
        ) as svc:
            image = np.zeros((16, 16))
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                svc.classify(ClipRequest(image=image), timeout=120)
                if svc.stats()["slots_quarantined_total"] >= 1:
                    break
            states = svc.replica_states()
            assert states[0] is ReplicaState.QUARANTINED
            assert states[1] is ReplicaState.READY  # sibling still serves
            report = svc.health()
            assert report.state is HealthState.DEGRADED
            assert any("quarantined" in r for r in report.reasons)


class TestRollingRollout:
    def test_rollout_under_load_drops_nothing(self, model, monkeypatch):
        new_model = build_bnn_resnet((4, 8), scaling="xnor", seed=7)
        rng = np.random.default_rng(0)
        rasters = [(rng.random((16, 16)) > 0.5).astype(float)
                   for _ in range(8)]
        reqs = lambda: [ClipRequest(image=r) for r in rasters]  # noqa: E731
        with HotspotService.from_model(new_model, image_size=16) as ref:
            want = [ref.classify(r).score for r in reqs()]

        # every replica state the router enters during the rollout,
        # however briefly: sampling replica_states() between requests
        # can miss a short drain
        entered = []

        def recording_setattr(handle, name, value):
            if name == "state":
                entered.append(value)
            object.__setattr__(handle, name, value)

        with make_cluster(model, heartbeat_timeout_s=10.0) as svc:
            stop = threading.Event()
            errors = []

            def pound():
                while not stop.is_set():
                    try:
                        svc.classify_many(reqs(), timeout=120)
                    except BaseException as exc:
                        errors.append(exc)
                        return

            thread = threading.Thread(target=pound, daemon=True)
            thread.start()
            time.sleep(0.3)
            with monkeypatch.context() as patch:
                patch.setattr(WorkerHandle, "__setattr__", recording_setattr)
                svc.rollout("default", model=new_model)
            time.sleep(0.3)
            stop.set()
            thread.join(timeout=120)

            assert not errors  # zero dropped requests through the swap
            assert ReplicaState.DRAINING in entered
            got = [p.score for p in svc.classify_many(reqs(), timeout=120)]
            stats = svc.stats()

        assert got == want  # bit-identical to the new weights
        assert stats["rollouts_total"] == 1
        assert stats["rollout_failures_total"] == 0
        versions = stats["cluster"]["fleet"]["default"]["versions"]
        assert versions == ["2"]

    @pytest.mark.parametrize("bad_model", [NotAModel, unsupported_model],
                             ids=["NotAModel", "Unsupported"])
    def test_failed_canary_rolls_back(self, model, bad_model, monkeypatch):
        """A model that fails router-side compilation aborts the rollout
        in step 1 (register), before any replica is drained."""
        entered = []

        def recording_setattr(handle, name, value):
            if name == "state":
                entered.append(value)
            object.__setattr__(handle, name, value)

        with make_cluster(model) as svc:
            image = np.zeros((16, 16))
            before = svc.classify(ClipRequest(image=image), timeout=120)
            states = wait_all_ready(svc)
            assert all(s is ReplicaState.READY
                       for s in states.values()), states
            with monkeypatch.context() as patch:
                patch.setattr(WorkerHandle, "__setattr__", recording_setattr)
                with pytest.raises(LoweringError):
                    svc.rollout("default", model=bad_model())
            assert ReplicaState.DRAINING not in entered, entered
            assert svc.stats()["rollout_failures_total"] == 1
            # fleet still serves the old model, bit-identically
            after = svc.classify(ClipRequest(image=image), timeout=120)
            assert after.score == before.score
            states = svc.replica_states()
            assert all(s is ReplicaState.READY
                       for s in states.values()), states

    def test_canary_mismatch_after_load_rolls_back_failing_replica(
        self, model, monkeypatch
    ):
        """The hard rollback path: the swap *loads* fine, then the
        canary probe fails.  The failing replica itself must be rolled
        back to the old checkpoint before it is readmitted — an aborted
        rollout must never leave a replica serving parity-failing
        weights (nor a mixed-version fleet)."""
        import repro.serve.cluster.worker as worker_mod

        real_compile = worker_mod._compile

        def skewed_compile(spec):
            served = real_compile(spec)
            if spec.version < 2:
                return served
            engine = served.engine

            class SkewedEngine:
                """Scores v2 differently from the router's reference."""

                def __getattr__(self, attr):
                    return getattr(engine, attr)

                def predict_logits(self, batch, **kwargs):
                    return engine.predict_logits(batch, **kwargs) + 1.0

            return worker_mod._Served(
                spec=served.spec, engine=SkewedEngine(),
                provenance=served.provenance,
            )

        # patched before the fleet forks, so every worker inherits it;
        # only v2 engines are skewed — v1 (and the rollback reload)
        # stay bit-identical to the router's reference
        monkeypatch.setattr(worker_mod, "_compile", skewed_compile)

        new_model = build_bnn_resnet((4, 8), scaling="xnor", seed=7)
        with make_cluster(model) as svc:
            image = np.zeros((16, 16))
            before = svc.classify(ClipRequest(image=image), timeout=120)
            with pytest.raises(RolloutError):
                svc.rollout("default", model=new_model)
            stats = svc.stats()
            assert stats["rollout_failures_total"] == 1
            # every replica — including the one whose canary failed —
            # is READY again and back on the old checkpoint
            states = svc.replica_states()
            assert all(s is ReplicaState.READY for s in states.values())
            fleet = stats["cluster"]["fleet"]["default"]
            assert fleet["versions"] == ["1"]
            report = svc.health()
            assert not any("mixed versions" in r for r in report.reasons)
            after = svc.classify(ClipRequest(image=image), timeout=120)
            assert after.score == before.score

    def test_rollout_keeps_the_entry_backend(self, model):
        """New weights roll onto the backend the fleet already serves:
        a ``float`` fleet stays ``float`` in the registry and on every
        replica, never silently re-compiled as ``packed``."""
        new_model = build_bnn_resnet((4, 8), scaling="xnor", seed=7)
        with make_cluster(model, backend="float") as svc:
            svc.classify(ClipRequest(image=np.zeros((16, 16))), timeout=120)
            states = wait_all_ready(svc)
            assert all(s is ReplicaState.READY
                       for s in states.values()), states
            svc.rollout("default", model=new_model)
            entry = svc.registry.get("default")
            replicas = svc.stats()["cluster"]["replicas"]

        assert entry.backend == entry.engine.backend_name == "float"
        assert len(replicas) == 2
        for replica in replicas.values():
            provenance = replica["provenance"]["default"]
            assert provenance["backend"] == "float", replica
            assert provenance["version"] == 2, replica
