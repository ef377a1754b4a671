"""Supervised multi-process serving: router, worker fleet, failover.

:class:`ClusterService` is the second shard executor of the one
serving request path.  Model selection, request normalisation,
deadlines, prediction and report assembly, ``health()`` and
``stats()`` come from the base class it shares with
:class:`~repro.serve.service.HotspotService`; this module only decides
where the scoring runs — on a fleet of **crash-isolated worker
processes**.  A scan is the same tile sweep as in-process
(:class:`repro.chip.ChipScanJob`, compiled by the base); the two
services differ only in who scores a tile.  What still differs from
the in-process executor: the fleet admits tasks (one frame: a
``max_batch``-row batch or one scan tile), not single requests, so
``queue_depth`` counts tasks (default 256, vs 1024 requests
in-process); and chip scans run in-process only.  The fleet buys crash
isolation and rollout, not throughput: no benchmark workload measures
a scale-out gain, and none is claimed.  Division of labour:

* The **router** (this class, in the caller's process) writes the
  prepared inputs, and each scan tile's raster, into shared-memory
  frames (:mod:`.shm`, SHA-256 verified), one frame per task,
  load-balances tasks over READY replicas, and places results by task
  — so worker count and scheduling never change a report.
* Each **worker** (:mod:`.worker`) compiles its own engines from
  shipped weights and scores frames.  A crash takes down one process
  and its in-flight tasks, nothing else.
* The **supervisor thread** heartbeats every worker; a missed
  heartbeat past the timeout, a nonzero exit, or a kill signal gets
  the worker reaped, its in-flight tasks **failed over** to sibling
  replicas (bit-identical results — replicas compile identical
  engines), and the slot respawned under capped exponential backoff.
  A slot that crash-loops is **quarantined** so a poisoned replica
  cannot burn CPU forever while its siblings serve.

**Rolling rollout** (:meth:`rollout`) reuses the transactional
registry: the new checkpoint registers (and compiles) in the router
first — a corrupt file aborts before any replica is touched — then
replicas are swapped one at a time: drain (DRAINING visible in
:meth:`replica_states` / health reasons), load, **canary parity
probe** (one batch compared bit-for-bit against the router's reference
engine), readmit.  The fleet keeps serving throughout; a canary
mismatch rolls the replica and the registry back and raises
:class:`~repro.serve.errors.RolloutError`.

Failure-mode guarantees are tabulated in ``docs/serving.md``
("Scale-out, supervision & failover"); the seeded chaos gate
(``python -m repro.serve.cluster.parity``) holds the headline line:
random worker SIGKILLs mid-scan leave the report bit-identical to an
unfaulted run, and a rolling swap under sustained load drops zero
requests.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import pickle
import queue as queue_mod
import threading
import time
from collections import deque
from dataclasses import replace

import numpy as np

from ...chip import origin_steps
from ...features.downsample import to_network_input
from ..errors import (
    FrameIntegrityError,
    RolloutError,
    ServiceOverloaded,
    WorkerCrashError,
)
from ..faults import FaultInjector
from ..registry import ModelEntry, ModelRegistry
from ..service import _remaining, _ServiceBase
from ..types import ScanRequest
from .fleet import ReplicaState, WorkerHandle
from .messages import (
    ClassifyTask,
    LoadModelMsg,
    ModelSpec,
    PingMsg,
    ScanShardTask,
    ShutdownMsg,
    WorkerConfig,
)
from .shm import put_frame
from .worker import worker_main

__all__ = ["ClusterService"]

#: grace for a fresh worker to compile its engines and report ready
#: before the supervisor gives up on it
STARTUP_TIMEOUT_S = 60.0
#: per-replica budget of a rollout step: drain the in-flight tasks,
#: load the new weights and answer the canary probe (also bounds each
#: reload of a rollback)
DRAIN_TIMEOUT_S = 30.0
#: failover budget per task: worker losses (crashes) or reported
#: scoring errors a task survives by resubmission before it fails with
#: :class:`~repro.serve.errors.WorkerCrashError` (a poison task must not
#: crash-loop the fleet)
TASK_RETRIES = 2
#: rebuilds of a digest-rejected (torn) frame, each resubmitting the
#: task, before it fails with ``FrameIntegrityError``
FRAME_RETRIES = 2
#: cap of a slot's exponential respawn backoff
RESPAWN_BACKOFF_MAX_S = 5.0


def _spread_budget(budget: int, request: ScanRequest, image_size: int,
                   tiles: int) -> int:
    """Cap ``budget`` so a scan of at least ``tiles`` windows is cut
    into at least ``tiles`` near-equal tiles.

    Tiles are the product of per-axis origin runs, filled greedily up
    to the largest pixel span the budget allows, so a span of
    ``per_run`` origins cuts an axis of ``n`` origins into
    ``ceil(n / per_run)`` runs, all of ``per_run`` origins but the
    last.  ``per_run`` starts at ``ceil(n / runs)``, equal runs for the
    least ``runs`` with ``runs * runs >= tiles``, and drops only while
    the grid still has fewer than ``tiles`` tiles.  Geometry that is
    not pixel-aligned keeps ``budget``: compiling the sweep refuses it.
    """
    n = len(origin_steps(request.layout.size, request.window,
                         request.stride))
    if n * n < tiles or request.window % image_size:
        return budget
    per_run = -(-n // (math.isqrt(tiles - 1) + 1))
    while (-(-n // per_run)) ** 2 < tiles:
        per_run -= 1
    side = ((per_run - 1) * request.stride + request.window) // (
        request.window // image_size
    )
    return min(budget, 8 * side * side)


class _FrameHolder:
    """Router-side owner of one task's shared-memory frame.

    Holds the source array so a frame a worker rejected as torn can be
    re-created (``refresh``); the frame is unlinked when the task
    finishes (``release``).
    """

    def __init__(self, array: np.ndarray, faults: FaultInjector | None,
                 site: str = "frame"):
        self._array = array
        self._faults = faults
        self._site = site
        self._lock = threading.Lock()
        self._frame = put_frame(array, faults, site)

    @property
    def ref(self):
        with self._lock:
            if self._frame is None:
                raise RuntimeError("frame already released")
            return self._frame.ref

    def refresh(self):
        """Replace the frame with a fresh copy; None once released.

        Only the task that owns the holder reads the frame, and it is
        on no worker while its corrupt report is handled, so the torn
        segment can go at once.
        """
        with self._lock:
            if self._frame is None:
                return None
            self._frame.close()
            self._frame = put_frame(self._array, self._faults, self._site)
            return self._frame.ref

    def release(self) -> None:
        with self._lock:
            if self._frame is not None:
                self._frame.close()
                self._frame = None


class _Task:
    """Router-side record of one dispatched unit of work."""

    __slots__ = (
        "task_id", "msg", "holder", "pin_slot", "logits", "error",
        "event", "crashes", "errors", "frame_retries", "slot",
    )

    def __init__(self, task_id: int, msg, holder: _FrameHolder,
                 pin_slot: int | None = None):
        self.task_id = task_id
        self.msg = msg
        self.holder = holder
        self.pin_slot = pin_slot
        self.logits: np.ndarray | None = None
        self.error: BaseException | None = None
        self.event = threading.Event()
        self.crashes = 0  #: times a worker died holding this task
        self.errors = 0  #: times a worker reported a scoring error
        self.frame_retries = 0  #: times the frame failed its digest
        self.slot: int | None = None  #: current owner


class ClusterService(_ServiceBase):
    """Crash-isolated multi-process hotspot serving behind one router.

    Parameters mirror :class:`~repro.serve.service.HotspotService`
    where the concepts coincide; the cluster-specific knobs:

    processes:
        Fleet size (slots).  Two is the useful minimum — failover and
        rolling rollout both need a sibling to carry traffic.
    heartbeat_s / heartbeat_timeout_s:
        Supervisor ping period, and how long a silent *idle* worker
        lives before being declared hung and killed.  Workers are
        single-threaded and cannot answer pings while scoring, so
        heartbeat silence alone never condemns a worker that holds
        in-flight work — busy is not hung.
    task_timeout_s:
        The separate, larger deadline for a *busy* worker: how long a
        worker may hold in-flight work without producing any message
        (result or pong) before it is declared wedged (e.g. hung
        inside a native kernel mid-task) and killed.  ``None`` trusts
        in-flight workers indefinitely; keep it comfortably above the
        slowest legitimate task so a big scan tile is never killed
        mid-score.
    respawn_backoff_s:
        Exponential backoff between a slot's death and its respawn
        (doubles per consecutive crash, capped at
        :data:`RESPAWN_BACKOFF_MAX_S`).
    quarantine_after:
        Consecutive crashes (no completed task in between) after which
        a slot is quarantined instead of respawned.
    faults / faults_in_respawn:
        Chaos injector.  It is deep-copied into every worker of the
        *initial* fleet (sites ``"worker"`` and ``"worker:<slot>"``
        fire per task; ``"frame"`` fires router-side per frame write,
        ``"raster"`` per request rasterization, as in-process);
        respawned workers get a clean injector unless
        ``faults_in_respawn=True`` — otherwise a deterministic
        kill-on-first-task rule would quarantine every slot instead of
        proving failover.
    """

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        default_model: str | None = None,
        processes: int = 2,
        max_batch: int = 64,
        queue_depth: int | None = 256,
        overflow: str = "block",
        default_timeout_s: float | None = None,
        heartbeat_s: float = 0.5,
        heartbeat_timeout_s: float = 5.0,
        task_timeout_s: float | None = 300.0,
        respawn_backoff_s: float = 0.25,
        quarantine_after: int = 3,
        faults: FaultInjector | None = None,
        faults_in_respawn: bool = False,
    ):
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        super().__init__(
            registry, default_model, max_batch, queue_depth, overflow,
            default_timeout_s, faults,
        )
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError(
                f"task_timeout_s must be > 0 or None, got {task_timeout_s}"
            )
        if quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        self.processes = processes
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.task_timeout_s = task_timeout_s
        self.respawn_backoff_s = respawn_backoff_s
        self.quarantine_after = quarantine_after
        self.faults_in_respawn = faults_in_respawn
        # fork shares the parent's imported modules and model weights
        # copy-on-write, so workers start in well under a second; spawn
        # is the fallback where fork does not exist
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._ctx = mp.get_context("spawn")
        self._cond = threading.Condition()
        self._handles = [WorkerHandle(slot=i) for i in range(processes)]
        self._tasks: dict[int, _Task] = {}
        self._pending: deque[_Task] = deque()
        self._next_task_id = 0
        self._versions: dict[str, int] = {}
        self._load_results: dict[tuple, object] = {}
        self._started = False
        self._stop = threading.Event()
        self._supervisor: threading.Thread | None = None

    # -- model management ------------------------------------------------

    def register(self, name: str, model, image_size: int,
                 decision_bias: float = 0.0, meta: dict | None = None,
                 backend: str = "packed") -> ModelEntry:
        """Compile + register a model; live workers load it in place.

        Before the fleet starts this is pure registry bookkeeping —
        workers pick the model up at spawn.  On a running fleet the
        spec is broadcast to every live replica *without* draining;
        use :meth:`rollout` for the guarded one-replica-at-a-time swap.
        """
        entry = super().register(
            name, model, image_size=image_size,
            decision_bias=decision_bias, meta=meta, backend=backend,
        )
        with self._cond:
            self._versions.setdefault(name, 1)
            live = [h for h in self._handles if h.alive] if self._started \
                else []
            spec = self._spec(name) if live else None
        for handle in live:
            try:
                handle.task_queue.put(LoadModelMsg(spec))
            except Exception:  # a dying worker respawns with the spec
                pass
        return entry

    @staticmethod
    def _make_spec(entry: ModelEntry, version: int) -> ModelSpec:
        """The worker-bound spec of ``entry``, compiled as it was."""
        return ModelSpec(
            name=entry.name, model=entry.model, image_size=entry.image_size,
            decision_bias=entry.decision_bias, backend=entry.backend,
            version=version,
        )

    def _spec(self, name: str) -> ModelSpec:
        """Build the worker-bound spec of a registered model (locked)."""
        return self._make_spec(
            self.registry.get(name), self._versions.get(name, 1)
        )

    def _specs(self) -> tuple[ModelSpec, ...]:
        return tuple(self._spec(name) for name in self.registry.names())

    # -- fleet lifecycle -------------------------------------------------

    def start(self) -> None:
        """Spawn the fleet now (otherwise it starts on first request)."""
        with self._cond:
            self._ensure_fleet_locked()

    def _ensure_fleet_locked(self) -> None:
        if self._started or self._closed:
            return
        self._started = True
        # start the shared-memory resource tracker BEFORE forking, so
        # every worker inherits the router's tracker instead of
        # starting its own — a private per-worker tracker would unlink
        # still-shared frames when that worker dies (see .shm)
        try:
            from multiprocessing import resource_tracker
            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals vary
            pass
        for handle in self._handles:
            self._spawn_locked(handle)
        self._supervisor = threading.Thread(
            target=self._supervise, name="cluster-supervisor", daemon=True
        )
        self._supervisor.start()

    def _worker_faults(self, generation: int) -> FaultInjector | None:
        if self.faults is None:
            return None
        if generation > 1 and not self.faults_in_respawn:
            return None
        # a pickled deep copy: fresh lock, counters and rule budgets
        # independent of the router's and of every sibling's
        return pickle.loads(pickle.dumps(self.faults))

    def _spawn_locked(self, handle: WorkerHandle) -> None:
        handle.generation += 1
        generation = handle.generation
        handle.task_queue = self._ctx.Queue()
        handle.result_queue = self._ctx.Queue()
        handle.state = ReplicaState.STARTING
        handle.shutdown_requested = False
        handle.timed_out = False
        handle.inflight.clear()
        handle.provenance = {}
        now = time.monotonic()
        handle.spawned_at = now
        handle.last_seen = now
        handle.last_ping_at = now
        config = WorkerConfig(
            slot=handle.slot,
            generation=generation,
            models=self._specs(),
            faults=self._worker_faults(generation),
        )
        proc = self._ctx.Process(
            target=worker_main,
            args=(config, handle.task_queue, handle.result_queue),
            daemon=True,
            name=f"cluster-worker-{handle.slot}.{generation}",
        )
        proc.start()
        handle.proc = proc
        self.metrics.add(workers_spawned_total=1)
        collector = threading.Thread(
            target=self._collect,
            args=(handle, generation, handle.result_queue, proc),
            name=f"cluster-collector-{handle.slot}.{generation}",
            daemon=True,
        )
        collector.start()

    # -- collector (one thread per worker generation) --------------------

    def _collect(self, handle: WorkerHandle, generation: int,
                 result_queue, proc) -> None:
        while True:
            try:
                msg = result_queue.get(timeout=0.2)
            except queue_mod.Empty:
                if proc.exitcode is not None:
                    # the process is gone; drain what it flushed first
                    while True:
                        try:
                            msg = result_queue.get_nowait()
                        except Exception:
                            break
                        self._on_message(handle, generation, msg)
                    break
                continue
            except (EOFError, OSError):
                break
            except Exception:
                # a SIGKILL mid-write can leave a truncated pickle in
                # the pipe; the stream is unusable, reap and fail over
                break
            self._on_message(handle, generation, msg)
        self._reap(handle, generation)

    def _on_message(self, handle: WorkerHandle, generation: int, msg) -> None:
        with self._cond:
            if handle.generation != generation:
                return  # a past life of this slot
            handle.touch()
            kind = type(msg).__name__
            if kind == "ReadyMsg":
                handle.provenance = dict(msg.provenance)
                if handle.state is ReplicaState.STARTING:
                    handle.state = ReplicaState.READY
                self._dispatch_locked()
            elif kind == "PongMsg":
                handle.tasks_done = msg.tasks_done
            elif kind == "ModelLoadedMsg":
                if msg.error is None:
                    handle.provenance[msg.name] = dict(msg.provenance)
                    # the replica's served version changed: pending
                    # tasks stamped with it may be dispatchable now
                    self._dispatch_locked()
                self._load_results[
                    (handle.slot, generation, msg.name, msg.version)
                ] = msg
            elif kind == "TaskDoneMsg":
                self._on_task_done(handle, msg)
            self._cond.notify_all()

    def _on_task_done(self, handle: WorkerHandle, msg) -> None:
        handle.inflight.pop(msg.task_id, None)
        task = self._tasks.get(msg.task_id)
        if task is None:
            return  # abandoned (deadline) or completed by a sibling
        if msg.frame_corrupt:
            self.metrics.add(frame_retries_total=1)
            task.frame_retries += 1
            if task.frame_retries > FRAME_RETRIES:
                self._fail_locked(task, FrameIntegrityError(
                    f"frame for task {task.task_id} failed its digest "
                    f"check {task.frame_retries} times: {msg.error}",
                    frame=task.msg.frame.name,
                ))
                return
            ref = task.holder.refresh()
            if ref is None:
                self._fail_locked(task, FrameIntegrityError(
                    f"frame for task {task.task_id} was torn and its "
                    f"source is no longer available", frame=task.msg.frame.name,
                ))
                return
            task.msg = replace(task.msg, frame=ref)
            self._requeue_locked(task)
            return
        if msg.error is not None:
            task.errors += 1
            if task.errors > TASK_RETRIES:
                self._fail_locked(
                    task, RuntimeError(f"worker task failed: {msg.error}")
                )
            else:
                self._requeue_locked(task)
            return
        handle.crashes = 0  # completed work: this is not a crash loop
        task.logits = msg.logits
        self._finish_locked(task)

    def _finish_locked(self, task: _Task) -> None:
        self._tasks.pop(task.task_id, None)
        task.holder.release()
        task.event.set()

    def _fail_locked(self, task: _Task, error: BaseException) -> None:
        self.metrics.add(errors_total=1)
        task.error = error
        self._finish_locked(task)

    def _requeue_locked(self, task: _Task) -> None:
        task.slot = None
        self._pending.appendleft(task)
        self._dispatch_locked()

    # -- reap / failover / respawn ---------------------------------------

    def _reap(self, handle: WorkerHandle, generation: int) -> None:
        with self._cond:
            if handle.generation != generation:
                return
            if handle.proc is not None:
                handle.proc.join(timeout=0.5)
            expected = handle.shutdown_requested or self._closed
            lost = list(handle.inflight)
            handle.inflight.clear()
            for task_id in lost:
                task = self._tasks.get(task_id)
                if task is None:
                    continue
                task.crashes += 1
                if task.crashes > TASK_RETRIES:
                    self._fail_locked(task, WorkerCrashError(
                        f"task {task_id} lost to {task.crashes} worker "
                        f"crashes (failover budget {TASK_RETRIES}); "
                        f"refusing to keep crash-looping the fleet",
                        crashes=task.crashes,
                    ))
                else:
                    self.metrics.add(tasks_failed_over_total=1)
                    self._requeue_locked(task)
            if expected:
                handle.state = ReplicaState.DEAD
                self._cond.notify_all()
                return
            self.metrics.add(workers_reaped_total=1,
                             worker_timeouts_total=int(handle.timed_out))
            handle.timed_out = False
            handle.crashes += 1
            if handle.crashes >= self.quarantine_after:
                handle.state = ReplicaState.QUARANTINED
                self.metrics.add(slots_quarantined_total=1)
                self._fail_pending_if_fleet_lost_locked()
            else:
                handle.state = ReplicaState.DEAD
                backoff = min(
                    RESPAWN_BACKOFF_MAX_S,
                    self.respawn_backoff_s * (2 ** (handle.crashes - 1)),
                )
                handle.next_spawn_at = time.monotonic() + backoff
            self._cond.notify_all()

    def _fail_pending_if_fleet_lost_locked(self) -> None:
        """The whole fleet quarantined: pending work can never run."""
        if any(
            h.state is not ReplicaState.QUARANTINED for h in self._handles
        ):
            return
        while self._pending:
            task = self._pending.popleft()
            self._fail_locked(task, WorkerCrashError(
                "entire fleet is quarantined after repeated crash loops",
                crashes=task.crashes,
            ))

    # -- supervisor ------------------------------------------------------

    def _supervise(self) -> None:
        tick = max(0.02, min(0.25, self.heartbeat_s / 2.0))
        while not self._stop.wait(tick):
            with self._cond:
                if self._closed:
                    return
                now = time.monotonic()
                for handle in self._handles:
                    state = handle.state
                    if state is ReplicaState.DEAD:
                        if now >= handle.next_spawn_at:
                            self._spawn_locked(handle)
                        continue
                    if state is ReplicaState.QUARANTINED:
                        continue
                    if handle.proc is None or not handle.alive:
                        continue  # the collector is about to reap it
                    if now - handle.last_ping_at >= self.heartbeat_s:
                        handle.ping_seq += 1
                        handle.last_ping_at = now
                        try:
                            handle.task_queue.put(PingMsg(handle.ping_seq))
                        except Exception:
                            pass
                    if handle.inflight and state is not ReplicaState.STARTING:
                        # workers are single-threaded: one cannot answer
                        # pings while it scores, so in-flight work is
                        # presumed proof of life.  Only the separate,
                        # larger per-task deadline — silence since the
                        # later of the last message and the oldest
                        # still-unanswered dispatch — condemns it as
                        # genuinely wedged.
                        if self.task_timeout_s is None:
                            continue
                        busy_since = max(
                            handle.last_seen, min(handle.inflight.values())
                        )
                        if now - busy_since <= self.task_timeout_s:
                            continue
                    else:
                        limit = (
                            STARTUP_TIMEOUT_S
                            if state is ReplicaState.STARTING
                            else self.heartbeat_timeout_s
                        )
                        if now - handle.last_seen <= limit:
                            continue
                    # hung (or wedged in a native kernel): it cannot
                    # answer pings or finish its task, so it cannot be
                    # trusted with its in-flight work — kill, fail over
                    handle.timed_out = True
                    try:
                        handle.proc.kill()
                    except Exception:
                        pass
                self._dispatch_locked()

    # -- dispatch --------------------------------------------------------

    def _serves_version_locked(self, handle: WorkerHandle, model: str,
                               version: int) -> bool:
        prov = handle.provenance.get(model)
        return prov is not None and prov.get("version") == version

    def _pick_worker_locked(self, task: _Task) -> WorkerHandle | None:
        if task.pin_slot is not None:
            handle = self._handles[task.pin_slot]
            # a pinned task (the rollout canary) may target a DRAINING
            # replica — that is the point of the probe
            if handle.alive and handle.state in (
                ReplicaState.READY, ReplicaState.DRAINING
            ):
                return handle
            return None
        best = None
        for handle in self._handles:
            if not (handle.accepts_work and handle.alive):
                continue
            # version-matched routing: a task is only ever scored by a
            # replica serving the checkpoint version it was admitted
            # under — mid-rollout, old and new versions coexist and
            # each request sticks to its own
            if not self._serves_version_locked(
                handle, task.msg.model, task.msg.version
            ):
                continue
            if best is None or len(handle.inflight) < len(best.inflight):
                best = handle
        return best

    def _version_unservable_locked(self, task: _Task) -> bool:
        """No replica serves this task's version and none ever will.

        Respawns and rollbacks always compile the registry's *current*
        version, so a task stamped with a superseded version (admitted
        just before a rollout committed, then failed over after the
        last old replica swapped) can never be scored again — it must
        fail loudly rather than wait forever or be silently scored by
        different weights.
        """
        name, version = task.msg.model, task.msg.version
        if version == self._versions.get(name, 1):
            return False  # the current version: some replica will serve it
        return not any(
            handle.alive
            and handle.state is ReplicaState.READY
            and self._serves_version_locked(handle, name, version)
            for handle in self._handles
        )

    def _dispatch_locked(self) -> None:
        stuck: list[_Task] = []
        while self._pending:
            task = self._pending.popleft()
            handle = self._pick_worker_locked(task)
            if handle is None:
                if task.pin_slot is None and \
                        self._version_unservable_locked(task):
                    self._fail_locked(task, RuntimeError(
                        f"task {task.task_id} was admitted under "
                        f"{task.msg.model!r} v{task.msg.version} but the "
                        f"fleet has rolled on and no replica serves that "
                        f"version anymore"
                    ))
                    continue
                # tasks wait for different replicas (their version, or a
                # pinned slot) — one undispatchable task must not block
                # the rest of the queue
                stuck.append(task)
                continue
            task.slot = handle.slot
            handle.inflight[task.task_id] = time.monotonic()
            try:
                handle.task_queue.put(task.msg)
            except Exception:
                handle.inflight.pop(task.task_id, None)
                stuck.append(task)
        self._pending.extendleft(reversed(stuck))
        if self._started:
            self._fail_pending_if_fleet_lost_locked()

    def _submit_locked(self, msg, holder: _FrameHolder,
                       pin_slot: int | None = None,
                       deadline: float | None = None,
                       timeout: float | None = None) -> _Task:
        """Admit one task (``deadline`` bounds a blocked admission)."""
        if self._closed:
            raise RuntimeError("service is closed")
        self._ensure_fleet_locked()
        while (
            self.queue_depth is not None
            and len(self._tasks) >= self.queue_depth
        ):
            if self.overflow == "shed":
                self.metrics.add(shed_total=1)
                raise ServiceOverloaded(
                    f"admission queue full ({self.queue_depth} tasks "
                    f"outstanding) and overflow policy is 'shed'"
                )
            remaining = _remaining(deadline)
            if remaining == 0 or not self._cond.wait(timeout=remaining):
                raise self._deadline_exceeded(
                    "queue", timeout,
                    f"admission queue stayed full past the {timeout}s "
                    f"deadline",
                )
            if self._closed:
                raise RuntimeError("service is closed")
        task_id = self._next_task_id
        self._next_task_id += 1
        task = _Task(task_id, replace(msg, task_id=task_id), holder,
                     pin_slot=pin_slot)
        self._tasks[task_id] = task
        self._pending.append(task)
        self._dispatch_locked()
        self._cond.notify_all()
        return task

    def _abandon_locked(self, tasks: list[_Task]) -> None:
        """Tombstone unfinished tasks: late results will be ignored."""
        for task in tasks:
            if task.task_id in self._tasks:
                del self._tasks[task.task_id]
                task.holder.release()
                try:
                    self._pending.remove(task)
                except ValueError:
                    pass

    # -- scoring hooks ---------------------------------------------------

    def _score_clips(self, entry, inputs, timeout, deadline):
        """Score prepared inputs as ``max_batch``-row frames on the fleet.

        The inputs are packed into shared-memory frames in
        ``max_batch``-sized chunks and dispatched to the least-loaded
        READY replicas; rows come back in input order once every chunk
        has finished, and which replica served a chunk never changes a
        score.
        """
        prepared = list(inputs)
        if not prepared:
            return
        version = self._versions.get(entry.name, 1)
        tasks: list[_Task] = []
        try:
            with self._cond:
                for start in range(0, len(prepared), self.max_batch):
                    batch = np.concatenate(
                        prepared[start : start + self.max_batch]
                    )
                    holder = _FrameHolder(batch, self.faults)
                    msg = ClassifyTask(
                        task_id=-1, model=entry.name, version=version,
                        frame=holder.ref,
                    )
                    tasks.append(self._submit_locked(
                        msg, holder, deadline=deadline, timeout=timeout,
                    ))
        except Exception:
            with self._cond:
                self._abandon_locked(tasks)
            raise
        for task in tasks:
            if not task.event.wait(timeout=_remaining(deadline)):
                with self._cond:
                    self._abandon_locked(tasks)
                raise self._deadline_exceeded("classify", timeout)
        for task in tasks:
            if task.error is not None:
                raise task.error
        for task in tasks:
            yield from task.logits

    # -- scan path -------------------------------------------------------

    def _tile_budget(self, request, entry):
        """The memory bound, cut so a scan of at least ``2 * processes``
        windows makes at least that many near-equal tiles: every
        replica gets work.  The rule reads the configured process
        count, not the READY one, so a scan's task count never depends
        on which replicas are up."""
        return _spread_budget(
            super()._tile_budget(request, entry), request,
            entry.image_size, 2 * self.processes,
        )

    def _score_tiles(self, entry, job, timeout):
        """One frame and one task per tile, scored on the fleet.

        The router rasterizes the job's tiles in order and writes each
        tile's 0/1 raster, one byte per pixel, into its own
        shared-memory frame, with a task carrying the tile's
        plane-local origins.  At most ``2 * processes`` of a scan's
        tasks (fewer under a smaller ``queue_depth``) are in flight:
        before it rasterizes the next tile the router waits for the
        oldest task, so a scan's shared memory and admission slots stay
        bounded whatever the layout size, and replicas score while the
        router rasterizes.  A worker maps the raster to the ±1 network
        input and scores it with the engine call the in-process sweep
        makes (:func:`repro.chip.scanner.scan_logits`), so which
        replica scores a tile, and how often it fails over, never
        changes a score.  A tile whose task exhausts its failover/retry
        budget, or is unfinished at the deadline, stays NaN.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        version = self._versions.get(entry.name, 1)
        in_flight = 2 * self.processes
        if self.queue_depth is not None:
            in_flight = min(in_flight, self.queue_depth)
        tasks: list[_Task] = []
        late = False
        try:
            for k, tile in enumerate(job.tiles):
                oldest = tasks[k - in_flight] if k >= in_flight else None
                if oldest is not None and not oldest.event.wait(
                    timeout=_remaining(deadline)
                ):
                    late = True
                    break
                holder = _FrameHolder(
                    job.tile_raster(tile).astype(np.uint8), self.faults
                )
                msg = ScanShardTask(
                    task_id=-1, model=entry.name, version=version,
                    frame=holder.ref, origins=tuple(job.tile_origins(tile)),
                    window_px=entry.image_size, batch_size=self.max_batch,
                )
                try:
                    with self._cond:
                        tasks.append(self._submit_locked(
                            msg, holder, deadline=deadline, timeout=timeout,
                        ))
                except BaseException:
                    holder.release()
                    raise
        except Exception:
            with self._cond:
                self._abandon_locked(tasks)
            raise
        if late or not all(
            task.event.wait(timeout=_remaining(deadline)) for task in tasks
        ):
            with self._cond:
                self._abandon_locked(tasks)
            self.metrics.add(timeouts_total=1)
        scores = job.empty_scores()
        retries = 0
        for tile, task in zip(job.tiles, tasks):
            retries += task.crashes + task.errors + task.frame_retries
            if task.logits is not None:
                scores[tile.iy0:tile.iy1, tile.ix0:tile.ix1] = (
                    task.logits[:, 1] - task.logits[:, 0]
                ).reshape(tile.iy1 - tile.iy0, tile.ix1 - tile.ix0)
        return scores, retries

    # -- rolling rollout -------------------------------------------------

    def _canary_batch(self, entry: ModelEntry) -> np.ndarray:
        rng = np.random.default_rng(0)
        images = rng.integers(
            0, 2, size=(4, entry.image_size, entry.image_size)
        ).astype(np.float64)
        return to_network_input(images)

    def _wait_load_locked(self, slot: int, generation: int, name: str,
                          version: int, deadline: float):
        key = (slot, generation, name, version)
        while key not in self._load_results:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._cond.wait(timeout=remaining):
                return None
            if self._handles[slot].generation != generation:
                return None  # the replica died mid-load
        return self._load_results.pop(key)

    def rollout(self, name: str, model=None, path: str | None = None,
                image_size: int | None = None,
                decision_bias: float = 0.0) -> ModelEntry:
        """Roll a new checkpoint across the fleet without dropping traffic.

        Transaction order:

        1. **Register** the new model (from a live ``model`` or a
           checkpoint ``path``) in the router's registry, on the backend
           the name is already served with (``"packed"`` for a new
           name).  This compiles the reference engine; a corrupt
           checkpoint or compile failure raises here, before any
           replica is touched.
        2. Per replica, in slot order: **drain** (state DRAINING —
           visible in :meth:`replica_states` and health reasons; no
           new tasks, in-flight ones finish), **swap** via
           ``LoadModelMsg``, **canary-probe** one seeded batch pinned to
           the swapped replica and compare bit-for-bit against the
           reference engine, **readmit** (READY).  Each step has
           :data:`DRAIN_TIMEOUT_S` per replica.  Siblings carry
           traffic the whole time.
        3. A failed load or canary mismatch **rolls back**: the
           replica reloads the previous weights, the registry restores
           the previous entry, and :class:`RolloutError` is raised.
           Replicas swapped before the failure are rolled back too —
           and so is the failing replica itself when its load had
           already committed (a canary mismatch): it stays DRAINING
           until the old checkpoint is restored, so it never serves
           the parity-failing weights and an aborted rollout never
           leaves a mixed-version fleet.

        Dead/quarantined slots are skipped — their next respawn
        compiles the new version from the registry.
        """
        with self._cond:
            self._ensure_fleet_locked()
            old_entry = (
                self.registry.get(name) if name in self.registry else None
            )
            old_version = self._versions.get(name, 1)
        backend = old_entry.backend if old_entry is not None else "packed"
        if model is None and path is None:
            raise ValueError("rollout needs model= or path=")
        try:
            if path is not None:
                entry = self.registry.load_checkpoint(
                    name, path, model=model, image_size=image_size,
                    backend=backend,
                )
            else:
                if image_size is None:
                    image_size = (
                        old_entry.image_size if old_entry is not None
                        else None
                    )
                if image_size is None:
                    raise ValueError("rollout of a new name needs image_size=")
                entry = self.registry.register(
                    name, model, image_size=image_size,
                    decision_bias=decision_bias, backend=backend,
                )
        except Exception:
            self.metrics.add(rollouts_total=1, rollout_failures_total=1)
            raise
        new_version = old_version + 1
        with self._cond:
            self._versions[name] = new_version
            spec = self._spec(name)
            old_spec = None if old_entry is None else self._make_spec(
                old_entry, old_version
            )
        swapped: list[int] = []
        try:
            canary = self._canary_batch(entry)
            # a model that compiles but cannot score the canary fails
            # here — inside the rollback scope, so the version bump
            # above is undone and no replica is touched
            reference = entry.engine.predict_logits(canary)
            for handle in self._handles:
                with self._cond:
                    if handle.state is not ReplicaState.READY:
                        continue  # dead/quarantined slots catch up at respawn
                    slot, generation = handle.slot, handle.generation
                    handle.state = ReplicaState.DRAINING
                    self._cond.notify_all()
                try:
                    self._swap_replica(
                        handle, slot, generation, spec, canary, reference,
                        swapped,
                    )
                except Exception:
                    with self._cond:
                        if handle.generation == generation \
                                and slot not in swapped:
                            # the load never committed: the replica
                            # still serves the old weights and is safe
                            # to readmit as-is.  A replica that DID
                            # load the new (canary-failing) weights is
                            # in ``swapped`` and stays DRAINING until
                            # _roll_back restores the old checkpoint —
                            # it must never serve a version that failed
                            # its parity probe.
                            handle.state = ReplicaState.READY
                            self._cond.notify_all()
                    raise
            self.metrics.add(rollouts_total=1)
            return entry
        except Exception:
            self.metrics.add(rollouts_total=1, rollout_failures_total=1)
            self._roll_back(name, old_entry, old_version, old_spec,
                            swapped)
            raise

    def _swap_replica(self, handle: WorkerHandle, slot: int,
                      generation: int, spec: ModelSpec,
                      canary: np.ndarray, reference: np.ndarray,
                      swapped: list[int]) -> None:
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        with self._cond:
            while handle.inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(timeout=remaining):
                    raise RolloutError(
                        f"replica {slot} did not drain within "
                        f"{DRAIN_TIMEOUT_S}s ({len(handle.inflight)} tasks "
                        f"in flight)"
                    )
                if handle.generation != generation:
                    raise RolloutError(f"replica {slot} died while draining")
            try:
                handle.task_queue.put(LoadModelMsg(spec))
            except Exception as exc:
                raise RolloutError(
                    f"replica {slot} rejected the load: {exc}"
                ) from exc
            loaded = self._wait_load_locked(
                slot, generation, spec.name, spec.version, deadline
            )
        if loaded is None:
            raise RolloutError(
                f"replica {slot} did not confirm loading "
                f"{spec.name!r} v{spec.version} in time"
            )
        if loaded.error is not None:
            raise RolloutError(
                f"replica {slot} failed to load {spec.name!r} "
                f"v{spec.version}: {loaded.error}"
            )
        # the load committed: the replica now serves the new weights,
        # so from here on an abort must roll THIS slot back too, not
        # just its predecessors — even if the canary probe below fails
        swapped.append(slot)
        # canary parity probe, pinned to the (still draining) replica
        holder = _FrameHolder(canary, None)
        with self._cond:
            msg = ClassifyTask(
                task_id=-1, model=spec.name, version=spec.version,
                frame=holder.ref,
            )
            task = self._submit_locked(msg, holder, pin_slot=slot)
        remaining = max(0.0, deadline - time.monotonic())
        if not task.event.wait(timeout=remaining):
            with self._cond:
                self._abandon_locked([task])
            raise RolloutError(
                f"replica {slot} canary probe timed out"
            )
        if task.error is not None:
            raise RolloutError(
                f"replica {slot} canary probe failed: {task.error}"
            )
        if not np.array_equal(task.logits, reference):
            raise RolloutError(
                f"replica {slot} canary batch is not bit-identical to the "
                f"reference engine for {spec.name!r} v{spec.version}; "
                f"aborting the rollout"
            )
        with self._cond:
            if handle.generation == generation:
                handle.state = ReplicaState.READY
                self._dispatch_locked()
                self._cond.notify_all()

    def _roll_back(self, name, old_entry, old_version, old_spec,
                   swapped) -> None:
        """Best-effort restore of the pre-rollout fleet and registry."""
        with self._cond:
            self._versions[name] = old_version
        if old_entry is not None:
            self.registry.register(
                name, old_entry.model, image_size=old_entry.image_size,
                decision_bias=old_entry.decision_bias, meta=old_entry.meta,
                backend=old_entry.backend,
            )
        for slot in swapped:
            handle = self._handles[slot]
            with self._cond:
                if handle.alive and old_spec is not None:
                    try:
                        handle.task_queue.put(LoadModelMsg(old_spec))
                    except Exception:
                        pass
                    else:
                        self._wait_load_locked(
                            slot, handle.generation, old_spec.name,
                            old_spec.version,
                            time.monotonic() + DRAIN_TIMEOUT_S,
                        )
                # the slot whose canary failed was left DRAINING so it
                # could not serve the parity-failing weights; readmit
                # it now that the old checkpoint is (best-effort) back.
                # A dead slot respawns from the restored registry.
                if handle.state is ReplicaState.DRAINING:
                    handle.state = ReplicaState.READY
                    self._dispatch_locked()
                    self._cond.notify_all()

    # -- lifecycle / observability ---------------------------------------

    def replica_states(self) -> dict[int, ReplicaState]:
        """Current lifecycle state of every fleet slot."""
        with self._cond:
            return {h.slot: h.state for h in self._handles}

    def _fleet_provenance_locked(self) -> dict[str, dict[str, set]]:
        """model -> {"backends": set, "versions": set} over live replicas."""
        agg: dict[str, dict[str, set]] = {}
        for handle in self._handles:
            if handle.state not in (
                ReplicaState.READY, ReplicaState.DRAINING
            ):
                continue
            for model, prov in handle.provenance.items():
                rec = agg.setdefault(
                    model, {"backends": set(), "versions": set()}
                )
                rec["backends"].add(str(prov.get("backend", "?")))
                rec["versions"].add(prov.get("version"))
        return agg

    def _health_reasons(self) -> tuple[str, ...]:
        """Fleet conditions that degrade health.

        Down or quarantined slots, replicas draining for a rollout,
        and — the fleet integrity check — models served with **mixed
        backends or mixed versions** across replicas (a half-finished
        or half-rolled fleet must announce itself; predictions are
        bit-identical across built-in backends, but performance and
        reproducibility metadata are not).
        """
        reasons = []
        with self._cond:
            if self._started:
                for handle in self._handles:
                    if handle.state is ReplicaState.QUARANTINED:
                        reasons.append(f"slot {handle.slot} quarantined after "
                                       f"{handle.crashes} consecutive crashes")
                    elif handle.state is ReplicaState.DEAD:
                        reasons.append(
                            f"slot {handle.slot} down, respawn pending"
                        )
                    elif handle.state is ReplicaState.DRAINING:
                        reasons.append(
                            f"replica {handle.slot} draining (rollout)"
                        )
            for model, rec in self._fleet_provenance_locked().items():
                if len(rec["backends"]) > 1:
                    reasons.append(
                        f"model {model!r}: mixed-backend fleet "
                        f"({', '.join(sorted(rec['backends']))})"
                    )
                if len(rec["versions"]) > 1:
                    versions = ", ".join(str(v) for v in sorted(
                        rec["versions"], key=lambda v: (v is None, v)
                    ))
                    reasons.append(f"model {model!r}: mixed versions across "
                                   f"replicas ({versions})")
        return tuple(reasons)

    def _extend_stats(self, snapshot: dict[str, object]) -> None:
        """Per-model served version plus per-replica fleet state."""
        for name, record in snapshot["models"].items():
            record["version"] = self._versions.get(name, 1)
        with self._cond:
            agg = self._fleet_provenance_locked()
            snapshot["cluster"] = {
                "processes": self.processes,
                "started": self._started,
                "pending_tasks": len(self._pending),
                "outstanding_tasks": len(self._tasks),
                "replicas": {
                    handle.slot: {
                        "state": handle.state.value,
                        "pid": (
                            handle.proc.pid if handle.proc is not None
                            else None
                        ),
                        "generation": handle.generation,
                        "crashes": handle.crashes,
                        "inflight": len(handle.inflight),
                        "tasks_done": handle.tasks_done,
                        "provenance": {
                            model: dict(prov)
                            for model, prov in handle.provenance.items()
                        },
                    }
                    for handle in self._handles
                },
                "fleet": {
                    model: {
                        "backends": sorted(rec["backends"]),
                        "versions": sorted(
                            str(v) for v in rec["versions"]
                        ),
                        "mixed_backend": len(rec["backends"]) > 1,
                    }
                    for model, rec in agg.items()
                },
            }

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop the fleet: orderly shutdown, then force-kill stragglers."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._stop.set()
            handles = list(self._handles)
            for handle in handles:
                handle.shutdown_requested = True
                if handle.alive:
                    try:
                        handle.task_queue.put(ShutdownMsg())
                    except Exception:
                        pass
            # unblock every waiter; their tasks will never complete
            while self._pending:
                task = self._pending.popleft()
                self._fail_locked(task, RuntimeError("service is closed"))
            for task in list(self._tasks.values()):
                self._fail_locked(task, RuntimeError("service is closed"))
            self._cond.notify_all()
        if self._supervisor is not None:
            self._supervisor.join(timeout=2.0)
        budget = time.monotonic() + (timeout if timeout is not None else 10.0)
        for handle in handles:
            proc = handle.proc
            if proc is None:
                continue
            proc.join(timeout=max(0.0, budget - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
