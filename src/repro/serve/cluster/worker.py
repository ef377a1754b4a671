"""Worker-process main loop: compile engines, score frames, heartbeat.

A worker is deliberately boring: one process, one queue-consuming loop,
no threads.  It compiles its own engines from the shipped
:class:`~repro.serve.cluster.messages.ModelSpec` weights (compiled
engines do not pickle, and per-process compilation is what makes a
crash *isolated* — no shared mutable state can be corrupted), then
serves tasks until told to stop or killed.  Everything interesting —
retries, failover, respawn — lives in the router/supervisor; the
worker's only fault-tolerance duty is to *fail loudly and typed*:
a digest-failing frame is reported as ``frame_corrupt`` (never scored),
a task admitted under a different checkpoint version than the one this
replica serves is reported as ``version_mismatch`` (never scored by
the wrong weights), a scoring exception is reported as an error
string, and a crash is simply a dead process for the supervisor to
notice.

Determinism contract: engines compiled from the same ``ModelSpec`` are
bit-identical across processes (weights are snapshotted at lowering,
kernels are deterministic), so *which* replica scores a shard can never
change a prediction — the cluster parity gate and the rollout canary
probe both pin that line across the process boundary.
"""

from __future__ import annotations

import os
import queue
from dataclasses import dataclass

import numpy as np

from ...binary.inference import ProgramEngine
from ...features.downsample import to_network_input
from ..errors import FrameIntegrityError
from .messages import (
    ClassifyTask,
    LoadModelMsg,
    ModelLoadedMsg,
    PingMsg,
    PongMsg,
    ReadyMsg,
    ReleaseFrameMsg,
    ScanShardTask,
    ShutdownMsg,
    TaskDoneMsg,
    WorkerConfig,
)
from .shm import FrameAttachment

__all__ = ["worker_main"]

#: plane-frame attachments a worker keeps mapped (per-scan planes are
#: large; two covers the common scan-overlap-with-next-scan window)
_ATTACH_CACHE = 2
#: compiled per-band scan plans kept per worker (plans are band-sized)
_PLAN_CACHE = 4


@dataclass
class _Served:
    """One compiled model inside the worker."""

    spec: object
    engine: object
    provenance: dict[str, object]


def _compile(spec) -> _Served:
    engine = ProgramEngine(spec.model, spec.backend, spec.passes)
    return _Served(
        spec=spec,
        engine=engine,
        provenance={
            "backend": engine.backend_name,
            "pipeline": engine.pipeline,
            "version": spec.version,
        },
    )


class _Worker:
    def __init__(self, config: WorkerConfig, task_queue, result_queue):
        self.config = config
        self.tasks = task_queue
        self.results = result_queue
        self.slot = config.slot
        self.generation = config.generation
        self.faults = config.faults
        self.models: dict[str, _Served] = {}
        self.attachments: dict[str, FrameAttachment] = {}
        self.plans: dict[tuple, object] = {}
        self.tasks_done = 0

    # -- chaos ----------------------------------------------------------

    def _fire_task_faults(self, task) -> None:
        """Enter the worker chaos sites with the task as match payload.

        Fires *after* the task is dequeued and in-flight — a ``kill``
        rule here is a crash mid-batch, exactly what the supervisor's
        failover path must absorb.
        """
        if self.faults is None:
            return
        self.faults.fire("worker", (task,))
        self.faults.fire(f"worker:{self.slot}", (task,))

    # -- frame / plan caches --------------------------------------------

    def _attachment(self, ref) -> FrameAttachment:
        cached = self.attachments.get(ref.name)
        if cached is not None:
            return cached
        attachment = FrameAttachment(ref)  # digest verified here
        while len(self.attachments) >= _ATTACH_CACHE:
            old = self.attachments.pop(next(iter(self.attachments)))
            self._drop_plans(old.ref.name)
            old.close()
        self.attachments[ref.name] = attachment
        return attachment

    def _drop_plans(self, frame_name: str) -> None:
        for key in [k for k in self.plans if k[2] == frame_name]:
            del self.plans[key]

    def _release_frame(self, name: str) -> None:
        attachment = self.attachments.pop(name, None)
        if attachment is not None:
            attachment.close()
        self._drop_plans(name)

    # -- scoring --------------------------------------------------------

    def _score_classify(self, task: ClassifyTask, served: _Served) -> np.ndarray:
        from .shm import read_frame

        batch = read_frame(task.frame)  # verified private copy
        return served.engine.predict_logits(batch)

    def _score_scan(self, task: ScanShardTask, served: _Served) -> np.ndarray:
        attachment = self._attachment(task.frame)
        key = (task.model, served.spec.version, task.frame.name, task.band)
        plan = self.plans.get(key)
        if plan is None:
            y0, y1 = task.band
            band = attachment.array[y0:y1]
            plan = served.engine.plan_scan(
                to_network_input(band[None]), task.window_px, task.origins
            )
            while len(self.plans) >= _PLAN_CACHE:
                self.plans.pop(next(iter(self.plans)))
            self.plans[key] = plan
        return plan.logits(task.origins, batch_size=task.batch_size)

    # -- protocol -------------------------------------------------------

    def _put(self, msg) -> None:
        try:
            self.results.put(msg)
        except (BrokenPipeError, OSError):  # router is gone; nothing to do
            raise SystemExit(0)

    def _handle_task(self, task) -> None:
        # resolve the model and pin the version BEFORE scoring: a task
        # carries the checkpoint version the router admitted it under,
        # and scoring it with different weights would silently mix
        # versions inside one response — refuse, typed, so the router
        # requeues it to a matching replica or fails loudly
        served = self.models.get(task.model)
        if served is None:
            self._put(TaskDoneMsg(
                task_id=task.task_id, slot=self.slot,
                generation=self.generation,
                error=f"worker {self.slot} has no model {task.model!r}",
            ))
            return
        if task.version != served.spec.version:
            self._put(TaskDoneMsg(
                task_id=task.task_id, slot=self.slot,
                generation=self.generation,
                error=(
                    f"worker {self.slot} serves {task.model!r} "
                    f"v{served.spec.version} but the task was admitted "
                    f"under v{task.version}"
                ),
                version_mismatch=True,
            ))
            return
        try:
            self._fire_task_faults(task)
            logits = (
                self._score_classify(task, served)
                if isinstance(task, ClassifyTask)
                else self._score_scan(task, served)
            )
        except FrameIntegrityError as exc:
            self._put(TaskDoneMsg(
                task_id=task.task_id, slot=self.slot,
                generation=self.generation,
                error=str(exc), frame_corrupt=True,
            ))
            return
        except FileNotFoundError as exc:
            # segment gone before we attached: the router superseded the
            # frame (torn-frame refresh) — report it like corruption so
            # the router re-dispatches with the current ref
            self._put(TaskDoneMsg(
                task_id=task.task_id, slot=self.slot,
                generation=self.generation,
                error=f"frame vanished: {exc}", frame_corrupt=True,
            ))
            return
        except Exception as exc:
            self._put(TaskDoneMsg(
                task_id=task.task_id, slot=self.slot,
                generation=self.generation,
                error=f"{type(exc).__name__}: {exc}",
            ))
            return
        self.tasks_done += 1
        self._put(TaskDoneMsg(
            task_id=task.task_id, slot=self.slot,
            generation=self.generation, logits=logits,
        ))

    def _handle_load(self, msg: LoadModelMsg) -> None:
        try:
            served = _compile(msg.spec)
        except Exception as exc:
            # the previous version keeps serving — a bad checkpoint must
            # never take a replica's model away
            self._put(ModelLoadedMsg(
                slot=self.slot, name=msg.spec.name,
                version=msg.spec.version,
                error=f"{type(exc).__name__}: {exc}",
            ))
            return
        self.models[msg.spec.name] = served
        # model changed: compiled plans bake in weights
        self.plans.clear()
        self._put(ModelLoadedMsg(
            slot=self.slot, name=msg.spec.name, version=msg.spec.version,
            provenance=dict(served.provenance),
        ))

    def run(self) -> int:
        for spec in self.config.models:
            self.models[spec.name] = _compile(spec)
        self._put(ReadyMsg(
            slot=self.slot, generation=self.generation, pid=os.getpid(),
            provenance={
                name: dict(served.provenance)
                for name, served in self.models.items()
            },
        ))
        while True:
            try:
                msg = self.tasks.get(timeout=self.config.poll_s)
            except queue.Empty:
                continue
            except (EOFError, OSError):
                return 0
            if isinstance(msg, ShutdownMsg):
                return 0
            if isinstance(msg, PingMsg):
                self._put(PongMsg(
                    slot=self.slot, generation=self.generation,
                    seq=msg.seq, tasks_done=self.tasks_done,
                ))
            elif isinstance(msg, LoadModelMsg):
                self._handle_load(msg)
            elif isinstance(msg, ReleaseFrameMsg):
                self._release_frame(msg.name)
            elif isinstance(msg, (ClassifyTask, ScanShardTask)):
                self._handle_task(msg)
            # unknown messages are dropped: a newer router talking to an
            # older worker must degrade, not wedge the loop


def worker_main(config: WorkerConfig, task_queue, result_queue) -> int:
    """Process entry point (must stay top-level: spawn pickles it)."""
    worker = _Worker(config, task_queue, result_queue)
    try:
        return worker.run()
    finally:
        for attachment in worker.attachments.values():
            attachment.close()
