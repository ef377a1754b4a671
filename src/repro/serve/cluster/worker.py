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
from ...chip.scanner import scan_logits
from ...features.downsample import to_network_input
from ..errors import FrameIntegrityError
from .messages import (
    ClassifyTask,
    LoadModelMsg,
    ModelLoadedMsg,
    PingMsg,
    PongMsg,
    ReadyMsg,
    ScanShardTask,
    ShutdownMsg,
    TaskDoneMsg,
    WorkerConfig,
)
from .shm import read_frame

__all__ = ["worker_main"]


@dataclass
class _Served:
    """One compiled model inside the worker."""

    spec: object
    engine: object
    provenance: dict[str, object]


def _compile(spec) -> _Served:
    engine = ProgramEngine(spec.model)
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

    # -- scoring --------------------------------------------------------

    def _score(self, task, served: _Served) -> np.ndarray:
        """Logits of one task, from a verified private copy of its frame."""
        frame = read_frame(task.frame)
        if isinstance(task, ClassifyTask):
            return served.engine.predict_logits(frame)
        return scan_logits(served.engine, to_network_input(frame[None]),
                           task.window_px, list(task.origins),
                           task.batch_size)

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
            logits = self._score(task, served)
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
            elif isinstance(msg, (ClassifyTask, ScanShardTask)):
                self._handle_task(msg)
            # unknown messages are dropped: a newer router talking to an
            # older worker must degrade, not wedge the loop


def worker_main(config: WorkerConfig, task_queue, result_queue) -> int:
    """Process entry point (must stay top-level: spawn pickles it)."""
    return _Worker(config, task_queue, result_queue).run()
