"""Typed message protocol between the router and worker processes.

Everything crossing a ``multiprocessing`` queue is one of these frozen
dataclasses, so both sides dispatch on type instead of string-matching
dict keys.  Bulk array payloads never ride the queue — they go through
shared memory (:mod:`.shm`) and the messages carry only
:class:`~repro.serve.cluster.shm.FrameRef` handles.  Result logits are
small ``(n, 2)`` arrays and are cheap enough to pickle back.

:class:`ModelSpec` is how models cross the process boundary: the live
:class:`~repro.nn.module.Module` tree (plain Python + numpy, pickles
cleanly) plus its rollout version.  Workers compile their *own*
engine from it — compiled engines hold locks and caches that neither
pickle nor should be shared — and report the resulting provenance
(backend, pass-pipeline signature, version) back to the router, which
aggregates it per replica in ``stats()`` and flags mixed-version
fleets as DEGRADED in ``health()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..faults import FaultInjector
from .shm import FrameRef

__all__ = [
    "ModelSpec",
    "WorkerConfig",
    "PingMsg",
    "ShutdownMsg",
    "LoadModelMsg",
    "ClassifyTask",
    "ScanShardTask",
    "ReadyMsg",
    "PongMsg",
    "ModelLoadedMsg",
    "TaskDoneMsg",
]


@dataclass(frozen=True)
class ModelSpec:
    """One model as shipped to workers: weights + rollout version.

    Built from the router's :class:`~repro.serve.registry.ModelEntry`,
    so a worker compiles exactly the ``ProgramEngine(model)`` the
    router's reference engine is.  ``version`` increments on every
    rolling rollout so provenance can tell which checkpoint generation
    a replica is serving; a fleet serving mixed versions (mid-rollout,
    or after an aborted one) is visibly DEGRADED, never silent.
    """

    name: str
    model: object  #: :class:`~repro.nn.module.Module` tree (picklable)
    version: int = 1


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs at spawn time."""

    slot: int  #: stable fleet slot index (survives respawns)
    generation: int  #: how many processes have occupied the slot
    models: tuple[ModelSpec, ...]
    #: chaos hook, shipped by pickle — each worker gets an independent
    #: copy with fresh call counters (deterministic per-worker schedule)
    faults: FaultInjector | None = None
    #: task-queue poll period; bounds how quickly shutdown is noticed
    poll_s: float = 0.05


# -- router -> worker ----------------------------------------------------


@dataclass(frozen=True)
class PingMsg:
    """Liveness probe; the worker answers with :class:`PongMsg`."""

    seq: int


@dataclass(frozen=True)
class ShutdownMsg:
    """Orderly stop: finish nothing, drop the queue, exit 0."""


@dataclass(frozen=True)
class LoadModelMsg:
    """Swap in a new model version (the rolling-rollout step)."""

    spec: ModelSpec


@dataclass(frozen=True)
class ClassifyTask:
    """Score one prepared input batch ``(n, 1, s, s)`` from a frame."""

    task_id: int
    model: str
    version: int
    frame: FrameRef


@dataclass(frozen=True)
class ScanShardTask:
    """Score every window of one scan tile.

    The frame holds the tile's ``(h, w)`` uint8 0/1 raster; the worker
    maps it to the ±1 network input a :class:`~repro.chip.ChipScanJob`
    builds for the tile.  ``origins`` are the tile's window origins in
    tile pixels, row-major.
    Every window lies wholly inside its tile (the tiles are
    halo-correct), so scoring them from the tile raster is
    bit-identical to scoring them in-process.
    """

    task_id: int
    model: str
    version: int
    frame: FrameRef
    origins: tuple[tuple[int, int], ...]  #: window origins, tile-local px
    window_px: int  #: window side in plane pixels (= model image size)
    batch_size: int = 64


# -- worker -> router ----------------------------------------------------


@dataclass(frozen=True)
class ReadyMsg:
    """Worker finished compiling its engines and is accepting tasks.

    ``provenance`` maps model name -> the replica's actual serving
    metadata: ``backend``, ``pipeline``, ``version``.  The router
    aggregates this in ``stats()`` and flags cross-replica mismatches
    in ``health()``.
    """

    slot: int
    generation: int
    pid: int
    provenance: dict[str, dict[str, object]] = field(default_factory=dict)


@dataclass(frozen=True)
class PongMsg:
    """Heartbeat reply: liveness plus the in-flight watermark."""

    slot: int
    generation: int
    seq: int
    tasks_done: int  #: monotone per-process completion counter


@dataclass(frozen=True)
class ModelLoadedMsg:
    """Outcome of a :class:`LoadModelMsg` (rollout step)."""

    slot: int
    name: str
    version: int
    provenance: dict[str, object] = field(default_factory=dict)
    error: str | None = None


@dataclass(frozen=True)
class TaskDoneMsg:
    """Result of one task.

    Exactly one of ``logits`` / ``error`` is set.  ``frame_corrupt``
    marks a failed SHA-256 digest check — the router re-creates the
    frame and resubmits instead of counting it as a scoring failure.
    ``version_mismatch`` marks a task the worker *refused* to score
    because it was admitted under a different checkpoint version than
    the replica serves (a failover race during a rollout) — the router
    requeues it to a version-matching replica instead of accepting a
    silently mixed-version response.
    """

    task_id: int
    slot: int
    generation: int
    logits: np.ndarray | None = None
    error: str | None = None
    frame_corrupt: bool = False
    version_mismatch: bool = False
