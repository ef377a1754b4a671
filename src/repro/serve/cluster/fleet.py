"""Replica bookkeeping: one slot's process, queues, and lifecycle state.

The fleet is a fixed array of **slots**; each slot holds at most one
live worker process at a time, and each (re)spawn bumps the slot's
``generation``.  Queues are created fresh per generation — a SIGKILLed
worker can die holding its queue's internal lock, which would wedge any
process that kept using it, so nothing from a dead generation is ever
reused.  Stale messages are likewise fenced by generation: a result
carrying an old generation is dropped by the router.

The state machine (:class:`ReplicaState`)::

    STARTING ──ready──> READY <──readmit── DRAINING
       │                  │  └──drain (rollout)──^
       │ death/timeout    │ death/timeout
       v                  v
      DEAD ──backoff──> (respawn: STARTING)
       │
       └─ crash loop ──> QUARANTINED (terminal until operator reset)

Only READY replicas receive new work (DRAINING ones finish what they
have; a rollout's canary probe is the single exception, pinned to the
drained replica on purpose).  DEAD slots respawn after a capped
exponential backoff; a slot that keeps dying (``crashes`` consecutive
losses without a completed task) is QUARANTINED so a poisoned replica
cannot burn CPU in a respawn loop while its siblings serve.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

__all__ = ["ReplicaState", "WorkerHandle"]


class ReplicaState(enum.Enum):
    """Lifecycle state of one fleet slot."""

    STARTING = "starting"  #: process spawned, engines still compiling
    READY = "ready"  #: accepting new tasks
    DRAINING = "draining"  #: finishing in-flight work, no new tasks
    DEAD = "dead"  #: process gone; respawn scheduled (or pending close)
    QUARANTINED = "quarantined"  #: crash-looped; no further respawns


@dataclass
class WorkerHandle:
    """Everything the router tracks about one slot.

    Mutable runtime record, guarded by the router's lock.  ``inflight``
    maps task-id -> dispatch time for the tasks this worker currently
    owns; on death the router fails them over to siblings.  ``crashes``
    counts *consecutive* losses — any completed task resets it, so only
    genuine crash loops reach the quarantine threshold.
    """

    slot: int
    generation: int = 0
    proc: object | None = None  #: multiprocessing.Process of the generation
    task_queue: object | None = None
    result_queue: object | None = None
    state: ReplicaState = ReplicaState.DEAD
    last_seen: float = 0.0  #: monotonic time of the last message received
    spawned_at: float = 0.0
    ping_seq: int = 0
    last_ping_at: float = 0.0
    inflight: dict[int, float] = field(default_factory=dict)
    crashes: int = 0  #: consecutive deaths without a completed task
    next_spawn_at: float = 0.0  #: monotonic respawn-not-before time
    tasks_done: int = 0  #: watermark from the worker's last pong
    #: per-model serving metadata reported by the live process
    #: (model name -> {backend, pipeline, version})
    provenance: dict[str, dict[str, object]] = field(default_factory=dict)
    shutdown_requested: bool = False  #: orderly stop; death is expected
    timed_out: bool = False  #: the supervisor killed it for missed pongs

    @property
    def alive(self) -> bool:
        """Whether the slot's current process is running."""
        return self.proc is not None and self.proc.is_alive()

    @property
    def accepts_work(self) -> bool:
        """Whether the router may dispatch *new* tasks to this slot."""
        return self.state is ReplicaState.READY

    def touch(self) -> None:
        """Record proof of life (any message from the worker counts)."""
        self.last_seen = time.monotonic()
