"""Supervised multi-process serving: crash-isolated worker fleet.

Public surface:

* :class:`ClusterService` — the router: admission, batching, shared-
  memory transport, heartbeat supervision, failover, respawn/backoff/
  quarantine, and rolling checkpoint rollout behind the familiar
  classify/scan API.
* :class:`ReplicaState` — per-slot lifecycle states (READY, DRAINING,
  QUARANTINED, ...) surfaced by ``replica_states()`` and health.
* :class:`ModelSpec` / the :mod:`.messages` protocol and the
  :mod:`.shm` frame transport — for tests and tooling that talk to
  workers directly.

The seeded chaos gate lives in :mod:`.parity` (``python -m
repro.serve.cluster.parity``): random worker SIGKILLs mid-scan must
leave the report bit-identical to an unfaulted run, and a rolling
rollout under sustained load must drop zero requests.
"""

from .fleet import ReplicaState, WorkerHandle
from .messages import ModelSpec, WorkerConfig
from .service import ClusterService
from .shm import Frame, FrameRef, put_frame, read_frame

__all__ = [
    "ClusterService",
    "ReplicaState",
    "WorkerHandle",
    "ModelSpec",
    "WorkerConfig",
    "Frame",
    "FrameRef",
    "put_frame",
    "read_frame",
]
