"""Serving layer: batched, multi-worker hotspot inference as a service.

The paper's pitch is that binarized inference is cheap enough to deploy
at scale; this subpackage is the deployment story for the reproduction.
It turns the bit-packed :class:`~repro.binary.inference.ProgramEngine`
into a synchronous-API service with production plumbing:

* :class:`ModelRegistry` — named models, checkpoint loading, strict
  compilation of each to ``ProgramEngine(model)``, the bit-packed
  engine every service serves (``float`` is a parity reference inside
  :mod:`repro.engine`, never served);
* :class:`MicroBatcher` — coalesces concurrent single-clip requests
  into engine batches (``max_batch`` / ``max_wait_ms``);
* :class:`WorkerPool` — shards the tiles of full-layout sliding-window
  scans across threads, deterministically;
* :class:`RasterCache` — LRU geometry-keyed raster reuse;
* :class:`ServiceMetrics` — counters, latency histograms, batch and
  cache statistics via ``HotspotService.stats()``;
* :class:`HotspotService` — the front door tying the above together;
* :class:`ClusterService` (:mod:`repro.serve.cluster`) — the same API
  served by a supervised fleet of crash-isolated worker *processes*:
  shared-memory frames with SHA-256 integrity digests, heartbeats,
  failover, respawn with backoff, crash-loop quarantine, and rolling
  checkpoint rollout with a canary parity probe.

Fault tolerance rides on top (``docs/serving.md`` → "Failure modes &
guarantees"): per-request **deadlines** (typed
:class:`DeadlineExceeded`), bounded admission queues with a block/shed
**backpressure** policy (:class:`ServiceOverloaded`), **poison
quarantine** by batch bisection, degraded :class:`ScanReport`\\ s with
explicit ``failed_ranges``, checkpoint content checksums
(:class:`CheckpointError`), a :meth:`HotspotService.health` probe, and
a deterministic :class:`FaultInjector` for chaos-testing all of it.

Quickstart::

    from repro.serve import HotspotService
    service = HotspotService.from_model(trained_model, image_size=32)
    prediction = service.classify(clip)          # one Clip or raster
    report = service.scan(ScanRequest(layout, window=1024, stride=512))
    print(service.stats())
"""

from .batcher import MicroBatcher
from .cache import PlaneCache, RasterCache, geometry_key
from .cluster import ClusterService, ReplicaState
from .errors import (
    CheckpointError,
    DeadlineExceeded,
    FrameIntegrityError,
    RolloutError,
    ServeError,
    ServiceOverloaded,
    WorkerCrashError,
)
from .faults import FaultInjector, FaultRule, FrameFaults, InjectedFault
from .metrics import LatencyHistogram, ServiceMetrics
from .pool import ShardOutcome, WorkerPool, shard_slices
from .registry import ModelEntry, ModelRegistry, model_from_meta
from .service import (
    HotspotService,
    extract_window,
    window_origins,
)
from .types import (
    ChipScanReport,
    ChipScanRequest,
    ClipRequest,
    HealthReport,
    HealthState,
    Prediction,
    ScanHit,
    ScanReport,
    ScanRequest,
)

__all__ = [
    "MicroBatcher",
    "ServeError",
    "DeadlineExceeded",
    "ServiceOverloaded",
    "CheckpointError",
    "FrameIntegrityError",
    "WorkerCrashError",
    "RolloutError",
    "ClusterService",
    "ReplicaState",
    "FaultInjector",
    "FaultRule",
    "FrameFaults",
    "InjectedFault",
    "HealthReport",
    "HealthState",
    "ShardOutcome",
    "RasterCache",
    "PlaneCache",
    "geometry_key",
    "LatencyHistogram",
    "ServiceMetrics",
    "WorkerPool",
    "shard_slices",
    "ModelEntry",
    "ModelRegistry",
    "model_from_meta",
    "HotspotService",
    "extract_window",
    "window_origins",
    "ClipRequest",
    "Prediction",
    "ScanHit",
    "ScanReport",
    "ScanRequest",
    "ChipScanRequest",
    "ChipScanReport",
]
