"""Serving-throughput measurement shared by the CLI and benchmark suite.

Four serving configurations over the same clip set:

* single-request float — the naive baseline: one float-simulation
  engine invocation per clip (``max_batch=1``);
* single-request packed — the XNOR/popcount engine, still one clip per
  invocation;
* batched float — micro-batched float simulation;
* batched packed — the deployment configuration: micro-batched
  XNOR/popcount.

Besides throughput the measurement returns every mode's labels and
scores so callers can assert the serving layer's core invariant:
batching and backend choice change *speed*, while packed batched vs
packed unbatched predictions stay bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..nn.module import Module
from .service import HotspotService

__all__ = [
    "ModeResult",
    "measure_cluster_serving",
    "measure_serving",
    "serving_table_rows",
]


@dataclass
class ModeResult:
    """Throughput and predictions of one serving configuration."""

    mode: str  #: ``"single"`` or ``"batched"``
    backend: str  #: ``"packed"`` or ``"float"`` (as actually served)
    clips: int
    seconds: float
    mean_batch_size: float
    labels: np.ndarray
    scores: np.ndarray

    @property
    def clips_per_sec(self) -> float:
        """Served clips per second of wall time."""
        return self.clips / self.seconds if self.seconds > 0 else float("inf")


def _run_mode(
    model: Module,
    image_size: int,
    images: np.ndarray,
    backend: str,
    batched: bool,
    max_batch: int,
    max_wait_ms: float,
) -> ModeResult:
    service = HotspotService.from_model(
        model,
        image_size,
        backend=backend,
        max_batch=max_batch if batched else 1,
        max_wait_ms=max_wait_ms if batched else 0.0,
    )
    with service:
        # warm the engine (first-invocation allocations, thread spin-up)
        # so the measurement reflects steady-state serving
        service.classify_many(list(images[:2]))
        service.metrics.reset()
        started = time.perf_counter()
        if batched:
            predictions = service.classify_many(list(images))
        else:
            predictions = [service.classify(image) for image in images]
        seconds = time.perf_counter() - started
        mean_batch = service.metrics.mean_batch_size
    return ModeResult(
        mode="batched" if batched else "single",
        backend=predictions[0].backend,
        clips=len(predictions),
        seconds=seconds,
        mean_batch_size=mean_batch,
        labels=np.array([p.label for p in predictions], dtype=np.int64),
        scores=np.array([p.score for p in predictions]),
    )


def measure_serving(
    model: Module,
    image_size: int,
    images: np.ndarray,
    max_batch: int = 64,
    max_wait_ms: float = 2.0,
) -> dict[str, ModeResult]:
    """Measure the four serving configurations on one clip set.

    ``images`` is a stack of square 0/1 rasters ``(n, s, s)`` at the
    model's input side.  Returns results keyed ``"single-float"``,
    ``"single-packed"``, ``"batched-float"``, ``"batched-packed"``.
    """
    results: dict[str, ModeResult] = {}
    for backend in ("float", "packed"):
        for batched in (False, True):
            result = _run_mode(
                model, image_size, images, backend, batched,
                max_batch, max_wait_ms,
            )
            results[f"{result.mode}-{result.backend}"] = result
    return results


def measure_cluster_serving(
    model: Module,
    image_size: int,
    images: np.ndarray,
    processes: int = 2,
    max_batch: int = 64,
) -> dict[str, ModeResult]:
    """Measure scale-out: one process vs a supervised worker fleet.

    The same saturated request set (all clips submitted at once, so
    admission can batch and fan out freely) is served twice:

    * ``"single-process"`` — the in-process :class:`HotspotService`
      with the packed engine, the best one-process configuration;
    * ``"cluster-<n>"`` — a :class:`ClusterService` fleet of
      ``processes`` worker processes behind the same API.

    Both results carry labels and scores so callers can assert the
    fleet invariant: scale-out changes requests/sec, never a
    prediction.  On a single-CPU host the cluster pays process and
    shared-memory overhead without gaining parallel compute — callers
    should gate speedup assertions on ``os.cpu_count()``.
    """
    from .cluster import ClusterService

    results: dict[str, ModeResult] = {}
    request_set = list(images)
    for mode, cls, knobs in (
        ("single-process", HotspotService, {}),
        (f"cluster-{processes}", ClusterService, {"processes": processes}),
    ):
        with cls.from_model(
            model, image_size, max_batch=max_batch, **knobs
        ) as service:
            service.classify_many(request_set[:2])  # warm-up (and fleet)
            started = time.perf_counter()
            predictions = service.classify_many(request_set)
            seconds = time.perf_counter() - started
        results[mode] = ModeResult(
            mode=mode, backend=predictions[0].backend,
            clips=len(predictions), seconds=seconds,
            mean_batch_size=float(min(max_batch, len(request_set))),
            labels=np.array([p.label for p in predictions], dtype=np.int64),
            scores=np.array([p.score for p in predictions]),
        )
    return results


def serving_table_rows(results: dict[str, ModeResult]) -> list[dict[str, object]]:
    """Paper-style table rows, with speedups vs single-request float."""
    baseline = results["single-float"].clips_per_sec
    rows = []
    for key in ("single-float", "single-packed", "batched-float", "batched-packed"):
        result = results[key]
        rows.append({
            "Serving mode": key,
            "Clips": result.clips,
            "Time (s)": round(result.seconds, 3),
            "Clips/s": round(result.clips_per_sec, 1),
            "Mean batch": round(result.mean_batch_size, 1),
            "Speedup": round(result.clips_per_sec / baseline, 2),
        })
    return rows
