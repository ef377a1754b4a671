"""Experiment harness: cached benchmark data and detector evaluation.

Regenerating the synthetic ICCAD-2012-shaped benchmark costs tens of
seconds, so :func:`load_benchmark` caches generated datasets as ``.npz``
under a cache directory and every benchmark script shares them.

Default configuration (small enough for a single-core CI box) can be
overridden with environment variables:

* ``REPRO_BENCH_SCALE`` — Table 2 scale factor (default 0.05);
* ``REPRO_BENCH_IMAGE`` — dataset image side (default 64);
* ``REPRO_BENCH_EPOCHS`` — neural-detector training epochs (default 20);
* ``REPRO_CACHE_DIR`` — cache location (default ``~/.cache/repro-hotspot``).

``REPRO_BENCH_SCALE=1 REPRO_BENCH_IMAGE=128`` reproduces the paper's
full configuration given enough compute.

These knobs size the paper-table benchmarks under ``benchmarks/``.
Runtime is measured elsewhere: ``perfbench/run.py`` runs the workloads
declared in ``BENCHMARK.json`` and reads none of them.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from ..detect.base import HotspotDetector
from ..litho.benchmark import (
    BenchmarkStats,
    HotspotBenchmark,
    generate_iccad2012_like,
)
from ..nn.data import ArrayDataset

__all__ = [
    "bench_scale",
    "bench_image_size",
    "bench_epochs",
    "cache_dir",
    "load_benchmark",
    "run_detectors",
]


def bench_scale() -> float:
    """Benchmark Table 2 scale factor (env ``REPRO_BENCH_SCALE``)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))


def bench_image_size() -> int:
    """Benchmark image side (env ``REPRO_BENCH_IMAGE``)."""
    return int(os.environ.get("REPRO_BENCH_IMAGE", "64"))


def bench_epochs() -> int:
    """Neural-detector training epochs (env ``REPRO_BENCH_EPOCHS``)."""
    return int(os.environ.get("REPRO_BENCH_EPOCHS", "20"))


def cache_dir() -> Path:
    """Benchmark dataset cache directory (env ``REPRO_CACHE_DIR``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    path = Path(root) if root else Path.home() / ".cache" / "repro-hotspot"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cache_path(scale: float, image_size: int, seed: int, downsample: str) -> Path:
    return cache_dir() / f"iccad2012_s{scale:g}_i{image_size}_r{seed}_{downsample}.npz"


def load_benchmark(
    scale: float | None = None,
    image_size: int | None = None,
    seed: int = 2012,
    downsample: str = "binary",
    cache: bool = True,
) -> HotspotBenchmark:
    """Load (or generate and cache) an ICCAD-2012-shaped benchmark."""
    scale = scale if scale is not None else bench_scale()
    image_size = image_size if image_size is not None else bench_image_size()
    path = _cache_path(scale, image_size, seed, downsample)
    if cache and path.exists():
        with np.load(path) as archive:
            stats = BenchmarkStats(*(int(v) for v in archive["stats"]))
            return HotspotBenchmark(
                train=ArrayDataset(archive["train_images"], archive["train_labels"]),
                test=ArrayDataset(archive["test_images"], archive["test_labels"]),
                stats=stats,
                image_size=image_size,
            )
    benchmark = generate_iccad2012_like(
        scale=scale, image_size=image_size, seed=seed, downsample=downsample
    )
    if cache:
        np.savez_compressed(
            path,
            train_images=benchmark.train.images,
            train_labels=benchmark.train.labels,
            test_images=benchmark.test.images,
            test_labels=benchmark.test.labels,
            stats=np.array(
                [
                    benchmark.stats.train_hs,
                    benchmark.stats.train_nhs,
                    benchmark.stats.test_hs,
                    benchmark.stats.test_nhs,
                ]
            ),
        )
    return benchmark


def run_detectors(
    detectors: list[HotspotDetector],
    benchmark: HotspotBenchmark,
    seed: int = 0,
    litho_seconds: float = 10.0,
):
    """Train and evaluate each detector on the benchmark.

    Returns a list of :class:`~repro.detect.metrics.DetectionMetrics`,
    one per detector, in input order — the rows of Table 3.
    """
    results = []
    for detector in detectors:
        rng = np.random.default_rng(seed)
        results.append(
            detector.fit_evaluate(
                benchmark.train, benchmark.test, rng, litho_seconds=litho_seconds
            )
        )
    return results
