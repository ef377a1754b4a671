"""Benchmark harness: cached dataset loading, detector evaluation and
paper-style table formatting."""

from .harness import (
    bench_epochs,
    bench_image_size,
    bench_scale,
    cache_dir,
    load_benchmark,
    run_detectors,
)
from .plots import ascii_roc, bar_chart
from .tables import format_table
from .timing import Stopwatch, stopwatch

__all__ = [
    "bench_epochs",
    "bench_image_size",
    "bench_scale",
    "cache_dir",
    "load_benchmark",
    "run_detectors",
    "format_table",
    "ascii_roc",
    "bar_chart",
    "Stopwatch",
    "stopwatch",
]
