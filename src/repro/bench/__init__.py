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
from .stats import SeedSummary, bootstrap_ci, run_over_seeds, summarize_values
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
    "SeedSummary",
    "bootstrap_ci",
    "run_over_seeds",
    "summarize_values",
    "Stopwatch",
    "stopwatch",
]
