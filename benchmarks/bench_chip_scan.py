"""Full-chip streaming scan — bounded memory + incremental ECO re-scan.

The chip subsystem's two claims, measured:

* **Streaming bounds memory without costing correctness.**  A
  :class:`repro.chip.ChipScanner` sweep under a small ``tile_budget``
  must produce scores bit-identical to a monolithic
  ``rasterize_plane`` + ``scan_plane`` of the whole chip, while its
  peak tile plane stays within budget — a fraction of the monolithic
  plane's footprint.
* **Re-scan cost scales with the edit, not the chip.**  After a small
  ECO edit trace (dirtying < 1% of windows), an incremental
  :meth:`rescan` must match a from-scratch scan of the edited layout
  bit-for-bit while running at least
  ``REPRO_BENCH_CHIP_MIN_ECO_SPEEDUP`` x faster (default 10) than the
  full streamed sweep.

Environment knobs: ``REPRO_BENCH_CHIP_SIZE`` (chip side in nm, default
16384; CI quick mode shrinks it) and the speedup bar above.

Writes ``BENCH_chip.json`` at the repo root with the headline numbers
(standard provenance envelope under ``"env"``).
"""

import os
import time
from pathlib import Path

import numpy as np

from repro.bench import format_table, write_bench_json
from repro.chip import ChipScanner, DirtyRegionTracker
from repro.features.downsample import to_network_input
from repro.litho.fullchip import (
    apply_edits,
    synthesize_chip,
    synthesize_edit_trace,
)
from repro.litho.geometry import Rect
from repro.litho.raster import rasterize_plane
from repro.models.bnn_resnet import build_bnn_resnet

from conftest import publish

REPO_ROOT = Path(__file__).resolve().parent.parent

WINDOW = 1024
STRIDE = 512
IMAGE_SIZE = 32  # scale 32: one plane pixel per 32nm


def chip_size() -> int:
    """Chip side in nm (override for CI quick mode)."""
    return int(os.environ.get("REPRO_BENCH_CHIP_SIZE", "16384"))


def min_eco_speedup() -> float:
    """Acceptance bar for full-scan / re-scan wall clock on small edits."""
    return float(os.environ.get("REPRO_BENCH_CHIP_MIN_ECO_SPEEDUP", "10.0"))


def _warmed_engine():
    model = build_bnn_resnet((4, 8), scaling="xnor", seed=7)
    rng = np.random.default_rng(99)
    x = (rng.random((8, 1, IMAGE_SIZE, IMAGE_SIZE)) > 0.5) * 2.0 - 1.0
    model.forward(x, training=True)
    from repro.binary.inference import ProgramEngine

    return ProgramEngine(model)


def test_chip_scan_streaming_and_eco():
    size = chip_size()
    scale = WINDOW // IMAGE_SIZE
    layout = synthesize_chip(size, seed=7)
    engine = _warmed_engine()
    scanner = ChipScanner(engine, IMAGE_SIZE)
    # budget: ~1/4 of the chip side per tile -> a 4x4-ish tile grid,
    # floored at one window so tiny quick-mode chips still plan
    budget = max((2 * WINDOW // scale) ** 2 * 8,
                 (size // scale // 4) ** 2 * 8)

    start = time.perf_counter()
    streamed = scanner.scan(layout, WINDOW, STRIDE, budget)
    streamed_s = time.perf_counter() - start
    windows = streamed.windows
    streamed_wps = windows / streamed_s

    # monolithic reference: whole chip as one plane, one compiled scan
    start = time.perf_counter()
    plane = to_network_input(
        rasterize_plane(layout, scale, "binary")[None]
    )
    mono_bytes = plane.nbytes
    steps = streamed.heatmap.steps
    origins = [(x // scale, y // scale) for y in steps for x in steps]
    logits = engine.scan_plane(plane, IMAGE_SIZE, origins)
    mono_s = time.perf_counter() - start
    mono_scores = (logits[:, 1] - logits[:, 0]).reshape(
        len(steps), len(steps)
    )
    identical = bool(
        np.array_equal(streamed.heatmap.scores, mono_scores)
    )

    # ECO: small edit traces confined to one corner of the chip
    region = Rect(0, 0, max(WINDOW * 2, size // 8), max(WINDOW * 2, size // 8))
    tracker = DirtyRegionTracker(list(steps), WINDOW)
    eco_rows = []
    eco_results = []
    previous = streamed
    base_layout = layout
    for n_edits in (1, 4, 16):
        edits = synthesize_edit_trace(
            base_layout, n_edits, seed=100 + n_edits, region=region
        )
        fraction = tracker.dirty_fraction(edits)
        start = time.perf_counter()
        rescanned = scanner.rescan(previous, edits)
        rescan_s = time.perf_counter() - start
        edited = apply_edits(base_layout, edits)
        scratch = ChipScanner(engine, IMAGE_SIZE).scan(
            edited, WINDOW, STRIDE, budget
        )
        eco_results.append({
            "edits": n_edits,
            "dirty_windows": rescanned.rescored_windows,
            "dirty_fraction": round(fraction, 5),
            "rescan_s": round(rescan_s, 4),
            "speedup_vs_full": round(streamed_s / rescan_s, 1),
            "identical": rescanned.heatmap.equals(scratch.heatmap),
        })
        eco_rows.append({
            "Edits": n_edits,
            "Dirty windows": rescanned.rescored_windows,
            "Dirty %": f"{100 * fraction:.2f}",
            "Re-scan (s)": round(rescan_s, 4),
            "vs full scan": f"{streamed_s / rescan_s:.0f}x",
            "Bit-identical": eco_results[-1]["identical"],
        })
        previous = rescanned
        base_layout = edited

    publish("chip_scan", format_table(
        [{
            "Path": "monolithic plane",
            "Wall clock (s)": round(mono_s, 2),
            "Windows/sec": round(windows / mono_s, 1),
            "Peak plane (MiB)": round(mono_bytes / 2**20, 2),
        }, {
            "Path": f"streamed ({streamed.tiles} tiles)",
            "Wall clock (s)": round(streamed_s, 2),
            "Windows/sec": round(streamed_wps, 1),
            "Peak plane (MiB)": round(streamed.peak_tile_bytes / 2**20, 2),
        }],
        title=(f"Full-chip scan — {size}nm chip, "
               f"{len(layout.rects)} rects, {windows} windows "
               f"(bit-identical: {identical})"),
    ) + "\n" + format_table(
        eco_rows, title="Incremental ECO re-scan vs edit size",
    ))

    write_bench_json(REPO_ROOT / "BENCH_chip.json", {
        "chip_size_nm": size,
        "rects": len(layout.rects),
        "window": WINDOW,
        "stride": STRIDE,
        "image_size": IMAGE_SIZE,
        "windows": windows,
        "tiles": streamed.tiles,
        "tile_budget_bytes": budget,
        "peak_tile_bytes": streamed.peak_tile_bytes,
        "monolithic_plane_bytes": mono_bytes,
        "memory_ratio": round(streamed.peak_tile_bytes / mono_bytes, 4),
        "streamed_s": round(streamed_s, 3),
        "streamed_wps": round(streamed_wps, 1),
        "monolithic_s": round(mono_s, 3),
        "identical": identical,
        "eco": eco_results,
    })

    # streaming is a memory shape, never a numerics change
    assert identical
    # the budget actually bound the peak tile plane (and beat monolithic)
    assert streamed.peak_tile_bytes <= budget
    assert streamed.peak_tile_bytes < mono_bytes
    assert streamed.tiles > 1
    # every re-scan is bit-identical to scanning the edited chip fresh
    assert all(row["identical"] for row in eco_results)
    # small edits (<1% of windows) must beat the full sweep by the bar
    small = [row for row in eco_results if row["dirty_fraction"] < 0.01]
    assert small, "no edit trace stayed under 1% dirty — enlarge the chip"
    assert all(
        row["speedup_vs_full"] >= min_eco_speedup() for row in small
    )
