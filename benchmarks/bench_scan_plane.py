"""Full-layout scan — plane-compiled engine vs per-window baseline.

The plane scan engine's claim: rasterizing the layout once and running
the stem fully-convolutionally amortizes everything the per-window path
repeats for every origin — geometry extraction (O(total rects) per
window), rasterization, cache-key hashing and the stem convolution —
while staying **bit-identical** to the per-window scan.

Measured here on a dense synthetic metal layer (pitch-16 wire grating,
horizontal straps and a contact farm — ~14k rectangles at the default
2048nm clip) scanned at window 128 / stride 64 through the serving
front door, so both paths pay their true deployment cost.

Asserted directions:

* plane-path windows/sec  >=  ``REPRO_BENCH_SCAN_MIN_SPEEDUP`` x the
  per-window path (default 3.0; CI quick mode lowers the bar because
  tiny layouts leave nothing to amortize);
* the two scan reports are **bit-identical** — same hits, same scores;
* the tiled lowering keeps the packed-column buffer bounded (peak
  tracked and published, must stay under 64 MiB).

Writes ``BENCH_scan.json`` at the repo root with the headline numbers.
"""

import os
import time
from pathlib import Path

import numpy as np

from repro.bench import format_table, write_bench_json
from repro.binary import bitpack
from repro.litho.geometry import Clip, Rect
from repro.models.bnn_resnet import build_bnn_resnet
from repro.serve import HotspotService, ScanRequest

from conftest import publish

REPO_ROOT = Path(__file__).resolve().parent.parent

WINDOW = 128
STRIDE = 64
IMAGE_SIZE = 128  # window px == image px: scale-1 rasters
WORKERS = 4


def scan_layout_size() -> int:
    """Layout side in nm (override for CI quick mode)."""
    return int(os.environ.get("REPRO_BENCH_SCAN_SIZE", "2048"))


def min_speedup() -> float:
    """Acceptance bar for plane/per-window windows-per-second."""
    return float(os.environ.get("REPRO_BENCH_SCAN_MIN_SPEEDUP", "3.0"))


def dense_layout(size: int, seed: int = 0) -> Clip:
    """Dense synthetic metal layer: grating + straps + contact farm."""
    rng = np.random.default_rng(seed)
    layout = Clip(size)
    for x in range(8, size, 16):  # pitch-16 vertical wires, segmented
        for seg in range(0, size, 128):
            if rng.random() < 0.85:
                layout.add(Rect(x, seg + 4, x + 7, seg + 120))
    for y in range(12, size, 32):  # sparser horizontal straps
        for seg in range(0, size, 256):
            if rng.random() < 0.6:
                layout.add(Rect(seg + 8, y, seg + 240, y + 6))
    for _ in range(size * 6):  # contact farm
        x0, y0 = rng.integers(0, size - 12, 2)
        layout.add(Rect(int(x0), int(y0), int(x0) + 8, int(y0) + 8))
    return layout


def _timed_scan(service, request):
    start = time.perf_counter()
    report = service.scan(request)
    return report, time.perf_counter() - start


def test_scan_plane_speedup(monkeypatch):
    """Plane-compiled scan vs per-window scan through the service."""
    size = scan_layout_size()
    layout = dense_layout(size)
    model = build_bnn_resnet(
        (8, 16, 32, 64), scaling="xnor", seed=0, stem_stride=2
    )
    request = ScanRequest(layout, window=WINDOW, stride=STRIDE)

    with HotspotService.from_model(model, IMAGE_SIZE,
                                   workers=WORKERS) as service, \
            monkeypatch.context() as patch:
        patch.setattr("repro.serve.service.plane_scan_scale",
                      lambda *args: None)  # force per-window
        baseline, baseline_s = _timed_scan(service, request)

    # track the peak packed-column buffer while the plane path runs
    peak = {"bytes": 0}
    original = bitpack._pack_activation_columns

    def tracking(*args, **kwargs):
        cols = original(*args, **kwargs)
        peak["bytes"] = max(peak["bytes"], cols.nbytes)
        return cols

    bitpack._pack_activation_columns = tracking
    try:
        with HotspotService.from_model(model, IMAGE_SIZE,
                                       workers=WORKERS) as service:
            plane, plane_s = _timed_scan(service, request)
            stats = service.stats()
    finally:
        bitpack._pack_activation_columns = original

    windows = plane.windows_scanned
    baseline_wps = windows / baseline_s
    plane_wps = windows / plane_s
    speedup = plane_wps / baseline_wps
    peak_mib = peak["bytes"] / 2**20
    identical = plane.hits == baseline.hits

    publish("scan_plane", format_table(
        [{
            "Path": "per-window",
            "Wall clock (s)": round(baseline_s, 2),
            "Windows/sec": round(baseline_wps, 1),
            "Speedup": "1.0x",
        }, {
            "Path": "plane-compiled",
            "Wall clock (s)": round(plane_s, 2),
            "Windows/sec": round(plane_wps, 1),
            "Speedup": f"{speedup:.2f}x",
        }],
        title=(f"Full-layout scan — {size}nm clip, {len(layout.rects)} "
               f"rects, {windows} windows @ stride {STRIDE} "
               f"(bit-identical: {identical}, "
               f"peak cols buffer {peak_mib:.1f} MiB)"),
    ))

    write_bench_json(REPO_ROOT / "BENCH_scan.json", {
        "layout_size_nm": size,
        "rects": len(layout.rects),
        "window": WINDOW,
        "stride": STRIDE,
        "image_size": IMAGE_SIZE,
        "workers": WORKERS,
        "windows": windows,
        "per_window_s": round(baseline_s, 3),
        "plane_s": round(plane_s, 3),
        "per_window_wps": round(baseline_wps, 1),
        "plane_wps": round(plane_wps, 1),
        "speedup": round(speedup, 2),
        "identical": identical,
        "peak_cols_mib": round(peak_mib, 2),
    })

    # the plane path is a silent drop-in: reports must be bit-identical
    assert identical
    assert plane.windows_scanned == baseline.windows_scanned
    assert stats["plane_scan_requests_total"] == 1
    # the tiled lowering keeps the column buffer bounded
    assert peak_mib < 64
    # the acceptance bar (env-lowered in CI quick mode)
    assert speedup >= min_speedup()
