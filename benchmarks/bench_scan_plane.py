"""Dense synthetic layout for full-layout scan workloads.

:func:`dense_layout` builds a dense metal layer (pitch-16 wire grating,
horizontal straps and a contact farm — ~14k rectangles at a 2048 nm
clip).  ``perfbench``'s plane-dense workload scans it; the plane scan's
speed is measured there (``perfbench/run.py``, declared in
``BENCHMARK.json``), and its bit-identity and operation counts are
asserted in ``tests/serve/test_service.py``.
"""

import numpy as np

from repro.litho.geometry import Clip, Rect


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
