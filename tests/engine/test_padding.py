"""The served engine and the scanners pad without ``np.pad``.

Every border pad on these paths goes through
:func:`repro.nn.functional.pad2d`, which skips ``np.pad``'s per-call
setup (tens of µs, paid by every conv of a small engine call).  Each
test here makes ``numpy.pad`` raise and then drives one served entry
point on both backends, so a pad that slips back in fails loudly.
"""

import numpy as np
import pytest

from repro.binary.inference import ProgramEngine
from repro.chip import ChipScanner
from repro.features.downsample import to_network_input
from repro.litho.fullchip import synthesize_chip, synthesize_edit_trace
from repro.litho.raster import rasterize_plane

from ..chip.test_scanner import (
    BUDGET,
    IMAGE,
    SCALE,
    STRIDE,
    WINDOW,
    warmed_model,
)


@pytest.fixture(scope="module")
def model():
    return warmed_model()


@pytest.fixture(params=["packed", "float"])
def engine(request, model, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.pad called on a served path")

    monkeypatch.setattr(np, "pad", refuse)
    return ProgramEngine(model, request.param)


@pytest.fixture(scope="module")
def layout():
    return synthesize_chip(2048, seed=4)


def test_forward(engine):
    rng = np.random.default_rng(0)
    x = (rng.random((3, 1, IMAGE, IMAGE)) > 0.5) * 2.0 - 1.0
    assert engine.forward(x).shape == (3, 2)


def test_plane_scan_plan(engine, layout):
    plane = to_network_input(rasterize_plane(layout, SCALE, "binary")[None])
    side = plane.shape[-1]
    origins = [(x, y) for y in range(0, side - IMAGE + 1, IMAGE // 2)
               for x in range(0, side - IMAGE + 1, IMAGE // 2)]
    logits = engine.plan_scan(plane, IMAGE, origins).logits()
    assert logits.shape == (len(origins), 2)


def test_chip_scan_and_rescan(engine, layout):
    scanner = ChipScanner(engine, IMAGE)
    result = scanner.scan(layout, WINDOW, STRIDE, BUDGET)
    edits = synthesize_edit_trace(layout, 4, seed=2)
    rescanned = scanner.rescan(result, edits)
    assert result.tiles > 1
    assert rescanned.rescored_windows > 0
