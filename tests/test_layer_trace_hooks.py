"""The raster entry points the benchmark's layer trace wraps.

``perfbench/spans.py`` records ``litho.raster.*`` spans by swapping
module attributes where callers bind the raster functions by name:
``repro.serve.cache.rasterize``, ``repro.serve.cache.rasterize_plane``
and ``repro.chip.scanner.rasterize_region``.  If a refactor renames
those bindings or routes around them, the trace goes silent without
any benchmark failing — these tests fail instead.
"""

from repro.chip import scanner
from repro.litho import raster
from repro.litho.geometry import Clip, Rect
from repro.serve import cache


def test_hooked_names_are_the_raster_functions():
    assert cache.rasterize is raster.rasterize
    assert cache.rasterize_plane is raster.rasterize_plane
    assert scanner.rasterize_region is raster.rasterize_region


def test_caches_rasterize_through_the_hooked_names(monkeypatch):
    calls = []

    def spy(name):
        real = getattr(cache, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(cache, name, wrapped)

    spy("rasterize")
    spy("rasterize_plane")
    clip = Clip(64, [Rect(8, 8, 40, 24)])
    cache.RasterCache().get(clip, 16)
    cache.PlaneCache().get(clip, 4.0)
    assert calls == ["rasterize", "rasterize_plane"]
