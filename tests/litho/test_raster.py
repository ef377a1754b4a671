"""Tests for clip rasterisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.litho import (
    Clip,
    Rect,
    rasterize,
    rasterize_plane,
    rasterize_region,
)
from repro.litho.raster import coverage_1d


class TestCoverage1D:
    def test_full_pixel(self):
        cov = coverage_1d(0.0, 4.0, 4, 1.0)
        np.testing.assert_allclose(cov, 1.0)

    def test_half_pixel(self):
        cov = coverage_1d(0.5, 1.0, 2, 1.0)
        np.testing.assert_allclose(cov, [0.5, 0.0])

    def test_spanning_fraction(self):
        cov = coverage_1d(0.25, 1.75, 2, 1.0)
        np.testing.assert_allclose(cov, [0.75, 0.75])


class TestRasterize:
    def test_aligned_rect_exact(self):
        clip = Clip(8, [Rect(2, 2, 6, 6)])
        image = rasterize(clip, 8, mode="area")
        assert image[2:6, 2:6].min() == 1.0
        assert image.sum() == pytest.approx(16.0)

    def test_area_preservation(self):
        """Total covered area survives rasterisation exactly (disjoint)."""
        clip = Clip(100, [Rect(3, 7, 45, 13), Rect(50, 50, 97, 93)])
        image = rasterize(clip, 64, mode="area")
        expected = sum(r.area for r in clip.rects) / 100**2
        assert image.mean() == pytest.approx(expected, abs=1e-12)

    def test_subpixel_features_keep_fraction(self):
        clip = Clip(64, [Rect(0, 0, 1, 64)])  # 1nm-wide sliver at 2nm/px
        image = rasterize(clip, 32, mode="area")
        np.testing.assert_allclose(image[:, 0], 0.5)

    def test_binary_mode_thresholds(self):
        clip = Clip(8, [Rect(0, 0, 8, 3)])  # covers 75% of bottom pixel row?
        image = rasterize(clip, 4, mode="binary")
        assert set(np.unique(image)) <= {0.0, 1.0}
        np.testing.assert_allclose(image[0], 1.0)  # fully covered row
        np.testing.assert_allclose(image[2], 0.0)

    def test_row_zero_is_bottom(self):
        clip = Clip(10, [Rect(0, 0, 10, 5)])  # lower half
        image = rasterize(clip, 10, mode="area")
        assert image[0].sum() == 10.0
        assert image[9].sum() == 0.0

    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError):
            rasterize(Clip(10), 10, mode="grayscale")

    def test_empty_clip_is_blank(self):
        assert not rasterize(Clip(10), 16).any()

    def test_overlaps_clamped(self):
        clip = Clip(10, [Rect(0, 0, 10, 10), Rect(2, 2, 8, 8)])
        image = rasterize(clip, 10, mode="area")
        assert image.max() == 1.0


@settings(max_examples=30, deadline=None)
@given(
    x0=st.integers(0, 50), y0=st.integers(0, 50),
    w=st.integers(1, 50), h=st.integers(1, 50),
)
def test_flip_raster_commutes_property(x0, y0, w, h):
    """Property: rasterise-then-flip == flip-then-rasterise."""
    clip = Clip(100, [Rect(x0, y0, x0 + w, y0 + h)])
    image = rasterize(clip, 50, mode="area")
    flipped = rasterize(clip.flip_horizontal(), 50, mode="area")
    np.testing.assert_allclose(flipped, image[:, ::-1], atol=1e-12)


class TestRasterizePlane:
    def _layout(self, size=256, seed=7, n=40):
        rng = np.random.default_rng(seed)
        layout = Clip(size)
        for _ in range(n):
            x0 = int(rng.integers(0, size - 8))
            y0 = int(rng.integers(0, size - 8))
            layout.add(Rect(x0, y0, x0 + int(rng.integers(3, 70)),
                            y0 + int(rng.integers(3, 40))))
        return layout

    @pytest.mark.parametrize("mode", ["area", "binary"])
    @pytest.mark.parametrize("scale", [1, 4])
    def test_window_slices_bit_identical(self, mode, scale):
        """Aligned plane slices equal per-window rasterization exactly."""
        from repro.serve.service import extract_window

        layout = self._layout()
        window = 32 * scale  # 32-pixel windows at this scale
        pixels = window // scale
        plane = rasterize_plane(layout, float(scale), mode)
        assert plane.shape == (layout.size // scale,) * 2
        last = layout.size - window
        for x, y in [(0, 0), (64, 0), (0, last), (last, last), (64, 128)]:
            direct = rasterize(extract_window(layout, x, y, window),
                               pixels, mode)
            px, py = x // scale, y // scale
            view = plane[py : py + pixels, px : px + pixels]
            np.testing.assert_array_equal(view, direct)

    def test_full_plane_matches_rasterize(self):
        """At scale = size/pixels the plane equals plain rasterize."""
        layout = self._layout(size=128)
        np.testing.assert_array_equal(
            rasterize_plane(layout, 2.0, "area"), rasterize(layout, 64, "area")
        )

    def test_validation(self):
        layout = self._layout(size=100)
        with pytest.raises(ValueError):
            rasterize_plane(layout, 3.0)  # 3 does not divide 100
        with pytest.raises(ValueError):
            rasterize_plane(layout, 0.0)
        with pytest.raises(ValueError):
            rasterize_plane(layout, 4.0, mode="grayscale")


class TestRasterizeRegion:
    """Region rasters vs monolithic plane slices — the tile contract."""

    def _layout(self, size=256, seed=13, n=60):
        rng = np.random.default_rng(seed)
        layout = Clip(size)
        for _ in range(n):
            x0 = int(rng.integers(0, size - 8))
            y0 = int(rng.integers(0, size - 8))
            layout.add(Rect(x0, y0, x0 + int(rng.integers(3, 90)),
                            y0 + int(rng.integers(3, 50))))
        return layout

    def _check(self, layout, region, scale, mode):
        from repro.litho.raster import rasterize_region

        plane = rasterize_plane(layout, scale, mode)
        tile = rasterize_region(list(layout.rects), region, scale, mode)
        np.testing.assert_array_equal(
            tile,
            plane[region.y0 // scale : region.y1 // scale,
                  region.x0 // scale : region.x1 // scale],
        )

    @pytest.mark.parametrize("mode", ["area", "binary"])
    @pytest.mark.parametrize("scale", [1, 4])
    def test_interior_region_matches_plane_slice(self, mode, scale):
        self._check(self._layout(), Rect(32, 64, 160, 192), scale, mode)

    @pytest.mark.parametrize("mode", ["area", "binary"])
    def test_rects_straddling_region_borders(self, mode):
        """Geometry crossing the tile edge is clipped bit-identically."""
        layout = Clip(128, [
            Rect(20, 20, 80, 28),    # enters from the left
            Rect(56, 0, 64, 128),    # crosses top-to-bottom
            Rect(30, 60, 100, 68),   # exits to the right
            Rect(48, 48, 80, 80),    # fully inside
            Rect(0, 0, 16, 16),      # fully outside (below-left)
        ])
        self._check(layout, Rect(32, 32, 96, 96), 4, mode)

    @pytest.mark.parametrize("mode", ["area", "binary"])
    def test_region_clipped_at_layout_boundary(self, mode):
        """Corner regions: rects clipped by the layout edge line up."""
        layout = self._layout()
        size = layout.size
        for region in [Rect(0, 0, 64, 64), Rect(size - 64, 0, size, 64),
                       Rect(0, size - 64, 64, size),
                       Rect(size - 64, size - 64, size, size)]:
            self._check(layout, region, 4, mode)

    def test_halo_overlap_consistency(self):
        """Overlapping tile regions agree on their shared pixels."""
        from repro.litho.raster import rasterize_region

        layout = self._layout()
        rects = list(layout.rects)
        left = rasterize_region(rects, Rect(0, 0, 160, 256), 4, "binary")
        right = rasterize_region(rects, Rect(96, 0, 256, 256), 4, "binary")
        np.testing.assert_array_equal(
            left[:, 96 // 4 :], right[:, : (160 - 96) // 4]
        )

    def test_rect_touching_border_contributes_nothing(self):
        """A rect ending exactly at the region edge changes no pixel."""
        from repro.litho.raster import rasterize_region

        region = Rect(64, 64, 128, 128)
        touching = [Rect(0, 0, 64, 64), Rect(128, 64, 192, 128),
                    Rect(64, 128, 128, 192)]
        empty = rasterize_region([], region, 4, "area")
        with_touching = rasterize_region(touching, region, 4, "area")
        np.testing.assert_array_equal(empty, with_touching)
        assert with_touching.sum() == 0.0

    def test_subpixel_fraction_preserved_inside_region(self):
        from repro.litho.raster import rasterize_region

        # a 2nm sliver at 4nm/px: half-covered pixels inside the region
        tile = rasterize_region([Rect(64, 0, 66, 128)],
                                Rect(64, 0, 128, 128), 4, "area")
        np.testing.assert_allclose(tile[:, 0], 0.5)
        np.testing.assert_allclose(tile[:, 1:], 0.0)

    def test_validation(self):
        from repro.litho.raster import rasterize_region

        with pytest.raises(ValueError):  # region not scale-aligned
            rasterize_region([], Rect(2, 0, 66, 64), 4)
        with pytest.raises(ValueError):
            rasterize_region([], Rect(0, 0, 64, 64), 0)
        with pytest.raises(ValueError):
            rasterize_region([], Rect(0, 0, 64, 64), 4, mode="grayscale")


def _oracle(rects, shape, scale, mode):
    """Independent reference: add one rectangle's outer product at a time.

    ``rects`` are ``(x0, y0, x1, y1)`` tuples in the image frame; each
    adds ``outer(cov_y, cov_x)`` over its pixel span, in list order.
    """
    image = np.zeros(shape)

    def span(lo, hi, first, last):
        edges = np.arange(first, last + 1) * scale
        left = np.clip(lo, edges[:-1], edges[1:])
        right = np.clip(hi, edges[:-1], edges[1:])
        return np.maximum(right - left, 0.0) / scale

    for x0, y0, x1, y1 in rects:
        px0 = max(int(x0 / scale), 0)
        px1 = min(int(np.ceil(x1 / scale)), shape[1])
        py0 = max(int(y0 / scale), 0)
        py1 = min(int(np.ceil(y1 / scale)), shape[0])
        if px1 > px0 and py1 > py0:
            image[py0:py1, px0:px1] += np.outer(
                span(y0, y1, py0, py1), span(x0, x1, px0, px1))
    np.clip(image, 0.0, 1.0, out=image)
    return (image > 0.5).astype(np.float64) if mode == "binary" else image


def _oracle_region(rects, region, scale, mode):
    """Clip to ``region`` and shift to its frame, then :func:`_oracle`."""
    local = []
    for r in rects:
        x0, y0 = max(r.x0, region.x0), max(r.y0, region.y0)
        x1, y1 = min(r.x1, region.x1), min(r.y1, region.y1)
        if x1 > x0 and y1 > y0:
            local.append((x0 - region.x0, y0 - region.y0,
                          x1 - region.x0, y1 - region.y0))
    shape = (round((region.y1 - region.y0) / scale),
             round((region.x1 - region.x0) / scale))
    return _oracle(local, shape, scale, mode)


_coord = st.one_of(st.integers(-20, 60),
                   st.floats(-20, 60, allow_nan=False, allow_infinity=False))
_extent = st.one_of(st.integers(1, 50), st.floats(0.01, 50))
_rect = st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h),
                  _coord, _coord, _extent, _extent)


@settings(max_examples=200, deadline=None)
@given(
    rects=st.lists(_rect, max_size=25),
    scale=st.sampled_from([1, 4, 3, 2.5, 0.7]),
    plane_pixels=st.integers(1, 24),
    clip_pixels=st.integers(1, 24),
    region=st.tuples(st.integers(-6, 12), st.integers(-6, 12),
                     st.integers(1, 20), st.integers(1, 20)),
    mode=st.sampled_from(["area", "binary"]),
    budget=st.sampled_from([None, 1, 5, 37]),
)
def test_raster_matches_per_rectangle_oracle(
    rects, scale, plane_pixels, clip_pixels, region, mode, budget
):
    """Property: every raster entry point equals the one-rectangle-at-a-
    time reference byte for byte — integer and float coordinates,
    non-dyadic scales, overlaps, rectangles off the image or region,
    empty lists.  ``budget`` shrinks the per-pass pixel budget so passes
    and row bands split at arbitrary points."""
    clip = Clip(plane_pixels * scale, rects)
    kx, ky, kw, kh = region
    region = Rect(kx * scale, ky * scale, (kx + kw) * scale, (ky + kh) * scale)
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr("repro.litho.raster._PASS_PIXELS", budget)
        image = rasterize(clip, clip_pixels, mode)
        plane = rasterize_plane(clip, scale, mode)
        tile = rasterize_region(rects, region, scale, mode)
    corners = [(r.x0, r.y0, r.x1, r.y1) for r in clip.rects]
    assert image.tobytes() == _oracle(
        corners, (clip_pixels,) * 2, clip.size / clip_pixels, mode).tobytes()
    assert plane.tobytes() == _oracle(
        corners, (plane_pixels,) * 2, scale, mode).tobytes()
    assert tile.tobytes() == _oracle_region(
        rects, region, scale, mode).tobytes()
