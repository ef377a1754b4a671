"""Tests for ASCII plotting."""

import numpy as np
import pytest

from repro.bench.plots import ascii_roc, bar_chart


class TestBarChart:
    def test_scaling_and_labels(self):
        chart = bar_chart({"a": 10.0, "bb": 5.0}, width=10)
        lines = chart.splitlines()
        assert lines[0].startswith("a ")
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_title_and_unit(self):
        chart = bar_chart({"x": 1.0}, title="T", unit="s")
        assert chart.splitlines()[0] == "T"
        assert chart.endswith("1s")

    def test_zero_values_ok(self):
        chart = bar_chart({"x": 0.0, "y": 0.0})
        assert "x" in chart

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bar_chart({"x": -1.0})

    def test_empty(self):
        assert bar_chart({}, title="t") == "t"


class TestAsciiRoc:
    def test_perfect_curve_reaches_top_left(self):
        fa = np.array([0.0, 0.0, 1.0])
        recall = np.array([0.0, 1.0, 1.0])
        art = ascii_roc(fa, recall, width=21, height=9)
        lines = art.splitlines()
        top_row = [line for line in lines if line.startswith("1.0 ")][0]
        assert "*" in top_row[:8]  # recall 1 at low FA

    def test_contains_axes_labels(self):
        art = ascii_roc(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert "false-alarm rate" in art
        assert "recall" in art

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ascii_roc(np.zeros(3), np.zeros(4))

