"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re

import pytest

import run
from repro.litho.geometry import Clip, Rect
from repro.serve import HotspotService, ScanRequest
from spans import Instrumentation, Tracer, self_times
from workloads import ChipEco, ClassifyBurst, PlaneDense, small_network

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = {
    "plane-dense": PlaneDense(layout_nm=512, setups=2, checks=2),
    "chip-eco": ChipEco(chip_nm=8192, eco_batches=2, setups=2),
    "classify-burst": ClassifyBurst(hot_clips=8, cold_clips=64, setups=2,
                                    checks=8),
}


@pytest.fixture(scope="module")
def runs():
    """One untraced and one traced tiny run of every workload."""
    return {
        name: (run.run(w, seed=3, seconds=1.0, trace=False),
               run.run(w, seed=3, seconds=1.0, trace=True))
        for name, w in TINY.items()
    }


def test_metric_names_match_benchmark_json(runs):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(TINY)
    for name, (plain, traced) in runs.items():
        # the run measures exactly the listed metrics, no more, no less
        assert set(plain["e2e"]) == e2e
        assert set(traced["layers"]) == layers
        final = run.report(TINY[name], traced, trace=True)
        assert all(isinstance(m["value"], (int, float))
                   for m in final["metrics"].values())
    assert all(NAME.fullmatch(n) for n in e2e | layers)


def test_runs_are_correct_and_fail_nothing(runs):
    for name, pair in runs.items():
        for result in pair:
            assert result["failed"] == 0, name
            assert result["checks"] > 0, name
            assert result["e2e"]["windows_per_cpu_s"] > 0, name


def test_traced_and_untraced_outputs_match(runs):
    for name, (plain, traced) in runs.items():
        a, b = plain["outputs"], traced["outputs"]
        assert a["setup"] == b["setup"], name
        if a["scores"] is not None:
            # two clients interleave bursts: compare per clip
            shared = set(a["scores"]) & set(b["scores"])
            assert shared, name
            assert all(a["scores"][k] == b["scores"][k] for k in shared)
        else:
            common = min(len(a["ops"]), len(b["ops"]))
            assert common > 0, name
            assert a["ops"][:common] == b["ops"][:common], name


def test_traced_run_reports_every_layer(runs):
    _, traced = runs["chip-eco"]
    layers = traced["layers"]
    assert layers["chip.tiles"] > 0
    assert layers["serve.pool.shards"] > 0
    assert layers["litho.raster.calls"] > 0
    assert layers["chip.rescore_ratio"] == pytest.approx(1.0)
    assert layers["serve.registry.compile_ms"] > 0
    assert layers["trace.overhead_ratio"] > 0
    _, traced = runs["classify-burst"]
    assert traced["layers"]["serve.batcher.batches"] > 0
    assert traced["layers"]["serve.cache.raster_hit_ratio"] > 0


def _layout(size: int) -> Clip:
    layout = Clip(size)
    for x in range(8, size, 24):
        layout.add(Rect(x, 0, x + 9, size))
    return layout


def test_spans_nest_and_self_time_is_never_negative():
    tracer = Tracer()
    model = small_network()
    with Instrumentation(tracer):
        tracer.enabled = True
        with HotspotService.from_model(model, 32) as service:
            with tracer.span("bench.scan"):
                service.scan(ScanRequest(_layout(256), 64, 32))
            clips = [Clip(1024, _layout(s).rects) for s in (64, 128, 256)]
            with tracer.span("bench.classify"):
                service.classify_many(clips * 4)
        tracer.enabled = False
    spans, _ = tracer.take()
    by_id = {span.id: span for span in spans}
    names = {span.name for span in spans}
    assert {"serve.pool", "serve.pool.shard", "engine.logits",
            "serve.batcher", "engine.forward", "litho.raster"} <= names
    for span in spans:
        assert span.end >= span.start
        parent = by_id.get(span.parent)
        if parent is not None:
            assert parent.start <= span.start and span.end <= parent.end, (
                span.name, parent.name)
    assert min(self_times(spans).values()) >= 0.0


def test_exit_guard_trips_on_an_open_service():
    service = HotspotService.from_model(small_network(), 32)
    try:
        service.scan(ScanRequest(_layout(256), 64, 32))
        with pytest.raises(run.UncleanExit):
            run.assert_clean_exit()
    finally:
        service.close()
    run.assert_clean_exit()

