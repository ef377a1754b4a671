"""Outside-in layer trace: spans recorded around calls into each layer.

Nothing under ``src/`` is edited.  :class:`Instrumentation` swaps the
public functions of each layer for thin wrappers while it is active and
puts the originals back on exit.  Functions that callers import by name
(``rasterize`` and friends) are wrapped where those callers bind them
(``repro.serve.cache``, ``repro.chip.scanner``), not in
``repro.litho.raster``, or the wrapper would never run.

A span is one call: layer name, start, end, and the span that caused it.
Spans of one benchmark operation share its root id.  Parents follow the
calling thread's stack, and cross into worker threads where the
benchmark can see the hand-off: pool shards are parented to the
``map_shards_tolerant`` call that ran them, and a classify request's
life in the micro-batcher is parented to the ``classify_many`` call
that submitted it.  A span's *self time* is its duration minus the part
of it that its direct children cover.

The tracer is off unless ``enabled`` is set; when off, each wrapper
costs one attribute test.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

__all__ = ["Span", "Tracer", "Instrumentation", "self_times",
           "uncovered_ms", "layer_metrics", "OP_NAMES"]

#: Engine ops reported as ``engine.op.<op>_ms``: the residual stages 1
#: and 2, which carry most of the op time on both benchmark networks and
#: exist in both.
OP_NAMES = (
    "1.main.0.conv", "1.main.1.conv", "1.shortcut.conv",
    "2.main.0.conv", "2.main.1.conv", "2.shortcut.conv",
)


@dataclass
class Span:
    """One timed call into a layer (times are ``perf_counter`` seconds)."""

    id: int
    name: str
    parent: int | None
    root: int
    start: float
    end: float = 0.0
    #: direct children opened from the same thread while this span ran
    children: int = 0
    #: work units the call handled (windows, clips), when it has any
    units: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; thread-safe, off by default."""

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans: list[Span] = []
        #: free-form observations keyed by metric (queue waits, ...)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def inside(self, name: str) -> bool:
        """Whether the calling thread is inside an open ``name`` span."""
        return any(span.name == name for span in self._stack())

    def open(self, name: str, parent: Span | None = None,
             start: float | None = None) -> Span:
        """Start a span (default parent: the calling thread's top span)."""
        if parent is None:
            parent = self.current()
        if parent is not None:
            parent.children += 1
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(
            id=span_id, name=name,
            parent=None if parent is None else parent.id,
            root=span_id if parent is None else parent.root,
            start=time.perf_counter() if start is None else start,
        )

    def close(self, span: Span, end: float | None = None) -> None:
        """Finish a span and keep it."""
        span.end = time.perf_counter() if end is None else end
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, parent: Span | None = None):
        """Context manager: a span pushed on the calling thread's stack."""
        return _SpanScope(self, name, parent)

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def take(self) -> tuple[list[Span], dict[str, list[float]]]:
        """Return and clear everything recorded so far."""
        with self._lock:
            spans, self.spans = self.spans, []
            samples, self.samples = self.samples, defaultdict(list)
        return spans, dict(samples)


class _SpanScope:
    __slots__ = ("tracer", "name", "parent", "span")

    def __init__(self, tracer: Tracer, name: str, parent: Span | None):
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.span: Span | None = None

    def __enter__(self) -> Span:
        self.span = self.tracer.open(self.name, self.parent)
        self.tracer._stack().append(self.span)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.tracer._stack().pop()
        self.tracer.close(self.span)


class Instrumentation:
    """Wrap each layer's public functions with spans while active.

    Use as a context manager; the originals are restored on exit even
    when the body raises.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        tracer = self.tracer
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def __enter__(self) -> "Instrumentation":
        from repro.binary.inference import PlaneScanPlan, ProgramEngine
        from repro.chip import scanner as chip_scanner
        from repro.serve import batcher, cache, pool, registry

        tracer = self.tracer

        def rows(span, args, result):
            span.units = int(result.shape[0])
            if tracer.inside("chip.rescan"):
                tracer.sample("chip.rescan_scored", span.units)

        def note_peak(span, args, result):
            tracer.sample("chip.peak_tile_bytes", args[0].peak_tile_bytes)

        def note_rescored(span, args, result):
            tracer.sample("chip.rescan_dirty", result.rescored_windows or 0)

        for module, attr in ((cache, "rasterize"), (cache, "rasterize_plane"),
                             (chip_scanner, "rasterize_region")):
            self._wrap(module, attr, "litho.raster")
        self._wrap(cache.RasterCache, "get", "serve.cache.raster")
        self._wrap(cache.PlaneCache, "get", "serve.cache.plane")
        self._wrap(cache.PlaneCache, "get_chip_tile", "serve.cache.chip_tile")
        self._wrap(registry.ModelRegistry, "register", "serve.registry")
        self._wrap(ProgramEngine, "plan_scan", "engine.plan")
        self._wrap(PlaneScanPlan, "logits", "engine.logits", rows)
        self._wrap(ProgramEngine, "forward", "engine.forward", self._forward)
        self._wrap(ProgramEngine, "predict_logits", "engine.predict", rows)
        self._wrap(chip_scanner.ChipScanner, "compile", "chip.compile")
        self._wrap(chip_scanner.ChipScanJob, "score_tile", "chip.score_tile",
                   note_peak)
        self._wrap(chip_scanner.ChipScanner, "rescan", "chip.rescan",
                   note_rescored)
        self._patch_submit(batcher.MicroBatcher)
        self._patch_pool(pool.WorkerPool)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _forward(self, span: Span, args, result) -> None:
        # runs on the batcher thread; the requests of this batch are
        # resolved right after, and read the batch's engine interval
        span.units = int(result.shape[0])
        self.tracer._local.last_batch = (span.start, time.perf_counter())

    def _patch_submit(self, cls) -> None:
        """Span each request from submit to the end of its batch."""
        tracer = self.tracer
        original = cls.submit

        @functools.wraps(original)
        def submit(batcher_self, x, timeout=None):
            if not tracer.enabled:
                return original(batcher_self, x, timeout)
            request = tracer.open("serve.batcher")
            with tracer.span("serve.batcher.submit", parent=request):
                future = original(batcher_self, x, timeout)

            def resolved(done):
                batch = getattr(tracer._local, "last_batch", None)
                if done.cancelled() or done.exception() is not None \
                        or batch is None or batch[0] < request.start:
                    tracer.close(request)
                    return
                # the request ends with its batch's engine call, which
                # the caller always observes before classify returns
                tracer.close(request, end=batch[1])
                tracer.sample("serve.batcher.queue_wait_ms",
                              (batch[0] - request.start) * 1e3)

            future.add_done_callback(resolved)
            return future

        self._patches.append((cls, "submit", original))
        cls.submit = submit

    def _patch_pool(self, cls) -> None:
        """Span the shard map and each shard on its worker thread."""
        tracer = self.tracer
        original = cls.map_shards_tolerant

        @functools.wraps(original)
        def map_shards_tolerant(pool_self, fn, items, *args, **kwargs):
            if not tracer.enabled:
                return original(pool_self, fn, items, *args, **kwargs)
            with tracer.span("serve.pool") as map_span:
                # a map's units are its workers: idle share needs them
                map_span.units = pool_self.workers

                def shard(sub):
                    with tracer.span("serve.pool.shard", parent=map_span):
                        return fn(sub)

                outcomes = original(pool_self, shard, items, *args, **kwargs)
            tracer.sample("serve.pool.shard_retries",
                          sum(outcome.retries for outcome in outcomes))
            return outcomes

        self._patches.append((cls, "map_shards_tolerant", original))
        cls.map_shards_tolerant = map_shards_tolerant


def _covered(intervals: Iterable[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            out[span.parent].append(span)
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self time in seconds (never negative)."""
    children = _children(spans)
    return {
        span.id: span.duration - _covered(
            ((c.start, c.end) for c in children.get(span.id, ())),
            span.start, span.end,
        )
        for span in spans
    }


def uncovered_ms(spans: list[Span], roots: set[str]) -> float:
    """Wall time of the ``roots`` spans that no descendant span covers."""
    children = _children(spans)
    total = 0.0
    for root in spans:
        if root.name not in roots:
            continue
        intervals, todo = [], list(children.get(root.id, ()))
        while todo:
            span = todo.pop()
            intervals.append((span.start, span.end))
            todo.extend(children.get(span.id, ()))
        total += root.duration - _covered(intervals, root.start, root.end)
    return total * 1e3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], samples: dict[str, list[float]],
                  roots: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced phase (engine ops excluded)."""
    own = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    units: dict[str, int] = defaultdict(int)
    misses: dict[str, int] = defaultdict(int)
    for span in spans:
        busy[span.name] += own[span.id] * 1e3
        calls[span.name] += 1
        units[span.name] += span.units
        if span.name.startswith("serve.cache.") and span.children:
            misses[span.name] += 1

    def hit_ratio(name: str) -> float:
        return _ratio(calls[name] - misses[name], calls[name])

    shards = [s for s in spans if s.name == "serve.pool.shard"]
    maps = [s for s in spans if s.name == "serve.pool"]
    shard_ms = sum(s.duration for s in shards) * 1e3
    capacity_ms = sum(s.duration * s.units for s in maps) * 1e3
    waits = sorted(samples.get("serve.batcher.queue_wait_ms", ()))
    dirty = sum(samples.get("chip.rescan_dirty", ()))
    scored = sum(samples.get("chip.rescan_scored", ()))
    return {
        "litho.raster.busy_ms": busy["litho.raster"],
        "litho.raster.calls": calls["litho.raster"],
        "serve.cache.raster_hit_ratio": hit_ratio("serve.cache.raster"),
        "serve.cache.plane_hit_ratio": hit_ratio("serve.cache.plane"),
        "serve.cache.chip_tile_hit_ratio": hit_ratio("serve.cache.chip_tile"),
        "serve.batcher.batches": calls["engine.forward"],
        "serve.batcher.mean_batch": _ratio(units["engine.forward"],
                                           calls["engine.forward"]),
        "serve.batcher.queue_wait_p50_ms": (
            waits[len(waits) // 2] if waits else 0.0
        ),
        "serve.pool.shards": len(shards),
        "serve.pool.busy_ms": shard_ms,
        "serve.pool.idle_share": (
            max(0.0, 1.0 - shard_ms / capacity_ms) if capacity_ms else 0.0
        ),
        "serve.pool.shard_retries": sum(
            samples.get("serve.pool.shard_retries", ())
        ),
        "engine.plan_ms": busy["engine.plan"],
        "engine.logits_ms": busy["engine.logits"],
        "engine.forward_ms": busy["engine.forward"],
        "engine.predict_ms": busy["engine.predict"],
        "engine.windows": (units["engine.logits"] + units["engine.forward"]
                           + units["engine.predict"]),
        "chip.compile_ms": busy["chip.compile"],
        "chip.score_tile_ms": busy["chip.score_tile"],
        "chip.tiles": calls["chip.score_tile"],
        "chip.peak_tile_bytes": max(
            samples.get("chip.peak_tile_bytes", ()), default=0
        ),
        "chip.rescan_ms": busy["chip.rescan"],
        "chip.rescore_ratio": _ratio(dirty, scored),
        "trace.unattributed_ms": uncovered_ms(spans, roots),
    }
