"""Run one benchmark workload through ``repro.serve.HotspotService``.

From the repository root::

    python3 perfbench/run.py --workload plane-dense --seed 1 --seconds 20 --trace 0

Workloads: ``plane-dense``, ``chip-eco``, ``classify-burst`` (see
``workloads.py``).  The run builds its inputs from ``--seed``, sets the
service up several times (``setup_s`` is the median), measures for
``--seconds`` and checks sampled outputs bit for bit against the
``float`` backend.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The end-to-end metrics are read on the process CPU clock (all threads),
which leaves out the time a shared VM's hypervisor gives to other
tenants; wall time swings with that share from run to run.  On an idle
host the two agree for the serial operations (a chip ECO re-scan with
one scan worker, one open-loop classify call); a plane scan's two
workers spend about twice its wall time.  Wall-clock figures are
printed beside them (``wall`` line).

* ``setup_s`` — CPU seconds to build the service, register the model
  (engine compile) and warm up until the first result returns; median
  over the run's setups.
* ``windows_per_cpu_s`` — windows (clips on ``classify-burst``) scored
  per CPU second, over all plane scans, chip sweeps, or saturated
  classify blocks of the run.
* ``op_cpu_p50_ms`` / ``op_cpu_p90_ms`` — CPU ms per plane scan, per
  ``rescan_chip`` call, or per open-loop ``classify_many`` call.
* ``peak_rss_mib`` — peak resident memory of the run.

``--trace 0`` reports the end-to-end metrics, measured with no tracing
installed.  ``--trace 1`` reports the per-layer metrics instead: the
measured seconds are split into an untraced half and a traced half of
the same workload, and ``trace.overhead_ratio`` is the untraced over the
traced ``windows_per_cpu_s``, i.e. traced over untraced CPU per window.

Load comes from this one process, with at most two client threads, and
only the in-process service is used.  Before printing its result the
run checks that no child process and no non-daemon thread other than
the main one is still alive; if one is, it exits with status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(HERE)]

#: BLAS runs single-threaded: the service brings its own worker threads,
#: and BLAS threads on top of them would outnumber the CPUs.  Set before
#: NumPy loads, whatever the caller's environment says.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def fix_malloc() -> bool:
    """Pin glibc malloc's mmap and trim thresholds; True if it took.

    By default glibc raises its mmap threshold the first time a large
    mmapped block is freed, so whether later tile planes and engine
    buffers come from the heap or from fresh zeroed pages depends on the
    order in which threads happened to free them.  Runs of the same
    code then fall into two groups about 10% apart in CPU per window
    (and 7 MiB apart in peak RSS on ``chip-eco``).  Fixed thresholds
    serve every block below 32 MiB from a heap that is not trimmed, as
    the raised threshold would.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 32 << 20)
                and libc.mallopt(m_trim_threshold, 512 << 20))


MALLOC_FIXED = fix_malloc()

import numpy as np  # noqa: E402

from repro.engine.backends import compiled  # noqa: E402
from spans import OP_NAMES, Instrumentation, Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Clock, Phase, Reference, Run, digest,
)

#: what the generic end-to-end names mean on each workload
ALIASES = {
    "plane-dense": {"op_cpu_p50_ms": "scan_cpu_p50_ms",
                    "op_cpu_p90_ms": "scan_cpu_p90_ms"},
    "chip-eco": {"op_cpu_p50_ms": "eco_cpu_p50_ms",
                 "op_cpu_p90_ms": "eco_cpu_p90_ms"},
    "classify-burst": {"windows_per_cpu_s": "clips_per_cpu_s",
                       "op_cpu_p50_ms": "classify_cpu_p50_ms",
                       "op_cpu_p90_ms": "classify_cpu_p90_ms"},
}


class UncleanExit(RuntimeError):
    """A child process or non-daemon thread outlived the run."""


def assert_clean_exit() -> None:
    """Raise :class:`UncleanExit` if anything the run started is alive."""
    children = multiprocessing.active_children()
    threads = [t.name for t in threading.enumerate()
               if t is not threading.main_thread() and not t.daemon
               and t.is_alive()]
    if children or threads:
        raise UncleanExit(
            f"left running: processes {[c.pid for c in children]}, "
            f"threads {threads}"
        )


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git.

    A checkout exported without ``.git`` reports ``"unknown"``; nothing
    outside the checkout is consulted.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    """What produced the numbers, including a silent backend change."""
    return {
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": compiled.HAVE_NUMBA,
        "blas_threads": int(BLAS_THREADS),
        "malloc_fixed": MALLOC_FIXED,
        "platform": platform.platform(),
    }


def _op_ms(service) -> dict[str, float]:
    engine = service.registry.get(service.default_model).engine
    return {row["op"]: row["total_ms"] for row in engine.op_timings()}


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns metrics, counts, outputs and provenance."""
    tracer = Tracer() if trace else None
    model = workload.model()
    ctx = Run(tracer, Reference(model, workload.image_size))
    inputs = workload.inputs(seed)
    setup = Phase()
    phases: list[Phase] = []
    setup_clocks: list[Clock] = []
    layers: dict[str, float] = {}
    with Instrumentation(tracer) if trace else contextlib.nullcontext():
        if trace:
            tracer.enabled = True
        for i in range(workload.setups):
            with ctx.span("bench.setup"), Clock() as clock:
                service, state = workload.start(model, inputs, setup)
            setup_clocks.append(clock)
            with service:
                if i < workload.setups - 1:
                    continue
                if not trace:
                    phases.append(Phase())
                    workload.measure(service, state, inputs, seconds, ctx,
                                     phases[0])
                else:
                    layers = _traced(workload, service, state, inputs,
                                     seconds, ctx, phases)
                with ctx.quiet():
                    workload.finish(service, state, inputs, ctx, setup)
                models = service.stats()["models"]
                workers = service.pool.workers
    # every setup warmed up on the same input: one output
    setup.check(len(set(setup.digests)) == 1)
    everything = [setup, *phases]
    measured = phases[0]
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": sum(p.mismatches for p in everything),
        "checks": sum(p.checks for p in everything),
        "e2e": {
            "setup_s": statistics.median(c.cpu for c in setup_clocks),
            "windows_per_cpu_s": measured.windows_per_cpu_s,
            "op_cpu_p50_ms": measured.cpu_ms(50),
            "op_cpu_p90_ms": measured.cpu_ms(90),
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "wall": {
            "setup_s": statistics.median(c.wall for c in setup_clocks),
            **measured.wall(),
        },
        "layers": layers,
        "samples": len(measured.latencies_ms),
        "notes": {k: v for p in phases for k, v in p.notes.items()},
        "outputs": {"setup": setup.digests,
                    "ops": [d for p in phases for d in p.digests],
                    "scores": state.get("scores")},
        "provenance": {
            **provenance(),
            "served": models,
            "scan_workers": workers,
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "setup_runs": len(setup_clocks),
        },
    }


def _traced(workload, service, state, inputs, seconds, ctx, phases):
    """Untraced then traced halves; the per-layer metrics of the second."""
    tracer = ctx.tracer
    setup_spans, _ = tracer.take()
    compile_ms = [s.duration * 1e3 for s in setup_spans
                  if s.name == "serve.registry"]
    tracer.enabled = False
    plain, traced = Phase(), Phase()
    phases.extend((plain, traced))
    workload.measure(service, state, inputs, seconds / 2, ctx, plain)
    tracer.take()
    before = _op_ms(service)
    tracer.enabled = True
    workload.measure(service, state, inputs, seconds / 2, ctx, traced)
    tracer.enabled = False
    after = _op_ms(service)
    spans, samples = tracer.take()
    layers = layer_metrics(spans, samples, workload.root_spans)
    layers["serve.registry.compile_ms"] = statistics.median(compile_ms)
    for op in OP_NAMES:
        layers[f"engine.op.{op}_ms"] = after.get(op, 0.0) - before.get(op, 0.0)
    layers["trace.overhead_ratio"] = (
        plain.windows_per_cpu_s / traced.windows_per_cpu_s
        if traced.windows_per_cpu_s else 0.0
    )
    return layers


def report(workload, result: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    aliases = ALIASES[workload.name]
    print(f"workload {workload.name}: {result['attempted']} operations, "
          f"{result['failed']} failed (failed_ratio "
          f"{result['failed'] / max(result['attempted'], 1):.6g}), "
          f"{result['checks']} checks, "
          f"{result['mismatches']} mismatches, "
          f"{result['samples']} latency samples")
    for key, value in result["notes"].items():
        print(f"  {key} {value}")
    # the host's share of stolen time moves these, not the metrics
    print("wall " + " ".join(f"{k}={v:.6g}" for k, v in result["wall"].items()))
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    # same seed, same digests: compare these lines across runs
    outputs = result["outputs"]
    print("outputs setup " + " ".join(outputs["setup"]))
    if outputs["scores"] is None:
        print("outputs ops " + " ".join(outputs["ops"]))
    else:
        # the hot set is seen in any run; the cold clips seen depend on
        # how many bursts fit in the run
        scores = outputs["scores"]
        print("outputs hot-scores " + digest(np.array(
            [scores[k] for k in sorted(scores) if k < 0], dtype=np.float64
        )))
    # BENCHMARK.json names the metrics and their units; a metric the
    # run did not measure is a KeyError, never a silent gap
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = result["layers"] if trace else result["e2e"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    for name, metric in metrics.items():
        alias = aliases.get(name)
        shown = f"{name} ({alias})" if alias else name
        print(f"  {shown} = {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    final = report(workload, result, bool(args.trace))
    try:
        assert_clean_exit()
    except UncleanExit as exc:
        print(f"unclean exit: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
