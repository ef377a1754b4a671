"""CI gate: the supervised cluster serves bit-identical under chaos.

Run as ``python -m repro.serve.cluster.parity``.  Four invariants, each
checked bit-for-bit against a single-process :class:`HotspotService`
reference on the same model:

1. **Fleet parity** — classify batches and a sliding-window scan served
   by a multi-process :class:`ClusterService` produce scores
   ``np.array_equal`` to the in-process reference (which replica scores
   a shard must never matter).
2. **Kill survival** — seeded random worker SIGKILLs mid-scan (a crash
   with a batch in flight) are absorbed by failover: the report is
   bit-identical to the unfaulted run and ``tasks_failed_over_total``
   proves the crash actually happened.
3. **Torn-frame rejection** — a shared-memory frame whose bytes are
   flipped after its SHA-256 digest is *refused* by every worker and
   transparently re-created by the router; the scan stays bit-identical
   and ``frame_retries_total`` proves the integrity check fired.
4. **Rolling rollout under load** — a checkpoint swap while a
   background thread hammers ``classify_many`` drops zero requests,
   shows a DRAINING replica mid-swap, and afterwards serves predictions
   bit-identical to a fresh reference compiled from the new weights.

``--quick`` shrinks the layout and skips the hang case for 1-CPU CI
runners (the fleet itself stays at two processes — crash isolation is
the point, not speedup).  Exit code 0 on success, 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

import numpy as np

from ...chip.parity import _gate_model
from ...litho.geometry import Clip, Rect
from ..faults import FaultInjector
from ..service import HotspotService
from ..types import ClipRequest, ScanRequest
from .service import ClusterService


def _synth_layout(size: int, seed: int) -> Clip:
    """A dense random rectangle soup with hotspot-like congestion."""
    rng = np.random.default_rng(seed)
    clip = Clip(size)
    for _ in range(max(24, size // 6)):
        x0 = int(rng.integers(0, size - 40))
        y0 = int(rng.integers(0, size - 40))
        w = int(rng.integers(8, 40))
        h = int(rng.integers(8, 40))
        clip.add(Rect(x0, y0, x0 + w, y0 + h))
    return clip


def _hit_key(report):
    return [(h.x0, h.y0, h.x1, h.y1, h.score) for h in report.hits]


def _cluster(model, args, faults=None, **overrides):
    knobs = dict(
        processes=args.processes,
        heartbeat_s=0.2,
        heartbeat_timeout_s=3.0,
        respawn_backoff_s=0.1,
        faults=faults,
    )
    knobs.update(overrides)
    return ClusterService.from_model(model, image_size=args.image_size,
                                     **knobs)


def _scan_check(label, model, args, req, reference_key, faults,
                counter=None) -> int:
    """One chaos scan: must match the reference and trip ``counter``."""
    with _cluster(model, args, faults=faults) as svc:
        report = svc.scan(req, timeout=args.timeout)
        stats = svc.stats()
    clean = not report.degraded and _hit_key(report) == reference_key
    tripped = counter is None or stats[counter] >= 1
    detail = f"{stats[counter]} {counter}" if counter else f"{len(report.hits)} hits"
    print(f"[cluster] {label}: "
          f"{'OK' if clean and tripped else 'MISMATCH'} ({detail})")
    return 0 if clean and tripped else 1


def chaos_gate(args) -> int:
    """The gate body; returns the failure count."""
    model = _gate_model(args.image_size, args.seed)
    layout = _synth_layout(args.size, args.seed + 1)
    req = ScanRequest(layout=layout, window=args.window, stride=args.stride)

    rng = np.random.default_rng(args.seed)
    rasters = [(rng.random((args.image_size, args.image_size)) > 0.5)
               .astype(np.float64) for _ in range(8)]
    clip_reqs = lambda: [ClipRequest(image=r) for r in rasters]  # noqa: E731

    with HotspotService.from_model(model, image_size=args.image_size) as ref:
        ref_scan_key = _hit_key(ref.scan(req))
        ref_scores = [ref.classify(r).score for r in clip_reqs()]

    failures = 0

    # 1. unfaulted fleet parity: classify + scan, bit-identical
    with _cluster(model, args) as svc:
        tasks = len(svc._scan_job(req, svc.registry.get("default")).tiles)
        preds = svc.classify_many(clip_reqs(), timeout=args.timeout)
        classify_ok = [p.score for p in preds] == ref_scores
        report = svc.scan(req, timeout=args.timeout)
        scan_ok = not report.degraded and _hit_key(report) == ref_scan_key
    print(f"[cluster] fleet parity: "
          f"{'OK' if classify_ok and scan_ok else 'MISMATCH'} "
          f"({len(rasters)} clips, {len(report.hits)} hits, "
          f"{args.processes} processes, {tasks} scan tasks)")
    failures += 0 if classify_ok and scan_ok else 1

    # 2. seeded SIGKILLs mid-scan: failover keeps the report identical.
    #    Each worker counts its own "worker" calls, and until a kill
    #    fires the first-generation workers score all the scan's tasks,
    #    so one of them reaches call ceil(tasks / processes) - 1: a kill
    #    drawn below that fires by construction
    per_worker = -(-tasks // args.processes)
    kill_calls = sorted(
        int(k) for k in rng.choice(per_worker,
                                   size=min(args.kills, per_worker),
                                   replace=False)
    )
    faults = FaultInjector(seed=args.seed)
    faults.add_kill("worker", on_calls=kill_calls)
    failures += _scan_check(
        f"kill survival (SIGKILL on worker call {kill_calls} of a "
        f"{tasks}-task scan)", model, args, req,
        ref_scan_key, faults, counter="tasks_failed_over_total",
    )

    # 3. torn frame: digest check fires, retry stays bit-identical
    faults = FaultInjector(seed=args.seed)
    faults.add_tear("frame", times=1)
    failures += _scan_check(
        "torn-frame rejection", model, args, req, ref_scan_key, faults,
        counter="frame_retries_total",
    )

    # 4. hang past the per-task deadline (skipped in --quick: the
    #    supervisor must wait out the stall, which costs wall time).
    #    task_timeout_s is the knob that condemns a worker holding
    #    in-flight work; heartbeat_timeout_s only covers idle silence.
    if not args.quick:
        faults = FaultInjector(seed=args.seed)
        faults.add_hang("worker", hang_s=30.0, times=1)
        with _cluster(model, args, faults=faults,
                      heartbeat_timeout_s=1.0, task_timeout_s=1.0) as svc:
            report = svc.scan(req, timeout=args.timeout)
            stats = svc.stats()
        hang_ok = (not report.degraded
                   and _hit_key(report) == ref_scan_key
                   and stats["worker_timeouts_total"] >= 1)
        print(f"[cluster] hang timeout kill: "
              f"{'OK' if hang_ok else 'MISMATCH'} "
              f"({stats['worker_timeouts_total']} worker_timeouts_total)")
        failures += 0 if hang_ok else 1

    # 5. rolling rollout under sustained load: zero drops, DRAINING
    #    visible, post-swap predictions match the new weights exactly
    new_model = _gate_model(args.image_size, args.seed + 17)
    with HotspotService.from_model(new_model,
                                   image_size=args.image_size) as ref2:
        new_scores = [ref2.classify(r).score for r in clip_reqs()]

    with _cluster(model, args, heartbeat_timeout_s=10.0) as svc:
        stop = threading.Event()
        errors: list[BaseException] = []
        served = [0]
        saw_draining = [False]

        def pound():
            while not stop.is_set():
                try:
                    svc.classify_many(clip_reqs(), timeout=args.timeout)
                    served[0] += len(rasters)
                except BaseException as exc:  # any drop fails the gate
                    errors.append(exc)
                    return
                states = svc.replica_states().values()
                if any(s.value == "draining" for s in states):
                    saw_draining[0] = True

        thread = threading.Thread(target=pound, daemon=True)
        thread.start()
        time.sleep(0.3)
        try:
            svc.rollout("default", model=new_model)
        except BaseException as exc:
            errors.append(exc)
        time.sleep(0.3)
        stop.set()
        thread.join(timeout=args.timeout)
        post = [p.score for p in
                svc.classify_many(clip_reqs(), timeout=args.timeout)]
        stats = svc.stats()

    rollout_ok = (not errors and post == new_scores
                  and stats["rollouts_total"] == 1
                  and stats["rollout_failures_total"] == 0)
    note = f"{served[0]} requests served through the swap"
    if errors:
        note = f"dropped: {type(errors[0]).__name__}: {errors[0]}"
    elif not saw_draining[0]:
        # timing-dependent on slow runners; report but do not fail
        note += ", DRAINING not observed (swap outpaced the probe)"
    print(f"[cluster] rolling rollout under load: "
          f"{'OK' if rollout_ok else 'MISMATCH'} ({note})")
    failures += 0 if rollout_ok else 1

    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=256,
                        help="layout side in nm")
    parser.add_argument("--window", type=int, default=64)
    parser.add_argument("--stride", type=int, default=32)
    parser.add_argument("--image-size", type=int, default=16)
    parser.add_argument("--processes", type=int, default=2,
                        help="fleet size (floor 2: failover needs a sibling)")
    parser.add_argument("--kills", type=int, default=2,
                        help="seeded SIGKILL points in the kill-survival check")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-request deadline inside the gate")
    parser.add_argument("--quick", action="store_true",
                        help="1-CPU CI mode: smaller layout, skip the "
                             "hang-timeout case")
    args = parser.parse_args(argv)
    args.processes = max(2, args.processes)
    if args.quick:
        args.size = min(args.size, 192)
        args.kills = min(args.kills, 2)

    failures = chaos_gate(args)
    if failures:
        print(f"cluster chaos: {failures} check(s) FAILED", file=sys.stderr)
        return 1
    print("cluster chaos: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
