"""CI gate: streamed scan ≡ monolithic scan, re-scan ≡ from-scratch.

Run as ``python -m repro.chip.parity``.  Four invariants, each checked
bit-for-bit (the service check on the served ``packed`` engine, the
other three on both engine backends):

1. **Streaming parity** — :meth:`ChipScanner.scan` over a synthesized
   chip, with a tile budget small enough to force a multi-tile grid,
   produces scores ``np.array_equal`` to a monolithic reference that
   rasterizes the whole layout once and scores every origin through a
   single :meth:`plan_scan`.
2. **ECO parity** — :meth:`ChipScanner.rescan` after a seeded edit
   trace produces a heatmap ``equals`` a from-scratch streamed scan of
   ``apply_edits(layout, edits)``, while re-scoring strictly fewer
   windows than the sweep holds.
3. **Service parity** — :meth:`repro.serve.HotspotService.scan`, the
   service's one scan path, flags exactly the windows the monolithic
   reference of its own engine scores above 0, with the same scores
   (its tile count is printed).
4. **Repeated-cell parity** — on a cell-library chip built to repeat
   window rasters (:func:`~repro.litho.fullchip.synthesize_cell_array`)
   the streamed scan still equals the monolithic one, and it scores
   strictly fewer distinct windows than the sweep holds (printed as
   "scored N distinct of M windows").

``--chaos`` runs the **durability gate** instead — the random-kill +
fault-injection harness of :mod:`repro.chip.durable`:

* a durable scan killed at seeded random tile boundaries (and once
  mid-journal-write, leaving a torn record) resumes to a heatmap
  bit-identical to an uninterrupted run, on every backend;
* a corrupted journal record is refused with a typed
  :class:`~repro.chip.journal.JournalCorruptError`, never replayed;
* transient injected faults recover within the retry policy's bounds;
* a poison window is bisected down to a single quarantined origin
  while every surrounding window matches the fault-free scores.

Exit code 0 on success, 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from ..binary.inference import ProgramEngine
from ..engine.backends import available_backends
from ..features.downsample import to_network_input
from ..litho.fullchip import (
    apply_edits,
    synthesize_cell_array,
    synthesize_chip,
    synthesize_edit_trace,
)
from ..litho.raster import rasterize_plane
from ..models.bnn_resnet import build_bnn_resnet
from .durable import DurableChipScan, RetryPolicy
from .journal import JournalCorruptError, read_journal
from .scanner import ChipScanner
from .tiling import TileSpec, origin_steps


def _monolithic_scores(engine, layout, window, stride, image_size):
    """Reference sweep: one whole-chip plane, one plan, all origins."""
    scale = window // image_size
    plane = to_network_input(rasterize_plane(layout, scale, "binary")[None])
    steps = origin_steps(layout.size, window, stride)
    origins = [(x // scale, y // scale) for y in steps for x in steps]
    logits = engine.scan_plane(plane, image_size, origins)
    n = len(steps)
    return (logits[:, 1] - logits[:, 0]).reshape(n, n)


def _service_parity(model, layout, args) -> bool:
    """``HotspotService.scan`` hits equal its engine's monolithic ones."""
    from ..serve import HotspotService, ScanRequest
    from ..serve.service import window_origins

    request = ScanRequest(layout, args.window, args.stride)
    with HotspotService.from_model(model, args.image_size) as service:
        entry = service.registry.get("default")
        report = service.scan(request)
    reference = _monolithic_scores(
        entry.engine, layout, args.window, args.stride, args.image_size
    )
    origins = window_origins(layout.size, args.window, args.stride)
    expected = [(x, y, score) for (x, y), score
                in zip(origins, reference.ravel().tolist()) if score > 0]
    ok = (not report.degraded
          and [(h.x0, h.y0, h.score) for h in report.hits] == expected)
    print(f"[{entry.backend}] service scan parity: "
          f"{'OK' if ok else 'MISMATCH'} "
          f"({report.tiles_total} tiles, {len(expected)} hits)")
    return ok


def _gate_model(image_size: int, seed: int):
    """The small warmed-up BNN every gate check scores with."""
    model = build_bnn_resnet((4, 8), scaling="xnor", seed=seed)
    rng = np.random.default_rng(99)
    warmup = (rng.random((8, 1, image_size, image_size)) > 0.5) * 2.0 - 1.0
    model.forward(warmup, training=True)  # give BN non-trivial stats
    return model


class _KilledScan(RuntimeError):
    """Simulated crash raised from the durable scan's tile hook."""


def _chaos_policy(seed: int) -> RetryPolicy:
    """Retry policy of the gate: real bounds, zero sleep (CI speed)."""
    return RetryPolicy(max_retries=2, base_delay_s=0.0, max_delay_s=0.0,
                       retry_budget=32, seed=seed)


def _run_durable(scanner, layout, args, budget, journal,
                 resume=False, tile_hook=None):
    return DurableChipScan(
        scanner, layout, args.window, args.stride, budget,
        journal=journal, resume=resume, policy=_chaos_policy(args.seed),
        tile_hook=tile_hook,
    ).run()


def _chaos_backend(backend, model, layout, args, budget, workdir) -> int:
    """Run every durability check for one engine backend; count failures."""
    from ..serve.faults import FaultInjector

    engine = ProgramEngine(model, backend)
    failures = 0
    reference = ChipScanner(engine, args.image_size).scan(
        layout, args.window, args.stride, budget
    ).heatmap.scores

    # 1. uninterrupted durable run is bit-identical and fully journaled
    plain_journal = workdir / f"{backend}-plain.journal"
    result = _run_durable(ChipScanner(engine, args.image_size), layout,
                          args, budget, plain_journal)
    n_tiles = len(result.job.tiles)
    plain_ok = (np.array_equal(result.heatmap.scores, reference)
                and len(read_journal(plain_journal).tiles) == n_tiles)
    print(f"[{backend}] durable scan parity: "
          f"{'OK' if plain_ok else 'MISMATCH'} ({n_tiles} tiles journaled)")
    failures += 0 if plain_ok else 1

    # 2. random kills at tile boundaries resume bit-identically; the
    #    first case additionally tears the journal tail mid-record
    rng = np.random.default_rng(args.seed + 13)
    kill_points = sorted(
        int(k) for k in rng.choice(
            np.arange(1, n_tiles), size=min(args.kills, n_tiles - 1),
            replace=False,
        )
    )
    for case, kill_at in enumerate(kill_points):
        journal = workdir / f"{backend}-kill{kill_at}.journal"
        committed = 0

        def tile_hook(_index):
            nonlocal committed
            committed += 1
            if committed >= kill_at:
                raise _KilledScan(f"killed after {committed} tiles")

        try:
            _run_durable(ChipScanner(engine, args.image_size), layout,
                         args, budget, journal, tile_hook=tile_hook)
            raise AssertionError("kill hook did not fire")
        except _KilledScan:
            pass
        torn = case == 0
        if torn:
            # crash mid-append: chop the last record's tail bytes
            data = journal.read_bytes()
            journal.write_bytes(data[:-7])
        resumed = _run_durable(ChipScanner(engine, args.image_size),
                               layout, args, budget, journal, resume=True)
        stats = resumed.stats
        ok = (np.array_equal(resumed.heatmap.scores, reference)
              and stats["tiles_replayed"] > 0
              and stats["tiles_replayed"] + stats["tiles_scored"] == n_tiles)
        print(f"[{backend}] kill@{kill_at}"
              f"{' (torn tail)' if torn else ''} resume: "
              f"{'OK' if ok else 'MISMATCH'} "
              f"(replayed {stats['tiles_replayed']}, "
              f"re-scored {stats['tiles_scored']})")
        failures += 0 if ok else 1

    # 3. a corrupted record is refused with a typed error, never replayed
    data = bytearray(plain_journal.read_bytes())
    # flip a byte inside the first tile record's score payload: the
    # header frame is (5 + json + 32) bytes, the tile payload starts
    # 5 bytes later, scores 12 bytes after that
    header_len = int.from_bytes(data[1:5], "little")
    flip_at = 5 + header_len + 32 + 5 + 12 + 3
    data[flip_at] ^= 0xFF
    corrupt_journal = workdir / f"{backend}-corrupt.journal"
    corrupt_journal.write_bytes(bytes(data))
    try:
        read_journal(corrupt_journal, recover_tail=True)
        corrupt_ok = False
    except JournalCorruptError:
        try:
            _run_durable(ChipScanner(engine, args.image_size), layout,
                         args, budget, corrupt_journal, resume=True)
            corrupt_ok = False
        except JournalCorruptError:
            corrupt_ok = True
    print(f"[{backend}] corrupt record refused: "
          f"{'OK' if corrupt_ok else 'MISSED'}")
    failures += 0 if corrupt_ok else 1

    # 4. transient faults recover within the retry bounds
    faults = FaultInjector(seed=args.seed)
    faults.add_error("engine", times=2)
    flaky = _run_durable(
        ChipScanner(engine, args.image_size, faults=faults), layout,
        args, budget, workdir / f"{backend}-flaky.journal",
    )
    policy = _chaos_policy(args.seed)
    retry_ok = (np.array_equal(flaky.heatmap.scores, reference)
                and 1 <= flaky.stats["tile_retries"] <= policy.retry_budget
                and not flaky.stats["quarantined_windows"])
    print(f"[{backend}] transient retry recovery: "
          f"{'OK' if retry_ok else 'MISMATCH'} "
          f"({flaky.stats['tile_retries']} retries)")
    failures += 0 if retry_ok else 1

    # 5. a permanent poison window is cornered to a one-window
    #    quarantine; everything around it matches the fault-free run
    steps = origin_steps(layout.size, args.window, args.stride)
    poison = (len(steps) // 2, len(steps) // 3)
    faults = FaultInjector(seed=args.seed)
    faults.add_error("engine", match=lambda call_args: (
        isinstance(call_args[0], TileSpec)
        and call_args[0].contains_index(*poison)
    ))
    poisoned = _run_durable(
        ChipScanner(engine, args.image_size, faults=faults), layout,
        args, budget, workdir / f"{backend}-poison.journal",
    )
    scores = poisoned.heatmap.scores
    others = ~np.isnan(scores)
    poison_ok = (
        poisoned.stats["quarantined_windows"] == (poison,)
        and np.isnan(scores[poison[1], poison[0]])
        and int(np.isnan(scores).sum()) == 1
        and np.array_equal(scores[others], reference[others])
    )
    print(f"[{backend}] poison quarantine: "
          f"{'OK' if poison_ok else 'MISMATCH'} "
          f"(quarantined {poisoned.stats['quarantined_windows']})")
    failures += 0 if poison_ok else 1
    return failures


def durability_gate(args) -> int:
    """The ``--chaos`` gate body; returns the failure count."""
    layout = synthesize_chip(args.size, seed=args.seed)
    window_px = args.window // (args.window // args.image_size)
    budget = (2 * window_px) ** 2 * 8
    model = _gate_model(args.image_size, args.seed)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="chip-chaos-") as tmp:
        for backend in available_backends():
            failures += _chaos_backend(
                backend, model, layout, args, budget, Path(tmp)
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=8192,
                        help="chip side in nm")
    parser.add_argument("--window", type=int, default=1024)
    parser.add_argument("--stride", type=int, default=512)
    parser.add_argument("--image-size", type=int, default=32)
    parser.add_argument("--edits", type=int, default=6)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--chaos", action="store_true",
                        help="run the durability (kill/resume, retry, "
                             "quarantine) gate instead of the parity checks")
    parser.add_argument("--kills", type=int, default=3,
                        help="random tile-boundary kill points per backend "
                             "in the --chaos gate")
    args = parser.parse_args(argv)

    if args.chaos:
        failures = durability_gate(args)
        if failures:
            print(f"chip durability: {failures} check(s) FAILED",
                  file=sys.stderr)
            return 1
        print("chip durability: all checks passed")
        return 0

    layout = synthesize_chip(args.size, seed=args.seed)
    edits = synthesize_edit_trace(layout, args.edits, seed=args.seed + 1)
    edited = apply_edits(layout, edits)
    cells = synthesize_cell_array(args.size, args.window, seed=args.seed)
    # small budget: enough for ~2x2 windows per tile -> multi-tile grid
    window_px = args.window // (args.window // args.image_size)
    budget = (2 * window_px) ** 2 * 8

    model = _gate_model(args.image_size, args.seed)

    failures = 0 if _service_parity(model, layout, args) else 1
    for backend in available_backends():
        engine = ProgramEngine(model, backend)
        scanner = ChipScanner(engine, args.image_size)

        reference = _monolithic_scores(
            engine, layout, args.window, args.stride, args.image_size
        )
        result = scanner.scan(layout, args.window, args.stride, budget)
        streamed_ok = np.array_equal(result.heatmap.scores, reference)
        multi_tile = result.tiles > 1
        bounded = result.peak_tile_bytes <= budget
        print(
            f"[{backend}] streamed parity: "
            f"{'OK' if streamed_ok else 'MISMATCH'} "
            f"({result.tiles} tiles, peak {result.peak_tile_bytes} B "
            f"<= budget {budget} B: {bounded})"
        )
        if not (streamed_ok and multi_tile and bounded):
            failures += 1

        rescanned = scanner.rescan(result, edits)
        scratch = ChipScanner(engine, args.image_size).scan(
            edited, args.window, args.stride, budget
        )
        eco_ok = rescanned.heatmap.equals(scratch.heatmap)
        sparse = 0 < rescanned.rescored_windows < rescanned.windows
        print(
            f"[{backend}] eco parity: {'OK' if eco_ok else 'MISMATCH'} "
            f"(re-scored {rescanned.rescored_windows} of "
            f"{rescanned.windows} windows)"
        )
        if not (eco_ok and sparse):
            failures += 1

        reference = _monolithic_scores(
            engine, cells, args.window, args.stride, args.image_size
        )
        result = scanner.scan(cells, args.window, args.stride, budget)
        repeated_ok = np.array_equal(result.heatmap.scores, reference)
        scored = result.stats["scored_windows"]
        print(
            f"[{backend}] repeated-cell parity: "
            f"{'OK' if repeated_ok else 'MISMATCH'} "
            f"(scored {scored} distinct of {result.windows} windows)"
        )
        if not (repeated_ok and scored < result.windows):
            failures += 1

    if failures:
        print(f"chip parity: {failures} check(s) FAILED", file=sys.stderr)
        return 1
    print("chip parity: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
