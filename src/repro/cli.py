"""Command-line interface.

Exposes the main entry points of the library without writing a script::

    python -m repro table2                 # benchmark statistics
    python -m repro table3 --scale 0.02    # the headline comparison
    python -m repro train --epochs 8       # train + evaluate the BNN
    python -m repro litho --pattern grating --seed 3
    python -m repro roc --scale 0.02       # detector trade-off curve

All subcommands print paper-style tables to stdout and accept the same
scale/image-size knobs as the benchmark harness.  Exit codes come from
one table, ``_EXIT_CODES``: a typed error maps to 2 (bad input), 3 (not
served), 4 (training diverged) or 130 (preempted, resumable).
"""

from __future__ import annotations

import argparse
import shlex
import sys

import numpy as np

from .chip import JournalError, ScanPreemptedError
from .engine.lower import LoweringError
from .litho import PATTERN_FAMILIES
from .nn.serialization import CheckpointError, checkpoint_path
from .serve import (
    ChipScanRequest,
    HotspotService,
    ModelEntry,
    ModelRegistry,
    ServeError,
)
from .train import DivergenceError, PreemptedError

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Efficient Layout Hotspot Detection via "
            "Binarized Residual Neural Network' (DAC 2019)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p):
        """Attach the shared dataset options to a subparser."""
        p.add_argument("--scale", type=float, default=0.02,
                       help="Table 2 scale factor (default 0.02)")
        p.add_argument("--image-size", type=int, default=32,
                       help="clip image side in pixels (default 32)")
        p.add_argument("--seed", type=int, default=2012)
        p.add_argument("--no-cache", action="store_true",
                       help="regenerate instead of using the dataset cache")

    p_table2 = sub.add_parser("table2", help="benchmark statistics (Table 2)")
    add_data_args(p_table2)

    p_table3 = sub.add_parser(
        "table3", help="four-detector comparison (Table 3)"
    )
    add_data_args(p_table3)
    p_table3.add_argument("--epochs", type=int, default=8)

    p_train = sub.add_parser("train", help="train + evaluate the BNN detector")
    add_data_args(p_train)
    p_train.add_argument("--epochs", type=int, default=8)
    p_train.add_argument("--finetune-epochs", type=int, default=3)
    p_train.add_argument("--epsilon", type=float, default=0.2)
    p_train.add_argument("--base-width", type=int, default=8)
    p_train.add_argument("--scaling", default="xnor",
                         choices=["xnor", "channelwise", "none"])
    p_train.add_argument("--save", metavar="PATH",
                         help="write the trained weights to a .npz checkpoint")
    p_train.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                         help="write atomic run-state checkpoints every "
                              "epoch; a killed or preempted run resumes "
                              "bit-identically with --resume")
    p_train.add_argument("--resume", action="store_true",
                         help="continue the run recorded in --checkpoint-dir "
                              "(same seed/flags required); fresh start if "
                              "the directory is empty")
    p_train.add_argument("--keep", type=int, default=3,
                         help="run-state retention: keep the last N "
                              "checkpoints plus the best-validation one "
                              "(default 3)")

    p_litho = sub.add_parser("litho", help="simulate one synthetic pattern")
    p_litho.add_argument("--pattern", default="grating",
                         choices=sorted(PATTERN_FAMILIES),
                         help="pattern family (default grating)")
    p_litho.add_argument("--seed", type=int, default=0)
    p_litho.add_argument("--opc", action="store_true",
                         help="also report the rule-based-OPC'd mask")

    p_roc = sub.add_parser("roc", help="BNN detector ROC summary")
    add_data_args(p_roc)
    p_roc.add_argument("--epochs", type=int, default=8)

    p_predict = sub.add_parser(
        "predict",
        help="classify clips with a checkpoint written by train --save",
    )
    add_data_args(p_predict)
    p_predict.add_argument("checkpoint",
                           help=".npz checkpoint from `repro train --save`")
    p_predict.add_argument("--limit", type=int, default=None,
                           help="classify at most this many test clips")
    p_predict.add_argument("--timeout-s", type=float, default=None,
                           help="per-call deadline in seconds; exceeded "
                                "deadlines fail typed instead of hanging")
    p_predict.add_argument("--queue-depth", type=int, default=1024,
                           help="admission queue bound (backpressure)")
    p_predict.add_argument("--overflow", choices=["block", "shed"],
                           default="block",
                           help="full-queue policy: block submitters or "
                                "shed with ServiceOverloaded")

    p_scan = sub.add_parser(
        "scan",
        help="stream-scan a full layout for hotspots under a bounded "
             "tile-memory budget",
    )
    p_scan.add_argument("layout",
                        help="layout source: a clips .json/.txt file "
                             "(first clip is the layout), or "
                             "synth:<size_nm>[:seed] for the deterministic "
                             "full-chip synthesizer")
    p_scan.add_argument("checkpoint",
                        help=".npz checkpoint from `repro train --save`")
    p_scan.add_argument("--window", type=int, default=None,
                        help="window side in nm (default: 32x the "
                             "checkpoint's image size)")
    p_scan.add_argument("--stride", type=int, default=None,
                        help="sweep step in nm (default: window / 2)")
    p_scan.add_argument("--tile-budget-mib", type=float, default=64.0,
                        help="peak tile raster budget in MiB (default 64); "
                             "the scan never rasterizes more than this at "
                             "once")
    p_scan.add_argument("--bias", type=float, default=None,
                        help="hotspot decision bias (default: the "
                             "checkpoint's)")
    p_scan.add_argument("--out", metavar="PATH", default=None,
                        help="write results: a .npz path saves the full "
                             "heatmap, anything else a JSON summary")
    p_scan.add_argument("--timeout-s", type=float, default=None,
                        help="scan deadline in seconds; failed/late tiles "
                             "degrade the report instead of hanging "
                             "(ignored by the durable --journal path, "
                             "which is bounded by its retry budget)")
    p_scan.add_argument("--journal", metavar="PATH", default=None,
                        help="durable scan: append each completed tile to "
                             "this checksummed journal; a killed scan "
                             "re-run with --resume continues bit-identically")
    p_scan.add_argument("--resume", action="store_true",
                        help="resume from --journal: replay completed "
                             "tiles, score only the pending ones")
    p_scan.add_argument("--max-retries", type=int, default=None,
                        help="durable scan: per-tile transient-failure "
                             "retries before bisection quarantine "
                             "(default: the retry-policy default)")

    p_engine = sub.add_parser(
        "engine",
        help="inspect the engine compiler (pass pipeline, backends)",
    )
    engine_sub = p_engine.add_subparsers(dest="engine_command", required=True)
    p_describe = engine_sub.add_parser(
        "describe",
        help="dump the lowered program before/after each optimization "
             "pass: op counts, buffer bytes, fused chains",
    )
    p_describe.add_argument(
        "checkpoint", nargs="?", default=None,
        help=".npz checkpoint from `repro train --save`; omitted: a "
             "seeded reference model built from the flags below")
    p_describe.add_argument("--image-size", type=int, default=32)
    p_describe.add_argument("--base-width", type=int, default=8)
    p_describe.add_argument("--scaling", default="xnor",
                            choices=["xnor", "channelwise", "none"])
    p_describe.add_argument("--stem-stride", type=int, default=None,
                            help="default: 2 when image size >= 64, else 1")
    p_describe.add_argument("--passes", default="default",
                            choices=["default", "none"],
                            help="pass pipeline: 'default' (what every "
                                 "engine compiles) or 'none' (the lowered "
                                 "program only)")
    p_describe.add_argument("--batch", type=int, default=1,
                            help="batch size for buffer-byte accounting")
    p_describe.add_argument("--full", action="store_true",
                            help="also print the per-node program listing "
                                 "at every stage (default: first and last)")

    return parser


def _load(args):
    from .bench import load_benchmark

    return load_benchmark(
        scale=args.scale, image_size=args.image_size, seed=args.seed,
        cache=not args.no_cache,
    )


def _cmd_table2(args) -> int:
    from .bench import format_table
    from .litho import PAPER_TABLE2

    benchmark = _load(args)
    stats = benchmark.stats
    rows = [
        {"Benchmark": "ICCAD (paper)", **{
            "#Train HS": PAPER_TABLE2["train_hs"],
            "#Train NHS": PAPER_TABLE2["train_nhs"],
            "#Test HS": PAPER_TABLE2["test_hs"],
            "#Test NHS": PAPER_TABLE2["test_nhs"],
        }},
        {"Benchmark": f"Synthetic (scale {args.scale:g})", **{
            "#Train HS": stats.train_hs,
            "#Train NHS": stats.train_nhs,
            "#Test HS": stats.test_hs,
            "#Test NHS": stats.test_nhs,
        }},
    ]
    print(format_table(rows, title="Table 2 - benchmark statistics"))
    return 0


def _cmd_table3(args) -> int:
    from .bench import format_table, run_detectors
    from .detect import (
        BNNDetector,
        DAC17Detector,
        ICCAD16Detector,
        SPIE15Detector,
    )

    benchmark = _load(args)
    detectors = [
        SPIE15Detector(grid=8, n_estimators=40, threshold=-0.8),
        ICCAD16Detector(n_selected=64, epochs=args.epochs, threshold=0.3),
        DAC17Detector(block=max(2, args.image_size // 16), coefficients=8,
                      epochs=args.epochs, finetune_epochs=2),
        BNNDetector(base_width=8, epochs=args.epochs, finetune_epochs=2),
    ]
    results = run_detectors(detectors, benchmark, seed=0)
    print(format_table([m.row() for m in results],
                       title="Table 3 - detector comparison"))
    return 0


def _cmd_train(args) -> int:
    from .bench import format_table
    from .detect import BNNDetector

    if args.resume and not args.checkpoint_dir:
        raise ValueError("--resume requires --checkpoint-dir")
    benchmark = _load(args)
    detector = BNNDetector(
        base_width=args.base_width, scaling=args.scaling,
        epochs=args.epochs, finetune_epochs=args.finetune_epochs,
        epsilon=args.epsilon, seed=0,
        checkpoint_dir=args.checkpoint_dir, resume=args.resume,
        keep=args.keep, handle_signals=args.checkpoint_dir is not None,
    )
    metrics = detector.fit_evaluate(
        benchmark.train, benchmark.test, np.random.default_rng(0)
    )
    print(format_table([metrics.row()], title="BNN detector"))
    if args.save:
        from .nn import save_model

        # self-describing checkpoint: the serving layer's registry (and
        # `repro predict`) rebuilds the architecture from this record
        written = save_model(detector.model, args.save, meta={
            "image_size": args.image_size,
            "base_width": args.base_width,
            "scaling": args.scaling,
            "stem_stride": 2 if args.image_size >= 64 else 1,
            "decision_bias": detector.decision_bias,
            # the backend this model compiled to (provenance only:
            # every checkpoint serves on packed)
            "backend": detector.backend_name,
        })
        print(f"checkpoint written to {written}")
    return 0


def _cmd_litho(args) -> int:
    from .litho import LithographySimulator
    from .litho.opc import rule_based_opc
    from .litho.raster import rasterize
    from .litho.epe import analyze_contours
    from .litho.resist import nominal_corner

    rng = np.random.default_rng(args.seed)
    clip = PATTERN_FAMILIES[args.pattern](rng)
    simulator = LithographySimulator()
    report = simulator.analyze(clip)
    verdict = ("HOTSPOT" if report.is_hotspot(simulator.epe_tolerance_nm)
               else "clean")
    print(f"pattern={args.pattern} rects={len(clip)} "
          f"density={clip.density():.2f}")
    print(f"worst-corner: EPE={report.max_epe_nm:.0f}nm "
          f"bridged={report.bridged} broken={report.broken} -> {verdict}")
    if args.opc:
        corrected = rule_based_opc(clip)
        pixel_nm = clip.size / simulator.resolution_px
        printed = simulator.simulate_corner(
            rasterize(corrected, simulator.resolution_px, "area"),
            pixel_nm, nominal_corner(),
        )
        target = rasterize(clip, simulator.resolution_px, "binary").astype(bool)
        after = analyze_contours(target, printed, pixel_nm)
        print(f"after rule-based OPC (nominal): EPE={after.max_epe_nm:.0f}nm "
              f"bridged={after.bridged} broken={after.broken}")
    return 0


def _cmd_roc(args) -> int:
    from .detect import BNNDetector, auc, roc_curve
    from .features.downsample import to_network_input

    benchmark = _load(args)
    detector = BNNDetector(base_width=8, epochs=args.epochs,
                           finetune_epochs=2, seed=0)
    detector.fit(benchmark.train, np.random.default_rng(0))
    scores = detector._scores(to_network_input(benchmark.test.images))
    curve = roc_curve(scores, benchmark.test.labels)
    from .bench.plots import ascii_roc

    print(ascii_roc(curve.fa_rate, curve.recall,
                    title=f"BNN detector ROC (AUC = {auc(curve):.3f})"))
    for bound in (0.05, 0.1, 0.2, 0.3):
        print(f"recall at FA rate <= {bound:.0%}: "
              f"{curve.recall_at_fa_rate(bound):.1%}")
    return 0


def _load_entry(path, registry: ModelRegistry) -> ModelEntry:
    """Load a ``train --save`` checkpoint into ``registry`` as model
    ``"checkpoint"``: the one loader of ``predict``, ``scan`` and
    ``engine describe``."""
    if not checkpoint_path(path).exists():
        raise ValueError(f"checkpoint not found: {checkpoint_path(path)}")
    return registry.load_checkpoint("checkpoint", path)


def _cmd_predict(args) -> int:
    from .bench import format_table
    from .detect.metrics import ConfusionMatrix

    registry = ModelRegistry()
    entry = _load_entry(args.checkpoint, registry)
    if entry.image_size != args.image_size:
        print(f"note: checkpoint was trained at image size "
              f"{entry.image_size}, overriding --image-size {args.image_size}")
        args.image_size = entry.image_size
    benchmark = _load(args)
    images = benchmark.test.images
    labels = np.asarray(benchmark.test.labels)
    if args.limit is not None:
        images, labels = images[: args.limit], labels[: args.limit]
    with HotspotService(
        registry, default_model="checkpoint",
        queue_depth=args.queue_depth, overflow=args.overflow,
        default_timeout_s=args.timeout_s,
    ) as service:
        predictions = service.classify_many(
            list(np.squeeze(images, axis=1) if images.ndim == 4 else images))
        stats = service.stats()
    predicted = np.array([p.label for p in predictions])
    confusion = ConfusionMatrix.from_predictions(predicted, labels)
    row = {
        "Checkpoint": str(args.checkpoint),
        "Backend": entry.backend,
        "Clips": len(predictions),
        "Hotspots found": int(predicted.sum()),
        "Accu (%)": round(100.0 * confusion.accuracy, 2),
        "FA#": confusion.false_alarm,
        "Mean batch": stats["mean_batch_size"],
    }
    print(format_table([row], title="repro predict"))
    return 0


def _load_scan_layout(source: str):
    """Resolve the ``scan`` subcommand's layout source; an unusable
    source raises ``ValueError``."""
    import re
    from pathlib import Path

    from .litho.io import load_clips_json, load_clips_text

    if source.startswith("synth:"):
        from .litho.fullchip import synthesize_chip

        spec = re.fullmatch(r"synth:(\d+)(?::(\d+))?", source)
        if spec is None:
            raise ValueError(f"bad synth spec {source!r} "
                             f"(want synth:<size_nm>[:seed])")
        return synthesize_chip(int(spec[1]), seed=int(spec[2] or 0))
    path = Path(source)
    if not path.exists():
        raise ValueError(f"layout file not found: {path}")
    loader = load_clips_json if path.suffix == ".json" else load_clips_text
    try:
        clips = loader(path)
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"cannot load layout {path}: {exc}") from exc
    if not clips:
        raise ValueError(f"no clips in {path}")
    if len(clips) > 1:
        print(f"note: {path} holds {len(clips)} clips; scanning the first")
    return clips[0]


def _cmd_scan(args) -> int:
    from .bench import format_table

    if args.resume and not args.journal:
        raise ValueError("--resume needs --journal PATH (nothing to resume "
                         "from)")
    layout = _load_scan_layout(args.layout)
    registry = ModelRegistry()
    entry = _load_entry(args.checkpoint, registry)
    window = args.window or 32 * entry.image_size
    stride = args.stride or max(1, window // 2)
    request = ChipScanRequest(
        layout, window, stride,
        tile_budget=int(args.tile_budget_mib * 2**20),
        journal=args.journal or "", resume=args.resume,
        max_retries=args.max_retries,
    )
    with HotspotService(
        registry, default_model="checkpoint",
        default_timeout_s=args.timeout_s,
    ) as service:
        report = service.scan_chip(request, handle_signals=bool(args.journal))
    bias = args.bias if args.bias is not None else entry.decision_bias
    summary = report.heatmap.summary(bias)
    row = {
        "Layout": args.layout,
        "Backend": report.backend,
        "Windows": report.windows_scanned,
        "Tiles": report.tiles_total,
        "Peak tile (MiB)": round(report.peak_tile_bytes / 2**20, 2),
        "Hotspots": summary["hotspots"],
        "Rate (%)": round(100.0 * summary["hotspot_rate"], 2),
        "Latency (s)": round(report.latency_ms / 1e3, 2),
    }
    print(format_table([row], title=f"repro scan — {layout.size}nm layout, "
                                    f"window {window} / stride {stride}"))
    if args.journal:
        print(f"journal: {args.journal} "
              f"(replayed {report.tiles_replayed} tiles, "
              f"{report.tile_retries} retries"
              + (", resumed" if report.resumed else "") + ")")
    if report.degraded:
        print(f"DEGRADED: {len(report.failed_tiles)} tile(s) failed, "
              f"{len(report.quarantined_windows)} window(s) quarantined; "
              f"{report.windows_failed} windows unscored (exit code 4)")
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        if out.suffix == ".npz":
            report.heatmap.save_npz(out)
        else:
            import json

            out.write_text(json.dumps({
                "layout": args.layout,
                "model": report.model,
                "backend": report.backend,
                "bias": bias,
                "degraded": report.degraded,
                "summary": summary,
                "hits": [
                    [h.x0, h.y0, h.x1, h.y1, h.score]
                    for h in report.hits(bias)
                ],
            }, indent=2) + "\n")
        print(f"results written to {out}")
    # degraded-but-usable: results (and --out) are delivered, but NaN
    # windows remain — distinct exit code so pipelines can tell
    return 4 if report.degraded else 0


def _cmd_engine_describe(args) -> int:
    from .engine import ir
    from .engine.lower import lower, pipeline_signature, run_pipeline_snapshots

    if args.checkpoint:
        entry = _load_entry(args.checkpoint, ModelRegistry())
        model, image_size = entry.model, entry.image_size
        source = str(args.checkpoint)
    else:
        from .engine.parity import seeded_model

        image_size = args.image_size
        stem_stride = args.stem_stride or (2 if image_size >= 64 else 1)
        model = seeded_model(
            image_size=image_size, base_width=args.base_width,
            scaling=args.scaling, stem_stride=stem_stride, seed=0,
        )
        source = (f"seeded model ({image_size}px, width {args.base_width}, "
                  f"{args.scaling}, stem stride {stem_stride})")

    input_shape = (args.batch, 1, image_size, image_size)
    snapshots = run_pipeline_snapshots(
        lower(model), args.passes, input_shape=input_shape
    )
    print(f"model:    {source}")
    print(f"pipeline: {pipeline_signature(args.passes)}")
    print(f"input:    {input_shape}")
    baseline = None
    for index, snap in enumerate(snapshots):
        counts = ir.op_counts(snap.program)
        total = sum(ir.buffer_bytes(snap.program, input_shape).values())
        if baseline is None:
            baseline = total
        print(f"\n== {snap.name} ==")
        if snap.notes:
            notes = ", ".join(f"{k}={v}" for k, v in sorted(snap.notes.items()))
            print(f"notes:   {notes}")
        print("ops:     " + ", ".join(f"{k} x{v}" for k, v in counts.items()))
        saved = baseline - total
        pct = (100.0 * saved / baseline) if baseline else 0.0
        print(f"buffers: {total} B activation traffic"
              + (f" ({saved} B / {pct:.1f}% below lowered)" if saved else ""))
        chains = ir.fused_chains(snap.program)
        if chains:
            print(f"fused:   {len(chains)} chain(s)")
            for anchor, sources in chains:
                print(f"  {anchor} <- {' + '.join(sources)}")
        if args.full or index == 0 or index == len(snapshots) - 1:
            print(ir.describe(snap.program, input_shape))
    return 0


_COMMANDS = {
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "train": _cmd_train,
    "litho": _cmd_litho,
    "roc": _cmd_roc,
    "predict": _cmd_predict,
    "scan": _cmd_scan,
    "engine": _cmd_engine_describe,  # `describe` is its only subcommand
}

#: The CLI's one error policy: ``(error type, exit code, message
#: prefix)``, first ``isinstance`` match wins.  ``main`` prints
#: ``<prefix>: <error>`` and returns the code; an unlisted exception is
#: a bug and propagates with its traceback.  ``{command}`` is the
#: subcommand that failed.  A degraded scan's exit 4 is a return value.
_EXIT_CODES: tuple[tuple[type[Exception], int, str], ...] = (
    (CheckpointError, 2, "bad checkpoint"),
    (JournalError, 2, "cannot use journal"),
    (LoweringError, 2, "cannot compile"),
    (ServeError, 3, "not served"),
    (DivergenceError, 4, "training diverged beyond recovery"),
    (PreemptedError, 130, "training preempted"),
    (ScanPreemptedError, 130, "scan preempted"),
    (ValueError, 2, "cannot {command}"),
)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code (see ``_EXIT_CODES``)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except tuple(row[0] for row in _EXIT_CODES) as exc:
        code, prefix = next((code, prefix) for error, code, prefix
                            in _EXIT_CODES if isinstance(exc, error))
        command = getattr(args, "engine_command", args.command)
        print(f"{prefix.format(command=command)}: {exc}")
        # a preempted run that left a checkpoint or journal resumes
        if code == 130 and (getattr(exc, "checkpoint", None)
                            or getattr(exc, "journal", None)):
            rerun = argv if "--resume" in argv else [*argv, "--resume"]
            print("rerun with --resume to continue bit-identically: "
                  + shlex.join(["repro", *rerun]))
        return code
