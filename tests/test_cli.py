"""Tests for the command-line interface."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.cli import _EXIT_CODES, build_parser, main
from repro.nn import save_model
from repro.serve.registry import model_from_meta

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table3_args(self):
        args = build_parser().parse_args(
            ["table3", "--scale", "0.01", "--epochs", "3"]
        )
        assert args.command == "table3"
        assert args.scale == 0.01
        assert args.epochs == 3

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.scaling == "xnor"
        assert args.epsilon == 0.2

    def test_predict_args(self):
        args = build_parser().parse_args(["predict", "ck.npz", "--limit", "8"])
        assert args.command == "predict"
        assert args.checkpoint == "ck.npz"
        assert args.limit == 8
        assert not hasattr(args, "backend")  # every checkpoint serves packed
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "ck.npz", "--float"])

    def test_scan_defaults(self):
        args = build_parser().parse_args(["scan", "synth:8192", "ck.npz"])
        assert args.command == "scan"
        assert args.layout == "synth:8192"
        assert args.checkpoint == "ck.npz"
        assert args.window is None and args.stride is None
        assert args.tile_budget_mib == 64.0
        assert args.out is None
        assert args.journal is None
        assert args.resume is False
        assert args.max_retries is None

    def test_scan_backend_flag_is_gone(self, capsys):
        """The services serve one engine: ``scan`` picks no backend."""
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(
                ["scan", "synth:8192", "ck.npz", "--backend", "packed"]
            )
        assert info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_scan_durable_flags(self):
        args = build_parser().parse_args([
            "scan", "synth:8192", "ck.npz", "--journal", "scan.journal",
            "--resume", "--max-retries", "5",
        ])
        assert args.journal == "scan.journal"
        assert args.resume is True
        assert args.max_retries == 5


class TestCommands:
    def test_litho_clean_run(self, capsys):
        assert main(["litho", "--pattern", "grating", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "pattern=grating" in out
        assert "worst-corner" in out

    def test_litho_with_opc(self, capsys):
        assert main(["litho", "--pattern", "via_array", "--seed", "2",
                     "--opc"]) == 0
        assert "after rule-based OPC" in capsys.readouterr().out

    def test_litho_unknown_pattern(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["litho", "--pattern", "nonsense"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_table2(self, capsys):
        code = main(["table2", "--scale", "0.001", "--image-size", "16",
                     "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "ICCAD (paper)" in out

    def test_train_and_save(self, capsys, tmp_path):
        path = tmp_path / "model.npz"
        code = main([
            "train", "--scale", "0.001", "--image-size", "16", "--seed", "7",
            "--epochs", "1", "--finetune-epochs", "0", "--save", str(path),
        ])
        assert code == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "BNN detector" in out

    def test_train_save_then_predict(self, capsys, tmp_path):
        """train --save writes a self-describing checkpoint predict serves."""
        path = tmp_path / "ck"  # suffix-less on purpose
        assert main([
            "train", "--scale", "0.001", "--image-size", "16", "--seed", "7",
            "--epochs", "1", "--finetune-epochs", "0", "--save", str(path),
        ]) == 0
        assert (tmp_path / "ck.npz").exists()
        capsys.readouterr()

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the recorded backend is silent
            code = main([
                "predict", str(path), "--scale", "0.001", "--seed", "7",
                "--limit", "12",
            ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Backend" in out and "packed" in out
        assert "Accu (%)" in out

    @pytest.mark.parametrize("backend", ["float", "turbo"])
    def test_predict_backend(self, capsys, tmp_path, backend):
        """Any ``--backend`` is refused before a checkpoint is read."""
        with pytest.raises(SystemExit) as info:
            main(["predict", str(tmp_path / "ck.npz"), "--backend", backend])
        assert info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_predict_missing_checkpoint(self, capsys, tmp_path):
        assert main(["predict", str(tmp_path / "absent.npz"),
                     "--scale", "0.001"]) == 2

    def test_roc(self, capsys):
        code = main(["roc", "--scale", "0.002", "--image-size", "16",
                     "--seed", "7", "--epochs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "AUC" in out
        assert "recall at FA rate" in out

    def test_table3_small(self, capsys):
        code = main(["table3", "--scale", "0.002", "--image-size", "16",
                     "--seed", "7", "--epochs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Ours (BNN)" in out
        assert "SPIE'15" in out


class TestScanCommand:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("scan") / "ck.npz"
        assert main([
            "train", "--scale", "0.001", "--image-size", "16", "--seed", "7",
            "--epochs", "1", "--finetune-epochs", "0", "--save", str(path),
        ]) == 0
        return path

    def test_missing_layout_file(self, capsys, tmp_path):
        code = main(["scan", str(tmp_path / "absent.txt"), "ck.npz"])
        assert code == 2
        assert "not found" in capsys.readouterr().out

    def test_bad_synth_spec(self, capsys):
        assert main(["scan", "synth:not-a-size", "ck.npz"]) == 2
        assert "bad synth spec" in capsys.readouterr().out

    def test_missing_checkpoint(self, capsys, tmp_path):
        code = main(["scan", "synth:2048", str(tmp_path / "absent.npz")])
        assert code == 2
        assert "checkpoint not found" in capsys.readouterr().out

    def test_misaligned_geometry(self, capsys, checkpoint):
        # window 100 is not a multiple of the checkpoint's 16px input
        code = main(["scan", "synth:2048:3", str(checkpoint),
                     "--window", "100"])
        assert code == 2
        assert "cannot scan" in capsys.readouterr().out

    def test_clean_run(self, capsys, checkpoint):
        code = main(["scan", "synth:2048:3", str(checkpoint)])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro scan" in out and "2048nm layout" in out
        assert "Windows" in out and "Peak tile (MiB)" in out
        assert "DEGRADED" not in out

    def test_out_npz_roundtrip(self, capsys, checkpoint, tmp_path):
        from repro.chip import HotspotHeatmap

        out = tmp_path / "heatmap.npz"
        assert main(["scan", "synth:2048:3", str(checkpoint),
                     "--out", str(out)]) == 0
        heatmap = HotspotHeatmap.load_npz(out)
        assert heatmap.scores.shape[0] == len(heatmap.steps)
        assert not np.isnan(heatmap.scores).any()

    def test_out_json_summary(self, capsys, checkpoint, tmp_path):
        import json

        out = tmp_path / "scan.json"
        assert main(["scan", "synth:2048:3", str(checkpoint),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["windows"] > 0
        assert payload["degraded"] is False
        assert len(payload["hits"]) == payload["summary"]["hotspots"]

    def test_resume_without_journal(self, capsys):
        assert main(["scan", "synth:2048:3", "ck.npz", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().out

    def test_journal_clean_run(self, capsys, checkpoint, tmp_path):
        journal = tmp_path / "scan.journal"
        code = main(["scan", "synth:2048:3", str(checkpoint),
                     "--journal", str(journal)])
        assert code == 0
        assert journal.exists()
        out = capsys.readouterr().out
        assert "journal:" in out and "replayed 0 tiles" in out

    def test_journal_resume_replays(self, capsys, checkpoint, tmp_path):
        journal = tmp_path / "scan.journal"
        assert main(["scan", "synth:2048:3", str(checkpoint),
                     "--journal", str(journal)]) == 0
        capsys.readouterr()
        code = main(["scan", "synth:2048:3", str(checkpoint),
                     "--journal", str(journal), "--resume"])
        assert code == 0
        assert "resumed" in capsys.readouterr().out

    def test_journal_exists_without_resume(self, capsys, checkpoint,
                                           tmp_path):
        journal = tmp_path / "scan.journal"
        assert main(["scan", "synth:2048:3", str(checkpoint),
                     "--journal", str(journal)]) == 0
        capsys.readouterr()
        # without --resume an existing journal is refused, not clobbered
        code = main(["scan", "synth:2048:3", str(checkpoint),
                     "--journal", str(journal)])
        assert code == 2
        assert "cannot use journal" in capsys.readouterr().out

    def test_journal_geometry_mismatch(self, capsys, checkpoint, tmp_path):
        journal = tmp_path / "scan.journal"
        assert main(["scan", "synth:2048:3", str(checkpoint),
                     "--journal", str(journal)]) == 0
        capsys.readouterr()
        code = main(["scan", "synth:2048:3", str(checkpoint),
                     "--journal", str(journal), "--resume",
                     "--stride", "128"])
        assert code == 2
        assert "cannot use journal" in capsys.readouterr().out

    def test_degraded_scan_exits_4(self, capsys, checkpoint, tmp_path,
                                    monkeypatch):
        import dataclasses

        from repro.serve import HotspotService

        out = tmp_path / "scan.json"
        real = HotspotService.scan_chip

        def degrade(self, request, **kwargs):
            report = real(self, request, **kwargs)
            return dataclasses.replace(
                report, degraded=True, failed_tiles=(0,)
            )

        monkeypatch.setattr(HotspotService, "scan_chip", degrade)
        code = main(["scan", "synth:2048:3", str(checkpoint),
                     "--out", str(out)])
        assert code == 4
        # degraded-but-usable: the results were still written
        assert out.exists()
        assert "DEGRADED" in capsys.readouterr().out


class TestEngineDescribe:
    PASSES = ("fold-bn", "hoist-scales", "liveness")

    @staticmethod
    def blocks(out):
        """The ``== <stage> ==`` headers, in order."""
        return [line[3:-3] for line in out.splitlines()
                if line.startswith("== ") and line.endswith(" ==")]

    def test_seeded_model_runs_the_default_pipeline(self, capsys):
        code = main(["engine", "describe", "--image-size", "16",
                     "--base-width", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pipeline: fold-bn>hoist-scales>liveness" in out
        assert self.blocks(out) == ["lowered", *self.PASSES]
        assert "FusedBinaryConvOp" in out

    def test_passes_none_shows_the_lowered_program_only(self, capsys):
        code = main(["engine", "describe", "--image-size", "16",
                     "--base-width", "4", "--passes", "none"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pipeline: none" in out
        assert self.blocks(out) == ["lowered"]
        assert "FusedBinaryConvOp" not in out

    def test_describes_a_saved_checkpoint(self, capsys, tmp_path):
        path = tmp_path / "ck.npz"
        assert main([
            "train", "--scale", "0.001", "--image-size", "16", "--seed", "7",
            "--epochs", "1", "--finetune-epochs", "0", "--save", str(path),
        ]) == 0
        capsys.readouterr()
        code = main(["engine", "describe", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"model:    {path}" in out
        assert "input:    (1, 1, 16, 16)" in out
        assert self.blocks(out) == ["lowered", *self.PASSES]

    @pytest.mark.parametrize("spec", ["fold-bn", "fold-bn,liveness", "all"])
    def test_bad_passes_value_exits_2(self, capsys, spec):
        with pytest.raises(SystemExit) as info:
            main(["engine", "describe", "--passes", spec])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


@pytest.fixture(scope="module")
def served_checkpoint(tmp_path_factory):
    """An untrained but self-describing 16 px checkpoint (no training)."""
    meta = {"image_size": 16, "base_width": 4}
    return save_model(model_from_meta(meta),
                      tmp_path_factory.mktemp("served") / "ck.npz",
                      meta=meta)


def only_line(capsys) -> str:
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1, lines
    return lines[0]


class TestExitCodes:
    """One test per ``_EXIT_CODES`` row; each raises the typed error."""

    PREDICT = ["--scale", "0.001", "--image-size", "16", "--seed", "7"]
    TRAIN = ["train", "--scale", "0.001", "--image-size", "16", "--seed",
             "7", "--epochs", "1", "--finetune-epochs", "0"]

    @pytest.mark.parametrize("command", [
        ["predict", "{ck}", "--scale", "0.001"],
        ["scan", "synth:2048:3", "{ck}"],
        ["engine", "describe", "{ck}"],
    ])
    def test_checkpoint_without_image_size_exits_2(self, capsys, tmp_path,
                                                    command):
        """No architecture record is a bad checkpoint for every command."""
        meta = {"image_size": 16, "base_width": 4}
        path = save_model(model_from_meta(meta), tmp_path / "ck.npz",
                          meta={"base_width": 4})
        argv = [arg.format(ck=path) for arg in command]
        assert main(argv) == 2
        line = only_line(capsys)
        assert line.startswith("bad checkpoint: ") and "image_size" in line

    def test_truncated_checkpoint_exits_2(self, capsys, tmp_path,
                                          served_checkpoint):
        path = tmp_path / "ck.npz"
        payload = served_checkpoint.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        assert main(["predict", str(path), *self.PREDICT]) == 2
        assert only_line(capsys).startswith("bad checkpoint: ")

    def test_lowering_error_exits_2(self, capsys, monkeypatch):
        import importlib

        from repro.engine.lower import LoweringError

        # ``repro.engine.lower`` the attribute is the function
        lower_module = importlib.import_module("repro.engine.lower")

        def refuse(model):
            raise LoweringError("no lowering for layer Mystery", "Mystery")

        monkeypatch.setattr(lower_module, "lower", refuse)
        code = main(["engine", "describe", "--image-size", "16",
                     "--base-width", "4"])
        assert code == 2
        assert only_line(capsys) == ("cannot compile: no lowering for "
                                     "layer Mystery")

    def test_overflow_shed_exits_3(self, capsys, served_checkpoint):
        """A full queue under ``--overflow shed`` is not a traceback."""
        code = main(["predict", str(served_checkpoint), *self.PREDICT,
                     "--queue-depth", "1", "--overflow", "shed"])
        assert code == 3
        line = only_line(capsys)
        assert line.startswith("not served: admission queue full")

    def test_deadline_exceeded_exits_3(self, capsys, served_checkpoint,
                                       monkeypatch):
        from repro.serve import DeadlineExceeded, HotspotService

        def late(self, request, **kwargs):
            raise DeadlineExceeded("scan deadline of 0.5s exceeded",
                                   timeout_s=0.5, stage="tile")

        monkeypatch.setattr(HotspotService, "scan_chip", late)
        code = main(["scan", "synth:2048:3", str(served_checkpoint),
                     "--timeout-s", "0.5"])
        assert code == 3
        assert only_line(capsys) == ("not served: scan deadline of 0.5s "
                                     "exceeded")

    def test_divergence_exits_4(self, capsys, monkeypatch):
        from repro.detect import BNNDetector
        from repro.train import DivergenceError

        def diverge(self, *args, **kwargs):
            raise DivergenceError("loss went NaN 3 times in epoch 1",
                                  retries=3)

        monkeypatch.setattr(BNNDetector, "fit_evaluate", diverge)
        assert main(self.TRAIN) == 4
        assert only_line(capsys) == ("training diverged beyond recovery: "
                                     "loss went NaN 3 times in epoch 1")

    def test_preempted_training_exits_130_with_resume_hint(
            self, capsys, tmp_path, monkeypatch):
        from repro.detect import BNNDetector
        from repro.train import PreemptedError

        def preempt(self, *args, **kwargs):
            raise PreemptedError("SIGTERM at epoch 1, step 2",
                                 checkpoint=tmp_path / "run" / "ck-1.npz")

        monkeypatch.setattr(BNNDetector, "fit_evaluate", preempt)
        argv = [*self.TRAIN, "--checkpoint-dir", str(tmp_path / "run")]
        assert main(argv) == 130
        assert capsys.readouterr().out.splitlines() == [
            "training preempted: SIGTERM at epoch 1, step 2",
            "rerun with --resume to continue bit-identically: repro "
            + " ".join(argv) + " --resume",
        ]

    def test_preempted_training_without_checkpoint_has_no_hint(
            self, capsys, monkeypatch):
        from repro.detect import BNNDetector
        from repro.train import PreemptedError

        def preempt(self, *args, **kwargs):
            raise PreemptedError("interrupted; no checkpoint directory, "
                                 "run lost", checkpoint=None)

        monkeypatch.setattr(BNNDetector, "fit_evaluate", preempt)
        assert main(self.TRAIN) == 130
        assert "--resume" not in only_line(capsys)

    def test_preempted_scan_exits_130_with_resume_hint(
            self, capsys, tmp_path, served_checkpoint, monkeypatch):
        from repro.chip import ScanPreemptedError
        from repro.serve import HotspotService

        journal = tmp_path / "scan.journal"

        def preempt(self, request, **kwargs):
            raise ScanPreemptedError("stopped after 3 of 9 tiles",
                                     journal=journal, completed=3, total=9)

        monkeypatch.setattr(HotspotService, "scan_chip", preempt)
        argv = ["scan", "synth:2048:3", str(served_checkpoint),
                "--journal", str(journal), "--resume"]
        assert main(argv) == 130
        assert capsys.readouterr().out.splitlines() == [
            "scan preempted: stopped after 3 of 9 tiles",
            # --resume is already on the command line: not doubled
            "rerun with --resume to continue bit-identically: repro "
            + " ".join(argv),
        ]

    def test_unlisted_error_propagates(self, monkeypatch):
        """A bug is a traceback, never an exit code."""
        from repro.litho import LithographySimulator

        def broken(self, clip):
            raise RuntimeError("simulator bug")

        monkeypatch.setattr(LithographySimulator, "analyze", broken)
        with pytest.raises(RuntimeError, match="simulator bug"):
            main(["litho"])

    def test_readme_table_matches(self):
        """The README's exit-code table is ``_EXIT_CODES``, row by row."""
        text = README.read_text()
        header = "| code | typed error | message prefix | meaning |"
        assert header in text
        rows = []
        for line in text[text.index(header):].splitlines()[2:]:
            if not line.startswith("|"):
                break
            code, error, prefix = (cell.strip().strip("`") for cell
                                   in line.strip("|").split("|")[:3])
            rows.append((int(code), error, prefix))
        assert rows == [(code, error.__name__, prefix)
                        for error, code, prefix in _EXIT_CODES]
