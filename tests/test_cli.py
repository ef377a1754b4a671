"""Tests for the command-line interface."""

import warnings

import numpy as np
import pytest

from repro.cli import build_parser, main


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
        assert main(["litho", "--pattern", "nonsense"]) == 2

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
