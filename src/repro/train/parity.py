"""Resume-parity chaos harness: the correctness gate for crash safety.

The guarantee under test: a training run killed at *any* batch step and
resumed from its latest run-state checkpoint produces **bit-identical**
final weights to a never-interrupted run with the same seeds — across
both the main MGD phase and the biased fine-tune phase of the BNN
detector.  "Close" is not good enough; the repo's determinism bar (see
``repro.engine.parity``) extends to resume.

Use :func:`resume_parity` programmatically (the pytest chaos suite
does), or run as a module for the CI quick gate::

    PYTHONPATH=src python -m repro.train.parity --epochs 2 --kills 3

which trains a small detector straight through, then for several
randomly chosen kill steps — always including one inside the fine-tune
phase — kills, resumes, compares weights, and finally checks that a
checkpoint truncated mid-write is refused with a typed error.  Exits
non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..detect.bnn_detector import BNNDetector
from ..nn.data import ArrayDataset
from ..nn.serialization import CheckpointError, state_checksum
from .checkpoint import CheckpointManager, load_run_state

__all__ = [
    "KillResult",
    "KilledRun",
    "ParityReport",
    "make_detector",
    "planted_dataset",
    "resume_parity",
    "truncation_refused",
    "main",
]


class KilledRun(RuntimeError):
    """Simulated hard crash injected by the chaos step hook."""


def planted_dataset(
    n_per_class: int, size: int, rng: np.random.Generator
) -> ArrayDataset:
    """Small planted-signal set (speckle vs. filled block), learnable fast."""
    images = np.zeros((2 * n_per_class, 1, size, size), dtype=np.float32)
    labels = np.zeros(2 * n_per_class, dtype=np.int64)
    for i in range(n_per_class):
        images[i, 0] = rng.random((size, size)) < 0.08
    block = size // 2
    for i in range(n_per_class, 2 * n_per_class):
        y = int(rng.integers(0, size - block + 1))
        x = int(rng.integers(0, size - block + 1))
        images[i, 0, y : y + block, x : x + block] = 1.0
        labels[i] = 1
    order = rng.permutation(2 * n_per_class)
    return ArrayDataset(images[order], labels[order])


def make_detector(
    base_width: int = 4,
    epochs: int = 2,
    finetune_epochs: int = 1,
    batch_size: int = 16,
    seed: int = 0,
    **kwargs,
) -> BNNDetector:
    """A small, fast, deterministic detector configuration."""
    return BNNDetector(
        channels=(base_width, 2 * base_width),
        epochs=epochs,
        finetune_epochs=finetune_epochs,
        batch_size=batch_size,
        stem_stride=1,
        backend=None,
        seed=seed,
        **kwargs,
    )


@dataclass(frozen=True)
class KillResult:
    """Outcome of one kill-and-resume round."""

    kill_step: int
    phase: str  #: phase the kill landed in ("main" / "finetune")
    identical: bool  #: resumed final weights byte-identical to reference


@dataclass
class ParityReport:
    """All chaos rounds plus the mid-write-truncation check."""

    total_steps: int
    kills: list[KillResult]
    truncation_refused: bool

    @property
    def ok(self) -> bool:
        return self.truncation_refused and all(k.identical for k in self.kills)


def _fit_reference(dataset, fit_seed, **detector_kwargs):
    """Straight-through run: final weights + the total step count."""
    steps = []
    detector = make_detector(**detector_kwargs, step_hook=steps.append)
    detector.fit(dataset, np.random.default_rng(fit_seed))
    return detector.model.state_dict(), len(steps)


def _fit_killed_then_resumed(dataset, fit_seed, kill_step, checkpoint_dir,
                             **detector_kwargs):
    """Kill at ``kill_step`` via a raising hook, then resume to the end."""

    def bomb(step: int) -> None:
        if step == kill_step:
            raise KilledRun(f"simulated crash at step {step}")

    victim = make_detector(**detector_kwargs, checkpoint_dir=checkpoint_dir,
                           step_hook=bomb)
    try:
        victim.fit(dataset, np.random.default_rng(fit_seed))
        raise AssertionError(
            f"kill step {kill_step} never fired (run too short?)"
        )
    except KilledRun:
        pass
    survivor = make_detector(**detector_kwargs, checkpoint_dir=checkpoint_dir,
                             resume=True)
    survivor.fit(dataset, np.random.default_rng(fit_seed))
    return survivor.model.state_dict()


def resume_parity(
    kills: int = 3,
    epochs: int = 2,
    finetune_epochs: int = 1,
    image_size: int = 16,
    base_width: int = 4,
    batch_size: int = 16,
    n_per_class: int = 15,
    data_seed: int = 0,
    fit_seed: int = 1,
    chaos_seed: int = 7,
    work_dir: str | None = None,
    verbose: bool = False,
) -> ParityReport:
    """Run the full chaos gate; see the module docstring."""
    if kills < 1:
        raise ValueError(f"kills must be >= 1, got {kills}")
    dataset = planted_dataset(n_per_class, image_size,
                              np.random.default_rng(data_seed))
    detector_kwargs = dict(base_width=base_width, epochs=epochs,
                           finetune_epochs=finetune_epochs,
                           batch_size=batch_size)
    reference, total_steps = _fit_reference(dataset, fit_seed,
                                            **detector_kwargs)
    reference_digest = state_checksum(reference)
    # phase boundary in global steps: phases run back to back, so the
    # fine-tune phase owns the last finetune/(epochs+finetune) fraction
    steps_per_epoch = total_steps // (epochs + finetune_epochs)
    main_steps = steps_per_epoch * epochs
    chaos = np.random.default_rng(chaos_seed)
    kill_steps = set()
    if finetune_epochs > 0:  # always cover the biased fine-tune phase
        kill_steps.add(int(chaos.integers(main_steps + 1, total_steps + 1)))
    while len(kill_steps) < min(kills, total_steps):
        kill_steps.add(int(chaos.integers(1, total_steps + 1)))

    base = Path(work_dir) if work_dir is not None else None
    results = []
    for kill_step in sorted(kill_steps):
        if base is not None:
            checkpoint_dir = base / f"kill-{kill_step:04d}"
        else:
            checkpoint_dir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
        resumed = _fit_killed_then_resumed(
            dataset, fit_seed, kill_step, checkpoint_dir, **detector_kwargs
        )
        identical = state_checksum(resumed) == reference_digest
        phase = "finetune" if kill_step > main_steps else "main"
        results.append(KillResult(kill_step, phase, identical))
        if verbose:
            verdict = "bit-identical" if identical else "MISMATCH"
            print(f"kill at step {kill_step:4d} ({phase:8s}): resume "
                  f"{verdict}")
        last_dir = checkpoint_dir
    refused = truncation_refused(last_dir)
    if verbose:
        print(f"truncated checkpoint refused with typed error: {refused}")
    return ParityReport(total_steps=total_steps, kills=results,
                        truncation_refused=refused)


def truncation_refused(checkpoint_dir: str | Path) -> bool:
    """Truncate the latest run state mid-file; expect a typed refusal."""
    manager = CheckpointManager(checkpoint_dir)
    info = manager.latest()
    if info is None:
        raise AssertionError(f"no checkpoints under {checkpoint_dir}")
    data = info.path.read_bytes()
    info.path.write_bytes(data[: max(1, len(data) // 2)])
    try:
        load_run_state(info.path)
    except CheckpointError:
        return True
    except Exception:
        return False  # wrong (untyped) error
    return False  # silently loaded garbage


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for the CI resume-parity quick gate."""
    parser = argparse.ArgumentParser(
        description="kill-at-any-step resume-parity chaos gate"
    )
    parser.add_argument("--kills", type=int, default=3,
                        help="number of random kill points (default 3; one "
                             "is always inside the fine-tune phase)")
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--finetune-epochs", type=int, default=1)
    parser.add_argument("--image-size", type=int, default=16)
    parser.add_argument("--base-width", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--chaos-seed", type=int, default=7)
    args = parser.parse_args(argv)
    report = resume_parity(
        kills=args.kills, epochs=args.epochs,
        finetune_epochs=args.finetune_epochs, image_size=args.image_size,
        base_width=args.base_width, batch_size=args.batch_size,
        chaos_seed=args.chaos_seed, verbose=True,
    )
    print(f"{len(report.kills)} kill points over {report.total_steps} steps: "
          f"{'all bit-identical' if all(k.identical for k in report.kills) else 'MISMATCHES'}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
