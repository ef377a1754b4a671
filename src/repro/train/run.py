"""Crash-safe training orchestration (Algorithm 1, made killable).

:class:`TrainingRun` wraps the per-phase :class:`~repro.nn.trainer.
Trainer` loop — the paper's main MGD phase plus the DAC'17-style biased
fine-tune phase — with the fault tolerance the serving layer already
has:

* **Atomic checkpointing** of the *full* run state every epoch (and,
  optionally, every N steps): model master weights, optimizer moments,
  scheduler state, the RNG states of every phase's DataLoader and
  augmenter, the epoch/phase position, partial-epoch accumulators, and
  the :class:`~repro.nn.trainer.History` so far.
* **Bit-identical resume**: a run killed at *any* batch step and
  resumed from its latest checkpoint produces exactly the same final
  weights as a never-interrupted run.  The trick is that a checkpoint
  stores the RNG states as of the *start* of the in-flight epoch plus
  the number of completed batches; resume replays the epoch's batch
  stream (consuming the loader and augmentation RNGs identically),
  skips the already-trained prefix, and continues.
* **Divergence sentinel**: a non-finite loss or an exploding gradient
  norm (see ``Trainer.max_grad_norm``) rolls the run back to the last
  good state, cuts the learning rate, and retries — bounded by
  ``max_retries`` — instead of crashing.  Every rollback is recorded in
  ``History.events``.
* **Graceful preemption**: SIGINT/SIGTERM (or an explicit
  :meth:`TrainingRun.request_preemption`) finishes the in-flight batch,
  writes a resumable checkpoint, and raises
  :class:`~repro.train.errors.PreemptedError`.
"""

from __future__ import annotations

import json
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..nn.data import DataLoader
from ..nn.module import Module
from ..nn.trainer import History, Trainer, evaluate_loss
from .checkpoint import CheckpointManager
from .errors import DivergenceError, PreemptedError

__all__ = ["TrainingPhase", "TrainingRun"]


@contextmanager
def preemption_signals(
    enabled: bool, request_preemption: Callable[[str], None]
):
    """Route SIGINT/SIGTERM to ``request_preemption`` inside the block.

    Handlers are installed only when ``enabled`` and on the main thread
    (the only thread Python delivers signals to); the previous handlers
    are restored however the block ends.  Shared by training runs and
    durable chip scans, whose preemption contracts are the same.
    """
    installed = []
    if enabled and threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            def handler(sig, frame, _name=signal.Signals(signum).name):
                request_preemption(f"received {_name}")
            try:
                installed.append((signum, signal.signal(signum, handler)))
            except (ValueError, OSError):  # pragma: no cover - platform
                break
    try:
        yield
    finally:
        for signum, previous in installed:
            signal.signal(signum, previous)


@dataclass
class TrainingPhase:
    """One phase of a (possibly multi-phase) training schedule.

    The BNN detector uses two: ``"main"`` (Algorithm 1's MGD epochs)
    and ``"finetune"`` (the biased-learning epochs of Section 3.4.3).
    The trainer carries the phase's optimizer, scheduler and loss; the
    loaders carry the phase's sampling and augmentation RNGs.
    """

    name: str
    epochs: int
    trainer: Trainer
    train_loader: DataLoader
    val_loader: DataLoader | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(
                f"phase {self.name!r} must have epochs >= 1, got {self.epochs}"
            )


class TrainingRun:
    """Orchestrates a phase schedule with checkpoint/resume/rollback.

    Parameters
    ----------
    model:
        The shared model every phase's trainer updates.
    phases:
        Executed in order.  Phase names must be unique (checkpoints
        record the schedule and refuse to resume a different one).
    checkpoint_dir:
        Run-state directory; ``None`` disables persistence (divergence
        rollback still works from an in-memory snapshot, but a killed
        run is not resumable).
    keep:
        Retention: keep the last ``keep`` checkpoints + the best-val one.
    checkpoint_every_steps:
        Optional step cadence for mid-epoch checkpoints, on top of the
        one at every epoch boundary.
    max_retries:
        Divergence rollbacks allowed without completing an epoch before
        :class:`~repro.train.errors.DivergenceError` is raised.
    lr_cut:
        Learning-rate multiplier applied after each rollback.
    step_hook:
        Optional callable invoked with the global step after every
        trained batch — the chaos-testing seam (a hook that raises
        simulates a hard crash at that exact step).
    handle_signals:
        Install SIGINT/SIGTERM handlers for the duration of
        :meth:`run` that convert the signal into graceful preemption.
        Ignored when not on the main thread.
    """

    def __init__(
        self,
        model: Module,
        phases: list[TrainingPhase],
        checkpoint_dir=None,
        keep: int = 3,
        checkpoint_every_steps: int | None = None,
        max_retries: int = 3,
        lr_cut: float = 0.5,
        step_hook=None,
        handle_signals: bool = False,
        verbose: bool = False,
    ):
        if not phases:
            raise ValueError("at least one training phase is required")
        names = [phase.name for phase in phases]
        if len(set(names)) != len(names):
            raise ValueError(f"phase names must be unique, got {names}")
        for phase in phases:
            if phase.trainer.model is not model:
                raise ValueError(
                    f"phase {phase.name!r} trains a different model object"
                )
        if checkpoint_every_steps is not None and checkpoint_every_steps < 1:
            raise ValueError(
                "checkpoint_every_steps must be >= 1, got "
                f"{checkpoint_every_steps}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if not 0.0 < lr_cut < 1.0:
            raise ValueError(f"lr_cut must be in (0, 1), got {lr_cut}")
        self.model = model
        self.phases = list(phases)
        self.manager = (
            CheckpointManager(checkpoint_dir, keep=keep)
            if checkpoint_dir is not None
            else None
        )
        self.checkpoint_every_steps = checkpoint_every_steps
        self.max_retries = max_retries
        self.lr_cut = lr_cut
        self.step_hook = step_hook
        self.handle_signals = handle_signals
        self.verbose = verbose
        self.history = History()
        # position: the next (phase, epoch, batch) to execute
        self._phase_index = 0
        self._epoch_in_phase = 0
        self._batch_index = 0
        self._epoch_loss = 0.0
        self._seen = 0
        self._global_step = 0
        self._last_val_loss = float("nan")
        self._retries = 0
        self._preempted = False
        self._preempt_reason = "preemption requested"
        self._last_good: dict[str, np.ndarray] | None = None
        self._epoch_start_loaders: dict[int, dict[str, str]] | None = None

    # -- public API ------------------------------------------------------

    def request_preemption(self, reason: str = "preemption requested") -> None:
        """Ask the run to stop after the in-flight batch (thread-safe)."""
        self._preempt_reason = reason
        self._preempted = True

    def run(self, resume: bool = False) -> History:
        """Execute the schedule; returns the (possibly restored) History.

        With ``resume=True`` and a checkpoint directory holding state,
        continues bit-identically from the latest checkpoint; with an
        empty directory it starts fresh.  A corrupt latest checkpoint
        raises :class:`~repro.nn.serialization.CheckpointError` rather
        than being loaded or skipped.
        """
        if resume and self.manager is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        if not resume and self.manager is not None:
            existing = self.manager.checkpoints()
            if existing:
                raise ValueError(
                    f"checkpoint directory {self.manager.directory} already "
                    f"holds {len(existing)} run-state checkpoint(s); pass "
                    "resume=True to continue that run or point at an empty "
                    "directory to start fresh"
                )
        restored = None
        if resume:
            restored = self.manager.load_latest()
        if restored is not None:
            self._apply_state(restored)
            self._last_good = restored
            self.history.events.append({
                "kind": "resume",
                "step": self._global_step,
                "phase": self._current_phase_name(),
            })
        else:
            self._last_good = self._capture_state()
            if self.manager is not None:
                self.manager.save(self._global_step, self._last_good)
        with preemption_signals(self.handle_signals, self.request_preemption):
            self._loop()
        return self.history

    # -- main loop -------------------------------------------------------

    def _loop(self) -> None:
        while self._phase_index < len(self.phases):
            phase = self.phases[self._phase_index]
            if self._epoch_in_phase >= phase.epochs:
                self._phase_index += 1
                self._epoch_in_phase = 0
                continue
            try:
                self._train_one_epoch(phase)
            except PreemptedError:
                raise
            except FloatingPointError as exc:
                self._rollback(exc)
                continue
            # epoch completed: advance the position (possibly across a
            # phase boundary) before capturing state, so a checkpoint
            # always records the *next* work to execute
            self._epoch_in_phase += 1
            if self._epoch_in_phase >= phase.epochs:
                self._phase_index += 1
                self._epoch_in_phase = 0
            self._retries = 0
            saved = None
            self._last_good = self._capture_state()
            if self.manager is not None:  # a checkpoint at every epoch end
                saved = self.manager.save(self._global_step, self._last_good)
            if self._preempted:
                raise self._preemption_error(saved)

    def _train_one_epoch(self, phase: TrainingPhase) -> None:
        trainer = phase.trainer
        start_batch = self._batch_index
        epoch_loss, seen = self._epoch_loss, self._seen
        # RNG states as of the epoch start: what a mid-epoch checkpoint
        # must record so resume can replay this epoch's batch stream
        self._epoch_start_loaders = {
            i: ph.train_loader.state_dict() for i, ph in enumerate(self.phases)
        }
        batch_index = 0
        for images, labels in phase.train_loader:
            if batch_index < start_batch:
                # resume replay: iterating the loader consumed the
                # sampling and augmentation RNGs exactly as the original
                # epoch did; the batch itself was already trained on
                batch_index += 1
                continue
            loss = trainer.train_batch(images, labels)
            batch_index += 1
            epoch_loss += loss * images.shape[0]
            seen += images.shape[0]
            self._global_step += 1
            self._batch_index = batch_index
            self._epoch_loss, self._seen = epoch_loss, seen
            if self.step_hook is not None:
                self.step_hook(self._global_step)
            if self._preempted:
                saved = None
                if self.manager is not None:
                    saved = self.manager.save(
                        self._global_step, self._capture_state(mid_epoch=True)
                    )
                raise self._preemption_error(saved)
            if (
                self.checkpoint_every_steps is not None
                and self.manager is not None
                and self._global_step % self.checkpoint_every_steps == 0
            ):
                self.manager.save(
                    self._global_step, self._capture_state(mid_epoch=True)
                )
        if seen == 0:
            raise ValueError(
                f"phase {phase.name!r} train loader produced no batches"
            )
        train_loss = epoch_loss / seen
        self._batch_index = 0
        self._epoch_loss, self._seen = 0.0, 0
        self.history.train_loss.append(train_loss)
        self.history.lr.append(trainer.optimizer.lr)
        val_loss = None
        if phase.val_loader is not None:
            val_loss = evaluate_loss(self.model, phase.val_loader,
                                     trainer.loss_fn)
            self.history.val_loss.append(val_loss)
            self._last_val_loss = val_loss
        if trainer.scheduler is not None:
            trainer.scheduler.step(val_loss)
        if self.verbose:
            msg = (f"[{phase.name}] epoch "
                   f"{self._epoch_in_phase + 1}/{phase.epochs} "
                   f"train_loss={train_loss:.4f}")
            if val_loss is not None:
                msg += f" val_loss={val_loss:.4f}"
            msg += f" lr={trainer.optimizer.lr:.4g}"
            print(msg)

    def _rollback(self, exc: FloatingPointError) -> None:
        """Restore the last good state, cut the lr, record the event."""
        self._retries += 1
        if self._retries > self.max_retries:
            raise DivergenceError(
                f"training diverged {self._retries} times without "
                f"completing an epoch (last: {exc}); giving up after "
                f"{self.max_retries} rollbacks",
                retries=self._retries - 1,
            ) from exc
        failed_step = self._global_step
        failed_phase = self._current_phase_name()
        self._apply_state(self._last_good)
        optimizer = self.phases[self._phase_index].trainer.optimizer
        optimizer.lr *= self.lr_cut
        self.history.events.append({
            "kind": "divergence_rollback",
            "step": failed_step,
            "phase": failed_phase,
            "retry": self._retries,
            "error": str(exc),
            "lr": optimizer.lr,
        })
        if self.verbose:
            print(f"[{failed_phase}] divergence at step {failed_step} "
                  f"({exc}); rolled back, lr cut to {optimizer.lr:.4g} "
                  f"(retry {self._retries}/{self.max_retries})")

    # -- state capture / restore ----------------------------------------

    def _current_phase_name(self) -> str:
        if self._phase_index < len(self.phases):
            return self.phases[self._phase_index].name
        return "<complete>"

    def _schedule_fingerprint(self) -> str:
        return json.dumps([[ph.name, ph.epochs] for ph in self.phases])

    def _capture_state(self, mid_epoch: bool = False) -> dict[str, np.ndarray]:
        """Flat run-state dict (the ``.npz`` layout, sans checksum).

        ``mid_epoch=True`` records the current phase's loader RNGs as of
        the epoch *start* (captured by :meth:`_train_one_epoch`), since
        resuming a partial epoch replays its batch stream from the top.
        """
        state: dict[str, np.ndarray] = {}
        for name, array in self.model.state_dict().items():
            state[f"model.{name}"] = array
        if self._phase_index < len(self.phases):
            trainer = self.phases[self._phase_index].trainer
            for key, value in trainer.optimizer.state_dict().items():
                state[f"optim.{key}"] = np.asarray(value)
            if trainer.scheduler is not None:
                for key, value in trainer.scheduler.state_dict().items():
                    state[f"sched.{key}"] = np.asarray(value)
        if mid_epoch:
            if self._epoch_start_loaders is None:
                raise RuntimeError("mid-epoch capture outside an epoch")
            loader_states = self._epoch_start_loaders
        else:
            loader_states = {
                i: ph.train_loader.state_dict()
                for i, ph in enumerate(self.phases)
            }
        for i, loader_state in loader_states.items():
            for key, value in loader_state.items():
                state[f"loader.p{i}.{key}"] = np.asarray(value)
        for i, phase in enumerate(self.phases):
            if phase.val_loader is not None:
                for key, value in phase.val_loader.state_dict().items():
                    state[f"valloader.p{i}.{key}"] = np.asarray(value)
        state["history.train_loss"] = np.asarray(self.history.train_loss,
                                                 dtype=np.float64)
        state["history.val_loss"] = np.asarray(self.history.val_loss,
                                               dtype=np.float64)
        state["history.lr"] = np.asarray(self.history.lr, dtype=np.float64)
        state["history.events"] = np.asarray(json.dumps(self.history.events))
        state["run.schedule"] = np.asarray(self._schedule_fingerprint())
        state["run.phase_index"] = np.int64(self._phase_index)
        state["run.epoch_in_phase"] = np.int64(self._epoch_in_phase)
        state["run.batch_index"] = np.int64(self._batch_index)
        state["run.epoch_loss"] = np.float64(self._epoch_loss)
        state["run.seen"] = np.int64(self._seen)
        state["run.global_step"] = np.int64(self._global_step)
        state["run.val_loss"] = np.float64(self._last_val_loss)
        state["run.complete"] = np.int64(self._phase_index >= len(self.phases))
        return state

    def _apply_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore a captured state into the live objects."""
        recorded = str(np.asarray(state["run.schedule"]).item())
        if recorded != self._schedule_fingerprint():
            raise ValueError(
                "checkpoint was written by a different phase schedule "
                f"({recorded} vs {self._schedule_fingerprint()}); "
                "reconstruct the run with the same phases to resume"
            )
        self.model.load_state_dict(_sub_state(state, "model."))
        self._phase_index = int(state["run.phase_index"])
        self._epoch_in_phase = int(state["run.epoch_in_phase"])
        self._batch_index = int(state["run.batch_index"])
        self._epoch_loss = float(state["run.epoch_loss"])
        self._seen = int(state["run.seen"])
        self._global_step = int(state["run.global_step"])
        self._last_val_loss = float(state["run.val_loss"])
        if self._phase_index < len(self.phases):
            trainer = self.phases[self._phase_index].trainer
            trainer.optimizer.load_state_dict(_sub_state(state, "optim."))
            sched_state = _sub_state(state, "sched.")
            if trainer.scheduler is not None and sched_state:
                trainer.scheduler.load_state_dict(sched_state)
        for i, phase in enumerate(self.phases):
            loader_state = {
                key: str(np.asarray(value).item())
                for key, value in _sub_state(state, f"loader.p{i}.").items()
            }
            if loader_state:
                phase.train_loader.load_state_dict(loader_state)
            if phase.val_loader is not None:
                val_state = {
                    key: str(np.asarray(value).item())
                    for key, value in
                    _sub_state(state, f"valloader.p{i}.").items()
                }
                if val_state:
                    phase.val_loader.load_state_dict(val_state)
        self.history.train_loss[:] = [
            float(x) for x in np.asarray(state["history.train_loss"])
        ]
        self.history.val_loss[:] = [
            float(x) for x in np.asarray(state["history.val_loss"])
        ]
        self.history.lr[:] = [float(x) for x in np.asarray(state["history.lr"])]
        self.history.events[:] = json.loads(
            str(np.asarray(state["history.events"]).item())
        )

    # -- preemption ------------------------------------------------------

    def _preemption_error(self, saved) -> PreemptedError:
        if saved is not None:
            message = (f"{self._preempt_reason}; checkpointed at step "
                       f"{self._global_step} to {saved} — resume to continue")
        elif self.manager is None:
            message = (f"{self._preempt_reason}; no checkpoint_dir "
                       "configured, this run is not resumable")
        else:
            message = f"{self._preempt_reason} at step {self._global_step}"
        return PreemptedError(message, checkpoint=saved)


def _sub_state(
    state: dict[str, np.ndarray], prefix: str
) -> dict[str, np.ndarray]:
    """Entries under ``prefix``, with the prefix stripped."""
    return {
        key[len(prefix):]: value
        for key, value in state.items()
        if key.startswith(prefix)
    }
