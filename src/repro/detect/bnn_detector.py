"""The paper's detector: binarized residual network + biased learning.

Training follows Section 3.4: down-sampled binary clip images mapped to
the {-1, +1} domain, random flip augmentation, NAdam with
plateau-decayed learning rate, master weights clamped to [-1, 1] after
each step, then a biased fine-tuning phase with softened non-hotspot
targets (``eps = 0.2``).  Inference runs on the bit-packed
XNOR/popcount engine by default.
"""

from __future__ import annotations

import numpy as np

from ..binary.block import clip_binary_weights
from ..binary.inference import ProgramEngine
from ..features.downsample import to_network_input
from ..models.bnn_resnet import build_bnn_resnet
from ..nn.data import ArrayDataset, DataLoader, RandomFlip, balanced_weights
from ..nn.optim import NAdam
from ..nn.schedulers import ReduceLROnPlateau
from ..nn.trainer import History, Trainer, predict_logits
from ..train import TrainingPhase, TrainingRun
from .base import HotspotDetector
from .biased import biased_targets

__all__ = ["BNNDetector", "stages_for_image_size"]


def stages_for_image_size(image_size: int, stem_stride: int = 1) -> int:
    """Number of stride-2 residual stages so the final map is 4x4:
    5 stages at the paper's 128x128 (stride-1 stem), fewer for the
    scaled-down benchmark images or a down-sampling stem."""
    stages = int(np.log2(image_size)) - 2 - (1 if stem_stride > 1 else 0)
    return int(np.clip(stages, 2, 5))


class BNNDetector(HotspotDetector):
    """Hotspot detector built on the binarized residual network.

    Parameters
    ----------
    channels:
        Stage filter counts; ``None`` derives the paper's doubling
        scheme (``base_width * 2**i``) with one stage per factor-2
        down-sampling of the input.
    scaling:
        Activation scaling mode of the binary convolutions.  Both
        ``"xnor"`` and the paper's per-channel ``"channelwise"``
        (Eq. 14) run exactly on the packed engine; channelwise uses the
        slower per-channel popcount path.
    epochs / finetune_epochs:
        Main training epochs and biased fine-tuning epochs.
    epsilon:
        Bias term of the fine-tuning targets (Section 3.4.3).
    finetune_hotspot_mass:
        Expected hotspot fraction of the biased fine-tune mini-batches;
        0.5 keeps the rebalanced sampling of the main phase, ``None``
        fine-tunes on the natural distribution (the paper's setting,
        where the softened targets are the only imbalance handle).
    lr:
        Initial learning rate.  The paper uses 0.15 on MXNet's scale;
        the float-simulated NAdam here is stable around 0.01.
    backend:
        Engine backend :meth:`predict` runs on after ``fit`` (see
        :mod:`repro.engine.backends`): ``"packed"`` is the popcount
        engine (the deployment configuration), ``"float"`` the
        bit-identical float-MAC substrate.  ``None`` compiles no engine
        and predicts with the float training simulation
        (``model.forward``).
    balance:
        Class-rebalance the main-phase mini-batches (draw with
        replacement so both classes contribute equally).  Necessary at
        the scaled-down benchmark sizes where the 6.6% hotspot fraction
        leaves too few positives per epoch.
    stem_stride:
        Stem convolution stride; ``None`` picks 2 for inputs of 64
        pixels and larger (the ResNet-18-style early down-sampling).
    target_fa_rate:
        Optional operating-point calibration: after training, pick the
        decision threshold on the *validation* split as the most
        recall-aggressive threshold whose validation false-alarm rate
        stays at or below this fraction of non-hotspots.  ``None``
        keeps the plain argmax decision.
    checkpoint_dir / resume / keep:
        Crash safety (see :class:`repro.train.TrainingRun`): with a
        directory set, every epoch of both training phases writes an
        atomic run-state checkpoint, and ``resume=True`` continues a
        killed run bit-identically (same constructor arguments, seed
        and fit ``rng`` required).  ``keep`` is the retention depth
        (last N + best-validation).
    max_grad_norm:
        Optional exploding-gradient guard forwarded to the trainers;
        with a checkpoint state available, a tripped guard rolls back
        and retries with a cut learning rate instead of crashing.
    handle_signals:
        Convert SIGINT/SIGTERM during ``fit`` into graceful preemption
        (finish the batch, checkpoint, raise
        :class:`~repro.train.PreemptedError`).
    step_hook:
        Test/chaos instrumentation: called with the global batch step
        after every update (the same seam the fault-injection tests of
        the serving layer use).
    """

    name = "Ours (BNN)"

    def __init__(
        self,
        channels: tuple[int, ...] | None = None,
        blocks_per_stage: tuple[int, ...] | None = None,
        base_width: int = 8,
        scaling: str = "xnor",
        epochs: int = 12,
        finetune_epochs: int = 4,
        epsilon: float = 0.2,
        finetune_hotspot_mass: float | None = 0.5,
        lr: float = 0.01,
        batch_size: int = 32,
        val_fraction: float = 0.15,
        backend: str | None = "packed",
        balance: bool = True,
        stem_stride: int | None = None,
        target_fa_rate: float | None = None,
        seed: int = 0,
        verbose: bool = False,
        checkpoint_dir=None,
        resume: bool = False,
        keep: int = 3,
        max_grad_norm: float | None = None,
        handle_signals: bool = False,
        step_hook=None,
    ):
        self.channels = channels
        self.blocks_per_stage = blocks_per_stage
        self.base_width = base_width
        self.scaling = scaling
        self.epochs = epochs
        self.finetune_epochs = finetune_epochs
        self.epsilon = epsilon
        self.finetune_hotspot_mass = finetune_hotspot_mass
        self.lr = lr
        self.batch_size = batch_size
        self.val_fraction = val_fraction
        self.backend = backend
        self.balance = balance
        self.stem_stride = stem_stride
        self.target_fa_rate = target_fa_rate
        self.seed = seed
        self.verbose = verbose
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.keep = keep
        self.max_grad_norm = max_grad_norm
        self.handle_signals = handle_signals
        self.step_hook = step_hook
        self.model = None
        self.engine: ProgramEngine | None = None
        self.decision_bias = 0.0
        self.history: History | None = None

    @property
    def backend_name(self) -> str:
        """The engine backend :meth:`predict` runs on (after ``fit``)."""
        if self.engine is not None:
            return self.engine.backend_name
        return self.backend or "float"

    # -- internals -------------------------------------------------------

    def _build(self, image_size: int):
        stem_stride = self.stem_stride
        if stem_stride is None:
            stem_stride = 2 if image_size >= 64 else 1
        channels = self.channels
        if channels is None:
            n_stages = stages_for_image_size(image_size, stem_stride)
            channels = tuple(self.base_width * (2**i) for i in range(n_stages))
        return build_bnn_resnet(channels,
                                blocks_per_stage=self.blocks_per_stage,
                                scaling=self.scaling, seed=self.seed,
                                stem_stride=stem_stride)

    def _build_phase(
        self,
        name: str,
        train_part: ArrayDataset,
        val_loader: DataLoader | None,
        epochs: int,
        lr: float,
        rng: np.random.Generator,
        hard_labels: np.ndarray,
        hotspot_mass: float | None,
    ) -> TrainingPhase | None:
        """Construct one training phase (main or biased fine-tune).

        ``hard_labels`` are the 0/1 labels of ``train_part`` used for
        class-rebalanced sampling (the dataset itself may carry soft
        targets); ``hotspot_mass`` is the expected positive fraction per
        epoch (``None`` keeps the natural distribution).  Draws exactly
        two seeds from ``rng`` (loader, then augmenter) so that phase
        reconstruction — e.g. before a resume — is deterministic.
        """
        if epochs <= 0:
            return None
        optimizer = NAdam(self.model.parameters(), lr=lr)
        scheduler = ReduceLROnPlateau(optimizer, factor=0.5, patience=1)
        trainer = Trainer(
            self.model,
            optimizer,
            scheduler=scheduler,
            post_step=lambda: clip_binary_weights(self.model),
            max_grad_norm=self.max_grad_norm,
        )
        weights = (
            balanced_weights(hard_labels, positive_mass=hotspot_mass)
            if hotspot_mass is not None
            else None
        )
        loader = DataLoader(
            train_part,
            self.batch_size,
            rng=np.random.default_rng(rng.integers(2**32)),
            augment=RandomFlip(np.random.default_rng(rng.integers(2**32))),
            sample_weights=weights,
        )
        return TrainingPhase(name=name, epochs=epochs, trainer=trainer,
                             train_loader=loader, val_loader=val_loader)

    def _scores(self, images: np.ndarray) -> np.ndarray:
        """Hotspot decision scores (hotspot logit minus non-hotspot)."""
        if self.engine is not None:
            logits = self.engine.predict_logits(images)
        else:
            logits = predict_logits(self.model, images)
        return logits[:, 1] - logits[:, 0]

    def _calibrate(self, val_images: np.ndarray, val_labels: np.ndarray) -> None:
        """Choose ``decision_bias`` so the validation false-alarm rate
        stays at or below ``target_fa_rate`` (the most recall-aggressive
        such threshold)."""
        negatives = self._scores(val_images)[val_labels == 0]
        if negatives.size == 0:
            return
        # allow the top target_fa_rate fraction of negatives to be flagged
        self.decision_bias = float(
            np.quantile(negatives, 1.0 - self.target_fa_rate)
        )

    # -- HotspotDetector interface ----------------------------------------

    def fit(self, train: ArrayDataset, rng: np.random.Generator) -> "BNNDetector":
        """Train (Algorithm 1) then biased fine-tune (Section 3.4.3)."""
        images = to_network_input(train.images)
        labels = np.asarray(train.labels, dtype=np.int64)
        self.model = self._build(images.shape[-1])
        self.decision_bias = 0.0

        if self.val_fraction > 0 and len(train) >= 10:
            order = rng.permutation(len(train))
            n_val = max(1, int(round(len(train) * self.val_fraction)))
            val_idx, fit_idx = order[:n_val], order[n_val:]
        else:
            val_idx, fit_idx = np.array([], int), np.arange(len(train))
        fit_images, fit_labels = images[fit_idx], labels[fit_idx]
        val_loader = None
        if val_idx.size:
            val_loader = DataLoader(
                ArrayDataset(images[val_idx], labels[val_idx]),
                self.batch_size, shuffle=False,
            )

        hard = ArrayDataset(fit_images, fit_labels)
        phases = []
        main = self._build_phase("main", hard, val_loader, self.epochs,
                                 self.lr, rng, hard_labels=fit_labels,
                                 hotspot_mass=0.5 if self.balance else None)
        if main is not None:
            phases.append(main)
        if self.finetune_epochs > 0 and self.epsilon > 0:
            soft = ArrayDataset(fit_images,
                                biased_targets(fit_labels, self.epsilon))
            finetune = self._build_phase(
                "finetune", soft, val_loader, self.finetune_epochs,
                self.lr * 0.1, rng, hard_labels=fit_labels,
                hotspot_mass=self.finetune_hotspot_mass)
            if finetune is not None:
                phases.append(finetune)
        if phases:
            run = TrainingRun(
                self.model, phases,
                checkpoint_dir=self.checkpoint_dir, keep=self.keep,
                step_hook=self.step_hook,
                handle_signals=self.handle_signals, verbose=self.verbose,
            )
            self.history = run.run(resume=self.resume)

        self.engine = (
            None if self.backend is None
            else ProgramEngine(self.model, self.backend)
        )
        if self.target_fa_rate is not None and val_idx.size:
            self._calibrate(images[val_idx], labels[val_idx])
        return self

    def predict(self, images: np.ndarray) -> np.ndarray:
        """0/1 predictions via the packed engine (or the float sim)."""
        if self.model is None:
            raise RuntimeError("predict() called before fit()")
        scores = self._scores(to_network_input(images))
        return (scores > self.decision_bias).astype(np.int64)
