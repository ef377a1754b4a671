"""A from-scratch NumPy deep-learning framework.

This subpackage is the execution substrate for the paper's binarized
residual network: explicit layer-wise backpropagation, im2col
convolutions, batch normalisation, the NAdam optimizer and the
plateau-decay learning-rate schedule described in Section 3.4 of the
paper.
"""

from . import functional, gradcheck, init
from .data import (
    ArrayDataset,
    DataLoader,
    RandomFlip,
    balanced_weights,
    capture_rng_state,
    restore_rng_state,
    train_val_split,
)
from .layers import (
    AvgPool2D,
    BatchNorm1D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    HardTanh,
    MaxPool2D,
    ReLU,
    ResidualBlock,
    Sequential,
    SignSTE,
    sign,
)
from .losses import SoftmaxCrossEntropy, WeightedCrossEntropy, log_softmax, softmax
from .module import Module, Parameter
from .optim import SGD, Adam, Momentum, NAG, NAdam, Optimizer
from .schedulers import LinearWarmup, ReduceLROnPlateau, StepDecay
from .serialization import (
    CheckpointError,
    checkpoint_path,
    load_meta,
    load_model,
    save_model,
    state_checksum,
)
from .trainer import (
    GradientExplosionError,
    History,
    Trainer,
    evaluate_loss,
    predict_logits,
)

__all__ = [
    "functional",
    "gradcheck",
    "init",
    "ArrayDataset",
    "DataLoader",
    "RandomFlip",
    "balanced_weights",
    "capture_rng_state",
    "restore_rng_state",
    "train_val_split",
    "AvgPool2D",
    "BatchNorm1D",
    "BatchNorm2D",
    "Conv2D",
    "Dense",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2D",
    "HardTanh",
    "MaxPool2D",
    "ReLU",
    "ResidualBlock",
    "Sequential",
    "SignSTE",
    "sign",
    "SoftmaxCrossEntropy",
    "WeightedCrossEntropy",
    "log_softmax",
    "softmax",
    "Module",
    "Parameter",
    "SGD",
    "Adam",
    "Momentum",
    "NAG",
    "NAdam",
    "Optimizer",
    "LinearWarmup",
    "ReduceLROnPlateau",
    "StepDecay",
    "CheckpointError",
    "checkpoint_path",
    "load_meta",
    "load_model",
    "save_model",
    "state_checksum",
    "GradientExplosionError",
    "History",
    "Trainer",
    "evaluate_loss",
    "predict_logits",
]
