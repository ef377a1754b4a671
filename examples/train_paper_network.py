"""Train the paper's exact network configuration, step by step.

Reproduces Section 3.4 faithfully — the 12-layer binarized residual
network of Figure 2 on 128x128 down-sampled binary clip images, Xavier
initialisation, NAdam, random horizontal/vertical flips, plateau-decayed
learning rate, weight clipping after every step, and the biased
fine-tune with ``eps = 0.2`` — on a small synthetic dataset so the run
finishes in a few minutes on a CPU.  For the scaled benchmark runs the
higher-level :class:`repro.detect.BNNDetector` wraps all of this.

Usage::

    python examples/train_paper_network.py
"""

import numpy as np

from repro.binary import ProgramEngine, clip_binary_weights
from repro.detect import biased_targets
from repro.features.downsample import to_network_input
from repro.litho import generate_hotspot_dataset
from repro.models import bnn_resnet12, count_network_layers
from repro.nn import (
    ArrayDataset,
    DataLoader,
    NAdam,
    RandomFlip,
    ReduceLROnPlateau,
    Trainer,
    predict_logits,
)


def main() -> None:
    rng = np.random.default_rng(0)

    print("1. Data: synthetic clips at the paper's l_s = 128 resolution...")
    train = generate_hotspot_dataset(40, 80, rng, image_size=128)
    test = generate_hotspot_dataset(25, 50, np.random.default_rng(9),
                                    image_size=128)
    train_x = to_network_input(train.images)   # {0,1} -> {-1,+1}
    test_x = to_network_input(test.images)

    print("2. Model: the 12-layer binarized residual network (Figure 2)...")
    model = bnn_resnet12(seed=0, base_width=4, scaling="channelwise")
    print(f"   layers: {count_network_layers(model)}, "
          f"parameters: {model.num_parameters()}")

    print("3. Training (Algorithm 1): NAdam + plateau decay + flips + "
          "weight clipping...")
    optimizer = NAdam(model.parameters(), lr=0.01)
    scheduler = ReduceLROnPlateau(optimizer, factor=0.5, patience=1)
    trainer = Trainer(model, optimizer, scheduler=scheduler,
                      post_step=lambda: clip_binary_weights(model))
    loader = DataLoader(
        ArrayDataset(train_x, train.labels), batch_size=16,
        rng=np.random.default_rng(1),
        augment=RandomFlip(np.random.default_rng(2)),
    )
    val_loader = DataLoader(ArrayDataset(test_x, test.labels), 32,
                            shuffle=False)
    trainer.fit(loader, epochs=6, val_loader=val_loader, verbose=True)

    print("4. Biased fine-tune (Section 3.4.3): non-hotspot targets "
          "softened to [0.8, 0.2]...")
    soft = ArrayDataset(train_x, biased_targets(train.labels, epsilon=0.2))
    optimizer.lr = 0.001
    finetune_loader = DataLoader(soft, batch_size=16,
                                 rng=np.random.default_rng(3),
                                 augment=RandomFlip(np.random.default_rng(4)))
    trainer.fit(finetune_loader, epochs=2, val_loader=val_loader, verbose=True)

    print("5. Deploy: compile to the bit-packed popcount engine...")
    engine = ProgramEngine(model)
    predictions = engine.predict_logits(test_x).argmax(1)
    sim_predictions = predict_logits(model, test_x).argmax(1)
    assert (predictions == sim_predictions).all()

    labels = test.labels
    tp = int(((predictions == 1) & (labels == 1)).sum())
    fp = int(((predictions == 1) & (labels == 0)).sum())
    fn = int(((predictions == 0) & (labels == 1)).sum())
    print(f"\nTest set: accuracy (hotspot recall) = {tp / (tp + fn):.2f}, "
          f"false alarms = {fp} / {(labels == 0).sum()}")


if __name__ == "__main__":
    main()
