"""Deploy a trained BNN with the bit-packed XNOR/popcount engine.

Shows the deployment path the paper's speed claim rests on:

1. train the binarized network (float simulation of binarization);
2. checkpoint it to ``.npz`` and reload into a fresh model;
3. compile the model to a :class:`repro.binary.ProgramEngine` on its
   default ``packed`` backend — weights are bit-packed once,
   convolutions run as XNOR + popcount on 64-bit words;
4. verify packed predictions match the float simulation bit for bit,
   and time both paths.

Usage::

    python examples/deploy_packed_model.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.binary import ProgramEngine
from repro.detect import BNNDetector
from repro.features.downsample import to_network_input
from repro.litho import generate_iccad2012_like
from repro.nn import load_model, predict_logits, save_model


def main() -> None:
    print("Generating data and training a small BNN...")
    benchmark = generate_iccad2012_like(scale=0.015, image_size=32, seed=3)
    detector = BNNDetector(base_width=8, epochs=8, finetune_epochs=2, seed=0,
                           stem_stride=1)
    detector.fit(benchmark.train, np.random.default_rng(0))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bnn_hotspot.npz"
        save_model(detector.model, path)
        print(f"Checkpointed {detector.model.num_parameters()} parameters "
              f"to {path.name} ({path.stat().st_size // 1024} KiB).")

        fresh = BNNDetector(base_width=8, seed=0, stem_stride=1)
        fresh.model = fresh._build(32)
        load_model(fresh.model, path)
        print("Reloaded the checkpoint into a fresh model.")

    engine = ProgramEngine(fresh.model)
    images = to_network_input(benchmark.test.images)

    start = time.perf_counter()
    sim_logits = predict_logits(fresh.model, images)
    sim_time = time.perf_counter() - start

    start = time.perf_counter()
    packed_logits = engine.predict_logits(images)
    packed_time = time.perf_counter() - start

    agree = (sim_logits.argmax(1) == packed_logits.argmax(1)).mean()
    print(f"\nFloat simulation: {sim_time:.2f} s for {len(images)} clips")
    print(f"Packed engine:    {packed_time:.2f} s "
          f"({sim_time / packed_time:.1f}x faster)")
    print(f"Prediction agreement: {agree:.1%} (must be 100%)")
    assert agree == 1.0


if __name__ == "__main__":
    main()
