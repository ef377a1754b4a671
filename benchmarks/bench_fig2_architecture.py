"""Figure 2 — the redesigned 12-layer binarized residual network.

Audits the constructed network against every architectural statement of
Section 3.1 (12 layers, < 20 layers, two 3x3 binary convolutions per
residual block, 1x1 projection shortcuts at shape changes, filter
counts growing with depth) and prints the layer table that Figure 2
draws.  The pytest-benchmark measurement times a packed-engine forward
pass of the full network at the paper's 128x128 input.
"""

import numpy as np

from repro.bench import format_table
from repro.binary import ProgramEngine
from repro.models import bnn_resnet12, count_network_layers, summarize

from conftest import publish


def test_fig2_architecture_audit(benchmark):
    """Regenerate Figure 2 as a layer table and verify its structure."""
    model = bnn_resnet12(seed=0)

    def audit():
        infos = summarize(model)
        rows = []
        for index, info in enumerate(infos):
            rows.append({
                "#": index,
                "Layer": info.kind + (" (shortcut)" if info.shortcut else ""),
                "Weight shape": "x".join(str(s) for s in info.shape),
                "Params": info.params,
            })
        return infos, rows

    infos, rows = benchmark.pedantic(audit, rounds=1, iterations=1)
    rows.append({"#": "", "Layer": "total (ResNet counting)",
                 "Weight shape": "", "Params": count_network_layers(model)})
    publish("fig2_architecture", format_table(
        rows, title="Figure 2 — 12-layer binarized residual network"
    ))

    # Section 3.1 claims, one by one:
    assert count_network_layers(model) == 12           # "a 12-layer network"
    assert count_network_layers(model) < 20            # "fewer than 20 layers"
    main_convs = [i for i in infos
                  if i.kind == "binary_conv" and not i.shortcut]
    assert all(i.shape[2:] == (3, 3) for i in main_convs)   # 3x3 blocks
    shortcut_convs = [i for i in infos if i.shortcut]
    assert all(i.shape[2:] == (1, 1) for i in shortcut_convs)  # 1x1 shortcuts
    widths = [i.shape[0] for i in main_convs]
    assert widths == sorted(widths)                    # deeper -> more filters


def test_fig2_forward_pass_at_paper_scale(benchmark):
    """Packed forward pass of the 12-layer network on 128x128 clips."""
    model = bnn_resnet12(seed=0)
    rng = np.random.default_rng(0)
    # accumulate batch-norm statistics before compiling
    model.forward(rng.normal(size=(8, 1, 128, 128)), training=True)
    engine = ProgramEngine(model)
    images = np.where(rng.random((4, 1, 128, 128)) < 0.3, 1.0, -1.0)

    logits = benchmark(engine.forward, images)
    assert logits.shape == (4, 2)
