"""Figure 1 — real-valued vs binarized network arithmetic.

The figure contrasts float multiply-accumulate networks with
XNOR/popcount networks.  The paper's 8x end-to-end speedup comes from
custom GPU bit-kernels; this benchmark measures the same substitution
on *this* machine and library, where the honest wins are:

* **per-layer**: the popcount convolution beats the float (im2col +
  BLAS) convolution at every multi-channel layer of the network;
* **end-to-end**: the packed engine runs the full 12-layer network
  about twice as fast as the float *simulation* of the same binarized
  network, and on par with an identically shaped float network served
  by AVX-512 BLAS;
* **model size**: binary weights compress the model ~30x;
* **arithmetic**: 64 multiply-accumulates collapse into one XOR +
  popcount word operation (counted exactly below).
"""

import numpy as np

from repro.bench import Stopwatch, format_table
from repro.binary import ProgramEngine, bitpack
from repro.engine import BinaryConvOp, FusedBinaryConvOp, infer_shapes
from repro.models import bnn_resnet12, resnet12, summarize
from repro.nn.trainer import predict_logits

from conftest import publish


def _time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        sw = Stopwatch().start()
        fn()
        best = min(best, sw.stop())
    return best


def test_fig1_per_layer_speedup(benchmark):
    """Per-layer float-MAC vs XNOR/popcount timings from the executors.

    Both engines run the *same* optimized program end-to-end
    (bit-identical logits); the numbers come from the executor's per-op
    timing hooks rather than ad-hoc kernel timers, so each row is the
    time that layer actually took inside a full inference pass —
    im2col/packing, dot products, and Eq. 14/15 scaling included on
    both sides.  The pass pipeline fuses each batch-norm into the conv
    that consumes it (``fold-bn``); the timing snapshot's ``sources``
    attribute each fused op back to the source paper layers, so the
    rows stay per-layer even though the executor runs fused nodes
    (fused batch-norms are flagged ``+bn`` and their cost is included
    in the row on both sides).
    """
    rng = np.random.default_rng(0)
    bnn = bnn_resnet12(seed=0, scaling="xnor")
    bnn.forward(rng.normal(size=(8, 1, 128, 128)), training=True)
    packed = ProgramEngine(bnn)
    float_eng = ProgramEngine(bnn, "float")
    images = np.where(rng.random((16, 1, 128, 128)) < 0.3, 1.0, -1.0)
    shapes = infer_shapes(packed.program, images.shape)

    def sweep(repeats=5):
        for engine in (packed, float_eng):
            engine.predict_logits(images, batch_size=16)  # warm-up
            engine.reset_op_timings()
        for _ in range(repeats):
            packed.predict_logits(images, batch_size=16)
            float_eng.predict_logits(images, batch_size=16)
        float_ms = {row["op"]: row["mean_ms"] for row in float_eng.op_timings()}
        binary_ms = {row["op"]: row["mean_ms"] for row in packed.op_timings()}
        sources = {row["op"]: row["sources"] for row in packed.op_timings()}
        rows = []
        for node in packed.program.walk():
            if not isinstance(node, (BinaryConvOp, FusedBinaryConvOp)):
                continue
            (n, c_in, h, _), (_, c_out, oh, ow) = shapes[node.name]
            positions = n * oh * ow
            fused = [s for s in sources.get(node.name, [node.name])
                     if s != node.name]
            tag = " +bn" if fused else ""
            rows.append({
                "Layer": f"{node.name}{tag} {c_in}->{c_out} @{h}px",
                "Float (ms)": round(float_ms[node.name], 2),
                "Binary (ms)": round(binary_ms[node.name], 2),
                "Speedup": round(
                    float_ms[node.name] / binary_ms[node.name], 2
                ),
                "MACs": c_out * c_in * node.kernel_size**2 * positions,
                "Word ops": c_out * positions * bitpack._conv_words(
                    c_in, node.kernel_size
                ),
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    publish("fig1_per_layer", format_table(
        rows, title=("Figure 1 — float MAC vs XNOR/popcount, per layer "
                     "(executor per-op timings, 16 clips @128px)")
    ))
    # the direction that must hold: once channels fill the 64-bit words,
    # the popcount kernel wins (averaged over the deep 3x3 layers —
    # per-op wall times at the 4-8px maps are sub-millisecond and noisy)
    deep = [row for row in rows
            if "64->64" in row["Layer"] or "128->128" in row["Layer"]]
    assert deep
    assert np.mean([row["Speedup"] for row in deep]) > 1.0


def test_fig1_end_to_end_and_compression(benchmark):
    """Whole-network comparison: packed engine vs float simulation vs
    an identically shaped float network, plus model-size accounting."""
    rng = np.random.default_rng(1)
    bnn = bnn_resnet12(seed=0, scaling="xnor")
    float_twin = resnet12(seed=0)
    warmup = rng.normal(size=(8, 1, 128, 128))
    bnn.forward(warmup, training=True)
    float_twin.forward(warmup, training=True)
    engine = ProgramEngine(bnn)
    images = np.where(rng.random((32, 1, 128, 128)) < 0.3, 1.0, -1.0)

    def measure():
        packed = _time(lambda: engine.predict_logits(images, batch_size=16),
                       repeats=3)
        sim = _time(lambda: predict_logits(bnn, images, batch_size=16),
                    repeats=3)
        float_t = _time(lambda: predict_logits(float_twin, images,
                                               batch_size=16), repeats=3)
        return packed, sim, float_t

    packed, sim, float_t = benchmark.pedantic(measure, rounds=1, iterations=1)

    # storage: binary conv weights ship as 1 bit, the rest as float32
    binary_bits = sum(p.size for name, p in bnn.named_parameters()
                      if "conv.weight" in name)
    other_bits = 32 * sum(p.size for name, p in bnn.named_parameters()
                          if "conv.weight" not in name)
    float_bits = 32 * float_twin.num_parameters()
    compression = float_bits / (binary_bits + other_bits)

    rows = [
        {"Network (32 clips @128px)": "Float ResNet-12 (BLAS f64)",
         "Time (s)": round(float_t, 2), "Model (KiB)": float_bits // 8 // 1024},
        {"Network (32 clips @128px)": "BNN float simulation",
         "Time (s)": round(sim, 2),
         "Model (KiB)": (binary_bits + other_bits) // 8 // 1024},
        {"Network (32 clips @128px)": "BNN packed (XNOR/popcount)",
         "Time (s)": round(packed, 2),
         "Model (KiB)": (binary_bits + other_bits) // 8 // 1024},
    ]
    publish("fig1_end_to_end", format_table(
        rows, title=(
            "Figure 1 — end to end "
            f"(compression {compression:.1f}x, "
            f"packed vs simulation {sim / packed:.2f}x)"
        )
    ))

    assert sim / packed > 1.3          # deployment speedup over the sim
    assert compression > 20.0          # ~30x weight compression
    # binarized conv layers hold almost every parameter
    infos = summarize(bnn)
    assert sum(i.params for i in infos if i.kind == "binary_conv") > (
        0.9 * bnn.num_parameters()
    )
