"""Workload definitions and the seeded models and inputs they run on.

Every workload drives the same public pipeline: train.train, then
train.quantize_network, modelio.save_model / load_model, engine.infer with
skipping on and off, and engine.reference_forward. The workloads differ in
which of those steps dominates (see README.md in this directory).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from sbnn import dataio, engine, nn, train

# The README quick-start run: its training data and initialisation come from
# this fixed seed, so the trained model (and with it accuracy and
# bops_per_image) is the same on every benchmark run. --seed draws the
# held-out and inference images.
QUICKSTART_SEED = 5
DIFFICULTY = 3.0
# one-bit fraction tolerance and activation ones-fraction range of the
# validity guard for seeded models
ONES_TOLERANCE = 0.01
ACTIVATION_RANGE = (0.1, 0.9)
# train-mode forwards of 64 images each that set a seeded model's batchnorm
# running statistics
CALIB_BATCHES = 4


@dataclass(frozen=True)
class Workload:
    name: str
    image_hw: int
    width: int
    classes: int
    batch: int  # inference batch (the closed-loop caller's request size)
    one_bits: float | None  # target one-bit fraction; None = trained model
    train_images: int
    # epochs of desk-train's model and of the traced run's trainings; the
    # closed loop times one-epoch trainings
    train_epochs: int
    heldout: int  # images scored for `accuracy`
    pool_batches: int  # distinct inference batches the loop cycles over
    # the closed loop's schedule: operation -> run it every n-th round
    # ("cold" is a load followed by a cold infer). The periods spread each
    # step's samples over the whole run and keep the run within its time
    # budget.
    every: dict
    min_skip_batches: int = 100  # p90 needs 10 samples beyond it
    trace_rounds: int = 6  # rounds of each infer mode in the traced run

    @property
    def image_shape(self):
        return (1, self.image_hw, self.image_hw)

    def train_config(self, epochs) -> train.TrainConfig:
        return train.TrainConfig(
            epochs=epochs,
            batch_size=64,
            learning_rate=5e-3,
            gamma=0.5,
            target_sparsity=0.95,
            seed=QUICKSTART_SEED,
            omega_mode="analytic",
        )

    def tiny(self) -> "Workload":
        """A seconds-long variant with the same code paths, for the smoke
        test."""
        return replace(
            self,
            image_hw=min(self.image_hw, 8),
            width=2 if self.one_bits is None else 4,
            batch=16,
            train_images=64,
            train_epochs=1,
            heldout=32,
            pool_batches=2,
            every=dict.fromkeys(self.every, 1),
            min_skip_batches=3,
            trace_rounds=2,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-train",
            image_hw=8,
            width=6,
            classes=2,
            batch=1024,
            one_bits=None,
            train_images=1024,
            train_epochs=20,
            heldout=16384,
            pool_batches=2,
            every=dict(on=1, off=1, ref=1, quantize=1, save=1, cold=1, train=3),
            trace_rounds=30,
        ),
        Workload(
            name="sparse16",
            image_hw=16,
            width=16,
            classes=10,
            batch=256,
            one_bits=0.05,
            train_images=128,
            train_epochs=1,
            heldout=256,
            pool_batches=2,
            every=dict(on=1, off=8, ref=8, quantize=1, save=1, load=1, cold=8, train=10),
        ),
        Workload(
            name="dense-wide",
            image_hw=8,
            width=64,
            classes=10,
            batch=256,
            one_bits=0.5,
            train_images=128,
            train_epochs=1,
            heldout=256,
            pool_batches=2,
            every=dict(on=1, off=3, ref=3, quantize=6, save=6, cold=10, train=8),
            trace_rounds=20,
        ),
    )
}


@dataclass
class Inputs:
    """Everything the program receives: images, labels and the network."""

    network: nn.Network
    train_images: np.ndarray
    train_labels: np.ndarray
    heldout_images: np.ndarray
    heldout_labels: np.ndarray  # None for seeded models: they have no task
    pool: list  # inference batches


def _seq(seed, *path):
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def build_inputs(w: Workload, seed: int) -> Inputs:
    """Generate the workload's data and network from `seed`."""
    spec = nn.conv_net_spec(
        in_ch=1, classes=w.classes, width=w.width, image_hw=w.image_hw
    )
    if w.one_bits is None:
        return _trained_inputs(w, seed, spec)
    return _seeded_inputs(w, seed, spec)


def _trained_inputs(w, seed, spec):
    # training set fixed by the quick-start seed; the rest of the generated
    # images are the pool --seed draws held-out and inference images from
    extra = w.pool_batches * w.batch + w.heldout
    ds = dataio.synthetic_classification(
        seed=QUICKSTART_SEED,
        n=w.train_images + 2 * extra,
        classes=w.classes,
        difficulty=DIFFICULTY,
        image_hw=w.image_hw,
    )
    images, labels = ds.images, ds.labels
    tr, rest = np.arange(w.train_images), np.arange(w.train_images, ds.count)
    pick = _seq(seed, 1).choice(rest, size=extra, replace=False)
    held, infer_ix = pick[: w.heldout], pick[w.heldout :]
    net = nn.Network(spec, _seq(QUICKSTART_SEED, 0))
    return Inputs(
        network=net,
        train_images=images[tr],
        train_labels=labels[tr],
        heldout_images=images[held],
        heldout_labels=labels[held],
        pool=[images[b] for b in infer_ix.reshape(w.pool_batches, w.batch)],
    )


def _seeded_inputs(w, seed, spec):
    n_calib = CALIB_BATCHES * 64
    n_infer = w.pool_batches * w.batch
    ds = dataio.synthetic_classification(
        seed=seed,
        n=w.train_images + n_calib + w.heldout + n_infer,
        classes=w.classes,
        difficulty=DIFFICULTY,
        image_hw=w.image_hw,
    )
    images, labels = ds.images, ds.labels
    cuts = np.cumsum([w.train_images, n_calib, w.heldout])
    tr, calib, held, infer = np.split(np.arange(ds.count), cuts)
    net = nn.Network(spec, _seq(seed, 0))
    rng = _seq(seed, 2)
    for layer in net.binarized_layers():
        set_one_bits(layer.weight.value, w.one_bits, rng)
    calibrate_batchnorm(net, images[calib], CALIB_BATCHES)
    return Inputs(
        network=net,
        train_images=images[tr],
        train_labels=labels[tr],
        heldout_images=images[held],
        heldout_labels=None,
        pool=[images[b] for b in infer.reshape(w.pool_batches, w.batch)],
    )


def set_one_bits(weight, fraction, rng):
    """Overwrite a conv layer's latent weights in place so that its 3x3
    kernels follow the Binomial(9, fraction) mix of Hamming weights exactly
    (largest-remainder rounding), with kernels and bit positions drawn from
    `rng`. The one-bit fraction is then `fraction` up to rounding, and the
    K0/K1/Kdense counts, which set the binary-op count, do not vary with the
    seed. Magnitudes are uniform in [0.1, 1], so the analytic (tau, phi) fit
    keeps tau > 0 and quantization keeps the bits."""
    kernels = weight.reshape(-1, 9)
    n = kernels.shape[0]
    pmf = np.array([comb(9, k) * fraction**k * (1 - fraction) ** (9 - k) for k in range(10)])
    counts = np.floor(pmf * n).astype(int)
    short = n - counts.sum()
    counts[np.argsort(counts - pmf * n)[:short]] += 1
    hamming = rng.permutation(np.repeat(np.arange(10), counts))
    rank = np.argsort(np.argsort(rng.random((n, 9)), axis=1), axis=1)
    mag = rng.uniform(0.1, 1.0, size=(n, 9))
    kernels[...] = np.where(rank < hamming[:, None], mag, -mag)


def calibrate_batchnorm(net, images, batches):
    """Set batchnorm running statistics to the mean of the batch statistics
    of `batches` train-mode forwards (momentum 1/k makes the running value
    the exact average)."""
    bns = [l for l in net.layers if isinstance(l, nn.BatchNorm)]
    saved = [b.momentum for b in bns]
    for k, chunk in enumerate(np.array_split(images, batches)):
        for b in bns:
            b.momentum = 1.0 / (k + 1)
        net.forward(chunk, train=True)
    for b, m in zip(bns, saved):
        b.momentum = m


def stage_records(model, batches):
    """Per binary stage: one-bit fraction of the weights, ones fraction of
    the output activations over `batches` (run one at a time), and
    K0/K1/Kdense."""
    ones = {}  # stage index -> [output ones, outputs]
    counters = engine.OpsCounters()
    for images in batches:
        x = np.asarray(images, dtype=np.float64)
        for i, stage in enumerate(model.stages):
            if isinstance(stage, engine.BinStage):
                x, _ = stage.forward(x, counters)
                acc = ones.setdefault(i, [0, 0])
                acc[0] += int(x.sum())
                acc[1] += x.size
            else:
                x = stage.forward(x, counters)
    records = []
    for i, (n_ones, n) in ones.items():
        p = model.stages[i].packed
        k0, k1, kd = p.kernel_counts
        records.append(
            {
                "stage": i,
                "kind": p.kind,
                "weight_ones": int(p.bits.sum()),
                "weights": int(p.bits.size),
                "activation_ones_fraction": n_ones / n,
                "K0": k0,
                "K1": k1,
                "Kdense": kd,
            }
        )
    return records


def guard(w: Workload, records):
    """Validity conditions of a seeded model, as (description, ok) pairs."""
    if w.one_bits is None:
        return []
    ones = sum(r["weight_ones"] for r in records)
    total = sum(r["weights"] for r in records)
    realised = ones / total
    out = [
        (
            f"one-bit fraction {realised:.4f} within {ONES_TOLERANCE} of {w.one_bits}",
            abs(realised - w.one_bits) <= ONES_TOLERANCE,
        )
    ]
    lo, hi = ACTIVATION_RANGE
    for r in records:
        f = r["activation_ones_fraction"]
        out.append(
            (f"stage {r['stage']} output ones fraction {f:.3f} in [{lo}, {hi}]", lo <= f <= hi)
        )
    return out
