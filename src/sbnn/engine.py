"""Bit-packed {0,1} inference engine.

A quantized model is a pipeline of stages over bit activations (+1 -> bit 1,
-1 -> bit 0):

  float stem   : real conv/linear on raw inputs, then fused batchnorm+sign
  binary stage : channel-packed popcount pre-activations, affine remap to
                 the layer domain, fused batchnorm+sign back to bits
  bit pool     : 2x2 max pool (OR on bits)
  head         : full-precision classifier on +-1 inputs

A binary stage packs the input channels of each pixel into words once (the
narrowest of uint8/16/32/64 that holds them, whole uint64 words above 64
channels) and holds its weights as (out, taps, words): 9 taps for a 3x3
conv, 1 for a linear stage. z' is the AND+popcount of each tap's shifted
(strided) input view against that tap's weight words, summed over the taps;
padding is a halo of zero words (-1 activations). Skipping works per
(output channel, tap): a row whose word at a tap is all zero is left out of
that tap, so weight-0 kernels cost nothing beyond the activation-sum term.
Skipping is exact: outputs are identical with it on or off.

Integer pre-activations are exact by construction; the affine remap and the
threshold comparison are the single canonical float expressions shared with
the dense reference path, so the two paths produce bit-identical logits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .binquant import OmegaParams, ValidationError
from .bitpack import pack
from .nn import _im2col


# ---------------------------------------------------------------------------
# kernel classification
# ---------------------------------------------------------------------------

KERNEL_ZERO = 0
KERNEL_SINGLE = 1
KERNEL_DENSE = 2


def classify_kernels(bits):
    """Classify a layer's kernels by Hamming weight. `bits` is any {0,1}
    array whose size is divisible by 9; kernels are consecutive groups of 9
    bits. Returns (tags, (k0, k1, kdense)): one uint8 tag per kernel,
    KERNEL_ZERO (no 1-bits), KERNEL_SINGLE (one) or KERNEL_DENSE (more)."""
    flat = np.asarray(bits).ravel()
    if flat.size % 9:
        raise ValidationError("bit count not divisible by 9")
    hw = flat.reshape(-1, 9).sum(axis=1)
    tags = np.minimum(hw, KERNEL_DENSE).astype(np.uint8)
    k0, k1, kd = np.bincount(tags, minlength=3).tolist()
    return tags, (k0, k1, kd)


# ---------------------------------------------------------------------------
# fused batchnorm + sign
# ---------------------------------------------------------------------------

def _ceil_to_float(t: Fraction) -> float:
    try:
        f = float(t)
    except OverflowError:
        return math.inf if t > 0 else -math.inf
    if math.isinf(f):
        return f
    return f if Fraction(f) >= t else math.nextafter(f, math.inf)


def _floor_to_float(t: Fraction) -> float:
    try:
        f = float(t)
    except OverflowError:
        return math.inf if t > 0 else -math.inf
    if math.isinf(f):
        return f
    return f if Fraction(f) <= t else math.nextafter(f, -math.inf)


@dataclass(frozen=True)
class FusedThreshold:
    """Batchnorm-then-sign collapsed into one comparison per channel.

    The decision is sign(g * s * (z - mu) + b) with s = 1/sqrt(var + eps),
    evaluated in exact arithmetic over the stored float parameters and with
    sign(0) = +1. `theta` is the exact root mu - b/(g*s) rounded outward to
    the float grid (up for positive gain, down for negative), so comparing
    the float pre-activation against theta reproduces the exact decision for
    every representable value. With the layer's domain (xi, eta) the same
    boundary converts to an integer threshold on the +-1-domain integer
    pre-activation, see int_threshold().
    """

    orientation: np.ndarray  # int8 per channel: +1 (z >= theta) or -1 (z <= theta)
    theta: np.ndarray  # float64 per channel; +-inf encode constant channels

    @classmethod
    def from_batchnorm(cls, gamma, beta, mean, var, eps=1e-5) -> "FusedThreshold":
        gamma = np.asarray(gamma, dtype=np.float64)
        beta = np.asarray(beta, dtype=np.float64)
        mean = np.asarray(mean, dtype=np.float64)
        var = np.asarray(var, dtype=np.float64)
        n = gamma.size
        orientation = np.empty(n, dtype=np.int8)
        theta = np.empty(n, dtype=np.float64)
        inv_std = 1.0 / np.sqrt(var + eps)
        for c in range(n):
            k = Fraction(gamma[c]) * Fraction(inv_std[c])
            if k == 0:
                orientation[c] = 1
                theta[c] = -math.inf if beta[c] >= 0 else math.inf
                continue
            root = Fraction(mean[c]) - Fraction(beta[c]) / k
            if k > 0:
                orientation[c] = 1
                theta[c] = _ceil_to_float(root)
            else:
                orientation[c] = -1
                theta[c] = _floor_to_float(root)
        return cls(orientation=orientation, theta=theta)

    @property
    def channels(self) -> int:
        return self.orientation.size

    def decide(self, z, channel=None):
        """Bits for pre-activations. `z` is (channels, ...) when channel is
        None, else values of a single channel."""
        z = np.asarray(z, dtype=np.float64)
        if channel is not None:
            o = int(self.orientation[channel])
            t = self.theta[channel]
            return ((z >= t) if o > 0 else (z <= t)).astype(np.uint8)
        o = self.orientation.reshape((-1,) + (1,) * (z.ndim - 1))
        t = self.theta.reshape((-1,) + (1,) * (z.ndim - 1))
        return np.where(o > 0, z >= t, z <= t).astype(np.uint8)

    def int_threshold(self, channel: int, q: int, omega: OmegaParams):
        """Integer decision boundary on the +-1-domain integer pre-activation
        z_pm for row-sum q: returns (bound, orientation) where the decision
        is +1 iff orientation * z_pm >= orientation * bound. Found by integer
        bisection against decide(), so it is exactly consistent with the
        float pipeline."""
        tau = omega.tau
        phi = omega.phi

        def bit(z_pm: int) -> int:
            return int(self.decide(tau * float(z_pm) + phi * float(q), channel=channel))

        o = int(self.orientation[channel])
        # decisions are monotone in z_pm (tau > 0), direction given by o
        lo, hi = -(1 << 40), 1 << 40
        if bit(lo) == bit(hi):
            bound = lo if bit(lo) == 1 else hi  # constant on the whole range
            return (bound, o)
        if o > 0:
            # smallest z_pm with bit 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if bit(mid):
                    hi = mid
                else:
                    lo = mid
            return (hi, o)
        # largest z_pm with bit 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if bit(mid):
                lo = mid
            else:
                hi = mid
        return (lo, o)


def affine_remap(z_prime, q, omega: OmegaParams):
    """Map sparse {0,1} pre-activations back to the layer domain:

        z = eta * z' + alpha * q        (alpha = xi * eta)

    which equals the dense sum of {alpha, beta} weights times +-1 inputs up
    to the rounding of this two-product sum. This exact expression is the
    canonical one: the dense reference path evaluates it too, so both paths
    agree bitwise. Requires a canonical (or degenerate) omega.
    """
    if not (omega.degenerate or omega.is_canonical):
        raise ValidationError("affine_remap requires a canonical domain")
    zp = np.asarray(z_prime, dtype=np.float64)
    qf = np.asarray(q, dtype=np.float64)
    eta = 0.0 if omega.degenerate else omega.eta
    return eta * zp + omega.alpha * qf


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

@dataclass
class OpsCounters:
    """What the engine actually executed.

    position_ops follows the paper's 2-ops-per-weight-position convention
    (XNOR + accumulate): with skipping, 2 * 9 * K_dense per window of a conv
    stage, else 2 per weight per window. word_popcounts counts the
    channel-word AND+popcount pairs executed, at each stage's word width
    (uint8 to uint64), so it shrinks with the (output channel, tap) words
    skipped. gather_ops reads 0: no stage gathers any more. flops counts
    float operations (2 per MAC in full-precision layers, 3 per remapped
    output, 1 per threshold compare).
    """

    images: int = 0
    position_ops: int = 0
    word_popcounts: int = 0
    gather_ops: int = 0
    flops: int = 0
    per_layer: list = field(default_factory=list)

    def add_layer(self, name, **kw):
        entry = {"layer": name}
        entry.update(kw)
        self.per_layer.append(entry)
        self.position_ops += kw.get("position_ops", 0)
        self.word_popcounts += kw.get("word_popcounts", 0)
        self.gather_ops += kw.get("gather_ops", 0)
        self.flops += kw.get("flops", 0)

    def merge(self, other: "OpsCounters"):
        self.images += other.images
        self.position_ops += other.position_ops
        self.word_popcounts += other.word_popcounts
        self.gather_ops += other.gather_ops
        self.flops += other.flops
        if not self.per_layer:
            self.per_layer = [dict(e) for e in other.per_layer]
        else:
            for mine, theirs in zip(self.per_layer, other.per_layer):
                for k, v in theirs.items():
                    if k != "layer":
                        mine[k] = mine.get(k, 0) + v
        return self


# ---------------------------------------------------------------------------
# model stages
# ---------------------------------------------------------------------------

@dataclass
class PackedLayer:
    """A binarized layer in engine form: {0,1} weights plus, for a conv, the
    per-kernel class tags and the (k0, k1, kdense) counts."""

    kind: str  # "conv3x3" | "linear"
    in_ch: int
    out_ch: int
    stride: int
    padding: int
    bits: np.ndarray  # (out_ch, fan_in) uint8
    omega: OmegaParams
    kernel_tags: np.ndarray | None = None  # conv only: out_ch * in_ch uint8 tags
    kernel_counts: tuple = (0, 0, 0)

    def __post_init__(self):
        if not (self.omega.degenerate or self.omega.is_canonical):
            raise ValidationError("packed layers require canonical omega")
        if self.kind == "conv3x3" and self.kernel_tags is None:
            self.kernel_tags, self.kernel_counts = classify_kernels(self.bits)

    @property
    def fan_in(self) -> int:
        return self.bits.shape[1]

    @property
    def weight_count(self) -> int:
        return self.bits.size


def _channel_words(bits, axis):
    """Pack the {0,1} entries along `axis` into words on a new last axis: the
    narrowest of uint8/16/32/64 that holds them, whole uint64 words above 64
    bits. Bits go LSB-first and the padding bits are zero."""
    packed = np.moveaxis(np.packbits(bits, axis=axis, bitorder="little"), axis, -1)
    nbytes = packed.shape[-1]
    width = min(8, 1 << (nbytes - 1).bit_length())
    out = np.zeros(packed.shape[:-1] + (-(-nbytes // width) * width,), dtype=np.uint8)
    out[..., :nbytes] = packed
    return out.view(f"u{width}")


@dataclass
class BinStage:
    packed: PackedLayer
    threshold: FusedThreshold

    def _prepare(self):
        """Built lazily: the weights as channel words per kernel tap, shape
        (out, taps, words) with 9 taps for a conv and 1 for a linear stage,
        and per tap the output rows with a one-bit there."""
        if getattr(self, "_words", None) is not None:
            return
        p = self.packed
        taps = 9 if p.kind == "conv3x3" else 1
        words = _channel_words(p.bits.reshape(p.out_ch, -1, taps), axis=1)
        self._tap_rows = [np.flatnonzero(words[:, t].any(axis=1)) for t in range(taps)]
        self._ones = pack(p.bits).popcount()  # popcount(w) per output row
        self._words = words

    def window_bits(self, x_bits):
        """Input windows as flat bits: (windows, fan_in) uint8 plus the
        output spatial shape."""
        p = self.packed
        if p.kind == "conv3x3":
            cols, geom = _im2col(x_bits.astype(np.uint8), p.stride, p.padding, 0)
            ho, wo = geom[4], geom[5]
            b = x_bits.shape[0]
            flat = cols.transpose(0, 2, 1).reshape(b * ho * wo, p.in_ch * 9)
            return flat, (ho, wo)
        return x_bits.reshape(x_bits.shape[0], -1).astype(np.uint8), None

    def forward(self, x_bits, counters: OpsCounters, skip: bool = True):
        self._prepare()
        p = self.packed
        b = x_bits.shape[0]
        conv = p.kind == "conv3x3"
        ks, s, pad = (3, p.stride, p.padding) if conv else (1, 1, 0)
        # (B, H, W, words); a linear stage is one pixel
        x = _channel_words(x_bits if conv else x_bits.reshape(b, -1, 1, 1), axis=1)
        if pad:  # a halo of zero words: bit 0 is -1, as window_bits pads
            x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
        ho, wo = (x.shape[1] - ks) // s + 1, (x.shape[2] - ks) // s + 1
        nwin, nwords = b * ho * wo, x.shape[3]

        def shifted(a, t):
            i, j = divmod(t, ks)
            return a[:, i : i + s * (ho - 1) + 1 : s, j : j + s * (wo - 1) + 1 : s]

        pixel_ones = _kernels.popcount_rows(x.reshape(-1, nwords)).reshape(x.shape[:3])
        q = 2 * sum(shifted(pixel_ones, t) for t in range(ks * ks)).ravel() - p.fan_in

        # z' = 2 * popcount(x AND w) - popcount(w), the AND+popcount summed
        # over the taps' shifted inputs; skipping leaves out the rows whose
        # word at a tap is all zero
        overlap = np.zeros((p.out_ch, nwin), dtype=np.int32)
        word_ops = 0
        for t, rows in enumerate(self._tap_rows):
            n = rows.size if skip else p.out_ch
            if n == 0:
                continue
            win = shifted(x, t).reshape(nwin, nwords)
            if n == p.out_ch:
                overlap += _kernels.and_popcount_matmat(self._words[:, t], win)
            else:  # row by row: in place, no gather/scatter copies
                part = _kernels.and_popcount_matmat(self._words[rows, t], win)
                for r, counts in zip(rows, part):
                    overlap[r] += counts
            word_ops += n * nwin * nwords
        zprime = 2 * overlap - self._ones[:, None]
        if skip and conv:
            position_ops = 2 * 9 * p.kernel_counts[2] * nwin
        else:
            position_ops = 2 * p.weight_count * nwin
        z = affine_remap(zprime, q[None, :], p.omega)
        bits = self.threshold.decide(z)
        counters.add_layer(
            f"bin_{p.kind}",
            position_ops=position_ops,
            word_popcounts=word_ops,
            flops=int(3 * bits.size + bits.size),
            baseline_position_ops=2 * p.weight_count * nwin,
        )
        out = bits.reshape(p.out_ch, b, ho, wo).transpose(1, 0, 2, 3) if conv else bits.T
        return out, (zprime, q)


@dataclass
class FloatStage:
    """Full-precision conv or linear followed by fused batchnorm+sign.
    Consumes raw real inputs (the stem) or +-1 bits (mid-network)."""

    kind: str  # "conv3x3" | "linear"
    in_ch: int
    out_ch: int
    stride: int
    padding: int
    weight: np.ndarray  # float64
    threshold: FusedThreshold
    takes_bits: bool = False

    def preact(self, x):
        if self.takes_bits:
            x = 2.0 * np.asarray(x, dtype=np.float64) - 1.0
        else:
            x = np.asarray(x, dtype=np.float64)
        if self.kind == "conv3x3":
            cols, geom = _im2col(x, self.stride, self.padding, -1.0 if self.takes_bits else 0.0)
            wf = self.weight.reshape(self.out_ch, -1)
            y = np.einsum("of,bfp->bop", wf, cols, optimize=True)
            ho, wo = geom[4], geom[5]
            return y.reshape(x.shape[0], self.out_ch, ho, wo)
        return x @ self.weight.T

    def forward(self, x, counters: OpsCounters):
        z = self.preact(x)
        if z.ndim == 4:
            zc = z.transpose(1, 0, 2, 3)
            bits = self.threshold.decide(zc).transpose(1, 0, 2, 3)
        else:
            bits = self.threshold.decide(z.T).T
        macs = self.weight.size * (z.size // self.out_ch)
        counters.add_layer(
            f"fp_{self.kind}", flops=int(2 * macs + z.size), position_ops=0
        )
        return bits


@dataclass
class BitPool:
    """2x2 stride-2 max pool on bits (max of bits = OR)."""

    def forward(self, x_bits, counters: OpsCounters):
        b, c, h, w = x_bits.shape
        if h % 2 or w % 2:
            raise ValidationError("pool input dims must be even")
        xr = x_bits.reshape(b, c, h // 2, 2, w // 2, 2)
        return xr.max(axis=(3, 5))


@dataclass
class Head:
    """Full-precision classifier on flattened +-1 activations."""

    weight: np.ndarray
    bias: np.ndarray

    def forward(self, x_bits, counters: OpsCounters):
        x = 2.0 * x_bits.reshape(x_bits.shape[0], -1).astype(np.float64) - 1.0
        if x.shape[1] != self.weight.shape[1]:
            raise ValidationError(
                f"classifier expects {self.weight.shape[1]} features, got {x.shape[1]}"
            )
        logits = x @ self.weight.T + self.bias
        counters.add_layer("head", flops=int(2 * self.weight.size * x.shape[0]))
        return logits


@dataclass
class QuantizedModel:
    """Engine-executable model: stages in forward order."""

    stages: list
    input_shape: tuple  # (C, H, W)
    classes: int

    def binary_stages(self):
        return [s for s in self.stages if isinstance(s, BinStage)]


def worker_count() -> int:
    """Worker threads from SBNN_THREADS (default 1), capped at the cores."""
    env = os.environ.get("SBNN_THREADS", "").strip()
    if not env:
        return 1
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ValidationError(f"SBNN_THREADS must be a positive integer, got {env!r}")
    return min(n, os.cpu_count() or 1)


def _require_finite(images):
    if not np.isfinite(images).all():
        raise ValidationError("images hold NaN or infinite values")


def _infer_chunk(model, images, skip):
    counters = OpsCounters()
    counters.images = images.shape[0]
    x = images
    for stage in model.stages:
        if isinstance(stage, BinStage):
            x, _ = stage.forward(x, counters, skip=skip)
        else:
            x = stage.forward(x, counters)
    return x, counters


def infer(model: QuantizedModel, images, skip: bool = True, workers: int | None = None):
    """Run the engine over a batch: (logits, OpsCounters). `skip=False`
    forces the full popcount path (no kernel skipping) for equivalence
    checks; outputs are identical either way. Images holding NaN or
    infinite values are rejected with a ValidationError."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        images = images[None]
    if images.shape[1:] != tuple(model.input_shape):
        raise ValidationError(
            f"input shape {images.shape[1:]} != model {tuple(model.input_shape)}"
        )
    _require_finite(images)
    for stage in model.stages:
        if isinstance(stage, BinStage):
            stage._prepare()  # before any fan-out: workers share the stage
    nworkers = workers if workers is not None else worker_count()
    # fan out only with at least two images per worker
    if nworkers <= 1 or images.shape[0] < 2 * nworkers:
        return _infer_chunk(model, images, skip)
    from concurrent.futures import ThreadPoolExecutor

    chunks = np.array_split(np.arange(images.shape[0]), nworkers)
    with ThreadPoolExecutor(max_workers=nworkers) as pool:
        results = list(
            pool.map(lambda ix: _infer_chunk(model, images[ix], skip), chunks)
        )
    logits = np.concatenate([r[0] for r in results], axis=0)
    counters = OpsCounters()
    for _, c in results:
        counters.merge(c)
    return logits, counters


def reference_forward(model: QuantizedModel, images):
    """Dense float path over the same quantized model. Binary stages run as
    +-1 float matmuls (exact integers) followed by the same canonical remap
    and threshold decisions, so logits match infer() bit for bit."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        images = images[None]
    _require_finite(images)
    counters = OpsCounters()
    x = images
    for stage in model.stages:
        if isinstance(stage, BinStage):
            p = stage.packed
            stage._prepare()
            windows, out_hw = stage.window_bits(_require_bits(x))
            w01 = p.bits.astype(np.float64)
            x_pm = 2.0 * windows.astype(np.float64) - 1.0
            zprime = w01 @ x_pm.T  # products in {0, +-1}: exact integers
            q = windows.sum(axis=1, dtype=np.int64) * 2 - p.fan_in
            z = affine_remap(zprime, q[None, :].astype(np.float64), p.omega)
            bits = stage.threshold.decide(z)
            # free the float64 windows before the next stage builds its own
            del windows, x_pm, zprime, z
            if p.kind == "conv3x3":
                b = x.shape[0]
                ho, wo = out_hw
                x = bits.reshape(p.out_ch, b, ho, wo).transpose(1, 0, 2, 3)
            else:
                x = bits.T
        else:
            x = stage.forward(x, counters)
    return x


def _require_bits(x):
    arr = np.asarray(x)
    if arr.dtype != np.uint8:
        raise ValidationError("binary stage fed non-bit activations")
    return arr
