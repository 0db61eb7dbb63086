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
channels). Its weights are tap-packed: each output row holds its taps'
channel words side by side (9 taps for a 3x3 conv, 1 for a linear stage),
zero-padded to whole uint64 words, as (out, K). Each window's words are
laid out the same way from the shifted (strided) input views, so z' is one
AND+popcount over K uint64 words per (row, window) pair; padding is a halo
of zero words (-1 activations). Skipping leaves out the uint64 word columns
that are zero in every row. A word column spans many (channel, tap) weight
positions of every row, so on the benchmark's trained and seeded models no
column is all zero and skip on and skip off run the same words; the paper's
op count still charges only Dense kernels. Skipping is exact: outputs are
identical with it on or off.

A stage runs the AND+popcount, z', the remap and the threshold over slices of
windows of at most STAGE_SLICE_VALUES (out, windows) values, into one uint8
(out, windows) bit array: no int32, int64 or float64 array grows with the
batch beyond one value per window.

Integer pre-activations are exact by construction; the affine remap and the
threshold comparison are the single canonical float expressions shared with
the dense reference path, so the two paths produce bit-identical logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _kernels
from .binquant import OmegaParams, ValidationError
from .nn import MAX_CONV_PADDING, _conv_apply, _window_rows


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

def _round_outward(t: Fraction, up: bool) -> float:
    """The float nearest t on one side: at or above t (up) or at or below."""
    try:
        f = float(t)
    except OverflowError:
        return math.inf if t > 0 else -math.inf
    if math.isinf(f) or (Fraction(f) >= t if up else Fraction(f) <= t):
        return f
    return math.nextafter(f, math.inf if up else -math.inf)


@dataclass(frozen=True)
class FusedThreshold:
    """Batchnorm-then-sign collapsed into one comparison per channel.

    The decision is sign(g * s * (z - mu) + b) with s = 1/sqrt(var + eps),
    evaluated in exact arithmetic over the stored float parameters and with
    sign(0) = +1. `theta` is the exact root mu - b/(g*s) rounded outward to
    the float grid (up for positive gain, down for negative), so comparing
    the float pre-activation against theta reproduces the exact decision for
    every representable value.
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
            orientation[c] = 1 if k > 0 else -1
            theta[c] = _round_outward(root, up=k > 0)
        return cls(orientation=orientation, theta=theta)

    @property
    def channels(self) -> int:
        return self.orientation.size

    def decide(self, z):
        """Bits (uint8) for pre-activations z (channels, ...): z * o >= theta * o
        with the orientation o = +-1, i.e. z >= theta (o = +1) or z <= theta
        (o = -1); negation is exact, -0.0 == 0.0 and theta = +-inf still order."""
        z = np.asarray(z, dtype=np.float64)
        o = self.orientation.reshape((-1,) + (1,) * (z.ndim - 1))
        return np.greater_equal(z * o, self.theta.reshape(o.shape) * o).view(np.uint8)


def affine_remap(z_prime, q, omega: OmegaParams):
    """Map sparse {0,1} pre-activations back to the layer domain:

        z = eta * z' + alpha * q        (alpha = xi * eta)

    which equals the dense sum of {alpha, beta} weights times +-1 inputs up
    to the rounding of this two-product sum. This exact expression is the
    canonical one, shared with the dense reference path: both agree bitwise.
    q must broadcast to the shape of z'. Needs a canonical or degenerate omega.
    """
    if not (omega.degenerate or omega.is_canonical):
        raise ValidationError("affine_remap requires a canonical domain")
    eta = 0.0 if omega.degenerate else omega.eta
    z = np.multiply(z_prime, eta, dtype=np.float64)
    z += omega.alpha * np.asarray(q, dtype=np.float64)
    return z


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

@dataclass
class OpsCounters:
    """What the engine actually executed.

    position_ops follows the paper's 2-ops-per-weight-position convention
    (XNOR + accumulate): with skipping, 2 * 9 * K_dense per window of a conv
    stage, else 2 per weight per window. word_popcounts counts the uint64
    AND+popcount word pairs executed, (out rows) x (windows) x (word columns
    run); skipping removes only word columns that are zero in every row, so
    it rarely shrinks. flops counts float operations (2 per MAC in
    full-precision layers, 3 per remapped output, 1 per threshold compare).
    gather_ops is always 0: no stage gathers. It is kept only because
    perfbench/pipeline.py still reads it.
    """

    images: int = 0
    position_ops: int = 0
    word_popcounts: int = 0
    gather_ops: int = 0  # always 0; perfbench/pipeline.py reads it
    flops: int = 0
    per_layer: list = field(default_factory=list)

    def add_layer(self, name, **kw):
        entry = {"layer": name}
        entry.update(kw)
        self.per_layer.append(entry)
        self.position_ops += kw.get("position_ops", 0)
        self.word_popcounts += kw.get("word_popcounts", 0)
        self.flops += kw.get("flops", 0)


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


def pack(bits, axis):
    """Pack the {0,1} entries along `axis` into words on a new last axis: the
    narrowest of uint8/16/32/64 that holds them, whole uint64 words above 64
    bits. Bits go LSB-first and the padding bits are zero. Byte j ORs bit 8j + k
    shifted left by k, k = 0..7, over slabs of `axis`: fast where np.packbits
    crawls along a strided axis such as a stage's channel axis."""
    bits = np.moveaxis(np.asarray(bits, dtype=np.uint8), axis, 0)
    nbytes = -(-bits.shape[0] // 8)
    width = min(8, 1 << (nbytes - 1).bit_length())
    out = np.zeros(bits.shape[1:] + (-(-nbytes // width) * width,), dtype=np.uint8)
    front = np.moveaxis(out, -1, 0)
    for k in range(8):
        front[: len(bits[k::8])] |= bits[k::8] << k
    return out.view(f"u{width}")


# (out, windows) values per slice of windows in BinStage.forward: every
# temporary of a slice stays about 1 MB, so the heap reuses it from one
# slice to the next instead of faulting in fresh pages for each batch
STAGE_SLICE_VALUES = 1 << 17


@dataclass
class BinStage:
    packed: PackedLayer
    threshold: FusedThreshold

    def _prepare(self):
        """Built lazily: the weights as tap-packed uint64 words, shape
        (out, K). Each row holds its taps' channel words side by side (9 taps
        for a conv, 1 for a linear stage), zero-padded to whole uint64 words.
        Also the word columns with a one-bit in some row (what skipping runs)
        and popcount(w) per row."""
        if getattr(self, "_words", None) is not None:
            return
        p = self.packed
        taps = 9 if p.kind == "conv3x3" else 1
        tap_words = pack(p.bits.reshape(p.out_ch, -1, taps), axis=1).reshape(p.out_ch, -1)
        k = -(-tap_words.shape[1] * tap_words.itemsize // 8)
        words = np.zeros((p.out_ch, k * 8 // tap_words.itemsize), dtype=tap_words.dtype)
        words[:, : tap_words.shape[1]] = tap_words
        self._words = words.view(np.uint64)
        self._kept = np.flatnonzero(self._words.any(axis=0))
        self._ones = p.bits.sum(axis=1, dtype=np.int64)

    @property
    def label(self) -> str:
        return f"bin_{self.packed.kind}"

    def window_bits(self, x_bits):
        """Input windows as flat bits: (windows, fan_in) uint8 plus the
        output spatial shape."""
        p = self.packed
        if p.kind == "conv3x3":
            return _window_rows(np.asarray(x_bits, dtype=np.uint8), p.stride, p.padding, 0)
        return x_bits.reshape(x_bits.shape[0], -1).astype(np.uint8), None

    def forward(self, x_bits, counters: OpsCounters, skip: bool = True):
        """The stage's output bits, as a (B, out, Ho, Wo) view of channel-first
        planes for a conv and (B, out) for a linear stage, and q per window."""
        x_bits = _require_bits(x_bits)
        self._prepare()
        p = self.packed
        b = x_bits.shape[0]
        conv = p.kind == "conv3x3"
        ks, s, pad = (3, p.stride, p.padding) if conv else (1, 1, 0)
        # (B, H, W, words); a linear stage is one pixel
        x = pack(x_bits if conv else x_bits.reshape(b, -1, 1, 1), axis=1)
        if pad:  # a halo of zero words: bit 0 is -1, as window_bits pads
            x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
        ho, wo = (x.shape[1] - ks) // s + 1, (x.shape[2] - ks) // s + 1
        nwin, nwords, k = b * ho * wo, x.shape[3], self._words.shape[1]

        # each window's tap words side by side, in the weights' order, then
        # word-major: win[j] is word j of every window
        windows = np.zeros((b, ho, wo, k * 8 // x.itemsize), dtype=x.dtype)
        for t in range(ks * ks):
            i, j = divmod(t, ks)
            windows[..., t * nwords : (t + 1) * nwords] = x[
                :, i : i + s * (ho - 1) + 1 : s, j : j + s * (wo - 1) + 1 : s
            ]
        win = np.ascontiguousarray(windows.view(np.uint64).reshape(nwin, k).T)
        del windows  # before the slices allocate theirs
        q = 2 * _kernels.popcount_rows(win.T) - p.fan_in

        # skipping leaves out the word columns that are zero in every row
        w = self._words
        if skip and self._kept.size < k:
            w, win = w[:, self._kept], win[self._kept]

        # z' = 2 * popcount(x AND w) - popcount(w), the remap and the
        # threshold, one slice of windows at a time
        bits = np.empty((p.out_ch, nwin), dtype=np.uint8)
        step = max(1, STAGE_SLICE_VALUES // p.out_ch)
        with np.errstate():  # scopes the buffer size set below
            # numpy buffers an op over (rows, 1) or (1, columns) operands
            # whose rows are shorter than its buffer (8192 values by default),
            # 2-3x slower per value: a buffer no wider than a slice avoids it
            np.setbufsize(max(16, min(np.getbufsize(), step // 16 * 16)))
            for lo in range(0, nwin, step):
                overlap = _kernels.and_popcount_matmat(w, win[:, lo : lo + step].T)
                overlap *= 2
                zprime = np.subtract(overlap, self._ones[:, None])
                z = affine_remap(zprime, q[None, lo : lo + step], p.omega)
                bits[:, lo : lo + step] = self.threshold.decide(z)
        if skip and conv:
            position_ops = 2 * 9 * p.kernel_counts[2] * nwin
        else:
            position_ops = 2 * p.weight_count * nwin
        counters.add_layer(
            self.label,
            position_ops=position_ops,
            word_popcounts=p.out_ch * nwin * w.shape[1],
            flops=int(3 * bits.size + bits.size),
        )
        out = bits.reshape(p.out_ch, b, ho, wo).transpose(1, 0, 2, 3) if conv else bits.T
        return out, q


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

    @property
    def label(self) -> str:
        return f"fp_{self.kind}"

    def preact(self, x):
        if self.takes_bits:
            x = 2.0 * np.asarray(x, dtype=np.float64) - 1.0
        else:
            x = np.asarray(x, dtype=np.float64)
        if self.kind == "conv3x3":
            rows, hw = _window_rows(x, self.stride, self.padding, -1.0 if self.takes_bits else 0.0)
            return _conv_apply(rows, self.weight.reshape(self.out_ch, -1), hw)
        return x @ self.weight.T

    def forward(self, x, counters: OpsCounters):
        z = self.preact(x)
        bits = np.moveaxis(self.threshold.decide(np.moveaxis(z, 1, 0)), 0, 1)
        macs = self.weight.size * (z.size // self.out_ch)
        counters.add_layer(self.label, flops=int(2 * macs + z.size), position_ops=0)
        return bits


@dataclass
class BitPool:
    """2x2 stride-2 max pool on bits (max of bits = OR)."""

    label = "pool"

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
    label = "head"

    def forward(self, x_bits, counters: OpsCounters):
        x = 2.0 * x_bits.reshape(x_bits.shape[0], -1).astype(np.float64) - 1.0
        if x.shape[1] != self.weight.shape[1]:
            raise ValidationError(
                f"classifier expects {self.weight.shape[1]} features, got {x.shape[1]}"
            )
        logits = x @ self.weight.T + self.bias
        counters.add_layer(self.label, flops=int(2 * self.weight.size * x.shape[0]))
        return logits


@dataclass
class QuantizedModel:
    """Engine-executable model: stages in forward order."""

    stages: list
    input_shape: tuple  # (C, H, W)
    classes: int

    def binary_stages(self):
        return [s for s in self.stages if isinstance(s, BinStage)]


def walk_stages(stages, input_shape):
    """Each stage's name, s{index}_{label}, and its output shape for one
    image of `input_shape`, as a list of (name, shape) pairs. Raises a
    ValidationError unless every stage takes the shape the stage before it
    gives: a conv its channel count and a window that fits its (padded) map,
    a pool an even-sized map, a linear stage or the head its flattened
    feature count."""
    shape, walked = tuple(input_shape), []
    for i, stage in enumerate(stages):
        layer = stage.packed if isinstance(stage, BinStage) else stage
        if isinstance(stage, BitPool):
            if len(shape) != 3 or shape[1] % 2 or shape[2] % 2:
                raise ValidationError(f"stage {i}: pool needs an even-sized map, gets {shape}")
            shape = (shape[0], shape[1] // 2, shape[2] // 2)
        elif isinstance(stage, Head) or layer.kind == "linear":
            head = isinstance(stage, Head)
            out_ch, in_ch = stage.weight.shape if head else (layer.out_ch, layer.in_ch)
            if math.prod(shape) != in_ch:
                raise ValidationError(
                    f"stage {i}: input width {in_ch}, gets {math.prod(shape)} features"
                )
            shape = (out_ch,)
        else:
            if len(shape) != 3 or shape[0] != layer.in_ch:
                raise ValidationError(
                    f"stage {i}: conv takes {layer.in_ch} channels, gets shape {shape}"
                )
            if layer.stride < 1:
                raise ValidationError(f"stage {i}: conv stride {layer.stride}")
            if layer.padding > MAX_CONV_PADDING:
                raise ValidationError(
                    f"stage {i}: conv padding {layer.padding} above {MAX_CONV_PADDING}"
                )
            hw = tuple((d + 2 * layer.padding - 3) // layer.stride + 1 for d in shape[1:])
            if min(hw) < 1:
                raise ValidationError(f"stage {i}: conv window does not fit a {shape[1:]} map")
            shape = (layer.out_ch,) + hw
        walked.append((f"s{i}_{stage.label}", shape))
    return walked


def _batch(model, images):
    """The images as a float64 (B, C, H, W) batch (one (C, H, W) image gets a
    batch axis). Raises a ValidationError unless each image has the model's
    input shape and every value is finite."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        images = images[None]
    if images.shape[1:] != tuple(model.input_shape):
        raise ValidationError(
            f"input shape {images.shape[1:]} != model {tuple(model.input_shape)}"
        )
    if not np.isfinite(images).all():
        raise ValidationError("images hold NaN or infinite values")
    return images


def infer(model: QuantizedModel, images, skip: bool = True, workers=None):
    """Run the engine over a batch on the calling thread: (logits,
    OpsCounters). `skip=False` forces the full popcount path (no kernel
    skipping) for equivalence checks; outputs are identical either way.
    Images of another shape than the model's input, or holding NaN or
    infinite values, are rejected with a ValidationError.

    `workers` is accepted only as None: perfbench/test_bench.py still passes
    it through. Any other value raises a ValidationError, so no caller that
    asks for worker threads silently runs without them."""
    if workers is not None:
        raise ValidationError(f"infer runs on the calling thread; workers={workers!r}")
    images = _batch(model, images)
    counters = OpsCounters()
    counters.images = images.shape[0]
    x = images
    for stage in model.stages:
        if isinstance(stage, BinStage):
            x, _ = stage.forward(x, counters, skip=skip)
        else:
            x = stage.forward(x, counters)
    return x, counters


# float64 values per slice of windows in reference_forward (2 MB)
REFERENCE_SLICE_VALUES = 1 << 18


def reference_forward(model: QuantizedModel, images):
    """Dense float path over the same quantized model. Binary stages run as
    +-1 float matmuls (exact integers) followed by the same canonical remap
    and threshold decisions, so logits match infer() bit for bit. Images
    are checked as infer() checks them."""
    images = _batch(model, images)
    counters = OpsCounters()
    x = images
    for stage in model.stages:
        if isinstance(stage, BinStage):
            p = stage.packed
            windows, out_hw = stage.window_bits(_require_bits(x))
            w01 = p.bits.astype(np.float64)
            bits = np.empty((p.out_ch, windows.shape[0]), dtype=np.uint8)
            # Every step below is exact or works column by column, so the
            # windows go through in slices: the float64 arrays stay a few MB,
            # small enough to reuse heap memory from one slice to the next
            # instead of faulting in hundreds of MB of fresh pages per batch.
            step = max(1, REFERENCE_SLICE_VALUES // p.fan_in)
            for lo in range(0, windows.shape[0], step):
                win = windows[lo : lo + step]
                x_pm = 2.0 * win.astype(np.float64) - 1.0
                zprime = w01 @ x_pm.T  # products in {0, +-1}: exact integers
                q = win.sum(axis=1, dtype=np.int64) * 2 - p.fan_in
                z = affine_remap(zprime, q[None, :].astype(np.float64), p.omega)
                bits[:, lo : lo + step] = stage.threshold.decide(z)
            del windows  # before the next stage builds its own
            if out_hw is None:  # a linear stage
                x = bits.T
            else:
                x = bits.reshape(p.out_ch, x.shape[0], *out_hw).transpose(1, 0, 2, 3)
        else:
            x = stage.forward(x, counters)
    return x


def _require_bits(x):
    arr = np.asarray(x)
    if arr.dtype != np.uint8:
        raise ValidationError("binary stage fed non-bit activations")
    return arr
