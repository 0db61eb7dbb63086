"""Bit-packed {0,1} inference engine.

A quantized model is a pipeline of stages over bit activations (+1 -> bit 1,
-1 -> bit 0):

  float stem   : real conv/linear on raw inputs, then fused batchnorm+sign
  binary stage : popcounts or shifted-plane sums, decided by a threshold table
  bit pool     : 2x2 max pool (OR on bits)
  head         : full-precision classifier on +-1 inputs

A binary stage counts c = popcount(x AND w), the weight ones that meet input
ones, for each (row, window) pair on one of two paths. The popcount path
packs the input channels of each pixel into words once (the narrowest of
uint8/16/32/64 that holds them, whole uint64 words above 64 channels). Its
weights are tap-packed: each output row holds its taps' channel words side
by side (9 taps for a 3x3 conv, 1 for a linear stage), zero-padded to whole
uint64 words, as (out, K). Each window's words are laid out the same way
from the shifted (strided) input views, so c is one AND+popcount over K
uint64 words per pair, whatever the weight ones; padding is a halo of zero
words (-1 activations). The plane path, for a stride-1 conv with skipping
on, keeps each input channel as a plane over the flattened, zero-padded
B * Hp * Wp grid and sums, per row, the plane of each weight one (ch, i, j)
shifted by i * Wp + j: one add per weight one, so sparsity pays in wall
time. BinStage.path picks it where that costs no more than the word pairs;
the counts, and so the bits, are the same on both paths.

The stage decides from integers: with x the window's ones, the bit is
[c >= T[r, x]] XOR flip[r], where the table T (out, fan_in + 1) is built
once per stage by evaluating the canonical float decision
decide(affine_remap(2c - w1, 2x - fan_in)) itself (see
BinStage._threshold_table). So the engine runs no float op per binary
output, yet gives bit for bit the bits of the dense reference path, which
runs the affine remap and the fused batchnorm+sign on every output. The
counts accumulate in the table's dtype, the narrowest unsigned one that
holds the stage's most weight ones in a row plus one.

The popcount path runs the AND+popcount and the table lookup over slices
of windows of at most STAGE_SLICE_VALUES (out, windows) values, into one
uint8 (out, windows) bit array; the plane path holds its counts for all
windows at once, in the table's dtype.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .binquant import DataError, OmegaParams, ValidationError
from .nn import MAX_CONV_PADDING, _im2col, _window_rows


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
    flat = np.asarray(bits, dtype=np.uint8).ravel()
    if flat.size % 9:
        raise ValidationError("bit count not divisible by 9")
    hw = np.einsum("ij->i", flat.reshape(-1, 9))  # uint8; far faster than .sum(axis=1)
    tags = np.minimum(hw, KERNEL_DENSE).astype(np.uint8)
    k0, k1, kd = np.bincount(tags, minlength=3).tolist()
    return tags, (k0, k1, kd)


# ---------------------------------------------------------------------------
# fused batchnorm + sign
# ---------------------------------------------------------------------------

def _round_outward(num: int, den: int, up: bool) -> float:
    """The float nearest num/den (den > 0) on one side: at or above it (up)
    or at or below it."""
    try:
        f = num / den  # correctly rounded
    except OverflowError:
        return math.inf if num > 0 else -math.inf
    fn, fd = f.as_integer_ratio()
    if fn * den >= num * fd if up else fn * den <= num * fd:
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
        gamma, beta, mean, var = (np.asarray(a, dtype=np.float64) for a in (gamma, beta, mean, var))
        inv_std = 1.0 / np.sqrt(var + eps)
        orientation = np.ones(gamma.size, dtype=np.int8)
        theta = np.empty(gamma.size, dtype=np.float64)
        channels = zip(*(a.tolist() for a in (gamma, inv_std, beta, mean)), strict=True)
        for c, (g, s, b, m) in enumerate(channels):
            (gn, gd), (sn, sd) = g.as_integer_ratio(), s.as_integer_ratio()
            k = gn * sn  # g * s = k / (gd * sd), with gd * sd > 0
            if k == 0:  # a constant channel
                theta[c] = -math.inf if b >= 0 else math.inf
                continue
            (mn, md), (bn, bd) = m.as_integer_ratio(), b.as_integer_ratio()
            # root = m - b / (g * s) = (mn*bd*k - bn*md*gd*sd) / (md*bd*k)
            num, den = mn * bd * k - bn * md * gd * sd, md * bd * k
            if k < 0:
                orientation[c] = -1
                num, den = -num, -den
            theta[c] = _round_outward(num, den, up=k > 0)
        return cls(orientation=orientation, theta=theta)

    def decide(self, z):
        """Bits (uint8) for pre-activations z (channels, ...): z * o >= theta * o
        with the orientation o = +-1, i.e. z >= theta (o = +1) or z <= theta
        (o = -1); negation is exact, -0.0 == 0.0 and theta = +-inf still order.
        Callers: BinStage._threshold_table and reference_forward's binary
        stages (a FloatStage folds o into its weights instead)."""
        z = np.asarray(z, dtype=np.float64)
        # +-1.0: a float64 product needs no per-value cast of the int8 sign
        o = self.orientation.astype(np.float64).reshape((-1,) + (1,) * (z.ndim - 1))
        return np.greater_equal(z * o, self.theta.reshape(o.shape) * o).view(np.uint8)


def affine_remap(z_prime, q, omega: OmegaParams):
    """Map sparse {0,1} pre-activations back to the layer domain:

        z = eta * z' + alpha * q        (alpha = xi * eta)

    which equals the dense sum of {alpha, beta} weights times +-1 inputs up
    to the rounding of this two-product sum. This exact expression is the
    canonical one, shared with the dense reference path: both agree bitwise.
    q must broadcast to the shape of z'. Needs tau >= 0 (canonical or degenerate).
    """
    if not omega.tau >= 0.0:
        raise ValidationError("affine_remap requires a canonical domain")
    z = np.multiply(z_prime, omega.eta, dtype=np.float64)
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
    AND+popcount word pairs executed: (out rows) x (windows) x K on a stage
    that counts by popcount, 0 on one that counts by planes (each binary
    stage's per_layer entry names its path). flops counts float operations
    by the paper's convention: 2 per MAC in full-precision layers, and 3
    (the remap) + 1 (the threshold compare) per output of a binary stage. A
    binary stage now decides each output by a table lookup and runs none of
    those 4 float ops, but the count keeps the convention, so that the
    counters and metrics.build_ops_report still count a model the same way.
    gather_ops is always 0: no stage gathers. It is kept only because
    perfbench/pipeline.py still reads it. Under infer, each per_layer entry
    is named as engine.walk_stages names its stage, s{index}_{label}.
    """

    images: int = 0
    position_ops: int = 0
    word_popcounts: int = 0
    gather_ops: int = 0  # always 0; perfbench/pipeline.py reads it
    flops: int = 0
    per_layer: list = field(default_factory=list)
    stage: str = ""  # walk_stages' name of the stage infer is running

    def add_layer(self, label, **kw):
        entry = {"layer": self.stage or label}
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
    # conv only, derived from the bits: out_ch * in_ch uint8 tags and their counts
    kernel_tags: np.ndarray | None = field(init=False, default=None)
    kernel_counts: tuple = field(init=False, default=(0, 0, 0))

    def __post_init__(self):
        shape = (self.out_ch, self.in_ch * (9 if self.kind == "conv3x3" else 1))
        b = self.bits
        if getattr(b, "dtype", None) != np.uint8 or b.shape != shape or b.max(initial=0) > 1:
            raise ValidationError(f"{self.kind} bits must be uint8 in {{0, 1}} of shape {shape}")
        if not self.omega.tau >= 0.0:
            raise ValidationError("packed layers require canonical omega")
        # every eta * z' and alpha * q finite (|z'|, |q| <= fan_in): the
        # remap is then monotone in z', as the threshold table needs
        if not all(math.isfinite(v * self.fan_in) for v in (self.omega.eta, self.omega.alpha)):
            raise ValidationError("packed layers require a domain whose remap stays finite")
        if self.kind == "conv3x3":
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


@contextlib.contextmanager
def _short_rows(n, **errstate):
    """Within the block, numpy's buffer is no wider than rows of n values.
    numpy buffers an op over (rows, 1) or (1, columns) operands whose rows
    are shorter than its buffer (8192 values by default), 2-3x slower per
    value. np.errstate(**errstate) scopes the setting."""
    with np.errstate(**errstate):
        np.setbufsize(max(16, min(np.getbufsize(), n // 16 * 16)))
        yield


# (out, windows) values per slice of windows in BinStage's popcount path:
# every temporary of a slice stays about 1 MB, so the heap reuses it from
# one slice to the next instead of faulting in fresh pages for each batch
STAGE_SLICE_VALUES = 1 << 17

# BinStage.path's costs, in bytes of a contiguous numpy add (numpy 2.4, 2-core
# x86 VM): a byte costs about 0.045 ns, an add call 0.5 us more and an
# AND+popcount word pair 0.7 ns
PLANE_ADD_CALL_BYTES = 11_000
WORD_PAIR_BYTES = 15


@dataclass
class BinStage:
    packed: PackedLayer
    threshold: FusedThreshold

    def _prepare(self):
        """Built lazily: the weights as tap-packed uint64 words, shape
        (out, K), the stage's threshold table and its weight ones. Each row
        of the words holds its taps' channel words side by side (9 taps for
        a conv, 1 for a linear stage), zero-padded to whole uint64 words."""
        if getattr(self, "_words", None) is not None:
            return
        p = self.packed
        taps = 9 if p.kind == "conv3x3" else 1
        tap_words = pack(p.bits.reshape(p.out_ch, -1, taps), axis=1).reshape(p.out_ch, -1)
        k = -(-tap_words.shape[1] * tap_words.itemsize // 8)
        words = np.zeros((p.out_ch, k * 8 // tap_words.itemsize), dtype=tap_words.dtype)
        words[:, : tap_words.shape[1]] = tap_words
        ones = p.bits.sum(axis=1, dtype=np.int64)
        self._table, self._flip = self._threshold_table(ones)
        self._ones = int(ones.sum())
        self._words = words.view(np.uint64)

    @functools.cached_property
    def _ones_at(self):
        """A conv's weight ones as (channel, i, j) in row order, and each
        row's (start, end) among them; built when a plane path first runs."""
        p = self.packed
        _, ch, tap = np.nonzero(p.bits.reshape(p.out_ch, p.in_ch, 9))
        ends = np.cumsum(p.bits.sum(axis=1, dtype=np.int64)).tolist()
        return ch, *np.divmod(tap, 3), list(zip([0] + ends, ends))

    def _threshold_table(self, ones):
        """The decision as a table of popcounts: T (out, fan_in + 1) in the
        narrowest unsigned dtype that holds max(ones) + 1, and flip (out, 1)
        uint8. Row r's bit for a window with x ones whose AND+popcount with
        the row is c is [c >= T[r, x]] XOR flip[r], equal to the canonical
        decide(affine_remap(2c - ones[r], 2x - fan_in)) for every c in
        [0, ones[r]].

        For fixed x that canonical bit is monotone in c: eta > 0 (or 0 on a
        degenerate domain), so eta * z' is non-decreasing in z' and so is
        its rounded sum with alpha * q (PackedLayer keeps every product
        finite, so no NaN arises). It turns on at T[r, x] for orientation
        +1 and off there for -1, where flip[r] is 1; T = ones[r] + 1 if it
        never does. T is found by evaluating the canonical expression
        itself, so it is exact by construction: first at the two counts
        around the real root's guess, then by bisection for the few
        entries the guess missed."""
        p, thr = self.packed, self.threshold
        f, omega = p.fan_in, p.omega
        eta = np.float64(omega.eta)  # divides as numpy does
        flip = (thr.orientation < 0).astype(np.uint8)[:, None]
        x = np.arange(f + 1)
        top = ones[:, None].astype(np.float64)

        def turned(r, zprime, q):  # the canonical bit XOR flip, as bool
            bit = FusedThreshold(thr.orientation[r], thr.theta[r]).decide(
                affine_remap(zprime, q, omega)
            )
            return bit != flip[r, 0]

        rows, q = np.arange(p.out_ch)[:, None], 2 * x - f
        with _short_rows(f + 1, all="ignore"):  # +-inf and NaN guesses are clipped
            # the root of eta * (2c - ones) + alpha * (2x - f) = theta in c,
            # as a row term minus an x term, rounded up into [0, ones + 1]
            row = np.nan_to_num((thr.theta + omega.alpha * f) / (2 * eta) + ones / 2)
            t = np.subtract.outer(row, np.nan_to_num(omega.alpha / eta) * x)
            np.ceil(t, out=t)
            np.clip(t, 0.0, top + 1.0, out=t)
            # z' = 2c - ones at the counts t and t - 1; the masks drop the
            # counts outside [0, ones]
            zprime = np.multiply(t, 2.0)
            zprime -= top
            up = ~turned(rows, zprime, q)
            up &= t <= top
            zprime -= 2.0
            down = turned(rows, zprime, q)
            down &= t > 0.0
        # bisect T in [t + 1, ones + 1] where the bit is still off at t and
        # in [0, t - 1] where it is already on at t - 1
        miss = np.nonzero(up | down)
        t_miss, up = t[miss].astype(np.int64), up[miss]
        lo = np.where(up, t_miss + 1, 0)
        hi = np.where(up, ones[miss[0]] + 1, t_miss - 1)
        r, xs = miss
        while (live := np.flatnonzero(lo < hi)).size:
            mid = (lo[live] + hi[live]) // 2
            on = turned(r[live], 2 * mid - ones[r[live]], 2 * xs[live] - f)
            hi[live] = np.where(on, mid, hi[live])
            lo[live] = np.where(on, lo[live], mid + 1)
        t[miss] = lo
        return t.astype(np.min_scalar_type(int(ones.max(initial=0)) + 1)), flip

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

    def path(self, shape, skip: bool = True) -> str:
        """"planes" or "popcount", how forward counts an input of `shape`: a
        stride-1 conv with skipping on takes planes where its grid bytes per
        weight one cost no more than its word pairs (costs above)."""
        p = self.packed
        if not (skip and p.kind == "conv3x3" and p.stride == 1):
            return "popcount"
        self._prepare()
        b, _, h, w = shape
        hp, wp = h + 2 * p.padding, w + 2 * p.padding
        grid = b * hp * wp * self._table.itemsize
        adds = self._ones * (grid + PLANE_ADD_CALL_BYTES)
        pairs = p.out_ch * b * (hp - 2) * (wp - 2) * self._words.shape[1]
        return "planes" if adds <= WORD_PAIR_BYTES * pairs else "popcount"

    def _decide(self, counts, ones, out):
        """out (uint8, out x windows) = [counts >= T[r, ones]] XOR flip[r],
        with ones each window's input ones: both paths' decision step."""
        np.greater_equal(counts, self._table.take(ones, axis=1), out=out.view(np.bool_))
        out ^= self._flip

    def _popcount_bits(self, x_bits):
        """Bits (out, windows) and window ones by AND+popcount over the
        channel-packed windows, one slice of windows at a time."""
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
        win_ones = _kernels.popcount_rows(win.T)

        bits = np.empty((p.out_ch, nwin), dtype=np.uint8)
        step = max(1, STAGE_SLICE_VALUES // p.out_ch)
        with _short_rows(step):
            for lo in range(0, nwin, step):
                counts = _kernels.and_popcount_matmat(
                    self._words, win[:, lo : lo + step].T, dtype=self._table.dtype
                )
                self._decide(counts, win_ones[lo : lo + step], bits[:, lo : lo + step])
        return bits, win_ones, (b, ho, wo)

    def _plane_bits(self, x_bits):
        """Bits (out, windows) and window ones of a stride-1 conv. Tap (i, j)
        of the window at index n of the flat padded grid is at n + i * Wp + j,
        so a count sums shifted planes and the window ones shifted pixel
        ones; the sums past the map's edge are garbage and dropped."""
        p, dtype = self.packed, self._table.dtype
        pad, b = p.padding, x_bits.shape[0]
        planes = np.ascontiguousarray(x_bits.transpose(1, 0, 2, 3), dtype=dtype)
        if pad:  # zero planes: bit 0 is -1, as window_bits pads
            planes = np.pad(planes, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        hp, wp = planes.shape[2:]
        n = b * hp * wp
        span = n - 2 * wp - 2  # the last window starts before it

        def valid(sums):  # (rows, n) grid sums -> (rows, windows)
            return sums.reshape(-1, b, hp, wp)[:, :, : hp - 2, : wp - 2].reshape(len(sums), -1)

        ch, i, j, rows = self._ones_at
        counts = np.zeros((p.out_ch, n), dtype=dtype)
        offsets = (ch * n + i * wp + j).tolist()
        starts = [offsets[lo:hi] for lo, hi in rows]
        _kernels.shifted_sums(planes.reshape(-1), starts, counts[:, :span])
        pixel_ones = planes.sum(axis=0, dtype=np.min_scalar_type(p.fan_in)).reshape(-1)
        ones = np.zeros((1, n), dtype=pixel_ones.dtype)
        box = [[t // 3 * wp + t % 3 for t in range(9)]]  # the 9 tap shifts
        _kernels.shifted_sums(pixel_ones, box, ones[:, :span])
        counts, ones = valid(counts), valid(ones)[0]
        bits = np.empty(counts.shape, dtype=np.uint8)
        self._decide(counts, ones, bits)
        return bits, ones, (b, hp - 2, wp - 2)

    def forward(self, x_bits, counters: OpsCounters, skip: bool = True):
        """The stage's output bits, as a (B, out, Ho, Wo) view of channel-first
        planes for a conv and (B, out) for a linear stage, and q per window.
        Counts by self.path: both paths give the same exact counts."""
        x_bits = _require_bits(x_bits)
        self._prepare()
        p = self.packed
        planes = self.path(x_bits.shape, skip) == "planes"
        bits, ones, shape = (self._plane_bits if planes else self._popcount_bits)(x_bits)
        conv, nwin = p.kind == "conv3x3", bits.shape[1]
        # the paper's count charges only Dense kernels; skip off charges every weight
        counted = 9 * p.kernel_counts[2] if skip and conv else p.weight_count
        counters.add_layer(
            self.label,
            path="planes" if planes else "popcount",
            position_ops=2 * counted * nwin,
            word_popcounts=0 if planes else bits.size * self._words.shape[1],
            flops=int(3 * bits.size + bits.size),
        )
        out = bits.reshape(p.out_ch, *shape).transpose(1, 0, 2, 3) if conv else bits.T
        return out, 2 * ones.astype(np.int64) - p.fan_in


@dataclass
class FloatStage:
    """Full-precision conv or linear followed by fused batchnorm+sign.
    Consumes raw real inputs (the stem) or +-1 bits (mid-network). Forms the
    training layer's product (nn.Conv3x3: cols.T @ wf.T over nn._im2col's
    windows, padded with 0.0 as a full-precision conv is, also on bits;
    nn.Linear: x @ w.T) with the orientation o folded into the weights:
    negation is exact, so channel c is o[c] times the training output bit
    for bit, decided by one compare with o[c] * theta[c]."""

    kind: str  # "conv3x3" | "linear"
    in_ch: int
    out_ch: int
    stride: int
    padding: int
    weight: np.ndarray  # float64
    threshold: FusedThreshold
    takes_bits: bool = False

    def __post_init__(self):
        shape = (self.out_ch, self.in_ch) + ((3, 3) if self.kind == "conv3x3" else ())
        if np.shape(self.weight) != shape:
            raise ValidationError(f"{self.kind} weight of shape {np.shape(self.weight)}, not {shape}")

    @property
    def label(self) -> str:
        return f"fp_{self.kind}"

    def _prepare(self):
        """Built lazily: o * W as (out, fan_in) and o * theta."""
        if getattr(self, "_weight_o", None) is None:
            o = self.threshold.orientation.astype(np.float64)
            self._weight_o = o[:, None] * self.weight.reshape(self.out_ch, -1)
            self._theta_o = o * self.threshold.theta

    def forward(self, x, counters: OpsCounters):
        self._prepare()
        x = np.asarray(x, dtype=np.float64)
        if self.takes_bits:
            x = 2.0 * x - 1.0
        b, conv = x.shape[0], self.kind == "conv3x3"
        if conv:
            cols, hw = _im2col(x, self.stride, self.padding, 0.0)  # as nn.Conv3x3 pads it
            z = cols.T @ self._weight_o.T  # (B*P, out)
        else:
            z = x.reshape(b, -1) @ self._weight_o.T
        bits = np.greater_equal(z, self._theta_o).view(np.uint8)
        macs = self._weight_o.size * z.shape[0]
        counters.add_layer(self.label, flops=int(2 * macs + z.size), position_ops=0)
        if not conv:
            return bits
        return bits.reshape(b, -1, self.out_ch).transpose(0, 2, 1).reshape(b, self.out_ch, *hw)


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

    def __post_init__(self):
        w, b = np.shape(self.weight), np.shape(self.bias)
        if len(w) != 2 or b != w[:1]:
            raise ValidationError(f"head weight {w} and bias {b}: want 2-D, one bias per row")

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
    feature count. A weighted stage or the head with no inputs or no
    outputs is rejected too, and so is a chain whose last stage is not the
    head or with a head anywhere else."""
    shape, walked = tuple(input_shape), []
    for i, stage in enumerate(stages):
        if isinstance(stage, BitPool):
            if len(shape) != 3 or shape[1] % 2 or shape[2] % 2:
                raise ValidationError(f"stage {i}: pool needs an even-sized map, gets {shape}")
            shape = (shape[0], shape[1] // 2, shape[2] // 2)
            walked.append((f"s{i}_{stage.label}", shape))
            continue
        head = isinstance(stage, Head)
        layer = stage.packed if isinstance(stage, BinStage) else stage
        out_ch, in_ch = stage.weight.shape if head else (layer.out_ch, layer.in_ch)
        if min(out_ch, in_ch) < 1:
            raise ValidationError(f"stage {i}: {in_ch} inputs and {out_ch} outputs")
        if head or layer.kind == "linear":
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
    if [i for i, s in enumerate(stages) if isinstance(s, Head)] != [len(stages) - 1]:
        raise ValidationError("the stage chain does not end in the head")
    return walked


def _batch(model, images):
    """The images as a float64 (B, C, H, W) batch. Raises a DataError
    unless the batch holds at least one image, each image has the model's
    input shape and every value is finite."""
    images = np.asarray(images, dtype=np.float64)
    if images.shape[1:] != tuple(model.input_shape):
        raise DataError(f"input shape {images.shape[1:]} != model {tuple(model.input_shape)}")
    if images.shape[0] == 0:
        raise DataError("the batch holds no images")
    if not np.isfinite(images).all():
        raise DataError("images hold NaN or infinite values")
    return images


def infer(model: QuantizedModel, images, skip: bool = True, workers=None):
    """Run the engine over a batch on the calling thread: (logits,
    OpsCounters). `skip` picks the position_ops convention, Dense kernels
    alone (True) or every weight (False), and lets BinStage.path count a
    stride-1 conv by planes (True); the logits are the same either way.
    An empty batch, images of another shape than the model's input, or
    images holding NaN or infinite values are rejected with a DataError.

    `workers` is accepted only as None: perfbench/test_bench.py still passes
    it through. Any other value raises a ValidationError, so no caller that
    asks for worker threads silently runs without them."""
    if workers is not None:
        raise ValidationError(f"infer runs on the calling thread; workers={workers!r}")
    images = _batch(model, images)
    counters = OpsCounters()
    counters.images = images.shape[0]
    x = images
    for i, stage in enumerate(model.stages):
        counters.stage = f"s{i}_{stage.label}"  # walk_stages' name
        if isinstance(stage, BinStage):
            x, _ = stage.forward(x, counters, skip=skip)
        else:
            x = stage.forward(x, counters)
    counters.stage = ""
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
        raise DataError("binary stage fed non-bit activations")
    return arr
