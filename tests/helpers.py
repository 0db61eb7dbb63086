"""Shared independent oracles and fixed models for the test suite.

The oracles deliberately avoid the library's own code paths: brute-force
grids, golden-section refinement, finite differences, and dense integer
arithmetic.
"""

import contextlib
import json
import math
import struct
import zlib
from fractions import Fraction

import numpy as np

from sbnn import dataio, engine, modelio, nn, train
from sbnn.binquant import OmegaParams, ValidationError

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def quant_sq_loss(w, wb, tau, phi):
    r = w - (tau * wb + phi)
    return float(np.dot(r, r))


def golden_section(f, lo, hi, iters=80):
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def brute_force_omega(w, wb, lo=-2.0, hi=2.0, step=1e-3, sweeps=6):
    """Minimize the squared reconstruction loss over (tau, phi) by a grid
    search followed by golden-section coordinate descent."""
    taus = np.arange(lo, hi + step, step)
    phis = np.arange(lo, hi + step, step)
    # grid evaluation of ||w - tau*wb - phi||^2 in row blocks
    n = w.size
    sww = float(np.dot(w, wb))
    sw = float(np.sum(w))
    swb = float(np.sum(wb))
    w2 = float(np.dot(w, w))
    p = phis[None, :]
    best_val, best_ij = np.inf, (0, 0)
    block = 256
    for base in range(0, taus.size, block):
        t = taus[base : base + block, None]
        grid = w2 - 2 * t * sww - 2 * p * sw + t * t * n + 2 * t * p * swb + p * p * n
        i, j = np.unravel_index(np.argmin(grid), grid.shape)
        if grid[i, j] < best_val:
            best_val, best_ij = float(grid[i, j]), (base + i, j)
    tau, phi = float(taus[best_ij[0]]), float(phis[best_ij[1]])
    span = 2 * step
    for _ in range(sweeps):
        tau, _ = golden_section(lambda t_: quant_sq_loss(w, wb, t_, phi), tau - span, tau + span)
        phi, best = golden_section(lambda p_: quant_sq_loss(w, wb, tau, p_), phi - span, phi + span)
        span = max(span * 0.25, 1e-9)
    return tau, phi, best


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def bisect_entropy_inverse(target, tol=1e-13):
    """Independent bisection for the inverse binary entropy on [0, 1/2]."""

    def h(p):
        if p <= 0.0 or p >= 1.0:
            return 0.0
        return -p * np.log2(p) - (1 - p) * np.log2(1 - p)

    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if h(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dense_sign_dot(w_bits, x_signs):
    """sum over the weight's 1-positions of +-1 activations, in plain ints."""
    return int(sum(int(x) for b, x in zip(w_bits, x_signs) if b == 1))


def _random_threshold(rng, n):
    return engine.FusedThreshold.from_batchnorm(
        rng.normal(1.0, 0.5, n), rng.normal(0, 0.5, n),
        rng.normal(0, 1.0, n), rng.uniform(0.05, 2.0, n),
    )


def golden_model():
    """A fixed, seeded quantized model: float stem, a binary 3x3 conv whose
    kernels include Zero, Single at index 0 and at index 8, and Dense, a bit
    pool, a binary linear stage and the head."""
    rng = np.random.default_rng(20231)

    kernels = (rng.random((5 * 3, 9)) < 0.4).astype(np.uint8)
    kernels[0] = 0
    kernels[1] = np.eye(9, dtype=np.uint8)[0]
    kernels[2] = np.eye(9, dtype=np.uint8)[8]
    kernels[3] = 1
    conv = engine.PackedLayer(
        kind="conv3x3", in_ch=3, out_ch=5, stride=1, padding=1,
        bits=kernels.reshape(5, 27), omega=OmegaParams(tau=0.5, phi=-0.1),
    )
    linear = engine.PackedLayer(
        kind="linear", in_ch=5 * 4 * 4, out_ch=7, stride=1, padding=0,
        bits=(rng.random((7, 80)) < 0.3).astype(np.uint8),
        omega=OmegaParams(tau=0.3, phi=0.05),
    )
    stem = engine.FloatStage(
        kind="conv3x3", in_ch=1, out_ch=3, stride=1, padding=1,
        weight=rng.normal(size=(3, 1, 3, 3)), threshold=_random_threshold(rng, 3),
    )
    stages = [
        stem,
        engine.BinStage(packed=conv, threshold=_random_threshold(rng, 5)),
        engine.BitPool(),
        engine.BinStage(packed=linear, threshold=_random_threshold(rng, 7)),
        engine.Head(weight=rng.normal(size=(2, 7)), bias=rng.normal(size=2)),
    ]
    return engine.QuantizedModel(stages=stages, input_shape=(1, 8, 8), classes=2)


def dense_heavy_model():
    """A fixed, seeded quantized model whose binary conv is mostly Dense: a
    float stem, a 4 -> 8 binary conv at 50 % ones (32 kernels, with one Zero
    and one Single at index 4 among them), a bit pool, a binary linear stage
    and the head."""
    rng = np.random.default_rng(20232)

    kernels = (rng.random((8 * 4, 9)) < 0.5).astype(np.uint8)
    kernels[0] = 0
    kernels[1] = np.eye(9, dtype=np.uint8)[4]
    conv = engine.PackedLayer(
        kind="conv3x3", in_ch=4, out_ch=8, stride=1, padding=1,
        bits=kernels.reshape(8, 36), omega=OmegaParams(tau=0.25, phi=0.1),
    )
    linear = engine.PackedLayer(
        kind="linear", in_ch=8 * 3 * 3, out_ch=5, stride=1, padding=0,
        bits=(rng.random((5, 72)) < 0.5).astype(np.uint8),
        omega=OmegaParams(tau=0.4, phi=-0.05),
    )
    stem = engine.FloatStage(
        kind="conv3x3", in_ch=1, out_ch=4, stride=1, padding=1,
        weight=rng.normal(size=(4, 1, 3, 3)), threshold=_random_threshold(rng, 4),
    )
    stages = [
        stem,
        engine.BinStage(packed=conv, threshold=_random_threshold(rng, 8)),
        engine.BitPool(),
        engine.BinStage(packed=linear, threshold=_random_threshold(rng, 5)),
        engine.Head(weight=rng.normal(size=(3, 5)), bias=rng.normal(size=3)),
    ]
    return engine.QuantizedModel(stages=stages, input_shape=(1, 6, 6), classes=3)


def head_before_last_model():
    """A float linear 4 -> 8, a head 8 -> 6, a binary linear 6 -> 8 and a
    head 8 -> 2 on (1, 2, 2) images: every stage takes the width the one
    before it gives, but the first head is not the last stage."""
    rng = np.random.default_rng(25)
    stages = [
        engine.FloatStage(
            kind="linear", in_ch=4, out_ch=8, stride=1, padding=0,
            weight=rng.normal(size=(8, 4)), threshold=_random_threshold(rng, 8),
        ),
        engine.Head(weight=rng.normal(size=(6, 8)), bias=rng.normal(size=6)),
        engine.BinStage(
            packed=engine.PackedLayer(
                kind="linear", in_ch=6, out_ch=8, stride=1, padding=0,
                bits=(rng.random((8, 6)) < 0.5).astype(np.uint8),
                omega=OmegaParams(tau=0.5, phi=0.0),
            ),
            threshold=_random_threshold(rng, 8),
        ),
        engine.Head(weight=rng.normal(size=(2, 8)), bias=rng.normal(size=2)),
    ]
    return engine.QuantizedModel(stages=stages, input_shape=(1, 2, 2), classes=2)


def with_crc(data):
    """A model file with its trailing crc recomputed over the edited body."""
    return bytes(data[:-4]) + struct.pack("<I", zlib.crc32(bytes(data[8:-4])))


def reference_kernel_payload(kind, bits):
    """The model file's kernel payload built bit by bit in plain Python:
    MSB-first, byte-padded. A linear layer is its raw bits; a conv layer is
    a 2-bit class code per kernel (00 zero, 01 single, 10 dense), then a
    4-bit index per single kernel, then 9 raw bits per dense kernel."""
    flat = [int(b) for b in np.asarray(bits).ravel()]
    if kind == "conv3x3":
        kernels = [flat[i : i + 9] for i in range(0, len(flat), 9)]
        codes = [min(sum(k), 2) for k in kernels]
        stream = [bit for c in codes for bit in (c >> 1, c & 1)]
        for k, c in zip(kernels, codes):
            if c == 1:
                i = k.index(1)
                stream += [(i >> s) & 1 for s in (3, 2, 1, 0)]
        for k, c in zip(kernels, codes):
            if c == 2:
                stream += k
    else:
        stream = flat
    stream += [0] * (-len(stream) % 8)
    return bytes(
        sum(bit << (7 - j) for j, bit in enumerate(stream[i : i + 8]))
        for i in range(0, len(stream), 8)
    )


# ---------------------------------------------------------------------------
# Oracles for the batchnorm fold (Fraction arithmetic) and for the per-epoch
# accuracy (the float network in eval mode)
# ---------------------------------------------------------------------------

def fraction_round_outward(t, up):
    """The float nearest the Fraction t on one side: at or above t (up) or at
    or below it."""
    try:
        f = float(t)
    except OverflowError:
        return math.inf if t > 0 else -math.inf
    if math.isinf(f) or (Fraction(f) >= t if up else Fraction(f) <= t):
        return f
    return math.nextafter(f, math.inf if up else -math.inf)


def fraction_fold(gamma, beta, mean, var, eps=1e-5):
    """(orientation, theta) of FusedThreshold.from_batchnorm, computed in
    Fraction arithmetic channel by channel."""
    gamma, beta, mean, var = (np.asarray(a, dtype=np.float64) for a in (gamma, beta, mean, var))
    orientation = np.empty(gamma.size, dtype=np.int8)
    theta = np.empty(gamma.size, dtype=np.float64)
    inv_std = 1.0 / np.sqrt(var + eps)
    for c in range(gamma.size):
        k = Fraction(gamma[c]) * Fraction(inv_std[c])
        if k == 0:
            orientation[c] = 1
            theta[c] = -math.inf if beta[c] >= 0 else math.inf
            continue
        root = Fraction(mean[c]) - Fraction(beta[c]) / k
        orientation[c] = 1 if k > 0 else -1
        theta[c] = fraction_round_outward(root, up=k > 0)
    return orientation, theta


def float_evaluate(network, images, labels, batch_size=256):
    """Accuracy of the float network in eval mode, over slices of
    batch_size images."""
    hits = 0
    for lo in range(0, images.shape[0], batch_size):
        logits = network.forward(images[lo : lo + batch_size], train=False)
        hits += int(np.sum(np.argmax(logits, axis=1) == labels[lo : lo + batch_size]))
    return hits / images.shape[0]


# ---------------------------------------------------------------------------
# Oracles for the bulk passes of quantize, save and load: the masked write,
# the row sums, and the fancy-indexed codec they replaced
# ---------------------------------------------------------------------------

def masked_sign_binarize(w):
    """sign_binarize as a masked write: +1 everywhere, then -1 where w < 0."""
    arr = np.asarray(w, dtype=np.float64).reshape(-1)
    if arr.size < 1:
        raise ValidationError("w must have at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("w contains non-finite entries")
    out = np.ones(arr.shape, dtype=np.int8)
    out[arr < 0.0] = -1
    return out


def summed_classify_kernels(bits):
    """classify_kernels with each kernel's ones summed over its row of 9."""
    flat = np.asarray(bits).ravel()
    if flat.size % 9:
        raise ValidationError("bit count not divisible by 9")
    tags = np.minimum(flat.reshape(-1, 9).sum(axis=1), engine.KERNEL_DENSE).astype(np.uint8)
    return tags, tuple(np.bincount(tags, minlength=3).tolist())


def unpacked_encode_kernel_payload(packed):
    """The kernel payload with its codes and indices unpacked from rows of
    one byte, and its Dense kernels picked by a boolean mask."""
    if packed.kind != "conv3x3":
        return np.packbits(packed.bits).tobytes()
    tags = packed.kernel_tags
    kernels = packed.bits.reshape(-1, 9)
    codes = np.unpackbits(tags[:, None], axis=1)[:, 6:]
    index = kernels[tags == engine.KERNEL_SINGLE].argmax(axis=1).astype(np.uint8)
    index_bits = np.unpackbits(index[:, None], axis=1)[:, 4:]
    dense = kernels[tags == engine.KERNEL_DENSE]
    stream = np.concatenate([codes.ravel(), index_bits.ravel(), dense.ravel()])
    return np.packbits(stream).tobytes()


def scattered_decode_kernel_payload(cur, kind, out_ch, fan_in):
    """The kernel payload decoded by fancy-indexed writes into zeroed bits:
    (bits, (zero, single, dense) counts), as modelio's decoder returns them."""
    if kind != "conv3x3":
        return modelio._take_bits(cur, out_ch * fan_in).reshape(out_ch, fan_in), (0, 0, 0)
    kernels = out_ch * (fan_in // 9)
    head = cur.data[cur.pos : cur.pos + (2 * kernels + 7) // 8]
    if 4 * len(head) < kernels:
        raise modelio.TruncatedStream(f"{kernels} kernel class codes at offset {cur.pos}")
    codes = np.unpackbits(np.frombuffer(head, dtype=np.uint8), count=2 * kernels)
    tags = 2 * codes[0::2] + codes[1::2]
    if (tags > engine.KERNEL_DENSE).any():
        raise modelio.ModelFileError(f"invalid kernel class code 0b11 at offset {cur.pos}")
    single = np.flatnonzero(tags == engine.KERNEL_SINGLE)
    dense = np.flatnonzero(tags == engine.KERNEL_DENSE)
    stream = modelio._take_bits(cur, 2 * kernels + 4 * single.size + 9 * dense.size)[2 * kernels :]
    index = stream[: 4 * single.size].reshape(-1, 4) @ np.array([8, 4, 2, 1], dtype=np.uint8)
    if (index > 8).any():
        raise modelio.ModelFileError(f"single-kernel index {index.max()} out of range 0..8")
    bits = np.zeros((kernels, 9), dtype=np.uint8)
    bits[single, index] = 1
    bits[dense] = stream[4 * single.size :].reshape(-1, 9)
    counts = (kernels - single.size - dense.size, single.size, dense.size)
    return bits.reshape(out_ch, fan_in), counts


# ---------------------------------------------------------------------------
# Float stages: the training layers' output, decided channel by channel
# ---------------------------------------------------------------------------

def channel_decide(threshold, z):
    """FusedThreshold.decide over axis 1, the channel axis, of z."""
    return np.moveaxis(threshold.decide(np.moveaxis(z, 1, 0)), 0, 1)


def training_float_preact(stage, x):
    """A FloatStage's pre-activations as the training layer forms them,
    (B, out, Ho, Wo) for a conv and (B, out) for a linear stage: an
    nn.Conv3x3 or nn.Linear holding the stage's weights, padded as that
    full-precision layer pads (with 0.0). A stage that takes bits runs on
    2x - 1."""
    x = np.asarray(x, dtype=np.float64)
    conv = stage.kind == "conv3x3"
    if stage.takes_bits:
        x = 2.0 * x - 1.0
    spec = nn.LayerSpec(
        stage.kind, in_ch=stage.in_ch, out_ch=stage.out_ch, stride=stage.stride,
        padding=stage.padding,
    )
    layer = (nn.Conv3x3 if conv else nn.Linear)(spec, np.random.default_rng(0))
    layer.weight.value[...] = stage.weight
    return layer.forward(x if conv else x.reshape(x.shape[0], -1))


def window_rows_stem_preact(stage, x):
    """A float stem's pre-activations (B, out, Ho, Wo) as the engine formed
    them before it moved onto training's im2col and product: windows from
    nn._window_rows, multiplied with the weights by nn._conv_apply."""
    rows, hw = nn._window_rows(np.asarray(x, dtype=np.float64), stage.stride, stage.padding, 0.0)
    return nn._conv_apply(rows, stage.weight.reshape(stage.out_ch, -1), hw)


def tied_threshold(z, rng):
    """A threshold for the pre-activations z (B, out, ...) that a last-bit
    difference in z would show: orientations alternate from -1, each
    channel's theta is one of its own values (a tie), except theta = +inf
    on channels 3, 8, ... and -inf on channels 4, 9, ..."""
    n = z.shape[1]
    zc = np.moveaxis(z, 1, 0).reshape(n, -1)
    theta = zc[np.arange(n), rng.integers(zc.shape[1], size=n)]
    theta[3::5], theta[4::5] = np.inf, -np.inf
    orientation = np.resize(np.array([-1, 1], dtype=np.int8), n)
    return engine.FusedThreshold(orientation=orientation, theta=theta)


# ---------------------------------------------------------------------------
# Spec-level forward of +-1 layers as float products. The conv gathers its
# windows with nn._window_rows, which TestConvMatchesReference pins to the
# fancy-index im2col below.
# ---------------------------------------------------------------------------

def forward_binary_linear(x_signs, weight_signs):
    """Pre-activations of a +-1 linear layer: y = W x, float reference path.
    Sums of +-1 products are exact integers in float64, so the result is
    bit-exact against integer arithmetic."""
    w = np.asarray(weight_signs, dtype=np.float64)
    x = np.asarray(x_signs, dtype=np.float64)
    if w.shape[-1] != x.shape[-1]:
        raise ValidationError("shape mismatch")
    return x @ w.T


def forward_binary_conv(x_signs, weight_signs, stride=1, padding=0):
    """Pre-activations of a +-1 3x3 conv; padding uses the -1-valued halo."""
    w = np.asarray(weight_signs, dtype=np.float64)
    if w.ndim != 4 or w.shape[2:] != (3, 3):
        raise ValidationError("weights must be (out, in, 3, 3)")
    x = np.asarray(x_signs, dtype=np.float64)
    rows, hw = nn._window_rows(x, stride, padding, -1.0)
    return nn._conv_apply(rows, w.reshape(w.shape[0], -1), hw)


# ---------------------------------------------------------------------------
# Reference 3x3 conv: the fancy-index im2col, the np.add.at col2im and the
# three einsum contractions that training used before the conv hot path was
# rewritten. Training must stay bit-identical to them, so the tests compare
# with np.array_equal, not allclose.
# ---------------------------------------------------------------------------

def reference_conv_im2col(x, stride, pad, pad_value):
    """x (B, C, H, W) -> cols (B, C*9, P) by one fancy-index gather, and the
    index arrays reference_conv_col2im scatters back through."""
    b, c, h, w = x.shape
    ho, wo = (h + 2 * pad - 3) // stride + 1, (w + 2 * pad - 3) // stride + 1
    xp = np.full((b, c, h + 2 * pad, w + 2 * pad), pad_value, dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    ci = np.repeat(np.arange(c), 9)
    ki, kj = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    ki, kj = np.tile(ki.ravel(), c), np.tile(kj.ravel(), c)
    oi, oj = np.meshgrid(np.arange(ho) * stride, np.arange(wo) * stride, indexing="ij")
    rows = ki[:, None] + oi.ravel()[None, :]  # (C*9, P)
    cols_ix = kj[:, None] + oj.ravel()[None, :]
    cols = xp[:, ci[:, None], rows, cols_ix]
    return cols, (x.shape, (ho, wo), pad, ci, rows, cols_ix)


def reference_conv_col2im(dcols, geom):
    (b, c, h, w), _, pad, ci, rows, cols_ix = geom
    dxp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    bi = np.arange(b)[:, None, None]
    np.add.at(dxp, (bi, ci[None, :, None], rows[None], cols_ix[None]), dcols)
    return dxp[:, :, pad : pad + h, pad : pad + w]


def reference_conv_forward(wf, cols, geom):
    """Conv output (B, O, Ho, Wo) from the (O, C*9) weights."""
    y = np.einsum("of,bfp->bop", wf, cols, optimize=True)
    (b, *_), (ho, wo) = geom[:2]
    return y.reshape(b, wf.shape[0], ho, wo)


def reference_conv_weight_grad(g, cols):
    """d(loss)/d(wf) from the output gradient g (B, O, P)."""
    return np.einsum("bop,bfp->of", g, cols, optimize=True)


def reference_conv_input_grad(g, wf, geom):
    """d(loss)/d(x) from the output gradient g (B, O, P)."""
    return reference_conv_col2im(np.einsum("of,bop->bfp", wf, g, optimize=True), geom)


def reference_conv3x3_forward(layer, x, train=False):
    """Drop-in for nn.Conv3x3.forward built on the reference conv."""
    w_eff, layer._wcache = layer.effective_weight()
    wf = w_eff.reshape(layer.spec.out_ch, -1)
    cols, geom = reference_conv_im2col(
        np.asarray(x, dtype=np.float64), layer.spec.stride, layer.spec.padding, layer.pad_value
    )
    layer._reference_cache = (cols, geom, wf)
    return reference_conv_forward(wf, cols, geom)


def reference_conv3x3_backward(layer, grad_out, input_grad=True):
    """Drop-in for nn.Conv3x3.backward; always computes the input gradient."""
    cols, geom, wf = layer._reference_cache
    g = grad_out.reshape(grad_out.shape[0], layer.spec.out_ch, -1)
    layer.backward_weight(reference_conv_weight_grad(g, cols).reshape(layer.weight.value.shape))
    return reference_conv_input_grad(g, wf, geom)


def reference_batchnorm_forward(layer, x, train=False):
    """Drop-in for nn.BatchNorm.forward computed the direct way: np.var for
    the batch variance, and the input centered again for xhat."""
    x = np.asarray(x, dtype=np.float64)
    axes, bshape = layer._shape_for(x)
    if train:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        layer.running_mean = (1 - layer.momentum) * layer.running_mean + layer.momentum * mean
        layer.running_var = (1 - layer.momentum) * layer.running_var + layer.momentum * var
    else:
        mean, var = layer.running_mean, layer.running_var
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    xhat = (x - mean.reshape(bshape)) * inv_std.reshape(bshape)
    layer._reference_cache = (x, xhat, mean, inv_std, axes, bshape)
    return layer.gamma.value.reshape(bshape) * xhat + layer.beta.value.reshape(bshape)


def reference_batchnorm_backward(layer, grad_out):
    """Drop-in for nn.BatchNorm.backward after a training forward, centering
    the input a third time."""
    x, xhat, mean, inv_std, axes, bshape = layer._reference_cache
    layer.gamma.grad += np.sum(grad_out * xhat, axis=axes)
    layer.beta.grad += np.sum(grad_out, axis=axes)
    dxhat = grad_out * layer.gamma.value.reshape(bshape)
    m = x.size // x.shape[1]
    xc = x - mean.reshape(bshape)
    istd = inv_std.reshape(bshape)
    dvar = np.sum(dxhat * xc, axis=axes) * (-0.5) * inv_std**3
    dmean = np.sum(dxhat, axis=axes) * (-inv_std) + dvar * np.sum(-2.0 * xc, axis=axes) / m
    return dxhat * istd + dvar.reshape(bshape) * 2.0 * xc / m + dmean.reshape(bshape) / m


# ---------------------------------------------------------------------------
# Reference binary-stage numerics: the affine remap, threshold decisions and
# channel packing as the engine computed them before its hot path wrote into
# preallocated buffers. The engine must stay byte-identical to them.
# ---------------------------------------------------------------------------

def reference_affine_remap(z_prime, q, omega):
    """eta * z' + alpha * q over float64 copies of both operands."""
    zp = np.asarray(z_prime, dtype=np.float64)
    qf = np.asarray(q, dtype=np.float64)
    return omega.eta * zp + omega.alpha * qf


def reference_decide(threshold, z):
    """Bits for z (channels, ...): z >= theta where the orientation is +1,
    z <= theta where it is -1, chosen by np.where."""
    z = np.asarray(z, dtype=np.float64)
    o = threshold.orientation.reshape((-1,) + (1,) * (z.ndim - 1))
    t = threshold.theta.reshape((-1,) + (1,) * (z.ndim - 1))
    return np.where(o > 0, z >= t, z <= t).astype(np.uint8)


def reference_decide_channel(threshold, z, channel):
    """Bits for values z of one channel, by that channel's own comparison."""
    z = np.asarray(z, dtype=np.float64)
    t = threshold.theta[channel]
    return ((z >= t) if threshold.orientation[channel] > 0 else (z <= t)).astype(np.uint8)


def reference_pack(bits, axis):
    """engine.pack by np.packbits along `axis`, widened to the same word."""
    packed = np.moveaxis(np.packbits(bits, axis=axis, bitorder="little"), axis, -1)
    nbytes = packed.shape[-1]
    width = min(8, 1 << (nbytes - 1).bit_length())
    out = np.zeros(packed.shape[:-1] + (-(-nbytes // width) * width,), dtype=np.uint8)
    out[..., :nbytes] = packed
    return out.view(f"u{width}")


# ---------------------------------------------------------------------------
# Binary-stage pre-activations: the int64 oracle and what the engine computed
# ---------------------------------------------------------------------------

def int_preacts(bits, windows):
    """The independent oracle: z' (out, windows) and q (windows,) by plain
    int64 arithmetic over {0,1} weight bits and {0,1} window bits."""
    x_pm = 2 * windows.astype(np.int64) - 1
    return bits.astype(np.int64) @ x_pm.T, x_pm.sum(axis=1)


@contextlib.contextmanager
def captured_preacts():
    """Within the block, collect the int64 (z', q) slices of every binary
    stage's forward, in call order, from what its threshold table compares:
    `engine.BinStage._decide`, the one decision step that both counting
    paths (AND+popcount and shifted planes) hand their counts c and window
    ones x to. Each call gives z' = 2c - w1, with w1 the stage's weight ones
    per row, and q = 2x - fan_in for the slice's windows."""
    slices = []
    real_decide = engine.BinStage._decide

    def decide(stage, counts, ones, out):
        p = stage.packed
        w1 = p.bits.sum(axis=1, dtype=np.int64)[:, None]
        slices.append(
            (2 * counts.astype(np.int64) - w1, 2 * np.asarray(ones, dtype=np.int64) - p.fan_in)
        )
        return real_decide(stage, counts, ones, out)

    engine.BinStage._decide = decide
    try:
        yield slices
    finally:
        engine.BinStage._decide = real_decide


@contextlib.contextmanager
def clip_surrogate():
    """Within the block, every sign in the network's forward (latent weights
    and activations) is its straight-through surrogate clip(x, -1, 1). The
    backward pass is then the exact gradient of the forward away from the
    clip kinks at +-1, which is what the finite-difference tests check."""
    real = nn._binarize
    nn._binarize = lambda x: np.clip(x, -1.0, 1.0)
    try:
        yield
    finally:
        nn._binarize = real


@contextlib.contextmanager
def planes_wherever_allowed():
    """Within the block, every binary stage that may count by planes (a
    stride-1 conv with skipping on) does, whatever BinStage.path's cost
    comparison says: a word pair is priced at infinitely many byte adds."""
    real = engine.WORD_PAIR_BYTES
    engine.WORD_PAIR_BYTES = float("inf")
    try:
        yield
    finally:
        engine.WORD_PAIR_BYTES = real


def forward_preacts(stage, x, counters, skip):
    """Run `stage.forward` under `captured_preacts`. Returns (bits, z', q,
    returned q), the captured int64 slices joined along the windows axis."""
    with captured_preacts() as slices:
        bits, q_out = stage.forward(x, counters, skip=skip)
    zprime = np.concatenate([z for z, _ in slices], axis=1)
    q = np.concatenate([q for _, q in slices])
    return bits, zprime, q, q_out


def write_cifar10_binary(path, images_u8, labels):
    """Write CIFAR-10 binary records, a label byte then 3072 pixels each.
    `images_u8` is (n, 3, 32, 32) uint8 raw pixels."""
    images_u8 = np.asarray(images_u8, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    rec = np.concatenate([labels[:, None], images_u8.reshape(images_u8.shape[0], -1)], axis=1)
    assert rec.shape[1] == dataio.CIFAR_RECORD, "images must be (n, 3, 32, 32)"
    with open(path, "wb") as fh:
        fh.write(rec.tobytes())


def write_idx_images(path, images_u8):
    """Write (n, h, w) uint8 images as an IDX image file."""
    images_u8 = np.asarray(images_u8, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", dataio.IDX_IMAGES_MAGIC, *images_u8.shape))
        fh.write(images_u8.tobytes())


def write_idx_labels(path, labels):
    """Write uint8 labels as an IDX label file."""
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", dataio.IDX_LABELS_MAGIC, labels.size))
        fh.write(labels.tobytes())


def report_from_jsonl(text):
    """The TrainReport whose to_jsonl() gave `text`."""
    report = train.TrainReport()
    for line in text.splitlines():
        obj = json.loads(line)
        if obj.get("final"):
            report.final_snapshot_id = obj["snapshot_id"]
        else:
            report.records.append(obj)
    return report
