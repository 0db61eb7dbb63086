"""Shared independent oracles and fixed models for the test suite.

The oracles deliberately avoid the library's own code paths: brute-force
grids, golden-section refinement, finite differences, and dense integer
arithmetic.
"""

import numpy as np

from sbnn import engine
from sbnn.binquant import OmegaParams

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


def golden_model():
    """A fixed, seeded quantized model: float stem, a binary 3x3 conv whose
    kernels include Zero, Single at index 0 and at index 8, and Dense, a bit
    pool, a binary linear stage and the head."""
    rng = np.random.default_rng(20231)

    def threshold(n):
        return engine.FusedThreshold.from_batchnorm(
            rng.normal(1.0, 0.5, n), rng.normal(0, 0.5, n),
            rng.normal(0, 1.0, n), rng.uniform(0.05, 2.0, n),
        )

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
        weight=rng.normal(size=(3, 1, 3, 3)), threshold=threshold(3),
    )
    stages = [
        stem,
        engine.BinStage(packed=conv, threshold=threshold(5)),
        engine.BitPool(),
        engine.BinStage(packed=linear, threshold=threshold(7)),
        engine.Head(weight=rng.normal(size=(2, 7)), bias=rng.normal(size=2)),
    ]
    return engine.QuantizedModel(stages=stages, input_shape=(1, 8, 8), classes=2)


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
