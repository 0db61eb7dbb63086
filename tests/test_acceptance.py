"""Acceptance suite: one test per criterion, each printing a live pass line.

Run with plain `pytest`; the pass/fail line per criterion prints unbuffered
so it is visible even under output capture.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from sbnn import binquant as bq
from sbnn import dataio, engine, metrics, modelio, nn, sparsity
from sbnn.train import TrainConfig, quantize_network, quantize_snapshot, take_snapshot, train

from helpers import (
    bisect_entropy_inverse,
    brute_force_omega,
    clip_surrogate,
    forward_preacts,
    int_preacts,
    planes_wherever_allowed,
    quant_sq_loss,
)


@pytest.fixture
def announce(capsys, request):
    start = time.monotonic()
    yield
    took = time.monotonic() - start
    with capsys.disabled():
        print(f"[acceptance] {request.node.name}: PASS ({took:.1f}s)", flush=True)


def rand_nondegenerate(rng, n):
    w = rng.uniform(-1.0, 1.0, size=n)
    if np.all(w >= 0) or np.all(w < 0):
        w[0] = -w[0] if w[0] != 0 else -0.5
    return w


# ---------------------------------------------------------------------------
# 1. closed-form optimality
# ---------------------------------------------------------------------------

def test_criterion_1_closed_form_optimality(announce):
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(4, 65))
        w = rand_nondegenerate(rng, n)
        wb = bq.sign_binarize(w)
        om = bq.fit_omega_closed_form(w, wb)
        loss_cf = bq.binarization_loss(w, wb, om)
        # grid at step 1e-2 over [-2,2]^2, golden-section refined
        t_o, p_o, best = brute_force_omega(w, wb, step=1e-2)
        assert loss_cf <= best + 1e-9
        dt, dp = bq.grad_binarization_loss(w, wb, om)
        assert abs(dt) < 1e-9 and abs(dp) < 1e-9
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. gradient suite
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_suite(announce):
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    # (i) analytic grad of the quantization loss vs central differences
    for _ in range(100):
        n = int(rng.integers(2, 65))
        w = rand_nondegenerate(rng, n)
        wb = bq.sign_binarize(w)
        tau = float(rng.uniform(-1.5, 1.5))
        phi = float(rng.uniform(-1.5, 1.5))
        dt, dp = bq.grad_binarization_loss(w, wb, bq.OmegaParams(tau, phi))
        h = 1e-6
        fd_t = (quant_sq_loss(w, wb, tau + h, phi) - quant_sq_loss(w, wb, tau - h, phi)) / (2 * h)
        fd_p = (quant_sq_loss(w, wb, tau, phi + h) - quant_sq_loss(w, wb, tau, phi - h)) / (2 * h)
        assert dt == pytest.approx(fd_t, rel=1e-5, abs=1e-5)
        assert dp == pytest.approx(fd_p, rel=1e-5, abs=1e-5)

    # (ii) every latent gradient of a <= 500-parameter network, in the
    # straight-through surrogate forward (sign -> clip, under clip_surrogate),
    # skipping points at the clip kinks +-1 +- 1e-3
    spec = nn.mlp_spec(in_features=12, classes=2, hidden=10, omega_mode="learned")
    net = nn.Network(spec, np.random.default_rng(33))
    n_params = sum(p.value.size for _, p in net.params())
    assert n_params <= 500
    x = rng.normal(size=(16, 12))
    y = rng.integers(0, 2, size=16)
    with clip_surrogate():
        net.zero_grads()
        logits = net.forward(x, train=True)
        _, dl = nn.softmax_cross_entropy(logits, y)
        net.backward(dl)

        def loss_at():
            lg = net.forward(x, train=True)
            return nn.softmax_cross_entropy(lg, y)[0]

        checked = 0
        for name, p in net.params():
            flat, gflat = p.value.ravel(), p.grad.ravel()
            for i in range(flat.size):
                if abs(abs(flat[i]) - 1.0) < 1e-3:
                    continue
                old = flat[i]
                h = 1e-6
                flat[i] = old + h
                lp = loss_at()
                flat[i] = old - h
                lm = loss_at()
                flat[i] = old
                fd = (lp - lm) / (2 * h)
                assert gflat[i] == pytest.approx(fd, rel=1e-4, abs=1e-7), f"{name}[{i}]"
                checked += 1
    assert checked > 200
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 3. entropy budget
# ---------------------------------------------------------------------------

def test_criterion_3_entropy_budget(announce):
    for y in np.arange(0.0, 1.0001, 0.05):
        y = float(y)
        assert sparsity.binary_entropy(sparsity.inverse_binary_entropy(y)) == pytest.approx(
            y, abs=1e-10
        )
    budget = sparsity.make_budget(0.5, 1000)
    oracle = bisect_entropy_inverse(0.5) * 1000
    assert budget.m == pytest.approx(110.03, abs=0.005)
    assert budget.m == pytest.approx(oracle, abs=1e-6)
    # U <= M <=> penalty-free, exhaustively for N <= 20
    ec = budget.ec
    for n in range(1, 21):
        m = n * ec
        for ones in range(n + 1):
            bits = np.array([1] * ones + [0] * (n - ones), dtype=np.uint8)
            assert (sparsity.penalty_g(bits, ec) == 0.0) == (ones <= m)


# ---------------------------------------------------------------------------
# 4. lambda modulation
# ---------------------------------------------------------------------------

def test_criterion_4_lambda_modulation(announce):
    rng = np.random.default_rng(404)
    for _ in range(1000):
        loss = float(rng.uniform(1e-6, 1e4))
        j = float(rng.uniform(1e-9, 1.0))
        gamma = float(rng.uniform(1e-6, 0.999))
        lam = sparsity.lambda_update(loss, j, gamma)
        assert lam * j / (loss + lam * j) == pytest.approx(gamma, rel=1e-12)
    assert sparsity.lambda_update(3.0, 0.4, 0.0) == 0.0
    assert sparsity.lambda_update(3.0, 0.0, 0.3) == 0.0


# ---------------------------------------------------------------------------
# 5. sparse-engine bit-exactness
# ---------------------------------------------------------------------------

def _fuzz_model(rng):
    width = int(rng.integers(3, 7))
    hw = int(rng.choice([7, 8, 9]))
    classes = int(rng.integers(2, 5))
    mode = str(rng.choice(["analytic", "pm1"]))
    spec = nn.conv_net_spec(in_ch=1, classes=classes, width=width, image_hw=hw, omega_mode=mode)
    net = nn.Network(spec, np.random.default_rng(int(rng.integers(2**32))))
    for layer in net.layers:
        if isinstance(layer, nn.BatchNorm):
            c = layer.running_mean.size
            layer.running_mean[...] = rng.normal(0, 1.0, size=c)
            layer.running_var[...] = rng.uniform(0.05, 2.0, size=c)
            layer.gamma.value[...] = rng.normal(1.0, 0.5, size=c)
            layer.beta.value[...] = rng.normal(0, 0.5, size=c)
        if isinstance(layer, nn._WeightedLayer) and layer.spec.binarized:
            # push some layers sparse so zero/single kernels appear
            if rng.random() < 0.5:
                layer.weight.value[...] = layer.weight.value - rng.uniform(0.0, 0.1)
    return quantize_network(net, (1, hw, hw), classes, mode=mode)


def test_criterion_5_engine_bit_exactness(announce):
    t0 = time.monotonic()
    rng = np.random.default_rng(505)
    fanin_max = 0
    for _ in range(100):
        model = _fuzz_model(rng)
        images = rng.normal(size=(100,) + tuple(model.input_shape))
        # integer stage vs dense int64 oracle, layer by layer
        x = images
        counters = engine.OpsCounters()
        for stage in model.stages:
            if isinstance(stage, engine.BinStage):
                fanin_max = max(fanin_max, stage.packed.fan_in)
                windows, _ = stage.window_bits(x)
                zprime_oracle, q_oracle = int_preacts(stage.packed.bits, windows)
                # what forward computed, with skipping on and off, and with
                # every stride-1 conv counting by planes
                bits_off, *off = forward_preacts(stage, x, engine.OpsCounters(), skip=False)
                with planes_wherever_allowed():
                    bits_planes, *planes = forward_preacts(stage, x, engine.OpsCounters(), True)
                x, *on = forward_preacts(stage, x, counters, skip=True)
                for zp, qq, q_ret in (on, off, planes):
                    assert np.array_equal(zp, zprime_oracle)
                    assert np.array_equal(qq, q_oracle)
                    assert np.array_equal(q_ret, q_oracle)
                assert np.array_equal(x, bits_off)
                assert np.array_equal(x, bits_planes)
            else:
                x = stage.forward(x, counters)
        # skipping soundness on the full pipeline
        with_skip, c1 = engine.infer(model, images, skip=True)
        without, c2 = engine.infer(model, images, skip=False)
        assert np.array_equal(with_skip, without)
        assert np.array_equal(with_skip, x)  # the traced pipeline above
        assert c1.position_ops <= c2.position_ops
    assert fanin_max <= 512
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 6. threshold fusion
# ---------------------------------------------------------------------------

def _exact_bn_decision(z_float, gamma, beta, mean, var, eps=1e-5):
    inv_std = 1.0 / np.sqrt(var + eps)
    k = Fraction(float(gamma)) * Fraction(float(inv_std))
    val = k * (Fraction(float(z_float)) - Fraction(float(mean))) + Fraction(float(beta))
    return 1 if val >= 0 else 0


def _slice_boundary_by_oracle(q, omega, bn, lo, hi):
    """Smallest z_pm whose exact batchnorm decision is 1 (gain > 0) or the
    largest (gain < 0), by integer bisection on the exact oracle. The
    decision applies exact-rational batchnorm-then-sign to the same float
    the pipeline produces (the canonical remap of (z', q))."""
    gamma, beta, mean, var = bn

    def dec(z_pm):
        z = float(engine.affine_remap((z_pm + q) // 2, q, omega))
        return _exact_bn_decision(z, gamma, beta, mean, var)

    if dec(lo) == dec(hi):
        return None, dec(lo)
    increasing = dec(hi) == 1
    a, b = lo, hi
    while b - a > 1:
        mid = (a + b) // 2
        if (dec(mid) == 1) == increasing:
            b = mid
        else:
            a = mid
    return (b if increasing else a), None


def test_criterion_6_threshold_fusion(announce):
    rng = np.random.default_rng(606)
    fan_in = 1024
    cases = []
    for _ in range(6):
        cases.append(
            (
                float(rng.normal(1.0, 0.7)),
                float(rng.normal(0, 0.5)),
                float(rng.normal(0, 2.0)),
                float(rng.uniform(0.01, 3.0)),
                bq.OmegaParams(
                    tau=float(rng.uniform(0.01, 1.5)), phi=float(rng.normal(0, 0.3))
                ),
            )
        )
    # adversarial: boundary exactly on an integer of the +-1 domain
    cases.append((2.0, -6.0, 0.0, 1.0 - 1e-5, bq.OmegaParams(tau=1.0, phi=0.0)))
    # negative gain
    cases.append((-1.5, 0.25, 0.1, 0.5, bq.OmegaParams(tau=0.2, phi=0.05)))
    # zero gain (constant channel)
    cases.append((0.0, 0.7, 0.0, 1.0, bq.OmegaParams(tau=0.3, phi=0.0)))

    ones_w = int(rng.integers(1, fan_in + 1))
    for gamma, beta, mean, var, omega in cases:
        thr = engine.FusedThreshold.from_batchnorm([gamma], [beta], [mean], [var])
        bn = (gamma, beta, mean, var)
        for ones_x in range(0, fan_in + 1):  # every reachable row sum
            q = 2 * ones_x - fan_in
            zp_lo = max(0, ones_w - (fan_in - ones_x))
            zp_hi = min(ones_w, ones_x)
            z_pm = 2 * np.arange(zp_lo, zp_hi + 1, dtype=np.int64) - q
            if z_pm.size == 0:
                continue
            z = engine.affine_remap((z_pm + q) // 2, q, omega)
            got = thr.decide(z[None, :])[0]
            boundary, const = _slice_boundary_by_oracle(
                q, omega, bn, int(z_pm.min()) - 1, int(z_pm.max()) + 1
            )
            if boundary is None:
                want = np.full(z_pm.size, const, dtype=np.uint8)
            elif gamma >= 0:
                want = (z_pm >= boundary).astype(np.uint8)
            else:
                want = (z_pm <= boundary).astype(np.uint8)
            assert np.array_equal(got, want), (gamma, beta, mean, var, q)


# ---------------------------------------------------------------------------
# 7. accounting reproduction
# ---------------------------------------------------------------------------

def test_criterion_7_accounting(announce):
    assert abs(metrics.ops_total(17e8, 1.41e8) - 1.67e8) <= 0.01e8
    assert abs(metrics.ops_total(48e8, 0.12e8) - 0.87e8) <= 0.01e8
    assert metrics.gain_estimate(0.05) == 40.0
    rng = np.random.default_rng(707)
    for _ in range(500):
        k0, k1, kd = (int(v) for v in rng.integers(0, 300, size=3))
        assert metrics.bparams_bits(k0, k1, kd) == 2 * (k0 + k1 + kd) + 4 * k1 + 9 * kd


# ---------------------------------------------------------------------------
# 8. desk-scale training properties
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_runs():
    ds = dataio.synthetic_classification(
        seed=11, n=1024, classes=2, difficulty=3.0, image_hw=8
    )
    data = (ds.images, ds.labels)

    def one(gamma, epochs):
        cfg = TrainConfig(
            epochs=epochs,
            batch_size=64,
            learning_rate=5e-3,
            gamma=gamma,
            target_sparsity=0.95,
            seed=5,
            omega_mode="analytic",
        )
        spec = nn.conv_net_spec(in_ch=1, classes=2, width=6, image_hw=8, omega_mode="analytic")
        net = nn.Network(spec, np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])))
        report = train(net, data, cfg)
        snap = take_snapshot(net, cfg, ds.image_shape, ds.classes)
        return report, quantize_snapshot(snap, mode="analytic")

    t0 = time.monotonic()
    dense_report, dense_model = one(gamma=0.0, epochs=120)
    sparse_report, sparse_model = one(gamma=0.5, epochs=450)
    took = time.monotonic() - t0
    return dense_report, dense_model, sparse_report, sparse_model, took


def test_criterion_8a_dense_accuracy(desk_runs, announce):
    dense_report = desk_runs[0]
    assert dense_report.records[-1]["accuracy"] >= 0.95


def test_criterion_8b_sparsity_reached(desk_runs, announce):
    sparse_report = desk_runs[2]
    assert sparse_report.records[-1]["ones_fraction"] <= 0.06


def test_criterion_8c_accuracy_drop_bounded(desk_runs, announce):
    dense_report, _, sparse_report, _, _ = desk_runs
    drop = dense_report.records[-1]["accuracy"] - sparse_report.records[-1]["accuracy"]
    assert drop <= 0.10


def test_criterion_8d_zero_kernels_increase(desk_runs, announce):
    _, dense_model, _, sparse_model, took = desk_runs

    def k0_fraction(model):
        k0 = ktot = 0
        for stage in model.binary_stages():
            a, b, c = stage.packed.kernel_counts
            k0 += a
            ktot += a + b + c
        return k0 / ktot

    assert k0_fraction(sparse_model) > k0_fraction(dense_model)
    assert took < 600.0


# ---------------------------------------------------------------------------
# 9. serialization
# ---------------------------------------------------------------------------

def _random_quantized_model(rng):
    """Direct random model builder (no training pipeline) for broad fuzz."""
    stages = []
    in_ch = int(rng.integers(1, 4))
    hw = int(rng.choice([8, 10, 12]))
    classes = int(rng.integers(2, 6))

    def rand_thr(c):
        return engine.FusedThreshold.from_batchnorm(
            rng.normal(1, 0.5, size=c),
            rng.normal(0, 0.5, size=c),
            rng.normal(0, 1, size=c),
            rng.uniform(0.05, 2.0, size=c),
        )

    width = int(rng.integers(2, 7))
    stages.append(
        engine.FloatStage(
            kind="conv3x3", in_ch=in_ch, out_ch=width, stride=1, padding=0,
            weight=rng.normal(size=(width, in_ch, 3, 3)), threshold=rand_thr(width),
        )
    )
    h = hw - 2
    c = width
    nbin = int(rng.integers(1, 3))
    for k in range(nbin):
        out_c = int(rng.integers(2, 7))
        sparse_p = float(rng.uniform(0.02, 0.6))
        bits = (rng.random(size=(out_c, c * 9)) < sparse_p).astype(np.uint8)
        if bool(rng.integers(2)):
            om = bq.OmegaParams(tau=float(rng.uniform(0.01, 2.0)), phi=float(rng.normal(0, 0.5)))
        else:
            om = bq.OmegaParams(tau=0.0, phi=float(rng.normal()))
        stages.append(
            engine.BinStage(
                packed=engine.PackedLayer(
                    kind="conv3x3", in_ch=c, out_ch=out_c, stride=1, padding=0,
                    bits=bits, omega=om,
                ),
                threshold=rand_thr(out_c),
            )
        )
        c, h = out_c, h - 2
        # no pool that would leave a later conv an empty output map: a
        # model file with one does not load
        fits = h // 2 - 2 * (nbin - 1 - k) >= 1
        if h >= 4 and h % 2 == 0 and bool(rng.integers(2)) and fits:
            stages.append(engine.BitPool())
            h //= 2
    stages.append(
        engine.Head(
            weight=rng.normal(size=(classes, c * h * h)), bias=rng.normal(size=classes)
        )
    )
    return engine.QuantizedModel(stages=stages, input_shape=(in_ch, hw, hw), classes=classes)


def test_criterion_9_serialization(announce):
    from test_modelio import model_equal

    rng = np.random.default_rng(909)
    for _ in range(1000):
        model = _random_quantized_model(rng)
        data = modelio.encode(model)
        back = modelio.decode(data)
        assert model_equal(back, model)
        assert modelio.encode(back) == data
        expect_bits = sum(
            metrics.bparams_bits(*s.packed.kernel_counts) for s in model.binary_stages()
        )
        assert modelio.payload_bits(model) == expect_bits
