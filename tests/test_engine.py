from fractions import Fraction

import numpy as np
import pytest

from sbnn import engine
from sbnn.binquant import OmegaParams, ValidationError

from helpers import (
    forward_preacts,
    golden_model,
    int_preacts,
    reference_affine_remap,
    reference_decide,
    reference_decide_channel,
)


class TestKernelClass:
    def test_zero(self):
        tags, counts = engine.classify_kernels(np.zeros(9, dtype=np.uint8))
        assert tags.dtype == np.uint8
        assert tags.tolist() == [engine.KERNEL_ZERO] and counts == (1, 0, 0)

    def test_single_center(self):
        bits = np.zeros(9, dtype=np.uint8)
        bits[4] = 1
        tags, counts = engine.classify_kernels(bits)
        assert tags.tolist() == [engine.KERNEL_SINGLE] and counts == (0, 1, 0)

    def test_dense_pattern(self):
        bits = np.array([1, 0, 1, 0, 0, 0, 0, 0, 1], dtype=np.uint8)
        tags, counts = engine.classify_kernels(bits)
        assert tags.tolist() == [engine.KERNEL_DENSE] and counts == (0, 0, 1)

    def test_classify_counts(self):
        flat = np.concatenate(
            [
                np.zeros(9, dtype=np.uint8),
                np.eye(9, dtype=np.uint8)[3],
                np.ones(9, dtype=np.uint8),
            ]
        )
        tags, (k0, k1, kd) = engine.classify_kernels(flat)
        assert (k0, k1, kd) == (1, 1, 1)
        assert tags.tolist() == [0, 1, 2]

    def test_tags_match_a_per_kernel_loop(self):
        rng = np.random.default_rng(3)
        bits = (rng.random((40, 9 * 11)) < 0.15).astype(np.uint8)
        tags, counts = engine.classify_kernels(bits)
        expect = [min(int(k.sum()), 2) for k in bits.reshape(-1, 9)]
        assert tags.tolist() == expect
        assert counts == tuple(expect.count(t) for t in (0, 1, 2))

    def test_packed_layer_tags(self):
        bits = np.zeros((2, 3, 9), dtype=np.uint8)
        bits[0, 1, 8] = 1
        bits[1, 2, :2] = 1
        layer = engine.PackedLayer(
            kind="conv3x3", in_ch=3, out_ch=2, stride=1, padding=0,
            bits=bits.reshape(2, 27), omega=OmegaParams(tau=1.0, phi=0.0),
        )
        assert layer.kernel_tags.tolist() == [0, 1, 0, 0, 0, 2]
        assert layer.kernel_counts == (4, 1, 1)

    def test_not_divisible(self):
        with pytest.raises(ValidationError):
            engine.classify_kernels(np.zeros(10, dtype=np.uint8))


class TestAffineRemap:
    def test_pm1_recovery(self):
        om = OmegaParams.from_xi_eta(-0.5, 2.0)
        # w01 = [1, 0], x = [+1, +1]: z' = 1, q = 2 -> z = 2*1 - 2 = 0
        assert engine.affine_remap(1, 2, om) == 0.0

    def test_all_zero_weights(self):
        om = OmegaParams(tau=0.4, phi=0.1)
        for q in (-5, 0, 7):
            z = engine.affine_remap(0, q, om)
            assert z == pytest.approx(om.alpha * q, rel=1e-15)

    def test_matches_dense_real_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 65))
            w01 = rng.integers(0, 2, size=n)
            x = rng.choice([-1, 1], size=n)
            om = OmegaParams(
                tau=float(rng.uniform(0.05, 2.0)), phi=float(rng.uniform(-1, 1))
            )
            w_real = (w01 + om.xi) * om.eta
            dense = float(np.dot(w_real, x))
            zprime = int(np.dot(w01, x))
            q = int(x.sum())
            got = engine.affine_remap(zprime, q, om)
            assert got == pytest.approx(dense, rel=1e-12, abs=1e-12)

    def test_requires_canonical(self):
        with pytest.raises(ValidationError):
            engine.affine_remap(1, 1, OmegaParams(tau=-0.5, phi=0.0))


class TestRemapDecideMatchReference:
    """affine_remap and FusedThreshold.decide are byte-identical to the
    plain expressions in tests/helpers.py."""

    def test_remap_random_int64(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            om = OmegaParams(tau=float(rng.uniform(0.01, 3.0)), phi=float(rng.normal(0, 0.5)))
            n = int(rng.integers(1, 600))
            zp = rng.integers(-(2**20), 2**20, size=(int(rng.integers(1, 9)), n), dtype=np.int64)
            row_q = rng.integers(-(2**20), 2**20, size=(1, n))
            for q in (row_q, rng.integers(-99, 99, size=zp.shape)):
                got = engine.affine_remap(zp, q, om)
                assert got.dtype == np.float64
                assert got.tobytes() == reference_affine_remap(zp, q, om).tobytes()

    def test_remap_degenerate_omega(self):
        zp = np.array([[-7, 0, 5]], dtype=np.int64)  # eta * z' gives -0.0 at -7
        for phi in (0.3, 0.0):  # alpha * q is -0.0 at q < 0 when phi is 0
            om = OmegaParams(tau=0.0, phi=phi, degenerate=True)
            for q in (np.array([[0, 3, -3]]), np.zeros((1, 3), dtype=np.int64)):
                got = engine.affine_remap(zp, q, om)
                assert got.tobytes() == reference_affine_remap(zp, q, om).tobytes()

    def test_remap_zero_d_is_scalar(self):
        om = OmegaParams(tau=0.7, phi=-0.2)
        for zp, q in ((3, -5), (np.int64(-4), np.int64(8)), (np.array(2), np.array(-2))):
            got, want = engine.affine_remap(zp, q, om), reference_affine_remap(zp, q, om)
            assert np.ndim(got) == 0 and not isinstance(got, np.ndarray)
            assert type(got) is type(want)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_decide_boundaries(self):
        theta = np.array([1.5, 1.5, 0.0, 0.0, -0.0, -0.0, np.inf, np.inf, -np.inf, -np.inf])
        orientation = np.array([1, -1, 1, -1, 1, -1, 1, -1, 1, -1], dtype=np.int8)
        thr = engine.FusedThreshold(orientation=orientation, theta=theta)
        values = [1.5, np.nextafter(1.5, 2), np.nextafter(1.5, 1), 0.0, -0.0, 5e-324, -5e-324,
                  np.inf, -np.inf, 1e308, -1e308]
        z = np.tile(np.array(values), (theta.size, 1))
        got = thr.decide(z)
        assert got.dtype == np.uint8
        assert got.tobytes() == reference_decide(thr, z).tobytes()
        # each row against its channel's own comparison, z == theta included
        for c in range(theta.size):
            assert got[c].tobytes() == reference_decide_channel(thr, z[c], c).tobytes()

    def test_decide_random_mixed_orientations(self):
        rng = np.random.default_rng(22)
        n = 40
        thr = engine.FusedThreshold.from_batchnorm(
            rng.normal(0, 1, n), rng.normal(0, 0.5, n), rng.normal(0, 1, n), rng.uniform(0.05, 2, n)
        )
        assert set(thr.orientation.tolist()) == {-1, 1}
        z = rng.normal(0, 2, size=(n, 3, 5, 5))
        z[:, 0, 0, :] = thr.theta[:, None]  # exactly on the threshold
        for zz in (z, z.transpose(0, 2, 1, 3)):  # contiguous and strided
            got = thr.decide(zz)
            assert got.tobytes() == reference_decide(thr, zz).tobytes()


class TestFusedThreshold:
    def exact_bn_sign(self, z, gamma, beta, mean, var, eps=1e-5):
        inv_std = 1.0 / np.sqrt(var + eps)
        k = Fraction(gamma) * Fraction(float(inv_std))
        val = k * (Fraction(float(z)) - Fraction(mean)) + Fraction(beta)
        return 1 if val >= 0 else 0

    def test_plain_sign(self):
        thr = engine.FusedThreshold.from_batchnorm([1.0], [0.0], [0.0], [1.0 - 1e-5])
        assert thr.decide(np.array([[0.0]])).tolist() == [[1]]
        assert thr.decide(np.array([[-1e-300]])).tolist() == [[0]]

    def test_negative_gain_flips(self):
        thr = engine.FusedThreshold.from_batchnorm([-2.0], [0.0], [0.5], [1.0])
        assert int(thr.orientation[0]) == -1
        assert thr.decide(np.array([[0.4]])).tolist() == [[1]]
        assert thr.decide(np.array([[0.6]])).tolist() == [[0]]

    def test_zero_gain_constant(self):
        thr = engine.FusedThreshold.from_batchnorm([0.0, 0.0], [0.5, -0.5], [0.0, 0.0], [1.0, 1.0])
        z = np.array([[-10.0, 10.0], [-10.0, 10.0]])
        bits = thr.decide(z)
        assert bits[0].tolist() == [1, 1]
        assert bits[1].tolist() == [0, 0]

    def test_exhaustive_agreement_random_channels(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            gamma = float(rng.normal())
            beta = float(rng.normal())
            mean = float(rng.normal())
            var = float(rng.uniform(0.01, 4.0))
            thr = engine.FusedThreshold.from_batchnorm([gamma], [beta], [mean], [var])
            zs = np.concatenate(
                [rng.normal(mean, 2.0, size=200), [mean, np.floor(mean), np.ceil(mean)]]
            )
            got = thr.decide(zs[None, :])[0]
            want = [self.exact_bn_sign(z, gamma, beta, mean, var) for z in zs]
            assert got.tolist() == want

    def test_boundary_exactly_on_float(self):
        # theta lands exactly on a representable value: tie goes to +1
        thr = engine.FusedThreshold.from_batchnorm([2.0], [-3.0], [0.0], [1.0 - 1e-5])
        # root = mean - beta/(gamma*inv_std) = 1.5 exactly
        assert thr.theta[0] == 1.5
        assert thr.decide(np.array([[1.5]])).tolist() == [[1]]
        assert thr.decide(np.array([[np.nextafter(1.5, -np.inf)]])).tolist() == [[0]]


class TestRoundOutward:
    def test_nearest_float_on_each_side(self):
        rng = np.random.default_rng(8)
        pairs = rng.integers(-(10**12), 10**12, size=(200, 2))
        values = [Fraction(int(a), int(b)) for a, b in pairs if b]
        for t in values + [Fraction(3, 2), Fraction(0), Fraction(1, 10**400)]:
            down, up = engine._round_outward(t, up=False), engine._round_outward(t, up=True)
            assert Fraction(down) <= t <= Fraction(up)
            # the two sides meet on a representable t, else they are neighbours
            assert down == up if Fraction(down) == t else up == np.nextafter(down, np.inf)

    def test_overflow_goes_to_infinity(self):
        for up in (False, True):
            assert engine._round_outward(Fraction(10**400), up) == np.inf
            assert engine._round_outward(Fraction(-(10**400)), up) == -np.inf


def build_random_model(rng, in_hw=6, in_ch=1, classes=3):
    """Small random quantized conv model for fuzz tests."""
    from sbnn import nn as nnmod
    from sbnn.train import quantize_network

    width = int(rng.integers(3, 7))
    spec = nnmod.conv_net_spec(
        in_ch=in_ch, classes=classes, width=width, image_hw=in_hw + 2, omega_mode="analytic"
    )
    net = nnmod.Network(spec, np.random.default_rng(int(rng.integers(2**32))))
    # randomize batchnorm stats so thresholds are non-trivial
    for layer in net.layers:
        if isinstance(layer, nnmod.BatchNorm):
            c = layer.running_mean.size
            layer.running_mean[...] = rng.normal(0, 1.0, size=c)
            layer.running_var[...] = rng.uniform(0.05, 2.0, size=c)
            layer.gamma.value[...] = rng.normal(1.0, 0.5, size=c)
            layer.beta.value[...] = rng.normal(0, 0.5, size=c)
    return quantize_network(net, (in_ch, in_hw + 2, in_hw + 2), classes)


class TestEngineBitExactness:
    def test_integer_stage_matches_dense_oracle(self):
        rng = np.random.default_rng(44)
        model = build_random_model(rng)
        images = rng.normal(size=(5,) + tuple(model.input_shape))
        x = images
        counters = engine.OpsCounters()
        for stage in model.stages:
            if isinstance(stage, engine.BinStage):
                windows, out_hw = stage.window_bits(x)
                zprime_oracle, q_oracle = int_preacts(stage.packed.bits, windows)
                # what forward computed, with skipping on and off
                bits_off, *off = forward_preacts(stage, x, engine.OpsCounters(), skip=False)
                x, *on = forward_preacts(stage, x, counters, skip=True)
                for zp, qq, q_ret in (on, off):
                    assert zp.dtype == np.int64
                    assert np.array_equal(zp, zprime_oracle)
                    assert np.array_equal(qq, q_oracle)
                    assert np.array_equal(q_ret, q_oracle)
                assert np.array_equal(x, bits_off)
            else:
                x = stage.forward(x, counters)

    def test_skipping_never_changes_outputs(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            model = build_random_model(rng)
            images = rng.normal(size=(4,) + tuple(model.input_shape))
            with_skip, c1 = engine.infer(model, images, skip=True)
            without, c2 = engine.infer(model, images, skip=False)
            assert np.array_equal(with_skip, without)
            assert c1.position_ops <= c2.position_ops

    def test_reference_forward_bit_identical(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            model = build_random_model(rng)
            images = rng.normal(size=(6,) + tuple(model.input_shape))
            logits, _ = engine.infer(model, images)
            ref = engine.reference_forward(model, images)
            assert np.array_equal(logits, ref)

    def test_pm1_model_matches_xnor_oracle(self):
        # +-1-domain model: engine logits equal a dense +-1 integer pipeline
        rng = np.random.default_rng(12)
        from sbnn import nn as nnmod
        from sbnn.train import quantize_network

        spec = nnmod.conv_net_spec(in_ch=1, classes=2, width=4, image_hw=8, omega_mode="pm1")
        net = nnmod.Network(spec, np.random.default_rng(0))
        for layer in net.layers:
            if isinstance(layer, nnmod.BatchNorm):
                c = layer.running_mean.size
                layer.running_mean[...] = rng.normal(0, 0.5, size=c)
                layer.running_var[...] = rng.uniform(0.2, 1.5, size=c)
        model = quantize_network(net, (1, 8, 8), 2, mode="pm1")
        images = rng.normal(size=(20, 1, 8, 8))
        logits, _ = engine.infer(model, images)

        # independent oracle: float stem, then integer +-1 convs + exact
        # batchnorm-then-sign via rationals
        x = images
        for stage in model.stages:
            if isinstance(stage, engine.BinStage):
                p = stage.packed
                w_pm = (2 * p.bits.astype(np.int64) - 1).reshape(p.out_ch, p.in_ch, 3, 3)
                b, c, h, w = x.shape
                ho, wo = h - 2, w - 2
                z = np.zeros((b, p.out_ch, ho, wo), dtype=np.int64)
                xs = (2 * x.astype(np.int64) - 1) if x.dtype == np.uint8 else x
                for oy in range(ho):
                    for ox in range(wo):
                        patch = xs[:, :, oy : oy + 3, ox : ox + 3]
                        z[:, :, oy, ox] = np.einsum("bcij,ocij->bo", patch, w_pm)
                bits = np.zeros_like(z, dtype=np.uint8)
                for ch in range(p.out_ch):
                    bits[:, ch] = reference_decide_channel(
                        stage.threshold, z[:, ch].astype(np.float64), ch
                    )
                x = bits
            elif isinstance(stage, engine.FloatStage):
                zf = stage.preact(x)
                bits = np.zeros(zf.shape, dtype=np.uint8)
                for ch in range(stage.out_ch):
                    bits[:, ch] = reference_decide_channel(stage.threshold, zf[:, ch], ch)
                x = bits
            elif isinstance(stage, engine.Head):
                xpm = 2.0 * x.reshape(x.shape[0], -1).astype(np.float64) - 1.0
                x = xpm @ stage.weight.T + stage.bias
        assert np.array_equal(logits, x)

    def test_all_zero_kernel_layer_costs_nothing(self):
        om = OmegaParams(tau=0.5, phi=-0.1)
        bits = np.zeros((4, 2 * 9), dtype=np.uint8)
        packed = engine.PackedLayer(
            kind="conv3x3", in_ch=2, out_ch=4, stride=1, padding=0, bits=bits, omega=om
        )
        thr = engine.FusedThreshold.from_batchnorm(
            np.ones(4), np.zeros(4), np.zeros(4), np.ones(4)
        )
        stage = engine.BinStage(packed=packed, threshold=thr)
        counters = engine.OpsCounters()
        x = np.random.default_rng(0).integers(0, 2, size=(3, 2, 5, 5)).astype(np.uint8)
        out, zprime, q, _ = forward_preacts(stage, x, counters, skip=True)
        assert zprime.shape == (4, 3 * 3 * 3) and np.all(zprime == 0)
        assert counters.word_popcounts == 0
        assert counters.position_ops == 0
        # output decided purely by the alpha * q path
        z = engine.affine_remap(np.zeros_like(q), q, om)
        assert np.array_equal(out[:, 0].ravel(), thr.decide(z[None, :])[0])

    def test_counter_law_dense_pm1(self):
        # fully dense +-1 conv layer: counted position ops = 2 N per window
        om = OmegaParams(tau=1.0, phi=0.0)
        rng = np.random.default_rng(5)
        bits = np.ones((3, 2 * 9), dtype=np.uint8)
        packed = engine.PackedLayer(
            kind="conv3x3", in_ch=2, out_ch=3, stride=1, padding=0, bits=bits, omega=om
        )
        thr = engine.FusedThreshold.from_batchnorm(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3))
        stage = engine.BinStage(packed=packed, threshold=thr)
        counters = engine.OpsCounters()
        x = rng.integers(0, 2, size=(2, 2, 6, 6)).astype(np.uint8)
        stage.forward(x, counters, skip=True)
        nwin = 2 * 4 * 4
        assert counters.position_ops == 2 * bits.size * nwin

    def test_input_shape_validation(self):
        rng = np.random.default_rng(3)
        model = build_random_model(rng)
        with pytest.raises(ValidationError):
            engine.infer(model, rng.normal(size=(2, 3, 4, 4)))

    @pytest.mark.parametrize("shape", [(2, 2, 8, 8), (2, 1, 6, 6)])
    def test_both_paths_reject_a_wrong_input_shape(self, shape):
        # the golden model takes (1, 8, 8) images: one batch has a channel too
        # many, the other a smaller map that would reach the binary linear stage
        model = golden_model()
        images = np.random.default_rng(4).normal(size=shape)
        for run in (engine.infer, engine.reference_forward):
            with pytest.raises(ValidationError, match="input shape"):
                run(model, images)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_images_rejected(self, bad):
        rng = np.random.default_rng(25)
        model = build_random_model(rng)
        images = rng.normal(size=(2,) + tuple(model.input_shape))
        images[1, 0, 2, 3] = bad
        with pytest.raises(ValidationError, match="NaN or infinite"):
            engine.infer(model, images)
        with pytest.raises(ValidationError, match="NaN or infinite"):
            engine.reference_forward(model, images)
