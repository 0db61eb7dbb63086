import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from sbnn import engine, nn
from sbnn.binquant import OmegaParams, ValidationError

from helpers import (
    channel_decide,
    forward_preacts,
    fraction_fold,
    golden_model,
    int_preacts,
    planes_wherever_allowed,
    reference_affine_remap,
    reference_decide,
    reference_decide_channel,
    summed_classify_kernels,
    tied_threshold,
    training_float_preact,
    window_rows_stem_preact,
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

    @pytest.mark.parametrize(
        "omega",
        [
            OmegaParams(tau=np.inf, phi=0.0),
            OmegaParams(tau=1e307, phi=0.0),  # eta finite, eta * fan_in not
            OmegaParams(tau=0.5, phi=np.nan),
            OmegaParams(tau=0.0, phi=-1e307),
        ],
    )
    def test_packed_layer_rejects_a_remap_that_overflows(self, omega):
        with pytest.raises(ValidationError, match="finite"):
            engine.PackedLayer(
                kind="conv3x3", in_ch=3, out_ch=2, stride=1, padding=0,
                bits=np.ones((2, 27), dtype=np.uint8), omega=omega,
            )

    def test_not_divisible(self):
        with pytest.raises(ValidationError):
            engine.classify_kernels(np.zeros(10, dtype=np.uint8))

    def test_every_nine_bit_kernel_matches_the_row_sums(self):
        every = np.unpackbits(np.arange(512, dtype=">u2").view(np.uint8)).reshape(512, 16)[:, 7:]
        tags, counts = engine.classify_kernels(every)
        expect_tags, expect_counts = summed_classify_kernels(every)
        assert tags.dtype == np.uint8 and np.array_equal(tags, expect_tags)
        assert counts == expect_counts == (1, 9, 502)

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 1.0])
    def test_random_layers_match_the_row_sums(self, p):
        bits = (np.random.default_rng(7).random((64, 64 * 9)) < p).astype(np.uint8)
        tags, counts = engine.classify_kernels(bits)
        expect_tags, expect_counts = summed_classify_kernels(bits)
        assert np.array_equal(tags, expect_tags) and counts == expect_counts

    def test_bool_bits_count_as_ones(self):
        bits = np.ones(18, dtype=bool)
        assert engine.classify_kernels(bits)[1] == (0, 0, 2)


class TestPackedLayerBits:
    """A PackedLayer holds uint8 {0, 1} bits shaped as its geometry says:
    (out_ch, in_ch * 9) for a conv, (out_ch, in_ch) for a linear stage."""

    def _layer(self, kind, in_ch, bits):
        return engine.PackedLayer(
            kind=kind, in_ch=in_ch, out_ch=3, stride=1, padding=0, bits=bits,
            omega=OmegaParams(tau=1.0, phi=0.0),
        )

    def test_conv_bits_of_another_fan_in(self):
        # (3, 9) bits for in_ch = 2 once walked and encoded, then failed to load
        with pytest.raises(ValidationError, match=r"of shape \(3, 18\)"):
            self._layer("conv3x3", 2, np.ones((3, 9), dtype=np.uint8))

    def test_linear_bits_of_another_width(self):
        # 5 columns for in_ch = 4 once wrote a file that read "unknown stage tag"
        with pytest.raises(ValidationError, match=r"of shape \(3, 4\)"):
            self._layer("linear", 4, np.ones((3, 5), dtype=np.uint8))

    @pytest.mark.parametrize("kind, in_ch", [("conv3x3", 1), ("linear", 9)])
    def test_values_above_one(self, kind, in_ch):
        # a 2 once saved as a 1: a different model
        bits = np.zeros((3, 9), dtype=np.uint8)
        bits[1, 4] = 2
        with pytest.raises(ValidationError, match=r"in \{0, 1\}"):
            self._layer(kind, in_ch, bits)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.float64])
    def test_other_dtypes(self, dtype):
        with pytest.raises(ValidationError, match="must be uint8"):
            self._layer("conv3x3", 1, np.ones((3, 9), dtype=dtype))

    def test_a_list_of_bits(self):
        with pytest.raises(ValidationError, match="must be uint8"):
            self._layer("linear", 2, [[0, 1], [1, 0], [1, 1]])

    def test_bits_that_fit_are_kept(self):
        bits = np.eye(3, 9, dtype=np.uint8)
        assert self._layer("conv3x3", 1, bits).bits is bits
        assert self._layer("linear", 9, bits).bits is bits


class TestFloatStageAndHeadShapes:
    """A FloatStage's weight is (out_ch, in_ch, 3, 3) for a conv and
    (out_ch, in_ch) for a linear stage; a Head's weight is 2-D with one bias
    per row. Any other shape is rejected as the stage is built."""

    def _stage(self, kind, weight):
        return engine.FloatStage(
            kind=kind, in_ch=4, out_ch=8, stride=1, padding=1, weight=weight, threshold=None,
        )

    def test_linear_weight_of_another_width(self):
        # an (8, 5) weight for in_ch = 4 once wrote a file that read
        # "threshold orientation other than +-1", and infer failed in matmul
        with pytest.raises(ValidationError, match=r"not \(8, 4\)"):
            self._stage("linear", np.zeros((8, 5)))

    def test_conv_weight_of_another_window(self):
        with pytest.raises(ValidationError, match=r"not \(8, 4, 3, 3\)"):
            self._stage("conv3x3", np.zeros((8, 4, 3, 2)))

    def test_conv_weight_flattened(self):
        with pytest.raises(ValidationError, match=r"not \(8, 4, 3, 3\)"):
            self._stage("conv3x3", np.zeros((8, 36)))

    def test_head_weight_not_2d(self):
        with pytest.raises(ValidationError, match=r"weight \(2, 3, 1\) and bias \(2,\)"):
            engine.Head(weight=np.zeros((2, 3, 1)), bias=np.zeros(2))

    def test_head_bias_per_row(self):
        # 3 biases for 2 rows once left "8 unread bytes after last stage"
        with pytest.raises(ValidationError, match=r"weight \(2, 7\) and bias \(3,\)"):
            engine.Head(weight=np.zeros((2, 7)), bias=np.zeros(3))


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
            om = OmegaParams(tau=0.0, phi=phi)
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


# signed zeros, subnormals, the normal range's ends and plain values
FOLD_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-308, 1e-300,
    0.5, -1.0, 3.0, 1e300, -1e308, 1.7976931348623157e308,
]


class TestIntegerFold:
    """from_batchnorm's integer arithmetic against the Fraction fold."""

    def check(self, gamma, beta, mean, var):
        thr = engine.FusedThreshold.from_batchnorm(gamma, beta, mean, var)
        orientation, theta = fraction_fold(gamma, beta, mean, var)
        assert np.array_equal(thr.orientation, orientation)
        assert np.array_equal(thr.theta, theta)
        assert np.array_equal(np.signbit(thr.theta), np.signbit(theta))

    def test_random_channels(self):
        rng = np.random.default_rng(31)
        n = 3000
        self.check(
            rng.normal(0, 1, n), rng.normal(0, 1, n), rng.normal(0, 1, n), rng.uniform(0, 3, n)
        )

    def test_edge_grid(self):
        variances = [v for v in FOLD_EDGES if v >= 0]
        grid = itertools.product(FOLD_EDGES, FOLD_EDGES, FOLD_EDGES, variances)
        self.check(*np.array(list(grid)).T)


class TestRoundOutward:
    def test_nearest_float_on_each_side(self):
        rng = np.random.default_rng(8)
        pairs = rng.integers(-(10**12), 10**12, size=(200, 2))
        values = [Fraction(int(a), int(b)) for a, b in pairs if b]
        for t in values + [Fraction(3, 2), Fraction(0), Fraction(1, 10**400)]:
            n, d = t.numerator, t.denominator
            down, up = engine._round_outward(n, d, up=False), engine._round_outward(n, d, up=True)
            assert Fraction(down) <= t <= Fraction(up)
            # the two sides meet on a representable t, else they are neighbours
            assert down == up if Fraction(down) == t else up == np.nextafter(down, np.inf)

    def test_overflow_goes_to_infinity(self):
        for up in (False, True):
            for t, want in ((Fraction(10**400), np.inf), (Fraction(-(10**400)), -np.inf)):
                assert engine._round_outward(t.numerator, t.denominator, up) == want


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
                # what forward computed, with skipping on and off, and with
                # every stride-1 conv counting by planes
                bits_off, *off = forward_preacts(stage, x, engine.OpsCounters(), skip=False)
                with planes_wherever_allowed():
                    bits_planes, *planes = forward_preacts(stage, x, engine.OpsCounters(), True)
                x, *on = forward_preacts(stage, x, counters, skip=True)
                for zp, qq, q_ret in (on, off, planes):
                    assert zp.dtype == np.int64
                    assert np.array_equal(zp, zprime_oracle)
                    assert np.array_equal(qq, q_oracle)
                    assert np.array_equal(q_ret, q_oracle)
                assert np.array_equal(x, bits_off)
                assert np.array_equal(x, bits_planes)
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
                zf = training_float_preact(stage, x)
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
        # skip on counts by planes: no word pair; skip off runs
        # 4 rows x 27 windows x K = 2 words (9 taps of one byte each)
        assert counters.per_layer[0]["path"] == "planes"
        assert counters.word_popcounts == 0
        assert counters.position_ops == 0
        off = engine.OpsCounters()
        out_off, zprime_off, q_off, _ = forward_preacts(stage, x, off, skip=False)
        assert off.word_popcounts == 4 * 27 * 2
        assert np.array_equal(out_off, out) and np.array_equal(zprime_off, zprime)
        assert np.array_equal(q_off, q)
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

    def test_both_paths_reject_an_empty_batch(self):
        model = golden_model()
        for run in (engine.infer, engine.reference_forward):
            with pytest.raises(ValidationError, match="no images"):
                run(model, np.zeros((0, 1, 8, 8)))

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


class TestPerLayerEntries:
    @pytest.mark.parametrize("skip", [True, False])
    @pytest.mark.parametrize("batch", [1, 256])
    def test_names_follow_walk_stages_and_paths_the_rule(self, batch, skip):
        """infer's per-layer entries carry walk_stages' names, one per stage,
        and each holds the stage's wall time: non-negative, and all of them
        together no more than the call's own (the pool's entry holds nothing
        else). Each binary stage's path is BinStage.path's for its input. The
        golden conv counts by planes at 256 images with skipping on, and by
        popcount otherwise."""
        model = golden_model()
        images = np.random.default_rng(64).normal(size=(batch, 1, 8, 8))
        start = time.perf_counter()
        _, counters = engine.infer(model, images, skip=skip)
        wall = time.perf_counter() - start
        walked = engine.walk_stages(model.stages, model.input_shape)
        assert [e["layer"] for e in counters.per_layer] == [name for name, _ in walked]
        seconds = [e["seconds"] for e in counters.per_layer]
        assert all(isinstance(t, float) and t >= 0.0 for t in seconds)
        assert sum(seconds) <= wall
        assert [e for e in counters.per_layer if e["layer"].endswith("_pool")] == [
            {"layer": "s2_pool", "seconds": counters.per_layer[2]["seconds"]}
        ]
        shapes = [tuple(model.input_shape)] + [shape for _, shape in walked]
        paths = [
            stage.path((batch,) + shapes[i], skip)
            for i, stage in enumerate(model.stages) if isinstance(stage, engine.BinStage)
        ]
        assert [e["path"] for e in counters.per_layer if "path" in e] == paths
        assert paths == (["planes", "popcount"] if batch == 256 and skip else ["popcount"] * 2)


class TestPoolAndFloatStageOnBits:
    """The bit pool and a full-precision stage fed by the stage before it,
    which no quick-start model has, against the training layers' math."""

    def test_bit_pool_is_the_training_max_pool_on_signs(self):
        bits = np.random.default_rng(61).integers(0, 2, size=(3, 4, 6, 8)).astype(np.uint8)
        got = engine.BitPool().forward(bits, engine.OpsCounters())
        want = nn.MaxPool2x2(nn.LayerSpec("pool")).forward(2.0 * bits - 1.0)
        assert got.dtype == np.uint8
        assert np.array_equal(2.0 * got - 1.0, want)

    def test_bit_pool_rejects_an_odd_map(self):
        with pytest.raises(ValidationError, match="even"):
            engine.BitPool().forward(np.zeros((1, 1, 3, 4), dtype=np.uint8), engine.OpsCounters())

    @pytest.mark.parametrize("stride, padding", [(1, 0), (1, 1), (2, 2)])
    def test_float_conv_on_bits_pads_as_training_does(self, stride, padding):
        """A full-precision conv on bits pads its +-1 input with 0.0, as
        nn.Conv3x3 pads a full-precision layer, not with -1 (bit 0)."""
        rng = np.random.default_rng(62)
        bits = rng.integers(0, 2, size=(3, 2, 7, 6)).astype(np.uint8)
        weight = rng.normal(size=(4, 2, 3, 3))
        stage = engine.FloatStage(
            kind="conv3x3", in_ch=2, out_ch=4, stride=stride, padding=padding,
            weight=weight, threshold=None, takes_bits=True,
        )
        want = training_float_preact(stage, bits)
        stage.threshold = threshold = tied_threshold(want, rng)
        counters = engine.OpsCounters()
        out = stage.forward(bits, counters)
        assert out.dtype == np.uint8
        assert np.array_equal(out, channel_decide(threshold, want))
        # 2 per MAC of every output position of the batch, 1 per threshold compare
        assert counters.flops == 2 * weight.size * (want.size // 4) + want.size

    def test_padded_float_conv_after_sign_matches_the_network(self):
        """Stem, sign, a padding-1 full-precision conv, then the classifier:
        the quantized model's logits equal the eval-mode network's."""
        from sbnn.train import quantize_network

        spec = (
            nn.LayerSpec("conv3x3", in_ch=1, out_ch=3),
            nn.LayerSpec("batchnorm", out_ch=3),
            nn.LayerSpec("signact"),
            nn.LayerSpec("conv3x3", in_ch=3, out_ch=4, padding=1),
            nn.LayerSpec("batchnorm", out_ch=4),
            nn.LayerSpec("signact"),
            nn.LayerSpec("flatten"),
            nn.LayerSpec("classifier", in_ch=4 * 6 * 6, out_ch=3, bias=True),
        )
        rng = np.random.default_rng(63)
        net = nn.Network(spec, rng)
        for layer in net.layers:
            if isinstance(layer, nn.BatchNorm):
                c = layer.running_mean.size
                layer.running_mean[...] = rng.normal(0, 0.5, size=c)
                layer.running_var[...] = rng.uniform(0.2, 1.5, size=c)
        model = quantize_network(net, (1, 8, 8), 3)
        assert [type(s) for s in model.stages] == [engine.FloatStage] * 2 + [engine.Head]
        assert model.stages[1].takes_bits and model.stages[1].padding == 1
        images = rng.normal(size=(32, 1, 8, 8))
        logits, _ = engine.infer(model, images)
        assert np.array_equal(logits, net.forward(images, train=False))


def _float_stage(kind, in_ch, out_ch, rng, z_of, x, stride=1, padding=0, takes_bits=False):
    """A FloatStage with normal weights and a tied_threshold on the
    pre-activations z_of(stage, x), plus those pre-activations."""
    shape = (out_ch, in_ch, 3, 3) if kind == "conv3x3" else (out_ch, in_ch)
    stage = engine.FloatStage(
        kind=kind, in_ch=in_ch, out_ch=out_ch, stride=stride, padding=padding,
        weight=rng.normal(size=shape), threshold=None, takes_bits=takes_bits,
    )
    z = z_of(stage, x)
    stage.threshold = tied_threshold(z, rng)
    return stage, z


class TestFloatStageIsTheTrainingProduct:
    """A float stage's bits are FusedThreshold.decide on the training
    layer's output, bit for bit: its product is the training product with
    the orientation folded into the weights. The thresholds sit on values of
    the product, so a last-bit difference would flip a bit."""

    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("batch", [1, 256])
    @pytest.mark.parametrize("out_ch", [1, 2, 6, 16, 64])
    @pytest.mark.parametrize("in_ch", [1, 3])
    def test_stem_conv(self, in_ch, out_ch, batch, stride, padding):
        rng = np.random.default_rng([in_ch, out_ch, batch, stride, padding])
        x = rng.normal(size=(batch, in_ch, 7, 6))
        stage, z = _float_stage(
            "conv3x3", in_ch, out_ch, rng, training_float_preact, x, stride, padding
        )
        counters = engine.OpsCounters()
        bits = stage.forward(x, counters)
        assert bits.dtype == np.uint8 and bits.shape == z.shape
        assert np.array_equal(bits, channel_decide(stage.threshold, z))
        assert counters.flops == 2 * stage.weight.size * (z.size // out_ch) + z.size

    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("out_ch", [2, 16])
    @pytest.mark.parametrize("in_ch", [1, 3])
    def test_conv_on_bits(self, in_ch, out_ch, stride, padding):
        rng = np.random.default_rng([in_ch, out_ch, stride, padding, 1])
        x = rng.integers(0, 2, size=(5, in_ch, 6, 7)).astype(np.uint8)
        stage, z = _float_stage(
            "conv3x3", in_ch, out_ch, rng, training_float_preact, x, stride, padding, True
        )
        bits = stage.forward(x, engine.OpsCounters())
        assert np.array_equal(bits, channel_decide(stage.threshold, z))

    @pytest.mark.parametrize("takes_bits", [False, True])
    @pytest.mark.parametrize("batch", [1, 256])
    @pytest.mark.parametrize("out_ch", [1, 6, 64])
    @pytest.mark.parametrize("in_ch", [1, 3, 40])
    def test_linear(self, in_ch, out_ch, batch, takes_bits):
        rng = np.random.default_rng([in_ch, out_ch, batch, takes_bits])
        x = rng.normal(size=(batch, in_ch))
        if takes_bits:
            x = (x >= 0).astype(np.uint8)
        stage, z = _float_stage(
            "linear", in_ch, out_ch, rng, training_float_preact, x, takes_bits=takes_bits
        )
        counters = engine.OpsCounters()
        bits = stage.forward(x, counters)
        assert bits.dtype == np.uint8 and bits.shape == (batch, out_ch)
        assert np.array_equal(bits, channel_decide(stage.threshold, z))
        assert counters.flops == 2 * stage.weight.size * batch + z.size

    @pytest.mark.parametrize(
        "batch, out_ch, hw", [(1024, 6, 8), (256, 16, 16), (256, 64, 8)],
        ids=["desk-train", "sparse16", "dense-wide"],
    )
    def test_workload_stems_match_the_window_rows_product(self, batch, out_ch, hw):
        """The benchmark workloads' stems give the bits the engine gave when
        it built its windows with nn._window_rows."""
        rng = np.random.default_rng([batch, out_ch, hw])
        x = rng.normal(size=(batch, 1, hw, hw))
        stage, z = _float_stage("conv3x3", 1, out_ch, rng, window_rows_stem_preact, x)
        bits = stage.forward(x, engine.OpsCounters())
        assert np.array_equal(bits, channel_decide(stage.threshold, z))

    def test_infer_runs_no_decide_or_window_rows_in_float_stages(self, monkeypatch):
        """engine.infer's float stages call neither FusedThreshold.decide nor
        nn._window_rows; the dense reference's binary windows still come
        from nn._window_rows."""
        rng = np.random.default_rng(72)

        def threshold(n):
            return engine.FusedThreshold.from_batchnorm(
                rng.normal(1.0, 0.5, n), rng.normal(0, 0.5, n),
                rng.normal(0, 1.0, n), rng.uniform(0.05, 2.0, n),
            )

        stages = [
            engine.FloatStage(
                kind="conv3x3", in_ch=1, out_ch=3, stride=1, padding=1,
                weight=rng.normal(size=(3, 1, 3, 3)), threshold=threshold(3),
            ),
            engine.FloatStage(
                kind="conv3x3", in_ch=3, out_ch=4, stride=2, padding=1,
                weight=rng.normal(size=(4, 3, 3, 3)), threshold=threshold(4), takes_bits=True,
            ),
            engine.FloatStage(
                kind="linear", in_ch=64, out_ch=5, stride=1, padding=0,
                weight=rng.normal(size=(5, 64)), threshold=threshold(5), takes_bits=True,
            ),
            engine.Head(weight=rng.normal(size=(2, 5)), bias=rng.normal(size=2)),
        ]
        model = engine.QuantizedModel(stages=stages, input_shape=(1, 8, 8), classes=2)
        images = rng.normal(size=(6, 1, 8, 8))
        calls = []

        def spy(name, real):
            return lambda *a, **k: calls.append(name) or real(*a, **k)

        monkeypatch.setattr(
            engine.FusedThreshold, "decide", spy("decide", engine.FusedThreshold.decide)
        )
        monkeypatch.setattr(engine, "_window_rows", spy("_window_rows", engine._window_rows))
        engine.infer(model, images)
        assert calls == []

        golden, bits = golden_model(), rng.integers(0, 2, size=(2, 3, 8, 8)).astype(np.uint8)
        golden.stages[1].window_bits(bits)
        assert calls == ["_window_rows"]


def _check_table(stage):
    """Every (row, c, x) of the stage's threshold table: [c >= T[r, x]] XOR
    flip[r] is the canonical float decision of z' = 2c - w1 and q = 2x - F,
    for every count c in [0, w1] and window ones x in [0, F]."""
    stage._prepare()
    p, thr = stage.packed, stage.threshold
    table, flip = stage._table, stage._flip
    w1 = p.bits.sum(axis=1, dtype=np.int64)
    assert table.shape == (p.out_ch, p.fan_in + 1)
    assert table.dtype == np.min_scalar_type(int(w1.max()) + 1)
    assert flip.ravel().tolist() == (thr.orientation < 0).tolist()
    q = 2 * np.arange(p.fan_in + 1) - p.fan_in
    for r in range(p.out_ch):
        c = np.arange(w1[r] + 1)[:, None]
        zprime = np.broadcast_to(2 * c - w1[r], (c.size, q.size))
        want = reference_decide_channel(thr, engine.affine_remap(zprime, q[None], p.omega), r)
        assert np.array_equal((c >= table[r]) ^ flip[r], want), f"row {r}"
        assert int(table[r].max()) <= w1[r] + 1


def _linear_stage(ones, omega, theta, orientation, fan_in=300, seed=0):
    """A binary linear stage whose row r has ones[r] weight ones."""
    rng = np.random.default_rng(seed)
    bits = np.zeros((len(ones), fan_in), dtype=np.uint8)
    for r, n in enumerate(ones):
        bits[r, rng.choice(fan_in, size=n, replace=False)] = 1
    packed = engine.PackedLayer(
        kind="linear", in_ch=fan_in, out_ch=len(ones), stride=1, padding=0, bits=bits, omega=omega
    )
    thr = engine.FusedThreshold(
        orientation=np.asarray(orientation, dtype=np.int8), theta=np.asarray(theta, dtype=float)
    )
    return engine.BinStage(packed=packed, threshold=thr)


def _reachable_z(ones, omega, fan_in, rng):
    """One canonical z per row, at a random count and window ones the row
    can reach: a threshold equal to it is a tie."""
    ones = np.asarray(ones)
    c = np.array([rng.integers(0, n + 1) for n in ones])
    # x ones of which c meet the row's ones: x in [c, c + fan_in - ones]
    x = c + np.array([rng.integers(0, fan_in - n + 1) for n in ones])
    return engine.affine_remap(2 * c - ones, 2 * x - fan_in, omega), c, x


class TestThresholdTable:
    """The binary stage decides from its popcounts through a table built by
    evaluating the canonical float expression; the table must reproduce
    that expression at every count and window-ones value."""

    def test_seeded_stages_exhaustive(self):
        rng = np.random.default_rng(70)
        stages = golden_model().binary_stages()
        for _ in range(4):
            stages += build_random_model(rng).binary_stages()
        # a conv whose thresholds mix both orientations
        packed = engine.PackedLayer(
            kind="conv3x3", in_ch=5, out_ch=16, stride=1, padding=1,
            bits=(rng.random((16, 45)) < 0.3).astype(np.uint8),
            omega=OmegaParams(tau=0.37, phi=0.11),
        )
        thr = engine.FusedThreshold.from_batchnorm(
            rng.normal(0, 1, 16), rng.normal(0, 1, 16), rng.normal(0, 3, 16), rng.uniform(0.1, 2, 16)
        )
        assert set(thr.orientation.tolist()) == {-1, 1}
        stages.append(engine.BinStage(packed=packed, threshold=thr))
        for stage in stages:
            _check_table(stage)

    @pytest.mark.parametrize("most", [254, 255, 256])
    def test_adversarial_rows(self, most):
        """Rows at the accumulator's dtype boundary, infinite and NaN
        thresholds, both orientations and thresholds tied with a reachable z;
        the stage's bits against the float decision of the int64 oracle."""
        rng = np.random.default_rng(most)
        omega = OmegaParams(tau=0.3, phi=0.05)
        ones = [most, most - 1, 0, 1, 300 - most, 7, most, most, most, most, 150, 150]
        tie, c, x = _reachable_z(ones, omega, 300, rng)
        theta = tie.copy()
        theta[6:10] = [np.inf, np.inf, -np.inf, np.nan]
        orientation = [1, -1] * 6
        stage = _linear_stage(ones, omega, theta, orientation, seed=most)
        _check_table(stage)
        assert stage._table.dtype == (np.uint8 if most < 255 else np.uint16)
        # ties give +1 whatever the orientation
        for r in (0, 1, 2, 3, 4, 5, 10, 11):
            assert (c[r] >= stage._table[r, x[r]]) ^ stage._flip[r, 0] == 1
        # windows from all ones to all zeros, so counts reach every row's w1
        windows = (rng.random((64, 300)) < np.linspace(0, 1, 64)[:, None]).astype(np.uint8)
        windows[-1], windows[0] = 1, 0
        zprime, q = int_preacts(stage.packed.bits, windows)
        want = stage.threshold.decide(engine.affine_remap(zprime, q[None], omega))
        got, q_out = stage.forward(windows, engine.OpsCounters())
        assert np.array_equal(got.T, want) and np.array_equal(q_out, q)

    @pytest.mark.parametrize("phi", [0.0, 0.3, -0.2])
    def test_degenerate_domain(self, phi):
        """eta = 0: the bit is alpha * q against theta, the same at every count;
        alpha * q is -0.0 or 0.0 when phi is 0, tied with theta = 0."""
        omega = OmegaParams(tau=0.0, phi=phi)
        ones = [3, 0, 40, 12, 12, 12]
        theta = [0.0, -0.0, 0.0, 0.6, -0.6, np.inf]
        stage = _linear_stage(ones, omega, theta, [1, -1, -1, 1, -1, 1], fan_in=40)
        _check_table(stage)

    def test_bisection_repairs_a_wrong_guess(self, monkeypatch):
        """eta so small that eta * z' vanishes next to alpha * q: the real
        root guesses a count near w1 / 2, yet every count ties with theta =
        alpha * q, so the table comes from evaluations beyond the guess."""
        omega = OmegaParams(tau=1e-300, phi=0.5)
        ones = [60, 61, 33, 100]
        q = np.array([4, -8, 0, 20])
        theta = engine.affine_remap(np.zeros(4), q, omega)
        stage = _linear_stage(ones, omega, theta, [1, -1, 1, -1], fan_in=100)
        calls = []
        real = engine.affine_remap
        monkeypatch.setattr(
            engine, "affine_remap", lambda *a: calls.append(np.size(a[0])) or real(*a)
        )
        stage._prepare()
        monkeypatch.undo()
        assert len(calls) > 2 and calls[:2] == [4 * 101] * 2
        _check_table(stage)

    def test_forward_runs_no_float_decision(self, monkeypatch):
        model = golden_model()
        images = np.random.default_rng(71).normal(size=(6, 1, 8, 8))
        x, outs = images, []
        for stage in model.stages[:4]:
            if isinstance(stage, engine.BinStage):
                stage._prepare()
            x = stage.forward(x, engine.OpsCounters())
            x = x[0] if isinstance(x, tuple) else x
            outs.append(x)

        def float_decision(*args, **kwargs):
            raise AssertionError("a binary stage ran the float remap or threshold")

        monkeypatch.setattr(engine, "affine_remap", float_decision)
        monkeypatch.setattr(engine.FusedThreshold, "decide", float_decision)
        for i in (1, 3):
            bits, _ = model.stages[i].forward(outs[i - 1], engine.OpsCounters())
            assert np.array_equal(bits, outs[i])
