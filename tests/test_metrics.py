import numpy as np
import pytest

from sbnn import dataio, engine, metrics, nn
from sbnn.binquant import OmegaParams, ValidationError
from sbnn.train import TrainConfig, quantize_network


class TestBopsBaseline:
    def test_simple(self):
        assert metrics.bops_baseline(100) == 200

    def test_linear_once(self):
        assert metrics.bops_baseline(128 * 64) == 16384

    def test_positions(self):
        assert metrics.bops_baseline(10, positions=7) == 140


class TestGainEstimate:
    def test_five_percent(self):
        assert metrics.gain_estimate(0.05) == 40.0

    def test_full(self):
        assert metrics.gain_estimate(1.0) == 2.0

    def test_half(self):
        assert metrics.gain_estimate(0.5) == 4.0

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            metrics.gain_estimate(0.0)


class TestOpsTotal:
    def test_quoted_row_one(self):
        # BOPs 17e8, FLOPs 1.41e8 -> 1.67e8 at two printed decimals
        got = metrics.ops_total(17e8, 1.41e8)
        assert abs(got - 1.67e8) <= 0.01e8

    def test_quoted_row_two(self):
        got = metrics.ops_total(48e8, 0.12e8)
        assert abs(got - 0.87e8) <= 0.01e8

    def test_no_bops(self):
        assert metrics.ops_total(0, 123.0) == 123.0


class TestBparamsBits:
    def test_spec_mix(self):
        assert metrics.bparams_bits(70, 20, 10) == 370

    def test_all_zero(self):
        assert metrics.bparams_bits(50, 0, 0) == 100  # 2 bits/kernel

    def test_all_dense(self):
        assert metrics.bparams_bits(0, 0, 10) == 110  # 11 bits/kernel

    def test_monotone_in_class_upgrades(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k0, k1, kd = (int(x) for x in rng.integers(0, 50, size=3))
            base = metrics.bparams_bits(k0 + 1, k1, kd)
            up1 = metrics.bparams_bits(k0, k1 + 1, kd)
            up2 = metrics.bparams_bits(k0, k1, kd + 1)
            assert base <= up1 <= up2

    def test_matches_hand_formula_on_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k0, k1, kd = (int(x) for x in rng.integers(0, 200, size=3))
            assert metrics.bparams_bits(k0, k1, kd) == 2 * (k0 + k1 + kd) + 4 * k1 + 9 * kd


class TestPruningRatio:
    def test_all_dense_no_pruning(self):
        assert metrics.bops_pruning_ratio(200, 200) == 0.0

    def test_all_zero_full_pruning(self):
        assert metrics.bops_pruning_ratio(0, 200) == 1.0

    def test_half(self):
        assert metrics.bops_pruning_ratio(100, 200) == 0.5


def model_with_bits(bit_rows, in_ch=2, out_ch=4):
    om = OmegaParams(tau=0.5, phi=0.0)
    packed = engine.PackedLayer(
        kind="conv3x3", in_ch=in_ch, out_ch=out_ch, stride=1, padding=0,
        bits=bit_rows, omega=om,
    )
    thr = engine.FusedThreshold.from_batchnorm(
        np.ones(out_ch), np.zeros(out_ch), np.zeros(out_ch), np.ones(out_ch)
    )
    return engine.QuantizedModel(
        stages=[engine.BinStage(packed=packed, threshold=thr)],
        input_shape=(in_ch, 6, 6),
        classes=2,
    )


class TestHammingHistogram:
    def test_all_zero_kernels(self):
        model = model_with_bits(np.zeros((4, 18), dtype=np.uint8))
        (_, frac), = metrics.hamming_histogram(model)
        assert frac[0] == 1.0 and frac[1:].sum() == 0.0

    def test_single_one_per_kernel(self):
        bits = np.zeros((4, 2, 9), dtype=np.uint8)
        bits[:, :, 3] = 1
        model = model_with_bits(bits.reshape(4, 18))
        (_, frac), = metrics.hamming_histogram(model)
        assert frac[1] == 1.0

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(4, 18)).astype(np.uint8)
        model = model_with_bits(bits)
        (_, frac), = metrics.hamming_histogram(model)
        assert frac.sum() == pytest.approx(1.0, abs=1e-12)

    def test_binomial_concentration(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(64, 16 * 9)).astype(np.uint8)
        model = model_with_bits(bits, in_ch=16, out_ch=64)
        (_, frac), = metrics.hamming_histogram(model)
        # binomial(9, 0.5) oracle: most mass at weights 4 and 5
        from math import comb

        binom = np.array([comb(9, k) / 512 for k in range(10)])
        assert abs(frac[4] + frac[5] - (binom[4] + binom[5])) < 0.05
        assert frac.argmax() in (4, 5)


class TestOpsReport:
    def _model(self, omega_mode="analytic"):
        ds = dataio.synthetic_classification(seed=4, n=32, classes=2, image_hw=8)
        spec = nn.conv_net_spec(in_ch=1, classes=2, width=4, image_hw=8, omega_mode=omega_mode)
        net = nn.Network(spec, np.random.default_rng(1))
        return quantize_network(net, (1, 8, 8), 2), ds

    def test_report_totals_consistent(self):
        model, ds = self._model()
        rep = metrics.build_ops_report(model)
        t = rep.totals
        assert t["bops_bnn"] >= t["bops_sbnn"]
        assert 0.0 <= t["bops_pr"] <= 1.0
        assert t["K0"] + t["K1"] + t["Kdense"] == pytest.approx(1.0, abs=1e-12)
        assert t["ops_total"] == pytest.approx(t["flops"] + t["bops_sbnn"] / 64)
        assert t["entropy"] == pytest.approx(
            metrics.binary_entropy(t["ones_frac"]), abs=1e-12
        )

    def test_counters_reproduce_static_accounting(self):
        model, ds = self._model()
        rep = metrics.build_ops_report(model)
        _, counters = engine.infer(model, ds.images)
        assert metrics.counters_match_report(counters, rep)
        _, c_off = engine.infer(model, ds.images, skip=False)
        n = ds.count
        assert counters.flops == c_off.flops == rep.totals["flops"] * n
        assert c_off.position_ops == rep.totals["bops_bnn"] * n

    def test_text_report_renders(self):
        model, _ = self._model()
        rep = metrics.build_ops_report(model, ec=0.05)
        text = rep.to_text()
        assert "TOTAL" in text and "gain estimate" in text and "40.00x" in text

    @pytest.mark.parametrize("ec", [0.0, -0.1, 1.5, float("nan"), float("inf")])
    def test_explicit_ec_outside_unit_interval_rejected(self, ec):
        model, _ = self._model()
        with pytest.raises(ValidationError, match="outside"):
            metrics.build_ops_report(model, ec=ec)

    def test_no_gain_line_without_ones(self):
        spec = nn.conv_net_spec(in_ch=1, classes=2, width=4, image_hw=8, omega_mode="pm1")
        net = nn.Network(spec, np.random.default_rng(1))
        for layer in net.binarized_layers():
            layer.weight.value[...] = -0.5  # every sign -1, every bit 0
        model = quantize_network(net, (1, 8, 8), 2)
        totals = metrics.build_ops_report(model).totals
        assert totals["ones_frac"] == 0.0 and "gain_2_over_ec" not in totals
        assert metrics.build_ops_report(model, ec=1.0).totals["gain_2_over_ec"] == 2.0

    def test_chain_that_does_not_fit_is_rejected(self):
        model, _ = self._model()
        del model.stages[-2]  # the head now gets the larger map before the last conv
        with pytest.raises(ValidationError, match="input width"):
            metrics.build_ops_report(model)

    def test_histogram_csv(self):
        model, _ = self._model()
        csv_text = metrics.histograms_csv(model)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("layer,hw0")
        assert len(lines) == 1 + len(model.binary_stages())
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")[1:]]
            assert sum(vals) == pytest.approx(1.0, abs=1e-9)
