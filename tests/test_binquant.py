import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbnn import binquant as bq

from helpers import brute_force_omega, central_diff, masked_sign_binarize, quant_sq_loss


def rand_weights(rng, n):
    w = rng.uniform(-1.0, 1.0, size=n)
    # keep the sign pattern non-constant so the closed form applies
    if np.all(w >= 0) or np.all(w < 0):
        w[0] = -w[0] if w[0] != 0 else -0.5
    return w


class TestSignBinarize:
    def test_basic(self):
        out = bq.sign_binarize([0.5, -0.2, 0.8, -0.9])
        assert out.tolist() == [1, -1, 1, -1]

    def test_zero_maps_to_plus_one(self):
        assert bq.sign_binarize([0.0]).tolist() == [1]

    def test_pair(self):
        assert bq.sign_binarize([-3.7, 2.1]).tolist() == [-1, 1]

    def test_rejects_nan(self):
        with pytest.raises(bq.ValidationError):
            bq.sign_binarize([0.1, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(bq.ValidationError):
            bq.sign_binarize([np.inf])

    @pytest.mark.parametrize("shape", [(1,), (648,), (64, 64, 3, 3)])
    def test_matches_the_masked_write_on_random_weights(self, shape):
        w = np.random.default_rng(len(shape)).normal(size=shape)
        out = bq.sign_binarize(w)
        assert out.dtype == np.int8
        assert np.array_equal(out, masked_sign_binarize(w))

    def test_matches_the_masked_write_on_edge_values(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = np.array([0.0, -0.0, tiny, -tiny, 2.2e-308, -2.2e-308, 1e308, -1e308,
                          np.finfo(np.float64).max, -np.finfo(np.float64).max, 1.0, -1.0])
        out = bq.sign_binarize(edges)
        assert out.dtype == np.int8
        assert np.array_equal(out, masked_sign_binarize(edges))
        assert out.tolist() == [1, 1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_anywhere(self, bad):
        w = np.ones(100)
        w[57] = bad
        with pytest.raises(bq.ValidationError, match="non-finite"):
            bq.sign_binarize(w)


class TestSteGradient:
    def test_pass_through(self):
        assert bq.ste_gradient(0.7, 0.5) == 0.7

    def test_clipped(self):
        assert bq.ste_gradient(0.7, 1.5) == 0.0

    def test_boundary_inclusive(self):
        assert bq.ste_gradient(3.25, -1.0) == 3.25
        assert bq.ste_gradient(3.25, 1.0) == 3.25

    def test_elementwise(self):
        up = np.array([1.0, 2.0, 3.0])
        w = np.array([0.0, -2.0, 0.99])
        assert bq.ste_gradient(up, w).tolist() == [1.0, 0.0, 3.0]

    def test_nonfinite_upstream_at_a_clipped_weight_is_nan(self):
        with np.errstate(invalid="ignore"):  # inf * 0
            out = bq.ste_gradient(np.array([np.inf, np.nan, np.inf]), np.array([2.0, 0.0, 0.5]))
        assert np.isnan(out[0]) and np.isnan(out[1]) and out[2] == np.inf


class TestBitsSigns:
    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=200))
    def test_round_trip(self, signs):
        wb = np.array(signs, dtype=np.int8)
        assert np.array_equal(2 * bq.signs_to_bits(wb).astype(np.int8) - 1, wb)

    def test_bit_is_half_sign_plus_one(self):
        wb = np.array([1, -1, -1, 1], dtype=np.int8)
        assert bq.signs_to_bits(wb).tolist() == [1, 0, 0, 1]


class TestOmegaParams:
    def test_derived_fields(self):
        om = bq.OmegaParams(tau=0.6, phi=0.05)
        assert om.alpha == pytest.approx(-0.55, rel=1e-12)
        assert om.beta == pytest.approx(0.65, rel=1e-12)
        assert om.eta == pytest.approx(1.2)
        assert om.alpha == pytest.approx(om.xi * om.eta, rel=1e-12)
        assert om.beta == pytest.approx((1 + om.xi) * om.eta, rel=1e-12)

    @pytest.mark.parametrize("tau", [1e-6, 1e-3, 0.37, 1.0, 42.0, 1e3])
    def test_round_trip_tau_phi(self, tau):
        om = bq.OmegaParams(tau=tau, phi=0.123)
        back = bq.OmegaParams.from_xi_eta(om.xi, om.eta)
        assert back.tau == pytest.approx(tau, rel=1e-12)
        assert back.phi == pytest.approx(0.123, rel=1e-12)

    def test_pm1_domain(self):
        om = bq.PM1_DOMAIN
        assert (om.alpha, om.beta) == (-1.0, 1.0)
        assert (om.xi, om.eta) == (-0.5, 2.0)

    @pytest.mark.parametrize("tau, degenerate", [(0.0, True), (-0.0, True), (5e-324, False),
                                                 (-0.4, False), (np.nan, False)])
    @pytest.mark.parametrize("phi", [0.0, -0.3, 1e300])
    def test_degenerate_is_tau_zero(self, tau, degenerate, phi):
        om = bq.OmegaParams(tau=tau, phi=phi)
        assert om.degenerate == degenerate
        if degenerate:
            assert om.eta == 0.0 and om.alpha == om.beta == phi
            assert om.canonical() is om

    def test_canonicalize_with_bits_preserves_values(self):
        om = bq.OmegaParams(tau=-0.4, phi=0.1)
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        before = bq.map_zeroone_to_omega(bits, om)
        om2, bits2 = bq.canonicalize_with_bits(om, bits)
        assert om2.tau > 0
        after = bq.map_zeroone_to_omega(bits2, om2)
        assert np.array_equal(before, after)


class TestQuantStats:
    def test_half(self):
        s = bq.quant_stats(np.array([1, 1, -1, -1], dtype=np.int8))
        assert (s.u, s.l, s.p) == (2, 2, 0.5)

    def test_all_minus(self):
        s = bq.quant_stats(np.full(8, -1, dtype=np.int8))
        assert (s.u, s.p) == (0, 0.0)

    def test_quarter(self):
        assert bq.quant_stats(np.array([1, -1, -1, -1])).p == 0.25

    def test_rejects_other_values(self):
        with pytest.raises(bq.ValidationError):
            bq.quant_stats(np.array([1, 0, -1]))


class TestFitOmega:
    def test_spec_example_p_half(self):
        w = np.array([0.5, -0.2, 0.8, -0.9])
        om = bq.fit_omega_closed_form(w, bq.sign_binarize(w))
        # frozen from the grid + golden-section oracle
        assert om.tau == pytest.approx(0.6, abs=1e-12)
        assert om.phi == pytest.approx(0.05, abs=1e-12)

    def test_spec_example_p_three_quarters(self):
        w = np.array([0.3, 0.7, -0.5, 0.9])
        om = bq.fit_omega_closed_form(w, bq.sign_binarize(w))
        assert om.tau == pytest.approx(1.7 / 3, rel=1e-12)
        assert om.phi == pytest.approx(0.2 / 3, rel=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(4, 65))
            w = rand_weights(rng, n)
            wb = bq.sign_binarize(w)
            t_star, p_star, best = brute_force_omega(w, wb)
            om = bq.fit_omega_closed_form(w, wb)
            assert bq.binarization_loss(w, wb, om) <= best + 1e-9

    def test_p_half_gives_classical_tau(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.1, 1.0, size=10)
        w[5:] *= -1.0  # exactly half positive
        om = bq.fit_omega_closed_form(w, bq.sign_binarize(w))
        assert om.tau == pytest.approx(np.abs(w).mean(), rel=1e-15)
        assert om.phi == pytest.approx(w.mean(), rel=1e-12)

    def test_coupled_equations_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = rand_weights(rng, int(rng.integers(3, 40)))
            wb = bq.sign_binarize(w)
            st_ = bq.quant_stats(wb)
            s = 2 * st_.p - 1
            om = bq.fit_omega_closed_form(w, wb)
            l1 = np.abs(w).sum()
            assert om.tau == pytest.approx(l1 / st_.n - om.phi * s, rel=1e-12, abs=1e-12)
            assert om.phi == pytest.approx(w.sum() / st_.n - om.tau * s, rel=1e-12, abs=1e-12)

    def test_degenerate_raises(self):
        w = np.array([0.5, 0.2, 0.8])
        with pytest.raises(bq.DegenerateSignError):
            bq.fit_omega_closed_form(w, bq.sign_binarize(w))

    def test_fit_omega_fallback(self):
        w = np.array([0.5, 0.2, 0.8])
        om = bq.fit_omega(w, bq.sign_binarize(w))
        assert om.degenerate
        assert om.tau == 0.0
        assert om.phi == pytest.approx(0.5)


class TestBinarizationLoss:
    def test_perfect_reconstruction(self):
        wb = np.array([1, -1, 1], dtype=np.int8)
        om = bq.OmegaParams(tau=0.7, phi=0.1)
        w = om.tau * wb + om.phi
        assert bq.binarization_loss(w, wb, om) == 0.0

    def test_pm1_exact(self):
        assert bq.binarization_loss([1.0, -1.0], [1, -1], bq.PM1_DOMAIN) == 0.0

    def test_optimum_matches_oracle_minimum(self):
        w = np.array([0.5, -0.2, 0.8, -0.9])
        wb = bq.sign_binarize(w)
        om = bq.fit_omega_closed_form(w, wb)
        _, _, best = brute_force_omega(w, wb)
        assert bq.binarization_loss(w, wb, om) == pytest.approx(best, abs=1e-9)


class TestGradBinarizationLoss:
    def test_zero_at_optimum(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            w = rand_weights(rng, int(rng.integers(3, 33)))
            wb = bq.sign_binarize(w)
            om = bq.fit_omega_closed_form(w, wb)
            dt, dp = bq.grad_binarization_loss(w, wb, om)
            assert abs(dt) < 1e-9 and abs(dp) < 1e-9

    def test_plug_in_at_origin(self):
        w = np.array([0.3, 0.7, -0.5, 0.9])
        dt, dp = bq.grad_binarization_loss(w, bq.sign_binarize(w), bq.OmegaParams(tau=0.0, phi=0.0))
        assert dt == pytest.approx(-4.8)
        assert dp == pytest.approx(-2.8)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(2, 33))
            w = rand_weights(rng, n)
            wb = bq.sign_binarize(w)
            tau = float(rng.uniform(-1.5, 1.5))
            phi = float(rng.uniform(-1.5, 1.5))
            dt, dp = bq.grad_binarization_loss(w, wb, bq.OmegaParams(tau, phi))
            fd_t = central_diff(lambda t: quant_sq_loss(w, wb, t, phi), tau)
            fd_p = central_diff(lambda p: quant_sq_loss(w, wb, tau, p), phi)
            assert dt == pytest.approx(fd_t, rel=1e-5, abs=1e-5)
            assert dp == pytest.approx(fd_p, rel=1e-5, abs=1e-5)


class TestMapZeroOne:
    def test_pm1_bit_one(self):
        om = bq.OmegaParams.from_xi_eta(-0.5, 2.0)
        assert bq.map_zeroone_to_omega(np.array([1]), om)[0] == 1.0

    def test_pm1_bit_zero(self):
        om = bq.OmegaParams.from_xi_eta(-0.5, 2.0)
        assert bq.map_zeroone_to_omega(np.array([0]), om)[0] == -1.0

    def test_bit_zero_is_alpha(self):
        om = bq.OmegaParams(tau=0.37, phi=-0.2)
        got = bq.map_zeroone_to_omega(np.array([0]), om)[0]
        assert got == pytest.approx(om.alpha, rel=1e-12)

    def test_degenerate_constant(self):
        om = bq.OmegaParams(tau=0.0, phi=0.25)
        out = bq.map_zeroone_to_omega(np.array([0, 1, 1]), om)
        assert np.all(out == 0.25)


class TestConvexity:
    def test_midpoint_convexity_along_segments(self):
        rng = np.random.default_rng(17)
        w = rand_weights(rng, 24)
        wb = bq.sign_binarize(w)
        for _ in range(100):
            a = rng.uniform(-2, 2, size=2)
            b = rng.uniform(-2, 2, size=2)
            mid = 0.5 * (a + b)
            fa = quant_sq_loss(w, wb, *a)
            fb = quant_sq_loss(w, wb, *b)
            fm = quant_sq_loss(w, wb, *mid)
            assert fm <= 0.5 * (fa + fb) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=2,
        max_size=64,
    )
)
def test_closed_form_never_beaten_by_grid(values):
    w = np.array(values, dtype=np.float64)
    wb = bq.sign_binarize(w)
    stats = bq.quant_stats(wb)
    if stats.u == 0 or stats.l == 0:
        return
    om = bq.fit_omega_closed_form(w, wb)
    loss_opt = bq.binarization_loss(w, wb, om)
    taus = np.linspace(-2, 2, 41)
    phis = np.linspace(-2, 2, 41)
    for t in taus:
        for p in phis:
            assert loss_opt <= quant_sq_loss(w, wb, t, p) + 1e-9
