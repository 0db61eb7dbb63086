import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbnn import sparsity as sp
from sbnn.binquant import ValidationError

from helpers import bisect_entropy_inverse


class TestBinaryEntropy:
    def test_half_is_one_bit(self):
        assert sp.binary_entropy(0.5) == 1.0

    def test_limits(self):
        assert sp.binary_entropy(0.0) == 0.0
        assert sp.binary_entropy(1.0) == 0.0

    def test_near_half_bit(self):
        assert sp.binary_entropy(0.11) == pytest.approx(0.49992, abs=5e-5)

    def test_symmetry(self):
        for p in [0.1, 0.25, 0.4]:
            assert sp.binary_entropy(p) == pytest.approx(sp.binary_entropy(1 - p), rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            sp.binary_entropy(-0.1)
        with pytest.raises(ValidationError):
            sp.binary_entropy(1.5)


class TestInverseBinaryEntropy:
    def test_endpoints(self):
        assert sp.inverse_binary_entropy(1.0) == 0.5
        assert sp.inverse_binary_entropy(0.0) == 0.0

    def test_half_bit(self):
        got = sp.inverse_binary_entropy(0.5)
        assert got == pytest.approx(0.1100279, abs=1e-6)
        assert got == pytest.approx(bisect_entropy_inverse(0.5), abs=1e-11)

    def test_round_trip(self):
        for y in np.arange(0.0, 1.0001, 0.05):
            y = float(y)
            assert sp.binary_entropy(sp.inverse_binary_entropy(y)) == pytest.approx(y, abs=1e-10)

    def test_strictly_increasing(self):
        ys = np.linspace(0.0, 1.0, 101)
        ps = [sp.inverse_binary_entropy(float(y)) for y in ys]
        assert all(b > a for a, b in zip(ps, ps[1:]))


class TestMakeBudget:
    def test_one_bit_budget(self):
        b = sp.make_budget(1.0, 1000)
        assert b.ec == 0.5
        assert b.m == 500.0

    def test_half_bit_budget(self):
        b = sp.make_budget(0.5, 1000)
        assert b.m == pytest.approx(110.03, abs=0.005)
        assert b.ec == pytest.approx(0.110, abs=5e-4)

    def test_zero_budget(self):
        b = sp.make_budget(0.0, 1000)
        assert b.m == 0.0 and b.ec == 0.0

    def test_ec_equals_p_star(self):
        b = sp.make_budget(0.3, 77)
        assert b.ec == b.p_star
        assert b.m == 77 * b.p_star

    def test_bad_n(self):
        with pytest.raises(ValidationError):
            sp.make_budget(0.5, 0)


class TestPenalties:
    def test_all_zero_bits(self):
        assert sp.penalty_g(np.zeros(40, dtype=np.uint8), 0.05) == 0.0

    def test_all_one_bits(self):
        assert sp.penalty_g(np.ones(40, dtype=np.uint8), 0.05) == pytest.approx(0.95)

    def test_three_of_ten(self):
        bits = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8)
        assert sp.penalty_g(bits, 0.05) == pytest.approx(0.25)

    def test_j_all_minus(self):
        assert sp.penalty_j(np.full(12, -1, dtype=np.int8), 0.05) == 0.0

    def test_j_all_plus(self):
        assert sp.penalty_j(np.full(12, 1, dtype=np.int8), 0.05) == pytest.approx(0.95)

    @given(
        st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=300),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_j_equals_g_on_bits(self, signs, ec):
        wb = np.array(signs, dtype=np.int8)
        bits = ((wb + 1) // 2).astype(np.uint8)
        assert sp.penalty_j(wb, ec) == sp.penalty_g(bits, ec)

    def test_zero_iff_under_budget(self):
        # exhaustive for all n <= 20 and all one-counts
        budget_ec = sp.make_budget(0.5, 1)  # ec ~ 0.1100
        ec = budget_ec.ec
        for n in range(1, 21):
            m = n * ec
            for ones in range(n + 1):
                bits = np.array([1] * ones + [0] * (n - ones), dtype=np.uint8)
                free = sp.penalty_g(bits, ec) == 0.0
                assert free == (ones <= m)


class TestLambdaUpdate:
    def test_algebraic_inversion(self):
        lam = sp.lambda_update(2.0, 0.25, 0.1)
        assert lam == pytest.approx(0.2 / 0.225, rel=1e-12)
        assert lam * 0.25 / (2.0 + lam * 0.25) == pytest.approx(0.1, rel=1e-12)

    def test_zero_j(self):
        assert sp.lambda_update(123.0, 0.0, 0.1) == 0.0

    def test_zero_gamma(self):
        assert sp.lambda_update(2.0, 0.25, 0.0) == 0.0

    def test_gamma_one_rejected(self):
        with pytest.raises(ValidationError):
            sp.lambda_update(2.0, 0.25, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-9, max_value=1.0),
        st.floats(min_value=1e-6, max_value=0.999),
    )
    def test_substitution_property(self, loss, j, gamma):
        lam = sp.lambda_update(loss, j, gamma)
        assert lam * j / (loss + lam * j) == pytest.approx(gamma, rel=1e-12)
