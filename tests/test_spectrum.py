import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerlab import (
    Filter,
    Symbol,
    convolve,
    derivative_growth,
    kronecker,
    lemma_bound_check,
    min_modulus_certified,
    symbol_eval,
)


def cubic():
    return Filter((-1,), np.array([1.0, 4.0, 1.0]) / 6.0)


class TestSymbolEval:
    def test_direct_sum_agreement(self):
        rng = np.random.default_rng(0)
        h = Filter((-2,), rng.standard_normal(5))
        for w in rng.uniform(-np.pi, np.pi, size=8):
            direct = sum(
                c * np.exp(-1j * w * k) for k, c in zip(range(-2, 3), h.coeffs)
            )
            assert symbol_eval(h, w) == pytest.approx(direct, abs=1e-14)

    def test_cubic_closed_form(self):
        # (4 + 2 cos w)/6 for the symmetric 3-tap filter
        h = cubic()
        for w in (0.0, 1.0, np.pi):
            assert symbol_eval(h, w) == pytest.approx((4 + 2 * np.cos(w)) / 6, abs=1e-15)

    def test_periodicity(self):
        h = cubic()
        assert symbol_eval(h, 0.7) == pytest.approx(symbol_eval(h, 0.7 + 2 * np.pi), abs=1e-12)

    def test_2d_array_input(self):
        h = Filter((0, 0), np.array([[1.0, 0.5], [0.25, 0.0]]))
        grid = np.stack(np.meshgrid([0.0, 1.0], [0.5, 2.0]), axis=-1)
        vals = symbol_eval(h, grid)
        assert vals.shape == (2, 2)
        assert vals.flat[0] == pytest.approx(symbol_eval(h, np.array([[0.0, 0.5]]))[0])

    def test_convolution_theorem(self):
        rng = np.random.default_rng(1)
        a = Filter((-1,), rng.standard_normal(4))
        b = Filter((0,), rng.standard_normal(3))
        w = 0.83
        assert symbol_eval(convolve(a, b), w) == pytest.approx(
            symbol_eval(a, w) * symbol_eval(b, w), abs=1e-13
        )


class TestModulusCertificate:
    def test_cubic_certified(self):
        cert = min_modulus_certified(cubic())
        assert cert.status == "certified"
        # true minimum is 1/3 at w = pi
        assert cert.certified_lower_bound <= 1.0 / 3 <= cert.grid_min + 1e-15

    def test_certificate_soundness(self):
        # certified bound must hold at arbitrary off-grid frequencies
        rng = np.random.default_rng(2)
        h = Filter((-2,), rng.standard_normal(5) + np.array([0, 0, 5.0, 0, 0]))
        cert = min_modulus_certified(h)
        assert cert.status == "certified"
        ws = rng.uniform(-np.pi, np.pi, size=1000)
        mods = np.abs(symbol_eval(h, ws))
        assert np.all(mods >= cert.certified_lower_bound - 1e-12)

    def test_singular_symbol_detected(self):
        h = Filter((0,), np.array([1.0, -1.0]))
        cert = min_modulus_certified(h)
        assert cert.status == "likely-singular"
        assert cert.grid_min < 1e-9
        assert abs(cert.argmin[0]) < 1e-12

    def test_2d_certificate(self):
        h = Filter((-1, -1), np.outer([1, 4, 1], [1, 4, 1]) / 36.0)
        cert = min_modulus_certified(h)
        assert cert.status == "certified"
        assert cert.certified_lower_bound <= 1.0 / 9

    def test_zero_filter_rejected(self):
        with pytest.raises(ValueError):
            min_modulus_certified(Filter((0,), [0.0]))

    def test_grid_cap_checked_before_first_sweep(self):
        # the first grid, 64^5 points, is over the cap
        with pytest.raises(ValueError, match="exceeds"):
            min_modulus_certified(Filter((0,) * 5, np.full((2,) * 5, 0.1)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bound_sandwich(self, seed):
        rng = np.random.default_rng(seed)
        h = Filter((0,), rng.standard_normal(4))
        cert = min_modulus_certified(h)
        assert cert.certified_lower_bound <= cert.grid_min

    def test_lipschitz_bound(self):
        h = cubic()
        assert Symbol(h).lipschitz == pytest.approx(1.0 / 3, abs=1e-15)


class TestDerivativeGrowth:
    def test_exponential_tail_keeps_rate(self):
        ks = np.arange(-200, 201)
        h = Filter((-200,), np.exp(-np.abs(ks).astype(float)))
        rep = derivative_growth(h, 40)
        assert rep.fitted_rate >= 0.3

    def test_algebraic_tail_collapses_rate(self):
        ks = np.arange(-200, 201)
        h = Filter((-200,), 1.0 / (1.0 + ks.astype(float) ** 2))
        rep = derivative_growth(h, 40)
        assert rep.fitted_rate < 0.05

    def test_moments_increase(self):
        ks = np.arange(-50, 51)
        h = Filter((-50,), np.exp(-0.5 * np.abs(ks).astype(float)))
        rep = derivative_growth(h, 20)
        assert np.all(np.diff(rep.log_moments) > 0)

    def test_delta_reports_infinite_rate(self):
        rep = derivative_growth(kronecker(1), 10)
        assert rep.fitted_rate == np.inf

    def test_d2_rejected(self):
        with pytest.raises(ValueError):
            derivative_growth(kronecker(2), 10)


class TestLemmaBound:
    def test_s0_closed_form(self):
        # sum_{k>=0} e^{-k} = 1/(1 - e^{-1}) = e/(e-1)
        res = lemma_bound_check(1.0, 40)
        assert res["S"][0] == pytest.approx(np.e / (np.e - 1), abs=1e-12)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_factorial_bound_holds(self, c):
        res = lemma_bound_check(c, 40)
        ns = np.arange(41)
        from scipy.special import gammaln

        log_lhs = res["log_S"] + ns * np.log(res["R"])
        log_rhs = np.log(res["M"]) + gammaln(ns + 1.0)
        assert np.all(log_lhs <= log_rhs + 1e-12)
        assert res["max_ratio"] <= 1.0 + 1e-12

    def test_r_constraint(self):
        # R must satisfy R < 1 and e * e^{-c}/(1-e^{-c}) * R < 1
        for c in (0.5, 1.0, 2.0):
            res = lemma_bound_check(c, 20)
            q = np.exp(-c)
            assert res["R"] < 1.0
            assert np.e * q / (1 - q) * res["R"] < 1.0

    def test_geometric_s1(self):
        # sum k e^{-ck} = q/(1-q)^2
        res = lemma_bound_check(2.0, 10)
        q = np.exp(-2.0)
        assert res["S"][1] == pytest.approx(q / (1 - q) ** 2, rel=1e-12)

    def test_bad_c(self):
        with pytest.raises(ValueError):
            lemma_bound_check(0.0, 10)
