from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerlab import (
    Filter,
    bspline_samples,
    convolve,
    derivative_growth,
    kronecker,
    lemma_bound_check,
    min_modulus_certified,
    symbol_eval,
)
from wienerlab.spectrum import _lipschitz


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

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 64), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_horner_matches_the_exponential_sum(self, seed, shape):
        rng = np.random.default_rng(seed)
        d = len(shape)
        h = Filter(tuple(rng.integers(-50, 51, d)), rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        ws = rng.uniform(-2 * np.pi, 2 * np.pi, (5, d))
        direct = np.exp(-1j * ws @ h.indices().T) @ h.coeffs.ravel()
        gap = np.max(np.abs(symbol_eval(h, ws) - direct))
        # both sums lose about eps |<w, k>| per term, and |<w, k>| < 2200 here
        assert gap <= 1e-12 * np.sum(np.abs(h.coeffs))


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

    @pytest.mark.parametrize("origin", [1, 1000, 20000])
    def test_shifted_cubic_certifies_like_centred(self, origin):
        # the gradient bound is centred on the support, so the cubic at
        # origin 20000 no longer ends inconclusive
        assert_same_certificate(cubic(), Filter((origin,), cubic().coeffs))

    def test_zero_filter_rejected(self):
        with pytest.raises(ValueError):
            min_modulus_certified(Filter((0,), [0.0]))

    def test_grid_cap_checked_before_first_sweep(self):
        # the first dense grid, 64^5 points, is over the cap; the extra
        # corner tap keeps the filter off the rank-1 per-axis route
        coeffs = np.full((2,) * 5, 0.1)
        coeffs[(0,) * 5] = 1.0
        with pytest.raises(ValueError, match="exceeds"):
            min_modulus_certified(Filter((0,) * 5, coeffs))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bound_sandwich(self, seed):
        rng = np.random.default_rng(seed)
        h = Filter((0,), rng.standard_normal(4))
        cert = min_modulus_certified(h)
        assert cert.certified_lower_bound <= cert.grid_min

    def test_lipschitz_bound(self):
        # the moment is taken about the support centre, so no shift changes it
        for origin in (-1, 1000):
            assert _lipschitz(Filter((origin,), cubic().coeffs)) == pytest.approx(1.0 / 3, abs=1e-15)


def dominant_line(rng, n, complex_ok=False, margin=0.2):
    """n random taps, one of them larger than the others' sum by at least
    `margin`, so |fhat| >= margin."""
    f = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_ok else 0)
    j = rng.integers(n)
    f[j] = 0
    f[j] = (np.sum(np.abs(f)) + margin * rng.uniform(1.0, 2.0)) * rng.choice([-1, 1])
    return f


def outer(lines):
    return reduce(np.multiply.outer, lines)


def random_filter(seed):
    """A 1-D or 2-D filter, real or complex, separable or not. The margin
    of its dominant tap sets how many doublings the certificate takes.
    A quarter of the 1-D filters have a unit zero instead: at w = 0 or pi
    (real, likely-singular on the first grid) or off the grid (complex,
    inconclusive at GRID_CAP). Dense 2-D sweeps stay at N <= 1024."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    shape = tuple(int(n) for n in rng.integers(1, 5, size=d))
    complex_ok = bool(rng.integers(2))
    if d == 1 and rng.integers(4) == 0:
        theta = rng.uniform(0, 2 * np.pi) if complex_ok else np.pi * rng.integers(2)
        coeffs = np.convolve(rng.standard_normal(shape), [1, -np.exp(1j * theta) if complex_ok else -np.cos(theta)])
    elif d == 2 and rng.integers(2):
        coeffs = outer([dominant_line(rng, n, complex_ok, 10 ** rng.uniform(-3, 0)) for n in shape])
    else:
        margin = 10 ** rng.uniform(-3 if d == 1 else -1.5, 0)
        coeffs = dominant_line(rng, int(np.prod(shape)), complex_ok, margin).reshape(shape)
    return Filter(tuple(int(o) for o in rng.integers(-3, 4, size=d)), coeffs)


def assert_same_certificate(h, moved):
    a, b = min_modulus_certified(h), min_modulus_certified(moved)
    assert (a.status, a.grid_size) == (b.status, b.grid_size)
    assert b.certified_lower_bound == pytest.approx(a.certified_lower_bound, abs=1e-12 * np.sum(np.abs(h.coeffs)))


class TestCertificateProperties:
    """|hhat| is unchanged by shifts, conjugation and reflection, so the
    certificate must be too; rank-1 tensors are certified axis by axis."""

    @given(st.integers(0, 2**32 - 1), st.integers(-1000, 1000), st.integers(-1000, 1000))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariant(self, seed, s0, s1):
        h = random_filter(seed)
        shift = (s0, s1)[: h.dim]
        assert_same_certificate(h, Filter(tuple(o + s for o, s in zip(h.origin, shift)), h.coeffs))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_conjugation_and_reflection_invariant(self, seed):
        h = random_filter(seed)
        assert_same_certificate(h, Filter(h.origin, np.conj(h.coeffs)))
        far = tuple(-(o + n - 1) for o, n in zip(h.origin, h.coeffs.shape))
        assert_same_certificate(h, Filter(far, h.coeffs[(slice(None, None, -1),) * h.dim]))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
    @settings(max_examples=20, deadline=None)
    def test_separable_matches_dense_sweep(self, seed, d):
        rng = np.random.default_rng(seed)
        lines = [dominant_line(rng, int(rng.integers(1, 5)), complex_ok=d == 2) for _ in range(d)]
        h = Filter(tuple(int(o) for o in rng.integers(-5, 6, size=d)), outer(lines))
        cert = min_modulus_certified(h)
        assert cert.status == "certified"
        dense = np.abs(np.fft.fftn(h.on_torus(cert.grid_size)))
        assert cert.grid_min == pytest.approx(float(np.min(dense)), rel=1e-13)
        ws = rng.uniform(-np.pi, np.pi, size=(1000, d))
        assert np.all(np.abs(symbol_eval(h, ws)) >= cert.certified_lower_bound - 1e-12)

    def test_perturbed_outer_product_takes_dense_route(self, monkeypatch):
        swept = []
        on_torus = Filter.on_torus

        def spy(f, N):
            swept.append(f.dim)
            return on_torus(f, N)

        monkeypatch.setattr(Filter, "on_torus", spy)
        coeffs = outer([cubic().coeffs] * 2)
        min_modulus_certified(Filter((-1, -1), coeffs))
        assert set(swept) == {1}
        swept.clear()
        coeffs[0, 1] += 1e-6
        cert = min_modulus_certified(Filter((-1, -1), coeffs))
        assert set(swept) == {2}
        assert cert.status == "certified"

    def test_5d_tensor_cubic_certifies_at_first_grid(self):
        # a dense sweep could not start: 64^5 points exceed the cap
        cert = min_modulus_certified(bspline_samples(3, d=5))
        assert cert.status == "certified"
        assert cert.grid_size == 64
        assert cert.certified_lower_bound <= (1.0 / 3) ** 5 <= cert.grid_min + 1e-15


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

    @pytest.mark.parametrize("c", [1e-5, 1e-6])
    def test_s0_at_small_c(self, c):
        # the summands peak near k = n/c; the closed form needs no such range
        res = lemma_bound_check(c, 40)
        assert res["S"][0] == pytest.approx(1 / -np.expm1(-c), rel=1e-14)

    @pytest.mark.parametrize("c", [0.01, 0.5, 2.0, 30.0])
    def test_s2_closed_form(self, c):
        # sum k^2 q^k = q (1 + q) / (1 - q)^3, the Eulerian row 1, 1
        q = np.exp(-c)
        res = lemma_bound_check(c, 10)
        assert res["S"][2] == pytest.approx(q * (1 + q) / (-np.expm1(-c)) ** 3, rel=1e-14)

    @pytest.mark.parametrize("c", [0.05, 0.7, 3.0])
    def test_matches_direct_sum(self, c):
        # the summands k^n e^{-ck} peak at k = n/c; past 8 n_max/c + 400/c
        # the rest is below 1e-40 of each sum
        from scipy.special import logsumexp

        ns = np.arange(41)
        ks = np.arange(1, int((8 * 40 + 400) / c))
        direct = logsumexp(ns[:, None] * np.log(ks) - c * ks, axis=1)
        direct[0] = np.logaddexp(0.0, direct[0])  # k = 0 adds 0^0 = 1 to S_0
        np.testing.assert_allclose(lemma_bound_check(c, 40)["log_S"], direct, rtol=0, atol=1e-13)

    def test_bad_c(self):
        with pytest.raises(ValueError):
            lemma_bound_check(0.0, 10)
