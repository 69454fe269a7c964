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
from wienerlab.spectrum import EVAL_CHUNK, _lipschitz


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


@pytest.mark.parametrize("n_points", [1, EVAL_CHUNK - 1, EVAL_CHUNK, EVAL_CHUNK + 1])
@pytest.mark.parametrize("n_taps", [1, 2, 63, 64, 65, 1000, 4096])
def test_symbol_eval_matches_the_fft(n_taps, n_points):
    # the FFT of h folded onto n_points points is hhat at the multiples of
    # 2 pi / n_points; the sampled multiples span three periods
    rng = np.random.default_rng(n_taps * n_points)
    h = Filter((int(rng.integers(-100, 101)),), rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps) * (n_taps % 2))
    j = rng.integers(-n_points, 2 * n_points, n_points)
    want = np.fft.fft(h.on_torus(n_points))[j % n_points]
    got = symbol_eval(h, 2 * np.pi * j / n_points)
    assert got.shape == (n_points,)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(h.coeffs))
    assert symbol_eval(h, (2 * np.pi * j / n_points)[:, None, None]).shape == (n_points, 1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_symbol_eval_shapes(dim):
    h = Filter((0,) * dim, np.arange(1.0, 1 + 3**dim).reshape((3,) * dim))
    assert symbol_eval(h, np.zeros((0, dim))).shape == (0,)
    assert symbol_eval(h, np.zeros((2, 0, dim))).shape == (2, 0)
    # a length-d vector is one point, except in 1-D, where it lists points
    assert symbol_eval(h, np.zeros(dim)).shape == ((1,) if dim == 1 else ())
    assert symbol_eval(h, np.zeros((4, 5, dim))).shape == (4, 5)
    assert symbol_eval(h, np.zeros((1, dim)))[0] == np.sum(h.coeffs)
    if dim == 1:
        assert symbol_eval(h, np.zeros(0)).shape == (0,)
        assert type(symbol_eval(h, 0.0)) is complex and symbol_eval(h, 0.0) == 6.0


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


def dominated(rng, shape, margin):
    """Real taps of the given shape: one of them +-1, the others summing
    to at most 1 - margin in modulus, so |hhat| >= margin."""
    c = rng.uniform(-1, 1, shape)
    c *= (1 - margin) / np.sum(np.abs(c))
    c[tuple(int(rng.integers(n)) for n in shape)] = rng.choice([-1.0, 1.0])
    return c


def outer(lines):
    return reduce(np.multiply.outer, lines)


def fft_shapes(h):
    """The shapes of the grids that certifying h hands to the FFT: (d, N)
    rows on the per-axis route, N^d on the dense one."""
    shapes = set()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("fftn", "rfftn"):
            def spy(grid, *args, fft=getattr(np.fft, name), **kwargs):
                shapes.add(grid.shape)
                return fft(grid, *args, **kwargs)

            mp.setattr(np.fft, name, spy)
        min_modulus_certified(h)
    return shapes


def random_filter(seed):
    """A 1-D or 2-D filter, real or complex, separable or not. The margin
    of its dominant tap sets how many doublings the certificate takes.
    A quarter of the 1-D filters have a unit zero instead: at w = 0 or pi
    (real, likely-singular on the first grid) or off the grid (complex,
    inconclusive at GRID_AXIS_CAP). Dense 2-D sweeps stay at N <= 1024."""
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

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_real_half_spectrum_sweep_matches_the_full_sweep(self, seed, d, tensor):
        # 1-D filters may carry a real unit zero (likely-singular) or a
        # conjugate pair of zeros just off the circle, so the sweep doubles
        # up to GRID_AXIS_CAP; dense 3-D sweeps stay at N = 64
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(1, 5 if d < 3 else 4, size=d))
        if tensor and d > 1:
            coeffs = outer([dominated(rng, (n,), 10 ** rng.uniform(-1.5 if d == 2 else -0.5, 0)) for n in shape])
        else:
            coeffs = dominated(rng, shape, 10 ** rng.uniform({1: -4, 2: -1.5, 3: -0.3}[d], 0))
        if d == 1 and rng.integers(3) == 0:
            coeffs = np.convolve(coeffs, [1, rng.choice([-1, 1])])
        elif d == 1 and rng.integers(2):
            r, theta = 1 + 10 ** rng.uniform(-5, -0.5), rng.uniform(0, np.pi)
            coeffs = np.convolve(coeffs, [1, -2 * r * np.cos(theta), r * r])
        h = Filter(tuple(int(o) for o in rng.integers(-1000, 1001, size=d)), coeffs)
        cert = min_modulus_certified(h)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.fft, "rfftn", np.fft.fftn)
            full = min_modulus_certified(h)
        assert (cert.status, cert.grid_size) == (full.status, full.grid_size)
        dense_min = float(np.min(np.abs(np.fft.fftn(h.on_torus(cert.grid_size)))))
        # the two FFTs round differently, by up to 7.7e-16 sum |h| in 600
        # draws: past 1e-13 relative when the minimum is near a zero
        l1 = np.sum(np.abs(h.coeffs))
        assert cert.grid_min == pytest.approx(dense_min, rel=1e-13, abs=1e-14 * l1)
        # the argmin is a grid point of that modulus with w_d in [0, pi], pi written -pi
        assert abs(abs(symbol_eval(h, cert.argmin)) - cert.grid_min) <= 1e-13 * l1
        assert 0 <= cert.argmin[-1] < np.pi or cert.argmin[-1] == -np.pi

    def test_perturbed_outer_product_takes_dense_route(self):
        coeffs = outer([cubic().coeffs] * 2)
        assert fft_shapes(Filter((-1, -1), coeffs)) == {(2, 64)}
        coeffs[0, 1] += 1e-6
        assert fft_shapes(Filter((-1, -1), coeffs)) == {(64, 64)}
        assert min_modulus_certified(Filter((-1, -1), coeffs)).status == "certified"

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_outer_products_are_swept_per_axis(self, seed, d, complex_ok):
        # the largest tap of each factor sits anywhere in it, and a factor
        # of 3 or more taps may have a zero inside
        rng = np.random.default_rng(seed)
        lines = [dominant_line(rng, int(rng.integers(1, 6)), complex_ok, rng.uniform(0.2, 1.0)) for _ in range(d)]
        for f in lines:
            j = int(rng.integers(len(f)))
            if 0 < j < len(f) - 1 and abs(f[j]) < np.max(np.abs(f)):
                f[j] = 0
        h = Filter(tuple(int(o) for o in rng.integers(-1000, 1001, size=d)), outer(lines))
        cert = min_modulus_certified(h)
        N = cert.grid_size
        assert fft_shapes(h) == {(d, 64 << i) for i in range(11) if 64 << i <= N}
        if N**d <= 2**20:
            dense_min = float(np.min(np.abs(np.fft.fftn(h.on_torus(N)))))
        else:
            # the fold of an outer product is the outer product of the
            # factors' folds, so its grid minimum is the product of theirs
            dense_min = float(np.prod([np.min(np.abs(np.fft.fft(Filter((0,), f).on_torus(N)))) for f in lines]))
        # one-tap factors have L = 0, so the bound is the grid minimum
        # itself, which the dense FFT rounds differently
        assert cert.certified_lower_bound <= dense_min * (1 + 1e-13)
        assert cert.grid_min == pytest.approx(dense_min, rel=1e-13)
        ws = rng.uniform(-np.pi, np.pi, size=(200, d))
        assert np.all(np.abs(symbol_eval(h, ws)) >= cert.certified_lower_bound - 1e-12 * np.sum(np.abs(h.coeffs)))

    def test_factor_longer_than_the_grid_wraps_onto_its_row(self):
        # 100 taps fold onto a 64-point row, so columns collide
        rng = np.random.default_rng(7)
        f = 1e-4 * rng.standard_normal(100)
        f[50] = 1.0
        h = Filter((-50, -1), outer([f, cubic().coeffs]))
        cert = min_modulus_certified(h)
        assert (cert.grid_size, cert.status) == (64, "certified")
        assert fft_shapes(h) == {(2, 64)}
        assert cert.grid_min == pytest.approx(float(np.min(np.abs(np.fft.fftn(h.on_torus(64))))), rel=1e-13)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_a_moved_tap_takes_the_dense_route(self, seed, d, complex_ok):
        # factors this dominated certify on the first dense grid, which
        # keeps a 3-D sweep inside the 1 GB limit of CI
        rng = np.random.default_rng(seed)
        lines = [dominated(rng, (int(rng.integers(2, 5)),), 0.9) for _ in range(d)]
        if complex_ok:
            lines = [f * np.exp(2j * np.pi * rng.uniform(size=len(f))) for f in lines]
        coeffs = outer(lines)
        coeffs[tuple(int(rng.integers(n)) for n in coeffs.shape)] += 1e-6 * np.sum(np.abs(coeffs))
        assert fft_shapes(Filter((0,) * d, coeffs)) == {(64,) * d}

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_tensors_certify_without_an_svd(self, monkeypatch, d):
        def svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", svd)
        cert = min_modulus_certified(bspline_samples(3, d=d))
        assert cert.status == "certified"
        assert cert.certified_lower_bound <= (1.0 / 3) ** d <= cert.grid_min + 1e-15

    @pytest.mark.parametrize("scale", [1e-300, 1e-90, 1e80, 1e300])
    def test_5d_tensor_certifies_at_any_scale(self, scale):
        # a factor divided by a power of the largest tap would under- or
        # overflow here and send the filter to a dense grid over the cap
        h = bspline_samples(3, d=5)
        cert = min_modulus_certified(Filter(h.origin, h.coeffs * scale))
        assert cert.status == "certified"
        assert cert.grid_min == pytest.approx(scale / 3**5, rel=1e-13)

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

    @pytest.mark.parametrize("n_max", [-1, 61])
    def test_n_max_outside_0_to_60_rejected(self, n_max):
        with pytest.raises(ValueError, match=f"n_max must be in \\[0, 60\\], got {n_max}"):
            derivative_growth(kronecker(1), n_max)

    @pytest.mark.parametrize(
        "h, n_max",
        [
            (Filter((-1000,), np.random.default_rng(5).standard_normal(2048)), 60),
            (Filter((2,), [0.5, 0.0, -2.0, 1e-3]), 40),
            (Filter((-3,), [0.1, -0.5, 0.0, 4.0, 0.0, 0.5, 0.1]), 40),
        ],
        ids=["2048-taps", "zero-tap", "tap-at-0"],
    )
    def test_log_moments_match_logsumexp(self, h, n_max):
        # log sum_k |h[k]| |k|^n, with 0^0 = 1 and log 0 = -inf
        from scipy.special import logsumexp, xlogy

        ns = np.arange(n_max + 1)[:, None]
        ks = np.abs(h.indices().ravel())
        with np.errstate(divide="ignore"):
            want = logsumexp(xlogy(ns, ks) + np.log(np.abs(h.coeffs.ravel())), axis=1)
        np.testing.assert_allclose(derivative_growth(h, n_max).log_moments, want, rtol=1e-13, atol=0)


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
