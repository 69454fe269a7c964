import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wienerlab import (
    Box,
    DecayReport,
    Filter,
    TailBoundError,
    amalgam_norm,
    bspline_generator,
    bspline_samples,
    bspline_value,
    convolve,
    generator_from_json,
    green_power_generator,
    interpolate,
    invert_exact_1d,
    invert_stable,
    kernel_to_csv,
    kronecker,
    lagrange_kernel_fourier,
    lagrange_kernel_space,
    polynomial_weight,
    reproduction_check,
)
from wienerlab import splines
from wienerlab.splines import bspline_grid

RATE = np.log(2 + np.sqrt(3))


def exact_bspline(n, x):
    """Centered degree-n B-spline at the rational x: the truncated-power
    sum in Fraction arithmetic, with 1/2 at the degree-0 jumps."""
    x = Fraction(x)
    if n == 0 and abs(x) == Fraction(1, 2):
        return 0.5
    total = Fraction(0)
    for i in range(n + 2):
        t = x + Fraction(n + 1, 2) - i
        if t > 0:
            total += (-1) ** i * math.comb(n + 1, i) * t**n
    return float(total / math.factorial(n))


def at_half_integers(test):
    """An @example for every degree at every half-integer of [-7, 7]; these
    include the support edges +-(n+1)/2."""
    for n in range(12):
        for k in range(-14, 15):
            test = example(n, k / 2)(test)
    return test


class TestBsplineValue:
    def test_degree0_box(self):
        assert bspline_value(0, 0.0) == 1.0
        assert bspline_value(0, 0.49) == 1.0
        assert bspline_value(0, 0.51) == 0.0
        assert bspline_value(0, 0.5) == bspline_value(0, -0.5) == 0.5

    def test_degree1_hat(self):
        assert bspline_value(1, 0.0) == 1.0
        assert bspline_value(1, 0.5) == 0.5
        assert bspline_value(1, 1.0) == 0.0

    def test_cubic_integer_samples(self):
        assert bspline_value(3, 0.0) == pytest.approx(4.0 / 6, abs=0)
        assert bspline_value(3, 1.0) == pytest.approx(1.0 / 6, abs=0)
        assert bspline_value(3, 2.0) == 0.0

    def test_cubic_half_samples(self):
        # exact rationals: beta3(1/2) = 23/48, beta3(3/2) = 1/48
        assert bspline_value(3, 0.5) == 23.0 / 48
        assert bspline_value(3, 1.5) == 1.0 / 48

    @given(st.integers(0, 11), st.floats(-8, 8))
    @example(0, 0.5)
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_supported(self, n, x):
        v = bspline_value(n, x)
        assert v >= 0.0
        if n == 0 and abs(x) == 0.5:
            assert v == 0.5  # the midpoint at the box's jumps
        elif abs(x) >= (n + 1) / 2:
            assert v == 0.0

    @given(st.integers(0, 9), st.floats(-4, 4, allow_nan=False))
    @example(0, 0.5)
    @settings(max_examples=60, deadline=None)
    def test_partition_of_unity(self, n, x):
        total = sum(bspline_value(n, x - k) for k in range(-10, 11))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        for n in range(12):
            for x in (0.3, 1.7, 2.2):
                assert bspline_value(n, x) == bspline_value(n, -x)

    def test_degree_out_of_range(self):
        for degree in (-1, 12):
            for build in (lambda n: bspline_value(n, 0.0), bspline_samples, bspline_generator):
                with pytest.raises(ValueError, match="degree"):
                    build(degree)

    @given(st.integers(0, 11), st.floats(-7, 7))
    @at_half_integers
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_reference(self, n, x):
        assert bspline_value(n, x) == exact_bspline(n, x)


@pytest.mark.parametrize("step", [1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64, 0.1, 1 / 3])
def test_bspline_grid_matches_exact_reference(step):
    M = round(1 / step)
    for n in range(12):
        xs, vals = bspline_grid(n, step)
        js = np.rint(xs * M).astype(int)
        assert np.array_equal(xs, js / M) and np.array_equal(np.diff(js), np.ones(len(js) - 1))
        assert xs[0] < -(n + 1) / 2 and xs[-1] > (n + 1) / 2
        assert vals.tolist() == [exact_bspline(n, Fraction(int(j), M)) for j in js]


@pytest.mark.parametrize("step", [0.0, 2.0, -0.25, float("nan"), float("inf"), 1e-320])
@pytest.mark.parametrize(
    "build",
    [lambda s: bspline_grid(3, s),
     lambda s: lagrange_kernel_space(bspline_generator(3), grid_step=s),
     lambda s: lagrange_kernel_fourier(bspline_generator(3), grid_step=s)],
    ids=["grid", "space", "fourier"],
)
def test_grid_step_without_a_point_per_unit_raises(build, step):
    with pytest.raises(ValueError, match="grid_step"):
        build(step)


@pytest.mark.parametrize("build", [lagrange_kernel_space, lagrange_kernel_fourier], ids=["space", "fourier"])
def test_kernel_grid_over_the_cap_raises(build, monkeypatch):
    # at step 1/16 and K = 20 the space route's convolution has 771 points
    # (705 upsampled taps |k| <= 22 against phi's 67) and the Fourier
    # route's FFT grid 2560; the cap is checked before any tap or phi's
    # grid is evaluated. The first call fills the per-process caches, so
    # the cached helpers are patched as well: a cap checked after a cache
    # lookup fails here
    build(bspline_generator(3), grid_step=1 / 16, K=20)
    monkeypatch.setattr(splines, "GRID_POINT_CAP", 700)
    for helper in ("bspline_grid", "invert_exact_1d", "_bspline_inverse", "_bspline_taps", "_cached_half_grid", "_half_grid"):
        monkeypatch.setattr(splines, helper, None)
    with pytest.raises(ValueError, match="exceeds 700 points"):
        build(bspline_generator(3), grid_step=1 / 16, K=20)


def clear_spline_caches():
    for cached in (splines._bspline_inverse, splines._prefilter, splines._cached_half_grid, splines._cot_coefficients):
        cached.cache_clear()
    splines._kept_taps.clear()


@pytest.mark.parametrize("degree", range(12))
def test_cached_constants_give_the_cold_results(degree):
    # each output computed on empty caches, then again from the cached
    # inverse, prefilter and half grid
    gen = bspline_generator(degree)
    data = Filter((-2,), np.linspace(-1.0, 2.0, 9))

    def outputs(M):
        kernels = [build(gen, grid_step=1 / M, K=6).samples for build in (lagrange_kernel_space, lagrange_kernel_fourier)]
        return [*bspline_grid(degree, 1 / M), *kernels, interpolate(data, gen).coeffs]

    for M in (1, 2, 3, 5, 8, 16, 64):
        clear_spline_caches()
        cold = outputs(M)
        assert all(np.array_equal(a, b) for a, b in zip(cold, outputs(M)))


def test_cached_arrays_are_read_only():
    gen = bspline_generator(3)
    exact = splines._bspline_inverse(3)
    cached = [splines._cached_half_grid(3, 16), *exact.causal, *exact.anticausal, splines._prefilter(3).coeffs]
    cached += [splines._bspline_taps(3, 40), splines._kept_taps[3]]
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    # what the public functions return is the caller's own copy
    x, v = bspline_grid(3, 1 / 16)
    kernel = lagrange_kernel_space(gen, grid_step=1 / 16, K=20)
    want = v.copy(), kernel.samples.copy()
    x[:], v[:], kernel.samples[:] = 0.0, 0.0, 0.0
    assert np.array_equal(bspline_grid(3, 1 / 16)[1], want[0])
    assert np.array_equal(lagrange_kernel_space(gen, grid_step=1 / 16, K=20).samples, want[1])


def test_half_grid_cache_is_bounded():
    # worst case retained: 64 half grids of 2^14 float64 values, 8 MiB
    assert splines._HALF_GRID_CACHE_SIZE * splines._HALF_GRID_CACHE_POINTS * 8 == 8 * 2**20
    clear_spline_caches()
    for M in range(1, 101):
        bspline_grid(2, 1 / M)
    assert splines._cached_half_grid.cache_info().currsize == splines._HALF_GRID_CACHE_SIZE
    # the degree-1 half grid at M has M + 2 points: kept up to the limit, not beyond
    clear_spline_caches()
    limit = splines._HALF_GRID_CACHE_POINTS
    bspline_grid(1, 1 / (limit - 2))
    assert splines._cached_half_grid.cache_info().currsize == 1
    x, v = bspline_grid(1, 1 / (limit - 1))
    assert splines._cached_half_grid.cache_info().currsize == 1
    mid = len(v) // 2
    assert (x[mid], v[mid]) == (0.0, 1.0) and np.array_equal(v, v[::-1])


LONG_TAPS = splines._HALF_GRID_CACHE_POINTS  # the largest radius whose taps are kept


@given(
    st.integers(0, 11),
    st.lists(st.one_of(st.integers(0, 300), st.integers(LONG_TAPS - 2, LONG_TAPS + 2)), min_size=1, max_size=5),
)
@example(3, [5, 2, 40, 0, 40])
@example(11, [LONG_TAPS + 1, 7, LONG_TAPS, 3])
@settings(max_examples=15, deadline=None)
def test_kept_taps_are_the_fresh_taps(degree, radii):
    # whatever was asked before, each answer is a fresh evaluation, byte for byte
    splines._kept_taps.clear()
    for r in radii:
        got = splines._bspline_taps(degree, r)
        want = invert_exact_1d(bspline_samples(degree)).evaluate(np.arange(-r, r + 1))
        assert got.tobytes() == want.tobytes(), r
        assert not got.flags.writeable


def test_kept_taps_are_bounded():
    # worst case retained: 12 degrees of 2 x 2^14 + 1 float64 taps, 3 MiB
    assert 12 * (2 * LONG_TAPS + 1) * 8 <= 3.01 * 2**20
    splines._kept_taps.clear()
    splines._bspline_taps(2, 10)
    splines._bspline_taps(2, LONG_TAPS + 5)
    assert len(splines._kept_taps[2]) == 21
    splines._bspline_taps(2, LONG_TAPS)
    splines._bspline_taps(2, LONG_TAPS + 1)
    assert len(splines._kept_taps[2]) == 2 * LONG_TAPS + 1


@pytest.mark.parametrize("degree", range(2, 12))
def test_inverse_filter_matches_fft_route(degree):
    # interpolate's inverse filter, read off as its response to delta,
    # against invert_stable's FFT inverse on its window
    samples = bspline_samples(degree)
    h = interpolate(kronecker(1), bspline_generator(degree))
    radius = -h.origin[0]
    window = Box((-radius,), (2 * radius + 1,))
    assert h.support == window
    ref = invert_stable(samples, splines.TAIL_TOL, radius).on_box(window)
    assert np.max(np.abs(h.coeffs - ref)) <= 1e-14 * np.max(np.abs(ref))


def per_tap_kernel(degree, step, K):
    """The space kernel on |j| <= K M as phi's grid added once per tap, for
    every exact tap |k| <= K + (degree + 1)//2 that phi reaches |x| <= K from."""
    M = round(1 / step)
    r = K + (degree + 1) // 2
    ks = np.arange(-r, r + 1)
    h = invert_exact_1d(bspline_samples(degree)).evaluate(ks)
    phi_xs, phi_vals = bspline_grid(degree, step)
    n_side = (r + degree + 2) * M
    acc = np.zeros(2 * n_side + 1)
    for k, v in zip(ks, h):
        acc[np.rint(phi_xs * M).astype(int) + k * M + n_side] += v * phi_vals
    return acc[n_side - K * M : n_side + K * M + 1]


@pytest.mark.parametrize("step", [1 / 2, 1 / 3, 1 / 8, 1 / 64])
def test_space_kernel_matches_per_tap_sum(step):
    for degree in range(12):
        k = lagrange_kernel_space(bspline_generator(degree), grid_step=step, K=20)
        assert np.max(np.abs(k.samples - per_tap_kernel(degree, step, 20))) <= 4e-15


class TestBsplineSamples:
    def test_cubic_1d(self):
        f = bspline_samples(3)
        assert f.origin == (-1,)
        np.testing.assert_allclose(f.coeffs, np.array([1, 4, 1]) / 6.0)

    def test_tensor_2d(self):
        f = bspline_samples(3, d=2)
        line = np.array([1, 4, 1]) / 6.0
        np.testing.assert_allclose(f.coeffs, np.outer(line, line))

    def test_degree1_is_delta(self):
        f = bspline_samples(1)
        assert f.origin == (0,) and f.coeffs[0] == 1.0

    @pytest.mark.parametrize("d", [0, -1, 65])
    def test_dimension_outside_1_to_64_raises(self, d):
        with pytest.raises(ValueError, match=f"d must be in \\[1, 64\\], got {d}"):
            bspline_samples(3, d)

    def test_samples_over_the_cap_raise_before_allocating(self, monkeypatch):
        # degree 3 at d = 17 would be 3^17 points, about 1 GB
        with pytest.raises(ValueError, match="3\\^17 B-spline samples exceed"):
            bspline_samples(3, 17)
        monkeypatch.setattr(splines, "GRID_POINT_CAP", 9)
        assert bspline_samples(3, 2).coeffs.size == 9
        with pytest.raises(ValueError, match="3\\^3 B-spline samples exceed 9 points"):
            bspline_samples(3, 3)


# w0 = 0, +-pi and seeded random points of [-pi, pi]
W0 = np.concatenate([[0.0, np.pi, -np.pi], np.random.default_rng(7).uniform(-np.pi, np.pi, 16)])
SHELLS = 2**14


def shell_sum(term, c, m, w=W0):
    """sum_{|n| <= SHELLS} term(w, n), and a bound on the dropped shells
    when |term(w, n)| <= c (|n| - 1/2)^-m for every w:
    2 sum_{n > S} c (n - 1/2)^-m <= 2 c (S - 1/2)^(1-m) / (m - 1)."""
    ns = np.arange(-SHELLS, SHELLS + 1)
    total = np.sum(term(w[:, None], ns[None, :]), axis=1)
    return total, 2.0 * c * (SHELLS - 0.5) ** (1 - m) / (m - 1)


def coset_sum(gen, w0, Mf):
    """|w0|^p sum_n phihat(w0 + 2 pi n) as lagrange_kernel_fourier forms it:
    sum_{r < Mf} aliased(w0 + 2 pi r, Mf), each frequency wrapped into
    [-pi Mf, pi Mf]."""
    w = w0[:, None] + 2 * np.pi * np.arange(Mf)
    return gen.aliased(w - 2 * np.pi * Mf * np.round(w / (2 * np.pi * Mf)), Mf).sum(axis=1)


COSET_MFS = [2, 4, 16]


class TestPeriodizedSymbol:
    @pytest.mark.parametrize("degree", [0, 1])
    def test_delta_samples_give_one(self, degree):
        # the integer samples of degrees 0 and 1 are delta
        for Mf in COSET_MFS:
            np.testing.assert_allclose(coset_sum(bspline_generator(degree), W0, Mf), 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("degree", range(1, 12))
    def test_bspline_matches_shell_sum(self, degree):
        # |sinc((w0 + 2 pi n) / 2 pi)|^m <= (pi (|n| - 1/2))^-m, m = degree + 1
        m = degree + 1
        want, tail = shell_sum(lambda w, n: np.sinc(w / (2 * np.pi) + n) ** m, np.pi**-m, m)
        for Mf in COSET_MFS:
            got = coset_sum(bspline_generator(degree), W0, Mf)
            np.testing.assert_allclose(got, want, rtol=0, atol=tail + 1e-13)

    @pytest.mark.parametrize("p", [2, 4, 6, 8])
    def test_green_power_matches_shell_sum(self, p):
        # |w0|^p sum_n |w0 + 2 pi n|^-p, the n = 0 term being 1; the others
        # are at most (pi / (2 pi (|n| - 1/2)))^p = 2^-p (|n| - 1/2)^-p
        def term(w, n):
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (np.abs(w) / np.abs(w + 2 * np.pi * n)) ** p
            return np.where(n == 0, 1.0, t)

        want, tail = shell_sum(term, 2.0**-p, p)
        for Mf in COSET_MFS:
            got = coset_sum(green_power_generator(p), W0, Mf)
            np.testing.assert_allclose(got, want, rtol=0, atol=tail + 1e-13)

    def test_green_power_2_csc_identity(self):
        # sum_n (x + n)^-2 = pi^2 / sin^2(pi x): the p = 2 shell sum above
        # converges too slowly to pin it closely
        w = W0[W0 != 0]
        want = (w / 2) ** 2 / np.sin(w / 2) ** 2
        gen = green_power_generator(2)
        for Mf in COSET_MFS:
            np.testing.assert_allclose(coset_sum(gen, w, Mf), want, rtol=1e-14)
            assert coset_sum(gen, np.array([0.0]), Mf)[0] == 1.0


def omegas(Mf):
    """0, +-pi Mf, the lattice frequencies +-2 pi and seeded random points
    of [-pi Mf, pi Mf]."""
    rng = np.random.default_rng(Mf)
    fixed = [0.0, np.pi * Mf, -np.pi * Mf, 2 * np.pi, -2 * np.pi]
    return np.concatenate([fixed, rng.uniform(-np.pi * Mf, np.pi * Mf, 12)])


@pytest.mark.parametrize("Mf", [2, 4, 8, 16, 64])
class TestAliasedSymbol:
    @pytest.mark.parametrize("degree", range(1, 12))
    def test_bspline_matches_shell_sum(self, degree, Mf):
        # |sinc((w + 2 pi Mf n) / 2 pi)|^m <= (pi Mf (|n| - 1/2))^-m, m = degree + 1
        m, w = degree + 1, omegas(Mf)
        term = lambda w, n: np.sinc(w / (2 * np.pi) + Mf * n) ** m
        want, tail = shell_sum(term, (np.pi * Mf) ** -m, m, w)
        got = bspline_generator(degree).aliased(w, Mf)
        np.testing.assert_allclose(got, want, rtol=0, atol=tail + 1e-13)

    @pytest.mark.parametrize("p", [2, 4, 6, 8, splines.MAX_GREEN_ORDER])
    def test_green_power_matches_shell_sum(self, p, Mf):
        # |w0|^p sum_n |w + 2 pi Mf n|^-p, the n = 0 term being (|w0| / |w|)^p
        # (1 at w = 0); the others are at most (2 Mf (|n| - 1/2))^-p
        w = omegas(Mf)
        w0 = np.abs(w - 2 * np.pi * np.round(w / (2 * np.pi)))

        def term(w, n):
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (w0[:, None] / np.abs(w + 2 * np.pi * Mf * n)) ** p
            return np.where((n == 0) & (w == 0), 1.0, t)

        want, tail = shell_sum(term, (2.0 * Mf) ** -p, p, w)
        got = green_power_generator(p).aliased(w, Mf)
        np.testing.assert_allclose(got, want, rtol=0, atol=tail + 1e-13)

    def test_matches_polygamma_and_zeta_forms(self, Mf):
        # the shells m != 0 in polygamma form (finite at p = 1) for B-splines,
        # in Hurwitz zeta form for |w|^-p, y = w / 2 pi Mf
        from scipy.special import polygamma, zeta

        w = omegas(Mf)
        y = w / (2 * np.pi * Mf)
        for p in range(1, 13):
            shells = ((-1) ** p * polygamma(p - 1, 1 + y) + polygamma(p - 1, 1 - y)) / math.factorial(p - 1)
            want = np.sinc(w / (2 * np.pi)) ** p + (np.sin(w / 2) / (np.pi * Mf)) ** p * shells
            np.testing.assert_allclose(bspline_generator(p - 1).aliased(w, Mf), want, rtol=0, atol=5e-15)
        w0 = np.abs(w - 2 * np.pi * np.round(w / (2 * np.pi)))
        central = np.divide(w0, np.abs(w), out=np.ones_like(w), where=w != 0)
        for p in range(2, 13, 2):
            want = central**p + (w0 / (2 * np.pi * Mf)) ** p * (zeta(p, 1 + np.abs(y)) + zeta(p, 1 - np.abs(y)))
            np.testing.assert_allclose(green_power_generator(p).aliased(w, Mf), want, rtol=0, atol=5e-15)

    def test_low_degrees_closed_forms(self, Mf):
        # sum_n 1/(y + n) = pi cot(pi y) and sum_n 1/(y + n)^2 = pi^2 / sin^2(pi y)
        # with y = w / 2 pi Mf: the box's alias sum is sin(w/2) cot(w / 2 Mf) / Mf
        # and the hat's is the Fejer kernel; the shell sum above cannot take
        # the box, whose shells are not absolutely summable
        w = omegas(Mf)[1:]  # w != 0
        box = np.sin(w / 2) / np.tan(w / (2 * Mf)) / Mf
        hat = (np.sin(w / 2) / (Mf * np.sin(w / (2 * Mf)))) ** 2
        np.testing.assert_allclose(bspline_generator(0).aliased(w, Mf), box, rtol=0, atol=1e-14)
        np.testing.assert_allclose(bspline_generator(1).aliased(w, Mf), hat, rtol=0, atol=1e-14)
        assert bspline_generator(0).aliased(0.0, Mf) == 1.0


@pytest.fixture(scope="module")
def kernel():
    return lagrange_kernel_space(bspline_generator(3), grid_step=1.0 / 16, K=20)


@pytest.fixture(scope="module")
def wide_kernel():
    return lagrange_kernel_space(bspline_generator(3), grid_step=1.0 / 16, K=47)


class TestLagrangeKernelSpace:
    def test_interpolating_at_integers(self, kernel):
        want = (np.arange(-20, 21) == 0).astype(float)
        np.testing.assert_allclose(kernel.integer_samples, want, atol=1e-9)

    def test_decay_rate(self, kernel):
        assert kernel.decay.model == "exponential"
        assert kernel.decay.rate == pytest.approx(RATE, rel=1e-15)

    @pytest.mark.parametrize("build", [lagrange_kernel_space, lagrange_kernel_fourier], ids=["space", "fourier"])
    @pytest.mark.parametrize("K", [6, 10, 15])
    def test_short_kernel_decay_is_fitted(self, build, K):
        # the rate is the generator's, however few samples the kernel has
        k = build(bspline_generator(3), grid_step=1.0 / 16, K=K)
        assert k.decay.model == "exponential"
        assert k.decay.rate == splines._bspline_inverse(3).decay_rate

    def test_evaluate_on_and_off_grid(self, kernel):
        on = kernel.evaluate([0.0625])[0]
        assert on == kernel.samples[list(kernel.positions).index(0.0625)]
        off = kernel.evaluate([0.03])[0]
        lo, hi = kernel.evaluate([0.0])[0], on
        assert min(lo, hi) <= off <= max(lo, hi)
        assert kernel.evaluate([25.0])[0] == 0.0

    def test_evaluate_is_zero_past_the_grid_ends(self):
        # within half a step past an end, rint(idx) is the end sample's index
        coarse = lagrange_kernel_space(bspline_generator(3), grid_step=0.25, K=20)
        xs = np.array([20 + 0.25 / 4, 20.1])
        np.testing.assert_array_equal(coarse.evaluate(np.r_[xs, -xs]), 0.0)
        assert coarse.evaluate([20.0])[0] == coarse.samples[-1]

    def test_even_symmetry(self, kernel):
        mid = len(kernel.samples) // 2
        np.testing.assert_allclose(kernel.samples, kernel.samples[::-1], atol=1e-12)
        assert kernel.samples[mid] == pytest.approx(1.0, abs=1e-12)


class TestLagrangeKernelFourier:
    def test_route_equivalence(self):
        ks = lagrange_kernel_space(bspline_generator(3), grid_step=1.0 / 16, K=20)
        kf = lagrange_kernel_fourier(green_power_generator(4), grid_step=1.0 / 16, K=20)
        assert np.max(np.abs(ks.samples - kf.samples)) <= 1e-12
        assert kf.decay.rate == pytest.approx(RATE, abs=1e-3)

    def test_bspline_symbol_route(self):
        # periodizing the B-spline symbol itself (no pole) gives the
        # same kernel as the space route
        ks = lagrange_kernel_space(bspline_generator(3), grid_step=1.0 / 16, K=20)
        kf = lagrange_kernel_fourier(bspline_generator(3), grid_step=1.0 / 16, K=20)
        assert np.max(np.abs(ks.samples - kf.samples)) <= 1e-12

    @pytest.mark.parametrize("step", [1 / 8, 1 / 16, 1 / 4, 1 / 3])
    @pytest.mark.parametrize("degree", range(2, 12))
    def test_routes_agree(self, degree, step):
        ks = lagrange_kernel_space(bspline_generator(degree), grid_step=step, K=20)
        kf = lagrange_kernel_fourier(bspline_generator(degree), grid_step=step, K=20)
        np.testing.assert_array_equal(ks.positions, kf.positions)
        assert np.max(np.abs(ks.samples - kf.samples)) <= 5e-15
        assert ks.decay.rate == kf.decay.rate == splines._bspline_inverse(degree).decay_rate

    def test_interpolating_at_integers(self):
        # each coset of the ratio sums to 1, so delta holds to roundoff;
        # an odd M (steps 1/3 and 1/5) goes through Mf = 2M
        gens = [bspline_generator(n) for n in range(12)] + [green_power_generator(p) for p in (2, 4, 6, 8)]
        want = (np.arange(-20, 21) == 0).astype(float)
        for gen in gens:
            for step in (1 / 16, 1 / 3, 1 / 5):
                kf = lagrange_kernel_fourier(gen, grid_step=step, K=20)
                np.testing.assert_allclose(kf.integer_samples, want, rtol=0, atol=1e-15, err_msg=f"{gen.params} {step}")

    @pytest.mark.parametrize("K", [5, 20, 40])
    def test_half_grid_alias_sum_is_the_full_grid_one(self, K):
        # the alias sum taken on the full fftfreq grid, its negative half
        # included: the mirrored half grid must give the same bytes
        def full_grid_samples(gen, step):
            M = splines._grid_points(step)
            Mf = M if M % 2 == 0 else 2 * M
            rate = splines._decay_rate(gen)
            N = max(2 * Mf * max(4 * K, 64), 2 * Mf * math.ceil(20 / rate))
            aliased = gen.aliased(2.0 * np.pi * Mf * np.fft.fftfreq(N), Mf)
            periodized = np.tile(aliased.reshape(Mf, -1).sum(axis=0), Mf)
            space = np.fft.ifft(aliased / periodized).real * Mf
            return space[np.arange(-K * M, K * M + 1) * (Mf // M) % N]

        gens = [bspline_generator(n) for n in range(12)] + [green_power_generator(p) for p in range(2, 21, 2)]
        for gen in gens:
            for step in (1 / 2, 1 / 3, 1 / 5, 1 / 8, 1 / 16, 1 / 7):
                want = full_grid_samples(gen, step)
                got = lagrange_kernel_fourier(gen, grid_step=step, K=K).samples
                assert got.tobytes() == want.tobytes(), f"{gen.params} {step}"

    def test_green_power_2_is_the_hat(self):
        # D^2's Green kernel interpolant is the degree-1 B-spline
        kf = lagrange_kernel_fourier(green_power_generator(2))
        hat = np.maximum(1.0 - np.abs(kf.positions), 0.0)
        assert np.max(np.abs(kf.samples - hat)) <= 1e-14
        assert kf.decay.model == "compact"

    def test_generator_validation(self):
        for order in (0, 3, splines.MAX_GREEN_ORDER + 2, 10**6):
            with pytest.raises(ValueError, match="even integer"):
                green_power_generator(order)


@pytest.mark.parametrize("build", [lagrange_kernel_space, lagrange_kernel_fourier], ids=["space", "fourier"])
@pytest.mark.parametrize("step", [1 / 16, 1 / 3])
def test_box_and_hat_are_compact(build, step):
    box = lambda x: np.where(np.abs(x) < 0.5, 1.0, np.where(np.abs(x) == 0.5, 0.5, 0.0))
    hat = lambda x: np.maximum(1.0 - np.abs(x), 0.0)
    for degree, want in ((0, box), (1, hat)):
        k = build(bspline_generator(degree), grid_step=step, K=6)
        assert np.max(np.abs(k.samples - want(k.positions))) <= 1e-15
        assert k.decay == DecayReport("compact", np.inf, -np.inf, np.max(k.samples), 0.0)


def kernel_cases():
    """(build, generator) for B-spline degrees 2-11 by both routes and
    green_power orders 4-40."""
    bsplines = [(build, bspline_generator(n)) for n in range(2, 12) for build in (lagrange_kernel_space, lagrange_kernel_fourier)]
    greens = [(lagrange_kernel_fourier, green_power_generator(p)) for p in range(4, 41, 2)]
    ids = [f"{b.__name__.split('_')[-1]}-degree{g.params['degree']}" for b, g in bsplines]
    ids += [f"green{g.params['order']}" for _, g in greens]
    return pytest.mark.parametrize("build, gen", bsplines + greens, ids=ids)


class TestKernelDecay:
    @pytest.mark.parametrize("p", range(4, 13, 2))
    def test_green_rate_is_the_bspline_rate(self, p):
        # Schoenberg: green_power(p) and the degree p - 1 B-spline share their
        # Lagrange kernel; the rates come from the alias sum and from the roots
        assert abs(splines._green_decay_rate(p) - splines._bspline_inverse(p - 1).decay_rate) <= 1e-14

    @pytest.mark.parametrize("p", [4, 12, 40, 80, 160])
    def test_green_rate_brackets_a_zero(self, p):
        # R(u) = sum_j |c_j| (-u)^(j/2), in exact rationals, changes sign
        # within 1e-12 of u = tanh^2(a / 2)
        coeffs = [abs(c) * (-1) ** i for i, c in enumerate(splines._cot_coefficients(p)[::2])]
        u = Fraction(math.tanh(splines._green_decay_rate(p) / 2) ** 2)

        def R(v):
            return sum(c * v**i for i, c in enumerate(coeffs))

        assert R(u * (1 - Fraction(1, 10**12))) > 0 > R(u * (1 + Fraction(1, 10**12)))

    @kernel_cases()
    def test_samples_decay_at_the_rate(self, build, gen):
        # envelope maxima over unit intervals, halfway out and at the last
        # one where the samples exceed 1e-10 of their largest
        k = build(gen, grid_step=1 / 16, K=40)
        x, size = np.abs(k.positions), np.abs(k.samples)
        env = np.zeros(41)
        np.maximum.at(env, np.floor(x).astype(int), size)
        far = int(np.flatnonzero(env[:40] > 1e-10 * np.max(size))[-1])
        near = far // 2
        assert near >= 6
        assert abs(np.log(env[near] / env[far]) / (far - near) - k.decay.rate) <= 1e-3

    @kernel_cases()
    @pytest.mark.parametrize("step, K", [(1 / 8, 20), (1 / 16, 30), (1 / 32, 20), (1 / 64, 40)])
    def test_samples_lie_under_the_envelope(self, build, gen, step, K):
        k = build(gen, grid_step=step, K=K)
        assert k.decay.model == "exponential" and k.decay.rate == splines._decay_rate(gen)
        size = np.abs(k.samples)
        keep = size >= np.max(size) * 1e-12  # below, the samples are roundoff
        scaled = size[keep] * np.exp(k.decay.rate * np.abs(k.positions[keep]))
        assert np.all(scaled <= k.decay.fit_constant)
        assert np.abs(k.positions[keep])[np.argmax(scaled)] < 1.0

    @pytest.mark.parametrize("build", [lagrange_kernel_space, lagrange_kernel_fourier], ids=["space", "fourier"])
    @pytest.mark.parametrize("degree", [3, 7, 11])
    def test_one_ulp_moves_the_constant_by_a_few_ulps(self, build, degree):
        k = build(bspline_generator(degree), grid_step=1 / 16, K=20)
        rng = np.random.default_rng(degree)
        moved = np.where(rng.integers(2, size=k.samples.size) == 1, np.nextafter(k.samples, np.inf), k.samples)
        C = splines._kernel(16, 20, moved, k.decay.rate).decay.fit_constant
        assert abs(C - k.decay.fit_constant) <= 4 * np.spacing(k.decay.fit_constant)

    @pytest.mark.parametrize("p", [80, 160])
    def test_fourier_grid_grows_with_the_decay_length(self, p):
        # the FFT grid's aliases sit at least 40 / rate away, whatever K
        short = lagrange_kernel_fourier(green_power_generator(p), grid_step=1 / 16, K=20)
        wide = lagrange_kernel_fourier(green_power_generator(p), grid_step=1 / 16, K=200)
        mid = len(wide.samples) // 2
        np.testing.assert_allclose(short.samples, wide.samples[mid - 320 : mid + 321], rtol=0, atol=1e-13)


class TestInterpolate:
    def test_integer_data_reproduced(self):
        rng = np.random.default_rng(0)
        data = Filter((-5,), rng.standard_normal(11))
        c = interpolate(data, bspline_generator(3))
        recon = convolve(bspline_samples(3), c)
        for k in range(-5, 6):
            assert recon.coeff_at((k,)) == pytest.approx(data.coeff_at((k,)), abs=1e-9)

    def test_2d(self):
        rng = np.random.default_rng(1)
        data = Filter((-2, -2), rng.standard_normal((5, 5)))
        c = interpolate(data, bspline_generator(3))
        recon = convolve(bspline_samples(3, d=2), c)
        for i in range(-2, 3):
            for j in range(-2, 3):
                assert recon.coeff_at((i, j)) == pytest.approx(
                    data.coeff_at((i, j)), abs=1e-8
                )

    def test_4d(self):
        rng = np.random.default_rng(2)
        data = Filter((-1,) * 4, rng.standard_normal((2,) * 4))
        c = interpolate(data, bspline_generator(3))
        # the cubic's samples reach one step, so the data box needs c only
        # on the box one step wider
        near = Filter((-2,) * 4, c.on_box(Box((-2,) * 4, (4,) * 4)))
        recon = convolve(bspline_samples(3, d=4), near).on_box(data.support)
        np.testing.assert_allclose(recon, data.coeffs, rtol=0, atol=1e-12)


class TestReproduction:
    def test_truncated_cubic(self, wide_kernel):
        xs = np.arange(-5.0, 5.0 + 1e-9, 1.0 / 16)
        res = reproduction_check(
            lambda k: np.where(k >= 0, k.astype(float) ** 3, 0.0),
            wide_kernel,
            lambda x: max(x, 0.0) ** 3,
            xs,
            K_sum=40,
            tol=1e-6,
        )
        assert res["max_residual"] <= 1e-6

    def test_absolute_cubic(self, wide_kernel):
        xs = np.arange(-5.0, 5.0 + 1e-9, 1.0 / 16)
        res = reproduction_check(
            lambda k: np.abs(k.astype(float)) ** 3,
            wide_kernel,
            lambda x: abs(x) ** 3,
            xs,
            K_sum=40,
            tol=1e-6,
        )
        assert res["max_residual"] <= 1e-6

    @pytest.mark.parametrize(
        "p, target",
        [(lambda k: np.where(k >= 0, k.astype(float) ** 3, 0.0), lambda x: max(x, 0.0) ** 3),
         (lambda k: np.abs(k.astype(float)) ** 3, lambda x: abs(x) ** 3)],
        ids=["xplus3", "absx3"],
    )
    def test_exact_to_roundoff(self, wide_kernel, p, target):
        # the kernel holds every tap its window needs, so nothing but
        # roundoff is left of the identities on |x| <= 5
        xs = np.arange(-5.0, 5.0 + 1e-9, 1.0 / 16)
        assert reproduction_check(p, wide_kernel, target, xs, K_sum=40, tol=1e-6)["max_residual"] <= 1e-12

    def test_values_match_per_x_sum(self, wide_kernel):
        xs = np.arange(-5.0, 5.0 + 1e-9, 1.0 / 16)
        ks = np.arange(-40, 41)
        p = lambda k: np.abs(k.astype(float)) ** 3
        res = reproduction_check(p, wide_kernel, lambda x: abs(x) ** 3, xs, K_sum=40, tol=1e-6)
        want = np.array([np.dot(p(ks), wide_kernel.evaluate(x - ks)) for x in xs])
        assert np.max(np.abs(res["values"] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_grid_over_the_cap_raises(self, wide_kernel, monkeypatch):
        # the kernel is evaluated on all 161 x 81 points (x, k) at once
        xs = np.arange(-5.0, 5.0 + 1e-9, 1.0 / 16)
        args = (lambda k: np.abs(k.astype(float)) ** 3, wide_kernel, lambda x: abs(x) ** 3, xs)
        reproduction_check(*args, K_sum=40, tol=1e-6)
        monkeypatch.setattr(splines, "GRID_POINT_CAP", 161 * 81 - 1)
        with pytest.raises(ValueError, match="161 x 81 points exceeds"):
            reproduction_check(*args, K_sum=40, tol=1e-6)

    @pytest.mark.parametrize(
        "xs, K_sum, tol, match",
        [([], 40, 1e-6, "xs must be non-empty and finite"),
         ([0.0, np.nan], 40, 1e-6, "xs must be non-empty and finite"),
         ([np.inf], 40, 1e-6, "xs must be non-empty and finite"),
         ([0.0], -3, 1e-6, "K_sum must be >= 0"),
         ([0.0], 40, np.nan, "tol must be >= 0"),
         ([0.0], 40, -1.0, "tol must be >= 0")],
    )
    def test_bad_arguments_raise(self, wide_kernel, xs, K_sum, tol, match):
        with pytest.raises(ValueError, match=match):
            reproduction_check(lambda k: np.abs(k.astype(float)) ** 3, wide_kernel, abs, xs, K_sum=K_sum, tol=tol)

    def test_kernel_narrower_than_the_sum_raises(self):
        # K = 10 cuts phi_int(x - k) for |x - k| > 10, a cut the tail bound
        # misses: the sum once passed tol 1e-6 with a residual of 2.5e-3
        narrow = lagrange_kernel_space(bspline_generator(3), grid_step=1.0 / 16, K=10)
        xs = np.arange(-5.0, 5.0 + 1e-9, 1.0 / 16)

        def p(k):
            raise AssertionError("evaluated before the range check")

        with pytest.raises(ValueError, match="integer_range 10 < max\\|x\\| \\+ K_sum = 45"):
            reproduction_check(p, narrow, abs, xs, K_sum=40, tol=1e-6)
        exact = lagrange_kernel_space(bspline_generator(3), grid_step=1.0 / 16, K=45)
        res = reproduction_check(lambda k: np.abs(k.astype(float)) ** 3, exact, lambda x: abs(x) ** 3, xs, K_sum=40, tol=1e-6)
        assert res["max_residual"] <= 1e-12

    def test_tail_bound_enforced(self, wide_kernel):
        xs = np.array([0.5])
        with pytest.raises(TailBoundError):
            reproduction_check(
                lambda k: np.abs(k.astype(float)) ** 3,
                wide_kernel,
                lambda x: abs(x) ** 3,
                xs,
                K_sum=5,
                tol=1e-12,
            )


class TestAmalgamNorm:
    def test_bspline_partition_bound(self):
        # with the flat weight the cubic B-spline sums to 1 at every offset
        w = polynomial_weight(0)
        phi = lambda xs: np.array([bspline_value(3, x) for x in np.atleast_1d(xs)])
        assert amalgam_norm(phi, w, K=4) == pytest.approx(1.0, abs=1e-12)

    def test_transfer_inequality(self):
        w = polynomial_weight(2)
        phi = lambda xs: np.array([bspline_value(3, x) for x in np.atleast_1d(xs)])
        phi_norm = amalgam_norm(phi, w, K=6)
        rng = np.random.default_rng(2)
        from wienerlab import weighted_norm

        for _ in range(20):
            vals = rng.standard_normal(7)
            a = Filter((-3,), vals)

            def psi(xs, vals=vals):
                xs = np.atleast_1d(xs)
                return sum(v * phi(xs - k) for k, v in zip(range(-3, 4), vals))

            lhs = amalgam_norm(psi, w, K=12)
            rhs = phi_norm * weighted_norm(a, 1, w)
            assert lhs <= rhs * (1 + 1e-9)


class TestFormats:
    def test_csv_round_trip(self, tmp_path):
        kernel = lagrange_kernel_space(bspline_generator(3), K=20)
        path = tmp_path / "kernel.csv"
        kernel_to_csv(kernel, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# wienerlab lagrange kernel")
        assert lines[1] == "x,value"
        xs, vs = np.loadtxt(lines[2:], delimiter=",", unpack=True)
        np.testing.assert_allclose(xs, kernel.positions)
        np.testing.assert_allclose(vs, kernel.samples)

    def test_csv_rows_match_the_per_row_layout(self, tmp_path, monkeypatch):
        # blocks of 3 rows, so 7 rows cross two block boundaries
        monkeypatch.setattr(splines, "_CSV_BLOCK_ROWS", 3)
        kernel = lagrange_kernel_space(bspline_generator(1), grid_step=0.5, K=1)
        vals = np.array([-0.0, 5e-324, 1e16, 2.0**53 + 2, 0.1 + 0.2, 1 / 3, -1e-300])
        kernel = splines.LagrangeKernel(0.5, vals[::-1] * 7, vals, vals[::2], 1, kernel.decay)
        path = tmp_path / "kernel.csv"
        kernel_to_csv(kernel, path)
        rows = path.read_text().splitlines(keepends=True)[2:]
        assert rows == [f"{x:.17g},{v:.17g}\n" for x, v in zip(kernel.positions, kernel.samples)]

    def test_generator_json(self):
        g = generator_from_json({"kind": "bspline", "params": {"degree": 3}})
        assert g.params["degree"] == 3
        g = generator_from_json({"kind": "green_power", "params": {"order": 4}})
        assert g.kind == "green_power" and g.params["order"] == 4
        with pytest.raises(ValueError):
            generator_from_json({"kind": "wavelet", "params": {}})
