import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wienerlab import (
    Box,
    Filter,
    ModulusCertificate,
    NotInvertibleError,
    SingularSymbolError,
    ToleranceUnreachableError,
    WrongBranchError,
    bspline_samples,
    convolve,
    decay_fit,
    invert_exact_1d,
    invert_singular_1d,
    invert_stable,
    kronecker,
    min_modulus_certified,
    residual_sup,
    toeplitz_oracle,
)
from wienerlab import inversion

SQRT3 = np.sqrt(3.0)


def cubic():
    return Filter((-1,), np.array([1.0, 4.0, 1.0]) / 6.0)


def stable_filter(rng, deg, min_gap=0.02, shift_range=3, complex_roots=False):
    """Random filter whose symbol roots lie in 0.05 <= |z| <= 0.8.

    Real, with roots in conjugate pairs, unless complex_roots: then every
    root has a uniform angle and the filter is complex. Root pairs closer
    than min_gap are resampled, so the draws stay generic; repeated and
    crowded roots have their own tests.
    """
    while True:
        roots = []
        while len(roots) < deg:
            if complex_roots:
                roots.append(rng.uniform(0.05, 0.8) * np.exp(2j * np.pi * rng.random()))
            elif deg - len(roots) >= 2 and rng.random() < 0.5:
                rad = rng.uniform(0.05, 0.8)
                ang = rng.uniform(0.0, np.pi)
                z = rad * np.exp(1j * ang)
                roots += [z, np.conj(z)]
            else:
                roots.append(complex(rng.uniform(0.05, 0.8) * rng.choice([-1, 1])))
        gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]]
        if min(gaps, default=1.0) >= min_gap:
            break
    shift = int(rng.integers(-shift_range, shift_range + 1))
    coeffs = np.poly(roots)
    return Filter((shift,), coeffs if complex_roots else np.real(coeffs))


def from_roots(roots, origin):
    """Real filter at `origin` with the given symbol roots, max |coefficient| 1."""
    c = np.real(np.poly(roots))
    return Filter((origin,), c / np.max(np.abs(c)))


PAIR, FAR_PAIR = 0.5 * np.exp(0.9j), np.exp(2.1j) / 0.55
INNER_12 = [0.5 * np.exp(s * 1j * np.pi * (2 * j + 1) / 12) for j in range(6) for s in (1, -1)]
OUTER_12 = [2.0 * np.exp(s * 1j * (np.pi * (2 * j + 1) / 12 + 0.3)) for j in range(6) for s in (1, -1)]
# (roots, origin) of filters whose roots repeat or crowd
HARD_ROOTS = {
    "repeated-pair": ([PAIR, np.conj(PAIR)] * 2 + [-0.45, 0.6, FAR_PAIR, np.conj(FAR_PAIR)], 2),
    "triple-root": ([0.5] * 3 + [-2.0], -1),
    "degree-26": (INNER_12 + [r * (1 + 1e-3) for r in INNER_12[:2]] + OUTER_12, 0),
}


class TestExact1D:
    def test_cubic_closed_form(self):
        ex = invert_exact_1d(cubic())
        assert ex.evaluate([0])[0] == pytest.approx(SQRT3, abs=1e-12)
        assert ex.evaluate([1])[0] == pytest.approx(SQRT3 * (SQRT3 - 2), abs=1e-12)
        assert ex.evaluate([-1])[0] == pytest.approx(SQRT3 * (SQRT3 - 2), abs=1e-12)
        assert ex.decay_rate == pytest.approx(np.log(2 + SQRT3), abs=1e-12)

    def test_symmetric_inverse_of_symmetric_filter(self):
        ex = invert_exact_1d(cubic())
        ks = np.arange(1, 20)
        np.testing.assert_allclose(ex.evaluate(ks), ex.evaluate(-ks), atol=1e-14)

    def test_geometric_inverse(self):
        # (delta - a delta_{.-1})^{-1}[k] = a^k for k >= 0
        h = Filter((0,), np.array([1.0, -0.5]))
        ex = invert_exact_1d(h)
        ks = np.arange(-5, 15)
        want = np.where(ks >= 0, 0.5 ** np.maximum(ks, 0), 0.0)
        np.testing.assert_allclose(ex.evaluate(ks), want, atol=1e-14)
        assert ex.decay_rate == pytest.approx(np.log(2.0), abs=1e-12)

    def test_multiple_root(self):
        # (delta - a delta_{.-1})^2 inverse is (k+1) a^k
        a = 0.5
        base = Filter((0,), np.array([1.0, -a]))
        h = convolve(base, base)
        ex = invert_exact_1d(h)
        ks = np.arange(0, 12)
        np.testing.assert_allclose(ex.evaluate(ks), (ks + 1) * a**ks, rtol=1e-12)

    @pytest.mark.parametrize("name", sorted(HARD_ROOTS))
    def test_hard_roots_match_fft_route(self, name):
        roots, origin = HARD_ROOTS[name]
        h = from_roots(roots, origin)
        ref = invert_stable(h, 1e-12, 80).on_box(Box((-70,), (141,)))
        ev = invert_exact_1d(h).evaluate(np.arange(-70, 71))
        np.testing.assert_allclose(ev, ref, rtol=0, atol=1e-12)

    def test_residual_is_delta(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            h = stable_filter(rng, int(rng.integers(1, 9)))
            g = invert_exact_1d(h).to_filter(150)
            assert residual_sup(h, g, 100) < 1e-10

    def test_monomial_symbol(self):
        h = Filter((2,), np.array([4.0]))
        ex = invert_exact_1d(h)
        assert ex.evaluate([-2])[0] == pytest.approx(0.25)
        assert ex.evaluate([0])[0] == 0.0

    @pytest.mark.parametrize("ks", [[0.7, 1.2], [0, 0.5], [np.nan], [-np.inf], [1j]], ids=str)
    def test_non_integer_index_raises(self, ks):
        # a fractional index used to be truncated to g[0], g[1], ...
        with pytest.raises(ValueError, match="finite integers"):
            invert_exact_1d(Filter((0,), [4.0, 1.0])).evaluate(ks)

    def test_integer_valued_float_index_is_its_integer(self):
        ex = invert_exact_1d(Filter((0,), [4.0, 1.0]))
        assert np.array_equal(ex.evaluate([-1.0, 0.0, 2.0]), ex.evaluate([-1, 0, 2]))

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError, match="radius"):
            invert_exact_1d(cubic()).to_filter(-2)

    def test_unit_root_raises(self):
        with pytest.raises(SingularSymbolError) as exc:
            invert_exact_1d(Filter((0,), np.array([1.0, -1.0])))
        assert len(exc.value.unit_roots) == 1

    def test_close_unit_pair_raises(self):
        # e^{+-4e-4 i} fall in one root group whose mean is off the circle;
        # each root on its own is on it
        pair = [np.exp(4e-4j), np.exp(-4e-4j)]
        h = Filter((0,), np.real(np.poly(pair)))
        with pytest.raises(SingularSymbolError) as exc:
            invert_exact_1d(h)
        assert len(exc.value.unit_roots) == 2
        assert invert_singular_1d(h, 40).residual < 1e-12

    @given(st.integers(0, 24), st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    @example(24, 0, 0)
    @example(0, 0, 0)
    @example(3, 4, 1)
    def test_groups_match_the_closure_reference(self, n, clustered, seed):
        # some roots get 1-3 companions within 1e-4 (one group), the rest
        # stay apart; groups and their members keep the closure's order
        rng = np.random.default_rng(seed)
        roots = list(rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n))
        for r in roots[:clustered]:
            roots += list(r + 1e-4 * (rng.standard_normal(rng.integers(1, 4)) + 1j * rng.standard_normal(1)))
        roots = rng.permutation(np.asarray(roots, dtype=complex))
        near = np.abs(roots[:, None] - roots[None, :]) < inversion.ROOT_GROUP_GAP
        for _ in range(len(roots).bit_length()):
            near = near @ near
        want = [roots[row] for row in np.unique(near, axis=0)]
        got = inversion._groups(roots)
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            invert_exact_1d(Filter((0, 0), np.ones((2, 2))))


class TestInvertStable:
    def test_cubic_residual_contract(self):
        h = cubic()
        g = invert_stable(h, tail_tol=1e-12, window_radius=40)
        assert residual_sup(h, g, 39) <= 1e-12

    def test_matches_exact(self):
        h = cubic()
        g = invert_stable(h, 1e-12, 40)
        ev = invert_exact_1d(h).evaluate(np.arange(-35, 36))
        got = np.array([g.coeff_at((k,)) for k in range(-35, 36)])
        assert np.max(np.abs(got - ev)) < 1e-12

    def test_involution(self):
        h = cubic()
        g = invert_stable(h, 1e-10, 40)
        hh = invert_stable(g, 1e-8, 60)
        for k in (-1, 0, 1):
            assert hh.coeff_at((k,)) == pytest.approx(h.coeff_at((k,)), abs=1e-7)

    def test_not_invertible_raises(self):
        with pytest.raises(NotInvertibleError) as exc:
            invert_stable(Filter((0,), np.array([1.0, -1.0])))
        assert exc.value.certificate.status == "likely-singular"

    def test_negative_window_radius_raises(self):
        with pytest.raises(ValueError, match="window_radius"):
            invert_stable(cubic(), window_radius=-2)

    def test_complex_storage_of_a_real_filter_gives_a_real_inverse(self):
        # the complex FFT leaves imaginary parts at roundoff, which real_if_close drops
        h = cubic()
        g = invert_stable(Filter(h.origin, h.coeffs.astype(complex)))
        want = invert_stable(h)
        assert not g.is_complex and g.origin == want.origin
        assert np.max(np.abs(g.coeffs - want.coeffs)) < 1e-15

    def test_tolerance_unreachable(self):
        # a tolerance below the roundoff floor cannot be met at any grid
        # size, so the doubling loop must stop once the aliasing band is
        # roundoff and report the best residual it saw
        with pytest.raises(ToleranceUnreachableError) as exc:
            invert_stable(cubic(), tail_tol=1e-18, window_radius=12)
        assert 1e-18 < exc.value.best_residual < 1e-15
        assert "inf" not in str(exc.value)

    def test_window_missing_the_inverse_stops_at_roundoff(self):
        # the inverse of the cubic at origin 30 lives about k = -31, outside
        # the window of radius 20, so h*g = delta fails at k = 0 on every
        # grid; the first grid's band is already roundoff, so it stops there
        with pytest.raises(ToleranceUnreachableError, match=r"up to 64\^1"):
            invert_stable(Filter((30,), np.array([1.0, 4.0, 1.0]) / 6.0), 1e-10, 20)

    def test_aliasing_sum_above_one_at_cap(self):
        # 1/(1 - 0.99999 z^-1) decays too slowly for any grid up to the cap;
        # the error reports the aliasing sum and a finite residual
        h = Filter((0,), np.array([1.0, -0.99999]))
        cert = ModulusCertificate(64, 1e-5, 1e-5, (0.0,), "certified")
        with pytest.raises(ToleranceUnreachableError, match="sum .* >= 1") as exc:
            invert_stable(h, window_radius=10, certificate=cert)
        assert np.isfinite(exc.value.best_residual)
        assert "inf" not in str(exc.value)

    def test_grid_cap_checked_before_first_grid(self):
        # a certified d=4 filter at W = 40 would start on a 128^4 grid
        # (2 GiB of real samples)
        h = Filter((0,) * 4, np.full((2,) * 4, 0.05))
        cert = ModulusCertificate(64, 1.0, 0.5, (0.0,) * 4, "certified")
        with pytest.raises(ValueError, match="exceeds"):
            invert_stable(h, window_radius=40, certificate=cert)

    def test_slow_geometric_inverse_is_not_aliased(self):
        # the first grid (N = 32) holds 0.95^k only to 2.4e-3; the aliasing
        # bound must double it until the window is right
        g = invert_stable(Filter((0,), np.array([1.0, -0.95])), 1e-10, 10)
        ks = np.arange(-10, 11)
        want = np.where(ks >= 0, 0.95 ** np.maximum(ks, 0), 0.0)
        np.testing.assert_allclose(g.on_box(Box((-10,), (21,))), want, rtol=0, atol=1e-10)

    def test_window_beyond_the_period_of_a_shifted_filter(self):
        # the inverse of the cubic at origin 26 lives about k = -27; on the
        # first grid (N = 64) the window's k = 5..28 wrap to -59..-36, where
        # the periodized inverse is up to 1e-5, not the true 1e-18
        h = Filter((26,), np.array([1.0, 4.0, 1.0]) / 6.0)
        g = invert_stable(h, 1e-10, 28)
        want = invert_exact_1d(h).evaluate(np.arange(-28, 29))
        np.testing.assert_allclose(g.on_box(Box((-28,), (57,))), want, rtol=0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_small_windows_match_exact(self, seed, complex_roots, data):
        rng = np.random.default_rng(seed)
        h = stable_filter(rng, int(rng.integers(1, 7)), complex_roots=complex_roots)
        W = data.draw(st.integers(h.support.extent + 1, 30))
        g = invert_stable(h, 1e-10, W)
        want = invert_exact_1d(h).evaluate(np.arange(-W, W + 1))
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(g.on_box(Box((-W,), (2 * W + 1,))), want, rtol=0, atol=1e-9 * scale)

    def test_2d_separable(self):
        line = np.array([1.0, 4.0, 1.0]) / 6.0
        h2 = Filter((-1, -1), np.outer(line, line))
        g2 = invert_stable(h2, 1e-10, 30)
        ev = invert_exact_1d(cubic()).evaluate(np.arange(-20, 21))
        tensor = np.outer(ev, ev)
        got = np.array(
            [[g2.coeff_at((i, j)) for j in range(-20, 21)] for i in range(-20, 21)]
        )
        assert np.max(np.abs(got - tensor)) < 1e-9


def largest_grid(monkeypatch, h, window_radius):
    """The largest N that invert_stable folds h onto."""
    cert = min_modulus_certified(h)
    grids = []
    on_torus = Filter.on_torus

    def spy(self, N):
        grids.append(N)
        return on_torus(self, N)

    monkeypatch.setattr(Filter, "on_torus", spy)
    invert_stable(h, window_radius=window_radius, certificate=cert)
    return max(grids)


class TestGridGrowth:
    """The aliasing bound's roundoff floor scales with max |1/hhat|^2, so
    badly conditioned filters stop at the grid the residual check alone
    needed instead of doubling toward the cap."""

    def test_degree_7_tensor(self, monkeypatch):
        line = bspline_samples(7)
        h = Filter(line.origin * 2, np.outer(line.coeffs, line.coeffs))
        assert largest_grid(monkeypatch, h, 20) <= 128

    def test_degree_20_annulus(self, monkeypatch):
        # min |hhat| = 3.4e-3; the routes-1d probe's recipe
        rng = np.random.default_rng([0, 5])
        roots = rng.uniform(0.4, 0.7, 20) ** rng.choice([-1, 1], 20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
        c = np.poly(roots)
        assert largest_grid(monkeypatch, Filter((0,), c / np.max(np.abs(c))), 134) <= 512


def windowed_matrix(h, W):
    """(A, rows, cols): the matrix of g -> h*g from the window of radius W
    (cols) to the support of h*g (rows), built column by column."""
    d = h.dim
    cols = Box((-W,) * d, (2 * W + 1,) * d)
    rows = Box(np.subtract(h.origin, W), np.add(h.coeffs.shape, 2 * W))
    A = np.zeros((rows.size, cols.size), dtype=h.coeffs.dtype)
    for j, l in enumerate(cols.indices()):
        A[:, j] = convolve(h, Filter(tuple(l), np.ones((1,) * d))).on_box(rows).ravel()
    return A, rows, cols


@st.composite
def oracle_case(draw):
    """(d, W, taps per axis, origin shift, complex, seed) for the band solve."""
    d = draw(st.integers(1, 3))
    W = draw(st.integers(0, (40, 6, 2)[d - 1]))
    L = draw(st.integers(1, (12, 4, 3)[d - 1]))
    return d, W, L, draw(st.integers(-3, 3)), draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


class TestToeplitzOracle:
    def test_cubic_agreement(self):
        h = cubic()
        go = toeplitz_oracle(h, 30)
        ev = invert_exact_1d(h).evaluate(np.arange(-30, 31))
        got = np.array([go.coeff_at((k,)) for k in range(-30, 31)])
        assert np.max(np.abs(got - ev)) < 1e-8

    def test_requires_certificate(self):
        with pytest.raises(NotInvertibleError):
            toeplitz_oracle(Filter((0,), np.array([1.0, -1.0])), 10)

    def test_negative_window_radius_raises(self):
        with pytest.raises(ValueError, match="window_radius"):
            toeplitz_oracle(cubic(), -1)

    def test_2d_non_separable_matches_invert_stable(self):
        rng = np.random.default_rng(2)
        c = rng.uniform(-0.08, 0.08, (3, 3))
        c[1, 1] += 1.0
        assert np.linalg.matrix_rank(c) == 3
        h = Filter((-1, -1), c)
        inner = Box((-5, -5), (11, 11))
        gap = toeplitz_oracle(h, 10).on_box(inner) - invert_stable(h, 1e-12, 10).on_box(inner)
        assert np.max(np.abs(gap)) < 1e-10

    def test_complex_1d_matches_invert_stable(self):
        h = stable_filter(np.random.default_rng(4), 5, complex_roots=True)
        assert h.is_complex
        inner = Box((-30,), (61,))
        go = toeplitz_oracle(h, 90)
        assert go.is_complex
        assert np.max(np.abs(go.on_box(inner) - invert_stable(h, 1e-12, 90).on_box(inner))) < 1e-10

    def test_normal_matrix_over_the_cap_raises(self, monkeypatch):
        # the cubic's band is 2 wide, so blocks have BAND_BLOCK_MIN = 32 rows:
        # radius 15 holds a band of 3 * 31 * 32 = 2976 entries, radius 16 one of 3168
        monkeypatch.setattr(inversion, "GRID_POINT_CAP", 3000)
        toeplitz_oracle(cubic(), 15)
        # the cap fires before the autocorrelation or any block is computed
        monkeypatch.setattr(inversion, "convolve", None)
        monkeypatch.setattr(inversion, "_banded_cholesky", None)
        with pytest.raises(ValueError, match="window_radius 16"):
            toeplitz_oracle(cubic(), 16)

    def test_2d_large_window_matches_invert_stable(self):
        # a dense normal matrix at radius 60 would hold 14641^2 entries (1.7 GB);
        # the band holds 3 * 14641 * 244
        rng = np.random.default_rng(2)
        c = rng.uniform(-0.08, 0.08, (3, 3))
        c[1, 1] += 1.0
        h = Filter((-1, -1), c)
        gap = toeplitz_oracle(h, 60).coeffs - invert_stable(h, 1e-12, 60).coeffs
        assert np.max(np.abs(gap)) < 1e-10

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
    @settings(max_examples=10, deadline=None)
    def test_windowed_system_is_bounded_below_by_the_certificate(self, seed, d):
        # by Parseval sigma_min(A) >= min |hhat| for the windowed convolution
        # matrix A, whose rows cover the support of h*g: the certificate
        # keeps the oracle's normal matrix A^H A positive definite
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((4,) * d) + 1j * rng.standard_normal((4,) * d)
        c.flat[int(rng.integers(c.size))] += rng.uniform(0.6, 1.2) * np.sum(np.abs(c))
        h = Filter(tuple(rng.integers(-3, 4, d)), c)
        cert = min_modulus_certified(h)
        assume(cert.status == "certified")
        A, _, _ = windowed_matrix(h, 12 if d == 1 else 4)
        assert np.linalg.svd(A, compute_uv=False)[-1] >= cert.certified_lower_bound

    @given(oracle_case())
    @example((1, 0, 3, 2, False, 0))  # W = 0: one 1-row block, 0 outside the rows
    @example((1, 10, 4, -1, True, 1))  # n = 21 rows, all in one block
    @example((1, 40, 5, 0, False, 2))  # n = 81 rows in blocks of 32, 32, 17
    @example((2, 3, 7, -2, True, 3))  # bw = 48 of 49 rows: blocks of 48 and 1
    @example((3, 2, 3, 1, False, 4))  # 125 rows, bw = 62: blocks of 62, 62, 1
    # 269 rows in 9 blocks of 32 (the last of 13): the Schur complement settles
    # and the last blocks before the short one reuse the factor before them
    @example((1, 134, 25, 0, False, 0))
    @example((1, 134, 25, -2, True, 3))
    @settings(max_examples=25, deadline=None)
    def test_banded_solve_matches_dense_least_squares(self, case):
        d, W, L, shift, is_complex, seed = case
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((L,) * d) + (1j * rng.standard_normal((L,) * d) if is_complex else 0)
        # one tap outweighs all others by >= 0.2 of their drawn sum: |hhat| stays away from 0, A well conditioned
        c.flat[int(rng.integers(c.size))] += rng.uniform(1.2, 2.0) * np.sum(np.abs(c))
        h = Filter((shift,) * d, c)
        A, rows, cols = windowed_matrix(h, W)
        want = np.linalg.lstsq(A, kronecker(d).on_box(rows).ravel(), rcond=None)[0]
        got = toeplitz_oracle(h, W).on_box(cols).ravel()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_settled_blocks_are_not_factorised_again(self, monkeypatch):
        # the cubic at radius 134: 269 rows in 9 blocks of 32; block by block
        # the Schur complement becomes bitwise constant, and from then on each
        # block reuses the factor before it
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
        g = toeplitz_oracle(cubic(), 134)
        assert len(calls) < 9
        assert np.max(np.abs(g.coeffs - invert_exact_1d(cubic()).evaluate(np.arange(-134, 135)))) < 1e-12

    @pytest.mark.parametrize("complex_roots", [False, True], ids=["real", "complex"])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_three_routes_agree(self, complex_roots, seed):
        rng = np.random.default_rng(seed)
        h = stable_filter(rng, int(rng.integers(1, 7)), complex_roots=complex_roots)
        g = invert_stable(h, 1e-10, 120)
        go = toeplitz_oracle(h, 90)
        ev = invert_exact_1d(h).evaluate(np.arange(-30, 31))
        gv = np.array([g.coeff_at((k,)) for k in range(-30, 31)])
        ov = np.array([go.coeff_at((k,)) for k in range(-30, 31)])
        assert np.max(np.abs(gv - ev)) < 1e-8
        assert np.max(np.abs(ov - gv)) < 1e-8


class TestSingular1D:
    def test_difference_gives_unit_step(self):
        h = Filter((0,), np.array([1.0, -1.0]))
        seq = invert_singular_1d(h, 40)
        assert seq.growth_order == 0
        np.testing.assert_array_equal(seq.values, np.ones(41))
        assert seq.residual == 0.0

    def test_squared_difference_gives_ramp(self):
        h = Filter((0,), np.array([1.0, -2.0, 1.0]))
        seq = invert_singular_1d(h, 40)
        assert seq.growth_order == 1
        np.testing.assert_array_equal(seq.values, np.arange(1.0, 42.0))
        assert seq.residual == 0.0

    def test_convolution_is_delta_on_window(self):
        h = Filter((0,), np.array([1.0, -2.0, 1.0]))
        seq = invert_singular_1d(h, 40)
        conv = convolve(h, seq.to_filter())
        assert conv.coeff_at((0,)) == pytest.approx(1.0, abs=1e-12)
        for k in range(1, 38):
            assert abs(conv.coeff_at((k,))) < 1e-12

    def test_mixed_stable_and_unit(self):
        h = convolve(cubic(), Filter((0,), np.array([1.0, -1.0])))
        seq = invert_singular_1d(h, 40)
        assert seq.growth_order == 0
        assert seq.residual < 1e-12
        # far to the right the inverse tends to the step height 1
        assert seq.values[-1] == pytest.approx(1.0, abs=1e-10)

    def test_alternating_difference(self):
        # delta + delta_{.-1} has its unit zero at z = -1
        h = Filter((0,), np.array([1.0, 1.0]))
        seq = invert_singular_1d(h, 30)
        np.testing.assert_allclose(seq.values, (-1.0) ** np.arange(31), atol=1e-12)

    def test_growth_bound_holds(self):
        h = Filter((0,), np.array([1.0, -2.0, 1.0]))
        seq = invert_singular_1d(h, 50)
        ks = np.arange(seq.window.origin[0], seq.window.origin[0] + seq.window.size)
        assert np.all(
            np.abs(seq.values) <= seq.bound_constant * (1 + np.abs(ks)) ** seq.growth_order + 1e-12
        )

    @pytest.mark.parametrize(
        "coeffs", [[1.0, -1.0], [1.0, -2.0, 1.0], [1.0, -1.5, 0.5]], ids=["diff", "diff2", "diff-stable"]
    )
    @pytest.mark.parametrize("origin", range(-4, 5))
    def test_shift_covariant(self, coeffs, origin):
        # h at `origin` is h at 0 moved by origin, so its inverse is the
        # origin-0 inverse moved by -origin
        base = invert_singular_1d(Filter((0,), coeffs), 30)
        seq = invert_singular_1d(Filter((origin,), coeffs), 30)
        assert seq.residual <= 1e-9
        assert seq.window == Box((base.window.origin[0] - origin,), base.window.shape)
        np.testing.assert_array_equal(seq.values, base.values)
        ks = seq.window.indices().ravel()
        assert np.all(
            np.abs(seq.values) <= seq.bound_constant * (1 + np.abs(ks)) ** seq.growth_order * (1 + 1e-12)
        )

    @pytest.mark.parametrize(
        "coeffs, left", [([1.0, -1.5, 0.5], 0), ([1.0, -3.0, 2.0], 58)], ids=["inner-root", "outer-root"]
    )
    def test_window_reaches_left_only_for_outer_roots(self, coeffs, left):
        # the stable root 0.5 gives a causal inverse; 2 (outside) an
        # anticausal part 2^k, which drops below 2^-52 within 40 / log 2 taps
        seq = invert_singular_1d(Filter((0,), coeffs), 40)
        assert seq.window == Box((-left,), (left + 41,))
        assert seq.residual <= 1e-12

    def test_one_sided_window_below_degree_rejected(self):
        # a one-sided inverse is verified on [0, W - degree], empty for W < 2
        h = Filter((0,), np.array([1.0, -2.0, 1.0]))
        with pytest.raises(ValueError, match="below the filter's degree"):
            invert_singular_1d(h, 1)
        seq = invert_singular_1d(h, 2)
        assert seq.residual == 0.0
        assert convolve(h, seq.to_filter()).coeff_at((0,)) == 1.0

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_multiple_unit_zero(self, m, sign):
        # np.roots spreads the m-fold zero about eps^(1/m) off the circle
        h = Filter((0,), np.poly([float(sign)] * m))
        seq = invert_singular_1d(h, 30)
        ks = seq.window.indices().ravel()
        assert seq.growth_order == m - 1
        np.testing.assert_array_equal(seq.values, [math.comb(k + m - 1, m - 1) * sign**k for k in ks])
        with pytest.raises(SingularSymbolError):
            invert_exact_1d(h)

    @pytest.mark.parametrize(
        "coeffs, order",
        [([1.0, 0.0, -1.0], 0), ([1.0, 1.0, 1.0, 1.0], 0), ([1.0, -1.0, -1.0, 1.0], 1)],
        ids=["zeros-at-pm1", "three-simple-zeros", "double-at-1-simple-at-minus-1"],
    )
    def test_growth_order_is_largest_multiplicity(self, coeffs, order):
        # simple zeros give a bounded inverse however many there are;
        # (1 - z)^2 (1 + z) gives a linear ramp
        seq = invert_singular_1d(Filter((0,), coeffs), 40)
        assert seq.growth_order == order
        ks = seq.window.indices().ravel()
        assert np.all(np.abs(seq.values) <= seq.bound_constant * (1 + np.abs(ks)) ** order * (1 + 1e-12))
        if order == 0:
            assert np.max(np.abs(seq.values)) <= 1.0 + 1e-12

    def test_stable_filter_raises_wrong_branch(self):
        with pytest.raises(WrongBranchError):
            invert_singular_1d(cubic(), 20)

    def test_residual_over_tol_raises(self):
        # (1 - z^-1)(1 + 0.3 z^-1 - 0.2 z^-2 + 0.7 z^-3) leaves a roundoff residual
        h = Filter((0,), np.polymul([1.0, -1.0], [1.0, 0.3, -0.2, 0.7]))
        resid = invert_singular_1d(h, 16).residual
        assert 0.0 < resid <= 1e-9
        with pytest.raises(ToleranceUnreachableError) as exc:
            invert_singular_1d(h, 16, residual_tol=1e-20)
        assert exc.value.best_residual == resid

    @pytest.mark.parametrize("coeffs", [[1.0, -1.0], [1.0, -1.5, 0.5]], ids=["diff", "diff-stable"])
    def test_window_over_the_cap_raises(self, coeffs, monkeypatch):
        # refused before any coefficient is evaluated
        monkeypatch.setattr(inversion, "_laurent_inverse", None)
        with pytest.raises(ValueError, match="window_radius 65536 needs a window of"):
            invert_singular_1d(Filter((0,), coeffs), inversion.GRID_AXIS_CAP)


class TestDecayFit:
    def test_exponential_classified(self):
        g = invert_exact_1d(cubic()).to_filter(25)
        rep = decay_fit(g)
        assert rep.model == "exponential"
        assert rep.rate == pytest.approx(np.log(2 + SQRT3), abs=1e-3)

    def test_algebraic_classified(self):
        ks = np.arange(-60, 61).astype(float)
        g = Filter((-60,), 1.0 / (1.0 + np.abs(ks)) ** 3)
        rep = decay_fit(g)
        assert rep.model == "algebraic"
        assert rep.order == pytest.approx(-3.0, abs=0.05)

    def test_polynomial_growth_order(self):
        seq = invert_singular_1d(Filter((0,), np.array([1.0, -2.0, 1.0])), 40)
        rep = decay_fit(seq)
        assert rep.order == pytest.approx(1.0, abs=0.02)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            decay_fit(Filter((0,), np.array([1.0])))
