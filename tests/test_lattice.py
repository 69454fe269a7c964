import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerlab import (
    Box,
    Filter,
    amalgam_norm,
    bspline_generator,
    bspline_samples,
    bspline_value,
    convolve,
    delta_shift,
    derivative_growth,
    filter_from_json,
    filter_to_json,
    green_power_generator,
    grs_limit,
    invert_exact_1d,
    invert_singular_1d,
    invert_stable,
    kronecker,
    lagrange_kernel_fourier,
    lagrange_kernel_space,
    lemma_bound_check,
    polynomial_weight,
    reproduction_check,
    residual_sup,
    sup_difference,
    toeplitz_oracle,
    weighted_norm,
)
from wienerlab.lattice import as_int
from wienerlab.splines import bspline_grid


def rand_filter(rng, dim, max_side=5):
    shape = tuple(int(rng.integers(1, max_side + 1)) for _ in range(dim))
    origin = tuple(int(rng.integers(-3, 4)) for _ in range(dim))
    return Filter(origin, rng.standard_normal(shape))


class TestBox:
    def test_indices_row_major(self):
        box = Box((-1, 2), (2, 3))
        idx = box.indices()
        assert idx.shape == (6, 2)
        assert tuple(idx[0]) == (-1, 2)
        assert tuple(idx[-1]) == (0, 4)

    def test_contains(self):
        box = Box((0,), (3,))
        assert box.contains((2,))
        assert not box.contains((3,))

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            Box((0,), (0,))


class TestFilter:
    def test_trim_is_canonical(self):
        a = Filter((-2,), [0.0, 1.0, 2.0, 0.0])
        assert a.origin == (-1,)
        assert a.coeffs.shape == (2,)

    def test_zero_filter_trims_to_origin(self):
        a = Filter((5,), [0.0, 0.0])
        assert a.origin == (0,)
        assert a.coeffs.shape == (1,)

    def test_immutable(self):
        a = kronecker(1)
        with pytest.raises(AttributeError):
            a.origin = (1,)
        with pytest.raises(ValueError):
            a.coeffs[0] = 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Filter((0,), np.array([1.0, bad]))

    def test_coeff_at_outside_support(self):
        a = Filter((0,), [1.0, 2.0])
        assert a.coeff_at((5,)) == 0.0
        assert a.coeff_at((1,)) == 2.0


class TestConvolve:
    def test_delta_is_neutral(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3):
            a = rand_filter(rng, d)
            assert sup_difference(convolve(a, kronecker(d)), a) == 0.0

    def test_shift_composition(self):
        assert convolve(delta_shift(1, (2,)), delta_shift(1, (-5,))) == delta_shift(1, (-3,))

    def test_known_1d(self):
        a = Filter((0,), [1.0, 1.0])
        b = convolve(a, a)
        assert b.origin == (0,)
        np.testing.assert_allclose(b.coeffs, [1.0, 2.0, 1.0])

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_loop_over_pairs(self, data):
        # integer coefficients make every sum exact, so == holds whatever the
        # summation order and still catches any indexing error
        a = data.draw(filters(integer=True))
        b = data.draw(filters(dim=a.dim, integer=True))
        assert convolve(a, b) == convolve_reference(a, b)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=6),
        st.lists(st.floats(-10, 10), min_size=1, max_size=6),
        st.integers(-4, 4),
        st.integers(-4, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_commutative(self, xs, ys, oa, ob):
        a = Filter((oa,), np.asarray(xs))
        b = Filter((ob,), np.asarray(ys))
        assert sup_difference(convolve(a, b), convolve(b, a)) < 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rand_filter(rng, 1) for _ in range(3))
        lhs = convolve(convolve(a, b), c)
        rhs = convolve(a, convolve(b, c))
        assert sup_difference(lhs, rhs) < 1e-10

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_long_1d_operands_match_loop_over_pairs(self, data):
        # 1-D goes through np.convolve; either operand may be the longer,
        # and real, complex and mixed pairs all occur
        a = data.draw(long_1d_filters())
        b = data.draw(long_1d_filters())
        assert convolve(a, b) == convolve_reference(a, b)
        assert convolve(b, a) == convolve_reference(a, b)

    def test_long_1d_float_operands_agree_to_roundoff(self):
        rng = np.random.default_rng(5)
        a = Filter((-17,), rng.standard_normal(300))
        b = Filter((4,), rng.standard_normal(233) + 1j * rng.standard_normal(233))
        got, want = convolve(a, b), convolve_reference(a, b)
        assert got.origin == want.origin == (-13,)
        bound = 1e-13 * np.sum(np.abs(a.coeffs)) * np.sum(np.abs(b.coeffs))
        assert sup_difference(got, want) <= bound

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            convolve(kronecker(1), kronecker(2))


@st.composite
def filters(draw, dim=None, integer=False, reach=40):
    """Random dense filter: d = 1..3, origin within +-reach, real or complex.

    integer=True draws coefficients from -3..3, so sums of products are
    exact and zero taps appear inside the support.
    """
    d = dim or draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 7 - 2 * (d - 1))) for _ in range(d))
    origin = tuple(draw(st.integers(-reach, reach)) for _ in range(d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def part():
        return rng.integers(-3, 4, shape).astype(float) if integer else rng.standard_normal(shape)

    c = part()
    if draw(st.booleans()):
        c = c + 1j * part()
    return Filter(origin, c)


@st.composite
def long_1d_filters(draw):
    """Random 1-D filter of 1..300 integer-valued taps in -3..3, origin
    within +-40, real or complex."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.integers(-3, 4, n).astype(float)
    if draw(st.booleans()):
        c = c + 1j * rng.integers(-3, 4, n)
    return Filter((draw(st.integers(-40, 40)),), c)


def boxes(dim):
    return st.builds(
        Box,
        st.tuples(*[st.integers(-48, 48)] * dim),
        st.tuples(*[st.integers(1, 12)] * dim),
    )


# Loop references: one coeff_at call per index, one % N per coefficient, one
# product per pair of support points.


def box_reference(h, box):
    out = np.zeros(box.shape, dtype=h.coeffs.dtype)
    for k in box.indices():
        out[tuple(k - np.asarray(box.origin))] = h.coeff_at(k)
    return out


def torus_reference(h, N):
    out = np.zeros((N,) * h.dim, dtype=h.coeffs.dtype)
    for k, c in zip(h.indices(), h.coeffs.ravel()):
        out[tuple(int(x) % N for x in k)] += c
    return out


def convolve_reference(a, b):
    out = {}
    for ka, x in zip(a.indices(), a.coeffs.ravel()):
        for kb, y in zip(b.indices(), b.coeffs.ravel()):
            k = tuple(ka + kb)
            out[k] = out.get(k, 0) + x * y
    lo = np.min(list(out), axis=0)
    c = np.zeros(tuple(np.max(list(out), axis=0) - lo + 1), dtype=np.result_type(a.coeffs, b.coeffs))
    for k, v in out.items():
        c[tuple(np.subtract(k, lo))] = v
    return Filter(tuple(lo), c)


def sup_reference(a, b, box):
    """max |a[k] - b[k]| over box, looping only over the box's points in
    either support; every other point adds one 0 between them."""
    ks = {tuple(k) for f in (a, b) for k in f.indices().tolist() if box.contains(k)}
    diff = np.array([a.coeff_at(k) - b.coeff_at(k) for k in ks] + [0.0] * (len(ks) < box.size))
    return float(np.max(np.abs(diff)))


class TestGridViews:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_on_box_matches_loop(self, data):
        h = data.draw(filters())
        box = data.draw(boxes(h.dim))
        got = h.on_box(box)
        assert got.dtype == h.coeffs.dtype
        np.testing.assert_array_equal(got, box_reference(h, box))

    def test_on_box_disjoint_is_zero(self):
        h = Filter((5, -3), np.ones((2, 2)))
        np.testing.assert_array_equal(h.on_box(Box((0, 0), (3, 3))), np.zeros((3, 3)))

    @given(filters(), st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_on_torus_matches_loop(self, h, N):
        # supports up to 7 wide on grids down to N = 1 exercise fold collisions
        got = h.on_torus(N)
        assert got.dtype == h.coeffs.dtype
        np.testing.assert_array_equal(got, torus_reference(h, N))

    def test_on_torus_cap_checked_before_allocation(self):
        h = Filter((0,) * 5, np.ones((2,) * 5))
        with pytest.raises(ValueError, match="exceeds"):
            h.on_torus(64)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_sup_difference_matches_loop(self, data):
        a = data.draw(filters())
        b = data.draw(filters(dim=a.dim))
        lo = tuple(min(x, y) for x, y in zip(a.origin, b.origin))
        hi = tuple(
            max(x + s, y + t)
            for x, s, y, t in zip(a.origin, a.coeffs.shape, b.origin, b.coeffs.shape)
        )
        union = Box(lo, tuple(h - l for l, h in zip(lo, hi)))
        assert sup_difference(a, b) == sup_reference(a, b, union)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_residual_sup_matches_loop(self, data):
        # integer coefficients make every sum exact, so == holds whatever the
        # summation order and still catches any indexing error; g near the
        # origin puts the box past g's support on every side
        h = data.draw(filters(integer=True))
        g = data.draw(filters(dim=h.dim, integer=True, reach=data.draw(st.sampled_from([3, 40]))))
        radius = data.draw(st.integers(0, {1: 45, 2: 12, 3: 5}[h.dim]))
        box = Box((-radius,) * h.dim, (2 * radius + 1,) * h.dim)
        conv = convolve(h, g)
        assert residual_sup(h, g, radius) == sup_reference(conv, kronecker(h.dim), box)


class TestNorms:
    def test_weighted_l1_of_delta(self):
        w = polynomial_weight(3)
        assert weighted_norm(kronecker(1), 1, w) == 1.0

    def test_norm_values(self):
        a = Filter((0,), [3.0, -4.0])
        w = polynomial_weight(0)
        assert weighted_norm(a, 1, w) == 7.0
        assert weighted_norm(a, 2, w) == 5.0
        assert weighted_norm(a, np.inf, w) == 4.0

    def test_bad_p(self):
        with pytest.raises(ValueError):
            weighted_norm(kronecker(1), 3, polynomial_weight(0))

    @pytest.mark.parametrize("p", [True, False, 1.5, np.nan, -np.inf, "1", None])
    def test_p_other_than_1_2_inf_is_refused_by_name(self, p):
        # True == 1 in Python, but no integer argument of the library takes a bool
        with pytest.raises(ValueError, match="p must be 1, 2, or inf"):
            weighted_norm(Filter((0,), [3.0, -4.0]), p, polynomial_weight(0))

    @pytest.mark.parametrize("p, want", [(1.0, 7.0), (np.int64(2), 5.0), (2.0, 5.0), ("inf", 4.0), (np.float64(np.inf), 4.0)])
    def test_p_by_the_integer_rule_or_inf(self, p, want):
        assert weighted_norm(Filter((0,), [3.0, -4.0]), p, polynomial_weight(0)) == want


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for d in (1, 2):
            a = rand_filter(rng, d)
            b = filter_from_json(json.dumps(filter_to_json(a)))
            assert a == b

    def test_malformed(self):
        with pytest.raises(ValueError):
            filter_from_json({"dim": 1, "origin": [0]})

    def test_coeff_length_checked(self):
        with pytest.raises(ValueError):
            filter_from_json({"dim": 1, "origin": [0], "shape": [3], "coeffs": [1.0]})


# -- integer arguments ---------------------------------------------------------

STABLE = Filter((0,), [4.0, 1.0])
STEP = Filter((0,), [1.0, -1.0])  # a unit zero at z = 1
CUBIC = bspline_generator(3)
W1 = polynomial_weight(1)


def _generator(gen):
    return gen.kind, gen.params, gen.aliased(np.linspace(-np.pi, np.pi, 9), 8)


def _weight(w):
    return w, w.log_eval(np.ones((2, w.dim)))


def _reproduce_ones(K_sum):
    kernel = lagrange_kernel_space(CUBIC, 0.25, 16)
    return reproduction_check(lambda ks: np.ones(ks.shape), kernel, lambda x: 1.0, [0.0, 0.5], K_sum, tol=1e-3)


# (id, argument name, call of one integer argument, a valid value, values that
# used to be truncated or summed at half-integer shifts without complaint)
INTEGER_ARGUMENTS = [
    ("Box-origin", "origin", lambda v: Box((v,), (2,)), 3),
    ("Box-shape", "shape", lambda v: Box((0,), (v,)), 3, 2.7),
    ("Box-contains", "k", lambda v: Box((0,), (5,)).contains((v,)), 3),
    ("Filter-origin", "origin", lambda v: Filter((v,), [1.0, 2.0]), 3, -0.5),
    ("coeff_at", "k", lambda v: Filter((0,), np.arange(1.0, 6.0)).coeff_at(v), 3, 0.9),
    ("on_torus", "N", lambda v: STABLE.on_torus(v), 3),
    ("kronecker", "d", kronecker, 3),
    ("delta_shift-d", "d", lambda v: delta_shift(v, (1, 2, 3)), 3),
    ("delta_shift-k", "k", lambda v: delta_shift(1, v), 3),
    ("invert_stable", "window_radius", lambda v: invert_stable(STABLE, window_radius=v), 3, 2.7),
    ("toeplitz_oracle", "window_radius", lambda v: toeplitz_oracle(STABLE, v), 3),
    ("invert_singular_1d", "window_radius", lambda v: invert_singular_1d(STEP, v), 3),
    ("to_filter", "radius", lambda v: invert_exact_1d(STABLE).to_filter(v), 3),
    ("residual_sup", "radius", lambda v: residual_sup(STABLE, invert_exact_1d(STABLE).to_filter(8), v), 3),
    ("derivative_growth", "n_max", lambda v: derivative_growth(STABLE, v), 3),
    ("lemma_bound_check", "n_max", lambda v: lemma_bound_check(0.7, v), 3),
    ("bspline_value", "degree", lambda v: bspline_value(v, 0.3), 3),
    ("bspline_samples-degree", "degree", bspline_samples, 3),
    ("bspline_samples-d", "d", lambda v: bspline_samples(3, v), 3),
    ("bspline_grid", "degree", lambda v: bspline_grid(v, 0.25), 3),
    ("bspline_generator", "degree", lambda v: _generator(bspline_generator(v)), 3, 3.7),
    ("green_power_generator", "order", lambda v: _generator(green_power_generator(v)), 4, 4.5),
    ("lagrange_kernel_space", "K", lambda v: lagrange_kernel_space(CUBIC, 0.25, v), 3),
    ("lagrange_kernel_fourier", "K", lambda v: lagrange_kernel_fourier(CUBIC, 0.25, v), 3),
    ("reproduction_check", "K_sum", _reproduce_ones, 12),
    ("amalgam_norm", "K", lambda v: amalgam_norm(lambda x: np.exp(-np.abs(x)), W1, K=v), 3),
    ("Weight-dim", "weight dim", lambda v: _weight(polynomial_weight(1, dim=v)), 3),
    ("grs_limit-direction", "direction k", lambda v: grs_limit(W1, [v], 64), 3, 1.5),
    ("grs_limit-m_max", "m_max", lambda v: grs_limit(W1, [1], v), 16, 16.9),
]


def _fingerprint(x):
    """x's types and bytes, recursively through containers, filters and
    dataclasses (whose callables are left out): equal fingerprints mean
    byte-identical outputs."""
    if isinstance(x, Filter):
        return "Filter", _fingerprint(x.origin), _fingerprint(x.coeffs)
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        values = [getattr(x, f.name) for f in dataclasses.fields(x)]
        return type(x).__name__, [_fingerprint(v) for v in values if not callable(v)]
    if isinstance(x, dict):
        return [(k, _fingerprint(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [_fingerprint(v) for v in x]
    return type(x).__name__, repr(x)


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "name, call, bad",
        [
            pytest.param(name, call, bad, id=f"{case}-{bad!r}")
            for case, name, call, _, *truncated in INTEGER_ARGUMENTS
            for bad in (2.5, True, *truncated)
        ],
    )
    def test_non_integer_raises_naming_the_argument(self, name, call, bad):
        with pytest.raises(ValueError, match=f"^{re.escape(name)}: expected an integer, got {re.escape(repr(bad))}$"):
            call(bad)

    @pytest.mark.parametrize("convert", [float, np.int64])
    @pytest.mark.parametrize("call, value", [pytest.param(c[2], c[3], id=c[0]) for c in INTEGER_ARGUMENTS])
    def test_integer_valued_forms_give_identical_output(self, call, value, convert):
        assert _fingerprint(call(convert(value))) == _fingerprint(call(value))

    def test_reproduction_sum_refuses_half_integer_shifts(self):
        # K_sum = 40.5 once summed over k + 1/2 and returned a residual of 0.066
        kernel = lagrange_kernel_space(CUBIC, 1.0 / 16, 50)
        xs = np.arange(-5.0, 5.0 + 1e-9, 1.0 / 16)

        def check(K_sum):
            return reproduction_check(
                lambda ks: np.where(ks >= 0, ks.astype(float) ** 3, 0.0), kernel, lambda x: max(x, 0.0) ** 3, xs, K_sum
            )

        assert check(40)["max_residual"] < 1e-12
        assert _fingerprint(check(40.0)) == _fingerprint(check(40))
        with pytest.raises(ValueError, match="K_sum: expected an integer, got 40.5"):
            check(40.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, "3", None, np.bool_(True), 3 + 0j])
    def test_other_values_raise(self, value):
        with pytest.raises(ValueError, match="^n: expected an integer"):
            as_int(value, "n")

    def test_range_messages(self):
        assert as_int(2**70, "n", 0) == 2**70
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            as_int(-1.0, "n", 0)
        with pytest.raises(ValueError, match=r"^n must be in \[0, 60\], got 61$"):
            as_int(np.int8(61), "n", 0, 60)
