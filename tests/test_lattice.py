import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerlab import (
    Box,
    Filter,
    convolve,
    delta_shift,
    filter_from_json,
    filter_to_json,
    kronecker,
    polynomial_weight,
    residual_sup,
    sup_difference,
    weighted_norm,
)


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

    def test_direct_vs_fft(self):
        rng = np.random.default_rng(1)
        for d in (1, 2):
            for _ in range(10):
                a = rand_filter(rng, d, max_side=7)
                b = rand_filter(rng, d, max_side=7)
                c1 = convolve(a, b, method="direct")
                c2 = convolve(a, b, method="fft")
                assert sup_difference(c1, c2) < 1e-12

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_direct_and_fft_paths_agree(self, data):
        d = data.draw(st.integers(1, 3))
        a, b = data.draw(filters(d)), data.draw(filters(d))
        scale = float(np.sum(np.abs(a.coeffs)) * np.sum(np.abs(b.coeffs)))
        diff = sup_difference(convolve(a, b, method="direct"), convolve(a, b, method="fft"))
        assert diff <= 1e-13 * scale

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


def boxes(dim):
    return st.builds(
        Box,
        st.tuples(*[st.integers(-48, 48)] * dim),
        st.tuples(*[st.integers(1, 12)] * dim),
    )


# Loop references: one coeff_at call per index, one % N per coefficient.


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


def sup_reference(a, b, box):
    diff = np.array([a.coeff_at(k) - b.coeff_at(k) for k in box.indices()])
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
        conv = convolve(h, g, method="direct")
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
