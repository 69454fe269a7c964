import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerlab import (
    Box,
    custom_weight,
    exponential_weight,
    extended_grs,
    grs_limit,
    polynomial_weight,
    submultiplicative_check,
    subexponential_weight,
    weight_from_json,
    weight_to_json,
)


class TestEvaluation:
    def test_polynomial_values(self):
        w = polynomial_weight(2)
        np.testing.assert_allclose(w.eval([[3]]), [(1 + 3) ** 2])

    def test_exponential_values(self):
        w = exponential_weight(0.5, dim=2)
        np.testing.assert_allclose(w.eval([[1, -2]]), [np.exp(0.5 * 3)])

    def test_weight_at_origin_is_one(self):
        for w in (polynomial_weight(4), exponential_weight(1.0), subexponential_weight(1, 0.5)):
            np.testing.assert_allclose(w.eval([[0]]), [1.0])

    def test_log_domain_survives_huge_m(self):
        w = exponential_weight(2.0)
        lv = w.log_eval([[2**20]])
        assert np.isfinite(lv).all() and lv[0] == pytest.approx(2.0 * 2**20)

    def test_param_validation(self):
        for make in (
            lambda: polynomial_weight(-1),
            lambda: subexponential_weight(1, 1.0),
            lambda: polynomial_weight(np.nan),
            lambda: polynomial_weight(np.inf),
            lambda: exponential_weight(np.nan),
            lambda: exponential_weight(np.inf),
            lambda: subexponential_weight(np.inf, 0.5),
            lambda: subexponential_weight(1.0, np.nan),
            lambda: polynomial_weight(1, dim=0),
            lambda: custom_weight(lambda ks: np.zeros(len(ks)), dim=-1),
        ):
            with pytest.raises(ValueError):
                make()


class TestSubmultiplicative:
    @pytest.mark.parametrize(
        "w",
        [
            polynomial_weight(3),
            exponential_weight(0.7),
            subexponential_weight(1.0, 0.5),
            polynomial_weight(2, dim=2),
        ],
    )
    def test_builtins_pass_on_box(self, w):
        box = Box((-6,) * w.dim, (13,) * w.dim)
        assert submultiplicative_check(w, box) == []

    def test_violation_detected(self):
        # grows faster than any product bound: log w = |k|^2
        w = custom_weight(lambda ks: np.sum(np.abs(ks), axis=-1) ** 2, dim=1)
        box = Box((-3,), (7,))
        assert len(submultiplicative_check(w, box)) > 0

    @pytest.mark.parametrize(
        "log_eval",
        [lambda ks: np.full(len(ks), np.nan), lambda ks: np.where(np.sum(ks, axis=-1) > 4, np.inf, 0.0)],
        ids=["nan", "inf-on-sums"],
    )
    def test_non_finite_weight_rejected(self, log_eval):
        # every comparison with NaN is false, so the pair list would come back empty
        with pytest.raises(ValueError, match="non-finite"):
            submultiplicative_check(custom_weight(log_eval), Box((-3,), (7,)))

    @given(st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_pairs_polynomial(self, n, seed):
        rng = np.random.default_rng(seed)
        w = polynomial_weight(n)
        k, l = rng.integers(-50, 51, size=2)
        wk, wl, wkl = w.eval([[k], [l], [k + l]])
        assert wkl <= wk * wl * (1 + 1e-12)


class TestGrsLimit:
    def test_polynomial_is_grs(self):
        for n in range(6):
            est = grs_limit(polynomial_weight(n), [1], 2**20)
            assert est.verdict == "grs"
            assert est.extrapolated_limit <= 1.0001

    def test_exponential_is_not_grs(self):
        for r in (0.1, 1.0):
            est = grs_limit(exponential_weight(r), [1], 2**20)
            assert est.verdict == "not_grs"
            # samples are exactly constant at e^r along k = 1
            for _, v in est.samples:
                assert v == pytest.approx(np.exp(r), rel=1e-12)

    def test_subexponential_is_grs(self):
        est = grs_limit(subexponential_weight(1.0, 0.5), [1], 2**20)
        assert est.verdict == "grs"
        assert est.extrapolated_limit <= 1.01

    def test_monotone_in_m_max(self):
        # Fekete: a custom weight's least sample only improves with more samples
        w = custom_weight(polynomial_weight(3).log_eval)
        e1, e2 = grs_limit(w, [1], 2**10), grs_limit(w, [1], 2**20)
        assert e2.extrapolated_limit <= e1.extrapolated_limit + 1e-15
        assert e1.extrapolated_limit == min(v for _, v in e1.samples) > 1.0

    @pytest.mark.parametrize("m_max", [16, 1024, 2**20])
    def test_sampled_misreadings_are_gone(self, m_max):
        # the slow m^(b-1) decay once read as flat (not_grs), polynomial n = 2
        # once inconclusive at m_max = 16, and e^r within GRS_TOL of 1 once grs
        for w in (subexponential_weight(1.0, 0.9), polynomial_weight(2)):
            est = grs_limit(w, [1], m_max)
            assert est.verdict == "grs" and est.extrapolated_limit == 1.0
        for r in (1e-3, 0.04):
            est = grs_limit(exponential_weight(r), [1], m_max)
            assert est.verdict == "not_grs" and est.extrapolated_limit == np.exp(r)

    @given(
        family=st.sampled_from(["polynomial", "exponential", "subexponential"]),
        n=st.floats(0, 8),
        r=st.floats(0, 2),
        b=st.floats(0, 1, exclude_max=True),
        k=st.integers(1, 3).flatmap(lambda d: st.lists(st.integers(-5, 5), min_size=d, max_size=d)).filter(any),
        m_max=st.integers(16, 2**20),
    )
    @settings(max_examples=100, deadline=None)
    def test_builtins_give_their_closed_form(self, family, n, r, b, k, m_max):
        d = len(k)
        w = {
            "polynomial": lambda: polynomial_weight(n, d),
            "exponential": lambda: exponential_weight(r, d),
            "subexponential": lambda: subexponential_weight(r, b, d),
        }[family]()
        log_limit = r * sum(abs(x) for x in k) if family == "exponential" else 0.0
        est = grs_limit(w, k, m_max)
        assert est.extrapolated_limit == np.exp(log_limit)
        assert est.verdict == ("grs" if log_limit == 0 else "not_grs")
        # Fekete: every sample bounds the limit from above
        assert all(v >= est.extrapolated_limit * (1 - 1e-12) for _, v in est.samples)
        # the same values without the closed form never give not_grs
        assert grs_limit(custom_weight(w.log_eval, d), k, m_max).verdict != "not_grs"

    def test_direction_2d(self):
        est = grs_limit(exponential_weight(0.3, dim=2), [1, -2], 2**16)
        assert est.verdict == "not_grs"

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            grs_limit(polynomial_weight(1), [0], 2**16)


class TestExtendedGrs:
    def test_decreasing_family_infimum(self):
        # w_n[k] = e^{|k|/n}: each member fails GRS but the family's
        # infimum over n tends to 1
        family = [exponential_weight(1.0 / n) for n in (1, 2, 4, 8, 16, 64, 1024)]
        res = extended_grs(family, [1], 2**16)
        assert res["verdict"] == "grs"
        assert res["inf_limit"] <= 1.001

    def test_non_decreasing_family_rejected(self):
        family = [exponential_weight(0.1), exponential_weight(0.2)]
        with pytest.raises(ValueError):
            extended_grs(family, [1], 2**16)

    def test_custom_member_is_never_not_grs(self):
        assert extended_grs([exponential_weight(0.5)], [1], 2**16)["verdict"] == "not_grs"
        copy = custom_weight(exponential_weight(0.5).log_eval)
        res = extended_grs([exponential_weight(1.0), copy], [1], 2**16)
        assert res["verdict"] == "inconclusive" and res["inf_limit"] == pytest.approx(np.exp(0.5), rel=1e-12)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            extended_grs([], [1], 2**16)


class TestJson:
    def test_round_trip(self):
        for w in (
            polynomial_weight(2),
            exponential_weight(0.5, dim=2),
            subexponential_weight(1.0, 0.5),
        ):
            w2 = weight_from_json(weight_to_json(w))
            assert w2.kind == w.kind and w2.dim == w.dim and w2.params == w.params

    def test_custom_has_no_json(self):
        w = custom_weight(lambda ks: np.zeros(len(ks)))
        with pytest.raises(ValueError):
            weight_to_json(w)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            weight_from_json({"dim": 1, "kind": "gaussian", "params": {}})
