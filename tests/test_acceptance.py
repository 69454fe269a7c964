"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v` (verdict lines go to the
real stdout so they are visible regardless of capture settings).
"""

import sys
import time

import numpy as np
import pytest

from wienerlab import (
    Filter,
    bspline_generator,
    bspline_value,
    convolve,
    decay_fit,
    derivative_growth,
    exponential_weight,
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
    subexponential_weight,
    toeplitz_oracle,
    weighted_norm,
)

SQRT3 = np.sqrt(3.0)


def verdict(num, ok, detail):
    from conftest import acceptance_lines

    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    acceptance_lines.append(line)
    assert ok, line


def cubic():
    return Filter((-1,), np.array([1.0, 4.0, 1.0]) / 6.0)


def stable_filter(rng, deg, min_gap=0.1):
    """Real filter with symbol roots in 0.05 <= |z| <= 0.8.

    Resampled until no root pair is closer than min_gap (partial-fraction
    residues scale like 1/gap, so crowded roots drown the route-agreement
    budget in conditioning rather than in route error) and until the
    symbol certifies invertible (a degree-16 filter with all roots near
    |z| = 0.8 can have min |hhat| ~ 0.2^16, beyond any certification grid).
    """
    while True:
        roots = []
        while len(roots) < deg:
            if deg - len(roots) >= 2 and rng.random() < 0.5:
                z = rng.uniform(0.05, 0.8) * np.exp(1j * rng.uniform(0.0, np.pi))
                roots += [z, np.conj(z)]
            else:
                roots.append(complex(rng.uniform(0.05, 0.8) * rng.choice([-1, 1])))
        gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]]
        if min(gaps, default=1.0) < min_gap:
            continue
        shift = int(rng.integers(-3, 4))
        h = Filter((shift,), np.real(np.poly(roots)))
        from wienerlab import min_modulus_certified

        if min_modulus_certified(h).status == "certified":
            return h


def test_criterion_01_cubic_inverse():
    t0 = time.perf_counter()
    h = cubic()
    ex = invert_exact_1d(h)
    err_g0 = abs(ex.evaluate([0])[0] - SQRT3)
    err_rate = abs(ex.decay_rate - np.log(2 + SQRT3))
    go = toeplitz_oracle(h, 30)
    gf = invert_stable(h, 1e-10, 40)
    ks = np.arange(-30, 31)
    diff = max(abs(gf.coeff_at((k,)) - go.coeff_at((k,))) for k in ks)
    elapsed = time.perf_counter() - t0
    ok = err_g0 <= 1e-9 and err_rate <= 1e-9 and diff <= 1e-8 and elapsed < 1.0
    verdict(
        1,
        ok,
        f"cubic inverse: |g0-sqrt3|={err_g0:.2e}, |rate-log(2+sqrt3)|={err_rate:.2e}, "
        f"oracle/fft diff={diff:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_residual_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    worst_res, worst_pair = 0.0, 0.0
    for _ in range(50):
        h = stable_filter(rng, int(rng.integers(1, 17)))
        s = max(abs(h.origin[0]), abs(h.origin[0] + h.coeffs.shape[0] - 1))
        g = invert_stable(h, 1e-10, window_radius=150)
        worst_res = max(worst_res, residual_sup(h, g, 150 - s))
        ks = np.arange(-40, 41)
        ev = invert_exact_1d(h).evaluate(ks)
        gv = np.array([g.coeff_at((k,)) for k in ks])
        go = toeplitz_oracle(h, 110)
        ov = np.array([go.coeff_at((k,)) for k in ks])
        worst_pair = max(
            worst_pair,
            float(np.max(np.abs(gv - ev))),
            float(np.max(np.abs(ov - gv))),
            float(np.max(np.abs(ov - ev))),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-10 and worst_pair <= 1e-8 and elapsed < 30.0
    verdict(
        2,
        ok,
        f"50 random stable filters: worst residual={worst_res:.2e}, "
        f"worst pairwise={worst_pair:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_geometric_inverse_construction():
    worst = 0.0
    for alpha in (0.3, 1.0, 2.0):
        for k0 in (1, 3):
            coeffs = np.zeros(k0 + 1)
            coeffs[0], coeffs[k0] = 1.0, -np.exp(-alpha)
            h = Filter((0,), coeffs)
            W = 50 + int(np.ceil(32.0 * k0 / alpha))
            g = invert_stable(h, 1e-12, window_radius=W)
            ks = np.arange(-50, 51)
            want = np.where(
                (ks >= 0) & (ks % k0 == 0), np.exp(-alpha * (ks // k0)), 0.0
            )
            err = max(abs(g.coeff_at((k,)) - w) for k, w in zip(ks, want))
            worst = max(worst, err)
    ok = worst <= 1e-12
    verdict(3, ok, f"delta - e^-a delta_k0 inverse is e^-ma on multiples: worst err={worst:.2e}")


def test_criterion_04_singular_inverses():
    h1 = Filter((0,), np.array([1.0, -1.0]))
    s1 = invert_singular_1d(h1, 40)
    step_exact = bool(np.array_equal(s1.values, np.ones(41)))

    h2 = convolve(h1, h1)
    s2 = invert_singular_1d(h2, 40)
    ramp_exact = bool(np.array_equal(s2.values, np.arange(1.0, 42.0)))

    resid = 0.0
    for h, s in ((h1, s1), (h2, s2)):
        conv = convolve(h, s.to_filter())
        delta = kronecker(1)
        deg = h.coeffs.shape[0] - 1
        resid = max(
            resid,
            max(abs(conv.coeff_at((k,)) - delta.coeff_at((k,))) for k in range(40 - deg)),
        )
    o1 = decay_fit(s1).order
    o2 = decay_fit(s2).order
    ok = (
        step_exact
        and ramp_exact
        and resid <= 1e-12
        and abs(o1 - 0.0) <= 0.02
        and abs(o2 - 1.0) <= 0.02
    )
    verdict(
        4,
        ok,
        f"singular inverses: step exact={step_exact}, ramp exact={ramp_exact}, "
        f"h*g residual={resid:.2e}, fitted orders {o1:.3f}/{o2:.3f}",
    )


def test_criterion_05_grs_dichotomy():
    t0 = time.perf_counter()
    poly_ok = all(
        grs_limit(polynomial_weight(n), [1], 2**20).verdict == "grs"
        and grs_limit(polynomial_weight(n), [1], 2**20).extrapolated_limit <= 1.0001
        for n in range(6)
    )
    exp_ok = True
    for r in (0.1, 1.0):
        est = grs_limit(exponential_weight(r), [1], 2**20)
        exp_ok &= est.verdict == "not_grs"
        exp_ok &= all(abs(v - np.exp(r)) <= 1e-12 * np.exp(r) for _, v in est.samples)
    sub = grs_limit(subexponential_weight(1.0, 0.5), [1], 2**20)
    sub_ok = sub.verdict == "grs" and sub.extrapolated_limit <= 1.01
    elapsed = time.perf_counter() - t0
    ok = poly_ok and exp_ok and sub_ok and elapsed < 5.0
    verdict(
        5,
        ok,
        f"GRS verdicts: polynomial grs={poly_ok}, exponential not_grs={exp_ok}, "
        f"subexponential limit={sub.extrapolated_limit:.4f}, {elapsed:.2f}s",
    )


def test_criterion_06_young_inequality():
    rng = np.random.default_rng(6)
    worst = 0.0
    for i in range(200):
        d = 1 if i % 4 else 2
        kind = i % 3
        if kind == 0:
            w = polynomial_weight(int(rng.integers(0, 4)), d)
        elif kind == 1:
            w = exponential_weight(float(rng.uniform(0, 0.5)), d)
        else:
            w = subexponential_weight(float(rng.uniform(0, 1)), float(rng.uniform(0, 0.9)), d)
        sa = tuple(int(rng.integers(1, 6)) for _ in range(d))
        sb = tuple(int(rng.integers(1, 6)) for _ in range(d))
        a = Filter(tuple(-x // 2 for x in sa), rng.standard_normal(sa))
        b = Filter(tuple(-x // 2 for x in sb), rng.standard_normal(sb))
        lhs = weighted_norm(convolve(a, b), 1, w)
        rhs = weighted_norm(a, 1, w) * weighted_norm(b, 1, w)
        worst = max(worst, lhs / rhs)
    # equality witness: b = delta
    a = Filter((-2,), np.abs(rng.standard_normal(5)))
    w = polynomial_weight(2)
    eq_gap = abs(
        weighted_norm(convolve(a, kronecker(1)), 1, w) - weighted_norm(a, 1, w)
    )
    ok = worst <= 1.0 + 1e-12 and eq_gap == 0.0
    verdict(
        6,
        ok,
        f"Young's inequality on 200 triples: worst lhs/rhs={worst:.15f}, "
        f"delta witness gap={eq_gap:.1e}",
    )


def test_criterion_07_factorial_moment_bound():
    from scipy.special import gammaln

    bound_ok = True
    for c in (0.5, 1.0, 2.0):
        res = lemma_bound_check(c, 40)
        ns = np.arange(41)
        log_lhs = res["log_S"] + ns * np.log(res["R"])
        log_rhs = np.log(res["M"]) + gammaln(ns + 1.0)
        bound_ok &= bool(np.all(log_lhs <= log_rhs + 1e-12))
    s0_err = abs(lemma_bound_check(1.0, 40)["S"][0] - np.e / (np.e - 1))
    ok = bound_ok and s0_err <= 1e-12
    verdict(
        7,
        ok,
        f"factorial bound S_n R^n <= M n! holds for c in (0.5,1,2), n<=40: {bound_ok}; "
        f"|S0 - e/(e-1)|={s0_err:.1e}",
    )


def test_criterion_08_analyticity_diagnostic():
    ks = np.arange(-200, 201).astype(float)
    h_exp = Filter((-200,), np.exp(-np.abs(ks)))
    h_alg = Filter((-200,), 1.0 / (1.0 + ks**2))
    r_exp = derivative_growth(h_exp, 40).fitted_rate
    r_alg = derivative_growth(h_alg, 40).fitted_rate
    ok = r_exp >= 0.3 and r_alg < 0.05
    verdict(
        8,
        ok,
        f"derivative growth separates decay classes: R(exponential)={r_exp:.3f} >= 0.3, "
        f"R(algebraic)={r_alg:.3f} < 0.05",
    )


def test_criterion_09_spline_route_equivalence():
    t0 = time.perf_counter()
    ks = lagrange_kernel_space(bspline_generator(3), grid_step=1.0 / 16, K=20)
    kf = lagrange_kernel_fourier(green_power_generator(4), grid_step=1.0 / 16, K=20)
    diff = float(np.max(np.abs(ks.samples - kf.samples)))
    r1, r2 = ks.decay.rate, kf.decay.rate
    elapsed = time.perf_counter() - t0
    ok = (
        diff <= 1e-6
        and abs(r1 - 1.3170) <= 1e-3
        and abs(r2 - 1.3170) <= 1e-3
        and elapsed < 10.0
    )
    verdict(
        9,
        ok,
        f"kernel routes agree: sup diff={diff:.2e}, rates {r1:.5f}/{r2:.5f}, {elapsed:.1f}s",
    )


def test_criterion_10_reproduction_identities():
    kernel = lagrange_kernel_space(bspline_generator(3), grid_step=1.0 / 16, K=47)
    xs = np.arange(-5.0, 5.0 + 1e-9, 1.0 / 16)
    r1 = reproduction_check(
        lambda k: np.where(k >= 0, k.astype(float) ** 3, 0.0),
        kernel,
        lambda x: max(x, 0.0) ** 3,
        xs,
        K_sum=40,
        tol=1e-6,
    )["max_residual"]
    r2 = reproduction_check(
        lambda k: np.abs(k.astype(float)) ** 3,
        kernel,
        lambda x: abs(x) ** 3,
        xs,
        K_sum=40,
        tol=1e-6,
    )["max_residual"]
    ok = r1 <= 1e-6 and r2 <= 1e-6
    verdict(10, ok, f"cubic reproduction: x+^3 residual={r1:.2e}, |x|^3 residual={r2:.2e}")


def test_criterion_11_amalgam_transfer():
    from wienerlab import amalgam_norm

    w = polynomial_weight(2)
    phi = lambda xs: np.array([bspline_value(3, x) for x in np.atleast_1d(xs)])
    phi_norm = amalgam_norm(phi, w, K=6)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        vals = rng.standard_normal(7)
        a = Filter((-3,), vals)

        def psi(xs, vals=vals):
            xs = np.atleast_1d(xs)
            return sum(v * phi(xs - k) for k, v in zip(range(-3, 4), vals))

        lhs = amalgam_norm(psi, w, K=12)
        rhs = phi_norm * weighted_norm(a, 1, w)
        worst = max(worst, lhs / rhs)
    ok = worst <= 1.0 + 1e-9
    verdict(11, ok, f"amalgam transfer on 20 pairs: worst ratio={worst:.12f}")


def test_criterion_12_separable_2d():
    line = np.array([1.0, 4.0, 1.0]) / 6.0
    h2 = Filter((-1, -1), np.outer(line, line))
    g2 = invert_stable(h2, 1e-10, window_radius=30)
    ev = invert_exact_1d(cubic()).evaluate(np.arange(-20, 21))
    tensor = np.outer(ev, ev)
    got = np.array(
        [[g2.coeff_at((i, j)) for j in range(-20, 21)] for i in range(-20, 21)]
    )
    err = float(np.max(np.abs(got - tensor)))
    ok = err <= 1e-9
    verdict(12, ok, f"2-D tensor inverse equals tensor of 1-D inverses: err={err:.2e}")
