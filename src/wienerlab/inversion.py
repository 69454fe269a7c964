"""Convolution inverses of finitely supported filters.

Three routes with overlapping domains (they cross-check one another):

  toeplitz_oracle    dense windowed linear system, the brute-force oracle
  invert_stable      FFT sampling of 1/hhat with a residual contract
  invert_exact_1d    closed form from the roots of the Laurent symbol

plus invert_singular_1d for 1-D filters whose symbol vanishes on the
unit circle (the inverse then grows polynomially), and decay_fit for
classifying the decay/growth of the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import comb

from .errors import (
    NotInvertibleError,
    SingularSymbolError,
    SingularSystemError,
    ToleranceUnreachableError,
    WrongBranchError,
)
from .lattice import GRID_POINT_CAP, Box, Filter, convolve, kronecker
from .spectrum import min_modulus_certified

__all__ = [
    "toeplitz_oracle",
    "invert_stable",
    "ExactInverse1D",
    "invert_exact_1d",
    "SlowGrowthSeq",
    "invert_singular_1d",
    "DecayReport",
    "decay_fit",
    "decay_fit_samples",
    "residual_sup",
]

UNIT_CIRCLE_TOL = 1e-8
FFT_GRID_START = 128
FFT_GRID_CAP = 2**16


def residual_sup(h, g, radius):
    """sup over the box of radius `radius` of |(h*g - delta)[k]|."""
    return _residual_on(h, g, Box((-radius,) * h.dim, (2 * radius + 1,) * h.dim))


def _residual_on(h, g, box):
    """sup over `box` of |(h*g - delta)[k]|."""
    return float(np.max(np.abs(convolve(h, g).on_box(box) - kronecker(h.dim).on_box(box))))


def _require_certified(h, certificate):
    """NotInvertibleError unless the given (or a fresh) certificate is certified."""
    cert = certificate if certificate is not None else min_modulus_certified(h)
    if cert.status != "certified":
        raise NotInvertibleError(
            f"symbol not certified invertible (status {cert.status})", cert
        )


# -- brute-force oracle -------------------------------------------------------


def toeplitz_oracle(h, window_radius, certificate=None):
    """Invert h by solving the windowed system sum_l h[k-l] g[l] = delta[k].

    Unknowns live on the box of radius window_radius; equations run over
    the box enlarged by the support extent of h (overdetermined), solved
    by least squares. Independent of the FFT and root-based routes.
    """
    _require_certified(h, certificate)
    d = h.dim
    W = int(window_radius)
    s = h.support.extent
    col_box = Box((-W,) * d, (2 * W + 1,) * d)
    row_box = Box((-W - s,) * d, (2 * (W + s) + 1,) * d)
    cols = col_box.indices()
    A = np.zeros((row_box.size, len(cols)), dtype=h.coeffs.dtype)
    for k, c in zip(h.indices(), h.coeffs.ravel()):
        if c == 0:
            continue
        rows = np.ravel_multi_index(tuple((cols + k - row_box.origin).T), row_box.shape)
        A[rows, np.arange(len(cols))] += c
    b = kronecker(d).on_box(row_box).ravel()
    sol, _, rank, sv = np.linalg.lstsq(A, b, rcond=None)
    if sv[-1] < 1e-12 * sv[0]:
        raise SingularSystemError(
            "windowed Toeplitz system is numerically singular",
            smallest_singular_value=float(sv[-1]),
        )
    return Filter(col_box.origin, sol.reshape(col_box.shape))


# -- FFT route ----------------------------------------------------------------


def invert_stable(h, tail_tol=1e-10, window_radius=40, certificate=None):
    """Inverse filter from samples of 1/hhat, with a residual contract.

    Samples 1/hhat on an N^d grid (N doubling), inverse-DFTs to the
    periodized inverse, windows it to window_radius, and doubles N until
    sup |(h*g - delta)[k]| over the verification box is <= tail_tol.
    A first grid of more than GRID_POINT_CAP points raises ValueError.
    """
    _require_certified(h, certificate)
    d = h.dim
    W = int(window_radius)
    s = h.support.extent
    verify_radius = max(W - s, 0)
    N = FFT_GRID_START
    while N < 2 * W + 2:
        N *= 2
    best = np.inf
    while True:
        ghat = 1.0 / np.fft.fftn(h.on_torus(N))
        gper = np.fft.ifftn(ghat)
        idx = np.arange(-W, W + 1) % N
        g = gper[np.ix_(*([idx] * d))]
        gf = Filter((-W,) * d, g).real_if_close()
        resid = residual_sup(h, gf, verify_radius)
        if resid <= tail_tol:
            return gf
        best = min(best, resid)
        if N >= FFT_GRID_CAP or (2 * N) ** d > GRID_POINT_CAP:
            raise ToleranceUnreachableError(
                f"residual {best:.3e} > {tail_tol:.1e} at grid cap",
                best_residual=best,
            )
        N *= 2


# -- exact 1-D route ----------------------------------------------------------


def _symbol_roots(h):
    """Roots of Q(z) = sum_k h[k] z^{k_max - k}, with h 1-D.

    Companion-matrix estimates from np.roots, then Newton polish in
    extended precision: close-but-distinct root pairs (gap ~1e-4) give
    residues ~1/gap whose cancellation would otherwise cost ~gap^-1
    digits in the reconstructed inverse.
    """
    coeffs = h.coeffs.ravel()
    p = np.asarray(coeffs, dtype=np.clongdouble)  # descending powers of z
    roots = np.roots(np.asarray(coeffs, dtype=complex)).astype(np.clongdouble)
    dp = np.polyder(p)
    for _ in range(4):
        val = np.polyval(p, roots)
        der = np.polyval(dp, roots)
        ok = np.abs(der) > 0
        roots[ok] = roots[ok] - val[ok] / der[ok]
    return roots


def _cluster_roots(roots):
    """Group numerically coincident roots into (root, multiplicity) pairs."""
    roots = sorted(roots, key=lambda z: (z.real, z.imag))
    clusters = []
    for r in roots:
        if clusters and abs(r - clusters[-1][0][-1]) < 1e-6 * max(1.0, abs(r)):
            clusters[-1][0].append(r)
        else:
            clusters.append([[r]])
    return [(np.mean(np.asarray(group)), len(group)) for (group,) in clusters]


def _principal_parts(poly, clusters):
    """Partial fractions of 1/poly: for each cluster (r, m) the principal
    coefficients A_s, s=1..m, with 1/poly = sum A_s/(z-r)^s + (analytic)."""
    parts = []
    for r, m in clusters:
        # deflate (z - r)^m by synthetic division (extended precision:
        # residues at close roots are large with heavy cancellation)
        q = np.asarray(poly, dtype=np.clongdouble)
        for _ in range(m):
            q = _synthetic_divide(q, r)[0]
        # Taylor coefficients of the deflated polynomial at r
        taylor = []
        rem_poly = q
        for _ in range(m):
            rem_poly, rem = _synthetic_divide(rem_poly, r)
            taylor.append(rem)
        # invert the truncated power series sum taylor[t] (z-r)^t
        b = np.zeros(m, dtype=np.clongdouble)
        b[0] = 1.0 / taylor[0]
        for t in range(1, m):
            acc = np.clongdouble(0.0)
            for s in range(1, t + 1):
                if s < len(taylor):
                    acc += taylor[s] * b[t - s]
            b[t] = -acc / taylor[0]
        # A_s = b[m - s]
        parts.append((r, m, [b[m - s] for s in range(1, m + 1)]))
    return parts


def _synthetic_divide(p, r):
    """Divide polynomial p (descending coeffs) by (z - r); returns
    (quotient, remainder)."""
    if len(p) == 0:
        return p, np.clongdouble(0.0)
    q = np.empty(len(p) - 1, dtype=p.dtype)
    acc = p[0]
    for i in range(len(p) - 1):
        q[i] = acc
        acc = acc * r + p[i + 1]
    return q, acc


@dataclass
class ExactInverse1D:
    """Closed-form 1-D inverse from the factored Laurent symbol.

    The symbol H(z) = sum h[k] z^{-k} factors through the polynomial
    Q(z) = sum h[k] z^{k_max-k}; g[k] is the Laurent coefficient of
    z^{-(k + k_max)} in z^{k_max}/Q(z), assembled from the partial
    fractions of 1/Q. decay_rate > 0 iff no unit-circle roots.
    """

    inner: list  # (root, multiplicity, [A_1..A_m]) with |root| < 1
    outer: list  # same, with |root| > 1
    unit_roots: list  # (root, multiplicity) on the unit circle
    gain: float
    decay_rate: float
    k_max: int
    real_output: bool

    def evaluate(self, ks):
        """g[k] for an integer array ks."""
        ks = np.atleast_1d(np.asarray(ks, dtype=int))
        m = ks + self.k_max  # Laurent index into 1/Q
        # residues of crowded root sets are large and mutually cancelling,
        # so the accumulation runs in extended precision
        out = np.zeros(len(ks), dtype=np.clongdouble)
        for r, mult, parts in self.inner:
            # 1/(z-r)^s = sum_{t>=0} C(t+s-1, s-1) r^t z^{-t-s}
            for s, A in zip(range(1, mult + 1), parts):
                sel = m >= s
                t = m[sel] - s
                out[sel] += A * comb(t + s - 1, s - 1) * r**t
        for r, mult, parts in self.outer:
            # 1/(z-r)^s = (-1)^s sum_{t>=0} C(t+s-1, s-1) z^t / r^{s+t}
            for s, A in zip(range(1, mult + 1), parts):
                sel = m <= 0
                t = -m[sel]
                out[sel] += A * (-1.0) ** s * comb(t + s - 1, s - 1) * r ** (-s - t)
        if not (self.inner or self.outer):
            # pure monomial symbol: g is a shifted scaled impulse
            sel = m == 0
            out[sel] = 1.0 / self.gain
        if self.real_output:
            return out.real.astype(float)
        return out.astype(complex)

    def to_filter(self, radius):
        ks = np.arange(-radius, radius + 1)
        return Filter((-radius,), self.evaluate(ks))


def _classify_roots(h):
    if h.dim != 1:
        raise ValueError("exact inversion is defined for d=1 only")
    if not np.any(h.coeffs):
        raise ValueError("filter is identically zero")
    k_min = h.origin[0]
    k_max = k_min + h.coeffs.shape[0] - 1
    coeffs = h.coeffs.ravel()
    if len(coeffs) == 1:
        return [], k_max, coeffs
    roots = _symbol_roots(h)
    clusters = _cluster_roots(roots)
    return clusters, k_max, coeffs


def invert_exact_1d(h):
    """Exact two-sided inverse of a 1-D filter via its symbol's roots.

    Raises SingularSymbolError (pointing at invert_singular_1d) when the
    symbol vanishes on the unit circle.
    """
    clusters, k_max, coeffs = _classify_roots(h)
    unit = [(r, m) for r, m in clusters if abs(abs(r) - 1.0) < UNIT_CIRCLE_TOL]
    if unit:
        raise SingularSymbolError(
            "symbol has unit-circle zeros; use invert_singular_1d", unit_roots=unit
        )
    inner_cl = [(r, m) for r, m in clusters if abs(r) < 1.0]
    outer_cl = [(r, m) for r, m in clusters if abs(r) > 1.0]
    parts = _principal_parts(coeffs, inner_cl + outer_cl)
    inner = [p for p in parts if abs(p[0]) < 1.0]
    outer = [p for p in parts if abs(p[0]) > 1.0]
    rho = 0.0
    if inner:
        rho = max(rho, max(abs(r) for r, _, _ in inner))
    if outer:
        rho = max(rho, 1.0 / min(abs(r) for r, _, _ in outer))
    decay_rate = np.inf if rho == 0.0 else -float(np.log(rho))
    return ExactInverse1D(
        inner=inner,
        outer=outer,
        unit_roots=[],
        gain=float(coeffs[0].real) if coeffs.dtype.kind != "c" else complex(coeffs[0]),
        decay_rate=decay_rate,
        k_max=k_max,
        real_output=h.coeffs.dtype.kind != "c",
    )


# -- singular 1-D route -------------------------------------------------------


@dataclass
class SlowGrowthSeq:
    """Causal-representative inverse of a symbol with unit-circle zeros.

    values[i] = g[window.origin + i]; |g[k]| <= bound_constant *
    (1 + |k|)^growth_order on the window. The residual of h*g - delta is
    certified on the interior of the window.
    """

    window: Box
    values: np.ndarray
    growth_order: int
    bound_constant: float
    residual: float

    def to_filter(self):
        return Filter(self.window.origin, self.values)


def invert_singular_1d(h, window_radius, residual_tol=1e-9):
    """Inverse of a 1-D filter whose symbol vanishes on the unit circle.

    Factors the symbol into a stable part and unit factors
    (1 - e^{i w_j} z^{-1})^{m_j}; the stable part is inverted exactly and
    each unit factor as the one-sided (causal) modulated cumulative sum.
    The composition is the causal representative of the non-unique
    slow-growth inverse; it satisfies h*g = delta on the window interior.
    The window sits about index 0 for a filter at origin 0 and moves by
    -origin with the filter.
    """
    clusters, k_max, coeffs = _classify_roots(h)
    unit = [(r, m) for r, m in clusters if abs(abs(r) - 1.0) < UNIT_CIRCLE_TOL]
    if not unit:
        raise WrongBranchError("symbol has no unit-circle zeros; use invert_exact_1d")
    # project the detected roots onto the unit circle (and onto the real
    # axis when near-real): clustering leaves O(tol) noise that would
    # otherwise leak exponential drift into the cumulative sums
    unit = [(_snap_unit(r), m) for r, m in unit]
    stable = [(r, m) for r, m in clusters if abs(abs(r) - 1.0) >= UNIT_CIRCLE_TOL]
    m_tot = sum(m for _, m in unit)
    # h = delta_{k_min} * h0 with h0 at origin 0: invert h0, move by -k_min
    k_min = h.origin[0]
    deg = k_max - k_min
    h0 = Filter((0,), coeffs)
    is_real = h.coeffs.dtype.kind != "c"

    # stable polynomial Q_s(z) = gain * prod_stable (z - r)
    stable_roots = [r for r, m in stable for _ in range(m)]
    qs = np.atleast_1d(np.asarray(np.poly(stable_roots), dtype=complex)) * coeffs[0]
    if is_real and np.max(np.abs(qs.imag)) <= 1e-9 * max(1.0, np.max(np.abs(qs))):
        qs = qs.real
    h_stable = Filter((0,), qs)

    W = int(window_radius)
    if len(qs) == 1 and W < deg:
        raise ValueError(
            f"window_radius {W} is below the filter's degree {deg}: "
            "the one-sided inverse would have no index to verify"
        )
    # exact inverse of the stable part, windowed wide enough that the
    # dropped tail is below double-precision significance on the window
    if len(qs) > 1:
        exact = invert_exact_1d(h_stable)
        w_neg = min(max(W, int(np.ceil(40.0 / max(exact.decay_rate, 1e-3)))), 20 * W)
        g_part = exact.to_filter(W + w_neg)
    else:
        w_neg = 0
        g_part = Filter((0,), np.array([1.0]) / qs[0])

    # causal inverses of the unit factors: (1 - u z^{-1})^{-1} = sum u^m z^{-m}
    length = W + w_neg + 1
    for u, mult in unit:
        ramp = np.power(np.complex128(u), np.arange(length))
        if is_real and abs(u.imag) < 1e-12:
            ramp = ramp.real
        cf = Filter((0,), ramp)
        for _ in range(mult):
            g_part = convolve(g_part, cf)
    g_part = g_part.real_if_close() if is_real else g_part

    window = Box((-w_neg,), (W + w_neg + 1,))
    vals = g_part.on_box(window)
    g = Filter(window.origin, vals)

    if w_neg > 0:
        resid = residual_sup(h0, g, max(min(w_neg, W) - deg, 0))
    else:  # one-sided window: verify its causal interior [0, W - deg]
        resid = _residual_on(h0, g, Box((0,), (W - deg + 1,)))
    if resid > residual_tol:
        raise ToleranceUnreachableError(
            f"singular-inverse residual {resid:.3e} > {residual_tol:.1e}",
            best_residual=resid,
        )

    n = m_tot - 1
    moved = Box((window.origin[0] - k_min,), window.shape)
    growth = (1.0 + np.abs(moved.indices().ravel())) ** n
    C = float(np.max(np.abs(vals) / growth))
    return SlowGrowthSeq(
        window=moved,
        values=vals,
        growth_order=n,
        bound_constant=C,
        residual=resid,
    )


def _snap_unit(r):
    r = complex(r) / abs(r)
    if abs(r.imag) < 1e-7:
        r = complex(1.0 if r.real > 0 else -1.0, 0.0)
    return r


# -- decay classification -----------------------------------------------------


@dataclass
class DecayReport:
    """Fitted decay/growth model of a sequence.

    model is "exponential" (|g[k]| ~ C e^{-rate |k|_1}), "algebraic"
    (|g[k]| ~ C (1+||k||)^order), or "mixed" when neither fit beats the
    other by a factor 2 in residual RMS.
    """

    model: str
    rate: float
    order: float
    fit_constant: float
    residual_rms: float
    alt_residual_rms: float
    window_used: Box


def decay_fit(g, min_samples=16):
    """Classify the decay of a Filter or SlowGrowthSeq.

    Fits log|g[k]| against |k|_1 (exponential) and against log(1+||k||_2)
    (algebraic) on the outer half of the window, excluding zeros.
    """
    if isinstance(g, SlowGrowthSeq):
        g = g.to_filter()
    ks = g.indices().astype(float)
    vals = np.abs(g.coeffs.ravel())
    dist1 = np.sum(np.abs(ks), axis=1)
    dist2 = np.linalg.norm(ks, axis=1)
    # values at the double-precision floor relative to the peak are
    # windowing/roundoff noise, not decay signal
    nonzero = vals > np.max(vals) * 1e-12
    if not np.any(nonzero & (dist1 > 0)):
        raise ValueError("degenerate input: all samples beyond the origin are zero")
    if np.count_nonzero(nonzero) < min_samples:
        raise ValueError(f"need at least {min_samples} nonzero samples")
    return _dual_model_fit(dist1[nonzero], dist2[nonzero], vals[nonzero], g.support)


def decay_fit_samples(positions, values, min_samples=16):
    """Decay fit for real-line samples (e.g. kernel grids).

    Samples are folded to |x| and reduced to their per-unit-interval
    envelope max before fitting, which removes the periodic modulation
    and the zero crossings of oscillating kernels.
    """
    positions = np.abs(np.asarray(positions, dtype=float))
    values = np.abs(np.asarray(values, dtype=float))
    n_bins = int(np.floor(np.max(positions)))
    # envelope bins within a factor ~100 of the double-precision floor
    # (and of typical assembly tail tolerances) carry truncation and
    # roundoff artifacts, not signal; they would flatten the fit
    floor = float(np.max(values)) * 1e-12
    centers, env = [], []
    for j in range(n_bins):
        sel = (positions >= j) & (positions < j + 1)
        if np.any(sel):
            m = float(np.max(values[sel]))
            if m > floor:
                centers.append(j + 0.5)
                env.append(m)
    if len(env) < min_samples:
        raise ValueError(f"need at least {min_samples} envelope samples")
    centers = np.asarray(centers)
    env = np.asarray(env)
    box = Box((0,), (max(n_bins, 1),))
    return _dual_model_fit(centers, centers, env, box)


def _dual_model_fit(dist1, dist2, vals, window):
    cutoff = np.max(dist1) / 2.0
    sel = dist1 >= max(cutoff, 1.0)
    d1, d2, v = dist1[sel], dist2[sel], vals[sel]
    logv = np.log(v)

    def linfit(x):
        A = np.vstack([np.ones_like(x), x]).T
        coef, *_ = np.linalg.lstsq(A, logv, rcond=None)
        rms = float(np.sqrt(np.mean((A @ coef - logv) ** 2)))
        return coef, rms

    (a_exp, slope_exp), rms_exp = linfit(d1)
    (a_alg, slope_alg), rms_alg = linfit(np.log1p(d2))

    if rms_exp * 2.0 <= rms_alg:
        model, rms, alt, const = "exponential", rms_exp, rms_alg, np.exp(a_exp)
    elif rms_alg * 2.0 <= rms_exp:
        model, rms, alt, const = "algebraic", rms_alg, rms_exp, np.exp(a_alg)
    else:
        model, rms, alt = "mixed", min(rms_exp, rms_alg), max(rms_exp, rms_alg)
        const = np.exp(a_exp if rms_exp <= rms_alg else a_alg)
    return DecayReport(
        model=model,
        rate=-float(slope_exp),
        order=float(slope_alg),
        fit_constant=float(const),
        residual_rms=rms,
        alt_residual_rms=alt,
        window_used=window,
    )
