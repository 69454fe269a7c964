"""Frequency responses, certified non-vanishing, analyticity diagnostics.

The frequency response of a finitely supported filter is the
trigonometric sum hhat(w) = sum_k h[k] e^{-i<w,k>} on the torus. Its
modulus is that of the centred sum sum_k h[k] e^{-i<w,k-c>}, c the
centre of the support box, whose partial derivatives are bounded by
L_j = sum_k |k_j - c_j| |h[k]|. A grid minimum of |hhat| on the N^d grid
is turned into a certified lower bound over the whole torus by
subtracting (pi/N) sum_j L_j, a bound that no shift of the support
changes. A rank-1 tensor filter f_1 x ... x f_d, its factors read off
its fibres through the largest tap, has the product symbol prod_j fhat_j
and is swept as d rows of one FFT per grid instead of one N^d grid.
Real taps give hhat(-w) = conj hhat(w), so a real grid is swept on its
half spectrum (rfftn) and only complex taps take the full fftn.
symbol_eval sums the taps by blocked Paterson-Stockmeyer evaluation:
one GEMM per chunk of points, then a short Horner loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .lattice import GRID_AXIS_CAP, GRID_POINT_CAP, as_int

__all__ = [
    "symbol_eval",
    "ModulusCertificate",
    "min_modulus_certified",
    "DerivativeGrowth",
    "derivative_growth",
    "lemma_bound_check",
]

GRID_START = 64
# a tensor filter goes axis by axis when its rank-1 remainder is this small
RANK_ONE_TOL = 1e-12
# symbol_eval: points per chunk, and the cap on its Paterson-Stockmeyer block
EVAL_CHUNK = 512
PS_BLOCK_CAP = 64


def symbol_eval(h, omega):
    """hhat(omega) = sum_k h[k] e^{-i <omega, k>}, 2-pi-periodic per axis.

    omega: scalar (d=1), a length-d vector, or an (..., d) array.

    Blocked Paterson-Stockmeyer evaluation along h's last axis, whose
    n coefficients every point shares: the baby steps z^0..z^{B-1},
    z = e^{-i w} and B = ceil(sqrt(n)) capped at 64, come from one
    cumprod; one GEMM against the coefficients in (n/B, B) blocks gives
    the n/B giant-step coefficients, summed by Horner in z^B. Any other
    axis is then summed by Horner in its own z. Points go in chunks of
    EVAL_CHUNK: for a 1-D filter of up to 4096 taps no transient
    exceeds 0.5 MB.
    """
    omega = np.asarray(omega, dtype=float)
    scalar_in = False
    if omega.ndim == 0:
        omega = omega.reshape(1, 1)
        scalar_in = True
    elif omega.ndim == 1 and h.dim == 1:
        omega = omega[:, None]
    elif omega.shape[-1] != h.dim:
        raise ValueError(f"omega last axis {omega.shape[-1]} != dim {h.dim}")
    lead = omega.shape[:-1]
    flat = omega.reshape(-1, h.dim)
    # C[i R + r, j] = h.coeffs[r, i B + j], r over the R taps of the leading axes
    c = h.coeffs
    rest, n = c.shape[:-1], c.shape[-1]
    B = min(math.isqrt(n - 1) + 1, PS_BLOCK_CAP)
    m = -(-n // B)
    C = np.pad(c, [(0, 0)] * len(rest) + [(0, m * B - n)]).reshape(rest + (m, B))
    C = np.moveaxis(C, -2, 0).reshape(-1, B)
    out = np.empty(len(flat), complex)
    for s in range(0, len(flat), EVAL_CHUNK):
        w = flat[s:s + EVAL_CHUNK]
        z = np.exp(-1j * w.T)  # one row per axis, one column per point
        Z = np.ones((B, len(w)), complex)
        Z[1:] = z[-1]
        giant = (C @ np.cumprod(Z, axis=0)).reshape((m,) + rest + (-1,))
        zB = np.exp(-1j * B * w[:, -1])
        vals = reduce(lambda acc, g: acc * zB + g, giant[::-1])
        for za in z[:-1]:
            vals = reduce(lambda acc, g: acc * za + g, vals[::-1])
        out[s:s + EVAL_CHUNK] = vals * np.exp(-1j * (w @ h.origin))
    if scalar_in:
        return complex(out[0])
    return out.reshape(lead)


@dataclass(frozen=True)
class ModulusCertificate:
    """Grid minimum of |hhat| with a certified torus-wide lower bound."""

    grid_size: int
    grid_min: float
    certified_lower_bound: float
    argmin: tuple
    status: str  # "certified" | "likely-singular" | "inconclusive"


def _lipschitz(h):
    """sum_k |k - c|_1 |h[k]| for c the centre of the support box, summed
    axis by axis over the marginals of |h|; no shift of h changes it."""
    a = np.abs(h.coeffs)
    L = 0.0
    for j, n in enumerate(a.shape):
        marginal = a.sum(axis=tuple(i for i in range(a.ndim) if i != j))
        L += np.abs(np.arange(n) - (n - 1) / 2) @ marginal
    return float(L)


def _sweep_factors(h):
    """The 1-D factors f_1..f_d of h over its box and the l1 remainder
    r = ||h - f_1 x ... x f_d||_1 when r <= RANK_ONE_TOL ||h||_1 (d >= 2);
    otherwise None and r = 0. f_j is the fibre of h along axis j through
    p = argmax |h|, divided by h[p] for j >= 2: the skeleton (cross)
    approximation, exact for every separable h, in which no power of h[p]
    can overflow."""
    if h.dim == 1:
        return None, 0.0
    c = h.coeffs
    p = np.unravel_index(int(np.argmax(np.abs(c))), c.shape)
    rows = [c[p[:j] + (slice(None),) + p[j + 1:]] / (c[p] if j else 1) for j in range(h.dim)]
    r = float(np.sum(np.abs(c - reduce(np.multiply.outer, rows))))
    return (rows, r) if r <= RANK_ONE_TOL * np.sum(np.abs(c)) else (None, 0.0)


def _fold(rows, N, origin):
    """The 1-D factors f_1..f_d as the d rows of one (d, N) grid: tap m of
    f_j, at index origin_j + m, is added to row j, column (origin_j + m) mod N,
    taps that collide in the order of m."""
    grid = np.zeros((len(rows), N), np.result_type(*rows))
    for g, f, o in zip(grid, rows, origin):
        for s in range(0, len(f), N):  # N taps at a time: each block wraps at most once
            block, at = f[s:s + N], (o + s) % N
            g[at:at + len(block)] += block[:N - at]
            if len(block) > N - at:
                g[:len(block) - N + at] += block[N - at:]
    return grid


# taps near the float range overflow the moment sums and the FFT; the bound then
# comes out non-finite and raises the ValueError, so numpy need not warn as well
@np.errstate(over="ignore", invalid="ignore")
def min_modulus_certified(h, target_gap=1e-9):
    """Double the sweep grid until |hhat| is certified positive or a
    likely-singular point is found.

    certified_lower_bound = grid_min - L * pi/N, L = sum_k |k - c|_1 |h[k]|
    the gradient bound of the symbol centred on its support box (c); the
    bound sandwiches the true minimum: certified_lower_bound <= min |hhat|
    <= grid_min, and a shift of h changes neither. A rank-1 tensor h
    (d >= 2, remainder r <= RANK_ONE_TOL ||h||_1 for its fibres through
    the largest tap) is folded as d rows of one (d, N) grid, swept by one
    FFT along the rows: grid_min is the product of the rows' minima,
    argmin the tuple of their argmins, and the bound prod_j b_j - r when
    every factor's bound b_j is positive, min_j b_j - r otherwise. A dense
    first grid of more than GRID_POINT_CAP points (d >= 5) raises
    ValueError, and the dense sweep stops before a grid over the cap.
    A real grid is swept on its half spectrum (rfftn), which holds every
    modulus since hhat(-w) = conj hhat(w); its argmin then has w_d in
    [0, pi], pi written -pi. Complex taps are swept by fftn.
    target_gap must be > 0: near a zero the grid minimum only shrinks
    towards it, so a gap of 0 or NaN would sweep on to the cap. A bound
    that overflows the float range raises ValueError at the first grid.
    """
    if not target_gap > 0:
        raise ValueError(f"target_gap must be > 0, got {target_gap}")
    if not np.any(h.coeffs):
        raise ValueError("filter is identically zero")
    rows, r = _sweep_factors(h)
    # real taps: hhat(-w) = conj hhat(w), so the half spectrum holds every modulus
    fft = np.fft.fftn if h.is_complex else np.fft.rfftn
    if rows is None:
        L = [_lipschitz(h)]
    else:
        # as _lipschitz(f_j), its terms summed in order
        L = [float(np.add.accumulate(np.abs(np.arange(len(f)) - (len(f) - 1) / 2) * np.abs(f))[-1]) for f in rows]
    N = GRID_START
    while True:
        if rows is None:
            # grid stays referenced until |hhat| is taken: freeing it before
            # np.abs allocates measured a 30 MB higher peak RSS at N=4096, d=2
            grid = h.on_torus(N)
            mods = np.abs(fft(grid))
            i = int(np.argmin(mods))
            mins, idx = [float(mods.flat[i])], np.unravel_index(i, mods.shape)
        else:
            # every factor at origin 0: no shift moves |fhat_j|
            mods = np.abs(fft(_fold(rows, N, (0,) * h.dim), axes=[-1]))
            idx = np.argmin(mods, axis=1)
            mins = mods[np.arange(h.dim), idx].tolist()
        bounds = [x - l * np.pi / N for x, l in zip(mins, L)]
        grid_min = math.prod(mins)
        bound = (math.prod(bounds) if min(bounds) > 0 else min(bounds)) - r
        if not math.isfinite(bound):  # taps whose sums overflow: no finer grid recovers them
            raise ValueError(f"symbol sweep overflows the float range (certified bound {bound}); rescale the filter")
        argmin = tuple(2 * np.pi * i / N - (2 * np.pi if 2 * i >= N else 0) for i in np.ravel(idx).tolist())
        if bound > 0:
            status = "certified"
        elif grid_min < target_gap:
            status = "likely-singular"
        else:
            status = "inconclusive"
        cert = ModulusCertificate(N, grid_min, bound, argmin, status)
        if status != "inconclusive":
            return cert
        if N >= GRID_AXIS_CAP or rows is None and (2 * N) ** h.dim > GRID_POINT_CAP:
            return cert
        N *= 2


@dataclass(frozen=True)
class DerivativeGrowth:
    """Moment sums D_n = sum_k |k|^n |h[k]| and a factorial-rate fit.

    The fit targets log D_n = log C + log n! - n log R. fitted_rate is the
    conservative rate estimate used by the analyticity diagnostic: the
    smaller of the least-squares R and the per-n ratio estimates
    n D_{n-1} / D_n (each of which equals R exactly under the model).
    """

    log_moments: np.ndarray
    fit_constant: float
    fitted_rate: float


def derivative_growth(h, n_max):
    """Analyticity diagnostic for 1-D filters: growth of derivative bounds.

    D_n bounds sup |d^n hhat / d w^n|. Exponentially decaying h gives
    D_n <= C n!/R^n with R bounded away from 0; for merely algebraic decay
    the fitted rate collapses.
    """
    if h.dim != 1:
        raise ValueError("derivative_growth is defined for d=1 only")
    if not np.any(h.coeffs):
        raise ValueError("filter is identically zero")
    n_max = as_int(n_max, "n_max", 0, 60)
    # D_n = k_max^n sum_k |h[k]| (|k| / k_max)^n: no term exceeds |h[k]|, and 0^0 = 1
    abs_k = np.abs(h.indices().ravel().astype(float))
    k_max = max(abs_k.max(), 1.0)
    ns = np.arange(n_max + 1)
    with np.errstate(divide="ignore"):  # D_n = 0 for n >= 1 when h lives on {0}
        log_D = ns * np.log(k_max) + np.log((abs_k / k_max) ** ns[:, None] @ np.abs(h.coeffs.ravel()))

    finite = np.isfinite(log_D)
    if np.count_nonzero(finite) < 3:
        # support {0}: trivially analytic, no decaying tail to rate-fit
        return DerivativeGrowth(log_D, float(np.exp(log_D[0])), np.inf)

    y = log_D[finite] - np.cumsum(np.log(np.maximum(ns, 1)))[finite]
    n_fit = ns[finite].astype(float)
    A = np.vstack([np.ones_like(n_fit), -n_fit]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    log_C, log_R = coef
    R_ls = float(np.exp(log_R))
    # Per-n rate estimates: under D_n = C n!/R^n, n D_{n-1}/D_n == R for
    # every n; their minimum is a conservative estimate when the model
    # does not hold (algebraic decay drives it to 0 as n_max grows).
    nf = ns[finite]
    ratio = np.log(nf[1:].astype(float)) + log_D[finite][:-1] - log_D[finite][1:]
    R_ratio = float(np.exp(np.min(ratio))) if len(ratio) else np.inf
    fitted = min(R_ls, R_ratio)
    return DerivativeGrowth(log_D, float(np.exp(log_C)), fitted)


def lemma_bound_check(c, n_max):
    """Numerical check of the factorial bound sum_{k>=0} k^n e^{-ck} <= M n!/R^n.

    The sums are exact, in logs: S_0 = 1/(1-q) and, for n >= 1, Euler's
    S_n = sum_m A(n, m) q^{m+1} / (1-q)^{n+1} with q = e^{-c} and A the
    Eulerian numbers, all terms positive; ValueError when some S_n is
    beyond the float range. R is picked inside the constraint from the
    inductive proof of the bound: R < 1 and (e^{-c}/(1-e^{-c})) e < 1/R.
    M is the smallest constant making the bound hold for all sampled n,
    so the reported max ratio is exactly 1 and the content of the check
    is that M stays finite and stable as n_max grows.
    """
    if not 0 < c < np.inf:
        raise ValueError(f"c must be finite and > 0, got {c}")
    n_max = as_int(n_max, "n_max", 0, 60)
    ns = np.arange(n_max + 1)
    # A[n, m] = (m + 1) A[n-1, m] + (n - m) A[n-1, m-1], from A[n, 0] = 1
    A = np.zeros((n_max + 1, n_max + 1))
    A[:, 0] = 1.0
    for n in range(2, n_max + 1):
        A[n, 1:] = (ns[1:] + 1) * A[n - 1, 1:] + (n - ns[1:]) * A[n - 1, :-1]
    # log(1 - q), each form where it keeps full relative accuracy (Maechler's log1mexp)
    log_1mq = np.log(-np.expm1(-c)) if c < np.log(2) else np.log1p(-np.exp(-c))
    # sum_m A(n, m) q^m >= A(n, 0) = 1, so a q^m that underflows costs nothing
    q = np.exp(-c)
    log_S = -c + np.log(A @ q**ns) - (ns + 1) * log_1mq
    log_S[0] = -log_1mq
    if log_S.max() > np.log(np.finfo(float).max):
        raise ValueError(f"S_n = sum k^n e^(-ck) exceeds the float range for c = {c}, n <= {n_max}")
    # 1 from c = log(1 + e) on, where (1 - q) / (e q) would overflow; -expm1(-c) is 1 - q without rounding to 0
    R_cap = min(1.0, -np.expm1(-c) / (np.e * q)) if c < np.log1p(np.e) else 1.0
    R = 0.99 * R_cap
    log_ratio_vs_factorial = log_S + ns * np.log(R) - np.cumsum(np.log(np.maximum(ns, 1)))
    log_M = float(np.max(log_ratio_vs_factorial))
    max_ratio = float(np.exp(np.max(log_ratio_vs_factorial - log_M)))
    return {
        "log_S": log_S,
        "S": np.exp(log_S),
        "M": float(np.exp(log_M)),
        "R": float(R),
        "max_ratio": max_ratio,
    }
