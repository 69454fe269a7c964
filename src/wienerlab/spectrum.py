"""Frequency responses, certified non-vanishing, analyticity diagnostics.

The frequency response of a finitely supported filter is the
trigonometric sum hhat(w) = sum_k h[k] e^{-i<w,k>} on the torus. Its
modulus is that of the centred sum sum_k h[k] e^{-i<w,k-c>}, c the
centre of the support box, whose partial derivatives are bounded by
L_j = sum_k |k_j - c_j| |h[k]|. A grid minimum of |hhat| on the N^d grid
is turned into a certified lower bound over the whole torus by
subtracting (pi/N) sum_j L_j, a bound that no shift of the support
changes. The sweep folds h's axis groups side by side onto one (G, N,
..., N) grid per size, one FFT over the group axes: a dense h is one
group of d axes, a rank-1 tensor f_1 x ... x f_d (its fibres through
the largest tap) d groups of one, its symbol prod_j fhat_j, on a (d, N)
grid instead of N^d. Real taps give hhat(-w) = conj hhat(w), so a real
grid is swept on its half spectrum (rfftn), complex taps by fftn.
symbol_eval sums the taps by blocked Paterson-Stockmeyer evaluation:
one GEMM per chunk of points, then a short Horner loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .lattice import GRID_AXIS_CAP, GRID_POINT_CAP, _fold, as_int

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


def _lipschitz(taps, shape):
    """sum_m |m - c_j|_1 |f_j[m]| per group, f_j = taps[j] and c_j the centre of its box, whose
    extents are those of h, shape; summed over the marginals of |f_j|. No shift of h changes it."""
    a = np.abs(taps)
    G, k = len(a), a.ndim - 1
    centre = (np.array(shape).reshape(G, k, 1) - 1) / 2
    L = 0.0
    for j in range(k):
        others = tuple(i for i in range(1, k + 1) if i != j + 1)
        marginal = a.sum(axis=others) if others else a
        L += np.vecdot(np.abs(np.arange(a.shape[j + 1]) - centre[:, j]), marginal)
    return L.tolist()


def _axis_groups(h):
    """The taps of h's factors over equal-rank groups of axes, group j holding axes j k .. (j + 1) k - 1,
    stacked as a (G, n_1, ..., n_k) array, and the l1 remainder r. A rank-1 h (d >= 2, r = ||h - f_1 x ... x
    f_d||_1 <= RANK_ONE_TOL ||h||_1) is d one-axis groups, zero-padded: f_j is h's fibre along axis j through
    p = argmax |h|, over h[p] for j >= 2 (the skeleton approximation: exact for every separable h, and no
    power of h[p] can overflow). Any other h is one group of all d axes, with r = 0."""
    c = h.coeffs
    if c.ndim > 1:
        a = np.abs(c)
        p = np.unravel_index(int(np.argmax(a)), c.shape)
        taps = np.zeros((c.ndim, max(c.shape)), c.dtype)
        rows = [np.divide(c[p[:j] + (slice(None),) + p[j + 1:]], c[p] if j else 1, out=taps[j, :n]) for j, n in enumerate(c.shape)]
        r = float(np.abs(c - reduce(np.multiply.outer, rows)).sum())
        if r <= RANK_ONE_TOL * a.sum():
            return taps, r
    return c[None], 0.0


def _fftn(grid, k):
    """rfftn over the last k axes of a real grid, fftn of a complex one, bit for bit: numpy's
    chain of 1-D transforms, last axis first, without its per-call argument handling."""
    out = np.fft.fft(grid) if grid.dtype.kind == "c" else np.fft.rfft(grid)
    for axis in range(-2, -k - 1, -1):
        out = np.fft.fft(out, axis=axis)
    return out


# taps near the float range overflow the moment sums and the FFT; the bound then
# comes out non-finite and raises the ValueError, so numpy need not warn as well
@np.errstate(over="ignore", invalid="ignore")
def min_modulus_certified(h, target_gap=1e-9):
    """Double the sweep grid until |hhat| is certified positive or a
    likely-singular point is found.

    The grid holds h's axis groups (_axis_groups): one group of all d
    axes, or the d factors f_j of a rank-1 h, symbol prod_j fhat_j up to
    the remainder r; each is folded at origin 0, since no shift moves
    |fhat_j|. b_j = min |fhat_j| - L_j pi/N, L_j = sum_m |m - c_j|_1
    |f_j[m]| the gradient bound about the centre c_j of f_j's box, bounds
    |fhat_j| on the torus. grid_min is the product of the groups' minima,
    argmin the tuple of their argmins, and the bound prod_j b_j - r when
    every b_j > 0, else min_j b_j - r: certified_lower_bound <= min |hhat|
    <= grid_min, bit for bit the same for every shift of h. A first grid
    of more than GRID_POINT_CAP points (a dense filter of d >= 5) raises
    ValueError, and the sweep stops before a grid over the cap.
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
    taps, r = _axis_groups(h)
    G, k = len(taps), taps.ndim - 1
    L = _lipschitz(taps, h.coeffs.shape)
    origin, groups = np.zeros((G, k), int), np.arange(G)
    N = GRID_START
    while True:
        # grid stays referenced until |hhat| is taken: freeing it before
        # np.abs allocates measured a 30 MB higher peak RSS at N=4096, d=2
        grid = _fold(taps, origin, N)
        mods = np.abs(_fftn(grid, k))
        flat = mods.reshape(G, -1)
        i = flat.argmin(axis=1)
        mins = flat[groups, i].tolist()
        bounds = [x - l * np.pi / N for x, l in zip(mins, L)]
        grid_min = math.prod(mins)
        bound = (math.prod(bounds) if min(bounds) > 0 else min(bounds)) - r
        if not math.isfinite(bound):  # taps whose sums overflow: no finer grid recovers them
            raise ValueError(f"symbol sweep overflows the float range (certified bound {bound}); rescale the filter")
        if bound > 0:
            status = "certified"
        elif grid_min < target_gap:
            status = "likely-singular"
        else:
            status = "inconclusive"
        if status != "inconclusive" or N >= GRID_AXIS_CAP or (2 * N) ** k > GRID_POINT_CAP:
            break
        N *= 2
    # each group's argmin over its axes, in axis order
    idx = np.ravel(np.unravel_index(i, mods.shape[1:]), order="F").tolist()
    argmin = tuple(2 * np.pi * i / N - (2 * np.pi if 2 * i >= N else 0) for i in idx)
    return ModulusCertificate(N, grid_min, bound, argmin, status)


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
