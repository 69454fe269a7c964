"""Convolution inverses of finitely supported filters.

Three routes with overlapping domains (they cross-check one another):

  toeplitz_oracle    windowed least squares by its normal equations: a banded
                     Toeplitz matrix read block by block and factored by block LDL^H,
                     one inverse per Schur complement that differs from the last by > eps
  invert_stable      FFT sampling of 1/hhat with an aliasing bound and a
                     residual contract
  invert_exact_1d    Laurent expansion of 1/hhat by two recurrences, from
                     the symbol's factors inside and outside the unit circle

plus invert_singular_1d for 1-D filters whose symbol vanishes on the
unit circle (the same expansion with the unit zeros on the causal side;
the inverse then grows polynomially), and decay_fit for classifying the
decay/growth of the result.

invert_stable's grid starts at the smallest power of two N >= 2 W + 2
for the window radius W and doubles only while an a-posteriori bound
from the l1 Wiener lemma fails. If the periodized inverse cut to one
period, g', has ||h*g' - delta||_1 <= rho < 1, then sup |g - g'| <=
max|g'| rho / (1 - rho), and rho = 2^d ||h||_1 sum |g'| over the band of
each axis's support width at the period's edge. A band below the FFT's
roundoff, eps log2(N^d) ||h||_1 max|1/hhat|^2, also ends the doubling.
A rank-1 tensor h = f_1 x ... x f_d + remainder has 1/hhat = prod_j 1/fhat_j
up to the remainder, so its grids are the (d, N) grids of its factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    NotInvertibleError,
    SingularSymbolError,
    ToleranceUnreachableError,
    WrongBranchError,
)
from .lattice import GRID_AXIS_CAP, GRID_POINT_CAP, Box, Filter, _convolve, as_int, check_size
from .lattice import convolve  # noqa: F401 -- unused here, but bench/test_bench.py checks its traced binding
from .spectrum import _fold, _sweep_factors, min_modulus_certified

__all__ = [
    "toeplitz_oracle",
    "invert_stable",
    "ExactInverse1D",
    "invert_exact_1d",
    "SlowGrowthSeq",
    "invert_singular_1d",
    "DecayReport",
    "decay_fit",
    "residual_sup",
]

UNIT_CIRCLE_TOL = 1e-8
FFT_GRID_START = 2  # doubled up to the first grid, N >= 2 W + 2
MIN_FIT_SAMPLES = 16  # decay_fit needs this many points


def residual_sup(h, g, radius):
    """sup over the box of radius `radius` of |(h*g - delta)[k]|.

    Reads g once on the box widened by h's shape - 1 per axis and adds
    h[t] times a shifted slice of it per nonzero tap t, in row-major
    order: taps(h) x (2 radius + 1)^d multiply-adds in (2 radius +
    shape)^d memory, with no FFT and no full product h*g.
    """
    radius = as_int(radius, "radius", 0)
    n = 2 * radius + 1
    shape = h.coeffs.shape
    gs = g.on_box(Box([-radius - o - s + 1 for o, s in zip(h.origin, shape)], [n + s - 1 for s in shape]))
    out = np.zeros((n,) * h.dim, dtype=np.result_type(h.coeffs, gs))
    for t in zip(*np.nonzero(h.coeffs)):
        out += h.coeffs[t] * gs[tuple(slice(s - 1 - i, s - 1 - i + n) for i, s in zip(t, shape))]
    out[(radius,) * h.dim] -= 1
    return float(np.max(np.abs(out)))


def _certified_window(h, window_radius, certificate):
    """The window radius as an int >= 0, then NotInvertibleError unless the
    given (or a fresh) certificate is certified."""
    W = as_int(window_radius, "window_radius", 0)
    cert = certificate if certificate is not None else min_modulus_certified(h)
    if cert.status != "certified":
        raise NotInvertibleError(f"symbol not certified invertible (status {cert.status})", certificate=cert)
    return W


# -- brute-force oracle -------------------------------------------------------


def toeplitz_oracle(h, window_radius):
    """Least-squares inverse of h on the window of radius window_radius.

    The equations h*g = delta cover the support of h*g, so the normal matrix is M[i, j] = R[l_i - l_j]
    for R = h~*h, h~[k] = conj(h[-k]), with right side h~*delta; both are divided by 2^2p for 2^p the
    scale of max |h|, so M stays near 1 at any scale of h. By Parseval ||h*g||_2 >= min |hhat| ||g||_2,
    so the certificate keeps M positive definite. M is banded and never formed: _band_ldl factors it as
    L D L^H block by block from R, and a block that repeats the last one's index pattern and whose Schur
    complement is the last one's to eps reuses its inverse; later blocks with that pattern are not read.
    That serves the solve and one refinement step, whose residual is h~*(delta - h*g). Convolutions are
    direct, on raw arrays: no FFT and no roots. The band, S^{-1} and E per distinct block of s rows and a
    2s x s transient, fits in 3 n^d s points; past GRID_POINT_CAP, ValueError before allocating.
    """
    W = _certified_window(h, window_radius, None)
    d, n, shape = h.dim, 2 * W + 1, h.coeffs.shape
    # R vanishes beyond lag L_a - 1 on axis a; in row-major order that bounds |i - j|
    bw = sum(min(L - 1, n - 1) * n ** (d - 1 - a) for a, L in enumerate(shape))
    check_size(3 * n**d * max(bw, BAND_BLOCK_MIN), GRID_POINT_CAP, f"window_radius {W}: normal-matrix band")
    # p >= -1021 keeps 2^-p a float; an even power 2^2p leaves every rounding, square roots too, as at scale 1
    p = max(int(np.frexp(np.abs(h.coeffs).max())[1]), -1021)
    h_adj = np.conj(np.flip(h.coeffs)) * 2.0**-p * 2.0**-p  # h~, origin 1 - origin - shape
    # R = h~*h (lag 0 at index L - 1) cut to the lags -2W..2W, row-major: l_i - l_j is at at[i] - at[j] + at[-1]
    R = np.pad(_convolve(h_adj, h.coeffs), n - 1)[tuple(slice(L - 1, L + 2 * n - 2) for L in shape)]
    at = np.ravel_multi_index(np.indices((n,) * d).reshape(d, -1), R.shape)
    solve = _band_ldl(R.ravel(), at, bw)
    window = tuple(slice(L - 1, L - 1 + n) for L in shape)  # the window in h~*e, whose origin is 1 - shape - W
    e = np.zeros(np.add(shape, n - 1))  # delta on the rows, whose origin is origin - W
    if all(0 <= W - o < s for o, s in zip(h.origin, e.shape)):
        e[tuple(W - o for o in h.origin)] = 1.0

    def normal_solve(e):
        return solve(_convolve(h_adj, e)[window].ravel()).reshape((n,) * d)

    g = normal_solve(e)
    g += normal_solve(e - _convolve(h.coeffs, g))
    return Filter((-W,) * d, g)


# Rows per block of the band solve at least: below it the Python loop
# over the blocks costs more than the LAPACK work inside each block
BAND_BLOCK_MIN = 32


def _band_ldl(R, at, bw):
    """solve(b) for the Hermitian positive definite M[i, j] = R[at[i] - at[j] + at[-1]], zero where |i - j| > bw.

    Blocks of s = max(bw, BAND_BLOCK_MIN) rows, the len(at) mod s left over first, make M block tridiagonal,
    so M = L D L^H, L unit block lower bidiagonal: S_k = M_kk - E_{k-1} M_{k,k-1}^H on D's diagonal and E_k =
    M_{k+1,k} S_k^{-1} below L's. Without pivoting this is backward stable for positive definite M (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 13). solve runs the block substitutions.

    M_kk and M_{k+1,k} depend only on the pattern at[b.start:next.stop] - at[b.start]. When it repeats block
    k-1's and max|S_k - S_{k-1}| <= eps max|S_k|, block k reuses S_{k-1}^{-1} and E_{k-1}: a change below the
    factorization's own backward error, decided alike at every power-of-two scale (in 1-D the Schur complement
    converges to that of the semi-infinite Toeplitz matrix). From then on a block with the same pattern is not
    read: its M_kk - E_{k-1} M_{k,k-1}^H would be S_k bit for bit."""
    n, s = len(at), max(bw, BAND_BLOCK_MIN)
    edges = sorted({0, *range(n % s, n + 1, s)})
    blocks = [slice(a, z) for a, z in zip(edges, edges[1:])]
    S_inv, E = [], []  # E[k] is E_k, empty after the last block
    pat_last = settled = None
    for k, (a, z) in enumerate(zip(edges, edges[1:])):
        pat = at[a : edges[min(k + 2, len(blocks))]] - at[a]
        repeats = np.array_equal(pat, pat_last)
        if not (repeats and settled):  # else S_k would be S_{k-1} bit for bit: block k is not read
            M_kk, M_next = np.vsplit(R.take(np.subtract.outer(pat, pat[: z - a] - at[-1])), [z - a])
            S = M_kk - E[-1] @ below.conj().T if k else M_kk
            settled = repeats and np.max(np.abs(S - S_last)) <= np.finfo(float).eps * np.max(np.abs(S))
            pat_last, S_last, below = pat, S, M_next
        S_inv.append(S_inv[-1] if settled else np.linalg.inv(S))
        E.append(E[-1] if settled else below @ S_inv[k])

    def solve(rhs):
        y = [rhs[blocks[0]]]
        for k in range(1, len(blocks)):
            y.append(rhs[blocks[k]] - E[k - 1] @ y[-1])
        x = [S_inv[-1] @ y[-1]]
        for k in range(len(blocks) - 2, -1, -1):
            x.append(S_inv[k] @ y[k] - E[k].conj().T @ x[-1])
        return np.concatenate(x[::-1])

    return solve


# -- FFT route ----------------------------------------------------------------


def _broadcast(masks, combine):
    """The 1-D boolean masks, one per axis, combined over a d-D grid."""
    d = len(masks)
    return reduce(combine, (m.reshape([-1 if a == i else 1 for a in range(d)]) for i, m in enumerate(masks)))


def invert_stable(h, tail_tol=1e-10, window_radius=40, certificate=None):
    """Inverse filter from samples of 1/hhat, with an aliasing bound and a
    residual contract.

    Samples 1/hhat on an N^d grid, starting at the smallest power of two
    N >= 2 W + 2, and inverse-DFTs to the periodized inverse g_per. Take
    g' = g_per on the period D centred on -c, c = origin + ceil(w/2) with
    w = shape - 1 the support widths, and 0 elsewhere. Since h (*) g_per =
    delta on the torus, r' = h*g' - delta lives on the pairs that leave D,
    so ||r'||_1 <= rho = 2^d ||h||_1 sum(a), a = |g_per| on the band
    |p_i + c_i| >= N/2 - w_i + 1 of some axis. When rho < 1,
    g = g' * (delta + r')^{-1}, so sup |g - g'| <= max|g'| rho / (1 - rho).

    N doubles until that bound is <= tail_tol, or until max a is below
    the FFT's first-order forward error eps log2(N^d) ||h||_1 max|1/hhat|^2
    (the band is then roundoff, which no larger grid resolves). The
    window of radius window_radius is then cut from g' and must meet
    sup |(h*g - delta)[k]| <= tail_tol over the verification box; a grid
    at roundoff that misses it, or the grid cap, raises
    ToleranceUnreachableError. A first grid of more than GRID_AXIS_CAP
    points per axis or GRID_POINT_CAP in all, or a tail_tol that is not
    >= 0 (NaN included), raises ValueError.

    A rank-1 tensor h (d >= 2; its fibres f_j through the largest tap leave
    a remainder r = ||h - f_1 x ... x f_d||_1 <= RANK_ONE_TOL ||h||_1, as
    in min_modulus_certified) samples the 1/fhat_j on the d rows of one
    (d, N) grid instead: g_per is the tensor of the rows' inverse DFTs,
    and every sum and maximum above is a product of the rows' own, the
    band sum telescoped as sum_j B_j prod_{i<j} I_i prod_{i>j} S_i (S_j a
    row's sum, B_j its sum on the band, I_j off it). Since ||h*g' -
    delta||_1 <= ||f*g' - delta||_1 + r ||g'||_1 for f the tensor, rho
    gains r sum|g'| and ||h||_1 + r bounds ||f||_1. The window is the
    tensor of the rows' cuts, and the residual is that of h itself. The
    size rules are those of the N^d grid.
    """
    return _invert_stable(h, tail_tol, window_radius, certificate)[0]


def _invert_stable(h, tail_tol, window_radius, certificate):
    """invert_stable's inverse g and the residual sup its contract verified."""
    if not tail_tol >= 0:  # NaN too: no residual would ever meet it
        raise ValueError(f"tail_tol must be >= 0, got {tail_tol}")
    W = _certified_window(h, window_radius, certificate)
    d = h.dim
    verify_radius = max(W - h.support.extent, 0)
    widths = [n - 1 for n in h.coeffs.shape]
    centre = [o + (w + 1) // 2 for o, w in zip(h.origin, widths)]
    h_norm = float(np.sum(np.abs(h.coeffs)))
    N = FFT_GRID_START
    while N < 2 * W + 2:
        N *= 2
    check_size(N, GRID_AXIS_CAP, f"window_radius {W}: FFT grid axis")
    check_size(N**d, GRID_POINT_CAP, "torus grid")  # Filter.on_torus's own refusal, kept for the tensor path
    rows, r = _sweep_factors(h)
    ks = np.arange(-W, W + 1)
    fft, ifft = (np.fft.fftn, np.fft.ifftn) if h.is_complex else (np.fft.rfftn, np.fft.irfftn)
    row_fft, row_ifft = (np.fft.fft, np.fft.ifft) if h.is_complex else (np.fft.rfft, np.fft.irfft)
    best_rho, best_bound, best_resid = np.inf, np.inf, np.inf
    while True:
        # centred coordinate q = p + c of each grid index, folded into [-N/2, N/2)
        q = [(np.arange(N) + c + N // 2) % N - N // 2 for c in centre]
        in_band = [np.abs(qi) > N // 2 - w for qi, w in zip(q, widths)]
        if rows is None:
            ghat = fft(h.on_torus(N))
            np.reciprocal(ghat, out=ghat)
            m = float(np.max(np.abs(ghat)))  # not m ** 2, which raises OverflowError past m = 1.3e154
            gper = ifft(ghat, s=(N,) * d, axes=range(d))
            del ghat  # the 4-D grids are hundreds of MB: free the spectrum first
            absg = np.abs(gper)
            band = absg[_broadcast(in_band, np.logical_or)]
            rho = 2**d * h_norm * float(np.sum(band))
            g_max, band_max = float(np.max(absg)), float(np.max(band, initial=0.0))
        else:
            # h = f_1 x ... x f_d + remainder: 1/hhat of the tensor is the
            # product of the rows' 1/fhat_j, and g_per the tensor of the rows
            ghat = row_fft(_fold(rows, N, h.origin))
            np.reciprocal(ghat, out=ghat)
            m = math.prod(np.max(np.abs(ghat), axis=1).tolist())
            gper = row_ifft(ghat, N)
            absg = np.abs(gper)
            on_band = np.where(in_band, absg, 0.0)
            S, B, top, band_top = (a.tolist() for a in (absg.sum(1), on_band.sum(1), absg.max(1), on_band.max(1)))
            off = np.where(in_band, 0.0, absg).sum(1).tolist()
            # the band sum prod S - prod off, telescoped over the axes: no cancellation
            band_sum = sum(B[j] * math.prod(off[:j]) * math.prod(S[j + 1:]) for j in range(d))
            # ||h*g' - delta||_1 <= ||f*g' - delta||_1 + ||(h - f)*g'||_1, ||f||_1 <= ||h||_1 + r
            rho = 2**d * (h_norm + r) * band_sum + r * math.prod(S)
            g_max = math.prod(top)
            band_max = max(band_top[j] * math.prod(top[:j] + top[j + 1:]) for j in range(d))
        floor = np.finfo(float).eps * d * np.log2(N) * (h_norm * m) * m
        bound = g_max * rho / (1.0 - rho) if rho < 1.0 else np.inf
        best_rho, best_bound = min(best_rho, rho), min(best_bound, bound)
        at_roundoff = band_max <= floor
        accept = bound <= tail_tol or at_roundoff
        at_cap = N >= GRID_AXIS_CAP or (2 * N) ** d > GRID_POINT_CAP
        if accept or at_cap:
            idx = ks % N
            # g' is 0 on the window indices outside D, whose q is not k + c
            keep = [qi[idx] == ks + c for qi, c in zip(q, centre)]
            if rows is None:
                g = gper[np.ix_(*([idx] * d))]
                g[~_broadcast(keep, np.logical_and)] = 0.0
            else:  # D is a product set: the cut is the tensor of the rows' cuts
                g = reduce(np.multiply.outer, [np.where(k, row[idx], 0.0) for k, row in zip(keep, gper)])
            gf = Filter((-W,) * d, g).real_if_close()
            resid = residual_sup(h, gf, verify_radius)
            if accept and resid <= tail_tol:
                return gf, resid
            best_resid = min(best_resid, resid)
            # a grid at roundoff that misses the residual: no larger grid does better
            if at_roundoff or at_cap:
                alias = f"bound {best_bound:.3e}" if best_rho < 1.0 else f"sum {best_rho:.3e} >= 1"
                raise ToleranceUnreachableError(
                    f"no grid up to {N}^{d} meets {tail_tol:.1e}: best aliasing {alias}, "
                    f"best residual {best_resid:.3e}",
                    best_residual=best_resid,
                )
        N *= 2


# -- exact 1-D route ----------------------------------------------------------

# np.roots spreads an m-fold root over a radius of about eps^(1/m) (1e-4
# for m = 4); roots this close to one another are taken as one group
ROOT_GROUP_GAP = 1e-3


def _groups(roots):
    """The roots linked by chains of gaps below ROOT_GROUP_GAP, one array per group."""
    near = np.abs(roots[:, None] - roots[None, :]) < ROOT_GROUP_GAP
    if np.count_nonzero(near) == len(roots):  # singletons, in np.unique's (descending) order
        return [roots[i : i + 1] for i in range(len(roots) - 1, -1, -1)]
    for _ in range(len(roots).bit_length()):  # transitive closure by squaring
        near = near @ near
    return [roots[row] for row in np.unique(near, axis=0)]


def _split_roots(h):
    """Roots of Q(z) = sum_k h[k] z^{k_max - k} as (inner, unit, outer) lists.

    Each root of a group whose mean lies on the unit circle (the mean of a
    spread multiple root is accurate where its members are not) is a unit
    root at the snapped mean; every other root keeps its computed value
    and goes by its own modulus.
    """
    if h.dim != 1:
        raise ValueError("exact inversion is defined for d=1 only")
    if not np.any(h.coeffs):
        raise ValueError("filter is identically zero")
    if not float(np.abs(h.coeffs).max()) / float(abs(h.coeffs[0])) < np.inf:  # np.roots divides by the leading tap
        raise ValueError("the taps' ratio to the leading tap overflows the float range, and with it the roots")
    roots = np.roots(h.coeffs.ravel())
    inner, unit, outer = [], [], []
    for group in _groups(roots):
        mean = group.mean()
        for r in group:
            u = mean if abs(abs(mean) - 1.0) < UNIT_CIRCLE_TOL else r
            if abs(abs(u) - 1.0) < UNIT_CIRCLE_TOL:
                unit.append(_snap_unit(u))
            else:
                (inner if abs(r) < 1.0 else outer).append(r)
    return inner, unit, outer


def _snap_unit(r):
    """r moved onto the unit circle, and onto +-1 when near-real."""
    r = complex(r) / abs(r)
    if abs(r.imag) < 1e-7:
        r = complex(1.0 if r.real > 0 else -1.0, 0.0)
    return r


def _decay_rate(inner, outer):
    """-log of the spectral radius of the two-sided expansion of 1/Q."""
    rho = max([abs(r) for r in inner] + [1.0 / abs(r) for r in outer], default=0.0)
    return np.inf if rho == 0.0 else -float(np.log(rho))


def _series(num, den, n):
    """First n coefficients of the power series num/den (ascending, den[0] != 0)."""
    s = np.zeros(n, dtype=np.result_type(num, den))
    s[: len(num)] = num[:n]
    q = len(den) - 1
    rev = den[:0:-1]  # den[q], ..., den[1]
    for t in range(n):
        j = min(t, q)
        s[t] = (s[t] - rev[q - j :] @ s[t - j : t]) / den[0]
    return s


@dataclass
class ExactInverse1D:
    """Closed-form 1-D inverse from an inner/outer factorisation of the symbol.

    The symbol H(z) = sum h[k] z^{-k} is z^{-k_max} Q(z) with
    Q(z) = sum h[k] z^{k_max-k} = c0 A(z) B(z), A monic with the roots
    inside the unit circle and B monic with those outside. The Bezout
    identity U A + V B = 1 splits 1/Q = (V/A + U/B) / c0: on the unit
    circle V/A expands in powers of 1/z and U/B in powers of z, each by a
    linear recurrence, and g[k] is the coefficient of z^{-(k + k_max)}.
    decay_rate > 0 iff no unit-circle roots.
    """

    causal: tuple  # (num, den), ascending in 1/z: V/(c0 A) = z^{-1} num/den
    anticausal: tuple  # (num, den), ascending in z: U/(c0 B) = num/den
    k_max: int
    decay_rate: float

    def evaluate(self, ks):
        """g[k] for integer ks; ValueError for a non-integer or non-finite index, or past GRID_POINT_CAP terms."""
        ks = np.atleast_1d(np.asarray(ks))
        if ks.dtype.kind not in "iuf" or not np.all(np.isfinite(ks) & (ks == np.trunc(ks))):
            raise ValueError("indices must be finite integers")
        m = ks.astype(int) + self.k_max  # g[k] = [z^{-m}] 1/Q
        terms = int(m.max(initial=0)), 1 - int(m.min(initial=1))  # causal m >= 1, anticausal m <= 0
        check_size(sum(terms), GRID_POINT_CAP, "Laurent series")
        right = m >= 1
        causal = _series(*self.causal, terms[0])
        anticausal = _series(*self.anticausal, terms[1])
        out = np.zeros(len(ks), dtype=np.result_type(causal, anticausal))
        out[right] = causal[m[right] - 1]
        out[~right] = anticausal[-m[~right]]
        return out

    def to_filter(self, radius):
        radius = as_int(radius, "radius", 0)
        check_size(max(radius + self.k_max, 0) + max(radius + 1 - self.k_max, 0), GRID_POINT_CAP, "Laurent series")
        ks = np.arange(-radius, radius + 1)
        return Filter((-radius,), self.evaluate(ks))


def _sylvester(A, B):
    """Matrix of (dB, dA) -> A dB + B dA, deg dB < deg B, deg dA < deg A (descending)."""
    p, q = len(A) - 1, len(B) - 1
    S = np.zeros((p + q, p + q), dtype=np.result_type(A, B))
    for i in range(q):
        S[i : i + p + 1, i] = A
    for j in range(p):
        S[j : j + q + 1, q + j] = B
    return S


def _laurent_inverse(h, inner, outer):
    """ExactInverse1D of the 1-D filter h, given the roots of Q on each side."""
    coeffs = h.coeffs.ravel()
    A, B = (np.atleast_1d(np.poly(roots)) for roots in (inner, outer))
    if not h.is_complex:
        A, B = A.real, B.real
    p, q = len(A) - 1, len(B) - 1
    one = np.eye(1, max(p + q, 1), max(p + q, 1) - 1).ravel()  # the constant 1
    U, V = one, np.zeros(0)  # a monomial symbol: 1/Q = 1/c0
    if p + q:
        # one Newton step on A B = Q/c0 takes the factors from the accuracy
        # of the roots to that of the coefficients
        d = np.linalg.solve(_sylvester(A, B), (coeffs / coeffs[0] - np.polymul(A, B))[1:])
        A, B = A + np.r_[0, d[q:]], B + np.r_[0, d[:q]]
        x = np.linalg.solve(_sylvester(A, B), one)  # Bezout: U A + V B = 1
        U, V = x[:q], x[q:]
    return ExactInverse1D(
        causal=(V / coeffs[0], A),
        anticausal=(U[::-1] / coeffs[0], B[::-1]),
        k_max=h.origin[0] + len(coeffs) - 1,
        decay_rate=_decay_rate(inner, outer),
    )


def invert_exact_1d(h):
    """Exact two-sided inverse of a 1-D filter via its symbol's roots.

    Raises SingularSymbolError (pointing at invert_singular_1d) when the
    symbol vanishes on the unit circle.
    """
    inner, unit, outer = _split_roots(h)
    if unit:
        raise SingularSymbolError(
            "symbol has unit-circle zeros; use invert_singular_1d", unit_roots=unit
        )
    return _laurent_inverse(h, inner, outer)


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

    The unit roots (snapped onto the circle) join the inner factor A of
    the exact route, so V/A expands causally: each unit factor
    (1 - e^{i w_j} z^{-1})^{m_j} inverts as a one-sided modulated
    cumulative sum. The result is the causal representative of the
    non-unique slow-growth inverse; it satisfies h*g = delta on the window
    interior. The window sits about index 0 for a filter at origin 0 and
    moves by -origin with the filter; one of more than GRID_AXIS_CAP points,
    or a residual_tol that is not >= 0, raises ValueError before any
    coefficient is evaluated.
    """
    W = as_int(window_radius, "window_radius", 0)
    if not residual_tol >= 0:  # NaN too: every residual would pass it
        raise ValueError(f"residual_tol must be >= 0, got {residual_tol}")
    inner, unit, outer = _split_roots(h)
    if not unit:
        raise WrongBranchError("symbol has no unit-circle zeros; use invert_exact_1d")
    deg = h.coeffs.size - 1
    if not outer and W < deg:
        raise ValueError(
            f"window_radius {W} is below the filter's degree {deg}: "
            "the one-sided inverse would have no index to verify"
        )
    # only outer roots give the inverse a part left of the origin, decaying
    # like exp(-rate |k|); reaching 40/rate drops a tail below double precision
    w_neg = min(max(W, int(np.ceil(40.0 / max(_decay_rate([], outer), 1e-3)))), 20 * W) if outer else 0
    check_size(W + w_neg + 1, GRID_AXIS_CAP, f"window_radius {W}: window")
    # h*g is the same sequence for h at any origin once the window moves by -origin
    window = Box((-w_neg - h.origin[0],), (W + w_neg + 1,))
    vals = _laurent_inverse(h, inner + unit, outer).evaluate(window.indices().ravel())

    # w_neg is 0 or >= W, and left of a one-sided window h*g and delta are both 0
    resid = residual_sup(h, Filter(window.origin, vals), max(W - deg, 0))
    if resid > residual_tol:
        raise ToleranceUnreachableError(
            f"singular-inverse residual {resid:.3e} > {residual_tol:.1e}",
            best_residual=resid,
        )

    # snapped members of one multiple root are equal, so counts are multiplicities
    n = max(unit.count(u) for u in unit) - 1
    C = float(np.max(np.abs(vals) / (1.0 + np.abs(window.indices().ravel())) ** n))
    return SlowGrowthSeq(window=window, values=vals, growth_order=n, bound_constant=C, residual=resid)


# -- decay classification -----------------------------------------------------


@dataclass
class DecayReport:
    """Decay/growth model of a sequence, fitted by decay_fit.

    model is "exponential" (|g[k]| ~ C e^{-rate |k|_1}), "algebraic"
    (|g[k]| ~ C (1+||k||)^order) or "mixed" (neither fit 2x better in RMS).
    Kernels report their generator's exact rate, or "compact" (rate inf).
    """

    model: str
    rate: float
    order: float
    fit_constant: float
    residual_rms: float


def decay_fit(g):
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
    if np.count_nonzero(nonzero) < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} nonzero samples")
    sel = nonzero & (dist1 >= max(np.max(dist1[nonzero]) / 2.0, 1.0))  # the outer half, at least 1 out
    logv = np.log(vals[sel])

    def linfit(x):
        A = np.vstack([np.ones_like(x), x]).T
        coef, *_ = np.linalg.lstsq(A, logv, rcond=None)
        rms = float(np.sqrt(np.mean((A @ coef - logv) ** 2)))
        return coef, rms

    (a_exp, slope_exp), rms_exp = linfit(dist1[sel])
    (a_alg, slope_alg), rms_alg = linfit(np.log1p(dist2[sel]))

    if rms_exp * 2.0 <= rms_alg:
        model, rms, log_const = "exponential", rms_exp, a_exp
    elif rms_alg * 2.0 <= rms_exp:
        model, rms, log_const = "algebraic", rms_alg, a_alg
    else:
        model, rms = "mixed", min(rms_exp, rms_alg)
        log_const = a_exp if rms_exp <= rms_alg else a_alg
    with np.errstate(over="ignore"):  # a sequence far from the origin: past e^709.8 the constant rounds to inf
        const = np.exp(log_const)
    return DecayReport(
        model=model,
        rate=-float(slope_exp),
        order=float(slope_alg),
        fit_constant=float(const),
        residual_rms=rms,
    )
