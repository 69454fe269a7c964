"""Cardinal spline interpolation: generators, Lagrange kernels, identities.

The Lagrange (interpolation) kernel of a generator phi is
phi_int(x) = sum_k h[k] phi(x - k), with h the discrete convolution
inverse of the integer samples phi[.]. Two independent construction
routes are provided: the space-domain assembly above, and the
Fourier-domain ratio phihat_int = phihat / sum_n phihat(. - 2 pi n),
which also covers slowly increasing Green's-function generators. Each
generator's alias sum on the output grid is closed-form, through one
trigonometric polynomial for sum_m (y + m)^-p (a derivative of pi cot pi y);
summed over its cosets mod 2 pi, it is the periodized denominator.

B-spline values are exact: at a float or grid point j/M, n! (2M)^n B_n
is an integer sum of truncated powers, divided once with correct rounding.

Constants of a degree are built once per process and kept read-only: the
exact inverse of the integer samples, its taps up to 2^14 a side (see
_bspline_taps), interpolate's prefilter and, in a bounded cache, the
B-spline's half grid per grid step (see bspline_grid).
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass
from functools import cache, lru_cache, reduce

import numpy as np

from .errors import TailBoundError
from .inversion import DecayReport, invert_exact_1d
# re-exported only for the install check at bench/test_bench.py:132, which ROADMAP item 0 moves
from .inversion import invert_stable  # noqa: F401
from .lattice import GRID_POINT_CAP, Filter, convolve, json_int

__all__ = [
    "bspline_value",
    "bspline_samples",
    "Generator",
    "bspline_generator",
    "green_power_generator",
    "LagrangeKernel",
    "lagrange_kernel_space",
    "lagrange_kernel_fourier",
    "interpolate",
    "reproduction_check",
    "amalgam_norm",
    "kernel_to_csv",
    "generator_from_json",
]

MAX_BSPLINE_DEGREE = 11
# _lattice_sum's largest integer coefficient, about (p-1)! (4/pi)^p, passes
# the float range at order 165 and costs O(p^2) integer steps to build
MAX_GREEN_ORDER = 160
TAIL_TOL = 1e-12  # interpolate cuts the inverse filter where its taps fall below this
AMALGAM_OFFSETS = np.arange(0.0, 1.0, 1.0 / 16)  # the x0 over which amalgam_norm takes its sup
_HALF_GRID_CACHE_SIZE = 64
_HALF_GRID_CACHE_POINTS = 2**14
_CSV_BLOCK_ROWS = 2**14  # kernel_to_csv formats this many rows per write, about 1 MB of text


def _degree(degree):
    n = int(degree)
    if not 0 <= n <= MAX_BSPLINE_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_BSPLINE_DEGREE}]")
    return n


def _grid_points(grid_step):
    """Grid points per unit, M = round(1/grid_step); ValueError unless M >= 1."""
    inverse = 1.0 / grid_step if grid_step > 0 else 0.0
    M = int(round(inverse)) if math.isfinite(inverse) else 0
    if M < 1:
        raise ValueError(f"grid_step must be > 0 with round(1/grid_step) finite and >= 1, got {grid_step!r}")
    return M


def _check_kernel_size(K, points):
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    if points > GRID_POINT_CAP:
        raise ValueError(f"kernel grid of {points} points exceeds {GRID_POINT_CAP} points")


def _bspline_at(n, j, M):
    """Centered degree-n B-spline at j/M (integers, M > 0), rounded once.

    n! (2M)^n B_n(j/M) = sum_i (-1)^i C(n+1, i) (2j + (n+1-2i) M)_+^n is an
    integer, exactly 0 outside the support (an (n+1)-th difference of a
    degree-n polynomial).
    """
    if n == 0 and abs(2 * j) == M:
        return 0.5  # the midpoint at the box's jumps keeps partition of unity
    ts = [2 * j + (n + 1 - 2 * i) * M for i in range(n + 2)]
    total = sum((-1) ** i * math.comb(n + 1, i) * t**n for i, t in enumerate(ts) if t > 0)
    return total / (math.factorial(n) * (2 * M) ** n)


def bspline_value(degree, x):
    """Centered B-spline of the given degree at x, evaluated exactly.

    A float is a dyadic rational j/M, so the integer truncated-power sum
    is exact and the result is correctly rounded.
    """
    return _bspline_at(_degree(degree), *float(x).as_integer_ratio())


def _half_grid(n, M):
    """Read-only B_n(j/M) for 0 <= j <= ceil((n + 1) M / 2) + 1."""
    half = np.array([_bspline_at(n, j, M) for j in range(((n + 1) * M + 1) // 2 + 2)])
    half.flags.writeable = False
    return half


_cached_half_grid = lru_cache(maxsize=_HALF_GRID_CACHE_SIZE)(_half_grid)


def bspline_grid(degree, grid_step):
    """(positions, values) of the degree-n B-spline on its support grid.

    The half grid j >= 0 of at most _HALF_GRID_CACHE_POINTS = 2^14 points is
    kept for the _HALF_GRID_CACHE_SIZE = 64 most recent (degree, M), so the
    cache holds 8 MiB at most; a larger one is computed on every call. The
    returned arrays are fresh.
    """
    n = _degree(degree)
    M = _grid_points(grid_step)
    js = np.arange(-(n + 1) * M // 2 - 1, (n + 1) * M // 2 + 2)  # the support, one point beyond each end
    # B_n is even and each value exact, so the |j| values mirror bit for bit
    small = -js[0] + 1 <= _HALF_GRID_CACHE_POINTS
    half = (_cached_half_grid if small else _half_grid)(n, M)
    return js / M, half[np.abs(js)]


def bspline_samples(degree, d=1):
    """Integer samples of the centered tensor-product B-spline; ValueError
    outside 1 <= d <= 64 (an ndarray's most axes) or past GRID_POINT_CAP
    samples, before allocating."""
    n = _degree(degree)
    k0 = n // 2
    if not 1 <= d <= 64:
        raise ValueError(f"d must be in [1, 64], got {d}")
    if (2 * k0 + 1) ** d > GRID_POINT_CAP:
        raise ValueError(f"{2 * k0 + 1}^{d} B-spline samples exceed {GRID_POINT_CAP} points")
    line = np.array([_bspline_at(n, k, 1) for k in range(-k0, k0 + 1)])
    return Filter((-k0,) * d, reduce(np.multiply.outer, [line] * d))


@cache
def _bspline_inverse(n):
    """Exact inverse of the degree-n integer samples, its arrays read-only."""
    exact = invert_exact_1d(bspline_samples(n))
    for a in (*exact.causal, *exact.anticausal):
        a.flags.writeable = False
    return exact


_kept_taps = {}  # degree -> the longest read-only taps g[k], |k| <= its radius, kept so far


def _bspline_taps(n, r):
    """Read-only taps g[k], |k| <= r, of _bspline_inverse(n).

    evaluate's recurrences are prefix-stable: series term t depends only on
    numerator term t and the terms before it, so the taps of a smaller radius
    are a slice of a larger radius's bit for bit. The longest taps asked for
    with r <= _HALF_GRID_CACHE_POINTS = 2^14 are kept per degree, at most
    12 x (2 x 2^14 + 1) float64 (3 MiB), and sliced; a larger r is evaluated
    on every call and not kept.
    """
    kept = _kept_taps.get(n)
    if kept is not None and 2 * r + 1 <= len(kept):
        mid = len(kept) // 2
        return kept[mid - r : mid + r + 1]
    taps = _bspline_inverse(n).evaluate(np.arange(-r, r + 1))
    taps.flags.writeable = False
    if r <= _HALF_GRID_CACHE_POINTS:
        _kept_taps[n] = taps
    return taps


@cache
def _prefilter(n):
    """interpolate's 1-D inverse filter of degree n: c has infinite support, so
    the exact inverse is cut where its decay rate puts its taps below TAIL_TOL."""
    scale = max(abs(_bspline_taps(n, 0)[0]), 1.0)
    radius = int(np.ceil(np.log(scale / TAIL_TOL) / _bspline_inverse(n).decay_rate)) + 4
    return Filter((-radius,), _bspline_taps(n, radius))


@cache
def _cot_coefficients(p):
    """Ascending integer coefficients of P_{p-1} (see _lattice_sum)."""
    P = [0, 1]  # P_0
    for _ in range(p - 1):
        dP = [j * c for j, c in enumerate(P)][1:]
        P = [-(a + b) for a, b in zip(dP + [0, 0], [0, 0] + dP)]
    return tuple(P)


def _lattice_sum(y, p):
    """F_p(y) = (sin pi y / pi)^p sum_m (y + m)^-p (the symmetric sum for p = 1).

    sum_m (y + m)^-p = (-1)^(p-1) pi^p P(cot pi y) / (p-1)!, P = P_{p-1} from
    P_0 = t and P_{k+1} = -(1 + t^2) P_k'. Its coefficients c_j are integers
    of one sign, nonzero only for j = p mod 2, so F_p = sum_j |c_j| cos^j sin^(p-j)
    / (p-1)!, summed by Horner in cos^2: no pole at y = 0 and, for |y| <= 1/2,
    no negative term.
    """
    P = _cot_coefficients(p)
    cos, sin2 = np.cos(np.pi * y), np.sin(np.pi * y) ** 2
    total, sin2_power = 0.0, 1.0
    for c in P[p::-2]:
        total = total * cos**2 + abs(c) * sin2_power
        sin2_power = sin2_power * sin2
    return total * cos ** (p % 2) / math.factorial(p - 1)


@cache
def _green_decay_rate(p):
    """Decay rate of green_power(p)'s Lagrange kernel: its transform's nearest
    poles lie at y = 1/2 +- i a / 2 pi, where P(cot pi y) = 0, cot^2 = -tanh^2(a/2).
    So a = 2 artanh sqrt(u*), u* the least zero of R(u) = sum_j |c_j| (-u)^(j/2);
    R has real zeros only, and Newton's method from u = 0 climbs to u* monotonically
    (u* = 1 at p = 2: the compact hat)."""
    # sum_j |c_j| < 2e299 at p <= MAX_GREEN_ORDER: R and R' stay in the float range
    R = np.polynomial.Polynomial([(-1) ** i * float(abs(c)) for i, c in enumerate(_cot_coefficients(p)[::2])])
    u, dR = 0.0, R.deriv()
    while (step := -R(u) / dR(u)) > 0 and u + step != u:
        u += step
    return math.inf if u >= 1.0 else 2.0 * math.atanh(math.sqrt(u))


def _decay_rate(gen):
    """Exact rate a of |phi_int(x)| <= C e^{-a |x|}, inf for a compact kernel;
    by Schoenberg's identity green_power(p)'s is the degree p - 1 B-spline's."""
    if gen.kind == "bspline":
        return _bspline_inverse(gen.params["degree"]).decay_rate
    return _green_decay_rate(gen.params["order"])


@dataclass
class Generator:
    """Shift-invariant-space generator: its symbol and a closed-form alias sum
    of it, times |w0|^p (p the symbol's pole order at 0, w0 = w mod 2 pi)."""

    kind: str
    params: dict
    symbol_eval: object  # omega -> phihat(omega), vectorized
    aliased: object  # (w, Mf) -> |w0|^p sum_m phihat(w + 2 pi Mf m); Mf even, |w| <= pi Mf


def bspline_generator(degree):
    n = _degree(degree)
    p = n + 1

    def symbol(omega):
        # sinc^{n+1} form of the centered B-spline transform
        omega = np.asarray(omega, dtype=float)
        return np.sinc(omega / (2.0 * np.pi)) ** p

    def aliased(omega, Mf):
        # Mf even: sin(w/2 + pi Mf m) = sin(w/2), so with y = w / 2 pi Mf the
        # sum is (sin(w/2) / pi Mf)^p sum_m (y + m)^-p = (sinc(Mf y) / sinc(y))^p F_p(y)
        y = np.asarray(omega, dtype=float) / (2.0 * np.pi * Mf)
        return (np.sinc(Mf * y) / np.sinc(y)) ** p * _lattice_sum(y, p)

    return Generator("bspline", {"degree": n}, symbol, aliased)


def green_power_generator(order=4):
    """Green's-function generator for L = D^order: phihat = 1/|omega|^order."""
    p = int(order)
    if not 2 <= p <= MAX_GREEN_ORDER or p % 2:
        raise ValueError(f"order must be an even integer in [2, {MAX_GREEN_ORDER}]")

    def symbol(omega):
        omega = np.asarray(omega, dtype=float)
        with np.errstate(divide="ignore"):
            return np.abs(omega) ** (-float(p))

    def aliased(omega, Mf):
        # |w0|^p sum_m |w + 2 pi Mf m|^-p = (r / sinc(y))^p F_p(y) with
        # y = w / 2 pi Mf and r = |w0| / |w| (1 at w = 0), for any Mf
        omega = np.abs(np.asarray(omega, dtype=float))
        omega0 = np.abs(omega - 2.0 * np.pi * np.round(omega / (2.0 * np.pi)))
        r = np.divide(omega0, omega, out=np.ones_like(omega), where=omega > 0)
        y = omega / (2.0 * np.pi * Mf)
        return (r / np.sinc(y)) ** p * _lattice_sum(y, p)

    return Generator("green_power", {"order": p}, symbol, aliased)


def generator_from_json(obj):
    """Generator JSON: {"kind": "bspline"|"green_power", "params": {...}}."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        kind = obj.get("kind")
        params = obj.get("params", {})
        if kind == "bspline":
            return bspline_generator(json_int(params["degree"]))
        if kind == "green_power":
            return green_power_generator(json_int(params.get("order", 4)))
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed Generator JSON: {exc}") from exc
    raise ValueError(f"unknown generator kind {kind!r}")


@dataclass
class LagrangeKernel:
    """Sampled interpolation kernel on a uniform fine grid.

    positions[i] = i-th grid point; samples[i] = phi_int there. Points
    outside the grid evaluate to 0 (the decay report quantifies the
    dropped tail).
    """

    grid_step: float
    positions: np.ndarray
    samples: np.ndarray
    integer_samples: np.ndarray
    integer_range: int
    decay: object

    def evaluate(self, xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        lo = self.positions[0]
        idx = (xs - lo) / self.grid_step
        near = np.rint(idx)
        out = np.zeros_like(xs)
        inside = (idx > -1e-9) & (idx < len(self.samples) - 1 + 1e-9)
        on_grid = inside & (np.abs(idx - near) < 1e-9)
        out[on_grid] = self.samples[near[on_grid].astype(int)]
        off = inside & ~on_grid  # so 0 < idx < len - 1
        if np.any(off):
            i0 = np.floor(idx[off]).astype(int)
            frac = idx[off] - i0
            out[off] = (1 - frac) * self.samples[i0] + frac * self.samples[i0 + 1]
        return out


def _kernel(M, K, samples, rate):
    """LagrangeKernel of the samples at j/M, |j| <= K M, at the exact rate; C is
    the least over the samples at or above 1e-12 of the largest (below: roundoff)."""
    positions = np.arange(-K * M, K * M + 1) / M
    size = np.abs(samples)
    if rate == math.inf:
        model, C = "compact", np.max(size)
    else:
        kept = size >= np.max(size) * 1e-12
        model, C = "exponential", np.max(size[kept] * np.exp(rate * np.abs(positions[kept])))
    decay = DecayReport(model, rate, -np.inf, float(C), 0.0)
    return LagrangeKernel(1.0 / M, positions, samples, samples[::M], K, decay)


def lagrange_kernel_space(gen, grid_step=1.0 / 16, K=20):
    """Space-domain Lagrange kernel: phi_int = sum_k h[k] phi(. - k), at j/M
    the convolution of the M-upsampled taps h with phi's grid. phi vanishes
    beyond (n + 1)/2, so |x| <= K takes exactly the taps |k| <= K + (n + 1)//2."""
    if gen.kind != "bspline":
        raise ValueError("space route needs a B-spline generator")
    degree = gen.params["degree"]
    M = _grid_points(grid_step)
    r = K + (degree + 1) // 2
    width = 2 * r * M + 1
    # phi's grid has (degree + 1) M + 3 points
    _check_kernel_size(K, width + (degree + 1) * M + 2)
    upsampled = np.zeros(width)
    upsampled[::M] = _bspline_taps(degree, r)
    # both factors are centred on x = 0, so the middle sample is phi_int(0)
    phi_int = np.convolve(upsampled, bspline_grid(degree, grid_step)[1])
    mid = len(phi_int) // 2
    return _kernel(M, K, phi_int[mid - K * M : mid + K * M + 1], _decay_rate(gen))


def lagrange_kernel_fourier(gen, grid_step=1.0 / 16, K=20):
    """Fourier-domain Lagrange kernel via symbol periodization.

    phihat_int = phihat / sum_n phihat(. - 2 pi n), pole-free (times |w0|^p)
    for Green's functions. The samples at step 1/Mf are the inverse DFT of a / d,
    a the numerator's closed-form alias sum and d = a summed over its Mf cosets
    mod 2 pi: exact up to aliasing in x at distance N / Mf, delta at the integers.
    That distance is at least 40 / rate, so the aliases fall below roundoff.
    """
    M = _grid_points(grid_step)
    Mf = M if M % 2 == 0 else 2 * M  # the alias sums need an even Mf
    N = 2 * Mf * max(4 * K, 64)  # a shift by 2 pi is N / Mf grid points, an integer
    _check_kernel_size(K, N)  # before the rate's constants are built, and again on its grid
    rate = _decay_rate(gen)
    N = max(N, 2 * Mf * math.ceil(20 / rate))
    _check_kernel_size(K, N)
    # a is even in omega and fftfreq's negatives are exact negations: evaluate
    # it on the half grid and mirror, bit for bit the full-grid values
    half = gen.aliased(2.0 * np.pi * Mf * np.fft.rfftfreq(N), Mf)
    aliased = np.concatenate((half, half[-2:0:-1]))
    periodized = np.tile(aliased.reshape(Mf, -1).sum(axis=0), Mf)
    space = np.fft.ifft(aliased / periodized).real * Mf
    return _kernel(M, K, space[np.arange(-K * M, K * M + 1) * (Mf // M) % N], rate)


def interpolate(data, gen):
    """Expansion coefficients c with sum_k c[k] phi(. - k) matching data
    at the integers: c = h * data, h the inverse of phi[.].

    phi[.] on Z^d is the d-th tensor power of its 1-D samples, so h is the
    tensor power of the 1-D inverse and is applied one axis at a time, by
    the direct sum over its taps (no FFT grid of the whole output).
    """
    if gen.kind != "bspline":
        raise ValueError("interpolate needs a B-spline generator")
    h = _prefilter(gen.params["degree"])
    c = data
    for axis in range(data.dim):
        origin, shape = [0] * data.dim, [1] * data.dim
        origin[axis], shape[axis] = h.origin[0], -1
        c = convolve(Filter(origin, h.coeffs.reshape(shape)), c)
    return c


def reproduction_check(p, kernel, target, xs, K_sum, tol=1e-9):
    """Max residual of sum_{|k| <= K_sum} p[k] phi_int(x - k) against target.

    p: callable k -> value (vectorized over an int array). A tail
    estimate from the kernel's decay report, |phi_int(x)| <= C e^{-a |x|},
    is computed first; if it exceeds tol the sum cannot certify the
    identity and an error is raised. The bound covers only |k| > K_sum, so
    the kernel must hold every x - k it sums: ValueError unless
    kernel.integer_range >= max|x| + K_sum, tol >= 0, K_sum >= 0 and xs is
    non-empty and finite.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not tol >= 0:  # NaN too: no tail estimate would ever exceed it
        raise ValueError(f"tol must be >= 0, got {tol}")
    if K_sum < 0:
        raise ValueError(f"K_sum must be >= 0, got {K_sum}")
    if xs.size == 0 or not np.all(np.isfinite(xs)):
        raise ValueError("xs must be non-empty and finite")
    x_max = float(np.max(np.abs(xs)))
    if kernel.integer_range < x_max + K_sum:
        raise ValueError(
            f"kernel integer_range {kernel.integer_range} < max|x| + K_sum = {x_max + K_sum:g}: "
            "evaluate is 0 past it, a cut the tail bound does not cover"
        )
    ks = np.arange(-K_sum, K_sum + 1)
    if xs.size * ks.size > GRID_POINT_CAP:
        raise ValueError(f"reproduction grid of {xs.size} x {ks.size} points exceeds {GRID_POINT_CAP} points")
    pk = np.asarray(p(ks), dtype=float)

    decay = kernel.decay
    if decay.model != "exponential" or decay.rate <= 0:
        raise ValueError("reproduction needs a kernel with exponential decay")
    edge = np.max(np.abs(pk[[0, -1]])) + 1.0
    tail = (
        2.0
        * edge
        * decay.fit_constant
        * np.exp(-decay.rate * max(K_sum - x_max, 0.0))
        / max(1.0 - np.exp(-decay.rate), 1e-12)
    )
    if tail > tol:
        raise TailBoundError(
            f"tail estimate {tail:.3e} exceeds tolerance {tol:.1e}; increase K_sum",
            tail_estimate=tail,
        )
    vals = kernel.evaluate(np.subtract.outer(xs, ks)) @ pk
    residual = float(np.max(np.abs(vals - np.asarray([target(x) for x in xs]))))
    return {"max_residual": residual, "tail_estimate": float(tail), "values": vals}


def amalgam_norm(f, w, K=40):
    """Lower bound of the Wiener amalgam norm sup_{x0} sum_k |f(x0+k)| w[k].

    f: callable over float arrays (d = 1). The sup is taken over the
    offsets in AMALGAM_OFFSETS, the step-1/16 grid of [0, 1).
    """
    ks = np.arange(-K, K + 1).astype(float)
    wv = w.eval(ks[:, None])
    return max(float(np.dot(np.abs(np.asarray(f(x0 + ks), dtype=float)), wv)) for x0 in AMALGAM_OFFSETS)


def kernel_to_csv(kernel, path):
    """Kernel CSV: metadata header comment, then x,value rows; path "-"
    writes to standard output."""
    meta = (
        f"# wienerlab lagrange kernel grid_step={kernel.grid_step!r} "
        f"K={kernel.integer_range} decay_model={kernel.decay.model} "
        f"decay_rate={kernel.decay.rate:.17g} decay_order={kernel.decay.order:.17g}\n"
    )
    with contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w") as fh:
        fh.write(meta)
        fh.write("x,value\n")
        rows = np.column_stack((kernel.positions, kernel.samples))
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[start : start + _CSV_BLOCK_ROWS]
            fh.write("%.17g,%.17g\n" * len(block) % tuple(block.ravel().tolist()))
