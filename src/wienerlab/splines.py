"""Cardinal spline interpolation: generators, Lagrange kernels, identities.

The Lagrange (interpolation) kernel of a generator phi is
phi_int(x) = sum_k h[k] phi(x - k), with h the discrete convolution
inverse of the integer samples phi[.]. Two independent construction
routes are provided: the space-domain assembly above, and the
Fourier-domain ratio phihat_int = phihat / sum_n phihat(. - 2 pi n),
which also covers slowly increasing Green's-function generators. Each
generator supplies its symbol's alias sum on the output grid in closed
form (polygamma values for a B-spline, Hurwitz zeta values for |w|^-p);
summed over its cosets mod 2 pi, it is the periodized denominator.

B-spline values are exact: at a float or grid point j/M, n! (2M)^n B_n
is an integer sum of truncated powers, divided once with correct rounding.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.special import polygamma, zeta

from .errors import TailBoundError
from .inversion import decay_fit_samples, invert_exact_1d
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
TAIL_TOL = 1e-12  # interpolate cuts the inverse filter where its taps fall below this
AMALGAM_OFFSETS = np.arange(0.0, 1.0, 1.0 / 16)  # the x0 over which amalgam_norm takes its sup


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


def bspline_grid(degree, grid_step):
    """(positions, values) of the degree-n B-spline on its support grid."""
    n = _degree(degree)
    M = _grid_points(grid_step)
    js = np.arange(-(n + 1) * M // 2 - 1, (n + 1) * M // 2 + 2)  # the support, one point beyond each end
    # B_n is even and each value exact, so the |j| values mirror bit for bit
    half = np.array([_bspline_at(n, j, M) for j in range(-js[0] + 1)])
    return js / M, half[np.abs(js)]


def bspline_samples(degree, d=1):
    """Integer samples of the centered tensor-product B-spline."""
    n = _degree(degree)
    k0 = n // 2
    line = np.array([_bspline_at(n, k, 1) for k in range(-k0, k0 + 1)])
    return Filter((-k0,) * d, reduce(np.multiply.outer, [line] * d))


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
        # Mf even: sin(w/2 + pi Mf m) = sin(w/2), so the shells m != 0 sum to
        # (sin(w/2) / pi Mf)^p [zeta(p, 1+y) + (-1)^p zeta(p, 1-y)] with
        # y = w / 2 pi Mf; in polygamma form the sum stays finite at p = 1
        omega = np.asarray(omega, dtype=float)
        y = omega / (2.0 * np.pi * Mf)
        shells = ((-1) ** p * polygamma(p - 1, 1.0 + y) + polygamma(p - 1, 1.0 - y)) / math.factorial(p - 1)
        return symbol(omega) + (np.sin(omega / 2.0) / (np.pi * Mf)) ** p * shells

    return Generator("bspline", {"degree": n}, symbol, aliased)


def green_power_generator(order=4):
    """Green's-function generator for L = D^order: phihat = 1/|omega|^order."""
    p = int(order)
    if p < 2 or p % 2:
        raise ValueError("order must be an even integer >= 2")

    def symbol(omega):
        omega = np.asarray(omega, dtype=float)
        with np.errstate(divide="ignore"):
            return np.abs(omega) ** (-float(p))

    def aliased(omega, Mf):
        # |w0|^p sum_m |w + 2 pi Mf m|^-p = (|w0| / |w|)^p + (|w0| / 2 pi Mf)^p
        # [zeta(p, 1 + |y|) + zeta(p, 1 - |y|)], y = w / 2 pi Mf, for any Mf;
        # the m = 0 term is 1 at w = 0
        omega = np.abs(np.asarray(omega, dtype=float))
        omega0 = np.abs(omega - 2.0 * np.pi * np.round(omega / (2.0 * np.pi)))
        y = omega / (2.0 * np.pi * Mf)
        central = np.divide(omega0, omega, out=np.ones_like(omega), where=omega > 0) ** p
        return central + (omega0 / (2.0 * np.pi * Mf)) ** p * (zeta(p, 1.0 + y) + zeta(p, 1.0 - y))

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


def _kernel(M, K, samples):
    """LagrangeKernel of the samples at j/M, |j| <= K M."""
    positions = np.arange(-K * M, K * M + 1) / M
    decay = decay_fit_samples(positions, samples)
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
    upsampled[::M] = invert_exact_1d(bspline_samples(degree)).evaluate(np.arange(-r, r + 1))
    # both factors are centred on x = 0, so the middle sample is phi_int(0)
    phi_int = np.convolve(upsampled, bspline_grid(degree, grid_step)[1])
    mid = len(phi_int) // 2
    return _kernel(M, K, phi_int[mid - K * M : mid + K * M + 1])


def lagrange_kernel_fourier(gen, grid_step=1.0 / 16, K=20):
    """Fourier-domain Lagrange kernel via symbol periodization.

    phihat_int = phihat / sum_n phihat(. - 2 pi n), pole-free (times |w0|^p)
    for Green's functions. The samples at step 1/Mf are the inverse DFT of a / d,
    a the numerator's closed-form alias sum and d = a summed over its Mf cosets
    mod 2 pi: exact up to aliasing in x at distance N / Mf, delta at the integers.
    """
    M = _grid_points(grid_step)
    Mf = M if M % 2 == 0 else 2 * M  # the alias sums need an even Mf
    N = 2 * Mf * max(4 * K, 64)  # a shift by 2 pi is N / Mf grid points, an integer
    _check_kernel_size(K, N)
    aliased = gen.aliased(2.0 * np.pi * Mf * np.fft.fftfreq(N), Mf)
    periodized = np.tile(aliased.reshape(Mf, -1).sum(axis=0), Mf)
    space = np.fft.ifft(aliased / periodized).real * Mf
    return _kernel(M, K, space[np.arange(-K * M, K * M + 1) * (Mf // M) % N])


def interpolate(data, gen):
    """Expansion coefficients c with sum_k c[k] phi(. - k) matching data
    at the integers: c = h * data, h the inverse of phi[.].

    phi[.] on Z^d is the d-th tensor power of its 1-D samples, so h is the
    tensor power of the 1-D inverse and is applied one axis at a time, by
    the direct sum over its taps (no FFT grid of the whole output).
    """
    if gen.kind != "bspline":
        raise ValueError("interpolate needs a B-spline generator")
    # c has infinite support: h is cut where its decay rate puts its taps below TAIL_TOL
    exact = invert_exact_1d(bspline_samples(gen.params["degree"]))
    scale = max(abs(exact.evaluate([0])[0]), 1.0)
    h = exact.to_filter(int(np.ceil(np.log(scale / TAIL_TOL) / exact.decay_rate)) + 4)
    c = data
    for axis in range(data.dim):
        origin, shape = [0] * data.dim, [1] * data.dim
        origin[axis], shape[axis] = h.origin[0], -1
        c = convolve(Filter(origin, h.coeffs.reshape(shape)), c, method="direct")
    return c


def reproduction_check(p, kernel, target, xs, K_sum, tol=1e-9):
    """Max residual of sum_{|k| <= K_sum} p[k] phi_int(x - k) against target.

    p: callable k -> value (vectorized over an int array). A tail
    estimate from the kernel's decay report is computed first; if it
    exceeds tol the sum cannot certify the identity and an error is
    raised.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ks = np.arange(-K_sum, K_sum + 1)
    if xs.size * ks.size > GRID_POINT_CAP:
        raise ValueError(f"reproduction grid of {xs.size} x {ks.size} points exceeds {GRID_POINT_CAP} points")
    pk = np.asarray(p(ks), dtype=float)

    decay = kernel.decay
    if decay.model != "exponential" or decay.rate <= 0:
        raise ValueError("reproduction needs a kernel with exponential decay")
    x_max = float(np.max(np.abs(xs)))
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
        for x, v in zip(kernel.positions, kernel.samples):
            fh.write(f"{x:.17g},{v:.17g}\n")
