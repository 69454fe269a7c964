"""Finitely supported sequences on the integer lattice.

A Filter stores its coefficients on a multi-index box (origin + shape),
row-major. All operations are pure; filters are immutable after
construction and canonically trimmed, so support comparison is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Box",
    "Filter",
    "kronecker",
    "delta_shift",
    "convolve",
    "weighted_norm",
    "sup_difference",
    "filter_to_json",
    "filter_from_json",
]

# read only by bench/tracer.py's fft counter (convolve has no FFT path); ROADMAP item 0 drops both
DIRECT_CONVOLUTION_CUTOFF = math.inf
# Total-grid-point ceiling so multidimensional sweeps cannot exhaust memory.
GRID_POINT_CAP = 2**26
# Points on one axis of an FFT grid, a certificate sweep or a singular window.
GRID_AXIS_CAP = 2**16
# |origin| of a Box or Filter at most: every index stays exact in float64 and far inside int64
ORIGIN_CAP = 2**52


def as_int(x, name, lo=None, hi=None):
    """x as an int, for every integer argument of the library: an int, a numpy
    integer or a float equal to an integer; ValueError naming the argument for
    anything else (a bool, 2.5, NaN, a string) or for an int outside [lo, hi]."""
    if type(x) is not int:  # a plain int skips the type checks
        integral = isinstance(x, (int, np.integer)) or isinstance(x, (float, np.floating)) and float(x).is_integer()
        if isinstance(x, bool) or not integral:
            raise ValueError(f"{name}: expected an integer, got {x!r}")
        x = int(x)
    if lo is not None and x < lo or hi is not None and x > hi:
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {bounds}, got {x}")
    return x


def check_size(count, cap, what):
    """The one size refusal, made before allocating: ValueError "<what> of <count> points exceeds <cap> points"."""
    if count > cap:
        raise ValueError(f"{what} of {count} points exceeds {cap} points")


def as_float(x, name):
    """x as a float, for the numbers of the JSON formats: ValueError naming the argument unless an int or a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{name}: expected a number, got {x!r}")
    return float(x)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box of multi-indices: origin <= k < origin + shape."""

    origin: tuple
    shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(as_int(x, "origin", -ORIGIN_CAP, ORIGIN_CAP) for x in self.origin))
        object.__setattr__(self, "shape", tuple(as_int(x, "shape", 1) for x in self.shape))
        if len(self.origin) != len(self.shape):
            raise ValueError("origin and shape must have the same length")
        if len(self.shape) < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def dim(self):
        return len(self.shape)

    @property
    def size(self):
        return int(np.prod(self.shape))

    @property
    def extent(self):
        """Max |k|_inf over the box."""
        return max(max(abs(o), abs(o + s - 1)) for o, s in zip(self.origin, self.shape))

    def contains(self, k):
        k = tuple(as_int(x, "k") for x in k)
        return all(o <= x < o + s for o, x, s in zip(self.origin, k, self.shape))

    def indices(self):
        """All multi-indices in the box, row-major, as an (size, dim) array."""
        grids = np.meshgrid(
            *[np.arange(o, o + s) for o, s in zip(self.origin, self.shape)],
            indexing="ij",
        )
        return np.stack([g.ravel() for g in grids], axis=-1)


class Filter:
    """Finitely supported sequence h[k] on Z^d.

    Coefficients are stored as a d-dimensional array aligned with the
    support box; zero boundary slabs are trimmed on construction.
    """

    __slots__ = ("origin", "coeffs")

    def __init__(self, origin, coeffs):
        coeffs = np.asarray(coeffs)
        if coeffs.dtype.kind not in "fc":
            coeffs = coeffs.astype(float)
        origin = tuple(as_int(x, "origin", -ORIGIN_CAP, ORIGIN_CAP) for x in origin)
        if coeffs.ndim != len(origin):
            raise ValueError(
                f"coeffs ndim {coeffs.ndim} does not match origin length {len(origin)}"
            )
        if coeffs.ndim < 1:
            raise ValueError("dimension must be >= 1")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite (got NaN or inf)")
        origin, coeffs = _trim(origin, coeffs)
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        self.origin = origin
        self.coeffs = coeffs

    # -- structure ----------------------------------------------------------

    @property
    def dim(self):
        return self.coeffs.ndim

    @property
    def support(self):
        return Box(self.origin, self.coeffs.shape)

    @property
    def is_complex(self):
        return self.coeffs.dtype.kind == "c"

    def coeff_at(self, k):
        """h[k]; zero outside the support box."""
        k = tuple(as_int(x, "k") for x in np.atleast_1d(k).tolist())
        if not self.support.contains(k):
            return 0.0
        idx = tuple(x - o for x, o in zip(k, self.origin))
        return self.coeffs[idx]

    def indices(self):
        return self.support.indices()

    def on_box(self, box):
        """Dense array of h over `box`, zero outside the support."""
        out = np.zeros(box.shape, dtype=self.coeffs.dtype)
        lo = [max(o, b) for o, b in zip(self.origin, box.origin)]
        hi = [min(o + s, b + n) for o, s, b, n in zip(self.origin, self.coeffs.shape, box.origin, box.shape)]
        if all(a < z for a, z in zip(lo, hi)):
            dst = tuple(slice(a - b, z - b) for a, z, b in zip(lo, hi, box.origin))
            src = tuple(slice(a - o, z - o) for a, z, o in zip(lo, hi, self.origin))
            out[dst] = self.coeffs[src]
        return out

    def on_torus(self, N):
        """h folded onto (Z/N)^d: grid[j] = sum of h[k] over k = j mod N, in
        h's dtype, by _fold; ValueError before allocating past GRID_POINT_CAP."""
        return _fold(self.coeffs[None], np.array([self.origin]), as_int(N, "N", 1))[0]

    def real_if_close(self):
        """The real part, when no imaginary part exceeds 1e-9 max |h|."""
        if not self.is_complex:
            return self
        if np.max(np.abs(self.coeffs.imag)) <= 1e-9 * np.max(np.abs(self.coeffs)):
            return Filter(self.origin, self.coeffs.real.copy())
        return self

    def __eq__(self, other):
        if not isinstance(other, Filter):
            return NotImplemented
        return (
            self.origin == other.origin
            and self.coeffs.shape == other.coeffs.shape
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __repr__(self):
        return f"Filter(origin={self.origin}, shape={self.coeffs.shape})"

    def __setattr__(self, name, value):
        if hasattr(self, "coeffs"):
            raise AttributeError("Filter is immutable")
        object.__setattr__(self, name, value)


def _fold(taps, origin, N):
    """Arrays taps[j] of rank k, tap m at index origin[j] + m, folded side by side onto
    one (G, N, ..., N) grid of their dtype: grid[j, i] sums taps[j, m] over origin[j] + m = i
    mod N, in row-major order of m (one indexed add at the open mesh of the indices mod N;
    zero padding adds nothing). ValueError before allocating past GRID_POINT_CAP points."""
    G, k = origin.shape
    check_size(G * N**k, GRID_POINT_CAP, "torus grid")  # a constant `what`: no f-string per grid level
    grid = np.zeros((G,) + (N,) * k, taps.dtype)
    # the group index, then each axis's index mod N, as an open mesh over taps' axes
    at = origin.T.reshape((k, G) + (1,) * k)
    mesh = [np.arange(G).reshape(at.shape[1:])]
    for a, n in enumerate(taps.shape[1:]):
        mesh.append((at[a] + np.arange(n).reshape((n,) + (1,) * (k - 1 - a))) % N)
    np.add.at(grid, tuple(mesh), taps)
    return grid


def _trim(origin, coeffs):
    """Drop all-zero boundary slabs so the support is canonical."""
    if not np.any(coeffs):
        return tuple(0 for _ in origin), np.zeros((1,) * len(origin), coeffs.dtype)
    origin = list(origin)
    for axis in range(coeffs.ndim):
        nz = np.nonzero(np.any(coeffs != 0, axis=tuple(a for a in range(coeffs.ndim) if a != axis)))[0]
        lo, hi = nz[0], nz[-1] + 1
        sl = [slice(None)] * coeffs.ndim
        sl[axis] = slice(lo, hi)
        coeffs = coeffs[tuple(sl)]
        origin[axis] += int(lo)
    return tuple(origin), coeffs


# -- constructors ------------------------------------------------------------


def kronecker(d):
    """Kronecker delta on Z^d: the neutral element of convolution."""
    d = as_int(d, "d", 1)
    return Filter((0,) * d, np.ones((1,) * d))


def delta_shift(d, k):
    """Shifted impulse delta[. - k]."""
    d = as_int(d, "d", 1)
    k = tuple(as_int(x, "k") for x in np.atleast_1d(k).tolist())
    if len(k) != d:
        raise ValueError("shift length must equal dimension")
    return Filter(k, np.ones((1,) * d))


# -- operations --------------------------------------------------------------


def convolve(a, b):
    """Exact finite convolution; support is the Minkowski sum of supports.

    The direct sum, size(a) x size(b) multiply-adds and no FFT: cheap when
    one operand is a filter; two large operands cost the product of their
    sizes. In 1-D it is np.convolve, the same sum in C: one 80-sample
    spline interpolation (53-129 taps) takes 20 us there against 0.23 ms
    as one Python step per tap (2-vCPU Xeon, one BLAS thread). In d >= 2
    it adds a scaled, shifted copy of the larger operand for each nonzero
    tap of the smaller one, in row-major order.
    """
    if not isinstance(a, Filter) or not isinstance(b, Filter):
        raise TypeError("convolve expects Filter operands")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return Filter(tuple(oa + ob for oa, ob in zip(a.origin, b.origin)), _convolve(a.coeffs, b.coeffs))


def _convolve(a, b):
    """convolve on raw arrays of one dimension, each indexed from its origin."""
    if a.ndim == 1:
        return np.convolve(a, b)
    a, b = (a, b) if a.size <= b.size else (b, a)
    out = np.zeros([sa + sb - 1 for sa, sb in zip(a.shape, b.shape)], dtype=np.result_type(a, b))
    for idx in zip(*np.nonzero(a)):
        out[tuple(slice(i, i + s) for i, s in zip(idx, b.shape))] += a[idx] * b
    return out


def weighted_norm(a, p, w):
    """Weighted norm ||w[.] a[.]||_{l_p} over the finite support: p is 1 or 2
    by as_int's rule (1.0 is 1, a bool is refused), or inf or "inf"."""
    try:
        p = np.inf if p == "inf" or p == np.inf else as_int(p, "p", 1, 2)
    except ValueError:
        raise ValueError(f"p must be 1, 2, or inf, got {p!r}") from None
    ks = a.indices()
    wv = np.asarray(w.eval(ks), dtype=float)
    if np.any(wv <= 0) or not np.all(np.isfinite(wv)):
        raise ValueError("invalid weight: non-positive or non-finite value on the support")
    vals = wv * np.abs(a.coeffs.ravel())
    if p == 1:
        return float(np.sum(vals))
    if p == 2:
        return float(np.sqrt(np.sum(vals**2)))
    return float(np.max(vals))


def sup_difference(a, b):
    """sup_k |a[k] - b[k]| over the union of supports."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    lo = np.minimum(a.origin, b.origin)
    hi = np.maximum(np.add(a.origin, a.coeffs.shape), np.add(b.origin, b.coeffs.shape))
    box = Box(lo, hi - lo)
    return float(np.max(np.abs(a.on_box(box) - b.on_box(box))))


# -- JSON format (shared with the CLI) ---------------------------------------


def filter_to_json(a):
    """Shared Filter JSON schema: dim, origin, shape, row-major coeffs."""
    if a.is_complex:
        raise ValueError("Filter JSON format stores real coefficients only")
    return {
        "dim": a.dim,
        "origin": list(a.origin),
        "shape": list(a.coeffs.shape),
        "coeffs": [float(x) for x in a.coeffs.ravel()],
    }


def filter_from_json(obj):
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        dim = as_int(obj["dim"], "dim")
        origin = [as_int(x, "origin") for x in obj["origin"]]
        shape = [as_int(x, "shape", 1) for x in obj["shape"]]
        coeffs = np.array([as_float(x, "coeffs") for x in obj["coeffs"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed Filter JSON: {exc}") from exc
    if len(origin) != dim or len(shape) != dim:
        raise ValueError("origin/shape length does not match dim")
    if coeffs.size != int(np.prod(shape)):
        raise ValueError("coeffs length does not match product(shape)")
    return Filter(tuple(origin), coeffs.reshape(shape))
