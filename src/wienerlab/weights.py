"""Submultiplicative weighting sequences and GRS diagnostics.

Built-in families:
    polynomial(n):        w[k] = (1 + ||k||_2)^n
    exponential(r):       w[k] = e^{r |k|_1}
    subexponential(r, b): w[k] = e^{r |k|_1^b},  0 <= b < 1

All evaluation happens in the log domain so that w[m k] stays finite for
m up to 2^20. Each built-in family carries its GRS limit lim_m w[mk]^{1/m}
in closed form: e^{r |k|_1} for the exponential family, 1 for the others.
A custom weight has only samples; by Fekete subadditivity of m -> log w[mk]
the limit is their infimum over all m, so a sample bounds it from above.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .lattice import Box, as_float, as_int

__all__ = [
    "Weight",
    "polynomial_weight",
    "exponential_weight",
    "subexponential_weight",
    "custom_weight",
    "GrsEstimate",
    "submultiplicative_check",
    "grs_limit",
    "extended_grs",
    "weight_to_json",
    "weight_from_json",
]

# A custom weight's sampled upper bound, or a finite family's infimum,
# within this of 1 counts as GRS; built-in weights need no tolerance
GRS_TOL = 0.05


@dataclass(frozen=True)
class Weight:
    """Positive symmetric weighting sequence with log-domain evaluation."""

    dim: int
    kind: str
    params: dict = field(default_factory=dict)
    _log_eval: object = None
    _log_limit: object = None  # k -> log lim_m w[mk]^{1/m}; None for custom weights

    def __post_init__(self):
        object.__setattr__(self, "dim", as_int(self.dim, "weight dim", 1))

    def log_eval(self, ks):
        """log w[k] for an (m, dim) array (or a single multi-index)."""
        ks = np.atleast_2d(np.asarray(ks, dtype=float))
        if ks.shape[-1] != self.dim:
            raise ValueError(f"multi-index length {ks.shape[-1]} != dim {self.dim}")
        return np.asarray(self._log_eval(ks), dtype=float)

    def eval(self, ks):
        return np.exp(self.log_eval(ks))


def polynomial_weight(n, dim=1):
    """w[k] = (1 + ||k||_2)^n; GRS for every n >= 0."""
    if not 0 <= n < np.inf:
        raise ValueError(f"polynomial order must be finite and >= 0, got {n}")

    def lg(ks):
        return n * np.log1p(np.linalg.norm(ks, axis=-1))

    return Weight(dim, "polynomial", {"n": n}, lg, lambda k: 0.0)


def exponential_weight(r, dim=1):
    """w[k] = e^{r |k|_1}; submultiplicative but never GRS for r > 0."""
    if not 0 <= r < np.inf:
        raise ValueError(f"exponential rate must be finite and >= 0, got {r}")

    def lg(ks):
        return r * np.sum(np.abs(ks), axis=-1)

    return Weight(dim, "exponential", {"r": r}, lg, lambda k: float(lg(k)))


def subexponential_weight(r, b, dim=1):
    """w[k] = e^{r |k|_1^b} with 0 <= b < 1; GRS despite superpolynomial growth."""
    if not 0 <= b < 1:
        raise ValueError(f"subexponential exponent must satisfy 0 <= b < 1, got {b}")
    if not 0 <= r < np.inf:
        raise ValueError(f"subexponential rate must be finite and >= 0, got {r}")

    def lg(ks):
        return r * np.sum(np.abs(ks), axis=-1) ** b

    return Weight(dim, "subexponential", {"r": r, "b": b}, lg, lambda k: 0.0)


def custom_weight(log_eval, dim=1, params=None):
    """Weight from a user-supplied log-domain evaluator over (m, dim) arrays."""
    return Weight(dim, "custom", params or {}, log_eval)


@dataclass(frozen=True)
class GrsEstimate:
    """lim_m w[mk]^{1/m} along one direction, with samples at m <= m_max."""

    direction: tuple
    samples: list  # (m, w[mk]^{1/m}) at geometrically spaced m
    extrapolated_limit: float  # exact if built in; if custom, the least sample (an upper bound)
    verdict: str  # "grs" | "not_grs" (built-in weights only) | "inconclusive" (custom only)


def submultiplicative_check(w, box):
    """All pairs (k, l) in box x box violating w[k+l] <= w[k] w[l].

    An empty list certifies submultiplicativity on the box (up to a 1e-12
    relative slack for rounding); a non-finite log w raises ValueError.
    """
    if not isinstance(box, Box):
        raise TypeError("box must be a Box")
    ks = box.indices()
    lw = w.log_eval(ks)
    # the sums k + l fill the box at twice the origin, 2 shape - 1 points per axis
    sums = Box(np.multiply(2, box.origin), np.multiply(2, box.shape) - 1)
    lw_sums = w.log_eval(sums.indices()).reshape(sums.shape)
    if not (np.all(np.isfinite(lw)) and np.all(np.isfinite(lw_sums))):
        raise ValueError("invalid weight: non-finite log value on the box or its sums")
    # log w[k+l] > log w[k] + log w[l] + log(1 + 1e-12)
    slack = np.log1p(1e-12)
    violations = []
    for i in range(len(ks)):
        lw_sum = lw_sums[tuple((ks[i] + ks - sums.origin).T)]
        bad = np.nonzero(lw_sum > lw[i] + lw + slack)[0]
        for j in bad:
            violations.append((tuple(ks[i]), tuple(ks[j])))
    return violations


def grs_limit(w, k, m_max):
    """lim_m w[mk]^{1/m}, with samples at m = 1, 2, 4, ..., m_max, 16 <= m_max <= 2^53 (exact floats).

    A built-in weight gives its closed-form limit: grs if it is exactly 1,
    else not_grs, whatever m_max. For a custom weight, which the caller
    certifies submultiplicative, the limit is inf_m w[mk]^{1/m} (Fekete), so
    the least sample bounds it from above: grs if that bound is <= 1 +
    GRS_TOL, else inconclusive, never not_grs.
    """
    try:
        k = np.array([as_int(x, "direction k") for x in np.atleast_1d(k).tolist()], dtype=int)
    except OverflowError as exc:
        raise ValueError(f"direction k must fit in int64: {exc}") from exc
    if not np.any(k):
        raise ValueError("direction k must be nonzero")
    m_max = as_int(m_max, "m_max", 16, 2**53)
    ms = np.unique(np.append(2.0 ** np.arange(m_max.bit_length()), m_max))
    with np.errstate(over="ignore"):  # a log-weight past the float range is inf, a value past e^709.8 too
        # log w[mk]^{1/m} = log w[mk] / m, evaluated in the log domain
        log_vals = w.log_eval(ms[:, None] * k) / ms
        # the closed form takes k in floats: an int64 |k|_1 of large entries wraps
        log_limit = np.min(log_vals) if w._log_limit is None else w._log_limit(k.astype(float))
        samples = [(int(m_i), float(v)) for m_i, v in zip(ms, np.exp(log_vals))]
        limit = float(np.exp(log_limit))
    if w._log_limit is None:
        verdict = "grs" if limit <= 1.0 + GRS_TOL else "inconclusive"
    else:
        verdict = "grs" if log_limit == 0 else "not_grs"
    return GrsEstimate(tuple(int(x) for x in k), samples, limit, verdict)


def extended_grs(family, k, m_max):
    """Extended GRS test for a decreasing family of weights, truncated to a list.

    Returns {"inf_limit", "verdict", "per_weight_limits"}: "grs" iff the least
    grs_limit is <= 1 + GRS_TOL, else "not_grs", or "inconclusive" if a member
    is custom. The family must decrease on the box of radius 4.
    """
    family = list(family)
    if not family:
        raise ValueError("invalid family: empty")
    ks = Box((-4,) * family[0].dim, (9,) * family[0].dim).indices()
    if np.any(np.diff([w.log_eval(ks) for w in family], axis=0) > 1e-12):
        raise ValueError("invalid family: weights are not decreasing on the box of radius 4")
    limits = [grs_limit(w, k, m_max).extrapolated_limit for w in family]
    inf_limit = float(min(limits))
    sampled = any(w._log_limit is None for w in family)
    verdict = "grs" if inf_limit <= 1.0 + GRS_TOL else "inconclusive" if sampled else "not_grs"
    return {"inf_limit": inf_limit, "verdict": verdict, "per_weight_limits": limits}


# -- JSON format (shared with the CLI) ---------------------------------------


def weight_to_json(w):
    if w.kind == "custom":
        raise ValueError("custom weights have no JSON form")
    return {"dim": w.dim, "kind": w.kind, "params": dict(w.params)}


def weight_from_json(obj):
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        kind = obj["kind"]
        # constructor and float parameter names, read per call so that bench/tracer.py's wrappers run
        build, *names = {
            "polynomial": (polynomial_weight, "n"),
            "exponential": (exponential_weight, "r"),
            "subexponential": (subexponential_weight, "r", "b"),
        }.get(kind, (None,))
        args = [as_float(obj.get("params", {})[name], name) for name in names]
        dim = as_int(obj.get("dim", 1), "dim")
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed Weight JSON: {exc}") from exc
    if build is None:
        raise ValueError(f"unknown weight kind {kind!r}")
    return build(*args, dim)
