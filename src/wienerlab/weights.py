"""Submultiplicative weighting sequences and GRS diagnostics.

Built-in families:
    polynomial(n):        w[k] = (1 + ||k||_2)^n
    exponential(r):       w[k] = e^{r |k|_1}
    subexponential(r, b): w[k] = e^{r |k|_1^b},  0 <= b < 1

All evaluation happens in the log domain so that w[m k] stays finite for
m up to 2^20. The GRS limit lim_m w[mk]^{1/m} is estimated from samples
at geometrically spaced m; by Fekete subadditivity of m -> log w[mk] the
true limit is the infimum over m, so the running minimum only improves
as m_max grows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .lattice import Box, json_int

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

# Verdict threshold for the finite-sample GRS diagnostic. The limit is
# asymptotic, so this is a declared tolerance, not a proof.
GRS_TOL = 0.05


@dataclass(frozen=True)
class Weight:
    """Positive symmetric weighting sequence with log-domain evaluation."""

    dim: int
    kind: str
    params: dict = field(default_factory=dict)
    _log_eval: object = None

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
    if n < 0:
        raise ValueError("polynomial order must be >= 0")

    def lg(ks):
        return n * np.log1p(np.linalg.norm(ks, axis=-1))

    return Weight(dim, "polynomial", {"n": n}, lg)


def exponential_weight(r, dim=1):
    """w[k] = e^{r |k|_1}; submultiplicative but never GRS for r > 0."""
    if r < 0:
        raise ValueError("exponential rate must be >= 0")

    def lg(ks):
        return r * np.sum(np.abs(ks), axis=-1)

    return Weight(dim, "exponential", {"r": r}, lg)


def subexponential_weight(r, b, dim=1):
    """w[k] = e^{r |k|_1^b} with 0 <= b < 1; GRS despite superpolynomial growth."""
    if not 0 <= b < 1:
        raise ValueError("subexponential exponent must satisfy 0 <= b < 1")
    if r < 0:
        raise ValueError("subexponential rate must be >= 0")

    def lg(ks):
        return r * np.sum(np.abs(ks), axis=-1) ** b

    return Weight(dim, "subexponential", {"r": r, "b": b}, lg)


def custom_weight(log_eval, dim=1, params=None):
    """Weight from a user-supplied log-domain evaluator over (m, dim) arrays."""
    return Weight(dim, "custom", params or {}, log_eval)


@dataclass(frozen=True)
class GrsEstimate:
    """Finite-sample estimate of lim_m w[mk]^{1/m} along one direction."""

    direction: tuple
    samples: list  # (m, w[mk]^{1/m}) at geometrically spaced m
    extrapolated_limit: float
    verdict: str  # "grs" | "not_grs" | "inconclusive"


def submultiplicative_check(w, box):
    """All pairs (k, l) in box x box violating w[k+l] <= w[k] w[l].

    An empty list certifies submultiplicativity on the box (up to a 1e-12
    relative slack for rounding).
    """
    if not isinstance(box, Box):
        raise TypeError("box must be a Box")
    ks = box.indices()
    lw = w.log_eval(ks)
    # log w[k+l] > log w[k] + log w[l] + log(1 + 1e-12)
    slack = np.log1p(1e-12)
    violations = []
    for i in range(len(ks)):
        sums = ks[i] + ks
        lw_sum = w.log_eval(sums)
        bad = np.nonzero(lw_sum > lw[i] + lw + slack)[0]
        for j in bad:
            violations.append((tuple(ks[i]), tuple(ks[j])))
    return violations


def grs_limit(w, k, m_max):
    """Estimate lim_m w[mk]^{1/m} from samples at m = 1, 2, 4, ..., m_max.

    The caller certifies that w is submultiplicative; then log w[mk] is
    subadditive in m and the limit equals inf_m w[mk]^{1/m}, so the
    extrapolated limit is the minimum over samples. Verdicts:
      grs           extrapolated limit <= 1 + GRS_TOL
      not_grs       per-m values have flattened at a level > 1 + GRS_TOL
                    across the last three doublings (e^{rm}-type growth)
      inconclusive  otherwise
    """
    k = np.atleast_1d(np.asarray(k, dtype=int))
    if not np.any(k):
        raise ValueError("direction k must be nonzero")
    if m_max < 16:
        raise ValueError("m_max must be >= 16")
    ms = []
    m = 1
    while m <= m_max:
        ms.append(m)
        m *= 2
    if ms[-1] != m_max:
        ms.append(int(m_max))
    ms = np.asarray(ms, dtype=float)
    # log w[mk]^{1/m} = log w[mk] / m, evaluated in the log domain
    log_vals = np.array([w.log_eval(m_i * k)[0] / m_i for m_i in ms])
    limit = float(np.exp(np.min(log_vals)))
    samples = [(int(m_i), float(np.exp(lv))) for m_i, lv in zip(ms, log_vals)]

    if limit <= 1.0 + GRS_TOL:
        verdict = "grs"
    else:
        # Trend test on the last three doublings: if log w[mk]/m has
        # stopped decreasing (stays bounded away from 0), the weight grows
        # at least exponentially along k.
        tail = log_vals[-3:]
        floor = np.log1p(GRS_TOL)
        flattened = np.all(tail > floor) and (tail[0] - tail[-1]) <= 0.25 * tail[0]
        verdict = "not_grs" if flattened else "inconclusive"
    return GrsEstimate(tuple(int(x) for x in k), samples, limit, verdict)


def extended_grs(family, k, m_max):
    """Extended GRS diagnostic for a decreasing family of weights.

    Returns {"inf_limit", "verdict", "per_weight_limits"}; the verdict is
    "grs" iff inf_n lim_m w_n[mk]^{1/m} <= 1 + GRS_TOL. The family must
    decrease on the box of radius 4.
    """
    family = list(family)
    if not family:
        raise ValueError("invalid family: empty")
    ks = Box((-4,) * family[0].dim, (9,) * family[0].dim).indices()
    prev = family[0].log_eval(ks)
    for w in family[1:]:
        cur = w.log_eval(ks)
        if np.any(cur > prev + 1e-12):
            raise ValueError("invalid family: weights are not decreasing on the box of radius 4")
        prev = cur
    limits = [grs_limit(w, k, m_max).extrapolated_limit for w in family]
    inf_limit = float(min(limits))
    verdict = "grs" if inf_limit <= 1.0 + GRS_TOL else "not_grs"
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
        params = obj.get("params", {})
        dim = json_int(obj.get("dim", 1))
        if kind == "polynomial":
            return polynomial_weight(float(params["n"]), dim)
        if kind == "exponential":
            return exponential_weight(float(params["r"]), dim)
        if kind == "subexponential":
            return subexponential_weight(float(params["r"]), float(params["b"]), dim)
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed Weight JSON: {exc}") from exc
    raise ValueError(f"unknown weight kind {kind!r}")
