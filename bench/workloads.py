"""The benchmark's workloads: inputs generated from a seed, the operations
that feed them to wienerlab, and an independent correctness check per
operation.

Each workload is a fixed *cycle* of operations. The slot list (which kind
of operation, and the parameters that set its cost: dimension, degree,
grid step, shift band, window) is the same for every seed; the seed draws
everything else (coefficients, roots, shift directions, data, order), so
every seed measures the same mix of costs.

Operations reach the library only through module attributes looked up at
call time (`wl.spectrum.min_modulus_certified`, ...), so the traced run
sees them through the wrappers that `tracer.Tracer.install` puts there.
Checks compute their references with numpy and the benchmark's own
B-spline samples; only the tensor check uses a library routine, the exact
1-D route, as its reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

RESIDUAL_TOL = 1e-10  # invert_stable's default tail_tol
# The space-route kernel is delta at the integers to rounding. The Fourier
# route truncates the periodization at 64 shells, so its integer samples
# are held to the route-agreement bound instead.
SPACE_DELTA_TOL = 1e-9
ROUTE_TOL = 1e-6


@dataclass
class Op:
    kind: str  # a key of RUN and CHECK; "cli_*" kinds go through cli.main
    inputs: dict
    cheap: bool = True  # used for warm-up and smoke runs
    defect: str = ""  # set on a probe: the known library defect it hits
    slot: int = -1  # position in the cycle's slot list, the same for every seed


class Context:
    """What operations need besides their inputs: the library and a
    temporary directory for CLI output."""

    def __init__(self, wl, tmpdir):
        self.wl = wl
        self.tmpdir = tmpdir
        self._n = 0

    def path(self, suffix):
        self._n += 1
        return os.path.join(self.tmpdir, f"op{self._n}{suffix}")


# -- independent references ---------------------------------------------------------


def bspline_line(n):
    """Integer samples b[k], |k| <= n//2, of the centered degree-n B-spline,
    from the truncated-power formula in exact rationals."""
    half = Fraction(n + 1, 2)
    out = []
    for k in range(-(n // 2), n // 2 + 1):
        tot = Fraction(0)
        for j in range(n + 2):
            t = k + half - j
            if t > 0:
                tot += (-1) ** j * math.comb(n + 1, j) * t**n
        out.append(float(tot / math.factorial(n)))
    return np.array(out)


def line_min_modulus(coeffs):
    """min over a 4096-point frequency grid of |sum_k c[k] e^{-ikw}|; for the
    symmetric positive B-spline samples the minimum sits at w = pi, which is
    on the grid, so this is the exact minimum."""
    return float(np.min(np.abs(np.fft.fft(coeffs, 4096))))


def grid_min_modulus(coeffs, n):
    """Minimum of |hhat| on the n^d grid (an upper bound of the true minimum)."""
    return float(np.min(np.abs(np.fft.fftn(coeffs, (n,) * coeffs.ndim, axes=tuple(range(coeffs.ndim))))))


def window(f_origin, f_coeffs, lo, hi):
    """Dense values of a finitely supported array on the box lo <= k <= hi."""
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    out = np.zeros(shape, dtype=np.result_type(f_coeffs.dtype, float))
    src, dst = [], []
    for o, s, l, h in zip(f_origin, f_coeffs.shape, lo, hi):
        a, b = max(o, l), min(o + s - 1, h)
        if a > b:
            return out
        src.append(slice(a - o, b - o + 1))
        dst.append(slice(a - l, b - l + 1))
    out[tuple(dst)] = f_coeffs[tuple(src)]
    return out


def convolve(a, b):
    """Full convolution of two arrays: direct in 1-D, by FFT otherwise
    (scipy.signal is not used because importing it would add ~0.7 s to
    every set-up)."""
    if a.ndim == 1:
        return np.convolve(a, b)
    shape = tuple(sa + sb - 1 for sa, sb in zip(a.shape, b.shape))
    axes = tuple(range(a.ndim))
    out = np.fft.ifftn(np.fft.fftn(a, shape, axes) * np.fft.fftn(b, shape, axes), shape, axes)
    return out.real if a.dtype.kind != "c" and b.dtype.kind != "c" else out


def residual(h, g, radius):
    """sup_{|k|_inf <= radius} |(h*g - delta)[k]|."""
    conv = convolve(h.coeffs, g.coeffs)
    origin = tuple(a + b for a, b in zip(h.origin, g.origin))
    box = window(origin, conv, (-radius,) * h.dim, (radius,) * h.dim)
    box[(radius,) * h.dim] -= 1.0
    return float(np.max(np.abs(box)))


def exact_inverse_1d(coeffs, origin, ks):
    """g[k] of the 1-D filter by the inverse DFT of 1/hhat on a fine grid
    (the filters here decay fast enough that aliasing is below 1e-13)."""
    n = 1 << 14
    ghat = 1.0 / np.fft.fft(coeffs, n)
    g = np.fft.ifft(ghat)
    return g[(np.asarray(ks) + origin) % n]


def _extent(h):
    return max(max(abs(o), abs(o + s - 1)) for o, s in zip(h.origin, h.coeffs.shape))


def _scale(x):
    return max(1.0, float(np.max(np.abs(x))))


# -- input generation helpers -------------------------------------------------------------


def _tensor(lines):
    out = lines[0]
    for line in lines[1:]:
        out = np.multiply.outer(out, line)
    return out


def _shift(rng, d, lo, hi):
    """Random integer shift with lo <= |s|_1 <= hi and every |s_i| >= 2."""
    while True:
        s = rng.integers(-hi, hi + 1, size=d)
        if lo <= np.sum(np.abs(s)) <= hi and np.all(np.abs(s) >= 2):
            return tuple(int(x) for x in s)


def _random_md(rng, shape, rho=0.4):
    """Non-separable filter 1 + p with ||p||_1 = rho, so min |hhat| >= 1 - rho."""
    p = rng.standard_normal(shape)
    center = tuple(s // 2 for s in shape)
    p[center] = 0.0
    p *= rho / np.sum(np.abs(p))
    p[center] = 1.0
    return p


def _ring_roots(rng, count, complex_ok, cluster):
    """`count` roots on one to three rings of radius rho in [0.42, 0.58]
    (or 1/rho), the rings at least 0.05 apart in rho. A ring of m roots has
    jittered, evenly spread angles, so roots stay separated and the symbol
    stays well away from zero at any degree. Real filters get rings that
    are closed under conjugation. With `cluster` (and count >= 3), one root
    (a conjugate pair for real filters) is moved next to another, at
    relative gap 1e-2. Returns the roots and max rho."""
    n_rings = 1 if count < 4 else int(rng.integers(1, 4))
    cuts = np.sort(rng.choice(np.arange(1, count), n_rings - 1, replace=False)) if n_rings > 1 else []
    sizes = np.diff(np.concatenate([[0], cuts, [count]])).astype(int)
    radii = 0.42 + 0.07 * rng.permutation(3)[:n_rings] + rng.uniform(0, 0.02, n_rings)
    roots = []
    for m, rho in zip(sizes, radii):
        rad = rho if rng.random() < 0.5 else 1.0 / rho
        if complex_ok:
            th = rng.uniform(0, 2 * np.pi) + 2 * np.pi * (np.arange(m) + rng.uniform(-0.25, 0.25, m)) / m
            roots += list(rad * np.exp(1j * th))
            continue
        half = m // 2
        th = np.pi * (2 * np.arange(half) + 1 + rng.uniform(-0.25, 0.25, half)) / m
        roots += list(rad * np.exp(1j * th)) + list(rad * np.exp(-1j * th))
        if m % 2:
            roots.append(-rad if m > 1 else rad * rng.choice([-1.0, 1.0]))
    if cluster and count >= 3:
        if complex_ok:
            roots[-1] = roots[0] * (1 + 1e-2)
        else:
            pairs = [i for i, z in enumerate(roots) if z.imag > 1e-12]
            if len(pairs) >= 2:
                i, j = pairs[0], pairs[-1]
                k = next(n for n, z in enumerate(roots) if abs(z - np.conj(roots[j])) < 1e-12)
                roots[j] = roots[i] * (1 + 1e-2)
                roots[k] = np.conj(roots[j])
    return roots, max(radii)


# Every 1-D inverse here decays at least like 0.59^|k| (ring radius 0.58
# times the 1e-2 cluster gap), so with shifts up to 12 and degree up to 24
# this window leaves a tail below 1e-13 outside |k| <= 40 for every route.
ROUTES_WINDOW = 134


def _filter_1d(rng, wl, degree, complex_ok):
    # clusters only up to degree 10: from degree 11 on invert_exact_1d
    # loses more than 1e-8 on some clustered roots, which a probe shows
    # (see README)
    roots, _ = _ring_roots(rng, degree, complex_ok, cluster=degree <= 10 and rng.random() < 0.5)
    gain = np.exp(1j * rng.uniform(0, 2 * np.pi)) if complex_ok else rng.choice([-1.0, 1.0])
    coeffs = np.poly(roots)
    coeffs = gain * coeffs / np.max(np.abs(coeffs))
    if not complex_ok:
        coeffs = coeffs.real
    return wl.lattice.Filter((int(rng.integers(-12, 13)),), coeffs)


def _singular_1d(rng, wl, complex_ok, n_stable, mult):
    """Filter with a unit-circle zero of multiplicity `mult` times a stable
    part of degree n_stable, at origin 0: invert_singular_1d fails on
    shifted origins, and on some double zeros, which probes show (see
    README). The cycles use double zeros only at +-1 and alone, where
    the polynomial is exactly 1 -+ 2z + z^2."""
    if complex_ok:
        units = [np.exp(1j * rng.uniform(-np.pi, np.pi))]
    else:
        units = [rng.choice([-1.0, 1.0])]
    stable = _ring_roots(rng, n_stable, complex_ok, cluster=False)[0] if n_stable else []
    coeffs = np.poly(units * mult + list(stable))
    coeffs = coeffs / np.max(np.abs(coeffs))
    if not complex_ok:
        coeffs = coeffs.real
    return wl.lattice.Filter((0,), coeffs), mult


def _filter_json(h):
    return json.dumps(
        {
            "dim": h.dim,
            "origin": list(h.origin),
            "shape": list(h.coeffs.shape),
            "coeffs": [float(x) for x in np.asarray(h.coeffs).ravel()],
        }
    )


# -- operations -----------------------------------------------------------------------------
#
# RUN[kind](ctx, inputs) -> output is the timed call; CHECK[kind](ctx,
# inputs, output) -> None on success or a one-line reason.

RUN = {}
CHECK = {}


def op(kind):
    def register(pair):
        run, check = pair()
        RUN[kind], CHECK[kind] = run, check
        return pair

    return register


def _cli(ctx, argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = ctx.wl.cli.main(argv)
    return rc, err.getvalue()


def _check_md_inverse(ctx, inputs, cert, g, radius):
    h = inputs["h"]
    if cert.status != "certified":
        return f"certificate status {cert.status}"
    if cert.certified_lower_bound > inputs["true_min"] + 1e-12:
        return f"certified bound {cert.certified_lower_bound:.3e} > true min {inputs['true_min']:.3e}"
    r = residual(h, g, max(radius - _extent(h), 0))
    if r > RESIDUAL_TOL + 1e-13 * _scale(g.coeffs):
        return f"residual {r:.3e}"
    lines = inputs.get("lines")
    if lines is not None:
        ks = [np.arange(o, o + s) for o, s in zip(g.origin, g.coeffs.shape)]
        inv = ctx.wl.inversion
        Filter = ctx.wl.lattice.Filter
        ref = _tensor([inv.invert_exact_1d(Filter((o,), c)).evaluate(k) for c, o, k in zip(lines, h.origin, ks)])
        err = float(np.max(np.abs(g.coeffs - ref)))
        if err > 1e-9 * _scale(ref):
            return f"tensor inverse differs from 1-D inverses by {err:.3e}"
    return None


@op("md_invert")
def _():
    def run(ctx, x):
        wl = ctx.wl
        cert = wl.spectrum.min_modulus_certified(x["h"])
        return cert, wl.inversion.invert_stable(x["h"], window_radius=x["W"], certificate=cert)

    def check(ctx, x, out):
        cert, g = out
        return _check_md_inverse(ctx, x, cert, g, x["W"])

    return run, check


@op("md_interpolate")
def _():
    def run(ctx, x):
        return ctx.wl.splines.interpolate(x["data"], x["gen"])

    def check(ctx, x, c):
        data = x["data"]
        phi = _tensor([bspline_line(x["degree"])] * data.dim)
        fit = convolve(c.coeffs, phi)
        origin = tuple(o - x["degree"] // 2 for o in c.origin)
        hi = tuple(o + s - 1 for o, s in zip(data.origin, data.coeffs.shape))
        err = np.max(np.abs(window(origin, fit, data.origin, hi) - data.coeffs))
        if err > 1e-9 * _scale(data.coeffs):
            return f"interpolant misses data by {err:.3e}"
        return None

    return run, check


@op("cli_invert")
def _():
    def run(ctx, x):
        out = ctx.path(".json")
        argv = ["invert", "--filter", x["json"], "--radius", str(x["W"]), "--out", out]
        return _cli(ctx, argv), out

    def check(ctx, x, res):
        (rc, err), out = res
        if rc != 0:
            return f"exit {rc}: {err.strip()[:120]}"
        with open(out) as fh:
            g = ctx.wl.lattice.filter_from_json(fh.read())
        with open(os.path.splitext(out)[0] + ".report.json") as fh:
            report = json.load(fh)
        if report["residual"] > RESIDUAL_TOL:
            return f"reported residual {report['residual']:.3e}"
        cert = SimpleNamespace(**report["certificate"])
        if x["h"].dim == 1:
            ks = np.arange(-40, 41)
            ref = exact_inverse_1d(x["h"].coeffs, x["h"].origin[0], ks).real
            diff = np.max(np.abs(window(g.origin, g.coeffs, (-40,), (40,)) - ref))
            if diff > 1e-8 * _scale(ref):
                return f"CLI inverse differs from reference by {diff:.3e}"
        return _check_md_inverse(ctx, x, cert, g, x["W"])

    return run, check


@op("cli_symbol_min")
def _():
    def run(ctx, x):
        out = ctx.path(".json")
        return _cli(ctx, ["symbol-min", "--filter", x["json"], "--out", out]), out

    def check(ctx, x, res):
        (rc, err), out = res
        if rc != 0:
            return f"exit {rc}: {err.strip()[:120]}"
        with open(out) as fh:
            cert = json.load(fh)
        if cert["certified_lower_bound"] > x["true_min"] + 1e-12:
            return "certified bound above the true minimum"
        if cert["grid_min"] < x["true_min"] - 1e-12:
            return "grid minimum below the true minimum"
        return None

    return run, check


def _check_kernel(k, tol_delta):
    d = np.array(k.integer_samples, dtype=float)
    d[len(d) // 2] -= 1.0
    err = float(np.max(np.abs(d)))
    if err > tol_delta:
        return f"integer samples differ from delta by {err:.3e}"
    if k.decay.model != "exponential" or not k.decay.rate > 0:
        return f"decay model {k.decay.model} rate {k.decay.rate:.3g}"
    return None


@op("kernel_space")
def _():
    def run(ctx, x):
        return ctx.wl.splines.lagrange_kernel_space(x["gen"], grid_step=x["step"], K=x["K"])

    return run, lambda ctx, x, k: _check_kernel(k, SPACE_DELTA_TOL)


@op("kernel_fourier")
def _():
    def run(ctx, x):
        return ctx.wl.splines.lagrange_kernel_fourier(x["gen"], grid_step=x["step"], K=x["K"])

    return run, lambda ctx, x, k: _check_kernel(k, ROUTE_TOL)


@op("kernel_both")
def _():
    def run(ctx, x):
        s = ctx.wl.splines
        return (
            s.lagrange_kernel_space(x["gen"], grid_step=x["step"], K=x["K"]),
            s.lagrange_kernel_fourier(x["gen"], grid_step=x["step"], K=x["K"]),
        )

    def check(ctx, x, out):
        ks, kf = out
        why = _check_kernel(ks, SPACE_DELTA_TOL) or _check_kernel(kf, ROUTE_TOL)
        if why:
            return why
        gap = float(np.max(np.abs(ks.samples - kf.samples)))
        return None if gap <= ROUTE_TOL else f"routes differ by {gap:.3e}"

    return run, check


@op("kernel_csv")
def _():
    def run(ctx, x):
        k = ctx.wl.splines.lagrange_kernel_space(x["gen"], grid_step=x["step"], K=x["K"])
        path = ctx.path(".csv")
        ctx.wl.splines.kernel_to_csv(k, path)
        return k, path

    def check(ctx, x, out):
        k, path = out
        vals = np.loadtxt(path, delimiter=",", skiprows=2)
        if not (np.array_equal(vals[:, 0], k.positions) and np.array_equal(vals[:, 1], k.samples)):
            return "CSV does not round-trip the kernel"
        return _check_kernel(k, SPACE_DELTA_TOL)

    return run, check


@op("interpolate_1d")
def _():
    run = RUN["md_interpolate"]
    return run, CHECK["md_interpolate"]


def _target(name):
    if name == "xplus3":
        return (lambda ks: np.where(ks >= 0, ks.astype(float) ** 3, 0.0)), (lambda t: max(t, 0.0) ** 3)
    return (lambda ks: np.abs(ks.astype(float)) ** 3), (lambda t: abs(t) ** 3)


@op("reproduce")
def _():
    def run(ctx, x):
        s = ctx.wl.splines
        kernel = s.lagrange_kernel_space(x["gen"], grid_step=1.0 / 16, K=x["k_sum"] + 7)
        p, target = _target(x["target"])
        xs = np.arange(-5.0, 5.0 + 1.0 / 32, 1.0 / 16)
        return s.reproduction_check(p, kernel, target, xs, x["k_sum"])

    def check(ctx, x, res):
        r = res["max_residual"]
        return None if r <= 1e-6 else f"reproduction residual {r:.3e}"

    return run, check


@op("cli_spline_lagrange")
def _():
    def run(ctx, x):
        out = ctx.path(".csv")
        argv = ["spline-lagrange", "--route", x["route"], "--grid-step", repr(x["step"]),
                "--K", str(x["K"]), "--out", out]
        argv += ["--generator", x["gen_json"]] if x.get("gen_json") else ["--degree", str(x["degree"])]
        return _cli(ctx, argv), out

    def check(ctx, x, res):
        (rc, err), out = res
        if rc != 0:
            return f"exit {rc}: {err.strip()[:120]}"
        vals = np.loadtxt(out, delimiter=",", skiprows=2)
        xs, ys = vals[:, 0], vals[:, 1]
        on_int = np.abs(xs - np.rint(xs)) < 1e-12
        ref = (np.rint(xs[on_int]) == 0).astype(float)
        err = float(np.max(np.abs(ys[on_int] - ref)))
        if err > (ROUTE_TOL if x["route"] == "fourier" else SPACE_DELTA_TOL):
            return f"integer samples differ from delta by {err:.3e}"
        with open(os.path.splitext(out)[0] + ".report.json") as fh:
            report = json.load(fh)
        gap = report.get("route_agreement_sup", 0.0)
        return None if gap <= ROUTE_TOL else f"routes differ by {gap:.3e}"

    return run, check


@op("cli_reproduce")
def _():
    def run(ctx, x):
        out = ctx.path(".json")
        argv = ["reproduce", "--degree", str(x["degree"]), "--target", x["target"],
                "--k-sum", str(x["k_sum"]), "--out", out]
        return _cli(ctx, argv), out

    def check(ctx, x, res):
        (rc, err), out = res
        if rc != 0:
            return f"exit {rc}: {err.strip()[:120]}"
        with open(out) as fh:
            r = json.load(fh)["max_residual"]
        return None if r <= 1e-6 else f"reproduction residual {r:.3e}"

    return run, check


@op("routes")
def _():
    def run(ctx, x):
        inv = ctx.wl.inversion
        h, w = x["h"], x["W"]
        exact = inv.invert_exact_1d(h)
        return exact.evaluate(np.arange(-40, 41)), inv.invert_stable(h, window_radius=w), inv.toeplitz_oracle(h, w)

    def check(ctx, x, out):
        ge, gs, go = out
        h = x["h"]
        r = residual(h, gs, max(x["W"] - _extent(h), 0))
        if r > RESIDUAL_TOL + 1e-13 * _scale(gs.coeffs):
            return f"invert_stable residual {r:.3e}"
        vs = window(gs.origin, gs.coeffs, (-40,), (40,))
        vo = window(go.origin, go.coeffs, (-40,), (40,))
        scale = _scale(ge)
        gaps = (np.max(np.abs(ge - vs)), np.max(np.abs(ge - vo)), np.max(np.abs(vs - vo)))
        if max(gaps) > 1e-8 * scale:
            return "routes disagree: exact/stable {:.2e} exact/oracle {:.2e} stable/oracle {:.2e}".format(*gaps)
        return None

    return run, check


def _check_singular(h, vals, origin, growth_order, mult, tol=1e-9):
    if growth_order != mult - 1:
        return f"growth order {growth_order} != multiplicity - 1 = {mult - 1}"
    conv = convolve(h.coeffs, vals)
    o = h.origin[0] + origin
    k_lo, k_hi = o + len(h.coeffs) - 1, o + len(vals) - 1
    ks = np.arange(k_lo, k_hi + 1)
    inner = conv[ks - o] - (ks == 0)
    err = float(np.max(np.abs(inner))) if len(inner) else 0.0
    if err > tol * _scale(vals):
        return f"h*g - delta = {err:.3e} on the interior"
    return None


@op("singular")
def _():
    def run(ctx, x):
        inv = ctx.wl.inversion
        seq = inv.invert_singular_1d(x["h"], 40)
        return seq, inv.decay_fit(seq)

    def check(ctx, x, out):
        seq, report = out
        why = _check_singular(x["h"], seq.values, seq.window.origin[0], seq.growth_order, x["mult"])
        if why:
            return why
        return None if np.isfinite(report.order) else "decay fit not finite"

    return run, check


@op("cli_invert_singular")
def _():
    def run(ctx, x):
        out = ctx.path(".json")
        return _cli(ctx, ["invert-singular", "--filter", x["json"], "--radius", "40", "--out", out]), out

    def check(ctx, x, res):
        (rc, err), out = res
        if rc != 0:
            return f"exit {rc}: {err.strip()[:120]}"
        with open(out) as fh:
            g = json.load(fh)
        with open(os.path.splitext(out)[0] + ".report.json") as fh:
            report = json.load(fh)
        return _check_singular(x["h"], np.asarray(g["coeffs"]), g["origin"][0], report["growth_order"], x["mult"])

    return run, check


@op("symbol_eval_long")
def _():
    def run(ctx, x):
        return ctx.wl.spectrum.symbol_eval(x["h"], x["omega"])

    def check(ctx, x, vals):
        h, n = x["h"], x["n"]
        wrapped = np.zeros(n, dtype=complex)
        np.add.at(wrapped, np.arange(len(h.coeffs)) % n, h.coeffs)
        ref = np.fft.fft(wrapped) * np.exp(-1j * x["omega"] * h.origin[0])
        err = float(np.max(np.abs(vals - ref)))
        return None if err <= 1e-9 * _scale(ref) else f"symbol differs from FFT by {err:.3e}"

    return run, check


@op("derivative_growth")
def _():
    def run(ctx, x):
        return ctx.wl.spectrum.derivative_growth(x["h"], x["n_max"])

    def check(ctx, x, res):
        h = x["h"]
        ks = np.abs(np.arange(h.origin[0], h.origin[0] + len(h.coeffs)).astype(float))
        for n in (0, 1, x["n_max"] // 2, x["n_max"]):
            ref = np.log(np.sum(ks**n * np.abs(h.coeffs)))
            if abs(res.log_moments[n] - ref) > 1e-9 * max(1.0, abs(ref)):
                return f"log D_{n} differs from the direct sum"
        return None

    return run, check


def _weight(wl, fam, params, dim=1):
    w = wl.weights
    if fam == "polynomial":
        return w.polynomial_weight(params["n"], dim)
    if fam == "exponential":
        return w.exponential_weight(params["r"], dim)
    return w.subexponential_weight(params["r"], params["b"], dim)


def _log_weight(fam, params, ks):
    norm1 = np.sum(np.abs(ks), axis=-1)
    if fam == "polynomial":
        return params["n"] * np.log1p(np.linalg.norm(ks, axis=-1))
    if fam == "exponential":
        return params["r"] * norm1
    return params["r"] * norm1 ** params["b"]


GRS_VERDICT = {"polynomial": "grs", "subexponential": "grs", "exponential": "not_grs"}


@op("weights")
def _():
    def run(ctx, x):
        wl = ctx.wl
        w = _weight(wl, x["family"], x["params"], x["box"].dim)
        est = wl.weights.grs_limit(w, x["k"], x["m_max"])
        bad = wl.weights.submultiplicative_check(w, x["box"])
        norm = wl.lattice.weighted_norm(x["g"], 1, w)
        return est, bad, norm

    def check(ctx, x, out):
        est, bad, norm = out
        if est.verdict != GRS_VERDICT[x["family"]]:
            return f"GRS verdict {est.verdict} for a {x['family']} weight"
        if bad:
            return f"{len(bad)} submultiplicativity violations"
        g = x["g"]
        ks = g.indices()
        ref = float(np.sum(np.exp(_log_weight(x["family"], x["params"], ks)) * np.abs(g.coeffs.ravel())))
        return None if abs(norm - ref) <= 1e-12 * ref else f"weighted norm {norm} != {ref}"

    return run, check


@op("cli_grs_check")
def _():
    def run(ctx, x):
        out = ctx.path(".json")
        argv = ["grs-check", "--weight", x["json"], "--k", x["k"], "--m-max", str(x["m_max"]), "--out", out]
        return _cli(ctx, argv), out

    def check(ctx, x, res):
        (rc, err), out = res
        if rc != 0:
            return f"exit {rc}: {err.strip()[:120]}"
        with open(out) as fh:
            verdict = json.load(fh)["verdict"]
        return None if verdict == GRS_VERDICT[x["family"]] else f"GRS verdict {verdict} for {x['family']}"

    return run, check


@op("cli_lemma_check")
def _():
    def run(ctx, x):
        out = ctx.path(".json")
        return _cli(ctx, ["lemma-check", "--c", repr(x["c"]), "--n-max", str(x["n_max"]), "--out", out]), out

    def check(ctx, x, res):
        (rc, err), out = res
        if rc != 0:
            return f"exit {rc}: {err.strip()[:120]}"
        with open(out) as fh:
            r = json.load(fh)
        if abs(r["S0"] - 1.0 / (1.0 - np.exp(-x["c"]))) > 1e-12 * r["S0"]:
            return "S0 differs from 1/(1 - e^-c)"
        return None if abs(r["max_ratio"] - 1.0) < 1e-12 and np.isfinite(r["M"]) else "bound constant not finite"

    return run, check


# -- cycles ---------------------------------------------------------------------------------


def _md_tensor(wl, lines, origin):
    coeffs = _tensor(lines)
    true_min = float(np.prod([line_min_modulus(line) for line in lines]))
    h = wl.lattice.Filter(origin, coeffs)
    return {"h": h, "lines": lines, "true_min": true_min}


def _md_random(wl, rng, shape, shift=None):
    p = _random_md(rng, shape)
    origin = tuple(-(n // 2) for n in shape)
    if shift is not None:
        origin = tuple(o + s for o, s in zip(origin, shift))
    h = wl.lattice.Filter(origin, p)
    return {"h": h, "true_min": grid_min_modulus(p, 256 if len(shape) == 2 else 64)}


def certify_md_cycle(wl, rng):
    """100 operations. Their cost classes, measured on one core when the
    benchmark was added: 30 at ~2 ms, 52 at 5-20 ms, 3 at ~60 ms, 12 at
    ~250 ms, 3 at 1.3-1.7 s.
    The median falls inside the second class and the p90 tail inside the
    fourth."""
    ops = []
    cubic = bspline_line(3)

    def tensor_invert(deg, cheap=True):
        line = bspline_line(deg)
        x = _md_tensor(wl, [line, line], (-(deg // 2),) * 2)
        x["W"] = 16
        ops.append(Op("md_invert", x, cheap=cheap))

    def interpolate_2d(deg):
        data = wl.lattice.Filter(tuple(int(v) for v in rng.integers(-4, 5, size=2)), rng.standard_normal((12, 12)))
        ops.append(Op("md_interpolate", {"data": data, "gen": wl.splines.bspline_generator(deg), "degree": deg}))

    def random_md(shape, shift=None, cli=False, cheap=True):
        x = _md_random(wl, rng, shape, shift)
        x["W"] = _extent(x["h"]) + (8 if len(shape) == 3 else 12)
        if cli:
            x["json"] = _filter_json(x["h"])
        ops.append(Op("cli_invert" if cli else "md_invert", x, cheap=cheap))

    def shifted_cubic(lo, hi):
        # L = |s|_1 exactly, so the band sets the grid the certificate
        # needs: N = 512 for |s|_1 in 5..9, N = 2048 for 20..36
        s = _shift(rng, 2, lo, hi)
        x = _md_tensor(wl, [cubic, cubic], tuple(si - 1 for si in s))
        x["W"] = _extent(x["h"]) + 16
        ops.append(Op("md_invert", x, cheap=hi < 20))

    shapes = [(3, 3), (3, 5), (5, 3), (4, 4), (5, 5), (3, 4)]
    for k in range(26):
        random_md(shapes[k % len(shapes)], cli=k < 4)
    for deg in (3, 4, 3, 4):
        tensor_invert(deg)
    for _ in range(40):
        shifted_cubic(5, 9)
    for deg in (5, 5, 5, 5):
        tensor_invert(deg)
    for k in range(4):
        random_md(shapes[k], shift=_shift(rng, 2, 8, 12))
    for deg in (3, 4, 5, 5):
        interpolate_2d(deg)
    tensor_invert(6)
    tensor_invert(6)
    interpolate_2d(6)
    for _ in range(10):
        shifted_cubic(20, 36)
    random_md((3, 3, 3), cheap=False)
    random_md((4, 3, 3), cheap=False)
    # the degree-7 tensor needs N = 4096; it goes through the CLI
    line = bspline_line(7)
    x = _md_tensor(wl, [line, line], (-3, -3))
    x.update(W=20, json=_filter_json(x["h"]))
    ops.append(Op("cli_invert", x, cheap=False))
    # interpolation on 3-D data: its 3-D tensor cubic certifies at N = 256
    data = wl.lattice.Filter(tuple(int(v) for v in rng.integers(-3, 4, size=3)), rng.standard_normal((6, 6, 6)))
    ops.append(Op("md_interpolate", {"data": data, "gen": wl.splines.bspline_generator(3), "degree": 3}, cheap=False))
    # certificate-only call on a 4-D tensor cubic: it ends inconclusive at
    # N = 64, because N = 128 would pass the grid-point cap
    x = _md_tensor(wl, [cubic] * 4, (-1,) * 4)
    ops.append(Op("cli_symbol_min", {"json": _filter_json(x["h"]), "true_min": x["true_min"]}, cheap=False))
    return ops


def spline_kernels_cycle(wl, rng):
    """107 operations, 3 of them probes of known defects; every
    cost-setting parameter (degree, grid step, K, data length) is fixed
    per slot, the seed draws data, targets and order. The 14
    Fourier-route B-spline kernels, the 2 two-route kernels and the
    degree-2 probe are the slowest class, so the p90 tail falls inside
    it."""
    s = wl.splines
    ops = []
    for k in range(26):
        deg = 1 + k % 9
        data = wl.lattice.Filter((int(rng.integers(-20, 21)),), rng.standard_normal(80))
        ops.append(Op("interpolate_1d", {"data": data, "gen": s.bspline_generator(deg), "degree": deg}))
    for deg in range(2, 10):
        for step, K in ((1 / 8, 20), (1 / 16, 20), (1 / 16, 30), (1 / 32, 20), (1 / 64, 40)):
            ops.append(Op("kernel_space", {"gen": s.bspline_generator(deg), "step": step, "K": K}))
    # x+^3 and |x|^3 are cubic splines, so only the cubic kernel reproduces them
    for k in range(8):
        ops.append(Op("reproduce", {"gen": s.bspline_generator(3), "target": str(rng.choice(["xplus3", "absx3"])), "k_sum": 40}))
    for deg in (3, 5, 7, 9):
        ops.append(Op("kernel_csv", {"gen": s.bspline_generator(deg), "step": 1 / 16, "K": 20}))
    for _ in range(4):
        ops.append(Op("cli_reproduce", {"degree": 3, "target": str(rng.choice(["xplus3", "absx3"])), "k_sum": 40}))
    green = json.dumps({"kind": "green_power", "params": {"order": 4}})
    for route, step, K, deg, gen_json in (("space", 1 / 16, 30, 5, None), ("fourier", 1 / 8, 20, 4, None),
                                          ("both", 1 / 8, 20, 3, None), ("fourier", 1 / 16, 20, 0, green)):
        x = {"route": route, "step": step, "K": K, "degree": deg}
        if gen_json:
            x["gen_json"] = gen_json
        ops.append(Op("cli_spline_lagrange", x))
    # Fourier-route B-splines start at degree 3: at degree 2 the 64-shell
    # periodization misses the 1e-6 route agreement (see README)
    for k, deg in enumerate(range(3, 10)):
        for step in (1 / 8, 1 / 16):
            ops.append(Op("kernel_fourier", {"gen": s.bspline_generator(deg), "step": step, "K": 20}, cheap=k == 0))
    ops.append(Op("kernel_fourier", {"gen": s.green_power_generator(4), "step": 1 / 16, "K": 20}))
    ops.append(Op("kernel_fourier", {"gen": s.green_power_generator(6), "step": 1 / 32, "K": 20}))
    ops.append(Op("kernel_both", {"gen": s.bspline_generator(5), "step": 1 / 8, "K": 20}, cheap=False))
    ops.append(Op("kernel_both", {"gen": s.bspline_generator(7), "step": 1 / 16, "K": 20}, cheap=False))
    return ops + spline_kernel_probes(wl)


def routes_1d_cycle(wl, rng):
    """105 operations, 5 of them probes of known defects; degrees,
    windows, multiplicities and sizes are fixed per slot, the seed draws
    roots, clusters, origins and data. The three long symbol
    evaluations (~180 ms) are the slowest operations; the 61 three-route
    inversions (10-50 ms) hold most of the time."""
    ops = []
    for k in range(61):
        deg = 1 + k % 24
        h = _filter_1d(rng, wl, deg, complex_ok=k % 3 == 2)
        ops.append(Op("routes", {"h": h, "W": ROUTES_WINDOW}))
    for k in range(12):
        mult = 2 if k in (0, 4) else 1
        h, mult = _singular_1d(rng, wl, complex_ok=k % 4 == 3, n_stable=0 if mult == 2 else k % 4, mult=mult)
        ops.append(Op("singular", {"h": h, "mult": mult}))
    n = 2048
    for _ in range(3):
        h = wl.lattice.Filter((int(rng.integers(-50, 51)),), rng.standard_normal(2048))
        ops.append(Op("symbol_eval_long", {"h": h, "omega": 2 * np.pi * np.arange(n) / n, "n": n}, cheap=False))
    for _ in range(6):
        ks = np.arange(200) - 100
        coeffs = rng.uniform(0.5, 1.5, 200) * np.exp(-rng.uniform(0.2, 1.0) * np.abs(ks))
        ops.append(Op("derivative_growth", {"h": wl.lattice.Filter((-100,), coeffs), "n_max": 40}))
    for k in range(6):
        fam = ("polynomial", "exponential", "subexponential")[k % 3]
        dim = 1 + k // 3
        params = {"n": float(rng.uniform(0.5, 4)), "r": float(rng.uniform(0.1, 1.0)), "b": float(rng.uniform(0.2, 0.6))}
        box = wl.lattice.Box((-4,) * dim, (9,) * dim)
        kk = tuple(int(v) for v in rng.integers(1, 4, size=dim))
        g = wl.lattice.Filter((-5,) * dim, rng.standard_normal((11,) * dim))
        ops.append(Op("weights", {"family": fam, "params": params, "box": box, "k": kk, "m_max": 2**20, "g": g}))
    for deg in (3, 6, 9, 12):
        h = _filter_1d(rng, wl, deg, complex_ok=False)
        x = {"h": h, "W": ROUTES_WINDOW, "json": _filter_json(h), "true_min": line_min_modulus(h.coeffs)}
        ops.append(Op("cli_invert", x))
    for n_stable, mult in ((2, 1), (0, 2)):
        h, mult = _singular_1d(rng, wl, complex_ok=False, n_stable=n_stable, mult=mult)
        ops.append(Op("cli_invert_singular", {"h": h, "mult": mult, "json": _filter_json(h)}))
    for fam in ("polynomial", "exponential", "subexponential"):
        params = {"polynomial": {"n": float(rng.uniform(0.5, 4))}, "exponential": {"r": float(rng.uniform(0.1, 1.0))},
                  "subexponential": {"r": float(rng.uniform(0.1, 1.0)), "b": float(rng.uniform(0.2, 0.6))}}[fam]
        x = {"family": fam, "json": json.dumps({"dim": 1, "kind": fam, "params": params}),
             "k": str(int(rng.integers(1, 4))), "m_max": 2**20}
        ops.append(Op("cli_grs_check", x))
    for _ in range(3):
        ops.append(Op("cli_lemma_check", {"c": float(rng.uniform(0.5, 2.0)), "n_max": 40}))
    return ops + routes_1d_probes(wl)


# -- probes of known library defects -----------------------------------------------------
#
# Fixed inputs, the same for every seed, that hit defects found while the
# workloads were chosen (README, "Known library defects"). They fail
# their checks today, so ops_ok_frac reads the same value below 1 for
# every seed, and it rises when a fix lands. They are never used for
# warm-up or smoke runs.


def spline_kernel_probes(wl):
    s = wl.splines
    return [
        # the hat function is compact, so the decay fit has no samples
        Op("kernel_space", {"gen": s.bspline_generator(1), "step": 1 / 16, "K": 20}, False, "degree-1 kernel"),
        # the 64-shell periodization leaves the decay fit a mixed model
        Op("kernel_fourier", {"gen": s.bspline_generator(2), "step": 1 / 8, "K": 20}, False, "degree-2 Fourier kernel"),
        # PeriodizationError at the default truncation
        Op("kernel_fourier", {"gen": s.green_power_generator(2), "step": 1 / 16, "K": 20}, False, "green_power(2)"),
    ]


def routes_1d_probes(wl):
    F = wl.lattice.Filter

    def ring_filter(key, degree, repeat=False):
        rng = np.random.default_rng(key)
        roots, _ = _ring_roots(rng, degree, False, cluster=not repeat)
        if repeat:  # a conjugate pair of multiplicity 2 next to the others
            z = next(z for z in roots if z.imag > 1e-12)
            roots = list(roots) + [z, np.conj(z)]
        c = np.poly(roots).real
        return F((0,), c / np.max(np.abs(c)))

    double_unit, _ = _singular_1d(np.random.default_rng([78, 1, 0, 339]), wl, False, 1, 2)
    rng = np.random.default_rng([0, 5])
    annulus = np.poly(rng.uniform(0.4, 0.7, 20) ** rng.choice([-1, 1], 20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20)))
    return [
        # invert_exact_1d is off by ~1e-6 on a pair at relative gap 1e-2
        Op("routes", {"h": ring_filter([13, 16], 16), "W": ROUTES_WINDOW}, False, "clustered roots, degree 16"),
        # invert_exact_1d is off by orders of magnitude on a double pair
        Op("routes", {"h": ring_filter([16, 7], 6, repeat=True), "W": ROUTES_WINDOW}, False, "repeated roots, degree 8"),
        # min |hhat| = 3.4e-3, but the certificate ends inconclusive at the
        # grid cap, so invert_stable refuses
        Op("routes", {"h": F((0,), annulus / np.max(np.abs(annulus))), "W": ROUTES_WINDOW}, False,
           "uncertified degree-20 filter"),
        # ToleranceUnreachableError: residual 1 at any origin but 0 and -1
        Op("singular", {"h": F((1,), [1.0, -1.0]), "mult": 1}, False, "shifted singular origin"),
        # WrongBranchError: the double zero at 1 is not found next to a
        # stable zero at -0.497
        Op("singular", {"h": double_unit, "mult": 2}, False, "double unit zero next to a stable zero"),
    ]


CYCLES = {
    "certify-md": certify_md_cycle,
    "spline-kernels": spline_kernels_cycle,
    "routes-1d": routes_1d_cycle,
}


def make_cycle(wl, workload, seed):
    """The seed's cycle of operations for the workload, in run order."""
    rng = np.random.default_rng([seed, list(CYCLES).index(workload)])
    ops = CYCLES[workload](wl, rng)
    for j, op in enumerate(ops):
        op.slot = j
    return [ops[j] for j in rng.permutation(len(ops))]


def fingerprint(ops):
    """Digest of every generated input, for reproducibility checks."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, dict):
            for k in sorted(v):
                h.update(k.encode())
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            for item in v:
                feed(item)
        elif isinstance(v, np.ndarray):
            h.update(str(v.dtype).encode() + repr(v.shape).encode() + v.tobytes())
        elif hasattr(v, "coeffs") and hasattr(v, "origin"):
            feed((v.origin, v.coeffs))
        elif hasattr(v, "kind") and hasattr(v, "params"):
            feed((v.kind, v.params))
        else:
            h.update(repr(v).encode())

    for o in ops:
        feed((o.kind, o.inputs))
    return h.hexdigest()
