"""Command-line surface.

Exit statuses: 0 success, 1 usage or schema error, 2 mathematical
failure (non-invertible symbol, unreachable tolerance, ...) with a
diagnostic JSON object on standard error. All JSON output uses fixed
17-significant-digit float formatting, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import MathError
from .inversion import _invert_stable, decay_fit, invert_singular_1d
# re-exported only for the install check at bench/test_bench.py:132, which ROADMAP item 0 moves
from .inversion import invert_stable  # noqa: F401
from .lattice import as_int, filter_from_json, filter_to_json
from .spectrum import lemma_bound_check, min_modulus_certified
from .splines import (
    bspline_generator,
    generator_from_json,
    green_power_generator,
    kernel_to_csv,
    lagrange_kernel_fourier,
    lagrange_kernel_space,
    reproduction_check,
)
from .weights import grs_limit, weight_from_json

__all__ = ["main"]


# -- deterministic JSON -------------------------------------------------------


def _json_text(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_json_text(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is float and math.isfinite(v) for v in obj):
            # the layout below in one format call: "%.17g" % x == format(x, ".17g")
            return (f"[\n{pad}  " + f",\n{pad}  ".join(["%.17g"] * len(obj)) + f"\n{pad}]") % tuple(obj)
        items = [f"{pad}  {_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return json.dumps("inf" if x > 0 else "-inf" if x < 0 else "nan")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(path, obj):
    text = _json_text(obj) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _sidecar_path(out):
    """<out stem>.report.json; None when out is standard output (None or "-")."""
    if out in (None, "-"):
        return None
    root, _ = os.path.splitext(out)
    return root + ".report.json"


def _load_json(arg, parse):
    """parse() of an inline JSON string or of the file at path arg."""
    if not arg.lstrip().startswith("{"):
        with open(arg) as fh:
            arg = fh.read()
    return parse(arg)


def _int_arg(text, name):
    """text as an int by lattice.as_int's rule: "2" and "2.0" give 2, while
    "1.5" and "x" raise ValueError naming the argument."""
    for parse in (int, float):
        try:
            text = parse(text)
            break
        except ValueError:
            pass
    return as_int(text, name)


def _decay_json(report):
    return {
        "model": report.model,
        "rate_or_order": report.rate if report.model in ("exponential", "compact") else report.order,
        "C": report.fit_constant,
    }


# -- subcommands ---------------------------------------------------------------


def _cmd_invert(args):
    h = _load_json(args.filter, filter_from_json)
    cert = min_modulus_certified(h)
    g, residual = _invert_stable(h, args.tol, args.radius, cert)
    try:
        decay = _decay_json(decay_fit(g))
    except ValueError:  # a window too short to fit; the inverse itself is verified
        decay = None
    report = {"residual": residual, "certificate": vars(cert), "decay": decay}
    _write_json(args.out, filter_to_json(g))
    _write_json(_sidecar_path(args.out), report)
    return 0


def _cmd_invert_singular(args):
    h = _load_json(args.filter, filter_from_json)
    seq = invert_singular_1d(h, args.radius, residual_tol=args.tol)
    report = {
        "residual": seq.residual,
        "growth_order": seq.growth_order,
        "bound_constant": seq.bound_constant,
        # exact, not fitted: |g[k]| <= C (1 + |k|)^order on the window
        "decay": {"model": "algebraic", "rate_or_order": seq.growth_order, "C": seq.bound_constant},
    }
    _write_json(args.out, filter_to_json(seq.to_filter()))
    _write_json(_sidecar_path(args.out), report)
    return 0


def _cmd_grs_check(args):
    w = _load_json(args.weight, weight_from_json)
    k = [_int_arg(x, "--k") for x in args.k.split(",")]
    _write_json(args.out, vars(grs_limit(w, k, args.m_max)))
    return 0


def _cmd_symbol_min(args):
    h = _load_json(args.filter, filter_from_json)
    cert = min_modulus_certified(h, target_gap=args.target_gap)
    _write_json(args.out, vars(cert))
    return 0


def _cmd_spline_lagrange(args):
    gen = generator_from_json(args.generator) if args.generator else bspline_generator(args.degree)
    route = args.route
    report = {"route": route}
    kernel = None
    if route in ("space", "both"):
        kernel = lagrange_kernel_space(gen, grid_step=args.grid_step, K=args.K)
        report["decay_space"] = _decay_json(kernel.decay)
    if route in ("fourier", "both"):
        kf = lagrange_kernel_fourier(gen, grid_step=args.grid_step, K=args.K)
        report["decay_fourier"] = _decay_json(kf.decay)
        if kernel is None:
            kernel = kf
        else:
            report["route_agreement_sup"] = float(
                np.max(np.abs(kernel.samples - kf.samples))
            )
    kernel_to_csv(kernel, args.out)
    _write_json(_sidecar_path(args.out), report)
    return 0


def _cmd_reproduce(args):
    gen = bspline_generator(args.degree)
    if not -math.inf < args.x_min <= args.x_max < math.inf:
        raise ValueError(f"x_min and x_max must be finite with x_min <= x_max, got {args.x_min} and {args.x_max}")
    x_max = max(abs(args.x_min), abs(args.x_max))
    K = args.k_sum + int(np.ceil(x_max)) + 2
    kernel = lagrange_kernel_space(gen, grid_step=args.x_step, K=K)
    p, target = {
        "xplus3": (lambda ks: np.where(ks >= 0, ks.astype(float) ** 3, 0.0), lambda x: max(x, 0.0) ** 3),
        "absx3": (lambda ks: np.abs(ks.astype(float)) ** 3, lambda x: abs(x) ** 3),
    }[args.target]
    xs = np.arange(args.x_min, args.x_max + args.x_step / 2, args.x_step)
    res = reproduction_check(p, kernel, target, xs, args.k_sum, tol=args.tol)
    _write_json(
        args.out,
        {
            "target": args.target,
            "max_residual": res["max_residual"],
            "tail_estimate": res["tail_estimate"],
        },
    )
    return 0


def _cmd_decay_fit(args):
    g = _load_json(args.filter, filter_from_json)
    _write_json(args.out, vars(decay_fit(g)))
    return 0


def _cmd_lemma_check(args):
    res = lemma_bound_check(args.c, args.n_max)
    _write_json(
        args.out,
        {
            "c": args.c,
            "n_max": args.n_max,
            "S0": float(res["S"][0]),
            "M": res["M"],
            "R": res["R"],
            "max_ratio": res["max_ratio"],
        },
    )
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2
    # for mathematical failures, so usage errors are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _build_parser():
    parser = _Parser(prog="wienerlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invert", help="windowed convolution inverse with certificate")
    p.add_argument("--filter", required=True, help="Filter JSON (inline or path)")
    p.add_argument("--radius", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("invert-singular", help="inverse with unit-circle symbol zeros")
    p.add_argument("--filter", required=True)
    p.add_argument("--radius", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_invert_singular)

    p = sub.add_parser("grs-check", help="GRS limit along a lattice direction")
    p.add_argument("--weight", required=True, help="Weight JSON (inline or path)")
    p.add_argument("--k", default="1", help="direction, comma-separated ints")
    p.add_argument("--m-max", type=int, default=2**20, help="largest sampled m; sets only the samples reported")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_grs_check)

    p = sub.add_parser("symbol-min", help="certified minimum modulus of the symbol")
    p.add_argument("--filter", required=True)
    p.add_argument("--target-gap", type=float, default=1e-9)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_symbol_min)

    p = sub.add_parser("spline-lagrange", help="Lagrange interpolation kernel CSV")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--generator", help="Generator JSON (overrides --degree)")
    p.add_argument("--route", choices=["space", "fourier", "both"], default="space")
    p.add_argument("--grid-step", type=float, default=1.0 / 16)
    p.add_argument("--K", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spline_lagrange)

    p = sub.add_parser("reproduce", help="polynomial reproduction residual")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--target", choices=["xplus3", "absx3"], default="xplus3")
    p.add_argument("--k-sum", type=int, default=40)
    p.add_argument("--x-min", type=float, default=-5.0)
    p.add_argument("--x-max", type=float, default=5.0)
    p.add_argument("--x-step", type=float, default=1.0 / 16)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("decay-fit", help="decay model of a stored filter")
    p.add_argument("--filter", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_decay_fit)

    p = sub.add_parser("lemma-check", help="factorial moment bound diagnostic")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_lemma_check)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MathError as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        best = getattr(exc, "best_residual", None)
        if best is not None:
            diag["best_residual"] = best
        cert = getattr(exc, "certificate", None)
        if cert is not None:
            diag["certificate"] = vars(cert)
        sys.stderr.write(_json_text(diag) + "\n")
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"wienerlab: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
