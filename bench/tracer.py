"""Span tracing of wienerlab from outside the package.

`Tracer.install` replaces every public function of the six wienerlab
modules, at every module attribute that refers to it (the defining
module, each module that imported it with `from .x import y`, and the
package namespace), by a wrapper that records a span. Nested library
calls therefore produce child spans. Spans are kept in memory; the
per-layer metrics are computed from them when the run ends.

A span is the tuple (span_id, parent_id, op_id, name, t_start, t_end);
parent_id is -1 for a top-level span. A layer's self time is its span's
duration minus the durations of its direct children (calls are strictly
nested in this single-threaded benchmark, so children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

MODULES = ("lattice", "weights", "spectrum", "inversion", "splines", "cli")
# Factories whose returned Generator gets a traced `symbol_eval`, so the
# periodization shells show up as `splines.generator_symbol` spans.
GENERATOR_FACTORIES = ("bspline_generator", "green_power_generator")


def self_times(spans):
    """Map span_id -> self time (duration minus direct children's durations)."""
    own = {sid: t1 - t0 for sid, _, _, _, t0, t1 in spans}
    out = dict(own)
    for sid, parent, _, _, t0, t1 in spans:
        if parent in out:
            out[parent] -= t1 - t0
    return out


def layer_self_times(spans):
    """Map span name -> (calls, total self time)."""
    selfs = self_times(spans)
    agg = defaultdict(lambda: [0, 0.0])
    for sid, _, _, name, _, _ in spans:
        agg[name][0] += 1
        agg[name][1] += selfs[sid]
    return {name: (calls, s) for name, (calls, s) in agg.items()}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)  # "<span name>.<counter>" -> total
        self.active = False
        self.op_id = -1
        self._stack = []
        self._next_id = 0

    # -- recording ------------------------------------------------------------

    def span(self, name, fn, counter=None):
        """Wrap fn so that each call, while the tracer is active, records a
        span named `name`; counter(tracer, args, kwargs, result, span_id,
        descendants) may add counts at the same boundary."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            first_child = len(self.spans)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.spans.append((sid, parent, self.op_id, name, t0, t1))
            if counter is not None:
                counter(self, args, kwargs, result, sid, self.spans[first_child:-1])
            return result

        return traced

    def add(self, key, value):
        self.counts[key] += value

    # -- installation -----------------------------------------------------------

    def install(self, wl, counters):
        """Wrap the public functions of wienerlab's modules at every import
        site. counters maps a span name to its counter callback."""
        modules = [getattr(wl, m) for m in MODULES]
        originals = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[fn] = f"{short}.{attr}"
        wrappers = {}
        for fn, name in originals.items():
            wrapped = self.span(name, fn, counters.get(name))
            if name.rsplit(".", 1)[-1] in GENERATOR_FACTORIES:
                wrapped = self._trace_generator_symbol(wrapped)
            wrappers[fn] = wrapped
        for mod in [wl, *modules]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
        return sorted(originals.values())

    def _trace_generator_symbol(self, factory):
        def count_points(tracer, args, kwargs, result, sid, descendants):
            omega = args[0] if args else kwargs.get("omega")
            tracer.add("splines.generator_symbol.points", _size(omega))

        @functools.wraps(factory)
        def make(*args, **kwargs):
            gen = factory(*args, **kwargs)
            if gen.symbol_eval is not None:
                gen.symbol_eval = self.span(
                    "splines.generator_symbol", gen.symbol_eval, count_points
                )
            return gen

        return make


def _size(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    n = 1
    for s in shape:
        n *= int(s)
    return n


# -- counters at the layer boundaries ---------------------------------------------


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def make_counters(wl):
    """Counter callbacks keyed by span name. Each derives its counts from
    the call's arguments and result only."""
    lattice = wl.lattice
    g_start = wl.spectrum.GRID_START
    fft_start = wl.inversion.FFT_GRID_START

    def cert(tr, args, kwargs, result, sid, descendants):
        d = _arg(args, kwargs, 0, "h").dim
        n, pts = g_start, 0
        while n <= result.grid_size:
            pts += n**d
            n *= 2
        tr.add("spectrum.min_modulus_certified.grid_points", pts)
        key = "spectrum.min_modulus_certified.final_grid_max"
        tr.counts[key] = max(tr.counts[key], result.grid_size)
        tr.add("spectrum.min_modulus_certified.useful", result.status != "inconclusive")

    def stable(tr, args, kwargs, result, sid, descendants):
        # iterations = residual_sup calls nested in this span; their grid
        # sizes follow the doubling schedule of invert_stable
        h = _arg(args, kwargs, 0, "h")
        w = int(_arg(args, kwargs, 2, "window_radius", 40))
        iters = sum(1 for s in descendants if s[3] == "inversion.residual_sup" and s[1] == sid)
        n = fft_start
        while n < 2 * w + 2:
            n *= 2
        tr.add("inversion.invert_stable.iterations", iters)
        tr.add("inversion.invert_stable.grid_points", sum((n * 2**i) ** h.dim for i in range(iters)))

    def convolve(tr, args, kwargs, result, sid, descendants):
        a, b = args[0], args[1]
        pts = 1
        for sa, sb in zip(a.coeffs.shape, b.coeffs.shape):
            pts *= sa + sb - 1
        method = _arg(args, kwargs, 2, "method")
        fft = method == "fft" or (method is None and pts > lattice.DIRECT_CONVOLUTION_CUTOFF)
        tr.add("lattice.convolve.output_points", pts)
        tr.add("lattice.convolve.fft", fft)

    def toeplitz(tr, args, kwargs, result, sid, descendants):
        h = _arg(args, kwargs, 0, "h")
        w = int(_arg(args, kwargs, 1, "window_radius"))
        ext = max(max(abs(o), abs(o + s - 1)) for o, s in zip(h.origin, h.coeffs.shape))
        rows = (2 * (w + ext) + 1) ** h.dim
        cols = (2 * w + 1) ** h.dim
        tr.add("inversion.toeplitz_oracle.matrix_entries", rows * cols)

    def symbol(tr, args, kwargs, result, sid, descendants):
        h = _arg(args, kwargs, 0, "h")
        n_omega = max(_size(result), 1)
        tr.add("spectrum.symbol_eval.terms", n_omega * h.coeffs.size)

    def cli_main(tr, args, kwargs, result, sid, descendants):
        argv = list(_arg(args, kwargs, 0, "argv") or [])
        if "--out" not in argv:
            return
        out = argv[argv.index("--out") + 1]
        paths = [out, os.path.splitext(out)[0] + ".report.json"]
        tr.add("cli.main.bytes_out", sum(os.path.getsize(p) for p in paths if os.path.exists(p)))

    return {
        "spectrum.min_modulus_certified": cert,
        "inversion.invert_stable": stable,
        "lattice.convolve": convolve,
        "inversion.toeplitz_oracle": toeplitz,
        "spectrum.symbol_eval": symbol,
        "cli.main": cli_main,
    }
