"""wienerlab benchmark: the command that runs one workload and prints its metrics.

    python3 bench/run.py --workload certify-md --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
./src). Each invocation runs one workload as a closed loop: a single
client makes the next call only after the previous one returns, in a
worker process of its own, so one workload's memory cannot leak into
another's peak RSS.

--trace 0 prints ops_per_s, op_p50_ms, op_tail_ms, ops_failed_frac,
setup_s and peak_rss_mb. Its end-to-end metrics, in the result line, give
the three timings in units of a fixed reference computation timed all
through the same run (bench/pace.py): ops_per_kref, op_p50_ref and
op_tail_ref, besides ops_ok_frac, setup_s and peak_rss_mb. setup_s is
the median over 11 fresh interpreters of the time from process start to
the first timed operation (imports, input generation, warm-up). The
latency of every run of every operation goes to .bench_out/latencies-*.json.
--trace 1 runs every operation a second time with span tracing and
prints the per-layer metrics instead; spans go to .bench_out/trace-*.tsv.
bench/README.md describes the workloads, metrics and checks.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `failed` counts every failed
operation, the probes of known library defects included; `correct` is
true when no other operation failed. Exit status is 0 on a completed
run (failed operations are counted, not fatal) and non-zero when the
package source is missing or the worker dies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("certify-md", "spline-kernels", "routes-1d")
SETUP_STARTS = 10  # set-up-only starts, besides the measured worker's own
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "WIENERLAB_THREADS")
# One thread, whatever nproc is: the loop has a single client, and on two
# shared vCPUs a second BLAS thread made routes-1d both slower and noisier.
THREADS = 1
START_TIMEOUT_S = 120
RUN_GRACE_S = 150

# Per-layer metrics reported by --trace 1 (BENCHMARK.json lists the same).
LAYER_SELF = (
    "spectrum.min_modulus_certified", "inversion.invert_stable", "inversion.residual_sup",
    "lattice.convolve", "inversion.toeplitz_oracle", "inversion.invert_exact_1d",
    "inversion.invert_singular_1d", "spectrum.symbol_eval", "spectrum.derivative_growth",
    "splines.lagrange_kernel_space", "splines.lagrange_kernel_fourier", "splines.interpolate",
    "splines.reproduction_check", "splines.kernel_to_csv", "splines.bspline_value",
    "splines.generator_symbol", "inversion.decay_fit_samples", "weights.grs_limit",
    "weights.submultiplicative_check", "lattice.weighted_norm", "inversion.decay_fit", "cli.main",
)
LAYER_CALLS = (
    "spectrum.min_modulus_certified", "inversion.invert_stable", "lattice.convolve",
    "splines.bspline_value", "cli.main",
)
LAYER_COUNTS = (
    ("spectrum.min_modulus_certified.grid_points", "count"),
    ("spectrum.min_modulus_certified.final_grid_max", "count"),
    ("inversion.invert_stable.iterations", "count"),
    ("inversion.invert_stable.grid_points", "count"),
    ("lattice.convolve.output_points", "count"),
    ("inversion.toeplitz_oracle.matrix_entries", "count"),
    ("spectrum.symbol_eval.terms", "count"),
    ("splines.generator_symbol.points", "count"),
    ("cli.main.bytes_out", "bytes"),
)


def _fail(msg):
    sys.stderr.write(f"bench: {msg}\n")
    return 2


def _child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    applied = {var: str(THREADS) for var in THREAD_VARS}
    env.update(applied)
    return env, applied


class Worker:
    """A worker process; READY on its stdout marks the end of set-up."""

    def __init__(self, args, mode, env, out_dir):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--mode", mode, "--out-dir", out_dir]
        if args.smoke:
            cmd.append("--smoke")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)

    def wait_ready(self):
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not become ready (got {line!r})")
        return time.perf_counter() - self.t0

    def result(self, timeout):
        out, _ = self.proc.communicate(timeout=timeout)
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with status {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _setup_sample(args, env, out_dir):
    w = Worker(args, "setup", env, out_dir)
    try:
        ready = w.wait_ready()
        w.proc.wait(timeout=START_TIMEOUT_S)
        if w.proc.returncode != 0:
            raise RuntimeError(f"setup worker exited with status {w.proc.returncode}")
        return ready
    finally:
        w.stop()


def _why(root, workload):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def _layer_metrics(res):
    selfs = res["layers"]["self"]
    counts = res["layers"]["counts"]
    m = {}
    for name in LAYER_SELF:
        m[f"{name}.self_s"] = (selfs.get(name, [0, 0.0])[1], "s")
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = (selfs.get(name, [0, 0.0])[0], "count")
    for key, unit in LAYER_COUNTS:
        m[key] = (counts.get(key, 0), unit)
    cert_calls = selfs.get("spectrum.min_modulus_certified", [0])[0]
    conv_calls = selfs.get("lattice.convolve", [0])[0]
    m["spectrum.min_modulus_certified.useful_frac"] = (
        counts.get("spectrum.min_modulus_certified.useful", 0) / cert_calls if cert_calls else 0.0, "frac")
    m["lattice.convolve.fft_frac"] = (counts.get("lattice.convolve.fft", 0) / conv_calls if conv_calls else 0.0, "frac")
    traced, untraced = res["traced_busy_s"], res["busy_s"]
    m["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    return m


def _print_layers(res):
    selfs = res["layers"]["self"]
    total = sum(s for _, s in selfs.values())
    print(f"accounting: self times of all spans sum to {total:.4f} s, the top-level (bench.*) spans; "
          f"traced operations took {res['traced_busy_s']:.4f} s, the same operations untraced "
          f"{res['busy_s']:.4f} s (tracing overhead {res['traced_busy_s'] / res['busy_s'] - 1:+.1%})")
    modules = {}
    for name, (_, s) in selfs.items():
        modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + s
    print("self time by module (bench = the operation code outside library calls):")
    for mod, s in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"  {mod:<10} {s:10.4f} s  {100 * s / total:5.1f} %")
    print("self time by span (top 20):")
    for name, (calls, s) in sorted(selfs.items(), key=lambda kv: -kv[1][1])[:20]:
        print(f"  {name:<40} {calls:8d} calls {s:10.4f} s  {100 * s / total:5.1f} %")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few cheap operations per cycle, for tests")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wienerlab", "__init__.py")):
        return _fail("no wienerlab source at ./src/wienerlab; run from the root of a checkout")
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    env, applied = _child_env(root)

    # set-up-only starts, half before and half after the measured run, so
    # that the median spans the run rather than one moment of machine load
    starts = 0 if args.trace else 1 if args.smoke else SETUP_STARTS
    setup = []
    try:
        for _ in range(starts // 2):
            setup.append(_setup_sample(args, env, out_dir))
        w = Worker(args, "run", env, out_dir)
        try:
            setup.append(w.wait_ready())
            res = w.result(timeout=args.seconds + RUN_GRACE_S)
        finally:
            w.stop()
        for _ in range(starts - starts // 2):
            setup.append(_setup_sample(args, env, out_dir))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return _fail(str(exc))

    info = {"python": platform.python_version(), "nproc": nproc, "threads": applied, **res["environment"]}
    print(f"workload {args.workload}: {_why(root, args.workload)}")
    print(f"seed {args.seed}, {args.seconds:g} s requested, {res['wall_s']:.2f} s measured, "
          f"inputs sha256 {res['fingerprint'][:16]}")
    with open(os.path.join(out_dir, f"latencies-{args.workload}.json"), "w") as fh:
        json.dump(res["latencies_ms"], fh)
    print("environment: " + json.dumps(info, sort_keys=True))
    print(f"operations: attempted {res['attempted']}, failed {res['failed']}, "
          f"{res['failed'] - res['failed_unexpected']} of them on probes of known library defects")
    for kind, reasons in res["failures"].items():
        for r in reasons:
            print(f"  failed {kind}: {r}")

    if args.trace:
        metrics = _layer_metrics(res)
        _print_layers(res)
        print(f"spans written to {res['trace_file']}")
    else:
        ref_ms = res["pace_ms"]
        metrics = {
            "ops_per_kref": (res["ops_per_s"] * ref_ms, "1/kref"),
            "op_p50_ref": (res["op_p50_ms"] / ref_ms, "ref"),
            "op_tail_ref": (res["op_tail_ms"] / ref_ms, "ref"),
            "ops_ok_frac": ((res["attempted"] - res["failed"]) / res["attempted"], "frac"),
            "setup_s": (stats.median(setup), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        n_ops = len(res["latencies_ms"])
        print(f"each of the {n_ops} operations of the cycle ran {res['runs_per_op']} times; its latency is the "
              f"mean of those runs (all runs: {os.path.relpath(out_dir)}/latencies-{args.workload}.json)")
        print(f"op_tail_ms is p{res['tail_percentile']:g} of the {n_ops} operation latencies, "
              f"{res['tail_beyond']} beyond it; setup_s is the median of {len(setup)} starts: "
              + ", ".join(f"{s:.3f}" for s in setup))
        print(f"the reference computation (bench/pace.py) took {ref_ms:.4f} ms, the mean of "
              f"{res['pace_samples']} samples through the run; 1 ref is that time, 1 kref 1000 of them")
        print(f"ops_per_s = {res['ops_per_s']:.6g} 1/s")
        print(f"op_p50_ms = {res['op_p50_ms']:.6g} ms")
        print(f"op_tail_ms = {res['op_tail_ms']:.6g} ms")
        print(f"ops_failed_frac = {res['failed'] / res['attempted']:.6g} frac")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["failed_unexpected"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
