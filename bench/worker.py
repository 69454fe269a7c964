"""One workload in one process: set up, then run the closed loop.

Started by run.py with the thread variables already in its environment
(they must be set before numpy is imported). Protocol on stdout: the line
READY once set-up is done (imports, input generation, warm-up), then, in
--mode run, one JSON line with the measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pace  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402

SMOKE_OPS = 4
PACE_EVERY_S = 0.2  # wall time between samples of the reference computation


def _run_op(ctx, op, run):
    """Run one operation; returns (output, seconds, error or None)."""
    t0 = time.perf_counter()
    try:
        out = run(ctx, op.inputs)
    except Exception as exc:  # a raising operation is a failed operation
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - t0, None


def _check(ctx, op, out, workloads):
    try:
        return workloads.CHECK[op.kind](ctx, op.inputs, out)
    except Exception as exc:  # a check that cannot complete is a failed check
        return f"check raised {type(exc).__name__}: {exc}"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import wienerlab as wl
    import wienerlab.cli  # noqa: F401  (not imported by the package itself)
    import workloads

    tr = None
    if args.trace:
        # installed before inputs are generated, so generators made now
        # carry a traced symbol
        tr = tracing.Tracer()
        tr.install(wl, tracing.make_counters(wl))
    cycle = workloads.make_cycle(wl, args.workload, args.seed)
    if args.smoke:
        cycle = [op for op in cycle if op.cheap][:SMOKE_OPS]
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    try:
        ctx = workloads.Context(wl, tmpdir)
        # one warm-up call per kind, on the same slot for every seed, so
        # that set-up costs the same whatever order the seed draws
        warmed = set()
        for op in sorted(cycle, key=lambda o: o.slot):
            if op.cheap and op.kind not in warmed:
                warmed.add(op.kind)
                _run_op(ctx, op, workloads.RUN[op.kind])
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        result = _measure(ctx, cycle, args.seconds, tr, workloads)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["fingerprint"] = workloads.fingerprint(cycle)
        result["environment"] = _environment()
        if tr is not None:
            result["layers"] = _layers(tr)
            path = os.path.join(args.out_dir, f"trace-{args.workload}.tsv")
            _write_spans(tr.spans, path)
            result["trace_file"] = os.path.relpath(path)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return 0


def _measure(ctx, cycle, seconds, tr, workloads):
    """Closed loop: the whole cycle, repeated until `seconds` have passed
    (and at least once), so every operation runs equally often and the
    failed share is exactly that of one cycle.

    An operation's latency is the mean over its repetitions, which are
    spread over the whole run. Throughput is passed runs over the summed
    time of all runs. Both count the costs that show in only some
    repetitions. Every
    PACE_EVERY_S the loop also times the reference computation of
    pace.py, between two operations, so that the run's mean reference
    time covers the same stretch of machine load as its latencies.
    With a tracer, each operation also runs a second time under tracing
    (alternating which of the two runs first); the untraced runs give the
    end-to-end numbers, the traced runs the spans.
    """
    lat = [[] for _ in cycle]
    traced_busy = 0.0
    failures = {}
    attempted = failed = expected = 0
    roots = {}
    paces = []
    t_start = t_pace = time.perf_counter()
    while attempted == 0 or time.perf_counter() - t_start < seconds:
        for i, op in enumerate(cycle):
            if time.perf_counter() >= t_pace:
                paces.append(pace.sample())
                t_pace = time.perf_counter() + PACE_EVERY_S
            run = workloads.RUN[op.kind]
            attempted += 1
            passes = [False, True] if tr is not None else [False]
            if tr is not None and attempted % 2 == 0:
                passes.reverse()
            errors = []
            for traced in passes:
                if traced:
                    if op.kind not in roots:
                        roots[op.kind] = tr.span(f"bench.{op.kind}", run)
                    tr.op_id = attempted
                    tr.active = True
                    out, dt, err = _run_op(ctx, op, roots[op.kind])
                    tr.active = False
                    traced_busy += dt
                else:
                    out, dt, err = _run_op(ctx, op, run)
                    lat[i].append(dt)
                errors.append(err or _check(ctx, op, out, workloads))
            err = next((e for e in errors if e), None)
            if err:
                failed += 1
                expected += bool(op.defect)
                key = f"{op.kind} (known defect: {op.defect})" if op.defect else op.kind
                failures.setdefault(key, []).append(err)
    op_ms = [sum(x) / len(x) * 1e3 for x in lat]
    busy = sum(sum(x) for x in lat)
    q, tail_ms, beyond = stats.tail(op_ms)
    result = {
        "attempted": attempted,
        "failed": failed,
        "failed_unexpected": failed - expected,
        "runs_per_op": len(lat[0]),
        "wall_s": time.perf_counter() - t_start,
        "busy_s": busy,
        "ops_per_s": (attempted - failed) / busy,
        "op_p50_ms": stats.median(op_ms),
        "op_tail_ms": tail_ms,
        "tail_percentile": q,
        "tail_beyond": beyond,
        "latencies_ms": [[round(x * 1e3, 4) for x in reps] for reps in lat],
        "pace_ms": sum(paces) / len(paces) * 1e3,
        "pace_samples": len(paces),
        "failures": {k: sorted(set(v))[:3] for k, v in failures.items()},
    }
    if tr is not None:
        result["traced_busy_s"] = traced_busy
    return result


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import threadpoolctl  # noqa: F401

        pool = "present"
    except ImportError:
        pool = "absent"
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threadpoolctl": pool,
    }


def _layers(tr):
    """Per-span-name calls and self time, plus the counters."""
    return {
        "self": {name: [calls, s] for name, (calls, s) in tracing.layer_self_times(tr.spans).items()},
        "counts": dict(tr.counts),
    }


def _write_spans(spans, path):
    with open(path, "w") as fh:
        fh.write("span_id\tparent_id\top_id\tname\tstart_s\tend_s\n")
        for sid, parent, op_id, name, t0, t1 in spans:
            fh.write(f"{sid}\t{parent}\t{op_id}\t{name}\t{t0:.9f}\t{t1:.9f}\n")


if __name__ == "__main__":
    sys.exit(main())
