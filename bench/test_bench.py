"""Tests of the benchmark itself (run from the repository root):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import stats  # noqa: E402
import tracer  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- inputs ------------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["certify-md", "spline-kernels", "routes-1d"])
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    import wienerlab as wl
    import workloads

    a = workloads.fingerprint(workloads.make_cycle(wl, workload, 7))
    b = workloads.fingerprint(workloads.make_cycle(wl, workload, 7))
    c = workloads.fingerprint(workloads.make_cycle(wl, workload, 8))
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload, n_probes", [("certify-md", 0), ("spline-kernels", 3), ("routes-1d", 5)])
def test_probes_of_known_defects_are_the_same_for_every_seed(workload, n_probes):
    import wienerlab as wl
    import workloads

    def probes(seed):
        return sorted((op for op in workloads.make_cycle(wl, workload, seed) if op.defect), key=lambda op: op.defect)

    a, b = probes(7), probes(8)
    assert len(a) == n_probes and all(not op.cheap for op in a)
    assert [op.defect for op in a] == [op.defect for op in b]
    assert workloads.fingerprint(a) == workloads.fingerprint(b)


def test_workload_names_match_spec():
    import run
    import workloads

    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.CYCLES) == list(run.WORKLOADS)


# -- tail percentile ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, q",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_has_ten_samples_beyond(n, q):
    assert stats.tail_percentile(n) == q


def test_tail_value_and_count_beyond():
    values = list(range(1, 201))  # 200 samples -> p90
    q, v, beyond = stats.tail(values)
    assert q == 90.0
    assert v == pytest.approx(1 + 0.9 * 199)
    assert beyond == 20
    assert stats.median([3, 1, 2]) == 2


# -- self time ------------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    # root [0, 10] with children [1, 4] and [5, 9]; the second child has a
    # grandchild [6, 8]
    spans = [
        (2, 1, 0, "b", 1.0, 4.0),
        (4, 3, 0, "d", 6.0, 8.0),
        (3, 1, 0, "c", 5.0, 9.0),
        (1, -1, 0, "a", 0.0, 10.0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {1: 3.0, 2: 3.0, 3: 2.0, 4: 2.0}
    assert sum(selfs.values()) == 10.0
    layers = tracer.layer_self_times(spans + [(5, -1, 1, "b", 20.0, 21.5)])
    assert layers["b"] == (2, 4.5)


def test_tracer_records_nested_calls_only_while_active():
    tr = tracer.Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tr.span("m.leaf", leaf)

    def outer(x):
        return traced_leaf(x) * 2

    traced_outer = tr.span("m.outer", outer)
    assert traced_outer(1) == 4 and tr.spans == []
    tr.active = True
    assert traced_outer(1) == 4
    (leaf_span, outer_span) = tr.spans
    assert leaf_span[3] == "m.leaf" and leaf_span[1] == outer_span[0]
    assert outer_span[1] == -1
    assert outer_span[4] <= leaf_span[4] <= leaf_span[5] <= outer_span[5]


INSTALL_CHECK = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import wienerlab as wl, wienerlab.cli
import tracer
sites = [(wl.spectrum, "min_modulus_certified"), (wl.inversion, "min_modulus_certified"),
         (wl.splines, "invert_stable"), (wl.cli, "invert_stable"), (wl, "convolve")]
before = [getattr(m, f) for m, f in sites]
tr = tracer.Tracer()
wrapped = tr.install(wl, tracer.make_counters(wl))
assert "lattice.convolve" in wrapped and "cli.main" in wrapped
assert all(getattr(m, f) is not b for (m, f), b in zip(sites, before))
assert wl.inversion.convolve is wl.lattice.convolve is wl.convolve
tr.active = True
wl.inversion.invert_stable(wl.lattice.Filter((-1,), [1 / 6, 4 / 6, 1 / 6]))
layers = tracer.layer_self_times(tr.spans)
assert layers["inversion.invert_stable"][0] == 1, layers
assert layers["spectrum.min_modulus_certified"][0] == 1, layers
assert tr.counts["inversion.invert_stable.iterations"] == layers["inversion.residual_sup"][0] >= 1
print("ok")
"""


PACE_CHECK = """
import sys
sys.path[:0] = [{bench!r}]
import pace
assert all(pace.sample() > 0 for _ in range(3))
assert not [m for m in sys.modules if m.startswith("wienerlab")]
print("ok")
"""


def test_reference_computation_runs_no_library_code():
    # the divisor of the timing metrics must not move with the library
    code = PACE_CHECK.format(bench=HERE)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "ok", out.stderr


def test_install_wraps_every_import_site():
    # in a fresh interpreter: installing patches the package for good
    code = INSTALL_CHECK.format(bench=HERE, src=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "ok", out.stderr


# -- end to end -----------------------------------------------------------------------------


def _run(args, cwd):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", ["certify-md", "spline-kernels", "routes-1d"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_named_metric(workload, trace):
    out = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace, "--smoke"], ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    spec = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "routes-1d", "--seed", "1", "--seconds", "1", "--trace", "0"], str(tmp_path))
    assert out.returncode != 0
    assert out.stdout.strip() == ""
