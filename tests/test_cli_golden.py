"""Byte-level golden outputs of the CLI.

Each case runs `wienerlab.cli.main` in an empty working directory and
compares the exit status, standard output, standard error and every file
written with the bytes recorded in tests/data/cli_golden.json. Re-record
after an intended output change with

    PYTHONPATH=src python tests/test_cli_golden.py --record [name ...]

(no names: every case) and name the changed cases in the commit.

Floats are written with 17 significant digits, so the bytes depend on the
numerical library: the file was recorded with numpy 2.4.6 on Python 3.11,
the version the CI workflow pins. The library imports no scipy.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from wienerlab import cli, splines
from wienerlab.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def _filter(origin, shape, coeffs):
    return json.dumps({"dim": len(origin), "origin": origin, "shape": shape, "coeffs": coeffs})


CUBIC = [1 / 6, 4 / 6, 1 / 6]
CUBIC_1D = _filter([-1], [3], CUBIC)
CUBIC_2D = _filter([-1, -1], [3, 3], [a * b for a in CUBIC for b in CUBIC])
CUBIC_4D = _filter([-1] * 4, [3] * 4, [a * b * c * e for a in CUBIC for b in CUBIC for c in CUBIC for e in CUBIC])
# a non-separable 2-D filter with a dominant centre tap
SKEW_2D = _filter([-1, 0], [3, 2], [0.1, -0.2, 1.0, 0.3, 0.05, 0.15])
DIFF = [1.0, -1.0]

CASES = {
    "invert-1d": ["invert", "--filter", CUBIC_1D, "--radius", "20", "--out", "g.json"],
    "invert-1d-stdout": ["invert", "--filter", CUBIC_1D, "--radius", "12"],
    "invert-2d": ["invert", "--filter", CUBIC_2D, "--radius", "6", "--out", "g.json"],
    "invert-2d-skew": ["invert", "--filter", SKEW_2D, "--radius", "5", "--out", "g.json"],
    "invert-shifted": ["invert", "--filter", _filter([4], [3], CUBIC), "--radius", "20", "--out", "g.json"],
    "invert-singular-exit2": ["invert", "--filter", _filter([0], [2], DIFF), "--out", "g.json"],
    "invert-singular-o0": ["invert-singular", "--filter", _filter([0], [2], DIFF), "--radius", "20", "--out", "s.json"],
    "invert-singular-o-1": ["invert-singular", "--filter", _filter([-1], [2], DIFF), "--radius", "20", "--out", "s.json"],
    "invert-singular-o-2": ["invert-singular", "--filter", _filter([-2], [2], DIFF), "--radius", "20", "--out", "s.json"],
    "invert-singular-double": ["invert-singular", "--filter", _filter([0], [3], [1.0, -2.0, 1.0]), "--radius", "16"],
    "invert-singular-stable-part": [
        "invert-singular", "--filter", _filter([0], [3], [1.0, -1.5, 0.5]), "--radius", "16", "--out", "s.json",
    ],
    "symbol-min-1d": ["symbol-min", "--filter", CUBIC_1D],
    "symbol-min-2d": ["symbol-min", "--filter", SKEW_2D],
    "symbol-min-4d": ["symbol-min", "--filter", CUBIC_4D],
    "symbol-min-singular": ["symbol-min", "--filter", _filter([3], [2], DIFF)],
    "spline-space": ["spline-lagrange", "--degree", "4", "--grid-step", "0.25", "--K", "16", "--out", "k.csv"],
    "spline-both": ["spline-lagrange", "--degree", "3", "--route", "both", "--grid-step", "0.25", "--K", "16", "--out", "k.csv"],
    "spline-fourier": ["spline-lagrange", "--degree", "5", "--route", "fourier", "--grid-step", "0.25", "--K", "16", "--out", "k.csv"],
    "spline-out-dash": ["spline-lagrange", "--degree", "3", "--grid-step", "0.5", "--K", "16", "--out", "-"],
    "spline-k10": ["spline-lagrange", "--K", "10", "--out", "k.csv"],
    "spline-hat": ["spline-lagrange", "--degree", "1", "--grid-step", "0.25", "--K", "4", "--out", "k.csv"],
    "spline-green2": [
        "spline-lagrange", "--generator", '{"kind": "green_power", "params": {"order": 2}}',
        "--route", "fourier", "--out", "k.csv",
    ],
    "reproduce": ["reproduce", "--degree", "3", "--target", "absx3", "--x-step", "0.25"],
    "grs-check-exponential": ["grs-check", "--weight", '{"kind": "exponential", "params": {"r": 0.5}}', "--k", "2"],
    "grs-check-subexponential": [
        "grs-check", "--weight", '{"dim": 2, "kind": "subexponential", "params": {"r": 0.5, "b": 0.5}}', "--k", "1,2",
    ],
    "lemma-check": ["lemma-check", "--c", "0.7", "--n-max", "30"],
    "decay-fit": ["decay-fit", "--filter", _filter([-8], [17], [0.5 ** abs(k) for k in range(-8, 9)])],
    "exit1-schema": ["invert", "--filter", '{"dim": 1, "origin": [0]}', "--out", "g.json"],
    "exit1-usage": ["symbol-min", "--no-such-flag"],
}


def run_case(argv):
    """Run the CLI in the current directory; return everything it produced."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    files = {p.name: p.read_text() for p in sorted(Path.cwd().iterdir())}
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_recorded(golden):
    assert sorted(golden) == sorted(CASES)


def clear_process_caches():
    cli._build_parser.cache_clear()
    for cached in (splines._bspline_inverse, splines._prefilter, splines._cached_half_grid):
        cached.cache_clear()
    splines._kept_taps.clear()


def fill_long_taps():
    """Keep every degree's inverse taps out to |k| = 200 + (n + 1)//2."""
    for n in range(splines.MAX_BSPLINE_DEGREE + 1):
        splines.lagrange_kernel_space(splines.bspline_generator(n), grid_step=1, K=200)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_unchanged(name, golden, tmp_path, monkeypatch):
    # on empty per-process caches, again on the ones the first run filled,
    # and once more with taps kept out to a larger radius than any case asks
    clear_process_caches()
    for run in ("cold", "warm", "long-taps"):
        if run == "long-taps":
            fill_long_taps()
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        assert run_case(CASES[name]) == golden[name], run


def _record(names):
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in names or CASES:
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                data[name] = run_case(CASES[name])
            finally:
                os.chdir(cwd)
    data = {k: data[k] for k in sorted(data) if k in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit(__doc__)
    _record(sys.argv[2:])
