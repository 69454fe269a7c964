import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerlab import filter_from_json
from wienerlab.cli import _json_text, main

CUBIC = json.dumps(
    {"dim": 1, "origin": [-1], "shape": [3], "coeffs": [1 / 6, 4 / 6, 1 / 6]}
)
_LINE = np.array([1.0, 4.0, 1.0]) / 6.0
CUBIC_2D = json.dumps(
    {"dim": 2, "origin": [-1] * 2, "shape": [3] * 2, "coeffs": np.outer(_LINE, _LINE).ravel().tolist()}
)
CUBIC_4D = json.dumps(
    {"dim": 4, "origin": [-1] * 4, "shape": [3] * 4,
     "coeffs": np.einsum("i,j,k,l->ijkl", _LINE, _LINE, _LINE, _LINE).ravel().tolist()}
)
DIFFERENCE = json.dumps(
    {"dim": 1, "origin": [0], "shape": [2], "coeffs": [1.0, -1.0]}
)
# a unit zero at 1 times the stable factor 1 - z/2
STABLE_PART = json.dumps(
    {"dim": 1, "origin": [0], "shape": [3], "coeffs": [1.0, -1.5, 0.5]}
)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestInvert:
    def test_writes_filter_and_report(self, tmp_path, capsys):
        src = tmp_path / "cubic.json"
        src.write_text(CUBIC)
        out = tmp_path / "g.json"
        code, _, _ = run(
            capsys, "invert", "--filter", str(src), "--radius", "40",
            "--tol", "1e-10", "--out", str(out),
        )
        assert code == 0
        g = filter_from_json(out.read_text())
        assert g.coeff_at((0,)) == pytest.approx(np.sqrt(3), abs=1e-10)
        report = json.loads((tmp_path / "g.report.json").read_text())
        assert report["residual"] <= 1e-10
        assert report["certificate"]["status"] == "certified"
        assert report["decay"]["model"] == "exponential"

    def test_deterministic_output(self, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code, _, _ = run(capsys, "invert", "--filter", CUBIC, "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_math_failure_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "invert", "--filter", DIFFERENCE, "--out", str(tmp_path / "x.json")
        )
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "NotInvertibleError"
        assert diag["certificate"]["status"] == "likely-singular"

    def test_unreachable_tolerance_reports_best_residual(self, tmp_path, capsys):
        code, _, err = run(capsys, "invert", "--filter", CUBIC, "--tol", "1e-30", "--out", str(tmp_path / "x.json"))
        assert code == 2 and list(tmp_path.iterdir()) == []
        diag = json.loads(err)
        assert diag["error"] == "ToleranceUnreachableError"
        assert 1e-30 < diag["best_residual"] < 1e-15

    # the one-line message is all the user sees: numpy's overflow warnings do not precede it
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["invert", "symbol-min"])
    def test_overflowing_l1_norm_exits_1(self, tmp_path, capsys, command):
        text = '{"dim": 1, "origin": [0], "shape": [3], "coeffs": [1e308, -1e308, 1e308]}'
        code, out, err = run(capsys, command, "--filter", text, "--out", str(tmp_path / "x.json"))
        assert code == 1 and out == "" and list(tmp_path.iterdir()) == []
        assert err.startswith("wienerlab: ") and err.count("\n") == 1 and "overflows the float range" in err

    def test_schema_failure_exits_1(self, tmp_path, capsys):
        bad = json.dumps({"dim": 1, "origin": [0]})
        code, _, err = run(
            capsys, "invert", "--filter", bad, "--out", str(tmp_path / "x.json")
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["invert", "symbol-min"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_coefficient_exits_1(self, tmp_path, capsys, command, bad):
        text = '{"dim": 1, "origin": [0], "shape": [3], "coeffs": [1.0, %s, 0.5]}' % bad
        code, _, err = run(capsys, command, "--filter", text, "--out", str(tmp_path / "x.json"))
        assert code == 1
        assert "finite" in err

    def test_usage_failure_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["invert", "--no-such-flag"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("filt, radius, taps", [(CUBIC, 5, 11), (CUBIC_2D, 1, 9)], ids=["1d-radius-5", "2d-radius-1"])
    def test_short_window_writes_inverse_with_null_decay(self, filt, radius, taps, tmp_path, capsys):
        # too few taps to fit a decay model: the verified inverse is still written
        out = tmp_path / "g.json"
        code, _, err = run(capsys, "invert", "--filter", filt, "--radius", str(radius), "--out", str(out))
        assert code == 0, err
        assert filter_from_json(out.read_text()).coeffs.size == taps
        report = json.loads((tmp_path / "g.report.json").read_text())
        assert report["residual"] <= 1e-10
        assert report["certificate"]["status"] == "certified"
        assert report["decay"] is None

    def test_4d_tensor_cubic(self, tmp_path, capsys):
        # certified and inverted through its 1-D factors: radius 4 starts on a
        # (4, 16) grid and stops at (4, 64), where the aliasing band is roundoff
        out = tmp_path / "g.json"
        code, _, err = run(capsys, "invert", "--filter", CUBIC_4D, "--radius", "4", "--out", str(out))
        assert code == 0, err
        assert json.loads((tmp_path / "g.report.json").read_text())["residual"] <= 1e-10

    def test_4d_tensor_cubic_over_grid_cap_exits_1(self, tmp_path, capsys):
        # radius 32 needs a first grid of 128^4 points, over GRID_POINT_CAP
        code, _, err = run(capsys, "invert", "--filter", CUBIC_4D, "--radius", "32", "--out", str(tmp_path / "g.json"))
        assert code == 1
        assert "exceeds" in err


class TestInvertSingular:
    def test_unit_step(self, tmp_path, capsys):
        out = tmp_path / "step.json"
        code, _, _ = run(
            capsys, "invert-singular", "--filter", DIFFERENCE,
            "--radius", "30", "--out", str(out),
        )
        assert code == 0
        g = filter_from_json(out.read_text())
        assert all(g.coeff_at((k,)) == 1.0 for k in range(31))
        report = json.loads((tmp_path / "step.report.json").read_text())
        assert report["growth_order"] == 0

    @pytest.mark.parametrize(
        "filt, radius, values",
        [
            # 1 / ((1 - z)(1 - z/2)) = sum_k (2 - 2^-k) z^k
            pytest.param(STABLE_PART, 14, [2.0 - 2.0**-k for k in range(15)], id="singular-radius-14-stable-part"),
            pytest.param(DIFFERENCE, 1, [1.0, 1.0], id="singular-radius-1"),
        ],
    )
    def test_short_window_reports_its_exact_growth(self, filt, radius, values, tmp_path, capsys):
        # the report's decay is the growth bound, not a fit, so a few samples suffice
        out = tmp_path / "s.json"
        code, _, _ = run(capsys, "invert-singular", "--filter", filt, "--radius", str(radius), "--out", str(out))
        assert code == 0
        np.testing.assert_allclose(filter_from_json(out.read_text()).coeffs, values, rtol=0, atol=1e-12)
        report = json.loads((tmp_path / "s.report.json").read_text())
        assert report["growth_order"] == 0
        assert report["decay"] == {"model": "algebraic", "rate_or_order": 0, "C": report["bound_constant"]}

    def test_window_below_degree_exits_1(self, tmp_path, capsys):
        diff2 = json.dumps({"dim": 1, "origin": [0], "shape": [3], "coeffs": [1.0, -2.0, 1.0]})
        code, _, err = run(
            capsys, "invert-singular", "--filter", diff2,
            "--radius", "1", "--out", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert "below the filter's degree" in err


class TestReportsToStdout:
    def test_grs_check(self, capsys):
        code, out, _ = run(
            capsys, "grs-check", "--weight",
            '{"kind":"exponential","params":{"r":0.5}}', "--k", "1",
        )
        assert code == 0
        res = json.loads(out)
        assert res["verdict"] == "not_grs"
        assert res["extrapolated_limit"] == pytest.approx(np.exp(0.5), rel=1e-12)

    def test_grs_check_reads_an_integral_float_direction_as_the_integer(self, capsys):
        # lattice.as_int's rule: 2.0 is 2
        weight = '{"kind":"subexponential","dim":2,"params":{"r":0.5,"b":0.5}}'
        runs = [run(capsys, "grs-check", "--weight", weight, "--k", k) for k in ("2,-1", "2.0,-1.0")]
        assert runs[0][0] == 0 and runs[0] == runs[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grs_check_limit_past_the_float_range(self, capsys):
        # e^800 rounds to inf, without numpy's overflow warning
        code, out, _ = run(
            capsys, "grs-check", "--weight",
            '{"kind":"exponential","params":{"r":2}}', "--k", "400",
        )
        assert code == 0
        res = json.loads(out)
        assert res["verdict"] == "not_grs" and res["extrapolated_limit"] == "inf"
        assert {v for _, v in res["samples"]} == {"inf"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "weight, verdict, limit",
        [('{"kind":"exponential","params":{"r":1e308}}', "not_grs", "inf"),
         ('{"kind":"polynomial","params":{"n":1.7e308}}', "grs", 1),
         ('{"kind":"subexponential","params":{"r":1.7e308,"b":0.5}}', "grs", 1)],
        ids=["exponential", "polynomial", "subexponential"],
    )
    def test_grs_check_log_weight_past_the_float_range(self, weight, verdict, limit, capsys):
        # the log-weight itself overflows to inf, once with numpy's overflow warning
        code, out, _ = run(capsys, "grs-check", "--weight", weight, "--k", "1")
        assert code == 0
        res = json.loads(out)
        assert res["verdict"] == verdict and res["extrapolated_limit"] == limit
        assert {v for _, v in res["samples"]} == {"inf"}

    def test_symbol_min(self, capsys):
        code, out, _ = run(capsys, "symbol-min", "--filter", CUBIC)
        assert code == 0
        cert = json.loads(out)
        assert cert["status"] == "certified"
        assert cert["grid_min"] == pytest.approx(1 / 3, rel=1e-12)

    def test_lemma_check(self, capsys):
        code, out, _ = run(capsys, "lemma-check", "--c", "1.0", "--n-max", "40")
        assert code == 0
        res = json.loads(out)
        assert res["S0"] == pytest.approx(np.e / (np.e - 1), abs=1e-12)
        assert res["max_ratio"] <= 1.0 + 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lemma_check_underflowing_q(self, capsys):
        # e^-800 underflows to 0: R takes its cap 1 without dividing by zero
        code, out, _ = run(capsys, "lemma-check", "--c", "800")
        assert code == 0
        res = json.loads(out)
        assert (res["S0"], res["R"], res["max_ratio"]) == (1.0, 0.99, 1.0)

    def test_decay_fit(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run(capsys, "invert", "--filter", CUBIC, "--out", str(out))
        code, text, _ = run(capsys, "decay-fit", "--filter", str(out))
        assert code == 0
        res = json.loads(text)
        assert res["model"] == "exponential"
        assert res["rate"] == pytest.approx(np.log(2 + np.sqrt(3)), abs=1e-3)

    def test_reproduce(self, capsys):
        code, out, _ = run(
            capsys, "reproduce", "--degree", "3", "--target", "xplus3",
            "--k-sum", "40",
        )
        assert code == 0
        assert json.loads(out)["max_residual"] <= 1e-6


class TestSplineLagrange:
    def test_both_routes_csv(self, tmp_path, capsys):
        out = tmp_path / "kernel.csv"
        code, _, _ = run(
            capsys, "spline-lagrange", "--degree", "3", "--route", "both",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# wienerlab lagrange kernel")
        report = json.loads((tmp_path / "kernel.report.json").read_text())
        assert report["route_agreement_sup"] <= 1e-6

    def test_out_dash_writes_csv_then_report_to_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "spline-lagrange", "--grid-step", "0.5", "--K", "16", "--out", "-")
        assert code == 0 and list(tmp_path.iterdir()) == []
        csv, report = out.split("\n{\n", 1)
        assert csv.startswith("# wienerlab lagrange kernel") and csv.splitlines()[1] == "x,value"
        assert len(csv.splitlines()) == 2 + 2 * 16 * 2 + 1
        assert json.loads("{" + report)["route"] == "space"

    def test_round_trip_identity(self, tmp_path, capsys):
        # Filter JSON -> load -> save leaves the bytes unchanged
        from wienerlab.lattice import filter_to_json

        first = tmp_path / "g1.json"
        run(capsys, "invert", "--filter", CUBIC, "--out", str(first))
        loaded = filter_from_json(first.read_text())
        assert _json_text(filter_to_json(loaded)) + "\n" == first.read_text()


# the edge cases of 17-digit output: signed zero, the smallest subnormal,
# exponent notation, integers past 2^53 and values that need all 17 digits
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 2.0**53 + 2, 0.1 + 0.2, 1 / 3, -2.2250738585072014e-308]


class TestJsonText:
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS), min_size=1),
        st.integers(0, 3),
    )
    def test_finite_float_lists_keep_the_per_element_layout(self, xs, indent):
        pad = "  " * indent
        want = "[\n" + ",\n".join(f"{pad}  {format(x, '.17g')}" for x in xs) + f"\n{pad}]"
        assert _json_text(xs, indent) == want == _json_text(tuple(xs), indent)

    @pytest.mark.parametrize(
        "xs, want",
        [
            ([1.5, float("inf")], '[\n  1.5,\n  "inf"\n]'),
            ([float("nan"), -0.0], '[\n  "nan",\n  -0\n]'),
            ([-float("inf")], '[\n  "-inf"\n]'),
            ([2.0, 3], "[\n  2,\n  3\n]"),
            ([np.float64(0.5), 0.25], "[\n  0.5,\n  0.25\n]"),
            ([0.5, [0.25]], "[\n  0.5,\n  [\n    0.25\n  ]\n]"),
        ],
        ids=["inf", "nan", "minus-inf", "int", "numpy-float", "nested"],
    )
    def test_other_lists_keep_their_elements_layout(self, xs, want):
        assert _json_text(xs) == want


@pytest.mark.parametrize(
    "argv, names",
    [
        (["spline-lagrange", "--grid-step", "0", "--out", "k.csv"], "grid_step"),
        (["spline-lagrange", "--grid-step", "2", "--out", "k.csv"], "grid_step"),
        (["spline-lagrange", "--grid-step", "-0.25", "--out", "k.csv"], "grid_step"),
        (["spline-lagrange", "--route", "fourier", "--grid-step", "0", "--out", "k.csv"], "grid_step"),
        (["reproduce", "--x-step", "0"], "grid_step"),
        (["invert", "--filter", CUBIC, "--radius", "-2"], "window_radius"),
        pytest.param(["spline-lagrange", "--grid-step", "1e-320", "--out", "k.csv"], "grid_step", id="subnormal-step"),
        pytest.param(["spline-lagrange", "--route", "fourier", "--grid-step", "1e-320", "--out", "k.csv"], "grid_step",
                     id="subnormal-step-fourier"),
        pytest.param(["spline-lagrange", "--K", "-3", "--out", "k.csv"], "K must be >= 0", id="negative-K"),
        pytest.param(["spline-lagrange", "--route", "fourier", "--K", "-3", "--out", "k.csv"], "K must be >= 0",
                     id="negative-K-fourier"),
        # grids of about 1e302 points: the cap is checked before allocating
        pytest.param(["spline-lagrange", "--grid-step", "1e-300", "--out", "k.csv"], "exceeds", id="over-cap"),
        pytest.param(["spline-lagrange", "--route", "fourier", "--grid-step", "1e-300", "--out", "k.csv"], "exceeds",
                     id="over-cap-fourier"),
        pytest.param(["invert-singular", "--filter", STABLE_PART, "--radius", "-2"], "window_radius must be >= 0",
                     id="singular-negative-radius-stable-part"),
        pytest.param(["invert-singular", "--filter", DIFFERENCE, "--radius", "-2"], "window_radius must be >= 0",
                     id="singular-negative-radius"),
        pytest.param(["spline-lagrange", "--generator", '{"kind":"bspline"}', "--out", "k.csv"],
                     "malformed Generator JSON", id="generator-missing-degree"),
        pytest.param(["spline-lagrange", "--generator", "[1]", "--out", "k.csv"], "malformed Generator JSON",
                     id="generator-not-an-object"),
        # refused before any alias-sum coefficient is built
        pytest.param(["spline-lagrange", "--route", "fourier", "--generator",
                      '{"kind":"green_power","params":{"order":1000000}}', "--out", "k.csv"],
                     "order must be an even integer in [2, 160]", id="generator-huge-order"),
        pytest.param(["spline-lagrange", "--generator", '{"kind":"green_power","params":{"order":null}}',
                      "--out", "k.csv"], "malformed Generator JSON", id="generator-null-order"),
        pytest.param(["grs-check", "--weight", '{"kind":"polynomial"}'], "malformed Weight JSON",
                     id="weight-missing-n"),
        # JSON reads 1e999 as inf, which int() cannot take
        pytest.param(["spline-lagrange", "--generator", '{"kind":"green_power","params":{"order":1e999}}',
                      "--out", "k.csv"], "malformed Generator JSON", id="generator-infinite-order"),
        pytest.param(["grs-check", "--weight", '{"kind":"polynomial","dim":1e999,"params":{"n":1}}'],
                     "malformed Weight JSON", id="weight-infinite-dim"),
        pytest.param(["symbol-min", "--filter", '{"dim":1e999,"origin":[0],"shape":[1],"coeffs":[1]}'],
                     "malformed Filter JSON", id="filter-infinite-dim"),
        # a JSON integer may be written 3.0, but 2.7 is not one
        pytest.param(["spline-lagrange", "--generator", '{"kind":"bspline","params":{"degree":2.7}}',
                      "--out", "k.csv"], "malformed Generator JSON", id="generator-fractional-degree"),
        pytest.param(["symbol-min", "--filter", '{"dim":1,"origin":[-1.9],"shape":[3],"coeffs":[1,4,1]}'],
                     "malformed Filter JSON", id="filter-fractional-origin"),
        pytest.param(["symbol-min", "--filter", '{"dim":1,"origin":[-1],"shape":[2.5],"coeffs":[1,4]}'],
                     "malformed Filter JSON", id="filter-fractional-shape"),
        # a zero extent once read as the zero filter, a negative one reached numpy's reshape
        pytest.param(["symbol-min", "--filter", '{"dim":1,"origin":[3],"shape":[0],"coeffs":[]}'],
                     "malformed Filter JSON: shape must be >= 1, got 0", id="filter-zero-shape"),
        pytest.param(["invert", "--filter", '{"dim":1,"origin":[3],"shape":[0],"coeffs":[]}'],
                     "malformed Filter JSON: shape must be >= 1, got 0", id="invert-zero-shape"),
        pytest.param(["decay-fit", "--filter", '{"dim":1,"origin":[3],"shape":[0],"coeffs":[]}'],
                     "malformed Filter JSON: shape must be >= 1, got 0", id="decay-fit-zero-shape"),
        pytest.param(["symbol-min", "--filter", '{"dim":2,"origin":[0,0],"shape":[2,0],"coeffs":[]}'],
                     "malformed Filter JSON: shape must be >= 1, got 0", id="filter-2d-zero-shape"),
        pytest.param(["invert", "--filter", '{"dim":2,"origin":[0,0],"shape":[-1,-1],"coeffs":[1]}'],
                     "malformed Filter JSON: shape must be >= 1, got -1", id="filter-negative-shape"),
        pytest.param(["grs-check", "--weight", '{"kind":"polynomial","dim":1.5,"params":{"n":1}}'],
                     "malformed Weight JSON", id="weight-fractional-dim"),
        # JSON reads NaN and Infinity; a NaN parameter once printed NaN samples with exit 0
        pytest.param(["grs-check", "--weight", '{"kind":"polynomial","params":{"n":NaN}}'],
                     "polynomial order must be finite and >= 0", id="weight-nan-n"),
        pytest.param(["grs-check", "--weight", '{"kind":"exponential","params":{"r":Infinity}}'],
                     "exponential rate must be finite and >= 0", id="weight-infinite-r"),
        pytest.param(["grs-check", "--weight", '{"kind":"subexponential","params":{"r":1,"b":NaN}}'],
                     "exponent must satisfy 0 <= b < 1", id="weight-nan-b"),
        pytest.param(["grs-check", "--weight", '{"kind":"polynomial","dim":0,"params":{"n":1}}'],
                     "weight dim must be >= 1", id="weight-dim-0"),
        pytest.param(["grs-check", "--weight", '{"kind":"polynomial","params":{"n":1}}',
                      "--k", "99999999999999999999"], "direction k must fit in int64", id="grs-k-past-int64"),
        # past int64 the sample grid became an object array and np.exp raised TypeError
        pytest.param(["grs-check", "--weight", '{"kind":"polynomial","params":{"n":1}}',
                      "--m-max", "100000000000000000000000"], "m_max must be in [16, 9007199254740992]",
                     id="grs-m-max-past-int64"),
        pytest.param(["grs-check", "--weight", '{"kind":"polynomial","params":{"n":1}}', "--k", "1.5"],
                     "--k: expected an integer, got 1.5", id="grs-fractional-k"),
        pytest.param(["grs-check", "--weight", '{"kind":"polynomial","dim":2,"params":{"n":1}}', "--k", "1,x"],
                     "--k: expected an integer, got 'x'", id="grs-non-numeric-k"),
        # a first FFT grid of 2^26 points per axis: refused before any allocation
        pytest.param(["invert", "--filter", CUBIC, "--radius", "20000000"], "window_radius 20000000",
                     id="invert-huge-radius"),
        # a window of 2 * 10^7 + 1 points: refused before any coefficient is evaluated
        pytest.param(["invert-singular", "--filter", DIFFERENCE, "--radius", "20000000"], "window_radius 20000000",
                     id="singular-huge-radius"),
        # a one-sided inverse is verified on [0, W - degree], empty for W < 2
        pytest.param(["invert-singular", "--filter", STABLE_PART, "--radius", "0"],
                     "window_radius 0 is below the filter's degree 2", id="singular-radius-0-stable-part"),
        pytest.param(["lemma-check", "--c", "inf"], "c must be", id="lemma-infinite-c"),
        pytest.param(["lemma-check", "--c", "nan"], "c must be", id="lemma-nan-c"),
        # S_40 is about e^771 at c = 1e-7, past the float range
        pytest.param(["lemma-check", "--c", "1e-7"], "exceeds the float range", id="lemma-overflowing-sums"),
        pytest.param(["lemma-check", "--c", "1", "--n-max", "-1"], "n_max must be in [0, 60]",
                     id="lemma-negative-n-max"),
        # a gap of 0 or NaN never ends the sweep; a NaN tolerance never fails its check
        pytest.param(["symbol-min", "--filter", CUBIC, "--target-gap", "nan"], "target_gap must be > 0",
                     id="symbol-min-nan-gap"),
        pytest.param(["symbol-min", "--filter", CUBIC, "--target-gap", "0"], "target_gap must be > 0",
                     id="symbol-min-zero-gap"),
        pytest.param(["invert", "--filter", CUBIC, "--tol", "nan"], "tail_tol must be >= 0", id="invert-nan-tol"),
        pytest.param(["invert-singular", "--filter", DIFFERENCE, "--tol", "nan"], "residual_tol must be >= 0",
                     id="singular-nan-tol"),
        pytest.param(["reproduce", "--tol", "nan"], "tol must be >= 0", id="reproduce-nan-tol"),
        pytest.param(["reproduce", "--k-sum", "-3"], "K_sum must be >= 0", id="reproduce-negative-k-sum"),
        pytest.param(["reproduce", "--x-max", "inf"], "x_min and x_max must be finite", id="reproduce-infinite-x-max"),
        pytest.param(["reproduce", "--x-min", "nan"], "x_min and x_max must be finite", id="reproduce-nan-x-min"),
        pytest.param(["reproduce", "--x-min", "5", "--x-max", "-5"], "x_min <= x_max", id="reproduce-reversed-range"),
        # past 2^52 float index arithmetic is inexact; at 2^63 the torus fold overflowed int64
        *[pytest.param([c, "--filter", '{"dim":1,"origin":[9223372036854775808],"shape":[3],"coeffs":[1,4,1]}'],
                       "origin must be in", id=f"{c}-origin-2^63") for c in ("invert", "symbol-min", "invert-singular")],
        pytest.param(["decay-fit", "--filter", json.dumps({"dim": 1, "origin": [2**53], "shape": [20],
                                                           "coeffs": [2.0**-k for k in range(20)]})],
                     "origin must be in", id="decay-fit-origin-2^53"),
        # JSON numbers only: no strings, no bools, no nested lists
        *[pytest.param(["symbol-min", "--filter", '{"dim":1,"origin":[-1],"shape":[3],"coeffs":%s}' % c],
                       "malformed Filter JSON", id=f"filter-coeffs-{i}")
          for i, c in (("strings", '["1","4","1"]'), ("bool", "[true,4,1]"), ("nested", "[[1],[4],[1]]"))],
        *[pytest.param(["grs-check", "--weight", '{"kind":"exponential","params":{"r":%s}}' % r],
                       "malformed Weight JSON", id=f"weight-r-{i}") for i, r in (("string", '"0.5"'), ("bool", "true"))],
    ],
)
def test_bad_input_exits_1_with_one_line(argv, names, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and list(tmp_path.iterdir()) == []
    assert err.startswith("wienerlab: ") and err.count("\n") == 1 and names in err


def test_import_loads_no_slow_scipy_subpackage():
    # importing scipy adds ~0.3 s and ~25 MB to every start of the CLI;
    # wienerlab needs none of it, neither to import nor to compute moments,
    # lemma sums or Fourier kernels
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, wienerlab.cli\n"
        "from wienerlab import Filter, bspline_generator, derivative_growth, green_power_generator, "
        "lagrange_kernel_fourier, lemma_bound_check\n"
        "derivative_growth(Filter((-3,), [0.1, 0.5, 1.0, 0.5, 0.1]), 40)\n"
        "for c in (1e-3, 1.0, 800.0):\n"
        "    lemma_bound_check(c, 40)\n"
        "lagrange_kernel_fourier(bspline_generator(3), 0.25, 8)\n"
        "lagrange_kernel_fourier(green_power_generator(4), 0.25, 8)\n"
        "print(' '.join(sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert [m for m in loaded.stdout.split() if m.split(".")[0] == "scipy"] == []


# a tap is 0 or of either sign in [1e-300, 1e300]
TAPS = st.just(0.0) | st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300)


@st.composite
def any_filter_json(draw):
    """Filter JSON with d = 1-3, axis lengths 1-4 and origins within 2^64.
    For d >= 2 one tap outweighs all others by at least their sum: near-singular
    2-D sweeps are ROADMAP item 1a's, and with a weaker tap a 3-D inverse whose
    window misses it doubles its grid to 256^3 (seconds per draw)."""
    d = draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    origin = draw(st.lists(st.integers(-(2**64), 2**64), min_size=d, max_size=d))
    coeffs = draw(st.lists(TAPS, min_size=math.prod(shape), max_size=math.prod(shape)))
    if d >= 2:
        coeffs[draw(st.integers(0, len(coeffs) - 1))] += draw(st.floats(2.0, 4.0)) * sum(map(abs, coeffs))
    return json.dumps({"dim": d, "origin": origin, "shape": shape, "coeffs": coeffs})


@st.composite
def any_weight_args(draw):
    """grs-check arguments: weight JSON of each kind with parameters up to
    1.7e308, direction entries and m_max up to 10^23 (past int64)."""
    kind = draw(st.sampled_from(["polynomial", "exponential", "subexponential"]))
    size = st.sampled_from([1.0, 1e308, 1.7e308]) | st.floats(0, 1.7e308)
    params = {"n" if kind == "polynomial" else "r": draw(size)}
    if kind == "subexponential":
        params["b"] = draw(st.floats(0, 1, exclude_max=True))
    d = draw(st.integers(1, 3))
    k = draw(st.lists(st.integers(-5, 5) | st.integers(-(10**23), 10**23), min_size=d, max_size=d))
    m_max = draw(st.sampled_from([16, 2**20, 2**53, 2**53 + 1, 2**63, 10**23]) | st.integers(0, 10**23))
    weight = json.dumps({"kind": kind, "dim": d, "params": params})
    return ["--weight", weight, f"--k={','.join(map(str, k))}", f"--m-max={m_max}"]


# 0, tiny, huge, inf and nan, for lemma-check's c
EDGE_FLOATS = st.sampled_from([0.0, 5e-324, 1e-7, 1.0, 1.7e308, math.inf, -math.inf, math.nan]) | st.floats()
SMALL = {"step": st.floats(1 / 64, 1), "K": st.integers(0, 64), "x": st.floats(-10, 10)}
PAST_CAPS = {"step": st.floats(1e-300, 1e-9), "K": st.integers(10**9, 10**23),
             "x": st.floats(1e9, 1e300) | st.floats(-1e300, -1e9)}


@st.composite
def spline_sizes(draw, *names):
    """One value per name: all small (step >= 1/64, K <= 64, |x| <= 10), or
    those of one name far past the point caps. A size under the caps that
    still needs GBs or hours is ROADMAP item 6's, not drawn here."""
    past = draw(st.none() | st.sampled_from(names))
    return [draw((PAST_CAPS if name == past else SMALL)[name]) for name in names]


DEGREES = st.integers(-1, 12)
GENERATORS = st.builds("--degree={}".format, DEGREES) | st.builds(
    '--generator={{"kind":"green_power","params":{{"order":{}}}}}'.format, st.integers(0, 162)
)
FILTER_AND_RADIUS = st.builds(lambda f, r: ["--filter", f, f"--radius={r}"], any_filter_json(), st.integers(0, 20))
# every subcommand's arguments; a value goes in as --flag=value, so "-inf" is not read as a flag
ARGS = {
    "invert": FILTER_AND_RADIUS,
    "invert-singular": FILTER_AND_RADIUS,
    "symbol-min": st.builds(lambda f: ["--filter", f], any_filter_json()),
    "decay-fit": st.builds(lambda f: ["--filter", f], any_filter_json()),
    "grs-check": any_weight_args(),
    "lemma-check": st.builds(lambda c, n: [f"--c={c}", f"--n-max={n}"],
                             EDGE_FLOATS, st.sampled_from([0, 40, 60]) | st.integers(-(10**23), 10**23)),
    "spline-lagrange": st.builds(
        lambda gen, route, size: [gen, f"--route={route}", f"--grid-step={size[0]}", f"--K={size[1]}"],
        GENERATORS, st.sampled_from(["space", "fourier", "both"]), spline_sizes("step", "K"),
    ),
    "reproduce": st.builds(
        lambda degree, target, size: [f"--degree={degree}", f"--target={target}", f"--x-step={size[0]}",
                                      f"--k-sum={size[1]}", f"--x-min={min(size[2:])}", f"--x-max={max(size[2:])}"],
        DEGREES, st.sampled_from(["xplus3", "absx3"]), spline_sizes("step", "K", "x", "x"),
    ),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.fixed_dictionaries(ARGS))
@settings(max_examples=30, deadline=None)
def test_no_exception_escapes_main(args):
    """Each example runs all eight subcommands; each exits 0, 1 with one line
    or 2 with a JSON diagnostic."""
    with tempfile.TemporaryDirectory() as tmp:
        for command, rest in args.items():
            argv = [command, *rest] + ([f"--out={os.path.join(tmp, 'k.csv')}"] if command == "spline-lagrange" else [])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            err = err.getvalue()
            assert code in (0, 1, 2)
            if code == 1:
                assert err.startswith("wienerlab: ") and err.count("\n") == 1
            if code == 2:
                assert isinstance(json.loads(err), dict)


@pytest.mark.parametrize(
    "argv, error, details",
    [
        (["invert", "--filter", DIFFERENCE], "NotInvertibleError", ["certificate"]),
        (["invert", "--filter", CUBIC, "--tol", "1e-30"], "ToleranceUnreachableError", ["best_residual"]),
        (["invert-singular", "--filter", CUBIC], "WrongBranchError", []),
        (["reproduce", "--k-sum", "0"], "TailBoundError", ["tail_estimate"]),
    ],
    ids=["not-invertible", "tolerance-unreachable", "wrong-branch", "tail-bound"],
)
def test_exit_2_prints_every_detail_the_error_carries(argv, error, details, capsys):
    code, out, err = run(capsys, *argv)
    diag = json.loads(err)
    assert code == 2 and out == "" and err == _json_text(diag) + "\n"
    assert list(diag) == ["error", "message"] + details and diag["error"] == error
    if "certificate" in diag:  # a dataclass detail prints as its fields
        assert list(diag["certificate"]) == ["grid_size", "grid_min", "certified_lower_bound", "argmin", "status"]
    else:
        assert all(isinstance(diag[k], float) for k in details)
