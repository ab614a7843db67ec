"""Command-line interface: schemas, values, determinism, exit codes."""

import argparse
import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from bidisk import suites
from bidisk.approximants import BasisSpec
from bidisk.cli import build_parser, main
from bidisk.series import DiagonalPattern, OneVarSeries, separable

from oracles import brute_gram_dist_sq

GOLDEN = Path(__file__).parent / "golden"

# The CLI examples of README.md, each with the file under tests/golden holding
# its expected output: stdout, or the CSV that ``--out`` writes.
README_EXAMPLES = [
    ("norm.json", "bidisk norm --series builtin:one_minus_z1z2 --alpha 0"),
    ("approx.json", "bidisk approx --series builtin:one_minus_z1z2 --alpha 0 --n 1 "
                    "--method optimal --basis full"),
    ("decay_diag.csv", "bidisk decay --series builtin:one_minus_z1z2 --alpha 0 --nmin 1 "
                       "--nmax 10 --basis diag:1,1"),
    ("decay_diag_offpattern.csv", "bidisk decay --series builtin:product_one_minus --alpha 0 "
                                  "--nmin 1 --nmax 10 --basis diag:1,1"),
    ("scan.csv", "bidisk decay --series builtin:product_one_minus --alpha 0.5 --nmin 4 "
                 "--nmax 32 --step 4 --basis full --out scan.csv"),
    ("energy.json", "bidisk energy --measure builtin:diagonal_current --K 1000"),
    ("annihilate.json", "bidisk annihilate --series builtin:one_minus_z1z2 "
                        "--measure builtin:diagonal_current --maxdeg 8"),
    ("verify_restriction.txt", "bidisk verify --suite restriction --trials 500 --seed 7"),
    ("verify_all.txt", "bidisk verify --suite all --trials 500 --seed 7"),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNorm:
    def test_one_minus_z1z2(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--series", "builtin:one_minus_z1z2", "--alpha", "0")
        assert code == 0
        assert json.loads(out)["norm"] == pytest.approx(np.sqrt(2), rel=1e-12)

    def test_product(self, capsys):
        code, out, _ = run_cli(
            capsys, "norm", "--series", "builtin:product_one_minus", "--alpha", "1"
        )
        assert code == 0
        assert json.loads(out)["norm"] == pytest.approx(3.0, rel=1e-12)

    def test_one_minus_z1(self, capsys):
        code, out, _ = run_cli(capsys, "norm", "--series", "builtin:one_minus_z1", "--alpha", "0")
        assert code == 0
        assert json.loads(out)["norm"] == pytest.approx(np.sqrt(2), rel=1e-12)


class TestApprox:
    def test_optimal_full(self, capsys):
        code, out, _ = run_cli(
            capsys, "approx", "--series", "builtin:one_minus_z1z2",
            "--alpha", "0", "--n", "1", "--method", "optimal", "--basis", "full",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["residual_sq"] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert payload["ortho_residual"] <= 1e-8
        assert payload["cond_estimate"] > 0

    def test_riesz(self, capsys):
        code, out, _ = run_cli(
            capsys, "approx", "--series", "builtin:one_minus_z1z2",
            "--alpha", "0", "--n", "1", "--method", "riesz",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["residual_sq"] == pytest.approx(0.5, abs=1e-12)
        assert payload["cond_estimate"] is None

    def test_exact_inversion(self, capsys, tmp_path):
        series = tmp_path / "one.json"
        series.write_text(json.dumps({"deg": [0, 0], "coeffs": [[1.0, 0.0]]}))
        code, out, _ = run_cli(
            capsys, "approx", "--series", str(series), "--alpha", "0.5", "--n", "3"
        )
        assert code == 0
        assert json.loads(out)["residual_sq"] <= 1e-15

    def test_coefficients_roundtrip_as_series_json(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "approx", "--series", "builtin:one_minus_z1z2",
            "--alpha", "0", "--n", "2", "--basis", "diag:1,1",
        )
        assert code == 0
        coeffs = json.loads(out)["coefficients"]
        series = tmp_path / "p.json"
        series.write_text(json.dumps(coeffs))
        code2, out2, _ = run_cli(capsys, "norm", "--series", str(series), "--alpha", "0")
        assert code2 == 0
        assert json.loads(out2)["norm"] > 0

    def test_diagonal_basis_off_the_pattern(self, capsys):
        # an off-pattern series is solved over the diagonal span, not refused
        code, out, err = run_cli(
            capsys, "approx", "--series", "builtin:product_one_minus",
            "--alpha", "0", "--n", "4", "--basis", "diag:1,1",
        )
        assert (code, err) == (0, "")
        product = separable(OneVarSeries([1.0, -1.0]), OneVarSeries([1.0, -1.0]))
        indices = BasisSpec.diagonal(4, DiagonalPattern(1, 1)).indices2()
        oracle, _ = brute_gram_dist_sq(product, 0.0, indices)
        assert json.loads(out)["residual_sq"] == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(0.73205128205128, rel=1e-13)


class TestDecay:
    def test_diagonal_oracle_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "decay", "--series", "builtin:one_minus_z1z2", "--alpha", "0",
            "--nmin", "1", "--nmax", "10", "--basis", "diag:1,1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,dist_sq,predicted,ratio"
        for row in lines[1:]:
            n, dist_sq, predicted, ratio = row.split(",")
            assert float(dist_sq) == pytest.approx(1.0 / (int(n) + 2), abs=1e-10)
            assert float(predicted) == pytest.approx(1.0 / (int(n) + 1), rel=1e-12)

    def test_constant_has_empty_predicted(self, capsys, tmp_path):
        series = tmp_path / "one.json"
        series.write_text(json.dumps({"deg": [0, 0], "coeffs": [[1.0, 0.0]]}))
        code, out, _ = run_cli(
            capsys, "decay", "--series", str(series), "--alpha", "0",
            "--nmin", "0", "--nmax", "6", "--basis", "full",
        )
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            n, dist_sq, predicted, ratio = row.split(",")
            assert float(dist_sq) == 0.0
            assert predicted == "" and ratio == ""

    @pytest.mark.parametrize("argv, rated", [
        # the Cesaro rows of a full scan; (n + 1)^-401 is normal up to n = 4 only
        ("--series builtin:product_one_minus --alpha -400 --nmin 1 --nmax 40 --basis full "
         "--method cesaro", [1, 2, 3, 4]),
        # optimal one-variable rows; (n + 1)^-301 underflows to 0.0
        ("--series builtin:one_minus_z1 --alpha -300 --nmin 100 --nmax 120 --step 10 --basis onevar", []),
    ])
    def test_predicted_value_that_underflows_leaves_both_columns_empty(self, capsys, argv, rated):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "decay", *argv.split())
        assert (code, err) == (0, "")
        rows = [row.split(",") for row in out.strip().splitlines()[1:]]
        assert [int(n) for n, _, predicted, _ in rows if predicted] == rated
        for n, dist_sq, predicted, ratio in rows:
            assert float(dist_sq) > 0.0
            if predicted:
                assert float(predicted) == (int(n) + 1.0) ** -401
                assert float(ratio) == float(dist_sq) / float(predicted) < float("inf")
            else:
                assert ratio == ""
        if not rated:
            assert out.splitlines()[1] == "100,9.5452169531742428e-29,,"

    def test_plateau_ratio_flat(self, capsys):
        code, out, _ = run_cli(
            capsys, "decay", "--series", "builtin:one_minus_z1z2", "--alpha", "1",
            "--nmin", "10", "--nmax", "200", "--step", "10", "--basis", "diag:1,1",
        )
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        ratios = [float(r[3]) for r in rows]
        assert all(float(r[2]) == 1.0 for r in rows)  # plateau prediction
        assert abs(ratios[-1] - ratios[-2]) <= 1e-3 * ratios[-1]

    def test_deterministic_output(self, capsys, tmp_path):
        args = (
            "decay", "--series", "builtin:one_minus_pow:2,3", "--alpha", "-0.5",
            "--nmin", "5", "--nmax", "40", "--step", "5", "--basis", "diag:2,3",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        out_file = tmp_path / "scan.csv"
        code3 = main(list(args) + ["--out", str(out_file)])
        assert code3 == 0
        assert out_file.read_text() == out1

    def test_riesz_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "decay", "--series", "builtin:one_minus_z1z2", "--alpha", "0",
            "--nmin", "1", "--nmax", "6", "--method", "riesz",
        )
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            n, dist_sq, _, _ = row.split(",")
            assert float(dist_sq) == pytest.approx(1.0 / (int(n) + 1), abs=1e-12)

    @pytest.mark.parametrize("method, basis", [("riesz", "diag:2,3"), ("riesz", "full"),
                                               ("cesaro", "full")])
    def test_explicit_scan_rows_match_approx(self, capsys, method, basis):
        series = ["--series", "builtin:one_minus_pow:2,3", "--alpha", "0.25", "--method", method,
                  "--basis", basis]
        code, out, _ = run_cli(capsys, "decay", *series, "--nmin", "2", "--nmax", "8",
                               "--step", "3")
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            n, dist_sq = row.split(",")[:2]
            code, approx, _ = run_cli(capsys, "approx", *series, "--n", n)
            assert code == 0
            assert dist_sq == format(json.loads(approx)["residual_sq"], ".17g")

    @pytest.mark.parametrize("series, basis", [("builtin:one_minus_pow:2,3", "diag:2,3"),
                                               ("builtin:one_minus_z1z2", "diag:1,1")])
    @pytest.mark.parametrize("alpha", ["-1", "0", "0.25"])
    def test_riesz_is_not_below_the_optimum(self, capsys, series, basis, alpha):
        # --n names one polynomial space for both methods, so the optimum is a lower bound
        scans = {}
        for method in ("riesz", "optimal"):
            code, out, err = run_cli(capsys, "decay", "--series", series, "--alpha", alpha,
                                     "--nmin", "2", "--nmax", "30", "--basis", basis,
                                     "--method", method)
            assert code == 0, err
            scans[method] = [float(row.split(",")[1]) for row in out.splitlines()[1:]]
        assert len(scans["riesz"]) == 29
        for riesz, optimal in zip(scans["riesz"], scans["optimal"]):
            assert riesz >= optimal * (1 - 1e-12)

    @pytest.mark.parametrize("series, basis", [("builtin:product_one_minus", "onevar"),
                                               ("builtin:one_minus_pow:2,3", "diag:1,1")])
    def test_no_rate_where_the_family_rate_does_not_hold(self, capsys, series, basis):
        code, out, err = run_cli(capsys, "decay", "--series", series, "--alpha", "0",
                                 "--nmin", "2", "--nmax", "8", "--step", "3", "--basis", basis)
        assert code == 0, err
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert len(rows) == 3 and all(row[2:] == ["", ""] for row in rows)


class TestEnergyAndAnnihilate:
    def test_diagonal_current_energy(self, capsys):
        code, out, _ = run_cli(
            capsys, "energy", "--measure", "builtin:diagonal_current", "--K", "1000"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["partial"] - (1 + np.pi**2 / 12)) <= 1e-3

    def test_lebesgue_energy(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--measure", "builtin:lebesgue", "--K", "100")
        assert code == 0
        assert json.loads(out)["partial"] == 1.0

    def test_measure_file_with_completion(self, capsys, tmp_path):
        measure = tmp_path / "mu.json"
        measure.write_text(json.dumps({"K": 4, "coeffs": [[1, 1, 0.5, 0.25], [0, 2, 0.125, 0.0]]}))
        code, out, _ = run_cli(capsys, "energy", "--measure", str(measure), "--K", "4")
        assert code == 0
        payload = json.loads(out)
        # only (k, l) = (1, 1) has l >= 1; the 1/2 factor accounts for its mirror
        expected_interior = 0.5 * (0.5**2 + 0.25**2)
        assert payload["interior"] == pytest.approx(expected_interior)
        assert payload["axis2"] == pytest.approx(0.125**2 / 2)

    def test_annihilation_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "annihilate", "--series", "builtin:one_minus_z1z2",
            "--measure", "builtin:diagonal_current", "--maxdeg", "8",
        )
        assert code == 0
        assert json.loads(out)["max_abs_pairing"] == 0.0


class TestVerify:
    @pytest.mark.parametrize("suite", ["restriction", "separable", "polyextraction"])
    def test_suites_pass(self, capsys, suite):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", suite, "--trials", "200", "--seed", "7"
        )
        assert code == 0
        assert "PASS" in out

    def test_all(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--trials", "50", "--seed", "7")
        assert code == 0
        assert out.count("PASS") == 5


# Integer fields of series and measure files, each with a value that is not an integer and the refusal.
SERIES_INTEGER_FIELDS = [
    ({"deg": [1.5, 1], "coeffs": [[1.0, 0.0]] + [[0.0, 0.0]] * 3},
     "series JSON needs 'deg': [d1, d2] and 'coeffs': [[re, im], ...] (1.5 is not an integer)"),
    ({"deg": [1, float("inf")], "coeffs": [[1.0, 0.0]] * 4},
     "series JSON needs 'deg': [d1, d2] and 'coeffs': [[re, im], ...] "
     "(cannot convert float infinity to integer)"),
]
MEASURE_INTEGER_FIELDS = [
    ({"K": 4.7, "coeffs": [[1, 1, 0.5, 0.0]]}, "measure JSON 'K' must be an integer, got 4.7"),
    ({"K": float("inf"), "coeffs": [[1, 1, 0.5, 0.0]]}, "measure JSON 'K' must be an integer, got inf"),
    ({"K": "x", "coeffs": [[1, 1, 0.5, 0.0]]}, "measure JSON 'K' must be an integer, got 'x'"),
    ({"K": 4, "coeffs": [[1.5, 1, 0.5, 0.0]]},
     "measure coefficients must be [k, l, re, im] rows (1.5 is not an integer)"),
    ({"K": 4, "coeffs": [[1, 1.5, 0.5, 0.0]]},
     "measure coefficients must be [k, l, re, im] rows (1.5 is not an integer)"),
    ({"builtin": "diagonal_current", "params": {"K": 4.7}},
     "measure JSON needs an integer param K, got {'K': 4.7}"),
]


class TestErrors:
    def test_missing_series_file(self, capsys):
        code, _, err = run_cli(capsys, "norm", "--series", "no/such/file.json", "--alpha", "0")
        assert code == 2
        assert "InputError" in err

    def test_bad_builtin(self, capsys):
        code, _, err = run_cli(capsys, "norm", "--series", "builtin:nope", "--alpha", "0")
        assert code == 2
        assert "InputError" in err

    def test_numerical_error_exit_code(self, capsys, tmp_path):
        series = tmp_path / "zero_const.json"
        series.write_text(json.dumps({"deg": [0, 1], "coeffs": [[0.0, 0.0], [1.0, 0.0]]}))
        code, _, err = run_cli(
            capsys, "approx", "--series", str(series), "--alpha", "0", "--n", "2",
            "--method", "riesz",
        )
        assert code == 3
        assert "SingularReciprocalError" in err

    @pytest.mark.parametrize("command", [
        ["approx", "--n", "4"],
        ["decay", "--nmin", "2", "--nmax", "6", "--step", "2"],
    ])
    @pytest.mark.parametrize("basis", ["full", "diag:1,1"])
    def test_tol_ortho_is_applied(self, capsys, command, basis):
        code, _, err = run_cli(
            capsys, command[0], "--series", "builtin:one_minus_z1z2", "--alpha", "0",
            *command[1:], "--basis", basis, "--tol-ortho", "1e-300",
        )
        assert code == 3
        assert "ConditioningError" in err

    @pytest.mark.parametrize("command", [
        ["approx", "--n", "3"],
        ["approx", "--n", "3", "--method", "riesz"],
        ["approx", "--n", "3", "--method", "cesaro"],
        ["decay", "--nmin", "1", "--nmax", "3"],
    ])
    @pytest.mark.parametrize("flag", ["--tol-ortho", "--tol-eps0"])
    @pytest.mark.parametrize("value", ["nan", "-1", "-inf"])
    def test_nan_or_negative_tolerance_is_input_error(self, capsys, command, flag, value):
        code, out, err = run_cli(
            capsys, command[0], "--series", "builtin:product_one_minus", "--alpha", "0",
            *command[1:], f"{flag}={value}",
        )
        assert code == 2 and out == ""
        assert f"ArgumentError: {flag} must be a nonnegative number" in err

    def test_zero_and_infinite_tolerances_are_accepted(self, capsys):
        for extra in (["--tol-ortho", "inf"], ["--tol-eps0", "0", "--method", "riesz"]):
            code, _, err = run_cli(
                capsys, "approx", "--series", "builtin:product_one_minus", "--alpha", "0",
                "--n", "3", *extra,
            )
            assert code == 0, err

    def test_unsupported_rate_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, "approx", "--series", "builtin:one_minus_z1z2",
            "--alpha", "1.5", "--n", "2", "--method", "riesz",
        )
        assert code == 2
        assert "UnsupportedRateError" in err

    def test_basis_cap_refusal(self, capsys):
        code, _, err = run_cli(
            capsys, "decay", "--series", "builtin:one_minus_z1z2", "--alpha", "0",
            "--nmin", "150", "--nmax", "150", "--basis", "full",
        )
        assert code == 2
        assert "BasisSizeError" in err

    def test_bad_grid_shape(self, capsys, tmp_path):
        series = tmp_path / "bad.json"
        series.write_text(json.dumps({"deg": [1, 1], "coeffs": [[1.0, 0.0]]}))
        code, _, err = run_cli(capsys, "norm", "--series", str(series), "--alpha", "0")
        assert code == 2
        assert "InputError" in err

    @pytest.mark.parametrize("maxdeg", ["-1", "-5"])
    def test_negative_maxdeg(self, capsys, maxdeg):
        code, out, err = run_cli(
            capsys, "annihilate", "--series", "builtin:one_minus_z1z2",
            "--measure", "builtin:diagonal_current", "--maxdeg", maxdeg,
        )
        assert (code, out) == (2, "")
        assert "CoefficientRangeError: maxdeg must be nonnegative" in err

    @pytest.mark.parametrize("suite", ["slice", "all"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_vacuous_verify_refused(self, capsys, suite, trials):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--trials", trials)
        assert (code, out) == (2, "")
        assert "InputError" in err

    @pytest.mark.parametrize("suite", ["slice", "all"])
    def test_negative_seed_refused(self, capsys, suite):
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--trials", "1", "--seed", "-1"
        )
        assert (code, out) == (2, "")
        assert "ArgumentError: the seed must be nonnegative (got seed=-1)" in err

    @pytest.mark.parametrize("alpha", ["800", "1e308"])
    def test_overflowing_norm_refused(self, capsys, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "norm", "--series", "builtin:one_minus_z1z2", "--alpha", alpha
            )
        assert (code, out) == (3, "")
        assert f"NumericalError: the weighted norm at alpha = {float(alpha)!r}" in err

    def test_overflowing_gram_refused(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "approx", "--series", "builtin:product_one_minus",
                                     "--alpha", "300", "--n", "3")
        assert (code, out) == (3, "")
        assert err.startswith("error: NumericalError: the Gram matrix at alpha = 300.0, order n=3 ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        "approx --series builtin:one_minus_z1z2 --alpha -1000 --n 30 --method riesz --basis full",
        "decay --series builtin:one_minus_z1z2 --alpha -1000 --nmin 1 --nmax 40 --basis diag:1,1 "
        "--method riesz",
    ])
    def test_overflowing_rate_gauge_refused(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (3, "")
        assert err.startswith("error: NumericalError: the rate gauge phi(s), s = ")
        assert err.rstrip().endswith("at alpha = -1000.0 overflows")
        assert len(err.splitlines()) == 1

    def test_violation_fails_verify(self, capsys, monkeypatch):
        restrict_stack = suites._diag_restrict
        monkeypatch.setattr(suites, "_diag_restrict", lambda x: 1e3 * restrict_stack(x))
        code, out, _ = run_cli(capsys, "verify", "--suite", "restriction", "--trials", "3")
        assert code == 3
        assert out.startswith("suite restriction: FAIL (trials=3, violations=3, worst_margin=-")

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([[1, 0, 0.5, 0.0], [1, 0, 0.7, 0.0]], "InputError"),  # one row twice
            ([[1, 0, float("nan"), 0.0]], "CoefficientRangeError"),  # JSON admits NaN
        ],
    )
    def test_measure_file_rows_validated(self, capsys, tmp_path, rows, error):
        measure = tmp_path / "mu.json"
        measure.write_text(json.dumps({"K": 2, "coeffs": rows}))
        code, out, err = run_cli(capsys, "energy", "--measure", str(measure), "--K", "2")
        assert (code, out) == (2, "")
        assert error in err

    def test_malformed_measure(self, capsys, tmp_path):
        measure = tmp_path / "bad.json"
        measure.write_text(json.dumps({"K": 2, "coeffs": [[0, 0, 0.5, 0.0]]}))
        code, _, err = run_cli(capsys, "energy", "--measure", str(measure), "--K", "2")
        assert code == 2
        assert "CoefficientRangeError" in err

    @pytest.mark.parametrize("argv, message", [
        (["approx", "--series", "builtin:one_minus_z1z2", "--alpha", "0", "--n", "-1"],
         "basis order must be nonnegative"),
        (["approx", "--series", "builtin:one_minus_z1z2", "--alpha", "0", "--n", "2",
          "--basis", "diag:0,1"], "pattern exponents must be >= 1"),
        (["norm", "--series", "builtin:one_minus_pow:0,0", "--alpha", "0"],
         "pattern exponents must be >= 1"),
        (["decay", "--series", "builtin:one_minus_z1z2", "--alpha", "nan", "--nmin", "1",
          "--nmax", "3", "--basis", "diag:1,1"], "alpha must be finite"),
    ])
    def test_argument_errors_are_structured(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"error: ArgumentError: {message}" in err

    @pytest.mark.parametrize("kind, obj, message", [
        ("measure", {"builtin": ["lebesgue"]}, "measure JSON 'builtin' must be a name"),
        ("measure", {"builtin": "lebesgue", "params": [1]},
         "measure JSON 'params' must be an object"),
        ("measure", {"builtin": "lebesgue", "params": {"K": "x"}},
         "measure JSON needs an integer param K"),
        ("measure", {"builtin": "lebesgue", "params": {"K": float("inf")}},
         "measure JSON needs an integer param K"),
        ("measure", {"builtin": "lebesgue", "params": {"K": 2.9}},
         "measure JSON needs an integer param K"),
        ("measure", {"builtin": "lebesgue", "params": {"L": 2}},
         "measure JSON takes only the param K"),
        ("series", {"builtin": "one_minus_z1z2", "params": [1]},
         "series JSON 'params' must be an object"),
        ("series", {"builtin": "one_minus_pow", "params": {"M": "a", "N": 2}},
         "one_minus_pow needs integer params M and N"),
        ("series", {"builtin": "one_minus_pow", "params": {"M": float("inf"), "N": 1}},
         "one_minus_pow needs integer params M and N"),
        ("series", {"builtin": "one_minus_pow", "params": {"M": 2.5, "N": 3}},
         "one_minus_pow needs integer params M and N"),
        ("series", {"builtin": "one_minus_z1z2", "params": {"name": 1}},
         "builtin series 'one_minus_z1z2' takes no param name"),
        ("series", {"builtin": "one_minus_z1z2", "params": {"M": 3}},
         "builtin series 'one_minus_z1z2' takes no param M"),
        ("series", {"builtin": "cos_pair", "params": {"theta": None}},
         "cos_pair needs a real param theta"),
    ], ids=["measure-name", "measure-params", "measure-K", "measure-K-inf", "measure-K-frac",
            "measure-extra", "series-params", "series-M", "series-M-inf", "series-M-frac",
            "series-name-key", "series-extra", "series-theta"])
    def test_malformed_builtin_file(self, capsys, tmp_path, kind, obj, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        if kind == "measure":
            argv = ["energy", "--measure", str(path), "--K", "4"]
        else:
            argv = ["norm", "--series", str(path), "--alpha", "0"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: InputError: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("token, message", [
        ("builtin:one_minus_pow:a,b", "one_minus_pow needs integer params M and N"),
        ("builtin:cos_pair:x", "cos_pair needs a real param theta"),
        ("builtin:cos_pair:inf", "cos_pair needs a finite param theta"),
    ], ids=["one_minus_pow", "cos_pair", "cos_pair-inf"])
    def test_malformed_builtin_token(self, capsys, token, message):
        code, out, err = run_cli(capsys, "norm", "--series", token, "--alpha", "0")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: InputError: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, obj, message", [
        *[("norm", obj, message) for obj, message in SERIES_INTEGER_FIELDS],
        *[(command, obj, message) for command in ("energy", "annihilate")
          for obj, message in MEASURE_INTEGER_FIELDS],
    ])
    def test_fractional_json_integer_refused(self, capsys, tmp_path, command, obj, message):
        path = tmp_path / "file.json"
        path.write_text(json.dumps(obj))
        argv = {
            "norm": ["norm", "--series", str(path), "--alpha", "0"],
            "energy": ["energy", "--measure", str(path), "--K", "4"],
            "annihilate": ["annihilate", "--series", "builtin:one_minus_z1z2", "--measure", str(path),
                           "--maxdeg", "2"],
        }[command]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: InputError: {message}\n"

    def test_integral_json_floats_still_read(self, capsys, tmp_path):
        measure = tmp_path / "mu.json"
        measure.write_text(json.dumps({"K": 4.0, "coeffs": [[1.0, 1.0, 0.5, 0.0]]}))
        code, out, _ = run_cli(capsys, "energy", "--measure", str(measure), "--K", "4")
        assert code == 0 and json.loads(out)["K"] == 4

    def test_scan_past_the_solver_cap_names_the_order(self, capsys):
        # the top order 10050 is past the cap: every order is solved alone, and 10000 is refused
        code, out, err = run_cli(capsys, "decay", "--series", "builtin:one_minus_z1", "--alpha", "1",
                                 "--nmin", "9950", "--nmax", "10050", "--step", "50", "--basis", "onevar")
        assert (code, out) == (2, "")
        assert err == ("error: BasisSizeError: order n=10000: basis of 10001 unknowns exceeds the "
                       "solver cap of 10000; choose a reduced basis explicitly\n")

    def test_series_file_checked_by_the_library(self, capsys, tmp_path):
        series = tmp_path / "nan.json"
        series.write_text(json.dumps({"deg": [0, 1], "coeffs": [[1.0, 0.0], [float("nan"), 0.0]]}))
        code, out, err = run_cli(capsys, "norm", "--series", str(series), "--alpha", "0")
        assert (code, out) == (2, "")
        assert "error: ArgumentError: coefficients must be finite" in err

    def test_diagonal_scan_past_the_grid_cap(self, capsys):
        # the scan never builds the 5001 x 5001 grid of p; approx prints it, so refuses
        code, out, _ = run_cli(
            capsys, "decay", "--series", "builtin:one_minus_z1z2", "--alpha", "0",
            "--nmin", "5000", "--nmax", "5000", "--basis", "diag:1,1",
        )
        assert code == 0
        n, dist_sq = out.splitlines()[1].split(",")[:2]
        assert (int(n), float(dist_sq)) == (5000, pytest.approx(1.0 / 5002, rel=1e-9))
        code, out, err = run_cli(
            capsys, "approx", "--series", "builtin:one_minus_z1z2", "--alpha", "0",
            "--n", "5000", "--basis", "diag:1,1",
        )
        assert (code, out) == (2, "")
        assert "GridSizeError" in err

    def test_riesz_order_past_the_grid_cap_refused_before_its_recurrence(self, capsys, reciprocal_orders):
        code, out, err = run_cli(
            capsys, "approx", "--series", "builtin:one_minus_z1z2", "--alpha", "0.5",
            "--n", "1000000", "--method", "riesz", "--basis", "diag:1,1",
        )
        assert (code, out, reciprocal_orders) == (2, "", [])
        assert err == "error: GridSizeError: coefficient grid of 1000002000001 entries exceeds the cap of 16777216\n"

    def test_off_pattern_diagonal_scan_past_the_grid_cap(self, capsys):
        # an off-pattern f is solved as its coset rows: only printing p builds a grid
        code, out, _ = run_cli(
            capsys, "decay", "--series", "builtin:product_one_minus", "--alpha", "0",
            "--nmin", "5000", "--nmax", "5000", "--basis", "diag:1,1",
        )
        assert code == 0 and out.splitlines()[1].startswith("5000,")
        code, out, err = run_cli(
            capsys, "approx", "--series", "builtin:product_one_minus", "--alpha", "0",
            "--n", "5000", "--basis", "diag:1,1",
        )
        assert (code, out) == (2, "")
        assert "error: GridSizeError: " in err

    def test_step_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "decay", "--series", "builtin:one_minus_z1z2", "--alpha", "0",
            "--nmin", "1", "--nmax", "5", "--step", "0",
        )
        assert code == 2


# Diagonal optimal approximants printed by ``approx``: the lifted coefficient
# grid and the certificates, pinned byte for byte.
DIAGONAL_EXAMPLES = [
    ("approx_diag_1_1.json", "bidisk approx --series builtin:one_minus_z1z2 --alpha 0.5 "
                             "--n 12 --basis diag:1,1"),
    ("approx_diag_2_3.json", "bidisk approx --series builtin:one_minus_pow:2,3 --alpha 0.5 "
                             "--n 30 --basis diag:2,3"),
]


@pytest.mark.parametrize("expected, command", DIAGONAL_EXAMPLES)
def test_diagonal_approx_output_is_unchanged(capsys, expected, command):
    code, out, err = run_cli(capsys, *shlex.split(command)[1:])
    assert code == 0, err
    assert out == (GOLDEN / expected).read_text()


def test_diagonal_riesz_scan_output_is_unchanged(capsys):
    code, out, err = run_cli(capsys, "decay", "--series", "builtin:one_minus_pow:2,3",
                             "--alpha", "0.25", "--nmin", "3", "--nmax", "30", "--step", "3",
                             "--basis", "diag:2,3", "--method", "riesz")
    assert code == 0, err
    assert out == (GOLDEN / "decay_riesz_diag_2_3.csv").read_text()


# Full-basis Riesz and Cesaro scans, pinned byte for byte.
EXPLICIT_SCANS = [
    ("decay_riesz_full.csv", "bidisk decay --series builtin:product_one_minus --alpha 0.5 "
                             "--nmin 2 --nmax 60 --step 2 --basis full --method riesz"),
    ("decay_cesaro_full.csv", "bidisk decay --series builtin:one_minus_z1z2 --alpha 0.25 "
                              "--nmin 1 --nmax 30 --basis full --method cesaro"),
]


@pytest.mark.parametrize("expected, command", EXPLICIT_SCANS)
def test_explicit_scan_output_is_unchanged(capsys, expected, command):
    code, out, err = run_cli(capsys, *shlex.split(command)[1:])
    assert code == 0, err
    assert out == (GOLDEN / expected).read_text()


class TestExplicitScans:
    @pytest.mark.parametrize("series, method, basis, top", [
        ("builtin:product_one_minus", "riesz", "full", 12),
        ("builtin:one_minus_z1z2", "cesaro", "full", 12),
        ("builtin:one_minus_pow:2,3", "riesz", "diag:2,3", 4),
    ])
    def test_one_reciprocal_per_scan(self, capsys, reciprocal_orders, series, method, basis, top):
        code, out, err = run_cli(capsys, "decay", "--series", series, "--alpha", "0.5",
                                 "--nmin", "0", "--nmax", "12", "--basis", basis,
                                 "--method", method)
        assert code == 0, err
        assert len(out.splitlines()) == 14
        assert reciprocal_orders == [top]

    def test_overflowing_reciprocal_fails_as_an_order_alone(self, capsys, tmp_path):
        series = tmp_path / "tiny_constant.json"
        series.write_text(json.dumps({"deg": [1, 0], "coeffs": [[1e-10, 0], [-1, 0]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "decay", "--series", str(series), "--alpha", "0",
                                     "--nmin", "1", "--nmax", "40", "--method", "riesz",
                                     "--basis", "full")
        assert (code, out) == (3, "")
        assert err == ("error: NumericalError: the weighted norm at alpha = 0.0 is not finite "
                       "(inf); the weights or the weighted coefficients overflow\n")

    @pytest.mark.parametrize("command", [["approx", "--n", "4"],
                                         ["decay", "--nmin", "1", "--nmax", "6"]])
    @pytest.mark.parametrize("method, basis, message", [
        ("cesaro", "diag:1,1", "--method cesaro supports --basis full only"),
        ("riesz", "onevar", "--method riesz supports --basis full or diag:M,N"),
    ])
    def test_unsupported_basis_refused_before_any_construction(
        self, capsys, reciprocal_orders, command, method, basis, message
    ):
        code, out, err = run_cli(capsys, command[0], "--series", "builtin:one_minus_z1z2",
                                 "--alpha", "0", *command[1:], "--method", method,
                                 "--basis", basis)
        assert (code, out) == (2, "")
        assert err == f"error: InputError: {message}\n"
        assert reciprocal_orders == []


def test_onevar_scan_output_is_unchanged(capsys):
    # one Gram assembly serves every order of this scan
    code, out, err = run_cli(capsys, "decay", "--series", "builtin:one_minus_z1", "--alpha", "1",
                             "--nmin", "50", "--nmax", "600", "--step", "50", "--basis", "onevar")
    assert code == 0, err
    assert out == (GOLDEN / "decay_onevar.csv").read_text()


def test_diag_scan_at_the_reduced_reach_output_is_unchanged(capsys):
    # the benchmark's diagonal orders: every band is sliced from the one at n = 600
    code, out, err = run_cli(capsys, "decay", "--series", "builtin:one_minus_z1z2", "--alpha", "0.5",
                             "--nmin", "50", "--nmax", "600", "--step", "50", "--basis", "diag:1,1")
    assert code == 0, err
    assert out == (GOLDEN / "decay_diag_600.csv").read_text()


def test_full_cos_pair_scan_output_is_unchanged(capsys):
    # every lower order's band of this full scan is gathered from the top order's, n = 40
    code, out, err = run_cli(capsys, "decay", "--series", "builtin:cos_pair:1", "--alpha", "0.5",
                             "--nmin", "0", "--nmax", "40", "--step", "5", "--basis", "full")
    assert code == 0, err
    assert out == (GOLDEN / "decay_full_cos_pair.csv").read_text()


def test_verify_all_seed11_output_is_unchanged(capsys):
    # every suite at a second seed, 500 trials: seven full blocks of draws and a partial one
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--trials", "500", "--seed", "11")
    assert code == 0, err
    assert out == (GOLDEN / "verify_all_seed11.txt").read_text()


class TestReadmeExamples:
    """The README's CLI examples print byte-identical output."""

    def test_examples_are_the_readme_commands(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = [line for line in readme.splitlines() if line.startswith("bidisk ")]
        assert listed == [command for _, command in README_EXAMPLES]

    @pytest.mark.parametrize("expected, command", README_EXAMPLES)
    def test_output_is_unchanged(self, capsys, monkeypatch, tmp_path, expected, command):
        monkeypatch.chdir(tmp_path)  # ``--out scan.csv`` writes here
        code, out, err = run_cli(capsys, *shlex.split(command)[1:])
        assert code == 0, err
        if "--out" in command:
            assert out == ""
            out = (tmp_path / "scan.csv").read_text()
        assert out == (GOLDEN / expected).read_text()


def _help(capsys, parse, argv):
    """What ``parse(argv)`` prints for ``--help`` before it exits 0."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


class TestSharedParser:
    """``main`` parses every command of a process with one parser."""

    def test_errors_then_readme_examples(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        # a parse error exits from argparse, with nothing left behind for the next command
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--alpha", "0"])
        assert exc.value.code == 2
        assert "--series" in capsys.readouterr().err
        code, _, err = run_cli(capsys, "norm", "--series", "builtin:nope", "--alpha", "0")
        assert code == 2 and "InputError" in err
        code, _, err = run_cli(capsys, "norm", "--series", "builtin:one_minus_z1z2",
                               "--alpha", "800")
        assert code == 3 and "alpha" in err
        for expected, command in README_EXAMPLES:
            code, out, err = run_cli(capsys, *shlex.split(command)[1:])
            assert code == 0, err
            if "--out" in command:
                assert out == ""
                out = (tmp_path / "scan.csv").read_text()
            assert out == (GOLDEN / expected).read_text(), command

    @pytest.mark.parametrize("argv", [["--help"], ["decay", "--help"]])
    def test_help_reads_the_width_when_it_prints(self, capsys, monkeypatch, argv):
        printed = {}
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            printed[columns] = _help(capsys, main, argv)
            assert printed[columns] == _help(capsys, build_parser().parse_args, argv)
        assert printed["40"] != printed["200"]

    def test_build_parser_is_fresh(self, capsys):
        first, second = build_parser(), build_parser()
        assert first is not second
        first.add_argument("--extra")
        argv = ["--extra", "x", "energy", "--measure", "m", "--K", "1"]
        assert first.parse_args(argv).extra == "x"
        errors = []
        for parse in (second.parse_args, main):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and "error: argument command: invalid choice" in errors[1]

    def test_repeated_commands_build_at_most_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        build_parser()
        per_build = len(built)  # the root parser and one per subcommand
        assert per_build > 1
        built.clear()
        for _ in range(5):
            code, _, err = run_cli(capsys, "norm", "--series", "builtin:one_minus_z1",
                                   "--alpha", "0")
            assert code == 0, err
        assert len(built) in (0, per_build)
