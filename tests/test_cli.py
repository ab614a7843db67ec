"""Command-line interface: schemas, values, determinism, exit codes."""

import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from bidisk import suites
from bidisk.approximants import BasisSpec
from bidisk.cli import main
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

    def test_off_pattern_diagonal_scan_refused_at_the_grid_cap(self, capsys):
        code, out, err = run_cli(
            capsys, "decay", "--series", "builtin:product_one_minus", "--alpha", "0",
            "--nmin", "5000", "--nmax", "5000", "--basis", "diag:1,1",
        )
        assert (code, out) == (2, "")
        assert "error: GridSizeError: order n=5000 " in err

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
