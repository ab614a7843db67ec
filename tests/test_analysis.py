"""Decay scans, rate fits, theory rates, verdicts."""

import numpy as np
import pytest

from bidisk.analysis import (
    DecaySeries,
    cyclicity_verdict,
    decay_scan,
    fit_log_mode,
    fit_power,
    predicted_rate,
)
from bidisk.approximants import closed_form_twisted
from bidisk.errors import (
    ArgumentError,
    DegenerateFitError,
    InsufficientPointsError,
    MonotonicityError,
    UnsupportedRateError,
)
from bidisk.series import DiagonalPattern, OneVarSeries, TwoVarSeries, constant2, separable

from oracles import onevar_one_minus_z_dist_sq, separable_dist_sq

F_DIAG = TwoVarSeries.from_terms({(0, 0): 1, (1, 1): -1})
F_PROD = separable(OneVarSeries([1, -1]), OneVarSeries([1, -1]))
PAT11 = DiagonalPattern(1, 1)

GEOMETRIC_N = [20, 27, 36, 49, 66, 89, 120, 161, 200]


def synthetic_series(ns, values, **meta):
    return DecaySeries(points=tuple(zip(ns, values)), meta=meta)


class TestDecayScan:
    def test_diagonal_matches_oracle(self):
        ds = decay_scan(F_DIAG, 0.0, range(1, 11), basis="diagonal")
        assert np.allclose(ds.values, [1.0 / (n + 2) for n in range(1, 11)], atol=1e-12)

    def test_every_order_goes_through_solve_optimal(self):
        from bidisk.approximants import BasisSpec, diagonal_reduce_solve, solve_optimal

        pat = DiagonalPattern(2, 3)
        f = TwoVarSeries.from_terms({(0, 0): 1, (2, 3): -0.5})
        ds = decay_scan(f, 0.25, [3, 6, 9], basis="diagonal", pattern=pat)
        for n, res in zip((3, 6, 9), ds.results):
            assert res == diagonal_reduce_solve(f, 0.25, n, pat) and res.pattern == pat
        # an off-pattern f is solved on the diagonal lattice, not refused
        ds = decay_scan(F_PROD, 0.0, [1, 4], basis="diagonal")
        for n, res in zip((1, 4), ds.results):
            assert res == solve_optimal(F_PROD, 0.0, BasisSpec.diagonal(n, PAT11))
            assert res.pattern is None
        assert ds.meta["pattern"] == PAT11

    @pytest.mark.parametrize("basis", ["full", "onevar"])
    def test_pattern_refused_off_the_diagonal_basis(self, basis):
        with pytest.raises(ArgumentError, match="other kinds must not carry one"):
            decay_scan(F_DIAG, 0.0, [1, 2], basis=basis, pattern=PAT11)

    def test_off_pattern_grid_refused_naming_the_order(self):
        from bidisk.errors import GridSizeError

        with pytest.raises(GridSizeError, match="n=5000") as err:
            decay_scan(F_PROD, 0.0, [4, 5000], basis="diagonal")
        assert str(err.value).count("n=5000") == 1

    def test_exact_inversion_all_zero(self):
        ds = decay_scan(constant2(1.0), 0.3, [1, 2, 3, 4, 5], basis="full")
        assert np.all(ds.values <= 1e-20)

    def test_product_regression_fixture(self):
        # frozen from the Kronecker-factorization oracle
        expected = {2: 0.4375, 4: 11.0 / 36.0, 8: 0.19, 16: 35.0 / 324.0}
        ds = decay_scan(F_PROD, 0.0, [2, 4, 8, 16], basis="full")
        for (n, v) in ds.points:
            assert v == pytest.approx(expected[n], abs=1e-10)
            assert v == pytest.approx(separable_dist_sq(0.0, n), abs=1e-12)

    @pytest.mark.parametrize("basis", ["diagonal", "full", "onevar"])
    def test_ortho_tol_reaches_every_solver(self, basis):
        from bidisk.errors import ConditioningError

        with pytest.raises(ConditioningError, match="n=3"):
            decay_scan(F_DIAG, 0.25, [3, 6], basis=basis, ortho_tol=1e-300)

    def test_error_annotated_with_order(self):
        from bidisk.errors import BasisSizeError

        with pytest.raises(BasisSizeError, match="n=120"):
            decay_scan(F_DIAG, 0.0, [1, 120], basis="full")

    def test_solver_error_kept_whole(self):
        from bidisk.approximants import BasisSpec, solve_optimal
        from bidisk.errors import ConditioningError

        with pytest.raises(ConditioningError) as direct:
            solve_optimal(F_PROD, 0.5, BasisSpec.full(3), ortho_tol=1e-300)
        with pytest.raises(ConditioningError) as scanned:
            decay_scan(F_PROD, 0.5, [3], basis="full", ortho_tol=1e-300)
        assert direct.value.cond_estimate is not None
        assert scanned.value.cond_estimate == direct.value.cond_estimate
        assert str(scanned.value).count("n=3") == 1

    def test_diagonal_scan_never_lifts(self, monkeypatch):
        from bidisk import approximants

        def refuse(*args):
            raise AssertionError("a scan must not lift its approximants")

        monkeypatch.setattr(approximants, "lift", refuse)
        ds = decay_scan(F_DIAG, 0.0, [1, 5, 40], basis="diagonal")
        assert np.allclose(ds.values, [1.0 / (n + 2) for n in (1, 5, 40)], atol=1e-12)
        with pytest.raises(AssertionError, match="must not lift"):
            ds.results[-1].p

    def test_diagonal_scan_past_the_grid_cap(self):
        from bidisk.errors import GridSizeError

        ds = decay_scan(F_DIAG, 0.0, [4095, 5000], basis="diagonal")
        assert np.allclose(ds.values, [1.0 / 4097, 1.0 / 5002], rtol=1e-9, atol=0.0)
        with pytest.raises(GridSizeError):
            ds.results[-1].p

    def test_monotonicity_enforced(self):
        with pytest.raises(MonotonicityError):
            DecaySeries(points=((1, 0.5), (2, 0.75)))


class TestFitPower:
    def test_planted_exponents_noiseless(self):
        ns = np.unique(np.round(10 * 1.3 ** np.arange(0, 16)).astype(int))
        for e in (-1.5, -1.0, -0.5, -0.25):
            vals = 2.7 * (ns + 1.0) ** e
            fit = fit_power(synthetic_series(ns, vals))
            assert abs(fit.exponent - e) <= 1e-8
            assert fit.constant == pytest.approx(2.7, rel=1e-8)
            assert fit.r_squared >= 1.0 - 1e-12

    def test_planted_exponents_with_noise(self):
        rng = np.random.default_rng(40)
        ns = np.unique(np.round(10 * 1.35 ** np.arange(0, 14)).astype(int))
        for e in (-1.5, -1.0, -0.5, -0.25):
            eta = np.clip(rng.standard_normal(len(ns)), -3, 3)
            vals = 1.3 * (ns + 1.0) ** e * (1.0 + 0.01 * eta)
            fit = fit_power(synthetic_series(ns, vals))
            assert abs(fit.exponent - e) <= 0.05

    def test_constant_sequence(self):
        ns = np.arange(10, 60, 5)
        fit = fit_power(synthetic_series(ns, np.full(len(ns), 0.37)))
        assert abs(fit.exponent) <= 0.01

    def test_shifted_power_in_band(self):
        ns = np.arange(10, 101)
        fit = fit_power(synthetic_series(ns, 1.0 / (ns + 2.0)))
        assert -1.05 <= fit.exponent <= -0.95

    def test_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_power(synthetic_series([10, 20, 30, 40, 50], [1e-3, 1e-4, 0.0, 0.0, 0.0]))

    def test_window(self):
        ns = np.arange(1, 101)
        fit = fit_power(synthetic_series(ns, 1.0 / (ns + 2.0)), n_min=20, n_max=80)
        assert fit.fit_range == (20, 80)
        with pytest.raises(InsufficientPointsError):
            fit_power(synthetic_series([10, 20, 30, 40], [4.0, 3.0, 2.0, 1.0]))


class TestFitLogMode:
    def test_exact_log_law(self):
        ns = np.arange(10, 201, 5)
        fit = fit_log_mode(synthetic_series(ns, 1.0 / np.log(ns + 1.0)))
        assert fit.constant == pytest.approx(1.0, rel=1e-12)
        assert fit.r_squared >= 0.99

    def test_power_law_scores_low(self):
        ns = np.arange(10, 201, 5)
        fit = fit_log_mode(synthetic_series(ns, 1.0 / (ns + 2.0)))
        assert fit.r_squared < 0.5

    def test_critical_diagonal_solve(self):
        ds = decay_scan(F_DIAG, 0.5, GEOMETRIC_N, basis="diagonal")
        fit = fit_log_mode(ds)
        assert fit.r_squared >= 0.8


class TestPredictedRate:
    def test_examples(self):
        tr = predicted_rate(0.0, "diagonal")
        assert (tr.mode, tr.exponent) == ("power", -1.0)
        tr = predicted_rate(0.0, "separable")
        assert (tr.mode, tr.exponent) == ("power", -1.0)
        assert predicted_rate(1.0, "diagonal").mode == "plateau"

    def test_log_thresholds(self):
        assert predicted_rate(1.0, "separable").mode == "logarithmic"
        assert predicted_rate(0.5, "diagonal").mode == "logarithmic"
        assert predicted_rate(0.5, "separable").mode == "power"
        assert predicted_rate(0.25, "diagonal").exponent == pytest.approx(-0.5)
        assert predicted_rate(1.0, "onevar").mode == "logarithmic"

    def test_unsupported(self):
        with pytest.raises(UnsupportedRateError):
            predicted_rate(1.5, "separable")
        with pytest.raises(UnsupportedRateError):
            predicted_rate(0.0, "mystery")

    def test_predicted_values(self):
        tr = predicted_rate(0.0, "diagonal")
        assert tr.predicted_value(9) == pytest.approx(0.1)
        assert predicted_rate(1.0, "diagonal").predicted_value(7) == 1.0


class TestSharpRates:
    """Fitted exponents against the sharp theory on solver data."""

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 0.25])
    def test_diagonal_family(self, alpha):
        ds = decay_scan(F_DIAG, alpha, GEOMETRIC_N, basis="diagonal")
        fit = fit_power(ds)
        assert abs(fit.exponent - (-(1.0 - 2.0 * alpha))) <= 0.15

    def test_separable_family_oracle_fit(self):
        # fits on the independent Kronecker oracle values (solver-driven
        # versions live in the acceptance suite)
        ns = [4, 6, 8, 12, 16, 23, 32]
        for alpha in (-0.5, 0.0, 0.5):
            vals = [separable_dist_sq(alpha, n) for n in ns]
            fit = fit_power(synthetic_series(ns, vals), n_min=4)
            assert abs(fit.exponent - (-(1.0 - alpha))) <= 0.2

    def test_rate_contrast_at_minus_one(self):
        diag_fit = fit_power(decay_scan(F_DIAG, -1.0, GEOMETRIC_N, basis="diagonal"))
        prod_ds = decay_scan(F_PROD, -1.0, [4, 6, 8, 12, 16, 23, 32], basis="full")
        prod_fit = fit_power(prod_ds, n_min=4)
        assert diag_fit.exponent <= prod_fit.exponent - 0.7

    def test_riesz_and_optimal_share_order(self):
        for alpha in (0.0, 0.25):
            opt = fit_power(decay_scan(F_DIAG, alpha, GEOMETRIC_N, basis="diagonal"))
            riesz_vals = [closed_form_twisted(alpha, n, PAT11) for n in GEOMETRIC_N]
            riesz_fit = fit_power(synthetic_series(GEOMETRIC_N, riesz_vals))
            assert abs(opt.exponent - riesz_fit.exponent) <= 0.1


class TestCyclicityVerdict:
    def test_decaying(self):
        ds = decay_scan(F_DIAG, 0.0, [10, 20, 30, 45, 60, 80, 110, 150, 200], basis="diagonal")
        assert cyclicity_verdict(ds).verdict == "decaying"

    def test_plateau(self):
        ns = list(range(20, 201, 20))
        ds = decay_scan(F_DIAG, 1.0, ns, basis="diagonal")
        v = cyclicity_verdict(ds)
        assert v.verdict == "plateau"
        # fixture: the one-variable oracle's plateau level
        assert ds.values[-1] == pytest.approx(onevar_one_minus_z_dist_sq(2.0, 200), rel=1e-10)

    def test_never_confuses_the_two(self):
        plateau_ns = list(range(20, 201, 20))
        plateau = decay_scan(F_DIAG, 1.0, plateau_ns, basis="diagonal")
        assert cyclicity_verdict(plateau).verdict != "decaying"
        decaying = decay_scan(F_DIAG, 0.0, [10, 20, 40, 80, 120, 160, 180, 200], basis="diagonal")
        assert cyclicity_verdict(decaying).verdict != "plateau"

    def test_exact_inversion_degenerate(self):
        ds = decay_scan(constant2(1.0), 0.0, [1, 2, 4, 8, 12, 16, 24, 32], basis="full")
        v = cyclicity_verdict(ds)
        assert v.verdict == "decaying"
        assert "exact" in v.detail

    def test_needs_enough_points(self):
        ds = synthetic_series([10, 20, 40, 80], [0.4, 0.3, 0.2, 0.1])
        with pytest.raises(InsufficientPointsError):
            cyclicity_verdict(ds)
