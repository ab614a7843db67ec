"""Energies, Cauchy transforms, dual pairings, annihilation certificates."""

import numpy as np
import pytest

from bidisk.capacity import (
    annihilation_check,
    bergman_norm_sq,
    cauchy_transform,
    custom_measure,
    diagonal_current,
    dual_pairing,
    energy,
    lebesgue,
    point_mass,
)
from bidisk.errors import CoefficientRangeError
from bidisk.series import TwoVarSeries, constant2, monomial2, shifted_pairings

F_DIAG = TwoVarSeries.from_terms({(0, 0): 1, (1, 1): -1})


class TestMeasures:
    def test_normalization(self):
        for mu in (lebesgue(4), diagonal_current(4), point_mass(4)):
            assert mu.mu_hat(0, 0) == 1.0

    def test_hermitian_symmetry_and_bound(self):
        mu = custom_measure({(1, 2): 0.3 + 0.4j, (0, 1): 0.5})
        assert mu.mu_hat(-1, -2) == pytest.approx(0.3 - 0.4j)
        assert mu.mu_hat(0, -1) == pytest.approx(0.5)
        assert mu.K == 2

    def test_rejects_bad_tables(self):
        with pytest.raises(CoefficientRangeError):
            custom_measure({(0, 0): 0.5})
        with pytest.raises(CoefficientRangeError):
            custom_measure({(1, 1): 1.5})
        with pytest.raises(CoefficientRangeError):
            custom_measure({(1, 0): 0.5, (-1, 0): 0.7})

    def test_range_check(self):
        with pytest.raises(CoefficientRangeError):
            lebesgue(3).mu_hat(4, 0)


class TestEnergy:
    def test_lebesgue_is_one(self):
        for K in (0, 10, 100):
            assert energy(lebesgue(K), K).partial == 1.0

    def test_diagonal_current_value(self):
        report = energy(diagonal_current(1000), 1000)
        assert abs(report.partial - (1 + np.pi**2 / 12)) <= 1e-3
        assert report.axis1 == 0.0 and report.axis2 == 0.0

    def test_point_mass_diverges(self):
        mu = point_mass(100)
        assert energy(mu, 100).partial > energy(mu, 10).partial

    def test_nondecreasing_and_nonnegative(self):
        mu = custom_measure(
            {(1, 1): 0.5 + 0.1j, (2, 1): -0.25, (0, 3): 0.125j, (1, 0): 0.5}, K=8
        )
        prev = 0.0
        for K in range(9):
            rep = energy(mu, K)
            for part in (rep.constant, rep.axis1, rep.axis2, rep.interior):
                assert part >= 0.0
            assert rep.partial >= prev
            prev = rep.partial

    def test_cutoff_range_error(self):
        with pytest.raises(CoefficientRangeError):
            energy(diagonal_current(5), 10)


class TestCauchyTransform:
    def test_diagonal_current_is_geometric(self):
        C = cauchy_transform(diagonal_current(6), 5, 5)
        assert C == TwoVarSeries(np.eye(6))

    def test_lebesgue_is_constant(self):
        assert cauchy_transform(lebesgue(3), 2, 2) == constant2(1.0).pad(2, 2)

    def test_real_symmetric_gives_real(self):
        mu = custom_measure({(1, 1): 0.5, (2, 0): 0.25, (0, 1): -0.5})
        C = cauchy_transform(mu, 2, 2)
        assert np.max(np.abs(C.coeffs.imag)) == 0.0

    def test_range_error(self):
        with pytest.raises(CoefficientRangeError):
            cauchy_transform(diagonal_current(3), 4, 2)


class TestBergmanAndPairing:
    def test_constant(self):
        assert bergman_norm_sq(constant2(1.0)) == pytest.approx(1.0)

    def test_basel_partial(self):
        K = 1000
        g = cauchy_transform(diagonal_current(K), K, K)
        assert abs(bergman_norm_sq(g) - np.pi**2 / 6) <= 1e-3

    def test_single_monomial(self):
        assert bergman_norm_sq(monomial2(1, 0)) == pytest.approx(0.5)

    def test_pairing_examples(self):
        geo = TwoVarSeries(np.eye(5))
        assert dual_pairing(F_DIAG, geo) == pytest.approx(0.0)
        assert dual_pairing(constant2(3.0), geo) == pytest.approx(3.0)
        assert dual_pairing(monomial2(1, 0), monomial2(0, 1)) == 0.0

    def test_pairing_bilinear_no_conjugation(self):
        f = TwoVarSeries([[1j]])
        g = TwoVarSeries([[1j]])
        assert dual_pairing(f, g) == pytest.approx(-1.0)


class TestAnnihilation:
    def test_diagonal_identity_exact_zero(self):
        mu = diagonal_current(9)
        assert annihilation_check(F_DIAG, mu, 8) == 0.0

    def test_constant_against_lebesgue(self):
        assert annihilation_check(constant2(1.0), lebesgue(4), 4) == pytest.approx(1.0)

    def test_one_minus_z1_not_annihilated(self):
        f = TwoVarSeries.from_terms({(0, 0): 1, (1, 0): -1})
        assert annihilation_check(f, diagonal_current(5), 4) == pytest.approx(1.0)

    def test_insufficient_range(self):
        with pytest.raises(CoefficientRangeError):
            annihilation_check(F_DIAG, diagonal_current(5), 8)


class TestShiftedPairings:
    """One helper serves the annihilation check and the orthogonality certificate."""

    @staticmethod
    def random_grid(rng, shape):
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        grid[rng.random(shape) < 0.4] = 0.0  # interior zeros
        return grid

    def test_matches_per_shift_loop(self):
        rng = np.random.default_rng(90)
        coeffs = self.random_grid(rng, (3, 4))
        target = rng.standard_normal((12, 11)) + 1j * rng.standard_normal((12, 11))
        shifts = np.column_stack((rng.integers(0, 10, 40), rng.integers(0, 8, 40)))
        brute = [np.sum(coeffs * target[k : k + 3, l : l + 4]) for k, l in shifts]
        assert np.allclose(shifted_pairings(coeffs, target, shifts), brute, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("measure", [lebesgue, diagonal_current])
    def test_annihilation_against_per_shift_loop(self, measure):
        rng = np.random.default_rng(91)
        for shape in ((2, 2), (3, 2), (4, 5)):
            f = TwoVarSeries(self.random_grid(rng, shape))
            maxdeg = 7
            mu = measure(maxdeg + max(shape))
            C = cauchy_transform(mu, maxdeg + shape[0] - 1, maxdeg + shape[1] - 1).coeffs
            brute = max(
                abs(np.sum(f.coeffs * C[k : k + shape[0], l : l + shape[1]]))
                for k in range(maxdeg + 1)
                for l in range(maxdeg + 1)
            )
            assert annihilation_check(f, mu, maxdeg) == pytest.approx(brute, rel=1e-13, abs=0)


class TestDominationAndConsistency:
    def test_bergman_dominated_by_energy(self):
        # coefficientwise 1/((k+1)(l+1)) <= 2 * energy weights, checked on built-ins
        for mu, K in ((lebesgue(12), 12), (diagonal_current(12), 12), (point_mass(8), 8)):
            g = cauchy_transform(mu, K, K)
            assert bergman_norm_sq(g) <= 2.0 * energy(mu, K).partial + 1e-12

    def test_finite_energy_blocks_decay(self):
        # the same function whose boundary current has finite energy keeps
        # its solver distances bounded away from zero at parameter 1
        from bidisk.approximants import diagonal_reduce_solve
        from bidisk.series import DiagonalPattern

        report = energy(diagonal_current(500), 500)
        assert np.isfinite(report.partial)
        for n in (10, 40, 160):
            res = diagonal_reduce_solve(F_DIAG, 1.0, n, DiagonalPattern(1, 1))
            assert res.residual_sq >= 0.6
