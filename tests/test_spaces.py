"""Norms, inner products, rate gauges, kernel norms, comparison constants."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from bidisk import suites
from bidisk.errors import (
    ArgumentError,
    DivergentKernelError,
    InputError,
    NumericalError,
    UnsupportedRateError,
)
from bidisk.series import DiagonalPattern, OneVarSeries, TwoVarSeries, lift, monomial1
from bidisk.spaces import (
    AlphaWeight,
    _kernel_norms_sq,
    _weight_table,
    beta_of_alpha,
    comparison_constants,
    inner1,
    inner2,
    kernel_norm_sq,
    norm1,
    norm2,
    phi,
    phi_inv,
)
from bidisk.suites import BLOCK, available_suites, run_suite

from oracles import random_one_var, random_two_var, reference_suite_margins

ONE_MINUS_Z1Z2 = TwoVarSeries.from_terms({(0, 0): 1, (1, 1): -1})
PRODUCT = TwoVarSeries([[1, -1], [-1, 1]])


class TestNorms:
    def test_constant(self):
        for alpha in (-2.0, 0.0, 1.5):
            assert norm2(TwoVarSeries([[1.0]]), alpha) == 1.0

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_one_minus_z1z2(self, alpha):
        assert norm2(ONE_MINUS_Z1Z2, alpha) == pytest.approx(np.sqrt(1 + 4.0**alpha), rel=1e-14)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    def test_product_factors(self, alpha):
        assert norm2(PRODUCT, alpha) == pytest.approx(1 + 2.0**alpha, rel=1e-14)

    def test_one_var(self):
        F = OneVarSeries([1, -1])
        assert norm1(F, 0.0) == pytest.approx(np.sqrt(2), rel=1e-15)
        assert norm1(F, 1.0) == pytest.approx(np.sqrt(3), rel=1e-15)

    def test_monomial_orthogonality(self):
        for k, l in ((0, 1), (2, 5), (3, 0)):
            assert inner1(monomial1(k), monomial1(l), 0.7) == 0.0

    def test_inner_induces_norm(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            f = random_two_var(rng)
            alpha = float(rng.uniform(-2, 2))
            n2 = norm2(f, alpha) ** 2
            ip = inner2(f, f, alpha)
            assert abs(ip.imag) <= 1e-14 * n2
            assert abs(ip.real - n2) <= 1e-14 * n2

    def test_inner_sesquilinear(self):
        rng = np.random.default_rng(21)
        f = random_two_var(rng, max_deg=4)
        g = random_two_var(rng, max_deg=4)
        lam = 0.3 - 1.7j
        assert inner2(lam * f, g, 0.5) == pytest.approx(lam * inner2(f, g, 0.5))
        assert inner2(f, lam * g, 0.5) == pytest.approx(np.conj(lam) * inner2(f, g, 0.5))

    def test_bits_of_the_direct_sums(self):
        # the stacked kernels round a single series as the plain sums do
        rng = np.random.default_rng(31)
        for _ in range(200):
            f = random_two_var(rng, max_deg=12)
            F = random_one_var(rng, max_deg=20)
            alpha = float(rng.uniform(-3.0, 3.0))
            w = np.power(np.arange(1.0, 22.0), alpha)
            direct2 = np.einsum("k,l,kl->", w[: f.deg1 + 1], w[: f.deg2 + 1], np.abs(f.coeffs) ** 2)
            assert norm2(f, alpha) == float(np.sqrt(direct2))
            assert norm1(F, alpha) == float(np.sqrt(np.dot(w[: F.deg + 1], np.abs(F.coeffs) ** 2)))

    @pytest.mark.parametrize("alpha", [800.0, 1e308])
    def test_overflow_raises(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=re.escape(f"alpha = {alpha!r}")):
                norm2(ONE_MINUS_Z1Z2, alpha)
            with pytest.raises(NumericalError, match=re.escape(f"alpha = {alpha!r}")):
                norm1(OneVarSeries([1.0, 0.0, -1.0]), alpha)

    def test_weight_table_memoized(self):
        aw = AlphaWeight(0.5)
        w = aw.weights(10)
        assert np.allclose(w, (np.arange(11) + 1.0) ** 0.5)
        assert aw.weights(5) is not None  # shorter request served from the same table


class TestPhi:
    def test_examples(self):
        assert phi(1.0, 1.0) == 0.0
        assert phi(0.0, 7.5) == 7.5
        assert phi(0.5, 4.0) == pytest.approx(2.0, abs=1e-15)

    def test_unsupported(self):
        with pytest.raises(UnsupportedRateError):
            phi(1.5, 2.0)
        with pytest.raises(UnsupportedRateError):
            phi_inv(2.0, 1.0)

    def test_nondecreasing(self):
        for alpha in (-2.0, 0.0, 0.5, 1.0):
            vals = [phi(alpha, s) for s in np.linspace(0, 50, 101)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_mutually_inverse(self):
        rng = np.random.default_rng(22)
        for alpha in (-3.0, -1.0, 0.0, 0.5, 1.0):
            for s in np.exp(rng.uniform(0.0, np.log(1e6), 50)):
                assert phi_inv(alpha, phi(alpha, s)) == pytest.approx(s, rel=1e-10)

    def test_log_branch_domain(self):
        with pytest.raises(ValueError):
            phi_inv(1.0, -0.1)


class TestOutOfRange:
    """Python float powers that overflow are refused by name, never raised bare; NaN is refused as an argument."""

    @pytest.mark.parametrize("call, match", [
        (lambda: phi(-1.0, 1e300), r"phi\(s\), s = 1e\+300, at alpha = -1\.0 overflows"),
        (lambda: phi(-1000.0, 31), r"s = 31, at alpha = -1000\.0 overflows"),
        (lambda: phi_inv(0.9, 1e300), r"phi_inv\(t\), t = 1e\+300, at alpha = 0\.9 overflows"),
        (lambda: phi_inv(1.0, 1000.0), r"t = 1000\.0, at alpha = 1\.0 overflows"),
        (lambda: comparison_constants(2000.0, DiagonalPattern(2, 1)),
         r"pattern \(2, 1\) at alpha = 2000\.0 overflow"),
        (lambda: comparison_constants(-2000.0, DiagonalPattern(1, 3)),
         r"pattern \(1, 3\) at alpha = -2000\.0 underflow"),
    ])
    def test_overflow_is_a_numerical_error(self, call, match):
        with pytest.raises(NumericalError, match=match) as info:
            call()
        assert not isinstance(info.value, InputError)

    @pytest.mark.parametrize("call", [
        lambda: phi(0.0, float("nan")),
        lambda: phi(1.0, float("nan")),
        lambda: phi_inv(0.0, float("nan")),
        lambda: phi_inv(1.0, float("nan")),
    ])
    def test_nan_is_refused(self, call):
        with pytest.raises(ArgumentError, match="t >= 0|s >= 0"):
            call()

    def test_largest_values_still_computed(self):
        assert phi(-1.0, 1e150) == 1e150 ** 2.0
        assert phi_inv(1.0, 709.0) == math.exp(709.0)
        assert comparison_constants(1000.0, DiagonalPattern(2, 1)).c1 == 2.0 ** 1000
        assert comparison_constants(-1000.0, DiagonalPattern(2, 1)).c2 == 2.0 ** -1000


class TestBeta:
    def test_values(self):
        assert beta_of_alpha(1.0) == 0.0
        assert beta_of_alpha(0.0) == -1.0
        assert beta_of_alpha(-1.0) == -3.0
        assert beta_of_alpha(2.0) == 1.0
        assert beta_of_alpha(0.5) == -0.5


class TestKernel:
    def test_hardy_at_zero(self):
        assert kernel_norm_sq(0.0, 0.0) == 1.0

    def test_hardy_geometric(self):
        assert kernel_norm_sq(0.0, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-11)
        r = 0.8
        assert kernel_norm_sq(0.0, r * 1j) == pytest.approx(1 / (1 - r**2), rel=1e-11)

    def test_bergman_squared_geometric(self):
        r = 0.5
        assert kernel_norm_sq(-1.0, r) == pytest.approx(1 / (1 - r**2) ** 2, rel=1e-11)

    def test_divergent(self):
        with pytest.raises(DivergentKernelError):
            kernel_norm_sq(0.0, 1.0)

    @pytest.mark.parametrize("w", [float("nan"), complex(float("nan"), 0.0), complex(0.0, float("inf"))])
    def test_point_not_inside_the_disk_is_refused(self, w):
        with pytest.raises(DivergentKernelError, match=r"kernel norm needs \|w\| < 1"):
            kernel_norm_sq(0.0, w)

    def test_tolerance_is_respected(self):
        loose = kernel_norm_sq(1.0, 0.9, tol=1e-4)
        tight = kernel_norm_sq(1.0, 0.9, tol=1e-13)
        assert abs(loose - tight) < 2e-4

    @pytest.mark.parametrize("alpha, w, tol", [(0.0, 0.5, 0.0), (1.0, 0.3, -1e-12), (0.0, 0.5, float("nan"))])
    def test_tolerance_must_be_positive(self, alpha, w, tol):
        # the stopping test t_k q_k / (1 - q_k) < tol never holds for these
        with pytest.raises(ArgumentError, match=r"\btol\b"):
            kernel_norm_sq(alpha, w, tol=tol)

    @staticmethod
    def loop(alpha, r2, tol=1e-12):
        # the loop the chunked sums replaced: same terms, same stopping index
        total, k, term = 0.0, 0, 1.0
        while True:
            total += term
            q = ((k + 2.0) / (k + 1.0)) ** abs(alpha) * r2
            if q < 1.0 and term * q / (1.0 - q) < tol:
                return total
            k += 1
            term = (k + 1.0) ** (-alpha) * r2**k

    def test_stack_matches_the_term_loop(self):
        loop = self.loop
        rng = np.random.default_rng(41)
        alpha = rng.uniform(-3.0, 3.0, 300)
        w = rng.uniform(0.0, 0.98, 300) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 300))
        stacked = _kernel_norms_sq(alpha, w)
        for a, z, got in zip(alpha, w, stacked):
            assert got == kernel_norm_sq(a, z)
            assert got == pytest.approx(loop(a, abs(z) ** 2), rel=1e-14)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 2.0])
    def test_long_sums_match_the_term_loop(self, alpha):
        # about 1.8e5 terms at alpha = 0: many passes at the capped chunk length
        w = 0.9999 * np.exp(0.3j)
        got = kernel_norm_sq(alpha, w)
        assert got == pytest.approx(self.loop(alpha, abs(w) ** 2), rel=1e-12)
        assert np.array_equal(_kernel_norms_sq([alpha, alpha], [w, 0.5]), [got, kernel_norm_sq(alpha, 0.5)])

    def test_memory_does_not_grow_with_the_terms(self):
        # about 1.4e6 terms; unbounded doubling would hold chunks of 2^20 terms
        tracemalloc.start()
        try:
            got = kernel_norm_sq(0.0, 0.99999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(1.0 / (1.0 - 0.99999**2), rel=1e-10)
        assert peak < 4 << 20

    def test_overflowing_terms_raise(self):
        with pytest.raises(NumericalError, match="alpha = 2000.0"):
            kernel_norm_sq(2000.0, 0.5)
        with pytest.raises(NumericalError, match="alpha = -2000.0"):
            kernel_norm_sq(-2000.0, 0.5)


class TestComparisonConstants:
    def test_isometric_pattern(self):
        cc = comparison_constants(0.73, DiagonalPattern(1, 1))
        assert (cc.c1, cc.c2) == (1.0, 1.0)

    def test_examples(self):
        cc = comparison_constants(1.0, DiagonalPattern(2, 1))
        assert (cc.c1, cc.c2) == (2.0, 1.0)
        cc = comparison_constants(-1.0, DiagonalPattern(2, 3))
        assert cc.c1 == 1.0
        assert cc.c2 == pytest.approx(1 / 6, rel=1e-15)

    def test_ordering_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            cc = comparison_constants(
                float(rng.uniform(-3, 3)),
                DiagonalPattern(int(rng.integers(1, 5)), int(rng.integers(1, 5))),
            )
            assert 0 < cc.c2 <= 1.0 <= cc.c1


class TestLiftIsometry:
    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_exact(self, alpha):
        rng = np.random.default_rng(24)
        for _ in range(40):
            F = random_one_var(rng)
            f = lift(F, DiagonalPattern(1, 1))
            assert norm2(f, alpha) == pytest.approx(norm1(F, 2 * alpha), rel=1e-13)


class TestInequalitySuites:
    """Randomized structural inequalities; zero violations expected."""

    @pytest.mark.parametrize(
        "name", ["restriction", "separable", "polyextraction", "slice"]
    )
    def test_suite(self, name):
        result = run_suite(name, trials=500, seed=7)
        assert result.passed, f"{name}: {result.violations} violations, worst {result.worst}"

    @pytest.mark.parametrize("trials", [0, -5])
    def test_vacuous_run_refused(self, trials):
        with pytest.raises(InputError):
            run_suite("slice", trials=trials, seed=7)

    def test_negative_seed_refused(self):
        with pytest.raises(ArgumentError, match="seed=-1"):
            run_suite("slice", trials=1, seed=-1)

    @pytest.mark.parametrize("trials", [1, BLOCK, BLOCK + 1, 500])
    @pytest.mark.parametrize("seed", [7, 11, 2024])
    @pytest.mark.parametrize("name", available_suites())
    def test_blocks_match_the_per_trial_loop(self, name, seed, trials):
        want, side, violated = reference_suite_margins(name, trials, seed)
        got = np.concatenate([margin for margin, _ in suites._MARGINS[name](trials, seed)])
        result = run_suite(name, trials=trials, seed=seed)
        assert result.violations == np.count_nonzero(violated)
        if name in ("separable", "comparison"):
            # identities: the printed worst margin is a rounding discrepancy
            assert np.array_equal(got, want)
            assert result.worst == min(0.0, float(want.min()))
        else:
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(side, 1.0))

    def test_violation_is_counted(self, monkeypatch):
        restrict_stack = suites._diag_restrict
        monkeypatch.setattr(suites, "_diag_restrict", lambda x: 1e3 * restrict_stack(x))
        result = run_suite("restriction", trials=BLOCK + 1, seed=7)
        assert not result.passed
        assert result.violations == BLOCK + 1
        assert result.worst < 0.0

    def test_identity_suites_leave_the_weight_cache_alone(self):
        # each trial draws a fresh alpha; cached tables would only be evicted
        before = _weight_table.cache_info().misses
        for name in ("separable", "comparison"):
            run_suite(name, trials=500, seed=7)
        assert _weight_table.cache_info().misses == before

    def test_comparison_suite_per_pattern(self):
        # patterns rotate round-robin, so 1800 trials is 200 per pattern
        result = run_suite("comparison", trials=1800, seed=7)
        assert result.passed, f"{result.violations} violations, worst {result.worst}"
