"""Gram assembly, optimal solves, explicit constructions, certificates."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from bidisk import approximants
from bidisk.approximants import (
    BasisSpec,
    cesaro,
    closed_form_twisted,
    diagonal_reduce_solve,
    gram_assemble,
    perturbation_check,
    residual_norm_sq,
    riesz_approximant,
    riesz_diagonal,
    solve_optimal,
)
from bidisk.errors import (
    BasisSizeError,
    ConditioningError,
    GridSizeError,
    NumericalError,
    PatternViolationError,
    SingularReciprocalError,
    UnsupportedRateError,
)
from bidisk.series import (
    DiagonalPattern,
    OneVarSeries,
    TwoVarSeries,
    constant2,
    lift,
    monomial2,
    multiply2,
    restrict,
    separable,
)
from bidisk.spaces import AlphaWeight, PatternWeight, inner2, norm2

from oracles import (
    brute_gram_dist_sq,
    onevar_one_minus_z_dist_sq,
    random_two_var,
    reference_gram_band,
    separable_dist_sq,
)

F_DIAG = TwoVarSeries.from_terms({(0, 0): 1, (1, 1): -1})
F_PROD = separable(OneVarSeries([1, -1]), OneVarSeries([1, -1]))
F_ONEVAR = OneVarSeries([1, -1])
PAT11 = DiagonalPattern(1, 1)


class TestBasisSpec:
    def test_full_ordering(self):
        idx = BasisSpec.full(1).indices2()
        assert idx == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_diagonal_indices(self):
        idx = BasisSpec.diagonal(6, DiagonalPattern(2, 3)).indices2()
        assert idx == [(0, 0), (2, 3), (4, 6)]

    def test_onevar_indices(self):
        assert BasisSpec.onevar(2).indices1() == [0, 1, 2]
        assert BasisSpec.onevar(2).indices2() == [(0, 0), (1, 0), (2, 0)]

    def test_cap(self):
        with pytest.raises(BasisSizeError):
            gram_assemble(F_DIAG, 0.0, BasisSpec.full(100))


class TestGramAssemble:
    def test_identity_function(self):
        gs = gram_assemble(constant2(1.0), 0.3, BasisSpec.full(0))
        assert np.allclose(gs.matrix, [[1.0]])
        assert np.allclose(gs.rhs, [1.0])

    def test_onevar_hardy(self):
        gs = gram_assemble(F_ONEVAR, 0.0, BasisSpec.onevar(1))
        assert np.allclose(gs.matrix, [[2, -1], [-1, 2]])
        assert np.allclose(gs.rhs, [1, 0])

    def test_diagonal_isometric_image(self):
        gs = gram_assemble(F_DIAG, 0.0, BasisSpec.diagonal(1, PAT11))
        assert np.allclose(gs.matrix, [[2, -1], [-1, 2]])
        assert np.allclose(gs.rhs, [1, 0])

    def test_invariants_random(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            f = random_two_var(rng, max_deg=3)
            alpha = float(rng.uniform(-1.5, 1.5))
            gs = gram_assemble(f, alpha, BasisSpec.full(2))
            G = gs.matrix
            assert np.max(np.abs(G - G.conj().T)) <= 1e-12 * np.max(np.abs(G))
            assert np.min(np.linalg.eigvalsh(G)) >= -1e-10 * np.max(np.abs(G))
            nz = np.nonzero(np.abs(gs.rhs) > 0)[0]
            assert len(nz) <= 1
            if len(nz):
                assert gs.basis[nz[0]] == (0, 0)
                assert gs.rhs[nz[0]] == np.conj(f.coeffs[0, 0])

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            f = random_two_var(rng, max_deg=2)
            alpha = float(rng.uniform(-1, 1))
            b = BasisSpec.full(2)
            gs = gram_assemble(f, alpha, b)
            for i, mi in enumerate(gs.basis):
                for j, mj in enumerate(gs.basis):
                    direct = inner2(
                        multiply2(monomial2(*mj), f), multiply2(monomial2(*mi), f), alpha
                    )
                    assert abs(gs.matrix[i, j] - direct) <= 1e-12 * (1 + abs(direct))

    @pytest.mark.parametrize("basis", [
        BasisSpec.full(3),
        BasisSpec.diagonal(9, DiagonalPattern(2, 3)),
        BasisSpec.onevar(5),
    ])
    def test_banded_assembly_matches_pairwise_products(self, basis):
        # f with interior zeros, so only some coefficient pairs overlap
        with_holes = TwoVarSeries.from_terms(
            {(0, 0): 1.5, (0, 2): -0.5j, (2, 0): 0.25, (2, 3): -1.0 + 0.5j}
        )
        rng = np.random.default_rng(37)
        for f in (with_holes, random_two_var(rng, max_deg=3), random_two_var(rng, max_deg=3)):
            alpha = float(rng.uniform(-1, 1))
            gs = gram_assemble(f, alpha, basis)
            assert gs.basis == tuple(basis.indices2())
            mults = [multiply2(monomial2(*m), f) for m in gs.basis]
            G = gs.matrix
            for i, mi in enumerate(mults):
                for j, mj in enumerate(mults):
                    direct = inner2(mj, mi, alpha)
                    assert abs(G[i, j] - direct) <= 1e-12 * (1 + abs(direct))
            assert gs.rhs == pytest.approx([inner2(constant2(1.0), m, alpha) for m in mults])
            u = gs.band.shape[0] - 1
            assert np.all(np.triu(G, u + 1) == 0.0)
            oracle, _ = brute_gram_dist_sq(f, alpha, gs.basis)
            assert solve_optimal(f, alpha, basis).residual_sq == pytest.approx(oracle, abs=1e-10)

    def test_one_variable_problem_is_one_column(self):
        rng = np.random.default_rng(38)
        for _ in range(5):
            F = OneVarSeries(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            F = OneVarSeries(F.coeffs * np.array([1, 0, 1, 1]))  # an interior zero
            alpha = float(rng.uniform(-1, 1))
            gs = gram_assemble(F, alpha, BasisSpec.onevar(6))
            assert gs.basis == tuple(range(7))
            column = TwoVarSeries(F.coeffs[:, None])
            mults = [multiply2(monomial2(k, 0), column) for k in gs.basis]
            for i, mi in enumerate(mults):
                for j, mj in enumerate(mults):
                    direct = inner2(mj, mi, alpha)
                    assert abs(gs.matrix[i, j] - direct) <= 1e-12 * (1 + abs(direct))
            oracle, _ = brute_gram_dist_sq(column, alpha, [(k, 0) for k in gs.basis])
            res = solve_optimal(F, alpha, BasisSpec.onevar(6))
            assert isinstance(res.p, OneVarSeries)
            assert res.residual_sq == pytest.approx(oracle, abs=1e-10)

    def test_condition_estimate_without_overflow_on_subnormal_solves(self):
        # past n ~ 1030 the solves behind the estimate have entries below the
        # smallest normal number, where y / |y| overflows
        f, basis = OneVarSeries([1, -0.5]), BasisSpec.onevar(1100)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            estimate = solve_optimal(f, 0.0, basis).cond_estimate
        exact = np.linalg.cond(gram_assemble(f, 0.0, basis).matrix, 1)
        assert exact / 10 <= estimate <= exact * (1 + 1e-8)

    def test_condition_estimate_brackets_one_norm_condition(self):
        rng = np.random.default_rng(39)
        for basis in (BasisSpec.full(3), BasisSpec.onevar(8), BasisSpec.full(0)):
            for _ in range(10):
                f = random_two_var(rng, max_deg=3)
                alpha = float(rng.uniform(-1, 1))
                exact = np.linalg.cond(gram_assemble(f, alpha, basis).matrix, 1)
                estimate = solve_optimal(f, alpha, basis).cond_estimate
                assert exact / 10 <= estimate <= exact * (1 + 1e-8)


def random_with_holes(rng, shape):
    """Random complex coefficients with about a third of them zero, not all."""
    grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    grid *= rng.random(shape) > 0.35
    if not grid.any():
        grid.flat[-1] = 1.0 - 0.5j
    return grid


class TestLatticeAssembly:
    """The lattice-box band equals the position-lookup band bit for bit."""

    def random_problems(self, rng):
        """One problem of every kind: (f, space parameter or weight, basis)."""
        n = int(rng.integers(0, 13))
        alpha = float(rng.uniform(-2.0, 2.0))
        pat = DiagonalPattern(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        two = TwoVarSeries(random_with_holes(rng, tuple(rng.integers(1, 5, 2))))
        one = OneVarSeries(random_with_holes(rng, int(rng.integers(1, 7))))
        return [
            (two, alpha, BasisSpec.full(n)),
            (one, alpha, BasisSpec.onevar(n)),
            (two, alpha, BasisSpec.onevar(n)),
            (two, alpha, BasisSpec.diagonal(n, pat)),
            (one, PatternWeight(AlphaWeight(alpha), pat), BasisSpec.onevar(n)),
        ]

    def test_band_and_rhs_equal_reference(self):
        rng = np.random.default_rng(90)
        checked = set()
        for _ in range(60):
            for f, a, b in self.random_problems(rng):
                gs = gram_assemble(f, a, b)
                band, rhs = reference_gram_band(f, a, b)
                assert gs.band.shape == band.shape
                assert np.array_equal(gs.band, band)
                assert np.array_equal(gs.rhs, rhs)
                checked.add((b.kind, isinstance(f, OneVarSeries), isinstance(a, PatternWeight)))
        assert len(checked) == 5

    def test_orders_below_the_degree_of_f(self):
        f = TwoVarSeries(random_with_holes(np.random.default_rng(91), (5, 4)))
        for n in range(4):
            for b in (BasisSpec.full(n), BasisSpec.onevar(n), BasisSpec.diagonal(n, PAT11)):
                gs = gram_assemble(f, 0.5, b)
                band, rhs = reference_gram_band(f, 0.5, b)
                assert np.array_equal(gs.band, band) and np.array_equal(gs.rhs, rhs)

    @pytest.mark.parametrize("basis", [
        BasisSpec.full(4),
        BasisSpec.onevar(6),
        BasisSpec.diagonal(7, DiagonalPattern(2, 3)),
        BasisSpec.diagonal(5, DiagonalPattern(3, 1)),
    ])
    def test_lattice_lists_the_basis(self, basis):
        lattice = basis.lattice()
        e = lattice.exponents()
        assert e.tolist() == [list(m) for m in basis.indices2()]
        assert len(e) == (lattice.A + 1) * (lattice.C + 1)

    def test_band_norm1_matches_row_loop(self):
        def loop(band):
            u = band.shape[0] - 1
            mags = np.abs(band)
            sums = mags.sum(axis=0)
            for d in range(1, u + 1):
                sums[:-d] += mags[u - d, d:]
            return float(sums.max())

        rng = np.random.default_rng(92)
        for _ in range(200):
            u, size = int(rng.integers(0, 40)), int(rng.integers(1, 300))
            band = rng.standard_normal((u + 1, size)) + 1j * rng.standard_normal((u + 1, size))
            band *= 10.0 ** rng.uniform(-8, 8, (u + 1, size))
            assert approximants._band_norm1(band) == loop(band)


class TestRidge:
    def test_ridge_recorded_after_failed_factorization(self, monkeypatch):
        real = scipy.linalg.cholesky_banded
        calls = []

        def fail_once(band, *args, **kwargs):
            calls.append(band)
            if len(calls) == 1:
                raise scipy.linalg.LinAlgError("forced failure")
            return real(band, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cholesky_banded", fail_once)
        res = solve_optimal(F_PROD, 0.0, BasisSpec.full(3))
        trace = np.trace(gram_assemble(F_PROD, 0.0, BasisSpec.full(3)).matrix).real
        assert len(calls) == 2
        assert res.ridge == pytest.approx(1e-12 * trace / 16, rel=1e-12)
        assert res.residual_sq == pytest.approx(separable_dist_sq(0.0, 3), abs=1e-9)

    def test_no_ridge_when_factorization_succeeds(self):
        assert solve_optimal(F_PROD, 0.0, BasisSpec.full(3)).ridge == 0.0
        assert diagonal_reduce_solve(F_DIAG, 0.5, 6, PAT11).ridge == 0.0

    def test_refusal_names_order_and_ridge(self, monkeypatch):
        def always_fail(band, *args, **kwargs):
            raise scipy.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(scipy.linalg, "cholesky_banded", always_fail)
        with pytest.raises(ConditioningError, match=r"order n=3 .*ridge \d"):
            solve_optimal(F_PROD, 0.0, BasisSpec.full(3))


class TestBandedSolve:
    def test_direct_solve_equals_cho_solve_banded(self):
        rng = np.random.default_rng(93)
        for f, b in ((F_PROD, BasisSpec.full(5)), (F_ONEVAR, BasisSpec.onevar(40))):
            gs = gram_assemble(f, float(rng.uniform(-1, 1)), b)
            factor = scipy.linalg.cholesky_banded(gs.band)
            size = gs.band.shape[1]
            for x in (gs.rhs, rng.standard_normal(size),
                      rng.standard_normal(size) + 1j * rng.standard_normal(size)):
                y, info = approximants._pbtrs(factor, x)
                assert info == 0
                assert np.array_equal(y, scipy.linalg.cho_solve_banded((factor, False), x))

    def test_failed_solve_names_the_order(self, monkeypatch):
        monkeypatch.setattr(approximants, "_pbtrs", lambda factor, x: (x, -2))
        with pytest.raises(NumericalError, match=r"order n=7 .*info -2"):
            solve_optimal(F_ONEVAR, 0.5, BasisSpec.onevar(7))
        with pytest.raises(NumericalError, match=r"order n=6 "):
            diagonal_reduce_solve(F_DIAG, 0.5, 6, PAT11)


class TestSolveOptimal:
    def test_onevar_order_zero(self):
        res = solve_optimal(F_ONEVAR, 0.0, BasisSpec.onevar(0))
        assert res.p.coeffs[0] == pytest.approx(0.5, abs=1e-14)
        assert res.residual_sq == pytest.approx(0.5, abs=1e-14)

    def test_full_order_one_exact_third(self):
        res = solve_optimal(F_DIAG, 0.0, BasisSpec.full(1))
        assert res.residual_sq == pytest.approx(1.0 / 3.0, abs=1e-12)
        # independent check: free search over the 4 complex coefficients
        def objective(x):
            p = TwoVarSeries((x[:4] + 1j * x[4:]).reshape(2, 2))
            return residual_norm_sq(p, F_DIAG, 0.0)

        best = scipy.optimize.minimize(objective, np.zeros(8), method="BFGS").fun
        assert best == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_exact_inversion(self):
        res = solve_optimal(constant2(1.0), 0.7, BasisSpec.full(2))
        assert res.residual_sq <= 1e-20
        assert res.p.isclose(constant2(1.0))

    def test_residual_in_unit_interval(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            f = random_two_var(rng, max_deg=3)
            res = solve_optimal(f, float(rng.uniform(-1, 1)), BasisSpec.full(2))
            assert -1e-12 <= res.residual_sq <= 1.0 + 1e-12

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            f = random_two_var(rng, max_deg=3)
            alpha = float(rng.uniform(-1, 1))
            b = BasisSpec.full(3)
            res = solve_optimal(f, alpha, b)
            oracle, _ = brute_gram_dist_sq(f, alpha, b.indices2())
            assert res.residual_sq == pytest.approx(oracle, abs=1e-10)

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            solve_optimal(TwoVarSeries([[0.0]]), 0.0, BasisSpec.full(1))


class TestRiesz:
    def test_first_order(self):
        p = riesz_approximant(F_DIAG, 0.0, 1)
        assert p.isclose(TwoVarSeries([[1, 0], [0, 0.5]]))
        assert residual_norm_sq(p, F_DIAG, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_order_zero_is_reciprocal_constant(self):
        f = 2.0 * F_DIAG
        for alpha in (-1.0, 0.5, 1.0):
            p = riesz_approximant(f, alpha, 0)
            assert p.isclose(constant2(0.5))

    def test_unsupported_alpha(self):
        with pytest.raises(UnsupportedRateError):
            riesz_approximant(F_DIAG, 1.5, 3)

    def test_singular_reciprocal_propagates(self):
        with pytest.raises(SingularReciprocalError):
            riesz_approximant(TwoVarSeries([[0, 1], [1, 0]]), 0.0, 2)

    def test_cesaro_equals_riesz_at_zero(self):
        assert cesaro(F_DIAG, 1) == riesz_approximant(F_DIAG, 0.0, 1)
        assert cesaro(constant2(1.0), 4).isclose(constant2(1.0))

    def test_cesaro_product(self):
        p = cesaro(F_PROD, 1)
        assert p.isclose(TwoVarSeries([[1, 0.5], [0.5, 0.5]]))

    def test_residual_norm_examples(self):
        assert residual_norm_sq(constant2(0.0), F_DIAG, 0.25) == pytest.approx(1.0)
        # an exact reciprocal leaves no residual
        assert residual_norm_sq(constant2(0.5), constant2(2.0), 0.7) == 0.0
        assert residual_norm_sq(cesaro(F_DIAG, 1), F_DIAG, 0.0) == pytest.approx(0.5)


class TestDiagonalReduce:
    def test_matches_isometric_oracle(self):
        for n in range(11):
            res = diagonal_reduce_solve(F_DIAG, 0.0, n, PAT11)
            assert res.residual_sq == pytest.approx(1.0 / (n + 2), abs=1e-12)

    def test_small_pattern_21(self):
        f = TwoVarSeries.from_terms({(0, 0): 1, (2, 1): -1})
        res = diagonal_reduce_solve(f, 0.0, 2, DiagonalPattern(2, 1))
        assert res.residual_sq == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_exact_inversion(self):
        res = diagonal_reduce_solve(constant2(1.0), 0.5, 4, PAT11)
        assert res.residual_sq <= 1e-20

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5])
    def test_agrees_with_full_solve(self, alpha):
        for f, pat in (
            (F_DIAG, PAT11),
            (TwoVarSeries.from_terms({(0, 0): 1, (2, 3): -1}), DiagonalPattern(2, 3)),
        ):
            for n in (3, 6, 10):
                full = solve_optimal(f, alpha, BasisSpec.full(n))
                red = diagonal_reduce_solve(f, alpha, n, pat)
                assert abs(full.residual_sq - red.residual_sq) <= 1e-9

    @pytest.mark.parametrize("alpha", [-1.0, -0.25, 0.5, 1.0])
    def test_isometry_path_matches_direct_gram(self, alpha):
        # one-variable route vs. a dense solve of the explicit two-variable diagonal system
        for n in (4, 9):
            via_onevar = diagonal_reduce_solve(F_DIAG, alpha, n, PAT11)
            gram = gram_assemble(F_DIAG, alpha, BasisSpec.diagonal(n, PAT11))
            c = np.linalg.solve(gram.matrix, gram.rhs)
            p = TwoVarSeries.from_terms(dict(zip(gram.basis, c)))
            direct = residual_norm_sq(p, F_DIAG, alpha)
            assert abs(via_onevar.residual_sq - direct) <= 1e-10
            oracle = onevar_one_minus_z_dist_sq(2.0 * alpha, n)
            assert via_onevar.residual_sq == pytest.approx(oracle, rel=1e-10)


class TestDispatch:
    """``solve_optimal`` alone chooses between the pattern path and the lattice path."""

    def test_off_pattern_f_on_a_diagonal_basis_solves_the_lattice(self):
        for MN in ((1, 1), (2, 3)):
            for n in (2, 4, 7):
                b = BasisSpec.diagonal(n, DiagonalPattern(*MN))
                res = solve_optimal(F_PROD, 0.0, b)
                assert res.pattern is None and res.basis_kind == "diagonal"
                assert res.basis == tuple(b.indices2())
                oracle, _ = brute_gram_dist_sq(F_PROD, 0.0, b.indices2())
                assert res.residual_sq == pytest.approx(oracle, rel=1e-12)
        # the value of the diagonal span, above the full-basis optimum
        res = solve_optimal(F_PROD, 0.0, BasisSpec.diagonal(4, PAT11))
        assert res.residual_sq == pytest.approx(0.73205128205128, rel=1e-13)
        assert res.residual_sq > solve_optimal(F_PROD, 0.0, BasisSpec.full(4)).residual_sq
        # the public pattern solve still refuses it
        with pytest.raises(PatternViolationError):
            diagonal_reduce_solve(F_PROD, 0.0, 4, PAT11)

    def test_public_solves_do_not_call_each_other(self, monkeypatch):
        # a tracer that wraps both names must see one span per solve
        def refuse(*args, **kwargs):
            raise AssertionError("one public solve called the other")

        monkeypatch.setattr(approximants, "diagonal_reduce_solve", refuse)
        solve_optimal(F_DIAG, 0.5, BasisSpec.diagonal(6, PAT11))
        monkeypatch.undo()
        monkeypatch.setattr(approximants, "solve_optimal", refuse)
        diagonal_reduce_solve(F_DIAG, 0.5, 6, PAT11)

    def test_lattice_grid_refused_before_assembly(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("reached assembly")

        monkeypatch.setattr(approximants, "gram_assemble", refuse)
        with pytest.raises(GridSizeError, match=r"order n=5000\b"):
            solve_optimal(F_PROD, 0.0, BasisSpec.diagonal(5000, PAT11))
        # a 4096 x 4096 grid is at the cap, so order 4095 passes the check
        with pytest.raises(AssertionError, match="reached assembly"):
            solve_optimal(F_PROD, 0.0, BasisSpec.diagonal(4095, PAT11))
        monkeypatch.undo()
        # on the pattern no two-variable grid is built, so the same order solves
        res = solve_optimal(F_DIAG, 0.0, BasisSpec.diagonal(5000, PAT11))
        assert res.residual_sq == pytest.approx(1.0 / 5002, rel=1e-9)


PATTERNS = [(1, 1), (2, 3), (3, 1), (2, 1)]


def random_pattern_series(rng, pat, deg=3):
    """``F(z1^M z2^N)`` for a random complex ``F`` of degree ``deg``."""
    return lift(OneVarSeries(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)),
                pat)


def two_variable_pairing(p, f, alpha, basis):
    """``max_i |<p f - 1, m_i f>|`` by explicit two-variable products."""
    r = multiply2(p, f) - 1.0
    return max(abs(inner2(r, multiply2(monomial2(k, l), f), alpha)) for k, l in basis)


class TestPatternNativeSolve:
    """Diagonal solves run and are certified on the pattern; the 2-D checks stay independent."""

    @pytest.mark.parametrize("MN", PATTERNS)
    @pytest.mark.parametrize("alpha", [-1.0, -0.25, 0.5, 1.0])
    def test_matches_two_variable_residual_and_pairing(self, MN, alpha):
        pat = DiagonalPattern(*MN)
        rng = np.random.default_rng(60 + 7 * MN[0] + MN[1])
        for n in (0, 5, 13):
            f = random_pattern_series(rng, pat)
            res = diagonal_reduce_solve(f, alpha, n, pat)
            assert res.basis == tuple((pat.M * k, pat.N * k) for k in range(n // max(MN) + 1))
            assert res.residual_sq == pytest.approx(residual_norm_sq(res.p, f, alpha), rel=1e-12)
            pairing = two_variable_pairing(res.p, f, alpha, res.basis)
            assert abs(res.ortho_residual - pairing) <= 1e-14 * norm2(f, alpha) ** 2

    @pytest.mark.parametrize("MN", PATTERNS)
    def test_certificate_off_the_optimum(self, MN):
        # for any p, the pattern residual and pairing equal the 2-D ones
        pat = DiagonalPattern(*MN)
        rng = np.random.default_rng(70 + MN[0])
        for alpha in (-1.0, 0.5):
            F = OneVarSeries(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            P = OneVarSeries(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            pw = PatternWeight(AlphaWeight(alpha), pat)
            res_sq, ortho = approximants._certify(
                P, F, pw, approximants._exponents(range(5), True),
                n=4, ridge=0.0, cond=1.0, ortho_tol=np.inf,
            )
            p, f = lift(P, pat), lift(F, pat)
            assert res_sq == pytest.approx(residual_norm_sq(p, f, alpha), rel=1e-12)
            basis = [(pat.M * k, pat.N * k) for k in range(5)]
            assert ortho == pytest.approx(two_variable_pairing(p, f, alpha, basis), rel=1e-12)

    @pytest.mark.parametrize("MN", PATTERNS)
    def test_pattern_gram_equals_diagonal_basis_gram(self, MN):
        pat = DiagonalPattern(*MN)
        f = random_pattern_series(np.random.default_rng(80), pat)
        for alpha in (-1.0, 0.5, 1.0):
            n = 4 * max(MN)
            direct = gram_assemble(f, alpha, BasisSpec.diagonal(n, pat))
            native = gram_assemble(
                restrict(f, pat), PatternWeight(AlphaWeight(alpha), pat), BasisSpec.onevar(4)
            )
            scale = np.max(np.abs(direct.matrix))
            assert np.max(np.abs(native.matrix - direct.matrix)) <= 1e-14 * scale
            assert np.allclose(native.rhs, direct.rhs, rtol=0.0, atol=0.0)

    def test_pattern_11_is_doubled_alpha(self):
        for alpha in (-1.0, 0.25, 1.0):
            pw = PatternWeight(AlphaWeight(alpha), PAT11)
            assert np.allclose(pw.weights(50), AlphaWeight(2 * alpha).weights(50), rtol=1e-15)
        assert PatternWeight(AlphaWeight(0.7), DiagonalPattern(2, 3)).weights(0).tolist() == [1.0]

    @pytest.mark.parametrize("MN", [(1, 1), (2, 3)])
    def test_no_two_variable_product(self, monkeypatch, MN):
        def refuse(*args):
            raise AssertionError("diagonal solves must not form a two-variable product")

        pat = DiagonalPattern(*MN)
        f = TwoVarSeries.from_terms({(0, 0): 1, MN: -1})
        monkeypatch.setattr(approximants, "multiply2", refuse)
        res = diagonal_reduce_solve(f, 0.5, 12, pat)
        routed = solve_optimal(f, 0.5, BasisSpec.diagonal(12, pat))
        monkeypatch.undo()
        assert res.residual_sq == pytest.approx(residual_norm_sq(res.p, f, 0.5), rel=1e-12)
        # the dispatch sends a pattern-supported f to the same solve, bit for bit
        assert routed == res and routed.pattern == pat and routed.basis_kind == "diagonal"
        assert np.array_equal(routed.solved.coeffs, res.solved.coeffs)

    def test_one_product_per_solve(self, monkeypatch):
        calls = []
        for name in ("multiply1", "multiply2"):
            original = getattr(approximants, name)

            def counted(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(approximants, name, counted)
        solve_optimal(F_PROD, 0.5, BasisSpec.full(4))
        assert calls == ["multiply2"]
        calls.clear()
        solve_optimal(F_ONEVAR, 0.5, BasisSpec.onevar(6))
        assert calls == ["multiply1"]
        calls.clear()
        diagonal_reduce_solve(F_DIAG, 0.5, 6, PAT11)
        assert calls == ["multiply1"]


class TestLazyLift:
    """Diagonal results keep the one-variable solution; ``p`` is lifted when read."""

    @pytest.mark.parametrize("MN", [(1, 1), (2, 3), (3, 1)])
    def test_p_is_the_lifted_solution(self, MN):
        pat = DiagonalPattern(*MN)
        rng = np.random.default_rng(90 + 7 * MN[0] + MN[1])
        for n in (0, 7, 20):
            f = random_pattern_series(rng, pat)
            res = diagonal_reduce_solve(f, 0.25, n, pat)
            m = n // max(MN)
            assert res.pattern == pat
            assert isinstance(res.solved, OneVarSeries) and res.solved.deg == m
            assert res.solved_basis == tuple(range(m + 1))
            assert isinstance(res.p, TwoVarSeries)
            assert res.p.coeffs.shape == (pat.M * m + 1, pat.N * m + 1)
            assert np.array_equal(res.p.coeffs, lift(res.solved, pat).coeffs)
            assert res.basis == tuple((pat.M * k, pat.N * k) for k in range(m + 1))
            assert all(type(k) is int and type(l) is int for k, l in res.basis)

    def test_other_kinds_return_what_they_solved(self):
        for res in (solve_optimal(F_PROD, 0.5, BasisSpec.full(3)),
                    solve_optimal(F_ONEVAR, 0.5, BasisSpec.onevar(5))):
            assert res.pattern is None
            assert res.p is res.solved
            assert res.basis is res.solved_basis

    def test_p_is_built_once(self, monkeypatch):
        calls = []

        def counted(*args, _lift=approximants.lift):
            calls.append(args)
            return _lift(*args)

        monkeypatch.setattr(approximants, "lift", counted)
        res = diagonal_reduce_solve(F_DIAG, 0.5, 9, PAT11)
        assert calls == []
        first = res.p
        assert res.p is first
        assert len(calls) == 1

    def test_basis_is_built_when_read(self):
        gs = gram_assemble(F_PROD, 0.5, BasisSpec.full(3))
        res = solve_optimal(F_ONEVAR, 0.5, BasisSpec.onevar(5))
        assert "basis" not in vars(gs) and "solved_basis" not in vars(res)
        assert gs.basis == tuple(BasisSpec.full(3).indices2())
        assert res.solved_basis == tuple(range(6))
        assert all(type(k) is int for k in res.solved_basis)
        assert gs.basis is gs.basis and res.solved_basis is res.solved_basis


class TestClosedForm:
    def test_small_values(self):
        assert closed_form_twisted(0.0, 0, PAT11) == pytest.approx(1.0)
        assert closed_form_twisted(0.0, 1, PAT11) == pytest.approx(0.5)
        assert closed_form_twisted(0.0, 9, PAT11) == pytest.approx(0.1)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5])
    @pytest.mark.parametrize("MN", [(1, 1), (2, 3)])
    def test_matches_series_residual(self, alpha, MN):
        pat = DiagonalPattern(*MN)
        f = TwoVarSeries.from_terms({(0, 0): 1, (pat.M, pat.N): -1})
        for n in (0, 1, 5, 17):
            p = riesz_diagonal(f, alpha, n, pat)
            direct = residual_norm_sq(p, f, alpha)
            assert direct == pytest.approx(closed_form_twisted(alpha, n, pat), abs=1e-12)

    def test_riesz_variants_coincide_on_11(self):
        for alpha in (-1.0, 0.0, 0.5, 1.0):
            for n in (0, 2, 6):
                a = riesz_approximant(F_DIAG, alpha, n)
                b = riesz_diagonal(F_DIAG, alpha, n, PAT11)
                assert a.isclose(b), (alpha, n)

    def test_unsupported(self):
        with pytest.raises(UnsupportedRateError):
            closed_form_twisted(1.2, 4, PAT11)


class TestCertificatesAndOptimality:
    def test_orthogonality_certificate(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            f = random_two_var(rng, max_deg=3)
            alpha = float(rng.uniform(-1, 1))
            res = solve_optimal(f, alpha, BasisSpec.full(3))
            assert res.ortho_residual <= 1e-8 * norm2(f, alpha) ** 2

    def test_optimal_beats_constructions_and_random(self):
        rng = np.random.default_rng(35)
        for alpha in (-0.5, 0.0, 0.5):
            for n in (1, 3, 5):
                res = solve_optimal(F_DIAG, alpha, BasisSpec.full(n))
                for q in (
                    riesz_approximant(F_DIAG, alpha, n),
                    cesaro(F_DIAG, n),
                ):
                    assert res.residual_sq <= residual_norm_sq(q, F_DIAG, alpha) + 1e-12
                for _ in range(50):
                    coeffs = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal(
                        (n + 1, n + 1)
                    )
                    q = TwoVarSeries(coeffs)
                    assert res.residual_sq <= residual_norm_sq(q, F_DIAG, alpha) + 1e-12

    def test_perturbation_certificate(self):
        res = solve_optimal(F_PROD, 0.0, BasisSpec.full(4))
        assert perturbation_check(res, F_PROD, 0.0, seed=1) <= 1e-9
        res = diagonal_reduce_solve(F_DIAG, 0.5, 12, PAT11)
        assert perturbation_check(res, F_DIAG, 0.5, seed=2) <= 1e-9

    def test_monotone_in_order(self):
        for alpha in (-1.0, 0.0, 0.5):
            prev = np.inf
            for n in range(8):
                r = solve_optimal(F_PROD, alpha, BasisSpec.full(n)).residual_sq
                assert r <= prev + 1e-12
                prev = r
