"""Gram assembly, optimal solves, explicit constructions, certificates."""

import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from bidisk import approximants, series
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
    riesz_orders,
    solve_optimal,
)
from bidisk.catalog import builtin_series
from bidisk.errors import (
    ArgumentError,
    BasisSizeError,
    BidiskError,
    ConditioningError,
    GridSizeError,
    NumericalError,
    PatternViolationError,
    SingularReciprocalError,
    UnsupportedRateError,
)
from bidisk.series import (
    MAX_GRID_ENTRIES,
    DiagonalPattern,
    OneVarSeries,
    TwoVarSeries,
    constant2,
    lift,
    monomial2,
    multiply2,
    reciprocal1,
    reciprocal2,
    restrict,
    separable,
)
from bidisk.spaces import AlphaWeight, PatternWeight, as_alpha, inner2, norm2

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


def patch_lapack(monkeypatch, name, fake):
    """Route ``approximants._lapack(name)`` to ``fake(routine)``, the real routine wrapped; others stay real."""
    real = approximants._lapack
    monkeypatch.setattr(approximants, "_lapack", lambda n: fake(real(n)) if n == name else real(n))


def test_the_package_exports_every_public_function_and_class():
    import bidisk

    public = [name for name in approximants.__all__ if name != "SOLVER_CAP"]
    assert "solve_orders" in public and "riesz_orders" in public
    assert [name for name in public if getattr(bidisk, name, None) is not getattr(approximants, name)] == []


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

    def test_numpy_integer_order(self):
        b = BasisSpec(np.int64(3), "full")
        assert type(b.n) is int and b == BasisSpec.full(3)
        res = solve_optimal(F_PROD, 0.0, b)
        assert res.residual_sq == solve_optimal(F_PROD, 0.0, BasisSpec.full(3)).residual_sq

    @pytest.mark.parametrize("n", [2.5, 3.0, "3"])
    def test_non_integral_order_refused(self, n):
        with pytest.raises(ArgumentError, match=re.escape(f"n={n!r}")):
            BasisSpec(n, "full")


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


def assert_matches_reference(gs, f, a, b):
    """``gs`` against the position-lookup band: bit for bit on a lattice box.

    A diagonal basis sums the bands of its coset problems, whose weights are
    formed as one product before ``f[p]`` multiplies them, so it agrees to
    rounding.
    """
    band, rhs = reference_gram_band(f, a, b)
    assert gs.band.shape == band.shape
    assert np.array_equal(gs.rhs, rhs)
    if b.kind == "diagonal":
        assert np.max(np.abs(gs.band - band)) <= 1e-14 * np.max(np.abs(band))
    else:
        assert np.array_equal(gs.band, band)


class TestLatticeAssembly:
    """The lattice-box band equals the position-lookup band: bit for bit, a diagonal basis to rounding."""

    def random_problems(self, rng):
        """One problem of every kind: (f, space parameter or weight, basis)."""
        n = int(rng.integers(0, 13))
        alpha = float(rng.uniform(-2.0, 2.0))
        pat = DiagonalPattern(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        offset = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        two = TwoVarSeries(random_with_holes(rng, tuple(rng.integers(1, 5, 2))))
        one = OneVarSeries(random_with_holes(rng, int(rng.integers(1, 7))))
        return [
            (two, alpha, BasisSpec.full(n)),
            (one, alpha, BasisSpec.onevar(n)),
            (two, alpha, BasisSpec.onevar(n)),
            (two, alpha, BasisSpec.diagonal(n, pat)),
            (one, PatternWeight(AlphaWeight(alpha), pat, offset), BasisSpec.onevar(n)),
        ]

    def test_band_and_rhs_equal_reference(self):
        rng = np.random.default_rng(90)
        checked = set()
        for _ in range(60):
            for f, a, b in self.random_problems(rng):
                assert_matches_reference(gram_assemble(f, a, b), f, a, b)
                checked.add((b.kind, isinstance(f, OneVarSeries), isinstance(a, PatternWeight)))
        assert len(checked) == 5

    def test_orders_below_the_degree_of_f(self):
        f = TwoVarSeries(random_with_holes(np.random.default_rng(91), (5, 4)))
        for n in range(4):
            for b in (BasisSpec.full(n), BasisSpec.onevar(n), BasisSpec.diagonal(n, PAT11)):
                assert_matches_reference(gram_assemble(f, 0.5, b), f, 0.5, b)

    @pytest.mark.parametrize("basis", [
        BasisSpec.full(4),
        BasisSpec.onevar(6),
        BasisSpec.diagonal(7, DiagonalPattern(2, 3)),
        BasisSpec.diagonal(5, DiagonalPattern(3, 1)),
    ])
    def test_lattice_lists_the_basis(self, basis):
        lattice = basis.lattice()
        box = [(a, c) for a in range(lattice.A + 1) for c in range(lattice.C + 1)]
        if basis.kind == "diagonal":
            # the box of the one-variable coset problems: (a, 0) stands for a (M, N)
            assert lattice.C == 0
            pat = basis.pattern
            assert basis.indices2() == [(pat.M * a, pat.N * a) for a, _ in box]
        else:
            assert basis.indices2() == box

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
            assert approximants._band_norm1(band, tuple(range(u + 1))) == loop(band)
            if u >= size:
                # not the band of a matrix: numpy sums a single column pairwise, not row by
                # row, and skipping its zero rows could round differently
                continue
            # zero rows, as an offset table leaves them, and only the filled rows passed:
            # the diagonal row and any others, in either memory layout
            filled = tuple(sorted({u, *rng.integers(0, u + 1, int(rng.integers(0, u + 1))).tolist()}))
            band[[r for r in range(u + 1) if r not in filled]] = 0.0
            assert approximants._band_norm1(band, filled) == loop(band)
            assert approximants._band_norm1(np.asfortranarray(band), filled) == loop(band)


def pair_by_pair_band(grid, aw, lat):
    """The upper band of ``G`` assembled pair by pair, one rectangle per pair: the reference for the offset table.

    Returns the bandwidth and the band.  Every pair of nonzero coefficients
    ``f[p]``, ``f[q]``, ``p`` then ``q`` in ``argwhere`` order, finds its own
    band row and rectangle and adds ``f[p] conj(f[q])`` times the weights there.
    """
    A, C = lat
    F1, F2 = grid.shape
    w = aw.weights(max(A + F1, C + F2) - 1)
    nonzero = np.argwhere(grid).tolist()
    blocks = []
    for p1, p2 in nonzero:
        for q1, q2 in nonzero:
            da, dc = p1 - q1, p2 - q2
            a0, a1 = max(0, -da), min(A, A - da)
            c0, c1 = max(0, -dc), min(C, C - dc)
            d = -(da * (C + 1) + dc)
            if d >= 0 and a0 <= a1 and c0 <= c1:
                blocks.append((d, p1, p2, q1, q2, a0, a1, c0, c1))
    u = max((block[0] for block in blocks), default=0)
    band = np.zeros((u + 1, (A + 1) * (C + 1)), dtype=np.complex128)
    rows = band.reshape(u + 1, A + 1, C + 1)
    p = None
    for d, p1, p2, q1, q2, a0, a1, c0, c1 in blocks:
        if (p1, p2) != p:
            p = (p1, p2)
            weighted = (grid[p] * w[p1:A + p1 + 1])[:, None]
            if C + F2 > 1:
                weighted = weighted * w[None, p2:C + p2 + 1]
        rows[u - d, a0:a1 + 1, c0:c1 + 1] += weighted[a0:a1 + 1, c0:c1 + 1] * np.conj(grid[q1, q2])
    band[u].imag = 0.0
    return u, band


class TestOffsetTable:
    """The band read from the offset table is the pair-by-pair band, byte for byte."""

    def assert_band_is_pair_by_pair(self, grid, aw, lat, top=None):
        """The band over ``lat`` from the table of ``grid`` over ``top`` (default ``lat``), a box around it."""
        offsets = approximants._offsets(grid, top or lat)
        u, band = pair_by_pair_band(grid, aw, lat)
        assert approximants._rectangles(offsets, lat)[0] == u
        own = approximants._gram_band(grid, offsets, aw, lat)
        assert own.shape == band.shape and own.tobytes() == band.tobytes()

    @pytest.mark.parametrize("lat", [(0, 0), (1, 0), (7, 0), (1, 1), (2, 3), (3, 2), (9, 9)])
    def test_offsets_list_the_pairs_that_fill_the_band_in_pair_order(self, lat):
        grid = random_with_holes(np.random.default_rng(120), (4, 5))
        nonzero = [tuple(p) for p in np.argwhere(grid).tolist()]
        order = {(p, q): i for i, (p, q) in enumerate((p, q) for p in nonzero for q in nonzero)}
        A, C = lat
        table = approximants._offsets(grid, approximants.Lattice(A, C))
        offsets = [offset for offset, _ in table]
        assert len(set(offsets)) == len(offsets)
        # a pair is listed when some column of the box meets its offset in the upper band
        filling = [(p, q) for p in nonzero for q in nonzero
                   if any(0 <= a + p[0] - q[0] <= A and 0 <= c + p[1] - q[1] <= C
                          and (a + p[0] - q[0]) * (C + 1) + c + p[1] - q[1] <= a * (C + 1) + c
                          for a in range(A + 1) for c in range(C + 1))]
        flat = [pair for _, pairs in table for pair in pairs]
        assert sorted(flat) == sorted(filling)
        for (da, dc), pairs in table:
            assert all((p[0] - q[0], p[1] - q[1]) == (da, dc) for p, q in pairs)
            assert pairs == sorted(pairs, key=order.get)
        # each offset comes with its first pair
        firsts = [pairs[0] for _, pairs in table]
        assert firsts == sorted(firsts, key=order.get)

    @pytest.mark.parametrize("seed", range(6))
    def test_full_boxes(self, seed):
        rng = np.random.default_rng(130 + seed)
        grid = random_with_holes(rng, tuple(rng.integers(1, 6, 2)))
        aw = as_alpha(float(rng.uniform(-2.0, 2.0)))
        for n in range(13):
            lat = BasisSpec.full(n).lattice()
            self.assert_band_is_pair_by_pair(grid, aw, lat)
            # the table of the top box of a scan serves every box inside it
            self.assert_band_is_pair_by_pair(grid, aw, lat, BasisSpec.full(12).lattice())

    def test_boxes_narrower_than_f(self):
        # C < F2 - 1: full(1) of an f of degree 3 in z2, and lower orders of wider grids
        rng = np.random.default_rng(140)
        for shape in ((2, 4), (3, 4), (5, 6), (1, 7)):
            grid = random_with_holes(rng, shape)
            for n in range(shape[1] - 1):
                self.assert_band_is_pair_by_pair(grid, as_alpha(0.75), BasisSpec.full(n).lattice())

    def test_one_column_box_of_a_two_column_grid(self):
        # C = 0: a TwoVarSeries on a onevar basis, its second variable weighted at c = 0
        rng = np.random.default_rng(150)
        for shape in ((4, 2), (6, 3), (1, 2)):
            f = TwoVarSeries(random_with_holes(rng, shape))
            for n in (0, 1, 3, 8, 40):
                b = BasisSpec.onevar(n)
                self.assert_band_is_pair_by_pair(f.coeffs, as_alpha(-0.5), b.lattice())
                assert gram_assemble(f, -0.5, b).band.tobytes() == pair_by_pair_band(
                    f.coeffs, as_alpha(-0.5), b.lattice())[1].tobytes()

    def test_one_column_box_of_a_dense_grid_peak_memory(self):
        # one weighted row at a time: holding f[p] times the weights for all 400 nonzeros
        # at once peaked at 13.8 MB, over 21 times the band
        rng = np.random.default_rng(155)
        f = TwoVarSeries(rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20)))
        b = BasisSpec.onevar(2000)
        band_bytes = gram_assemble(f, 0.5, b).band.nbytes
        tracemalloc.start()
        try:
            gram_assemble(f, 0.5, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * band_bytes

    @pytest.mark.parametrize("pat", [PAT11, DiagonalPattern(2, 3), DiagonalPattern(3, 1)])
    def test_pattern_weight_coset_rows(self, pat):
        rng = np.random.default_rng(160 + pat.M + 7 * pat.N)
        f = TwoVarSeries(random_with_holes(rng, (6, 7)))
        for n in (0, 3, 9, 30):
            b = BasisSpec.diagonal(n, pat)
            terms = approximants._terms(f, as_alpha(0.25), b)
            assert len(terms) > 1
            for F, weight in terms:
                self.assert_band_is_pair_by_pair(approximants._grid(F), weight, b.lattice())

    def test_every_term_keeps_its_table(self):
        # three coset terms, one table each; a gathered system reads its top system's table
        gs = gram_assemble(builtin_series("product_one_minus").series, 0.0, BasisSpec.diagonal(4, PAT11))
        assert len(gs.pair_offsets) == len(gs.terms) == 3
        for (F, _), table in zip(gs.terms, gs.pair_offsets):
            assert table == approximants._offsets(approximants._grid(F), gs.lattice)
        top = gram_assemble(F_PROD, 0.5, BasisSpec.full(9))
        gathered = approximants._gather(top, BasisSpec.full(4).lattice(), np.empty(top.band.size, complex))
        assert gathered.pair_offsets is top.pair_offsets and gathered.terms is top.terms

    @pytest.mark.parametrize("f, b", [
        (F_ONEVAR, BasisSpec.onevar(4)),
        (F_PROD, BasisSpec.onevar(4)),
        (F_PROD, BasisSpec.full(3)),
        (F_PROD, BasisSpec.diagonal(6, DiagonalPattern(2, 3))),
    ])
    def test_basis_is_read_from_the_terms(self, f, b):
        gs = gram_assemble(f, 0.0, b)
        assert gs.basis == b.lattice().basis(isinstance(f, OneVarSeries), b.pattern)
        assert not hasattr(gs, "onevar")


class TestRidge:
    def test_ridge_recorded_after_failed_factorization(self, monkeypatch):
        calls = []

        def fail_once(pbtrf):
            def routine(band, **kwargs):
                calls.append(band)
                # info = 1: LAPACK's report of a band that is not positive definite
                return (band, 1) if len(calls) == 1 else pbtrf(band, **kwargs)
            return routine

        patch_lapack(monkeypatch, "pbtrf", fail_once)
        res = solve_optimal(F_PROD, 0.0, BasisSpec.full(3))
        trace = np.trace(gram_assemble(F_PROD, 0.0, BasisSpec.full(3)).matrix).real
        assert len(calls) == 2
        assert res.ridge == pytest.approx(1e-12 * trace / 16, rel=1e-12)
        assert res.residual_sq == pytest.approx(separable_dist_sq(0.0, 3), abs=1e-9)

    def test_no_ridge_when_factorization_succeeds(self):
        assert solve_optimal(F_PROD, 0.0, BasisSpec.full(3)).ridge == 0.0
        assert diagonal_reduce_solve(F_DIAG, 0.5, 6, PAT11).ridge == 0.0

    def test_refusal_names_order_and_ridge(self, monkeypatch):
        patch_lapack(monkeypatch, "pbtrf", lambda pbtrf: lambda band, **kwargs: (band, 1))
        with pytest.raises(ConditioningError, match=r"order n=3 .*ridge \d"):
            solve_optimal(F_PROD, 0.0, BasisSpec.full(3))

    def test_ridge_that_overflows_is_refused(self, monkeypatch):
        # every diagonal entry of G is finite, 1.69e308, but their mean overflows
        f = OneVarSeries([1.3e154])
        patch_lapack(monkeypatch, "pbtrf", lambda pbtrf: lambda band, **kwargs: (band, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"alpha = 0.0, order n=3 is not finite"):
                solve_optimal(f, 0.0, BasisSpec.onevar(3))


class TestBandedSolve:
    BANDS = ((F_PROD, BasisSpec.full(5)), (F_ONEVAR, BasisSpec.onevar(40)),
             (F_PROD, BasisSpec.diagonal(9, PAT11)))

    def test_factor_equals_cholesky_banded(self):
        rng = np.random.default_rng(94)
        for f, b in self.BANDS:
            gs = gram_assemble(f, float(rng.uniform(-1, 1)), b)
            band = gs.band.copy()
            norm1 = np.abs(gs.matrix).sum(axis=0).max()
            # from LAPACK's own copy, which leaves the band unwritten
            factor, norm, ridge = approximants._factor(gs, b.n, 0.0, None)
            assert np.array_equal(factor, scipy.linalg.cholesky_banded(band))
            assert np.array_equal(gs.band, band) and norm == norm1 and ridge == 0.0
            if b.kind == "full":  # gathered into a factor buffer and factored there in place
                buf = np.full(band.size, np.nan, dtype=np.complex128)
                gathered = approximants._gather(gs, gs.lattice, buf)
                factor, norm, ridge = approximants._factor(
                    gathered, b.n, 0.0, lambda: approximants._gather(gs, gs.lattice, buf))
                assert np.array_equal(factor, scipy.linalg.cholesky_banded(band))
                assert np.shares_memory(factor, buf) and np.array_equal(gs.band, band)
                assert norm == norm1 and ridge == 0.0

    def test_direct_solve_equals_cho_solve_banded(self):
        rng = np.random.default_rng(93)
        for f, b in self.BANDS[:2]:
            gs = gram_assemble(f, float(rng.uniform(-1, 1)), b)
            factor = scipy.linalg.cholesky_banded(gs.band)
            size = gs.band.shape[1]
            for x in (gs.rhs, rng.standard_normal(size),
                      rng.standard_normal(size) + 1j * rng.standard_normal(size)):
                y, info = approximants._lapack("pbtrs")(factor, x)
                assert info == 0
                assert np.array_equal(y, scipy.linalg.cho_solve_banded((factor, False), x))

    def test_failed_solve_names_the_order(self, monkeypatch):
        patch_lapack(monkeypatch, "pbtrs", lambda pbtrs: lambda factor, x: (x, -2))
        with pytest.raises(NumericalError, match=r"order n=7 .*info -2"):
            solve_optimal(F_ONEVAR, 0.5, BasisSpec.onevar(7))
        with pytest.raises(NumericalError, match=r"order n=6 "):
            diagonal_reduce_solve(F_DIAG, 0.5, 6, PAT11)

    def test_failed_factorization_argument_names_the_order(self, monkeypatch):
        patch_lapack(monkeypatch, "pbtrf", lambda pbtrf: lambda band, **kwargs: (band, -1))
        with pytest.raises(NumericalError, match=r"order n=7 .*pbtrf info -1"):
            solve_optimal(F_ONEVAR, 0.5, BasisSpec.onevar(7))


class TestOverflow:
    """A Gram matrix that overflows is refused by name, never solved into NaNs."""

    CASES = [
        ("full(3)", F_PROD, BasisSpec.full(3)),
        ("onevar(6)", F_ONEVAR, BasisSpec.onevar(6)),
        ("diag:1,1", F_DIAG, BasisSpec.diagonal(6, PAT11)),
        ("diag:1,1 off-pattern", F_PROD, BasisSpec.diagonal(6, PAT11)),
    ]

    @pytest.mark.parametrize("f, b", [pytest.param(f, b, id=name) for name, f, b in CASES])
    def test_alpha_sweep_is_certified_or_refused(self, f, b):
        refused = []
        for alpha in range(0, 1001, 10):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    res = solve_optimal(f, float(alpha), b)
                except NumericalError as exc:
                    assert f"alpha = {float(alpha)!r}" in str(exc) and f"n={b.n}" in str(exc)
                    refused.append(alpha)
                    continue
            assert np.isfinite(res.residual_sq) and np.isfinite(res.cond_estimate)
            assert np.isfinite(res.solved.coeffs).all()  # and certified, or it would have raised
        # the sweep reaches both sides: solved at small alpha, refused past the overflow
        assert 0 < len(refused) < 101 and refused == list(range(refused[0], 1001, 10))

    def test_refused_with_a_pattern_weight(self):
        with pytest.raises(NumericalError, match=r"alpha = 500.0, order n=6 "):
            gram_assemble(F_ONEVAR, PatternWeight(AlphaWeight(500.0), PAT11), BasisSpec.onevar(6))


class TestErrorStages:
    """A solver error carries the order its message names and the stage that failed; the messages are unchanged."""

    def raised(self, *args, **kwargs):
        with pytest.raises(NumericalError) as info:
            solve_optimal(*args, **kwargs)
        return info.value

    def test_assemble(self):
        exc = self.raised(F_PROD, 150.0, BasisSpec.full(9))
        assert str(exc) == ("the Gram matrix at alpha = 150.0, order n=9 is not finite; "
                            "the weights or the weighted coefficients overflow")
        assert (exc.n, exc.stage) == (9, "assemble")

    def test_factor(self, monkeypatch):
        patch_lapack(monkeypatch, "pbtrf", lambda pbtrf: lambda band, **kwargs: (band, 1))
        exc = self.raised(F_PROD, 0.0, BasisSpec.full(3))
        assert re.fullmatch(r"Gram factorization at order n=3 failed even with ridge \d\.\d{3}e-\d\d", str(exc))
        assert (exc.n, exc.stage, exc.cond_estimate) == (3, "factor", float("inf"))

    def test_solve(self, monkeypatch):
        patch_lapack(monkeypatch, "pbtrs", lambda pbtrs: lambda factor, x: (x, -2))
        exc = self.raised(F_ONEVAR, 0.5, BasisSpec.onevar(7))
        assert str(exc) == "banded solve at order n=7 failed: LAPACK pbtrs info -2"
        assert (exc.n, exc.stage) == (7, "solve")

    def test_certify(self):
        exc = self.raised(F_PROD, 0.0, BasisSpec.full(3), ortho_tol=1e-300)
        assert re.fullmatch(r"orthogonality certificate \S+ exceeds tolerance 1\.000e-300 at order n=3 "
                            r"\(condition estimate \S+, ridge 0\.000e\+00\)", str(exc))
        assert (exc.n, exc.stage) == (3, "certify") and exc.cond_estimate > 1.0

    def test_refusal_of_the_cap_names_no_order(self):
        with pytest.raises(BasisSizeError) as info:
            solve_optimal(F_PROD, 0.0, BasisSpec.full(100))
        assert str(info.value) == ("basis of 10201 unknowns exceeds the solver cap of 10000; "
                                   "choose a reduced basis explicitly")
        assert (info.value.n, info.value.stage) == (None, "assemble")


class TestSolveOptimal:
    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -0.0 - 1e-300, -np.inf])
    def test_nan_or_negative_ortho_tol_refused(self, tol):
        with pytest.raises(ArgumentError, match="ortho_tol"):
            solve_optimal(F_PROD, 0.0, BasisSpec.full(3), ortho_tol=tol)
        with pytest.raises(ArgumentError, match="ortho_tol"):
            solve_optimal(F_DIAG, 0.0, BasisSpec.diagonal(3, PAT11), ortho_tol=tol)
        with pytest.raises(ArgumentError, match="ortho_tol"):
            diagonal_reduce_solve(F_DIAG, 0.0, 3, PAT11, ortho_tol=tol)

    def test_zero_and_infinite_ortho_tol_accepted(self):
        assert solve_optimal(F_DIAG, 0.0, BasisSpec.full(2), ortho_tol=np.inf).ortho_residual >= 0.0
        with pytest.raises(ConditioningError):
            solve_optimal(F_PROD, 0.5, BasisSpec.full(3), ortho_tol=0.0)

    @pytest.mark.parametrize("eps0", [float("nan"), -1e-12])
    def test_nan_or_negative_eps0_refused(self, eps0):
        for build in (lambda: riesz_approximant(F_PROD, 0.0, 3, eps0=eps0),
                      lambda: riesz_diagonal(F_DIAG, 0.0, 3, PAT11, eps0=eps0),
                      lambda: cesaro(F_PROD, 3, eps0=eps0)):
            with pytest.raises(ArgumentError, match="eps0"):
                build()

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


def riesz_alone(f, a, n, pat=None):
    """The order-``n`` Riesz mean built from that order's own reciprocal."""
    aw, idx = as_alpha(a), np.arange(n + 1)
    if pat is None:
        weights = approximants._riesz_weights(aw, np.maximum.outer(idx, idx), n)
        return TwoVarSeries(weights * reciprocal2(f, n, n).coeffs)
    weights = approximants._riesz_weights(aw, idx, n)
    return lift(OneVarSeries(weights * reciprocal1(restrict(f, pat), n).coeffs), pat)


def same_bytes(p, q):
    return p.coeffs.shape == q.coeffs.shape and p.coeffs.tobytes() == q.coeffs.tobytes()


# Each builtin on the square grid and on the diagonal pattern it lives on.
SCANS = [("one_minus_z1z2", {}, None), ("product_one_minus", {}, None), ("one_minus_z1", {}, None),
         ("cos_pair", {"theta": 1.0}, None), ("one_minus_pow", {"M": 2, "N": 3}, None),
         ("one_minus_z1z2", {}, (1, 1)), ("cos_pair", {"theta": 1.0}, (1, 1)),
         ("one_minus_pow", {"M": 2, "N": 3}, (2, 3))]


class TestRieszOrders:
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("name, params, pat", SCANS)
    def test_scan_is_the_orders_alone_byte_for_byte(self, name, params, pat, alpha):
        f = builtin_series(name, **params).series
        pat = None if pat is None else DiagonalPattern(*pat)
        ns = range(25)
        scan = list(riesz_orders(f, alpha, ns, pat))
        assert len(scan) == len(ns)
        for n, p in zip(ns, scan):
            assert same_bytes(p, riesz_alone(f, alpha, n, pat)), n
            one = riesz_approximant(f, alpha, n) if pat is None else riesz_diagonal(f, alpha, n, pat)
            assert same_bytes(p, one), n

    @pytest.mark.parametrize("name, params", [("product_one_minus", {}), ("one_minus_z1z2", {})])
    def test_cesaro_is_the_alpha_zero_scan(self, name, params):
        f = builtin_series(name, **params).series
        for n, p in enumerate(riesz_orders(f, 0.0, range(20))):
            assert same_bytes(cesaro(f, n), p) and same_bytes(p, riesz_alone(f, 0.0, n))

    def test_diagonal_scan_repeats_the_pattern_degree(self):
        pat = DiagonalPattern(2, 3)
        f = builtin_series("one_minus_pow", M=2, N=3).series
        ns = [BasisSpec.diagonal(n, pat).lattice().A for n in range(31)]
        assert ns[:4] == [0, 0, 0, 1] and ns[-1] == 10
        for n, p in zip(ns, riesz_orders(f, 0.25, ns, pat), strict=True):
            assert same_bytes(p, riesz_alone(f, 0.25, n, pat))

    @pytest.mark.parametrize("pat", [None, PAT11])
    def test_one_reciprocal_per_scan(self, reciprocal_orders, pat):
        assert len(list(riesz_orders(F_DIAG, 0.5, range(1, 30), pat))) == 29
        assert reciprocal_orders == [29]

    @pytest.mark.parametrize("pat, ns, big", [(None, [2, 4, 4096], 4096),
                                              (DiagonalPattern(2, 3), [1, 2, 3000], 3000)])
    def test_orders_past_the_grid_cap_raise_as_alone(self, pat, ns, big):
        f = F_DIAG if pat is None else TwoVarSeries.from_terms({(0, 0): 1, (2, 3): -1})
        with pytest.raises(GridSizeError) as alone:
            riesz_alone(f, 0.5, big, pat)
        scan = riesz_orders(f, 0.5, ns, pat)
        for n in ns[:2]:
            assert same_bytes(next(scan), riesz_alone(f, 0.5, n, pat))
        with pytest.raises(GridSizeError) as err:
            next(scan)
        assert str(err.value) == str(alone.value)

    def test_a_non_finite_tail_fails_at_its_own_order_without_warning(self):
        f = TwoVarSeries([[1e-10], [-1.0]])  # the reciprocal 1e10^(k+1) overflows at k = 30
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan = riesz_orders(f, 0.0, range(1, 41))
            for n in range(1, 30):
                assert same_bytes(next(scan), riesz_approximant(f, 0.0, n))
            with pytest.raises(ArgumentError, match="coefficients must be finite"):
                next(scan)

    @pytest.mark.parametrize("build", [
        lambda: riesz_approximant(F_PROD, 0.0, -1),
        lambda: riesz_diagonal(F_DIAG, 0.0, -1, PAT11),
        lambda: cesaro(F_PROD, -2),
        lambda: next(riesz_orders(F_PROD, 0.5, [3, -1])),
        lambda: closed_form_twisted(0.5, -1, PAT11),
    ], ids=["riesz_approximant", "riesz_diagonal", "cesaro", "riesz_orders", "closed_form_twisted"])
    def test_negative_order_refused(self, build):
        with pytest.raises(ArgumentError, match=r"the order n=-[12] must be nonnegative"):
            build()

    @pytest.mark.parametrize("build", [
        lambda n: riesz_approximant(F_PROD, 0.0, n),
        lambda n: riesz_diagonal(F_DIAG, 0.0, n, PAT11),
        lambda n: cesaro(F_PROD, n),
        lambda n: next(riesz_orders(F_PROD, 0.5, [1, n])),
        lambda n: closed_form_twisted(0.5, n, PAT11),
    ], ids=["riesz_approximant", "riesz_diagonal", "cesaro", "riesz_orders", "closed_form_twisted"])
    def test_order_taken_as_an_integer(self, build):
        with pytest.raises(ArgumentError, match=r"the order n=2\.5 must be an integer"):
            build(2.5)
        assert build(np.int64(2)) == build(2)


class TestRieszScanSharesItsTopOrNothing:
    """A Riesz scan computes its largest order's reciprocal, or, if that fails, every order's alone."""

    @pytest.mark.parametrize("f, ns, pat, computed", [
        # past the grid cap: every order alone, and the top one raises when it is reached
        (F_DIAG, [2, 4, 4096], None, [4096, 2, 4, 4096]),
        # a reciprocal that cannot be computed: the first order alone raises as the top did
        (TwoVarSeries.from_terms({(1, 0): 1.0}), [2, 4, 8], None, [8, 2]),
        # on a pattern the top's lifted grid is past the cap, so it is refused before its
        # recurrence: every order alone, and the top one is refused again when it is reached
        (TwoVarSeries.from_terms({(0, 0): 1, (2, 3): -1}), [1, 2, 3000], DiagonalPattern(2, 3), [1, 2]),
        (F_DIAG, [8, 2, 5, 8], None, [8]),
    ], ids=["grid-cap", "singular", "pattern", "out-of-order"])
    def test_reciprocals_and_outcomes(self, reciprocal_orders, f, ns, pat, computed):
        scanned, error = [], None
        try:
            for p in riesz_orders(f, 0.5, ns, pat):
                scanned.append(p)
        except BidiskError as exc:
            error = exc
        assert reciprocal_orders == computed
        for n, p in zip(ns, scanned):
            assert same_bytes(p, riesz_alone(f, 0.5, n, pat))
        if error is None:
            assert len(scanned) == len(ns)
        else:
            with pytest.raises(type(error)) as alone:
                riesz_alone(f, 0.5, ns[len(scanned)], pat)
            assert str(error) == str(alone.value)

    @pytest.mark.parametrize("build, computed", [
        (lambda: riesz_approximant(F_DIAG, 0.5, 4096), 1),
        (lambda: cesaro(TwoVarSeries.from_terms({(1, 0): 1.0}), 3), 1),
        # the lifted grid is refused before the recurrence
        (lambda: riesz_diagonal(F_DIAG, 0.5, 5000, PAT11), 0),
        # the reciprocal 1e10^(k+1) overflows at k = 30
        (lambda: riesz_diagonal(TwoVarSeries([[1e-10, 0.0], [0.0, -1.0]]), 0.5, 40, PAT11), 1),
        (lambda: next(riesz_orders(F_DIAG, 0.5, [4096])), 1),
    ], ids=["riesz_approximant", "cesaro", "riesz_diagonal", "riesz_diagonal-overflow", "riesz_orders"])
    def test_one_order_computes_once_even_when_it_fails(self, reciprocal_orders, build, computed):
        with pytest.raises(BidiskError):
            build()
        assert len(reciprocal_orders) == computed


class TestRieszPatternGridRefusedFirst:
    """An order whose lifted grid is past the cap is refused before its one-variable recurrence."""

    BIG = 10**6

    def message(self, n, pat):
        return f"coefficient grid of {(pat.M * n + 1) * (pat.N * n + 1)} entries exceeds the cap of {MAX_GRID_ENTRIES}"

    def test_a_refused_order_computes_nothing(self, reciprocal_orders):
        with pytest.raises(GridSizeError) as err:
            riesz_diagonal(F_DIAG, 0.5, self.BIG, PAT11)
        assert reciprocal_orders == []
        # the message the lift of that order raises
        assert str(err.value) == self.message(self.BIG, PAT11) == (
            "coefficient grid of 1000002000001 entries exceeds the cap of 16777216")

    @pytest.mark.parametrize("pat", [PAT11, DiagonalPattern(2, 3)])
    def test_a_scan_yields_its_orders_then_refuses(self, reciprocal_orders, pat):
        f = F_DIAG if pat == PAT11 else TwoVarSeries.from_terms({(0, 0): 1, (2, 3): -1})
        scan = riesz_orders(f, 0.5, [10, 20, self.BIG], pat)
        for n in (10, 20):
            assert same_bytes(next(scan), riesz_alone(f, 0.5, n, pat))
        with pytest.raises(GridSizeError) as err:
            next(scan)
        assert str(err.value) == self.message(self.BIG, pat)
        assert reciprocal_orders == [10, 20]

    def test_a_singular_series_is_refused_as_singular(self, reciprocal_orders):
        with pytest.raises(SingularReciprocalError):
            riesz_diagonal(TwoVarSeries.from_terms({(1, 1): 1.0}), 0.5, self.BIG, PAT11)
        assert reciprocal_orders == []


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
            basis = BasisSpec.diagonal(n, PAT11).indices2()
            _, c = brute_gram_dist_sq(F_DIAG, alpha, basis)
            p = TwoVarSeries.from_terms(dict(zip(basis, c)))
            direct = residual_norm_sq(p, F_DIAG, alpha)
            assert abs(via_onevar.residual_sq - direct) <= 1e-10
            oracle = onevar_one_minus_z_dist_sq(2.0 * alpha, n)
            assert via_onevar.residual_sq == pytest.approx(oracle, rel=1e-10)


class TestDispatch:
    """``solve_optimal`` is the one dispatch; only ``diagonal_reduce_solve`` refuses an off-pattern ``f``."""

    def test_off_pattern_f_on_a_diagonal_basis_is_solved(self):
        for MN in ((1, 1), (2, 3)):
            for n in (2, 4, 7):
                b = BasisSpec.diagonal(n, DiagonalPattern(*MN))
                res = solve_optimal(F_PROD, 0.0, b)
                assert res.pattern == b.pattern and res.basis_kind == "diagonal"
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

    def test_off_pattern_solve_past_the_grid_cap(self):
        # no two-variable grid is built on or off the pattern; reading p builds one
        for f in (F_PROD, F_DIAG):
            res = solve_optimal(f, 0.0, BasisSpec.diagonal(5000, PAT11))
            assert res.ortho_residual <= 1e-8 * norm2(f, 0.0) ** 2
            with pytest.raises(GridSizeError):
                res.p
        assert res.residual_sq == pytest.approx(1.0 / 5002, rel=1e-9)

    def test_off_pattern_solve_memory(self):
        # the coset rows hold O(n) coefficients; the 2-D lattice they replace peaked at 214 MiB
        solve_optimal(F_PROD, 0.0, BasisSpec.diagonal(50, PAT11))  # load the LAPACK module first
        tracemalloc.start()
        try:
            solve_optimal(F_PROD, 0.0, BasisSpec.diagonal(2000, PAT11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


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
                P, [(F, pw)], approximants.Lattice(4, 0),
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
            # a pattern-supported f is the single coset (0, 0): the same arithmetic
            assert np.array_equal(native.band, direct.band)
            assert np.array_equal(native.rhs, direct.rhs)

    def test_pattern_11_is_doubled_alpha(self):
        for alpha in (-1.0, 0.25, 1.0):
            pw = PatternWeight(AlphaWeight(alpha), PAT11)
            assert np.allclose(pw.weights(50), AlphaWeight(2 * alpha).weights(50), rtol=1e-15)
        assert PatternWeight(AlphaWeight(0.7), DiagonalPattern(2, 3)).weights(0).tolist() == [1.0]

    @pytest.mark.parametrize("MN", PATTERNS)
    def test_offset_weights(self, MN):
        pat, k = DiagonalPattern(*MN), np.arange(31.0)
        for alpha in (-1.0, 0.75):
            aw = AlphaWeight(alpha)
            for q1, q2 in ((0, 1), (1, 0), (2, 5)):
                closed = ((q1 + pat.M * k + 1) * (q2 + pat.N * k + 1)) ** alpha
                got = PatternWeight(aw, pat, (q1, q2)).weights(30)
                assert np.allclose(got, closed, rtol=1e-14, atol=0.0)
            # offset (0, 0) is the pattern's own row, sliced from one table row as before
            w = aw.weights(max(MN) * 30)
            row = w[:pat.M * 30 + 1:pat.M] * w[:pat.N * 30 + 1:pat.N]
            assert np.array_equal(PatternWeight(aw, pat).weights(30), row)

    @pytest.mark.parametrize("MN", [(1, 1), (2, 3)])
    def test_no_two_variable_product(self, monkeypatch, MN):
        def refuse(*args):
            raise AssertionError("diagonal solves must not form a two-variable product")

        pat = DiagonalPattern(*MN)
        f = TwoVarSeries.from_terms({(0, 0): 1, MN: -1})
        off = TwoVarSeries.from_terms({(0, 0): 1, (1, 0): 0.5j, (0, 2): -0.25, MN: -1})
        monkeypatch.setattr(approximants, "multiply2", refuse)
        monkeypatch.setattr(approximants, "_multiply2", refuse)  # the certificate's product of a box
        res = diagonal_reduce_solve(f, 0.5, 12, pat)
        routed = solve_optimal(f, 0.5, BasisSpec.diagonal(12, pat))
        off_res = solve_optimal(off, 0.5, BasisSpec.diagonal(12, pat))
        monkeypatch.undo()
        assert res.residual_sq == pytest.approx(residual_norm_sq(res.p, f, 0.5), rel=1e-12)
        assert off_res.residual_sq == pytest.approx(residual_norm_sq(off_res.p, off, 0.5), rel=1e-12)
        # the dispatch sends a pattern-supported f to the same solve, bit for bit
        assert routed == res and routed.pattern == pat and routed.basis_kind == "diagonal"
        assert np.array_equal(routed.solved.coeffs, res.solved.coeffs)

    def test_one_product_per_solve(self, monkeypatch):
        # the certificate forms p f straight into an array: convolved for a column, shift-added for a box;
        # any other product, through the public multiply1/multiply2 too, would be counted
        calls = []
        for module, name in ((approximants, "multiply1"), (approximants, "multiply2"),
                             (approximants, "_multiply1"), (approximants, "_multiply2"),
                             (series, "multiply1"), (series, "multiply2")):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        solve_optimal(F_PROD, 0.5, BasisSpec.full(4))
        assert calls == ["_multiply2"]
        calls.clear()
        solve_optimal(F_ONEVAR, 0.5, BasisSpec.onevar(6))
        assert calls == ["_multiply1"]
        calls.clear()
        diagonal_reduce_solve(F_DIAG, 0.5, 6, PAT11)
        assert calls == ["_multiply1"]

    def test_one_coset_split_per_solve(self, monkeypatch):
        calls = []
        original = approximants._terms

        def counted(f, aw, b):
            calls.append(b.kind)
            return original(f, aw, b)

        monkeypatch.setattr(approximants, "_terms", counted)
        off = TwoVarSeries.from_terms({(0, 0): 1, (1, 0): 0.5j, (0, 2): -0.25, (1, 1): -1})
        solve_optimal(F_PROD, 0.5, BasisSpec.full(4))
        solve_optimal(F_ONEVAR, 0.5, BasisSpec.onevar(6))
        diagonal_reduce_solve(F_DIAG, 0.5, 6, PAT11)
        solve_optimal(off, 0.5, BasisSpec.diagonal(6, PAT11))
        assert calls == ["full", "onevar", "diagonal", "diagonal"]


class TestCosetSolve:
    """An off-pattern ``f`` on a diagonal basis is the sum of its one-variable coset problems."""

    def functions(self, rng, pat):
        """A random complex ``f`` off the pattern, with interior zeros, and two variants of it.

        The variants vanish at the origin, and on the whole coset ``(0, 0)``.
        """
        grid = random_with_holes(rng, (4, 5))
        grid[0, 1] = 0.5 - 0.25j  # (0, 1) is off every pattern
        origin = grid.copy()
        origin[0, 0] = 0.0
        no_constant_coset = grid.copy()
        ks = np.arange(min(3 // pat.M, 4 // pat.N) + 1)
        no_constant_coset[pat.M * ks, pat.N * ks] = 0.0
        return [TwoVarSeries(g) for g in (grid, origin, no_constant_coset)]

    @pytest.mark.parametrize("MN", PATTERNS)
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.75])
    def test_matches_brute_oracle(self, MN, alpha):
        pat = DiagonalPattern(*MN)
        rng = np.random.default_rng(100 + 7 * MN[0] + MN[1])
        for f in self.functions(rng, pat):
            for n in (0, 5, 17):
                b = BasisSpec.diagonal(n, pat)
                res = solve_optimal(f, alpha, b)
                assert res.pattern == pat and isinstance(res.solved, OneVarSeries)
                assert res.basis == tuple(b.indices2())
                oracle, _ = brute_gram_dist_sq(f, alpha, b.indices2())
                assert res.residual_sq == pytest.approx(oracle, rel=1e-12)
                assert res.residual_sq == pytest.approx(residual_norm_sq(res.p, f, alpha), rel=1e-12)
                pairing = two_variable_pairing(res.p, f, alpha, res.basis)
                assert abs(res.ortho_residual - pairing) <= 1e-14 * norm2(f, alpha) ** 2


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

    # a digest of every perturbed grid that perturbation_check builds, and of its value
    PERTURBATION_DIGESTS = {
        "full": ("584512833131961d", "72065f907182350e", "c91ffd3023bf16f9"),
        "onevar_1d": ("c30f49b1393ba021", "48f2dcbf5c25d9cf", "f1f43009aeb61ca7"),
        "onevar_2d": ("b4e7f4d69b0a0ba1", "90da3534cf96e852", "7c86bb7ebcc87663"),
        "diag_on_pattern": ("50c2f746a80af5b4", "02e37d68ca8b50a7", "3c629d17ff82f7f9"),
        "diag_off_pattern": ("2f6342f67000255b", "65e75ed4117d523c", "2fdca55e1f3644c4"),
        "diag_off_pattern_2_1": ("b9fd1b75154535fb", "c4161190c14a5b46", "11239385305db8c1"),
        "diag_constant_box": ("b1b47c57670701e6", "5f63784234dbb506", "1c830e95462af587"),
    }

    @staticmethod
    def perturbation_cases():
        def grid(shape):
            g = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            g[rng.random(shape) < 0.3] = 0.0
            g[(0,) * len(shape)] = 1.0
            return g

        rng = np.random.default_rng(190)
        f2, f1 = TwoVarSeries(grid((3, 2))), OneVarSeries(grid((4,)))
        on23 = lift(OneVarSeries(grid((3,))), DiagonalPattern(2, 3))
        return {
            "full": (f2, BasisSpec.full(3)),
            "onevar_1d": (f1, BasisSpec.onevar(5)),
            "onevar_2d": (f2, BasisSpec.onevar(4)),
            "diag_on_pattern": (on23, BasisSpec.diagonal(9, DiagonalPattern(2, 3))),
            "diag_off_pattern": (f2, BasisSpec.diagonal(4, PAT11)),
            "diag_off_pattern_2_1": (f2, BasisSpec.diagonal(5, DiagonalPattern(2, 1))),
            "diag_constant_box": (f2, BasisSpec.diagonal(2, DiagonalPattern(3, 2))),
        }

    @pytest.mark.parametrize("name", sorted(PERTURBATION_DIGESTS))
    def test_perturbed_grids_are_pinned(self, name, monkeypatch):
        f, b = self.perturbation_cases()[name]
        real = approximants.residual_norm_sq
        for alpha, pinned in zip((-1.0, 0.0, 0.5), self.PERTURBATION_DIGESTS[name]):
            digest = hashlib.sha256()

            def record(p, f_, a):
                digest.update(repr(p.coeffs.shape).encode() + p.coeffs.tobytes())
                return real(p, f_, a)

            res = solve_optimal(f, alpha, b)
            monkeypatch.setattr(approximants, "residual_norm_sq", record)
            worst = perturbation_check(res, f, alpha, n_directions=5, seed=3)
            monkeypatch.setattr(approximants, "residual_norm_sq", real)
            digest.update(float(worst).hex().encode())
            assert digest.hexdigest()[:16] == pinned, alpha

    def test_monotone_in_order(self):
        for alpha in (-1.0, 0.0, 0.5):
            prev = np.inf
            for n in range(8):
                r = solve_optimal(F_PROD, alpha, BasisSpec.full(n)).residual_sq
                assert r <= prev + 1e-12
                prev = r
