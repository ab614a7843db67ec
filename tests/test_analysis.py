"""Decay scans, rate fits, theory rates, verdicts."""

import re

import numpy as np
import pytest

from bidisk.analysis import (
    DecaySeries,
    TheoryRate,
    cyclicity_verdict,
    decay_scan,
    fit_log_mode,
    fit_power,
    predicted_rate,
)
from bidisk import approximants
from bidisk.approximants import (
    BasisSpec,
    closed_form_twisted,
    gram_assemble,
    solve_optimal,
    solve_orders,
)
from bidisk.catalog import builtin_series
from bidisk.errors import (
    ArgumentError,
    BidiskError,
    DegenerateFitError,
    InsufficientPointsError,
    MonotonicityError,
    NumericalError,
    UnsupportedRateError,
)
from bidisk.series import DiagonalPattern, OneVarSeries, TwoVarSeries, constant2, separable
from bidisk.spaces import norm2

from oracles import onevar_one_minus_z_dist_sq, separable_dist_sq

F_DIAG = TwoVarSeries.from_terms({(0, 0): 1, (1, 1): -1})
F_PROD = separable(OneVarSeries([1, -1]), OneVarSeries([1, -1]))
# offsets 0 and 3 only: an order below 3 assembles one band row, not min(n, 3) + 1
F_GAPPED = OneVarSeries([1, 0, 0, -0.5])
PAT11 = DiagonalPattern(1, 1)

GEOMETRIC_N = [20, 27, 36, 49, 66, 89, 120, 161, 200]


def synthetic_series(ns, values, **meta):
    return DecaySeries(points=tuple(zip(ns, values)), meta=meta)


class TestDecayScan:
    @pytest.mark.parametrize("tol", [float("nan"), -1e-8])
    def test_nan_or_negative_ortho_tol_refused_before_solving(self, monkeypatch, tol):
        import bidisk.analysis

        def refuse(*args, **kwargs):
            raise AssertionError("solved with an invalid tolerance")

        monkeypatch.setattr(bidisk.analysis, "solve_orders", refuse)
        with pytest.raises(ArgumentError, match="ortho_tol") as info:
            decay_scan(F_DIAG, 0.0, range(1, 4), basis="diagonal", ortho_tol=tol)
        assert "order n=" not in str(info.value)

    def test_numpy_integer_orders(self):
        ds = decay_scan(F_DIAG, 0.0, np.array([2, 5], dtype=np.int32), basis="diagonal")
        assert [r.n for r in ds.results] == [2, 5] and all(type(r.n) is int for r in ds.results)
        assert ds.points == decay_scan(F_DIAG, 0.0, [2, 5], basis="diagonal").points

    @pytest.mark.parametrize("ns, bad", [([1.7, 3.2], 1.7), ([1, 3.0], 3.0)])
    def test_non_integral_orders_refused(self, monkeypatch, ns, bad):
        import bidisk.analysis

        monkeypatch.setattr(bidisk.analysis, "solve_orders", lambda *a, **k: pytest.fail("solved"))
        with pytest.raises(ArgumentError, match=re.escape(f"n={bad!r} must be an integer")):
            decay_scan(F_DIAG, 0.0, ns, basis="diagonal")

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
        # an off-pattern f is solved as the sum of its coset problems, not refused
        ds = decay_scan(F_PROD, 0.0, [1, 4], basis="diagonal")
        for n, res in zip((1, 4), ds.results):
            assert res == solve_optimal(F_PROD, 0.0, BasisSpec.diagonal(n, PAT11))
            assert res.pattern == PAT11
        assert ds.meta["pattern"] == PAT11

    @pytest.mark.parametrize("basis, pattern, match", [
        ("foo", None, "unknown basis kind 'foo'"),
        ("full", PAT11, "other kinds must not carry one"),
    ])
    def test_a_bad_basis_names_no_order(self, basis, pattern, match):
        # the bases are built before any solve: their refusal is about the arguments, not an order
        with pytest.raises(ArgumentError) as info:
            decay_scan(F_DIAG, 0.0, [1, 2], basis=basis, pattern=pattern)
        assert str(info.value) == (f"unknown basis kind {basis!r}" if basis == "foo" else
                                   "diagonal bases need a pattern; other kinds must not carry one")
        assert info.value.n is None and match in str(info.value)

    @pytest.mark.parametrize("basis", ["full", "onevar"])
    def test_pattern_refused_off_the_diagonal_basis(self, basis):
        with pytest.raises(ArgumentError, match="other kinds must not carry one"):
            decay_scan(F_DIAG, 0.0, [1, 2], basis=basis, pattern=PAT11)

    def test_off_pattern_scan_past_the_grid_cap(self):
        ds = decay_scan(F_PROD, 0.0, [4, 5000], basis="diagonal")
        for res in ds.results:
            assert res.ortho_residual <= 1e-8 * norm2(F_PROD, 0.0) ** 2
        assert ds.values[0] == pytest.approx(0.73205128205128, rel=1e-13)
        # Hardy space: the cosets give ||P (1 + z) - 1||^2 + 2 ||P||^2, whose
        # infimum is 1 - 1 / h(0)^2 for the outer h with |h|^2 = |1 + z|^2 + 2,
        # h(0)^2 = 2 + sqrt(3); the order-n value reaches it geometrically
        assert ds.values[1] == pytest.approx(np.sqrt(3.0) - 1.0, rel=1e-12)

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

    def test_error_attributes(self):
        # a refusal whose message names no order is made to name the scan's, and carries it
        with pytest.raises(BidiskError) as capped:
            decay_scan(F_DIAG, 0.0, [1, 120], basis="full")
        assert str(capped.value) == ("order n=120: basis of 14641 unknowns exceeds the solver cap of "
                                     "10000; choose a reduced basis explicitly")
        assert (capped.value.n, capped.value.stage) == (120, "assemble")
        # one that names it is kept as it is
        with pytest.raises(BidiskError) as certified:
            decay_scan(F_PROD, 0.5, [2, 3], basis="full", ortho_tol=1e-300)
        assert str(certified.value).startswith("orthogonality certificate")
        assert (certified.value.n, certified.value.stage) == (2, "certify")

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_a_value_that_is_not_finite_is_refused_by_its_order(self, bad):
        with pytest.raises(NumericalError, match=r"dist_sq at order n=2 is not finite") as info:
            DecaySeries(points=((1, 0.1), (2, bad), (3, 0.9)))
        assert info.value.n == 2 and not isinstance(info.value, MonotonicityError)


def _bits(result):
    """Every field of a result, floats as their bit patterns, and the bytes of its coefficients."""
    floats = (result.residual_sq, result.cond_estimate, result.ortho_residual, result.ridge)
    coeffs = result.solved.coeffs
    return (tuple(float(x).hex() for x in floats), result.n, result.basis_kind,
            result.solved_lattice, result.pattern, type(result.solved), coeffs.shape,
            coeffs.dtype, coeffs.tobytes())


def _outcomes(solves):
    """The results an iterator of solves yields, then its error as (type, message) or None."""
    results = []
    try:
        for result in solves:
            results.append(_bits(result))
    except BidiskError as exc:
        return results, (type(exc), str(exc), getattr(exc, "cond_estimate", None))
    return results, None


def _one_by_one(f, alpha, bases, **kwargs):
    """``solve_optimal`` at each basis in turn, up to the first that fails."""
    for b in bases:
        yield solve_optimal(f, alpha, b, **kwargs)


def _random_onevar(degree, seed, column=True):
    """A random complex ``f`` of ``z1`` alone: a two-variable column, or a one-variable series."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    coeffs[0] = 2.0 * np.abs(coeffs).sum()  # no zero in the closed disk: every solve certifies
    return TwoVarSeries(coeffs[:, None]) if column else OneVarSeries(coeffs)


DIAG_NS = list(range(50, 601, 50))
# the six scans of the reduced_scan benchmark workload
REDUCED_SCANS = [
    *[("one_minus_z1z2", {}, a, DIAG_NS, "diagonal", PAT11) for a in (0.0, 0.5, 1.0)],
    *[("one_minus_z1", {}, a, DIAG_NS, "onevar", None) for a in (0.0, 1.0)],
    ("one_minus_pow", {"M": 2, "N": 3}, 0.0, list(range(30, 481, 30)), "diagonal",
     DiagonalPattern(2, 3)),
]
# orders below and past each degree of f: the bandwidth is min(degree, n)
RANDOM_NS = [0, 1, 2, 5, 40, 99, 100, 101, 127, 128, 129, 300, 600]


def _random_grid(shape, seed, density=1.0):
    """A random complex ``f`` on ``shape`` with its nonzeros at ``density``, dominated by its constant."""
    rng = np.random.default_rng(seed)
    grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    grid *= rng.uniform(size=shape) < density
    grid[0, 0] = 2.0 * np.abs(grid).sum() + 1.0
    return TwoVarSeries(grid)


def _assemblies(monkeypatch):
    """The orders of the bases ``gram_assemble`` is called with from now on, in order."""
    calls, real = [], approximants.gram_assemble

    def counted(*args):
        calls.append(args[2].n)
        return real(*args)

    monkeypatch.setattr(approximants, "gram_assemble", counted)
    return calls


# the functions whose full bands are gathered: a separable product, a random complex 3x3,
# a sparse 4x3 and a single column
FULL_GATHER = [F_PROD, _random_grid((3, 3), 11), _random_grid((4, 3), 12, density=0.4),
               _random_onevar(3, 13)]


class TestScanAssemblesOnce:
    """A scan shares one Gram assembly where it can, and equals per-order solves bit for bit."""

    def assert_scan_is_per_order(self, f, alpha, ns, basis, pattern=None):
        ds = decay_scan(f, alpha, ns, basis=basis, pattern=pattern)
        bases = [BasisSpec(n, basis, pattern) for n in ns]
        direct, error = _outcomes(_one_by_one(f, alpha, bases))
        assert error is None
        assert [_bits(r) for r in ds.results] == direct

    @pytest.mark.parametrize("name, params, alpha, ns, basis, pattern", REDUCED_SCANS)
    def test_benchmark_scans(self, name, params, alpha, ns, basis, pattern):
        f = builtin_series(name, **params).series
        self.assert_scan_is_per_order(f, alpha, ns, basis, pattern)

    @pytest.mark.parametrize("degree", [1, 40, 100])
    @pytest.mark.parametrize("alpha", [-2.0, 0.0, 0.75])
    def test_random_onevar(self, degree, alpha):
        for column in (True, False):
            self.assert_scan_is_per_order(_random_onevar(degree, degree, column), alpha,
                                          RANDOM_NS, "onevar")

    @pytest.mark.parametrize("alpha", [-2.0, 0.5])
    def test_gapped_onevar(self, alpha):
        self.assert_scan_is_per_order(F_GAPPED, alpha, [0, 1, 2, 5], "onevar")

    @pytest.mark.parametrize("pattern", [PAT11, DiagonalPattern(2, 3)])
    def test_off_pattern(self, pattern):
        rng = np.random.default_rng(5)
        grid = 0.3 * (rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)))
        grid[0, 0] = 4.0
        self.assert_scan_is_per_order(TwoVarSeries(grid), 0.25, list(range(0, 91, 3)),
                                      "diagonal", pattern)

    @pytest.mark.parametrize("f, alpha, top_n, basis, pattern", [
        *[(_random_onevar(40, seed=3), a, 900, "onevar", None) for a in (-2.0, 0.0, 0.75)],
        (builtin_series("one_minus_z1").series, 150.0, 100, "onevar", None),
        *[(F_PROD, a, 300, "diagonal", DiagonalPattern(2, 3)) for a in (-2.0, 0.0, 0.75)],
        *[(builtin_series("one_minus_pow", M=2, N=3).series, a, n, "diagonal",
           DiagonalPattern(2, 3)) for a, n in ((0.0, 300), (150.0, 6))],
        # a gapped f: orders 0, 1, 2 are narrower than the box (and 5 is the top)
        *[(F_GAPPED, a, 5, "onevar", None) for a in (-2.0, 0.5)],
        # full boxes: every order 0..36 is gathered from the top band
        *[(f, a, 36, "full", None) for f in FULL_GATHER for a in (-1.0, 0.0, 0.5, 1.0)],
    ])
    def test_gathered_band_is_the_assembled_band(self, f, alpha, top_n, basis, pattern):
        top = gram_assemble(f, alpha, BasisSpec(top_n, basis, pattern))
        # whatever the factor buffer holds must not leak into a gathered band
        buf = np.full(top.band.size, np.nan + 1j * np.inf)
        # the orders below the bandwidth of f and a spread up to the top
        for n in sorted({*range(min(top_n, 45)), *range(0, top_n, max(1, top_n // 20)), top_n}):
            b = BasisSpec(n, basis, pattern)
            own, view = gram_assemble(f, alpha, b), approximants._gather(top, b.lattice(), buf)
            assert view.lattice == own.lattice and view.pattern == own.pattern
            assert view.band.shape == own.band.shape and view.band.dtype == own.band.dtype
            # a full box is written into the buffer in LAPACK's column-major layout; the top
            # order's box too, where the band is copied
            in_buf = b.lattice().C > 0
            assert np.shares_memory(view.band, buf) == in_buf
            assert view.band.flags.f_contiguous == in_buf or view.band.shape[0] == 1
            assert view.band.tobytes() == own.band.tobytes()  # in logical (C) order, as own's bytes
            assert view.rows == own.rows
            assert view.rhs.tobytes() == own.rhs.tobytes()

    @pytest.mark.parametrize("f, ns, basis, pattern", [
        (builtin_series("one_minus_z1").series, DIAG_NS, "onevar", None),
        (F_DIAG, DIAG_NS, "diagonal", PAT11),
        (F_PROD, list(range(0, 61, 6)), "diagonal", DiagonalPattern(2, 3)),
        (F_PROD, [2, 4, 8, 16], "full", None),
        (F_PROD, [0, 1, 2], "full", None),
    ])
    def test_assembly_count(self, monkeypatch, f, ns, basis, pattern):
        calls = _assemblies(monkeypatch)
        decay_scan(f, 0.0, ns, basis=basis, pattern=pattern)
        assert calls == [ns[-1]]  # one assembly, at the top order

    @pytest.mark.parametrize("alpha, ns, kwargs, failing", [
        # orders past the cap are refused when they are reached
        (0.0, [50, 100, 10_000, 20_000], {}, 10_000),
        # the top band overflows: the first order that overflows is named
        (150.0, [50, 100, 200, 900], {}, 200),
        # a failed certificate at a low order comes before a later refusal
        (0.0, [3, 200, 20_000], {"ortho_tol": 1e-300}, 3),
        (150.0, [3, 200, 900], {"ortho_tol": 1e-300}, 3),
    ])
    def test_error_order(self, alpha, ns, kwargs, failing):
        f = builtin_series("one_minus_z1").series
        bases = [BasisSpec.onevar(n) for n in ns]
        scanned = _outcomes(solve_orders(f, alpha, bases, **kwargs))
        assert scanned == _outcomes(_one_by_one(f, alpha, bases, **kwargs))
        assert len(scanned[0]) == ns.index(failing)
        with pytest.raises(BidiskError) as alone:
            solve_optimal(f, alpha, BasisSpec.onevar(failing), **kwargs)
        assert scanned[1] == (type(alone.value), str(alone.value),
                              getattr(alone.value, "cond_estimate", None))
        with pytest.raises(type(alone.value)) as info:
            decay_scan(f, alpha, ns, basis="onevar", **kwargs)
        assert f"n={failing}" in str(info.value)

    @pytest.mark.parametrize("alpha, ns, failing, assembled", [
        # the top order 100 is past the cap: every order is assembled alone, and 100 is refused when reached
        (0.0, [4, 8, 99, 100], 100, [100, 4, 8, 99, 100]),
        # the top band overflows: every order is assembled alone, up to the first that overflows
        (150.0, [2, 5, 9, 20], 9, [20, 2, 5, 9]),
    ])
    def test_full_error_order(self, monkeypatch, alpha, ns, failing, assembled):
        bases, calls = [BasisSpec.full(n) for n in ns], _assemblies(monkeypatch)
        scanned = _outcomes(solve_orders(F_PROD, alpha, bases))
        assert calls == assembled
        monkeypatch.undo()
        assert scanned == _outcomes(_one_by_one(F_PROD, alpha, bases))
        assert len(scanned[0]) == ns.index(failing)
        with pytest.raises(BidiskError) as alone:
            solve_optimal(F_PROD, alpha, BasisSpec.full(failing))
        assert scanned[1] == (type(alone.value), str(alone.value), None)

    @pytest.mark.parametrize("f, bases, assembled", [
        # one kind out of order shares the top at 8
        (F_PROD, [BasisSpec.full(n) for n in (8, 2, 5)], [8]),
        # duplicated bases share it too
        (F_PROD, [BasisSpec.full(n) for n in (3, 6, 3, 6)], [6]),
        (builtin_series("one_minus_z1").series, [BasisSpec.onevar(n) for n in (100, 50, 100)], [100]),
        (F_DIAG, [BasisSpec.diagonal(n, PAT11) for n in (40, 40)], [40]),
        # a zero f: the top fails, and so does the first order alone
        (TwoVarSeries(np.zeros((2, 2))), [BasisSpec.full(n) for n in (2, 5)], [5, 2]),
        # a one-variable f on full bases: likewise
        (OneVarSeries([1.0, -0.5]), [BasisSpec.full(n) for n in (2, 5)], [5, 2]),
    ], ids=["out-of-order", "duplicated-full", "duplicated-onevar", "duplicated-diagonal",
            "zero-f", "onevar-f-on-full"])
    def test_assembly_count_and_outcomes(self, monkeypatch, f, bases, assembled):
        calls = _assemblies(monkeypatch)
        scanned = _outcomes(solve_orders(f, 0.5, bases))
        assert calls == assembled
        monkeypatch.undo()
        assert scanned == _outcomes(_one_by_one(f, 0.5, bases))

    @pytest.mark.parametrize("f, alpha, ns, kind, pattern", [
        (F_PROD, 0.5, [2, 4, 8, 16], "full", None),
        (F_PROD, 0.0, [4, 8, 99, 100], "full", None),
        (F_PROD, 150.0, [2, 5, 9, 20], "full", None),
        (builtin_series("one_minus_z1").series, 0.0, [50, 100, 10_000, 20_000], "onevar", None),
        (builtin_series("one_minus_z1").series, 150.0, [50, 100, 200, 900], "onevar", None),
        (builtin_series("one_minus_z1").series, 1.0, list(range(9950, 10051, 50)), "onevar", None),
        (F_DIAG, 0.0, DIAG_NS, "diagonal", PAT11),
        (F_DIAG, 0.0, [50, 100, 9_999, 10_000], "diagonal", PAT11),
    ])
    def test_a_scan_shares_its_top_or_nothing(self, monkeypatch, f, alpha, ns, kind, pattern):
        # a one-kind scan assembles its largest order, and then either gathers every order from
        # it or assembles every order alone, up to the first that fails: it never mixes the two
        bases, calls = [BasisSpec(n, kind, pattern) for n in ns], _assemblies(monkeypatch)
        results, error = _outcomes(solve_orders(f, alpha, bases))
        monkeypatch.undo()
        try:
            gram_assemble(f, alpha, bases[-1])
            shared = True
        except BidiskError:
            shared = False
        reached = ns[:len(results) + (error is not None)]
        assert calls == ([ns[-1]] if shared else [ns[-1], *reached])
        assert (results, error) == _outcomes(_one_by_one(f, alpha, bases))

    @pytest.mark.parametrize("solve", [
        lambda: solve_optimal(F_PROD, 300.0, BasisSpec.full(3)),  # the band overflows
        lambda: solve_optimal(F_PROD, 0.0, BasisSpec.full(100)),  # past the solver cap
        lambda: solve_optimal(TwoVarSeries(np.zeros((1, 1))), 0.0, BasisSpec.full(2)),
        lambda: next(solve_orders(F_PROD, 300.0, [BasisSpec.onevar(6)])),
        lambda: approximants.diagonal_reduce_solve(F_DIAG, 1000.0, 6, PAT11),
    ], ids=["overflow", "cap", "zero-f", "solve_orders", "diagonal_reduce_solve"])
    def test_one_order_assembles_once_even_when_it_fails(self, monkeypatch, solve):
        calls = _assemblies(monkeypatch)
        with pytest.raises(BidiskError):
            solve()
        assert len(calls) == 1

    def test_ridge_at_a_middle_order(self, monkeypatch):
        real = approximants._lapack

        def fail_once_at(size):
            failed = []

            def lapack(name):
                routine = real(name)

                def pbtrf(band, **kwargs):
                    if band.shape[1] == size and not failed:
                        failed.append(band)
                        return band, 1  # LAPACK's report of a band that is not positive definite
                    return routine(band, **kwargs)

                return pbtrf if name == "pbtrf" else routine

            return lapack

        f, ns = builtin_series("one_minus_z1").series, [50, 100, 150]
        monkeypatch.setattr(approximants, "_lapack", fail_once_at(101))
        ds = decay_scan(f, 0.5, ns, basis="onevar")
        monkeypatch.setattr(approximants, "_lapack", fail_once_at(101))
        direct = solve_optimal(f, 0.5, BasisSpec.onevar(100))
        assert [r.ridge > 0.0 for r in ds.results] == [False, True, False]
        assert _bits(ds.results[1]) == _bits(direct)
        monkeypatch.setattr(approximants, "_lapack", real)
        assert [_bits(r) for r in ds.results[::2]] == [
            _bits(solve_optimal(f, 0.5, BasisSpec.onevar(n))) for n in ns[::2]]


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

    def test_predicted_value_that_underflows_is_none(self):
        tr = predicted_rate(-400.0, "separable")  # (n + 1)^-401
        assert tr.predicted_value(4) == 5.0 ** -401
        assert tr.predicted_value(5) is None  # 6^-401 is subnormal
        assert tr.predicted_value(10 ** 6) is None  # 0.0
        assert tr.predicted_value(np.int64(10 ** 6)) is None
        assert predicted_rate(-300.0, "onevar").predicted_value(100) is None

    def test_predicted_value_that_overflows_is_none(self):
        tr = TheoryRate(family="separable", alpha=0.0, mode="power", exponent=400.0)
        assert tr.predicted_value(5) is None
        assert tr.predicted_value(np.int64(5)) is None
        assert tr.predicted_value(1) == 2.0 ** 400


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
