"""Series arithmetic, structural maps, and their invariants."""

import numpy as np
import pytest

from bidisk.errors import (
    ArgumentError,
    DomainError,
    GridSizeError,
    PatternViolationError,
    SingularReciprocalError,
)
from bidisk.series import (
    DiagonalPattern,
    OneVarSeries,
    TwoVarSeries,
    constant1,
    constant2,
    diag_restrict,
    diagonal_project,
    is_diagonal,
    lift,
    monomial2,
    multiply1,
    multiply2,
    reciprocal1,
    reciprocal2,
    restrict,
    separable,
    slice_series,
)
from bidisk.spaces import norm2

from oracles import random_invertible, random_one_var, random_two_var

ONE_MINUS_Z1Z2 = TwoVarSeries.from_terms({(0, 0): 1, (1, 1): -1})
PRODUCT = separable(OneVarSeries([1, -1]), OneVarSeries([1, -1]))


class TestConstruction:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TwoVarSeries([[1.0, np.nan]])
        with pytest.raises(ValueError):
            OneVarSeries([np.inf])

    def test_grid_shape_is_exact(self):
        s = TwoVarSeries(np.zeros((3, 5)))
        assert (s.deg1, s.deg2) == (2, 4)
        assert s.coeffs.shape == (3, 5)

    def test_immutable(self):
        s = constant2(1.0)
        with pytest.raises(ValueError):
            s.coeffs[0, 0] = 2.0

    def test_equality_zero_extends(self):
        a = TwoVarSeries([[1.0]])
        b = TwoVarSeries([[1.0, 0.0], [0.0, 0.0]])
        assert a == b
        assert a != TwoVarSeries([[1.0, 0.0], [0.0, 1e-30]])
        assert OneVarSeries([2.0]) == OneVarSeries([2.0, 0.0, 0.0])

    def test_grid_cap(self):
        with pytest.raises(GridSizeError):
            TwoVarSeries.from_terms({(5000, 5000): 1.0})


class TestMultiply:
    def test_product_of_factors(self):
        g = separable(OneVarSeries([1, -1]), constant1(1))
        h = separable(constant1(1), OneVarSeries([1, -1]))
        assert multiply2(g, h) == TwoVarSeries([[1, -1], [-1, 1]])

    def test_identity(self):
        assert multiply2(ONE_MINUS_Z1Z2, constant2(1)) == ONE_MINUS_Z1Z2

    def test_difference_of_squares(self):
        p = TwoVarSeries([[1], [1]])
        m = TwoVarSeries([[1], [-1]])
        assert multiply2(p, m) == TwoVarSeries([[1], [0], [-1]])

    def test_degrees_add(self):
        rng = np.random.default_rng(5)
        f = random_two_var(rng)
        g = random_two_var(rng)
        out = multiply2(f, g)
        assert (out.deg1, out.deg2) == (f.deg1 + g.deg1, f.deg2 + g.deg2)

    def test_bilinear(self):
        rng = np.random.default_rng(6)
        f, g, h = (random_two_var(rng, max_deg=4) for _ in range(3))
        lhs = multiply2(f, g + h)
        rhs = multiply2(f, g) + multiply2(f, h)
        assert lhs.isclose(rhs, atol=1e-10)

    def test_size_limit(self):
        big = monomial2(4000, 4000)
        with pytest.raises(GridSizeError):
            multiply2(big, monomial2(500, 500))


# Each series type with its exact product and a small and a large shape.
KINDS = [
    pytest.param(OneVarSeries, multiply1, (2,), (5,), id="one"),
    pytest.param(TwoVarSeries, multiply2, (2, 4), (3, 2), id="two"),
]


@pytest.mark.parametrize("cls, product, small, large", KINDS)
class TestArithmetic:
    """The arithmetic that one- and two-variable series share, checked bit for bit."""

    @staticmethod
    def draw(cls, shape, seed):
        rng = np.random.default_rng(seed)
        return cls(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    @staticmethod
    def padded(x, shape):
        out = np.zeros(shape, dtype=np.complex128)
        out[tuple(slice(0, n) for n in x.shape)] = x
        return out

    def test_add_sub_zero_extend(self, cls, product, small, large):
        a, b = self.draw(cls, small, 1), self.draw(cls, large, 2)
        shape = tuple(np.maximum(small, large))
        pa, pb = self.padded(a.coeffs, shape), self.padded(b.coeffs, shape)
        cases = ((a + b, pa + pb), (b + a, pb + pa), (a - b, pa + -pb), (b - a, pb + -pa))
        for got, want in cases:
            assert type(got) is cls
            assert np.array_equal(got.coeffs, want)
            assert not got.coeffs.flags.writeable

    def test_eq_zero_extends(self, cls, product, small, large):
        a = self.draw(cls, small, 3)
        bigger = tuple(s + 2 for s in small)
        assert a == cls(self.padded(a.coeffs, bigger))
        assert cls(self.padded(a.coeffs, bigger)) == a
        tail = self.padded(a.coeffs, bigger)
        tail[(-1,) * len(small)] = 1e-30
        assert a != cls(tail)
        assert a.isclose(cls(tail))
        assert not a.isclose(a + 1e-6)

    def test_scalars_either_side(self, cls, product, small, large):
        f = self.draw(cls, small, 4)
        origin = (0,) * len(small)
        shifted = np.array(f.coeffs)
        shifted[origin] += 2.5
        assert np.array_equal((f + 2.5).coeffs, shifted)
        assert np.array_equal((2.5 + f).coeffs, shifted)
        lowered = np.array(f.coeffs)
        lowered[origin] += -1
        assert np.array_equal((f - 1).coeffs, lowered)
        one_minus = -f.coeffs
        one_minus[origin] += 1
        assert np.array_equal((1 - f).coeffs, one_minus)
        for c in (2, 0.5, 1j):
            assert np.array_equal((c * f).coeffs, f.coeffs * c)
            assert np.array_equal((f * c).coeffs, f.coeffs * c)
        assert f.coeffs[origin] != shifted[origin]  # the operand is not modified

    def test_unary_minus(self, cls, product, small, large):
        f = self.draw(cls, small, 5)
        assert type(-f) is cls
        assert np.array_equal((-f).coeffs, -f.coeffs)
        assert -(-f) == f

    def test_series_product(self, cls, product, small, large):
        a, b = self.draw(cls, small, 6), self.draw(cls, large, 7)
        for x, y in ((a, b), (b, a)):
            got = x * y
            assert type(got) is cls
            assert np.array_equal(got.coeffs, product(x, y).coeffs)

    def test_pad(self, cls, product, small, large):
        f = self.draw(cls, small, 8)
        degs = [s - 1 for s in small]
        assert f.pad(*degs) is f
        assert f.pad(*(d - 1 for d in degs)) is f
        grown = f.pad(*(d + 3 for d in degs))
        assert grown.coeffs.shape == tuple(s + 3 for s in small)
        assert np.array_equal(grown.coeffs, self.padded(f.coeffs, grown.coeffs.shape))
        with pytest.raises(TypeError):
            f.pad(*degs, 0)  # one degree per variable

    def test_mixed_types_refused(self, cls, product, small, large):
        f = self.draw(cls, small, 9)
        other = constant2(1.0) if cls is OneVarSeries else constant1(1.0)
        for x, y in ((f, other), (other, f)):
            for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
                with pytest.raises(TypeError):
                    op(x, y)
            assert x != y
        with pytest.raises(TypeError):
            f + "1"

    def test_nan_scalar_refused(self, cls, product, small, large):
        f = self.draw(cls, small, 10)
        for op in (lambda: f + np.nan, lambda: np.nan - f, lambda: f * np.nan,
                   lambda: complex(0, np.inf) * f):
            with pytest.raises(ArgumentError):
                op()


class TestReciprocal:
    def test_geometric_diagonal(self):
        b = reciprocal2(ONE_MINUS_Z1Z2, 3, 3)
        assert b.isclose(TwoVarSeries(np.eye(4)))

    def test_full_grid_of_ones(self):
        b = reciprocal2(PRODUCT, 2, 2)
        assert b.isclose(TwoVarSeries(np.ones((3, 3))))

    def test_identity(self):
        assert reciprocal2(constant2(1.0), 2, 2) == constant2(1.0)

    def test_singular(self):
        with pytest.raises(SingularReciprocalError) as err:
            reciprocal2(TwoVarSeries([[0.0, 1.0]]), 2, 2)
        assert "eps0" in str(err.value)

    def test_consistency_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            f = random_invertible(rng, max_deg=5)
            d1, d2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            b = reciprocal2(f, d1, d2)
            prod = multiply2(f, b)
            target = np.zeros((d1 + 1, d2 + 1), dtype=complex)
            target[0, 0] = 1.0
            tol = 1e-12 * (1.0 + np.abs(f.coeffs).sum())
            assert np.max(np.abs(prod.coeffs[: d1 + 1, : d2 + 1] - target)) <= tol

    def test_onevar_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            F = random_one_var(rng, max_deg=6)
            grid = np.array(F.coeffs)
            grid[0] = 1.0 + abs(grid[0])
            F = OneVarSeries(grid)
            B = reciprocal1(F, 10)
            prod = multiply1(F, B)
            assert abs(prod.coeffs[0] - 1.0) < 1e-12
            assert np.max(np.abs(prod.coeffs[1:11])) < 1e-10 * (1 + np.abs(F.coeffs).sum())


class TestSlice:
    def test_constant_term(self):
        assert slice_series(ONE_MINUS_Z1Z2, "z2", 0.0) == constant1(1.0)

    def test_direct_substitution(self):
        assert slice_series(ONE_MINUS_Z1Z2, "z2", 0.5).isclose(OneVarSeries([1, -0.5]))

    def test_product_slice(self):
        assert slice_series(PRODUCT, "z2", 0.5).isclose(OneVarSeries([0.5, -0.5]))

    def test_other_variable(self):
        f = TwoVarSeries([[0, 1], [2, 0]])  # z2 + 2 z1
        assert slice_series(f, "z1", 0.25).isclose(OneVarSeries([0.5, 1.0]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            slice_series(ONE_MINUS_Z1Z2, "z2", 1.0)


class TestDiagRestrict:
    def test_single_antidiagonal(self):
        assert diag_restrict(ONE_MINUS_Z1Z2) == OneVarSeries([1, 0, -1])

    def test_product(self):
        assert diag_restrict(PRODUCT) == OneVarSeries([1, -2, 1])

    def test_first_variable_only(self):
        assert diag_restrict(TwoVarSeries([[1], [-1]])) == OneVarSeries([1, -1])

    def test_linear(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            f = random_two_var(rng, max_deg=6)
            g = random_two_var(rng, max_deg=6)
            lhs = diag_restrict(f + g)
            rhs = diag_restrict(f) + diag_restrict(g)
            assert lhs.isclose(rhs, atol=1e-12)


class TestLiftRestrict:
    def test_lift_examples(self):
        F = OneVarSeries([1, -1])
        assert lift(F, DiagonalPattern(1, 1)) == ONE_MINUS_Z1Z2
        assert lift(F, DiagonalPattern(2, 3)) == TwoVarSeries.from_terms({(0, 0): 1, (2, 3): -1})
        assert lift(constant1(1), DiagonalPattern(3, 2)) == constant2(1)

    def test_restrict_examples(self):
        assert restrict(ONE_MINUS_Z1Z2, DiagonalPattern(1, 1)) == OneVarSeries([1, -1])
        f = TwoVarSeries.from_terms({(0, 0): 1, (2, 1): -1})
        assert restrict(f, DiagonalPattern(2, 1)) == OneVarSeries([1, -1])
        assert restrict(constant2(1), DiagonalPattern(3, 1)) == constant1(1)

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            deg = int(rng.integers(0, 17))
            F = OneVarSeries(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            M = int(rng.integers(1, 4))
            N = int(rng.integers(1, 4))
            pat = DiagonalPattern(M, N)
            assert restrict(lift(F, pat), pat) == F

    def test_pattern_violation_names_index(self):
        with pytest.raises(PatternViolationError) as err:
            restrict(PRODUCT, DiagonalPattern(1, 1))
        assert "(" in str(err.value)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            DiagonalPattern(0, 1)


class TestDiagonalProject:
    def test_keeps_diagonal_support(self):
        r = TwoVarSeries.from_terms({(0, 0): 1, (1, 0): 1, (1, 1): 1})
        s = diagonal_project(r, DiagonalPattern(1, 1))
        assert s == TwoVarSeries.from_terms({(0, 0): 1, (1, 1): 1})

    def test_idempotent_on_diagonal(self):
        f = TwoVarSeries.from_terms({(0, 0): 1, (2, 2): -3})
        assert diagonal_project(f, DiagonalPattern(1, 1)) == f

    def test_pattern_21(self):
        r = TwoVarSeries.from_terms({(2, 1): 1, (2, 4): 1})
        assert diagonal_project(r, DiagonalPattern(2, 1)) == TwoVarSeries.from_terms({(2, 1): 1})

    def test_is_diagonal(self):
        assert is_diagonal(ONE_MINUS_Z1Z2, DiagonalPattern(1, 1))
        assert not is_diagonal(PRODUCT, DiagonalPattern(1, 1))
        assert is_diagonal(constant2(0.0) * 0, DiagonalPattern(2, 3))

    def test_idempotent_and_norm_decreasing(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            r = random_two_var(rng, max_deg=7)
            M = int(rng.integers(1, 4))
            N = int(rng.integers(1, 4))
            pat = DiagonalPattern(M, N)
            s = diagonal_project(r, pat)
            assert diagonal_project(s, pat) == s
            for alpha in (-1.0, 0.0, 1.0):
                assert norm2(s, alpha) <= norm2(r, alpha) + 1e-12
