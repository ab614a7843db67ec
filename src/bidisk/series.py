"""Truncated power series in one and two complex variables.

A ``TwoVarSeries`` stores the dense coefficient grid of
``f(z1, z2) = sum_{k,l} a[k,l] z1^k z2^l`` up to an explicit truncation
degree in each variable; a ``OneVarSeries`` is the univariate analogue.
Both share one base class, which holds the read-only coefficient array and
all arithmetic: ``pad``, ``==``, ``isclose``, ``+``, ``-`` and ``*`` with a
scalar or a series of the same class.  Values are immutable and compare
equal iff their arrays, zero-extended to common degrees, agree entrywise.
All arithmetic here is exact polynomial arithmetic on the stored
coefficients (no hidden truncation: products grow the grid, and binary
operations zero-extend to common degrees).  Each class keeps its own
product: ``multiply1`` convolves, ``multiply2`` shift-adds, and the two
round differently.

Structural maps between one and two variables also live here: slices
``f(., w)``, the diagonal restriction ``f(z, z)``, and the lifting
``F(z1^M z2^N)`` / restriction pair attached to a diagonal support pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping, Optional, Tuple, Union

import numpy as np

from .errors import (
    ArgumentError,
    DomainError,
    GridSizeError,
    PatternViolationError,
    SingularReciprocalError,
)

__all__ = [
    "MAX_GRID_ENTRIES",
    "TwoVarSeries",
    "OneVarSeries",
    "DiagonalPattern",
    "constant1",
    "constant2",
    "monomial1",
    "monomial2",
    "separable",
    "multiply1",
    "multiply2",
    "reciprocal1",
    "reciprocal2",
    "slice_series",
    "diag_restrict",
    "lift",
    "restrict",
    "is_diagonal",
    "diagonal_project",
]

# Global cap on coefficient-grid size; exceeding it raises, never truncates.
MAX_GRID_ENTRIES = 4096 * 4096

Scalar = Union[int, float, complex]


def _check_entries(entries: int) -> None:
    if entries > MAX_GRID_ENTRIES:
        raise GridSizeError(
            f"coefficient grid of {entries} entries exceeds the cap of "
            f"{MAX_GRID_ENTRIES}"
        )


def _check_finite(arr: np.ndarray) -> None:
    """Refuse a coefficient array with a NaN or an infinite entry."""
    if not np.isfinite(arr).all():
        raise ArgumentError("coefficients must be finite (no NaN/Inf)")


def _as_grid(values, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ArgumentError(f"expected a {ndim}-dimensional coefficient array, got shape {arr.shape}")
    if arr.size == 0:
        raise ArgumentError("coefficient array must be nonempty")
    _check_finite(arr)
    _check_entries(arr.size)
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


_SCALARS = (int, float, complex)


@dataclass(frozen=True, eq=False)
class _Series:
    """Coefficient array of a series in ``ndim`` variables, and the arithmetic of both kinds.

    A binary operation takes a scalar or a series of the same class; two
    series are zero-extended to common degrees first, and a scalar is added
    to the constant term.  A subclass sets ``ndim`` and gives its exact
    product in ``_product``.
    """

    coeffs: np.ndarray
    ndim: ClassVar[int]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_grid(self.coeffs, self.ndim))

    @classmethod
    def _owning(cls, arr: np.ndarray):
        """The series on ``arr`` itself, not on a copy, for a fresh complex128 array of ``ndim`` dimensions that nothing else holds.

        ``arr`` is refused with :class:`ArgumentError` if it is not finite,
        as the constructor refuses it, and is made read-only.
        """
        _check_finite(arr)
        arr.setflags(write=False)
        series = object.__new__(cls)
        object.__setattr__(series, "coeffs", arr)
        return series

    def pad(self, *degs: int):
        """Zero-extend to degrees at least ``degs``, one per variable."""
        if len(degs) != self.ndim:
            raise TypeError(f"pad() takes {self.ndim} degree(s), got {len(degs)}")
        shape = tuple(max(d + 1, n) for d, n in zip(degs, self.coeffs.shape))
        if shape == self.coeffs.shape:
            return self
        grid = np.zeros(shape, dtype=np.complex128)
        grid[tuple(slice(0, n) for n in self.coeffs.shape)] = self.coeffs
        return type(self)(grid)

    def _aligned(self, other) -> Tuple[np.ndarray, np.ndarray]:
        """The grids of ``self`` and ``other`` zero-extended to common degrees."""
        degs = [max(m, n) - 1 for m, n in zip(self.coeffs.shape, other.coeffs.shape)]
        return self.pad(*degs).coeffs, other.pad(*degs).coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return bool(np.array_equal(*self._aligned(other)))

    def isclose(self, other, rtol: float = 1e-12, atol: float = 1e-12) -> bool:
        return bool(np.allclose(*self._aligned(other), rtol=rtol, atol=atol))

    def __add__(self, other):
        if isinstance(other, type(self)):
            a, b = self._aligned(other)
            return type(self)(a + b)
        if isinstance(other, _SCALARS):
            grid = np.array(self.coeffs)
            grid[(0,) * self.ndim] += other
            return type(self)(grid)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.coeffs)

    def __sub__(self, other):
        if isinstance(other, (type(self),) + _SCALARS):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._product(other)
        if isinstance(other, _SCALARS):
            return type(self)(self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class TwoVarSeries(_Series):
    """Bivariate polynomial / truncated power series on a dense grid.

    ``coeffs[k, l]`` is the coefficient of ``z1^k z2^l``; the grid shape is
    exactly ``(deg1 + 1, deg2 + 1)``.
    """

    ndim = 2

    @property
    def deg1(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def deg2(self) -> int:
        return self.coeffs.shape[1] - 1

    @classmethod
    def from_terms(cls, terms: Mapping[Tuple[int, int], Scalar],
                   deg1: int | None = None, deg2: int | None = None) -> "TwoVarSeries":
        """Build a series from a ``{(k, l): coefficient}`` mapping.

        Every exponent must be nonnegative and at most ``(deg1, deg2)``; any
        other is refused with :class:`ArgumentError`.  A degree left out is
        the largest exponent of the terms in its variable (0 for no terms).
        """
        if deg1 is None:
            deg1 = max((k for k, _ in terms), default=0)
        if deg2 is None:
            deg2 = max((l for _, l in terms), default=0)
        for k, l in terms:
            if k < 0 or l < 0:
                raise ArgumentError(f"exponent ({k}, {l}) must be nonnegative")
            if k > deg1 or l > deg2:
                raise ArgumentError(f"exponent ({k}, {l}) exceeds the degrees ({deg1}, {deg2})")
        grid = np.zeros((deg1 + 1, deg2 + 1), dtype=np.complex128)
        for (k, l), c in terms.items():
            grid[k, l] = c
        return cls(grid)

    def coeff(self, k: int, l: int) -> complex:
        """Coefficient of ``z1^k z2^l`` (zero outside the stored grid)."""
        if 0 <= k <= self.deg1 and 0 <= l <= self.deg2:
            return complex(self.coeffs[k, l])
        return 0.0

    def _product(self, other: "TwoVarSeries") -> "TwoVarSeries":
        return multiply2(self, other)

    def __repr__(self) -> str:
        return f"TwoVarSeries(deg1={self.deg1}, deg2={self.deg2})"


@dataclass(frozen=True, eq=False)
class OneVarSeries(_Series):
    """Univariate polynomial / truncated power series."""

    ndim = 1

    @property
    def deg(self) -> int:
        return self.coeffs.shape[0] - 1

    def coeff(self, k: int) -> complex:
        if 0 <= k <= self.deg:
            return complex(self.coeffs[k])
        return 0.0

    def _product(self, other: "OneVarSeries") -> "OneVarSeries":
        return multiply1(self, other)

    def __repr__(self) -> str:
        return f"OneVarSeries(deg={self.deg})"


@dataclass(frozen=True)
class DiagonalPattern:
    """Support pattern ``{(M k, N k) : k >= 0}`` for diagonal-type series."""

    M: int
    N: int

    def __post_init__(self):
        if not (isinstance(self.M, (int, np.integer)) and isinstance(self.N, (int, np.integer))):
            raise ArgumentError("pattern exponents must be integers")
        if self.M < 1 or self.N < 1:
            raise ArgumentError(f"pattern exponents must be >= 1, got ({self.M}, {self.N})")


def constant2(c: Scalar = 1.0) -> TwoVarSeries:
    return TwoVarSeries(np.array([[c]], dtype=np.complex128))


def constant1(c: Scalar = 1.0) -> OneVarSeries:
    return OneVarSeries(np.array([c], dtype=np.complex128))


def monomial2(k: int, l: int, c: Scalar = 1.0) -> TwoVarSeries:
    """The series ``c * z1^k z2^l``."""
    return TwoVarSeries.from_terms({(k, l): c})


def monomial1(k: int, c: Scalar = 1.0) -> OneVarSeries:
    """The series ``c * z^k``."""
    if k < 0:
        raise ArgumentError(f"exponent {k} must be nonnegative")
    grid = np.zeros(k + 1, dtype=np.complex128)
    grid[k] = c
    return OneVarSeries(grid)


def separable(g: OneVarSeries, h: OneVarSeries) -> TwoVarSeries:
    """The product series ``g(z1) h(z2)`` (outer product of coefficients)."""
    _check_entries((g.deg + 1) * (h.deg + 1))
    return TwoVarSeries(_separable(g.coeffs, h.coeffs))


def _separable(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Outer products ``g[..., k] h[..., l]`` of stacked coefficient rows."""
    return g[..., :, None] * h[..., None, :]


def multiply2(f: TwoVarSeries, g: TwoVarSeries) -> TwoVarSeries:
    """Exact product; result degrees are ``(f.deg1+g.deg1, f.deg2+g.deg2)``."""
    return TwoVarSeries(_multiply2(f.coeffs, g.coeffs))


def _multiply2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The grid of :func:`multiply2` for the grids ``a`` and ``b``, refused past the grid cap, not checked for finiteness."""
    _check_entries((a.shape[0] + b.shape[0] - 1) * (a.shape[1] + b.shape[1] - 1))
    # Shift-add over the factor with fewer nonzero terms: exact and fast
    # when one factor is a short polynomial, which is the common case here.
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    return _shift_add(a, b)


def _shift_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of stacked coefficient grids ``a[..., :, :]`` and ``b[..., :, :]``.

    One shifted copy of ``b``, scaled by ``a[..., k, l]``, is added for each
    position ``(k, l)`` where some grid of the stack ``a`` is nonzero, in
    row-major order; the cost is one vectorized update per such position.
    """
    (a1, a2), (b1, b2) = a.shape[-2:], b.shape[-2:]
    lead = np.broadcast(a[..., 0, 0], b[..., 0, 0]).shape
    out = np.zeros(lead + (a1 + b1 - 1, a2 + b2 - 1), dtype=np.complex128)
    support = a.reshape(-1, a1, a2).any(axis=0)
    for k, l in zip(*np.nonzero(support)):
        out[..., k : k + b1, l : l + b2] += a[..., k, l, None, None] * b
    return out


def multiply1(F: OneVarSeries, G: OneVarSeries) -> OneVarSeries:
    return OneVarSeries(_multiply1(F.coeffs, G.coeffs))


def _multiply1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The coefficients of :func:`multiply1` for the rows ``a`` and ``b``, refused past the grid cap, not checked for finiteness."""
    _check_entries(a.size + b.size - 1)
    return np.convolve(a, b)


def shifted_pairings(coeffs: np.ndarray, target: np.ndarray, box: Tuple[int, int]) -> np.ndarray:
    """Pairings ``out[a, c] = sum_p coeffs[p] * target[(a, c) + p]`` over the shifts of the box ``(A, C)``.

    ``coeffs`` and ``target`` are two-dimensional coefficient grids, and
    ``out`` has the shape ``(A + 1, C + 1)`` of the box of shifts
    ``0 <= a <= A``, ``0 <= c <= C``; ``target`` must hold every shifted
    copy of ``coeffs``.  The sum runs over the nonzero entries ``p`` of
    ``coeffs`` only, in row-major order, each adding the strided window
    ``target[p1:p1 + A + 1, p2:p2 + C + 1]`` times ``coeffs[p]``.
    """
    A, C = box
    out = np.zeros((A + 1, C + 1), dtype=np.complex128)
    for p1, p2 in zip(*np.nonzero(coeffs)):
        out += coeffs[p1, p2] * target[p1:p1 + A + 1, p2:p2 + C + 1]
    return out


def _check_tolerance(value: Optional[float], name: str) -> None:
    """Refuse a tolerance that is set but not a nonnegative number, NaN included."""
    if value is not None and not value >= 0.0:
        raise ArgumentError(f"{name} must be a nonnegative number, got {value!r}")


def _as_int(value, what: str) -> int:
    """``value`` as a Python int by ``operator.index``, so numpy integers pass; else refused, ``what`` naming it."""
    import operator  # in sys.modules from interpreter start-up: this import is a lookup

    try:
        return operator.index(value)
    except TypeError:
        raise ArgumentError(f"{what} must be an integer") from None


def _as_order(n, name: str) -> int:
    """``n`` as a Python int by :func:`_as_int`; a non-integral order is refused."""
    return _as_int(n, f"the order {name}={n!r}")


def _check_order(d, name: str) -> int:
    """A truncation order as a Python int, by :func:`_as_order`; a non-integral or negative one is refused."""
    d = _as_order(d, name)
    if d < 0:
        raise ArgumentError(f"the order {name}={d} must be nonnegative")
    return d


def _require_invertible(a00: complex, eps0: float) -> None:
    _check_tolerance(eps0, "eps0")
    if abs(a00) <= eps0:
        raise SingularReciprocalError(
            f"constant term has modulus {abs(a00):.3e} <= eps0 = {eps0:.3e}; "
            "the reciprocal series is not computable"
        )


def reciprocal2(f: TwoVarSeries, d1: int, d2: int, eps0: float = 1e-12) -> TwoVarSeries:
    """Coefficients of ``1/f`` on the rectangle ``k <= d1, l <= d2``.

    Solves the convolution recurrence
    ``b[k,l] = -(1/a[0,0]) * sum a[i,j] b[k-i,l-j]`` over ``(0,0) < (i,j) <= (k,l)``,
    so ``multiply2(f, result)`` agrees with 1 on every stored index of the
    requested rectangle up to rounding.
    """
    return TwoVarSeries(_reciprocal2(f, _check_order(d1, "d1"), _check_order(d2, "d2"), eps0))


def _reciprocal2(f: TwoVarSeries, d1: int, d2: int, eps0: float) -> np.ndarray:
    """The grid of :func:`reciprocal2`, not checked for finiteness."""
    a00 = complex(f.coeffs[0, 0])
    _require_invertible(a00, eps0)
    _check_entries((d1 + 1) * (d2 + 1))
    support = [
        (int(k), int(l), complex(f.coeffs[k, l]))
        for k, l in zip(*np.nonzero(f.coeffs))
        if (k, l) != (0, 0) and k <= d1 and l <= d2
    ]
    b = np.zeros((d1 + 1, d2 + 1), dtype=np.complex128)
    inv = 1.0 / a00
    b[0, 0] = inv
    for k in range(d1 + 1):
        for l in range(d2 + 1):
            if k == 0 and l == 0:
                continue
            acc = 0.0 + 0.0j
            for i, j, aij in support:
                if i <= k and j <= l:
                    acc += aij * b[k - i, l - j]
            b[k, l] = -inv * acc
    return b


def reciprocal1(F: OneVarSeries, d: int, eps0: float = 1e-12) -> OneVarSeries:
    """Coefficients of ``1/F`` up to degree ``d``."""
    return OneVarSeries(_reciprocal1(F, _check_order(d, "d"), eps0))


def _reciprocal1(F: OneVarSeries, d: int, eps0: float) -> np.ndarray:
    """The coefficients of :func:`reciprocal1`, not checked for finiteness."""
    a0 = complex(F.coeffs[0])
    _require_invertible(a0, eps0)
    b = np.zeros(d + 1, dtype=np.complex128)
    inv = 1.0 / a0
    b[0] = inv
    for k in range(1, d + 1):
        top = min(k, F.deg)
        acc = np.dot(F.coeffs[1 : top + 1], b[k - 1 :: -1][: top])
        b[k] = -inv * acc
    return b


def _fix_index(fix) -> int:
    if fix in ("z1", 1):
        return 1
    if fix in ("z2", 2):
        return 2
    raise ArgumentError(f"variable selector must be 'z1' or 'z2', got {fix!r}")


def slice_series(f: TwoVarSeries, fix, w: complex) -> OneVarSeries:
    """Fix one variable at ``w`` (``|w| < 1``, else :class:`DomainError`) and return the slice in the other.

    With ``fix='z2'`` the result is ``g(z) = f(z, w)``, i.e.
    ``g[k] = sum_l a[k,l] w^l``.
    """
    if not abs(w) < 1.0:  # NaN is refused too
        raise DomainError(f"slice point must satisfy |w| < 1, got |w| = {abs(w):.6g}")
    return OneVarSeries(_slice(f.coeffs, complex(w), _fix_index(fix)))


def _slice(x: np.ndarray, w, which: int) -> np.ndarray:
    """Slices of stacked grids ``x[..., k, l]``, the variable ``which`` fixed at ``w[...]``."""
    if which == 1:
        x = np.swapaxes(x, -1, -2)
    powers = np.power(np.asarray(w, dtype=np.complex128)[..., None], np.arange(x.shape[-1]))
    return (x @ powers[..., None])[..., 0]


def diag_restrict(f: TwoVarSeries) -> OneVarSeries:
    """The diagonal restriction ``f(z, z)``: coefficient ``n`` is ``sum_{k+l=n} a[k,l]``."""
    return OneVarSeries(_diag_restrict(f.coeffs))


def _diag_restrict(x: np.ndarray) -> np.ndarray:
    """Diagonal restrictions of stacked grids, each ``sum_{k+l=n}`` taken in decreasing ``k``."""
    d1, d2 = x.shape[-2] - 1, x.shape[-1] - 1
    out = np.zeros(x.shape[:-2] + (d1 + d2 + 1,), dtype=np.complex128)
    for k in range(d1, -1, -1):
        out[..., k : k + d2 + 1] += x[..., k, :]
    return out


def lift(F: OneVarSeries, pat: DiagonalPattern) -> TwoVarSeries:
    """The substitution ``F(z1^M z2^N)``; coefficient ``F[k]`` lands at ``(M k, N k)``."""
    _check_entries((pat.M * F.deg + 1) * (pat.N * F.deg + 1))
    return TwoVarSeries(_lift(F.coeffs, pat))


def _lift(F: np.ndarray, pat: DiagonalPattern) -> np.ndarray:
    """Lifts of stacked coefficient rows ``F[..., k]`` to ``(M deg + 1, N deg + 1)`` grids."""
    d = F.shape[-1] - 1
    grid = np.zeros(F.shape[:-1] + (pat.M * d + 1, pat.N * d + 1), dtype=np.complex128)
    ks = np.arange(d + 1)
    grid[..., pat.M * ks, pat.N * ks] = F
    return grid


def _pattern_positions(shape, pat: DiagonalPattern):
    """Row and column indices of the pattern points ``(M k, N k)`` inside a grid of ``shape``."""
    kmax = min((shape[-2] - 1) // pat.M, (shape[-1] - 1) // pat.N)
    ks = np.arange(kmax + 1)
    return pat.M * ks, pat.N * ks


def _offending_index(f: TwoVarSeries, pat: DiagonalPattern):
    for k, l in zip(*np.nonzero(f.coeffs)):
        if k % pat.M != 0 or l % pat.N != 0 or k // pat.M != l // pat.N:
            return int(k), int(l)
    return None


def is_diagonal(f: TwoVarSeries, pat: DiagonalPattern) -> bool:
    """True iff every nonzero coefficient sits at some ``(M k, N k)``."""
    return _offending_index(f, pat) is None


def restrict(f: TwoVarSeries, pat: DiagonalPattern) -> OneVarSeries:
    """Inverse of :func:`lift` on pattern-supported series: ``out[k] = a[M k, N k]``."""
    bad = _offending_index(f, pat)
    if bad is not None:
        raise PatternViolationError(
            f"series has support at {bad}, off the ({pat.M},{pat.N})-diagonal"
        )
    return OneVarSeries(_restrict(f.coeffs, pat))


def _restrict(x: np.ndarray, pat: DiagonalPattern) -> np.ndarray:
    """Coefficients ``x[..., M k, N k]`` of stacked grids; off-pattern entries are not checked."""
    return x[(...,) + _pattern_positions(x.shape, pat)]


def diagonal_project(r: TwoVarSeries, pat: DiagonalPattern) -> TwoVarSeries:
    """Zero every coefficient off the ``(M, N)``-diagonal, keeping degrees."""
    return TwoVarSeries(_diagonal_project(r.coeffs, pat))


def _diagonal_project(x: np.ndarray, pat: DiagonalPattern) -> np.ndarray:
    """Stacked grids with every coefficient off the pattern zeroed."""
    at = (...,) + _pattern_positions(x.shape, pat)
    grid = np.zeros_like(x)
    grid[at] = x[at]
    return grid
