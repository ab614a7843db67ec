"""Optimal polynomial approximants to 1/f and explicit near-optimal constructions.

Given ``f`` and an order ``n``, the optimal approximant is the polynomial
``p`` in the chosen basis minimizing ``||p f - 1||`` in the weighted
coefficient norm — equivalently the solution of the Hermitian normal
equations ``G c = e`` with ``G[i,j] = <m_j f, m_i f>`` over basis monomials
``m_i``.  The squared minimum is the squared distance from 1 to ``f``
times the polynomial space.

Every basis is a lattice box: the exponents ``a (M, N) + (0, c)`` for
``0 <= a <= A`` and ``0 <= c <= C``, at position ``a (C + 1) + c``.
``G[i, j]`` vanishes unless the supports of ``m_i f`` and ``m_j f`` overlap,
so in the basis order ``G`` is banded.  Each pair of nonzero coefficients
of ``f`` either misses the box or adds one strided block to one row of the
upper band; the band is assembled pair by pair and factored by banded
Cholesky.  A one-variable problem is the two-variable problem on a single
column: the weight ``(0+1)^alpha`` of the second variable is 1.  On a
diagonal basis, :func:`solve_optimal` solves and certifies a pattern-supported
``f = F(z1^M z2^N)`` as the one-variable problem for ``F`` under the weights
``((Mk+1)(Nk+1))^alpha``, the exact image of the pattern subspace; its result
keeps the one-variable solution and lifts it only when ``p`` is read.  An
``f`` off the pattern is solved on the two-variable diagonal lattice.

Solver policy: normal equations with a banded Cholesky factorization, solved
by LAPACK ``pbtrs``, and a single ridge-regularized retry, whose ridge is recorded on the result;
residuals are always recomputed from the returned coefficients by explicit
series arithmetic, never read off the solver; every solve carries an
orthogonality certificate and a 1-norm condition estimate.  The residual
``p f - 1`` is formed once per solve and yields both the squared residual and
the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import as_strided

from .errors import (
    ArgumentError,
    BasisSizeError,
    ConditioningError,
    GridSizeError,
    NumericalError,
)
from .series import (
    MAX_GRID_ENTRIES,
    DiagonalPattern,
    OneVarSeries,
    TwoVarSeries,
    _restrict,
    is_diagonal,
    lift,
    multiply1,
    multiply2,
    reciprocal1,
    reciprocal2,
    restrict,
    shifted_pairings,
)
from .spaces import AlphaLike, PatternWeight, _norms2, _rate_gauge, as_alpha, norm1, norm2, phi

__all__ = [
    "SOLVER_CAP",
    "BasisSpec",
    "GramSystem",
    "ApproximantResult",
    "gram_assemble",
    "solve_optimal",
    "riesz_approximant",
    "riesz_diagonal",
    "cesaro",
    "residual_norm_sq",
    "diagonal_reduce_solve",
    "closed_form_twisted",
    "perturbation_check",
]

# Hard cap on the number of unknowns per normal-equation solve.
SOLVER_CAP = 10_000

Series = Union[TwoVarSeries, OneVarSeries]

# LAPACK's solve with a banded Cholesky factor, the routine behind
# ``scipy.linalg.cho_solve_banded``, called without its per-call wrapper.
_pbtrs = scipy.linalg.get_lapack_funcs("pbtrs", dtype=np.complex128)


class Lattice(NamedTuple):
    """The lattice box ``{a (M, N) + (0, c) : 0 <= a <= A, 0 <= c <= C}`` of basis exponents.

    The exponent with lattice coordinates ``(a, c)`` sits at position
    ``a (C + 1) + c`` of the basis.
    """

    M: int
    N: int
    A: int
    C: int

    def exponents(self) -> np.ndarray:
        """The exponents as a ``(B, 2)`` array in basis order."""
        a, c = np.divmod(np.arange((self.A + 1) * (self.C + 1)), self.C + 1)
        return np.column_stack((self.M * a, self.N * a + c))

    def basis(self, onevar: bool) -> tuple:
        """The exponents as Python ints in basis order; for ``onevar``, ``a`` alone."""
        if onevar:
            return tuple(range(self.A + 1))
        M, N, A, C = self
        return tuple((M * a, N * a + c) for a in range(A + 1) for c in range(C + 1))


@dataclass(frozen=True)
class BasisSpec:
    """Monomial basis of an order-``n`` polynomial space.

    ``full`` is the square grid ``{z1^k z2^l : 0 <= k, l <= n}``; ``diagonal``
    keeps the pattern monomials ``{(Mk, Nk) : Mk <= n, Nk <= n}``; ``onevar``
    is ``{z^k : k <= n}`` (monomials in the first variable when applied to a
    two-variable function).
    """

    n: int
    kind: str
    pattern: Optional[DiagonalPattern] = None

    def __post_init__(self):
        if self.n < 0:
            raise ArgumentError("basis order must be nonnegative")
        if self.kind not in ("full", "diagonal", "onevar"):
            raise ArgumentError(f"unknown basis kind {self.kind!r}")
        if (self.kind == "diagonal") != (self.pattern is not None):
            raise ArgumentError("diagonal bases need a pattern; other kinds must not carry one")

    @classmethod
    def full(cls, n: int) -> "BasisSpec":
        return cls(n=n, kind="full")

    @classmethod
    def diagonal(cls, n: int, pattern: DiagonalPattern) -> "BasisSpec":
        return cls(n=n, kind="diagonal", pattern=pattern)

    @classmethod
    def onevar(cls, n: int) -> "BasisSpec":
        return cls(n=n, kind="onevar")

    def lattice(self) -> Lattice:
        """The basis as a lattice box; ``z^k`` of a one-variable problem is ``(k, 0)``."""
        if self.kind == "full":
            return Lattice(1, 0, self.n, self.n)
        if self.kind == "diagonal":
            M, N = self.pattern.M, self.pattern.N
            return Lattice(M, N, self.n // max(M, N), 0)
        return Lattice(1, 0, self.n, 0)

    def indices2(self) -> List[Tuple[int, int]]:
        """Monomial exponents for a two-variable problem, constant first."""
        return list(self.lattice().basis(onevar=False))

    def indices1(self) -> List[int]:
        """Monomial exponents for a one-variable problem."""
        self._require_onevar()
        return list(range(self.n + 1))

    def _require_onevar(self) -> None:
        if self.kind != "onevar":
            raise ArgumentError("one-variable problems take a onevar basis")


@dataclass(frozen=True)
class GramSystem:
    """Normal equations ``G c = rhs`` over an ordered monomial basis.

    ``G`` is Hermitian and banded.  ``band`` holds its upper band in LAPACK
    storage: ``band[u + i - j, j] = G[i, j]`` for ``0 <= j - i <= u``, where
    ``u = band.shape[0] - 1`` is the bandwidth.  The basis is the lattice
    box ``lattice``; ``basis`` lists its exponents, built on first read.
    """

    lattice: Lattice
    onevar: bool
    band: np.ndarray
    rhs: np.ndarray

    @cached_property
    def basis(self) -> tuple:
        """Exponents of the basis monomials in basis order: ints for a one-variable problem."""
        return self.lattice.basis(self.onevar)

    @property
    def matrix(self) -> np.ndarray:
        """Dense copy of ``G``."""
        u, size = self.band.shape[0] - 1, self.band.shape[1]
        upper = np.zeros((size, size), dtype=np.complex128)
        for d in range(u + 1):
            j = np.arange(d, size)
            upper[j - d, j] = self.band[u - d, d:]
        return upper + np.triu(upper, 1).conj().T


@dataclass(frozen=True)
class ApproximantResult:
    """A solved approximant with its recomputed residual and certificates.

    ``solved`` is the series the normal equations were solved for, over the
    lattice box ``solved_lattice`` whose exponents ``solved_basis`` lists.
    For a diagonal solve ``pattern`` is its pattern and ``solved`` the
    one-variable solution ``P``; otherwise ``pattern`` is None.
    ``solved_basis``, ``p`` and ``basis`` are built on first read and
    cached: ``p`` and ``basis`` are ``solved`` and ``solved_basis`` as they
    are, or the lifted ``P(z1^M z2^N)`` and the exponents ``(Mk, Nk)``.
    Only reading ``p`` fills a diagonal result's ``(Mm+1) x (Nm+1)`` grid,
    so the grid cap applies there, not to the solve.

    ``ridge`` is the diagonal shift of the regularized retry, 0.0 when the
    Gram matrix factored as assembled; ``cond_estimate`` is a 1-norm
    condition estimate of the matrix actually factored.
    """

    solved: Series
    residual_sq: float
    n: int
    basis_kind: str
    cond_estimate: float
    ortho_residual: float
    solved_lattice: Lattice
    ridge: float = 0.0
    pattern: Optional[DiagonalPattern] = None

    @cached_property
    def solved_basis(self) -> tuple:
        """Exponents of the basis monomials of ``solved``, constant first."""
        return self.solved_lattice.basis(isinstance(self.solved, OneVarSeries))

    @cached_property
    def p(self) -> Series:
        """The approximant, in the variables of the function it approximates."""
        return self.solved if self.pattern is None else lift(self.solved, self.pattern)

    @cached_property
    def basis(self) -> tuple:
        """Exponents of the basis monomials of ``p``, constant first."""
        if self.pattern is None:
            return self.solved_basis
        M, N = self.pattern.M, self.pattern.N
        return tuple((M * k, N * k) for k in self.solved_basis)


def _check_basis_size(size: int) -> None:
    if size > SOLVER_CAP:
        raise BasisSizeError(
            f"basis of {size} unknowns exceeds the solver cap of {SOLVER_CAP}; "
            "choose a reduced basis explicitly"
        )


def _grid(s: Series) -> np.ndarray:
    """Coefficient grid; a one-variable series is a single column."""
    return s.coeffs[:, None] if isinstance(s, OneVarSeries) else s.coeffs


def _exponents(basis, onevar: bool) -> np.ndarray:
    """Basis exponents as a ``(B, 2)`` array; ``z^k`` of a one-variable problem is ``(k, 0)``."""
    e = np.asarray(basis, dtype=np.intp)
    return np.column_stack((e, np.zeros_like(e))) if onevar else e.reshape(-1, 2)


def _gram_band(grid: np.ndarray, aw, lat: Lattice) -> Tuple[np.ndarray, np.ndarray]:
    """Upper band of ``G`` and the right-hand side over the lattice box ``lat``.

    ``m_j f`` and ``m_i f`` overlap where ``m_j + p = m_i + q`` for nonzero
    coefficients ``f[p]``, ``f[q]``; each such pair adds ``f[p] conj(f[q])``
    times the weight at ``m_j + p`` to ``G[i, j]``.  The pair reaches the
    lattice only if ``p - q = da (M, N) + dc (0, 1)`` in integers.  Then
    ``i - j = da (C + 1) + dc`` is the same for all ``j``, and the columns
    ``j`` with ``m_j + p - q`` in the box form a rectangle of lattice
    coordinates: the pair adds one strided block to one band row.
    """
    M, N, A, C = lat
    F1, F2 = grid.shape
    w1 = aw.weights(M * A + F1 - 1)
    w2 = aw.weights(N * A + C + F2 - 1)
    # w2_at[a, t] = w2[N a + t], the second-variable weight at a (M, N) + (0, t); a view
    step = w2.strides[0]
    w2_at = as_strided(w2, shape=(A + 1, C + F2), strides=(N * step, step), writeable=False)
    nonzero = np.argwhere(grid).tolist()
    blocks = []  # (j - i, p, q, lattice rectangle of the columns j)
    for p1, p2 in nonzero:
        for q1, q2 in nonzero:
            da, rem = divmod(p1 - q1, M)
            dc = p2 - q2 - N * da
            a0, a1 = max(0, -da), min(A, A - da)
            c0, c1 = max(0, -dc), min(C, C - dc)
            offset = da * (C + 1) + dc
            if rem == 0 and offset <= 0 and a0 <= a1 and c0 <= c1:
                blocks.append((-offset, p1, p2, q1, q2, a0, a1, c0, c1))
    u = max((block[0] for block in blocks), default=0)
    band = np.zeros((u + 1, (A + 1) * (C + 1)), dtype=np.complex128)
    rows = band.reshape(u + 1, A + 1, C + 1)
    p = None
    for d, p1, p2, q1, q2, a0, a1, c0, c1 in blocks:
        if (p1, p2) != p:
            # f[p] times the weight at m_j + p, for every column j
            p = (p1, p2)
            weighted = (grid[p] * w1[p1:M * A + p1 + 1:M])[:, None] * w2_at[:, p2:C + p2 + 1]
        rows[u - d, a0:a1 + 1, c0:c1 + 1] += weighted[a0:a1 + 1, c0:c1 + 1] * np.conj(grid[q1, q2])
    band[u] = band[u].real  # the diagonal of a Hermitian matrix is real
    rhs = np.zeros(band.shape[1], dtype=np.complex128)
    rhs[0] = np.conj(grid[0, 0])  # position 0 is the constant monomial
    return band, rhs


def gram_assemble(f: Series, a: Union[AlphaLike, PatternWeight], b: BasisSpec) -> GramSystem:
    """Assemble the normal equations for minimizing ``||p f - 1||`` over ``b``.

    ``G[i,j] = <m_j f, m_i f>`` and ``rhs[i] = <1, m_i f>``; the right-hand
    side is supported on the constant monomial only, where it equals the
    conjugate of ``f``'s constant coefficient.  The upper band is built on
    the lattice box of ``b`` (:meth:`BasisSpec.lattice`): each of the
    ``nnz(f)^2`` pairs of nonzero coefficients either misses the box or adds
    one strided rectangular block, ``f[p]`` times the weights times
    ``conj(f[q])``, to one band row.  The cost is ``O(B nnz(f)^2)`` for
    ``B`` unknowns.  ``a`` is a space parameter, or a
    :class:`PatternWeight` for a one-variable ``f``.
    """
    aw = a if isinstance(a, PatternWeight) else as_alpha(a)
    onevar = isinstance(f, OneVarSeries)
    if onevar:
        b._require_onevar()
    lat = b.lattice()
    _check_basis_size((lat.A + 1) * (lat.C + 1))
    if not np.any(f.coeffs):
        raise ArgumentError("f must not be identically zero")
    band, rhs = _gram_band(_grid(f), aw, lat)
    return GramSystem(lattice=lat, onevar=onevar, band=band, rhs=rhs)


def _band_norm1(band: np.ndarray) -> float:
    """``||G||_1`` of the Hermitian matrix whose upper band is ``band``."""
    u, size = band.shape[0] - 1, band.shape[1]
    mags = np.empty((u + 1, size + u))
    mags[:, size:] = 0.0
    np.abs(band, out=mags[:, :size])
    # the sums of the columns on and above the diagonal replace the diagonal
    mags[u, :size] = mags[:, :size].sum(axis=0)
    # skew[0] is that row and skew[d, i] = mags[u - d, i + d] = |G[i + d, i]| for
    # d >= 1 (zero past the end): summing skew over d adds the part of column i
    # below the diagonal one d after another, in the order of a loop over d
    step0, step1 = mags.strides
    skew = as_strided(mags[u], shape=(u + 1, size), strides=(step1 - step0, step1), writeable=False)
    return float(skew.sum(axis=0).max())


def _inverse_norm1(solve: Callable[[np.ndarray], np.ndarray], size: int) -> float:
    """Estimate of ``||G^-1||_1`` for Hermitian ``G`` from a few solves.

    Hager's method with Higham's refinements (LAPACK ``zlacn2``): ascend
    ``||G^-1 x||_1`` over unit vectors ``e_j`` along the gradient, then try an
    alternating-sign vector as a safeguard.  Every candidate is
    ``||G^-1 x||_1 / ||x||_1`` for some ``x``, so the estimate never exceeds
    the true norm; it is deterministic.  ``G`` being Hermitian, the adjoint
    solves reuse ``solve``.
    """

    def sign(y):
        # y / |y| overflows for subnormal |y| (numpy's complex division forms
        # 1 / |y|), so those entries take their phase from the angle
        mag = np.abs(y)
        small = mag < np.finfo(float).tiny
        out = y / np.where(small, 1.0, mag)
        if small.any():
            out[small] = np.where(mag[small] > 0.0, np.exp(1j * np.angle(y[small])), 1.0)
        return out

    y = solve(np.full(size, 1.0 / size, dtype=np.complex128))
    est = float(np.abs(y).sum())
    if size == 1:
        return est
    j = int(np.argmax(np.abs(solve(sign(y)))))
    for _ in range(4):
        unit = np.zeros(size, dtype=np.complex128)
        unit[j] = 1.0
        y = solve(unit)
        candidate = float(np.abs(y).sum())
        if candidate <= est:
            break
        est = candidate
        z = np.abs(solve(sign(y)))
        j_last, j = j, int(np.argmax(z))
        if z[j_last] == z[j]:
            break
    i = np.arange(size)
    alternating = np.where(i % 2 == 0, 1.0, -1.0) * (1.0 + i / (size - 1.0))
    return max(est, 2.0 * float(np.abs(solve(alternating)).sum()) / (3.0 * size))


def _factor(gram: GramSystem, n: int) -> Tuple[np.ndarray, np.ndarray, float]:
    """Banded Cholesky factor, the band it factors and the ridge added to it."""
    try:
        return scipy.linalg.cholesky_banded(gram.band), gram.band, 0.0
    except scipy.linalg.LinAlgError:
        pass
    band = gram.band.copy()
    ridge = 1e-12 * float(np.mean(band[-1].real))
    band[-1] += ridge
    try:
        return scipy.linalg.cholesky_banded(band), band, ridge
    except scipy.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"Gram factorization at order n={n} failed even with ridge {ridge:.3e}",
            cond_estimate=float("inf"),
        ) from exc


def _solve_normal(gram: GramSystem, n: int) -> Tuple[np.ndarray, float, float]:
    """Coefficients, the ridge applied (0.0 if none) and a 1-norm condition estimate."""
    factor, band, ridge = _factor(gram, n)

    def solve(x):
        y, info = _pbtrs(factor, x)
        if info != 0:
            raise NumericalError(f"banded solve at order n={n} failed: LAPACK pbtrs info {info}")
        return y

    c = solve(gram.rhs)
    cond = _band_norm1(band) * _inverse_norm1(solve, len(c))
    return c, ridge, cond


def _series_from_solution(c: np.ndarray, e: np.ndarray, onevar: bool) -> Series:
    """The series with coefficient ``c[i]`` at the exponent ``e[i]``."""
    grid = np.zeros(tuple(e.max(axis=0) + 1), dtype=np.complex128)
    grid[e[:, 0], e[:, 1]] = c
    return OneVarSeries(grid[:, 0]) if onevar else TwoVarSeries(grid)


def residual_norm_sq(p: Series, f: Series, a: AlphaLike) -> float:
    """Exact ``||p f - 1||^2`` by explicit series multiplication."""
    if isinstance(p, OneVarSeries):
        return norm1(multiply1(p, f) - 1.0, a) ** 2
    return norm2(multiply2(p, f) - 1.0, a) ** 2


def _norm_sq(grid: np.ndarray, aw) -> float:
    """Squared weighted norm of a coefficient grid, rounded as ``norm2(...)**2`` rounds it."""
    return float(_norms2(grid, aw.weights(grid.shape[0] - 1), aw.weights(grid.shape[1] - 1))) ** 2


def _certify(
    p: Series,
    f: Series,
    aw,
    e: np.ndarray,
    *,
    n: int,
    ridge: float,
    cond: float,
    ortho_tol: Optional[float],
) -> Tuple[float, float]:
    """``||p f - 1||^2`` and the certificate ``max_i |<p f - 1, m_i f>|`` from one product.

    ``e`` holds the basis exponents.  Raises a conditioning error when the
    certificate exceeds ``ortho_tol`` (default ``1e-8 * ||f||^2``).
    """
    r = _grid((multiply1(p, f) if isinstance(p, OneVarSeries) else multiply2(p, f)) - 1.0)
    wr = aw.weights(r.shape[0] - 1)[:, None] * aw.weights(r.shape[1] - 1)[None, :] * r
    fg = _grid(f)
    ortho = float(np.max(np.abs(shifted_pairings(np.conj(fg), wr, e))))
    tol = 1e-8 * _norm_sq(fg, aw) if ortho_tol is None else ortho_tol
    if ortho > tol:
        raise ConditioningError(
            f"orthogonality certificate {ortho:.3e} exceeds tolerance {tol:.3e} "
            f"at order n={n} (condition estimate {cond:.3e}, ridge {ridge:.3e})",
            cond_estimate=cond,
        )
    return _norm_sq(r, aw), ortho


def _solve(f: Series, aw, b: BasisSpec, n: int, ortho_tol: Optional[float]) -> ApproximantResult:
    """Assemble, factor and certify over ``b`` under the weights ``aw``; errors name ``n``."""
    onevar = isinstance(f, OneVarSeries)
    gram = gram_assemble(f, aw, b)
    c, ridge, cond = _solve_normal(gram, n)
    e = gram.lattice.exponents()
    p = _series_from_solution(c, e, onevar)
    res_sq, ortho = _certify(p, f, aw, e, n=n, ridge=ridge, cond=cond, ortho_tol=ortho_tol)
    return ApproximantResult(
        solved=p,
        residual_sq=res_sq,
        n=n,
        basis_kind=b.kind,
        cond_estimate=cond,
        ortho_residual=ortho,
        solved_lattice=gram.lattice,
        ridge=ridge,
    )


def solve_optimal(
    f: Series,
    a: AlphaLike,
    b: BasisSpec,
    *,
    ortho_tol: Optional[float] = None,
) -> ApproximantResult:
    """Solve for the optimal approximant of order ``b.n`` in basis ``b``.

    The one place that maps a basis to a solver: a two-variable ``f`` on
    the pattern of a diagonal ``b`` is solved on the pattern, as by
    :func:`diagonal_reduce_solve`; any other problem, an off-pattern ``f``
    included, on the lattice box of ``b``, refused with :class:`GridSizeError`
    before assembly if the grid of ``p`` would exceed ``MAX_GRID_ENTRIES``.

    The residual is recomputed from the solution coefficients by series
    arithmetic, and the orthogonality certificate
    ``max_i |<p f - 1, m_i f>|`` must come out below ``ortho_tol``
    (default ``1e-8 * ||f||^2``), else a conditioning error is raised.
    """
    aw = as_alpha(a)
    if b.kind == "diagonal" and isinstance(f, TwoVarSeries) and is_diagonal(f, b.pattern):
        return _pattern_solve(OneVarSeries(_restrict(f.coeffs, b.pattern)), aw, b, ortho_tol)
    M, N, A, C = b.lattice()
    entries = (M * A + 1) * (N * A + C + 1)
    if entries > MAX_GRID_ENTRIES:
        raise GridSizeError(f"order n={b.n} needs a grid of {entries} entries, over {MAX_GRID_ENTRIES}")
    return _solve(f, aw, b, b.n, ortho_tol)


def _pattern_solve(F: OneVarSeries, aw, b: BasisSpec, ortho_tol: Optional[float]) -> ApproximantResult:
    """The diagonal solve over ``b`` of ``F(z1^M z2^N)``, given the restriction ``F``."""
    res = _solve(F, PatternWeight(aw, b.pattern), BasisSpec.onevar(b.lattice().A), b.n, ortho_tol)
    return replace(res, basis_kind="diagonal", pattern=b.pattern)


def _phi_grid(alpha: float, values: np.ndarray) -> np.ndarray:
    if alpha == 1.0:
        out = np.zeros_like(values, dtype=float)
        pos = values > 1.0
        out[pos] = np.log(values[pos])
        return out
    return values.astype(float) ** (1.0 - alpha)


def _riesz_weights(aw, grading: np.ndarray, n: int) -> np.ndarray:
    """Weights ``1 - phi(grading) / phi(n + 1)`` of the order-``n`` Riesz mean."""
    denom = phi(aw, n + 1)
    if denom == 0.0:
        # only reachable at alpha = 1, n = 0, where the sole weight is 1
        return np.ones(grading.shape)
    return 1.0 - _phi_grid(aw.alpha, grading) / denom


def riesz_approximant(f: TwoVarSeries, a: AlphaLike, n: int, eps0: float = 1e-12) -> TwoVarSeries:
    """Riesz-type mean of the reciprocal series on the square grid of order ``n``.

    Coefficient ``(k, l)`` of the result is
    ``(1 - phi(max(k, l)) / phi(n + 1)) * b[k, l]`` with ``b`` the reciprocal
    of ``f`` truncated at ``(n, n)``.  At ``alpha = 0`` this is the order-``n``
    Cesaro mean of the reciprocal's expansion in the ``max(k, l)`` grading.
    """
    aw = _rate_gauge(a)
    b = reciprocal2(f, n, n, eps0)
    idx = np.arange(n + 1)
    return TwoVarSeries(_riesz_weights(aw, np.maximum.outer(idx, idx), n) * b.coeffs)


def riesz_diagonal(
    f: TwoVarSeries, a: AlphaLike, n: int, pat: DiagonalPattern, eps0: float = 1e-12
) -> TwoVarSeries:
    """Riesz-type approximant built along a diagonal support pattern.

    The one-variable Riesz weights ``1 - phi(k)/phi(n+1)`` are applied to the
    reciprocal of the restricted function and the result is lifted back, so
    the approximant is a degree-``n`` polynomial in ``z1^M z2^N``.  For the
    pattern ``(1, 1)`` this coincides with :func:`riesz_approximant`.
    """
    aw = _rate_gauge(a)
    B = reciprocal1(restrict(f, pat), n, eps0)
    return lift(OneVarSeries(_riesz_weights(aw, np.arange(n + 1), n) * B.coeffs), pat)


def cesaro(f: TwoVarSeries, n: int, eps0: float = 1e-12) -> TwoVarSeries:
    """Order-``n`` Cesaro mean of the reciprocal series.

    The average of the Taylor sections ``t_0, ..., t_n`` in the ``max(k, l)``
    grading: coefficient ``(k, l)`` appears in the sections ``t_m`` with
    ``m >= max(k, l)``, so it is weighted by ``1 - max(k, l) / (n + 1)``,
    which is the ``alpha = 0`` Riesz mean.
    """
    return riesz_approximant(f, 0.0, n, eps0)


def closed_form_twisted(a: AlphaLike, n: int, pat: DiagonalPattern) -> float:
    """Exact squared residual of the diagonal Riesz approximant for ``1 - z1^M z2^N``.

    Evaluates ``phi(n+1)^-2 * sum_{k=1}^{n+1} (phi(k) - phi(k-1))^2
    (Mk+1)^alpha (Nk+1)^alpha``, which is what
    ``residual_norm_sq(riesz_diagonal(...))`` computes term by term.
    """
    aw = _rate_gauge(a)
    denom = phi(aw, n + 1)
    if denom == 0.0:
        # alpha = 1, n = 0: the approximant is the constant 1, residual -z1^M z2^N
        return float((pat.M + 1.0) ** aw.alpha * (pat.N + 1.0) ** aw.alpha)
    k = np.arange(1.0, n + 2.0)
    increments = _phi_grid(aw.alpha, k) - _phi_grid(aw.alpha, k - 1.0)
    weights = (pat.M * k + 1.0) ** aw.alpha * (pat.N * k + 1.0) ** aw.alpha
    return float(np.sum(increments**2 * weights) / denom**2)


def diagonal_reduce_solve(
    f: TwoVarSeries,
    a: AlphaLike,
    n: int,
    pat: DiagonalPattern,
    *,
    ortho_tol: Optional[float] = None,
) -> ApproximantResult:
    """Optimal approximant of order ``n`` for pattern-supported ``f``.

    Restricting the minimization to the diagonal basis loses nothing for
    diagonal ``f`` (projecting any competitor onto the pattern can only
    shrink the residual), so this attains the full square-basis optimum.
    ``f = F(z1^M z2^N)`` is solved as the one-variable problem for ``F`` of
    order ``n // max(M, N)`` under the weights ``((Mk+1)(Nk+1))^alpha`` — an
    exact isometry onto the pattern subspace, which for ``(1, 1)`` is the
    one-variable space at doubled parameter.  Residual and certificate are
    computed on the pattern.  The result stores the one-variable solution
    ``P`` and its exponents ``k`` with ``pattern=pat``; ``result.p`` lifts
    it to ``P(z1^M z2^N)`` and ``result.basis`` gives the pattern exponents
    ``(Mk, Nk)``, both only when read.  A scan that reads neither never
    fills an ``(Mm+1) x (Nm+1)`` grid, so it reaches orders up to the
    solver cap; reading ``p`` beyond the grid cap raises
    :class:`GridSizeError`.  An ``f`` off the pattern raises
    :class:`PatternViolationError`, where :func:`solve_optimal` solves it
    on the diagonal lattice.
    """
    return _pattern_solve(restrict(f, pat), as_alpha(a), BasisSpec.diagonal(n, pat), ortho_tol)


def perturbation_check(
    result: ApproximantResult,
    f: Series,
    a: AlphaLike,
    *,
    n_directions: int = 20,
    eps: float = 1e-3,
    seed: int = 0,
) -> float:
    """Largest residual decrease found by perturbing ``p`` in its basis span.

    Probes ``p + eps * q`` for random unit-norm directions ``q`` supported on
    the solved basis and returns ``max(residual_sq - residual(p + eps q))``;
    a value at rounding level certifies local optimality.
    """
    aw = as_alpha(a)
    rng = np.random.default_rng(seed)
    p, basis = result.p, result.basis
    onevar = isinstance(p, OneVarSeries)
    e = _exponents(basis, onevar)
    worst = 0.0
    for _ in range(n_directions):
        coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        q = _series_from_solution(coeffs, e, onevar)
        qnorm = norm1(q, aw) if onevar else norm2(q, aw)
        q = q * (1.0 / qnorm)
        perturbed = p + eps * q
        decrease = result.residual_sq - residual_norm_sq(perturbed, f, aw)
        worst = max(worst, decrease)
    return worst
