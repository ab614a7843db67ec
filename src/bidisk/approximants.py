"""Optimal polynomial approximants to 1/f and explicit near-optimal constructions.

Given ``f`` and an order ``n``, the optimal approximant is the polynomial
``p`` in the chosen basis minimizing ``||p f - 1||`` in the weighted
coefficient norm — equivalently the solution of the Hermitian normal
equations ``G c = e`` with ``G[i,j] = <m_j f, m_i f>`` over basis monomials
``m_i``.  The squared minimum is the squared distance from 1 to ``f``
times the polynomial space.

Every basis is a lattice box: the exponents ``(a, c)`` for ``0 <= a <= A``
and ``0 <= c <= C``, at position ``a (C + 1) + c``.  ``G[i, j]`` vanishes
unless the supports of ``m_i f`` and ``m_j f`` overlap, so in the basis
order ``G`` is banded.  The offsets ``p - q`` between nonzero coefficients
of ``f`` are tabled once per assembly, each with its pairs: an offset fills
one rectangle of one row of the upper band, and each of its pairs adds one
strided block there.  The band is factored by banded Cholesky.  A
one-variable problem is a single column, with no second-variable weight.
A diagonal basis ``{z1^(Mk) z2^(Nk)}`` is a sum of such problems: the
exponents of ``f`` fall into disjoint cosets ``q0 + Z (M, N)``, each the
row ``F_q0[j] = f[q0 + j (M, N)]`` under the weights
``((q0_1+Mk+1)(q0_2+Nk+1))^alpha``, and ``||P(z1^M z2^N) f - 1||^2`` is the
sum of their one-variable residuals, the ``-1`` on the coset ``(0, 0)``.
A pattern-supported ``f`` is that coset alone.  A diagonal result keeps
the one-variable ``P`` and lifts it only when ``p`` is read.

Solver policy: normal equations, factored by LAPACK ``pbtrf`` with a single
ridge-regularized retry, whose ridge is recorded on the result, and solved
by ``pbtrs``, both read on the first factorization from scipy's compiled
LAPACK module ``scipy.linalg._flapack``, loaded alone, without the
``scipy.linalg`` package (so importing ``bidisk`` and work that solves
nothing load no LAPACK, and no call loads ``scipy.linalg``); a
Gram band that overflows is refused with :class:`NumericalError` naming
``alpha`` and the order; residuals are always recomputed from the returned
coefficients by explicit series arithmetic, never read off the solver; every
solve carries an orthogonality certificate and a 1-norm condition estimate;
a failed solve's error carries the order it names and the failed stage as
``n`` and ``stage``.  Every order takes ``||G||_1`` first, then factors.
The residual ``p f - 1`` is formed once per solve and yields both the
squared residual and the certificate.  :func:`solve_orders` maps bases to solves,
:func:`solve_optimal` being its one-order case.  A scan of one kind and
pattern assembles once, at its largest order (the top order), and holds
that band for the whole scan; if that assembly fails, every order is
assembled alone and fails where it would fail alone, so no cap is decided
here.  ``G[i, j]`` depends only on the monomials, so ``G``
over every lower order's box is a principal submatrix of the top one.  A
full order's band is gathered from the band it was assembled in, its own
or the top order's, one strided rectangle per offset of that table,
straight into one factor buffer in LAPACK's column-major layout, and
factored there in place; the buffer is sized once, to the top band, and
freed with the scan, which so holds two band-sized arrays.  A ridge retry
gathers the band there again, since the failed factorization overwrote it.
The one-column boxes (``C = 0``) of a one-variable or diagonal scan are
leading boxes, and each band is a leading slice of the top band, factored
from LAPACK's own copy, which costs these small bands less.  ``||G||_1``
reads only the band rows that the offsets fill.  Every order factors,
solves, estimates the condition of and certifies its own band in one body,
bit-identical to assembling it alone.  An assembled band is never written.

The bookkeeping around the LAPACK calls is done once per solve, and what
depends only on ``f`` or on the size is not redone at each order:
``||f||^2`` and the certificate's state (each term's support, its
conjugated coefficients there and its weight row) are taken once per
assembly (:class:`GramSystem`), the condition estimator's start and
safeguard vectors once per size (:func:`_estimator_vectors`); each product
``p F`` of the certificate is formed straight into one array, and the solved
series is built on the array ``pbtrs`` returned.  All of it is bit-identical
to forming each piece separately.  On the benchmark's reduced scans (76
one-column orders of 11 to 601 unknowns and bandwidth 1, one BLAS thread on
a shared 2-vCPU VM, measured by ``tools/bench_scans.py``) an order takes
about 150 microseconds.  Timed stage by stage, the condition estimate
(``||G||_1`` and five ``pbtrs``) takes about 73 of them, the certificate 37,
the coefficients' ``pbtrs`` with the solve's bookkeeping and its result 19,
``pbtrf`` 17, the band's slice with its share of the scan's one assembly 15,
and the scan's own work 8; the timers add about 19.

The explicit constructions are Riesz-type means of ``1/f``;
:func:`riesz_orders` is their one body.  A scan computes one reciprocal, at
its largest order, and every order is a corner of it; by the same rule, if
that reciprocal fails, every order is computed alone.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, partial
from importlib.machinery import PathFinder
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ArgumentError, BasisSizeError, BidiskError, ConditioningError, NumericalError
from .series import (
    DiagonalPattern,
    OneVarSeries,
    TwoVarSeries,
    _as_order,
    _check_entries,
    _check_finite,
    _check_order,
    _check_tolerance,
    _multiply1,
    _multiply2,
    _reciprocal1,
    _reciprocal2,
    _require_invertible,
    lift,
    multiply1,
    multiply2,
    restrict,
)
from .spaces import AlphaLike, PatternWeight, _norms2, _rate_gauge, as_alpha, norm1, norm2, phi

__all__ = [
    "SOLVER_CAP",
    "BasisSpec",
    "GramSystem",
    "ApproximantResult",
    "gram_assemble",
    "solve_optimal",
    "solve_orders",
    "riesz_orders",
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

# The smallest normal float; the condition estimate takes the phase of a
# smaller entry from its angle.
_TINY = np.finfo(float).tiny

# The second-variable weight of a single coefficient column, which has no second variable.
_ONE = np.ones(1)

Series = Union[TwoVarSeries, OneVarSeries]


@cache
def _lapack(name: str):
    """The complex LAPACK routine ``name`` (``pbtrf``, ``pbtrs``), loaded on its first call.

    It is read from scipy's compiled LAPACK module ``scipy.linalg._flapack``,
    loaded alone from the directory of ``scipy.linalg`` without running that
    package's ``__init__``, which would import about 300 modules.  The
    routine is the object ``scipy.linalg.get_lapack_funcs(name,
    dtype=np.complex128)`` returns, whichever of the two loads first.
    """
    linalg = importlib.util.find_spec("scipy.linalg")
    spec = linalg and PathFinder.find_spec("scipy.linalg._flapack", linalg.submodule_search_locations)
    if spec is None:
        raise ImportError("scipy's compiled LAPACK module scipy.linalg._flapack was not found; "
                          "bidisk needs scipy>=1.10", name="scipy.linalg._flapack")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, "z" + name)


def _not_finite(alpha: float, n: int, stage: str) -> NumericalError:
    """The refusal of a Gram matrix whose weights or weighted coefficients overflow, at ``stage``."""
    return NumericalError(f"the Gram matrix at alpha = {alpha!r}, order n={n} is not finite; "
                          "the weights or the weighted coefficients overflow", n=n, stage=stage)


class Lattice(NamedTuple):
    """The lattice box ``{(a, c) : 0 <= a <= A, 0 <= c <= C}`` of basis exponents.

    The exponent ``(a, c)`` sits at position ``a (C + 1) + c`` of the basis.
    A diagonal basis is the box ``C = 0`` of its one-variable coset
    problems, where ``a`` stands for the exponent ``a (M, N)``.
    """

    A: int
    C: int

    def series(self, coeffs: np.ndarray, onevar: bool) -> Series:
        """The series with ``coeffs[a (C + 1) + c]`` at ``(a, c)``; a single column for ``onevar``.

        ``coeffs`` is a fresh complex128 array that the caller hands over:
        the series is built on it, not on a copy, and makes it read-only; a
        non-finite one is refused with :class:`ArgumentError`, as a series
        refuses it.
        """
        if onevar:
            return OneVarSeries._owning(coeffs)
        return TwoVarSeries._owning(coeffs.reshape(self.A + 1, self.C + 1))

    def basis(self, onevar: bool, pattern: Optional[DiagonalPattern] = None) -> tuple:
        """The exponents as Python ints in basis order: ``a`` alone for ``onevar``, ``a (M, N)`` on a pattern."""
        A, C = self
        if pattern is not None:
            return tuple((pattern.M * a, pattern.N * a) for a in range(A + 1))
        if onevar:
            return tuple(range(A + 1))
        return tuple((a, c) for a in range(A + 1) for c in range(C + 1))


@dataclass(frozen=True)
class BasisSpec:
    """Monomial basis of an order-``n`` polynomial space.

    ``full`` is the square grid ``{z1^k z2^l : 0 <= k, l <= n}``; ``diagonal``
    keeps the pattern monomials ``{(Mk, Nk) : Mk <= n, Nk <= n}``; ``onevar``
    is ``{z^k : k <= n}`` (monomials in the first variable when applied to a
    two-variable function).  ``n`` is taken by ``operator.index``, so a
    numpy integer is stored as a Python int and a non-integral order is
    refused with :class:`ArgumentError`.
    """

    n: int
    kind: str
    pattern: Optional[DiagonalPattern] = None

    def __post_init__(self):
        object.__setattr__(self, "n", _as_order(self.n, "n"))
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
            return Lattice(self.n, self.n)
        if self.kind == "diagonal":
            return Lattice(self.n // max(self.pattern.M, self.pattern.N), 0)
        return Lattice(self.n, 0)

    def indices2(self) -> List[Tuple[int, int]]:
        """Monomial exponents for a two-variable problem, constant first."""
        return list(self.lattice().basis(False, self.pattern))

    def indices1(self) -> List[int]:
        """Monomial exponents for a one-variable problem."""
        self._require_onevar()
        return list(range(self.n + 1))

    def _require_onevar(self) -> None:
        if self.kind != "onevar":
            raise ArgumentError("one-variable problems take a onevar basis")


class _CertTerm(NamedTuple):
    """What the certificate reads of one term ``(F, weights)`` of ``f``, taken once per assembly.

    ``coeffs`` are ``F``'s; ``support`` lists the nonzero positions
    ``(p1, p2)`` of its grid in row-major order, and ``conj`` the conjugate
    ``conj(F[p])`` at each; ``weights`` is the term's weight row, as long as
    the longest residual ``p F`` over the assembled box, so that every box
    inside it reads leading slices of it.
    """

    coeffs: np.ndarray
    support: tuple
    conj: tuple
    weights: np.ndarray


def _cert_terms(terms: list, grids: list, weights: list) -> tuple:
    """The :class:`_CertTerm` of each term of ``terms``, of coefficient grid in ``grids`` and weight row in ``weights``."""
    out = []
    for (F, _), grid, w in zip(terms, grids, weights):
        conj = np.conj(grid)
        support = tuple(tuple(p) for p in np.argwhere(conj).tolist())  # row-major, as np.nonzero
        out.append(_CertTerm(F.coeffs, support, tuple(conj[p] for p in support), w))
    return tuple(out)


@dataclass(frozen=True)
class GramSystem:
    """Normal equations ``G c = rhs`` over an ordered monomial basis.

    ``G`` is Hermitian and banded.  ``band`` holds its upper band in LAPACK
    storage: ``band[u + i - j, j] = G[i, j]`` for ``0 <= j - i <= u``, where
    ``u = band.shape[0] - 1`` is the bandwidth.  ``rows`` lists, in row
    order, the rows of ``band`` that the offset tables fill; every other row
    is zero.  The basis is the lattice box ``lattice``, on the pattern
    ``pattern`` of a diagonal basis; ``basis`` lists its exponents, built on
    first read.  ``terms`` is ``f`` as :func:`_terms` split it for the
    assembly, kept for the certificate, and ``pair_offsets`` the offset
    table (:func:`_offsets`) of each term, which the assembly read and a
    gather reads again.  ``f_norm_sq`` is ``||f||^2``, the squared norms of
    the terms summed in order, taken once per assembly and carried by
    every band gathered or sliced from it; the default certificate
    tolerance is ``1e-8`` times it.  ``certificate`` is what the
    certificate reads of each term (:class:`_CertTerm`): its support, its
    conjugated coefficients there and its weight row, taken once per
    assembly too and carried likewise.  A solve never writes an assembled
    ``band``; a full box's band gathered into a factor buffer
    (:func:`_gather`) is factored there in place, so after its solve it
    holds the factor.
    """

    lattice: Lattice
    band: np.ndarray
    rows: tuple
    rhs: np.ndarray
    terms: list = field(repr=False, compare=False)
    pair_offsets: list = field(repr=False, compare=False)
    f_norm_sq: float = field(repr=False, compare=False)
    certificate: tuple = field(repr=False, compare=False)
    pattern: Optional[DiagonalPattern] = None

    @cached_property
    def basis(self) -> tuple:
        """Exponents of the basis monomials in basis order: ints for a one-variable problem."""
        return self.lattice.basis(isinstance(self.terms[0][0], OneVarSeries), self.pattern)

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
    For a diagonal solve, of any ``f``, ``pattern`` is its pattern and
    ``solved`` the one-variable solution ``P``; otherwise ``pattern`` is None.
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
        return self._lifted(self.solved)

    def _lifted(self, s: Series) -> Series:
        """A series over ``solved_lattice`` in the variables of ``p``: lifted on a pattern, else as it is."""
        return s if self.pattern is None else lift(s, self.pattern)

    @cached_property
    def basis(self) -> tuple:
        """Exponents of the basis monomials of ``p``, constant first."""
        return self.solved_basis if self.pattern is None else self.solved_lattice.basis(True, self.pattern)


def _grid(s: Series) -> np.ndarray:
    """Coefficient grid; a one-variable series is a single column."""
    return s.coeffs[:, None] if isinstance(s, OneVarSeries) else s.coeffs


def _terms(f: Series, aw, b: BasisSpec) -> list:
    """``f`` as a sum of terms ``(F, weights)``, the first of which carries the constant.

    On a diagonal basis each term is a coset ``q0 + Z (M, N)`` of the
    exponents ``q`` of ``f``, ``q0 = q - min(q1 // M, q2 // N) (M, N)``: the
    row ``F[j] = f[q0 + j (M, N)]`` under :class:`PatternWeight` at offset
    ``q0``, the coset ``(0, 0)`` first, even where ``f`` vanishes on it.
    Any other problem is the single term ``(f, aw)``.
    """
    if b.kind != "diagonal":
        return [(f, aw)]
    (M, N), x = (b.pattern.M, b.pattern.N), f.coeffs
    starts = {(0, 0)}
    for q1, q2 in np.argwhere(x).tolist():
        t = min(q1 // M, q2 // N)
        starts.add((q1 - M * t, q2 - N * t))
    return [(OneVarSeries(x[q1::M, q2::N].diagonal()), PatternWeight(aw, b.pattern, (q1, q2)))
            for q1, q2 in sorted(starts)]


def _offsets(grid: np.ndarray, lat: Lattice) -> list:
    """``[((da, dc), [(p, q), ...]), ...]``: each offset ``p - q`` of two nonzero entries filling the band over ``lat``.

    It holds every offset that fills the band over a box inside ``lat``.
    The pairs run over ``p``, then ``q``, in ``argwhere`` order; so do the
    offsets, each from its first pair.
    """
    A, C = lat
    nonzero = [tuple(p) for p in np.argwhere(grid).tolist()]
    table = {}
    for p in nonzero:
        for q in nonzero:
            da, dc = p[0] - q[0], p[1] - q[1]
            if abs(da) <= A and abs(dc) <= C and da * (C + 1) + dc <= 0:
                table.setdefault((da, dc), []).append((p, q))
    return list(table.items())


def _rectangles(offsets: list, lat: Lattice) -> Tuple[int, list]:
    """The bandwidth ``u`` of ``G`` over ``lat``, and ``(d, (da, dc), pairs, box)`` per offset filling its band.

    The offset ``(da, dc)`` fills the band row ``u - d``,
    ``d = -(da (C + 1) + dc)``, over the rectangle ``box`` (two slices) of
    the columns ``(a, c)``; it fills none if ``d < 0``, ``|da| > A`` or ``|dc| > C``.
    """
    A, C = lat
    rects = []
    for (da, dc), pairs in offsets:
        a0, a1, c0, c1 = max(0, -da), min(A, A - da), max(0, -dc), min(C, C - dc)
        d = -(da * (C + 1) + dc)
        if d >= 0 and a0 <= a1 and c0 <= c1:
            rects.append((d, (da, dc), pairs, (slice(a0, a1 + 1), slice(c0, c1 + 1))))
    return max((rect[0] for rect in rects), default=0), rects


def _gram_band(grid: np.ndarray, rectangles: Tuple[int, list], w: np.ndarray, lat: Lattice) -> np.ndarray:
    """Upper band of ``G`` over the lattice box ``lat`` for the coefficient grid ``grid``, under the weight row ``w``.

    ``rectangles`` is :func:`_rectangles` of the table of ``grid``'s offsets
    over ``lat``.  ``w`` is the term's weight row, at least
    ``max(A + F1, C + F2)`` long for the grid's shape ``(F1, F2)``; both
    variables read slices of it.

    ``m_j f`` and ``m_i f`` overlap where ``m_j + p = m_i + q`` for nonzero
    coefficients ``f[p]``, ``f[q]``; each such pair adds ``f[p] conj(f[q])``
    times the weight at ``m_j + p`` to ``G[i, j]``.  Then
    ``i - j = (p1 - q1) (C + 1) + p2 - q2`` is the same for all ``j``, and
    the columns ``j`` with ``m_j + p - q`` in the box form a rectangle of
    the box.  ``G[i, j]`` takes its pairs from the one offset ``m_i - m_j``,
    in pair order.  A single column (``C = 0`` and a one-column ``grid``)
    takes no second-variable weight.  The pairs are taken ``p`` by ``p``, in
    ``argwhere`` order: ``f[p]`` times the weights is formed once, added to
    the rectangle of each of its pairs, and dropped, so each entry still
    takes its pairs in pair order and only one weighted row is held.
    """
    A, C = lat
    F2 = grid.shape[1]
    u, rects = rectangles
    band = np.zeros((u + 1, (A + 1) * (C + 1)), dtype=np.complex128)
    rows = band.reshape(u + 1, A + 1, C + 1)
    by_p = {}  # the (band row, rectangle, q) of each pair, by p
    for d, _, pairs, box in rects:
        for p, q in pairs:
            by_p.setdefault(p, []).append((u - d, box, q))
    for (p1, p2), targets in sorted(by_p.items()):  # argwhere order
        # f[p] times the weight at m_j + p, for every column j
        weighted = (grid[p1, p2] * w[p1:A + p1 + 1])[:, None]
        if C + F2 > 1:
            weighted = weighted * w[None, p2:C + p2 + 1]
        for r, box, q in targets:
            rows[r][box] += weighted[box] * np.conj(grid[q])
    band[u].imag = 0.0  # the diagonal of a Hermitian matrix is real
    return band


def gram_assemble(f: Series, a: Union[AlphaLike, PatternWeight], b: BasisSpec) -> GramSystem:
    """Assemble the normal equations for minimizing ``||p f - 1||`` over ``b``.

    ``G[i,j] = <m_j f, m_i f>`` and ``rhs[i] = <1, m_i f>``, the conjugate
    of ``f``'s constant coefficient at the constant monomial and 0 elsewhere.
    :func:`_gram_band` builds the upper band over the lattice box of ``b`` in
    ``O(B nnz(f)^2)`` for ``B`` unknowns; on a diagonal basis the bands of
    the coset problems of ``f`` are summed.  ``a`` is a space parameter, or a
    :class:`PatternWeight` for a one-variable ``f``.  Each term takes one
    weight row, as long as its longest residual ``p F`` over the box, and
    one offset table with its rectangles; the band, ``||f||^2`` (summed term
    by term in order) and the certificate's state (:func:`_cert_terms`) are
    all taken here, once.  A band that overflows
    is refused with :class:`NumericalError` naming ``alpha`` and ``b.n``.
    That refusal, and those of a basis past ``SOLVER_CAP`` and of a zero
    ``f``, have the stage ``"assemble"``.
    """
    aw = a if isinstance(a, PatternWeight) else as_alpha(a)
    if isinstance(f, OneVarSeries):
        b._require_onevar()
    lat = b.lattice()
    size = (lat.A + 1) * (lat.C + 1)
    if size > SOLVER_CAP:
        raise BasisSizeError(f"basis of {size} unknowns exceeds the solver cap of {SOLVER_CAP}; "
                             "choose a reduced basis explicitly", stage="assemble")
    if not f.coeffs.any():
        raise ArgumentError("f must not be identically zero", stage="assemble")
    terms = _terms(f, aw, b)
    grids = [_grid(F) for F, _ in terms]
    offsets = [_offsets(grid, lat) for grid in grids]
    rects = [_rectangles(table, lat) for table in offsets]
    with np.errstate(over="ignore", invalid="ignore"):
        # one weight row per term, as long as the longest residual p F over the box: the band, ||f||^2
        # and the certificate of every box inside it read slices of it
        weights = [w.weights(max(lat.A + grid.shape[0], lat.C + grid.shape[1]) - 1)
                   for (_, w), grid in zip(terms, grids)]
        bands = [_gram_band(*args, lat) for args in zip(grids, rects, weights)]
        band = bands[0]
        if len(bands) > 1:  # each coset band is added to the bottom rows of the widest
            band = np.zeros((max(x.shape[0] for x in bands), band.shape[1]), dtype=np.complex128)
            for x in bands:
                band[band.shape[0] - x.shape[0]:] += x
    if not np.isfinite(band).all():
        raise _not_finite(aw.alpha, b.n, "assemble")
    u = band.shape[0] - 1  # an offset d of any term fills the row u - d
    rows = tuple(sorted({u - d for _, table in rects for d, *_ in table}))
    rhs = np.zeros(band.shape[1], dtype=np.complex128)
    rhs[0] = np.conj(f.coeffs[(0,) * f.coeffs.ndim])  # position 0 is the constant monomial
    f_sq = 0.0
    for grid, w in zip(grids, weights):
        f_sq += _norm_sq(grid, w)
    return GramSystem(lattice=lat, band=band, rows=rows, rhs=rhs, terms=terms, pair_offsets=offsets,
                      f_norm_sq=f_sq, certificate=_cert_terms(terms, grids, weights), pattern=b.pattern)


def _band_norm1(band: np.ndarray, rows: Sequence[int]) -> float:
    """``||G||_1`` of the Hermitian matrix whose upper band is ``band``, zero but for the rows ``rows``.

    Column ``i`` of ``|G|`` sums ``|band|`` over ``rows``, in row order, then
    adds the part below the diagonal, ``|G[i + d, i]|`` from the row
    ``u - d``, in order of ``d``.  A zero row would add exact zeros at its
    place in either order, so this is bit for bit the sum over every row.
    ``band`` may have either memory layout.
    """
    u = band.shape[0] - 1
    mags = np.empty((len(rows), band.shape[1]))  # in C layout, whatever the layout of band
    if len(rows) == u + 1:  # every row, as in most one-column bands
        np.abs(band, out=mags)
    else:
        for mag, r in zip(mags, rows):
            np.abs(band[r], out=mag)
    sums = mags.sum(axis=0)  # one row after another, in row order
    for mag, r in zip(mags[::-1], rows[::-1]):
        if r < u:
            sums[:r - u] += mag[u - r:]
    return float(sums.max())


@lru_cache(maxsize=32)
def _estimator_vectors(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """The start ``x = 1/size`` and the alternating safeguard of :func:`_inverse_norm1` for ``size`` unknowns.

    They depend on the size alone, so they are built once per size, in
    complex128, and kept read-only, at most 32 sizes at a time (at most
    10 MB at ``SOLVER_CAP``).  This pays where sizes recur: the scans of one
    ``f`` at several ``alpha``, or a repeated scan; a scan whose orders all
    differ in size only fills it.  The safeguard is
    ``(-1)^i (1 + i / (size - 1))``; a single unknown takes ``[1]``, unread.
    """
    start = np.full(size, 1.0 / size, dtype=np.complex128)
    alternating = (1.0 + np.arange(size) / max(size - 1.0, 1.0)).astype(np.complex128)
    alternating[1::2] *= -1.0
    start.setflags(write=False)
    alternating.setflags(write=False)
    return start, alternating


def _inverse_norm1(solve: Callable[[np.ndarray], np.ndarray], size: int) -> float:
    """Estimate of ``||G^-1||_1`` for Hermitian ``G`` from a few solves.

    Hager's method with Higham's refinements (LAPACK ``zlacn2``): ascend
    ``||G^-1 x||_1`` over unit vectors ``e_j`` along the gradient, then try an
    alternating-sign vector as a safeguard.  Every candidate is
    ``||G^-1 x||_1 / ||x||_1`` for some ``x``, so the estimate never exceeds
    the true norm; it is deterministic.  ``G`` being Hermitian, the adjoint
    solves reuse ``solve``.  ``|y|`` is taken once per solve ``y`` and serves
    both its 1-norm and its signs; the start and the safeguard come from
    :func:`_estimator_vectors`, built once per size, and the unit vectors
    are one array, allocated once per estimate: ``solve`` works on a copy
    of its input (``pbtrs`` copies it).
    """

    def sign(y, mag):
        if mag.min() >= _TINY:
            return y / mag
        # y / |y| overflows for subnormal |y| (numpy's complex division forms
        # 1 / |y|), so those entries take their phase from the angle
        small = mag < _TINY
        out = y / np.where(small, 1.0, mag)
        if small.any():
            out[small] = np.where(mag[small] > 0.0, np.exp(1j * np.angle(y[small])), 1.0)
        return out

    start, alternating = _estimator_vectors(size)
    y = solve(start)
    mag = np.abs(y)
    est = float(mag.sum())
    if size == 1:
        return est
    j = int(np.abs(solve(sign(y, mag))).argmax())
    unit = np.zeros(size, dtype=np.complex128)  # e_j; solve reads it, and never writes it
    for _ in range(4):
        unit[j] = 1.0
        y = solve(unit)
        unit[j] = 0.0
        mag = np.abs(y)
        candidate = float(mag.sum())
        if candidate <= est:
            break
        est = candidate
        z = np.abs(solve(sign(y, mag)))
        j_last, j = j, int(z.argmax())
        if z[j_last] == z[j]:
            break
    return max(est, 2.0 * float(np.abs(solve(alternating)).sum()) / (3.0 * size))


def _factor(gram: GramSystem, n: int, alpha: float,
            refill: Optional[Callable[[], GramSystem]]) -> Tuple[np.ndarray, float, float]:
    """Banded Cholesky factor of ``G`` by LAPACK ``pbtrf``, ``||G||_1`` and the ridge added to ``G``.

    ``||G||_1`` is taken first, over ``gram.rows``.  Without ``refill``,
    ``gram.band`` is factored from LAPACK's own copy and never written.
    With it, ``gram.band`` is a column-major view of a factor buffer, as
    :func:`_gather` leaves a full box, and is factored there in place.  A
    band that is not positive definite in floating point gets one retry
    with the ridge ``1e-12 mean(diag G)`` on its diagonal: on a copy of
    ``gram.band``, or, since the failed ``pbtrf`` overwrote the buffer, on
    the band that ``refill()`` gathers there again.
    """
    pbtrf = _lapack("pbtrf")
    in_place = {} if refill is None else {"overwrite_ab": 1}
    band, ridge = gram.band, 0.0
    norm = _band_norm1(band, gram.rows)
    factor, info = pbtrf(band, **in_place)
    if info > 0:  # not positive definite in floating point: one retry with a ridge
        band = band.copy() if refill is None else refill().band
        with np.errstate(over="ignore"):
            ridge = 1e-12 * float(np.mean(band[-1].real))
        if not np.isfinite(ridge):
            raise _not_finite(alpha, n, "factor")
        band[-1] += ridge
        norm = _band_norm1(band, gram.rows)
        factor, info = pbtrf(band, **in_place)
        if info > 0:
            raise ConditioningError(
                f"Gram factorization at order n={n} failed even with ridge {ridge:.3e}",
                cond_estimate=float("inf"), n=n, stage="factor",
            )
    if info < 0:
        raise NumericalError(f"banded factorization at order n={n} failed: LAPACK pbtrf info {info}",
                             n=n, stage="factor")
    return factor, norm, ridge


def residual_norm_sq(p: Series, f: Series, a: AlphaLike) -> float:
    """Exact ``||p f - 1||^2`` by explicit series multiplication."""
    if isinstance(p, OneVarSeries):
        return norm1(multiply1(p, f) - 1.0, a) ** 2
    return norm2(multiply2(p, f) - 1.0, a) ** 2


def _norm_sq(grid: np.ndarray, w: np.ndarray) -> float:
    """Squared norm of a coefficient grid under the weight row ``w``, rounded as ``norm2(...)**2``."""
    return float(_norms2(grid, w[:grid.shape[0]], w[:grid.shape[1]] if grid.shape[1] > 1 else _ONE)) ** 2


def _certify(
    p: Series,
    certificate: tuple,
    lat: Lattice,
    *,
    n: int,
    ridge: float,
    cond: float,
    ortho_tol: float,
) -> Tuple[float, float]:
    """``||p f - 1||^2`` and the certificate ``max_i |<p f - 1, m_i f>|``, from one product per term.

    ``certificate`` is what the certificate reads of ``f``, one
    :class:`_CertTerm` per term as :func:`_terms` splits ``f``, the first
    carrying the constant ``-1``, taken once per assembly
    (:func:`_cert_terms`); the squared norms and the pairings of the terms
    are summed, the pairings before the max is taken.  ``lat`` is the basis
    box: the pairings with its shifts ``m_i f`` are windows of the weighted
    residual, each window times ``conj(F[p])`` added in the order of the
    term's support, and every weight is a slice of the term's weight row.
    Each product ``p F`` is formed once, straight into an array of its own,
    as :func:`multiply1` (a column) or :func:`multiply2` (a box) forms it,
    and the ``-1`` is subtracted there; a product that is not finite is
    refused with :class:`ArgumentError`, as a series refuses it.
    ``||f||^2`` is not taken here: :func:`_solve` sets ``ortho_tol``, by
    default ``1e-8`` times the ``||f||^2`` its assembly took.  Raises a
    conditioning error when the certificate exceeds ``ortho_tol`` or is NaN.
    """
    onevar = isinstance(p, OneVarSeries)
    product = _multiply1 if onevar else _multiply2
    A, C = lat
    pairings, res_sq = 0.0, 0.0
    for i, (F, support, conj, w) in enumerate(certificate):
        r = product(p.coeffs, F)
        _check_finite(r)
        if i == 0:
            r[(0,) * r.ndim] += -1.0  # p f - 1, on the product's array
        if onevar:
            r = r[:, None]
        w1 = w[:r.shape[0], None]
        wr = (w1 if r.shape[1] == 1 else w1 * w[None, :r.shape[1]]) * r
        out = np.zeros((A + 1, C + 1), dtype=np.complex128)
        for (p1, p2), c in zip(support, conj):
            out += c * wr[p1:p1 + A + 1, p2:p2 + C + 1]
        pairings = pairings + out
        res_sq += _norm_sq(r, w)
    ortho = float(np.abs(pairings).max())
    if not ortho <= ortho_tol:  # a NaN certificate, of a weighted residual that overflows, too
        raise ConditioningError(
            f"orthogonality certificate {ortho:.3e} exceeds tolerance {ortho_tol:.3e} "
            f"at order n={n} (condition estimate {cond:.3e}, ridge {ridge:.3e})",
            cond_estimate=cond, n=n, stage="certify",
        )
    return res_sq, ortho


def _solve(gram: GramSystem, b: BasisSpec, alpha: float, ortho_tol: Optional[float],
           refill: Optional[Callable[[], GramSystem]]) -> ApproximantResult:
    """Factor (:func:`_factor`), solve, estimate and certify the normal equations ``gram`` of ``b``; errors name ``b.n``.

    What depends only on ``f`` is read from ``gram``, taken once per
    assembly: ``||f||^2`` for the default tolerance and the certificate's
    state (:class:`_CertTerm`).  The solved series is built on the array
    ``pbtrs`` returned for the coefficients, not on a copy.
    """
    factor, norm, ridge = _factor(gram, b.n, alpha, refill)
    pbtrs = _lapack("pbtrs")

    def solve(x):
        y, info = pbtrs(factor, x)
        if info != 0:
            raise NumericalError(f"banded solve at order n={b.n} failed: LAPACK pbtrs info {info}",
                                 n=b.n, stage="solve")
        return y

    c = solve(gram.rhs)
    cond = norm * _inverse_norm1(solve, len(c))
    lat = gram.lattice
    p = lat.series(c, isinstance(gram.terms[0][0], OneVarSeries))
    tol = 1e-8 * gram.f_norm_sq if ortho_tol is None else ortho_tol
    res_sq, ortho = _certify(p, gram.certificate, lat, n=b.n, ridge=ridge, cond=cond, ortho_tol=tol)
    return ApproximantResult(
        solved=p,
        residual_sq=res_sq,
        n=b.n,
        basis_kind=b.kind,
        cond_estimate=cond,
        ortho_residual=ortho,
        solved_lattice=gram.lattice,
        ridge=ridge,
        pattern=b.pattern,
    )


def _gather(top: GramSystem, lat: Lattice, buf: Optional[np.ndarray]) -> GramSystem:
    """The normal equations over a box ``lat`` inside ``top``'s, entry for entry those of :func:`gram_assemble`.

    ``G[i, j]`` depends only on ``m_i`` and ``m_j``.  A one-column box has
    the offsets ``d <= A`` of ``top``'s, and its band is a view of ``top``'s
    first columns and bottom rows, from the row of the widest such offset
    (below the degree of a sparse ``f``, it may be narrower than ``A``).
    The band of a full box, ``top``'s own included, is written into the
    factor buffer ``buf``, of at least ``top.band.size`` entries, in
    LAPACK's column-major layout: zero, then, for each offset ``(da, dc)``
    of ``top``'s table, one strided copy of the rectangle of columns
    ``(a, c)`` it fills in the band row ``u - d``, ``d = -(da (C + 1) + dc)``
    (:func:`_rectangles`), from the same rectangle of ``top``'s row
    ``U - d'``, with ``top``'s ``C'`` for ``C``.  What depends only on
    ``f`` is ``top``'s, carried as it is: its terms, offset tables,
    ``||f||^2`` and certificate state.
    """
    (A, C), (A1, C1), U = lat, top.lattice, top.band.shape[0] - 1
    size = (A + 1) * (C + 1)
    if C == 0:
        # the widest offset of top's that fits the box, d = U - r <= A; d = 0 always does
        u = U - min(r for r in top.rows if r >= U - A)
        band = top.band[U - u:, :size]
        rows = top.rows if u == U else tuple(r - U + u for r in top.rows if r >= U - u)
    else:
        (offsets,) = top.pair_offsets  # a box with two variables is full, and f is one term
        u, rects = _rectangles(offsets, lat)
        cells = buf[:(u + 1) * size]
        cells.fill(0.0)
        # cells[a, c, u - d] is the band's entry in the row u - d at the column (a, c)
        cells = cells.reshape(A + 1, C + 1, u + 1)
        top_rows = top.band.reshape(U + 1, A1 + 1, C1 + 1)
        for d, (da, dc), _, box in rects:
            cells[box + (u - d,)] = top_rows[U + da * (C1 + 1) + dc][box]
        band = cells.reshape(size, u + 1).T
        rows = tuple(sorted({u - d for d, *_ in rects}))
    return GramSystem(lattice=lat, band=band, rows=rows, rhs=top.rhs[:size], terms=top.terms,
                      pair_offsets=top.pair_offsets, f_norm_sq=top.f_norm_sq,
                      certificate=top.certificate, pattern=top.pattern)


def _solve_orders(
    f: Series, aw, bases: List[BasisSpec], ortho_tol: Optional[float]
) -> Iterator[ApproximantResult]:
    """The solves of :func:`solve_orders`, which checked ``ortho_tol``, under the weights ``aw``."""
    top = buf = None
    if len(bases) > 1 and len({(b.kind, b.pattern) for b in bases}) == 1:
        try:  # every box of the scan lies inside its largest
            top = gram_assemble(f, aw, max(bases, key=lambda b: b.n))
        except BidiskError:  # then each order is assembled alone, and fails where it would alone
            pass
    for b in bases:
        lat = b.lattice()
        own = gram_assemble(f, aw, b) if top is None else top
        refill = None
        # a one-column band is small, and LAPACK's own copy of it is cheaper than one into a
        # buffer held across the scan (measured on the reduced scans)
        if lat.C:
            if buf is None or buf.size < own.band.size:  # in a shared scan, sized once to the top band
                buf = np.empty(own.band.size, dtype=np.complex128)
            refill = partial(_gather, own, lat, buf)
        yield _solve(_gather(own, lat, buf), b, aw.alpha, ortho_tol, refill)


def solve_orders(
    f: Series,
    a: AlphaLike,
    bases: Sequence[BasisSpec],
    *,
    ortho_tol: Optional[float] = None,
) -> Iterator[ApproximantResult]:
    """The optimal approximants over ``bases``, one per basis, in order.

    The one place that maps bases to solves; each result equals that of
    :func:`solve_optimal` on its basis, bit for bit, and the iterator
    raises at the first basis whose solve fails, with that solve's error.
    The bases of one scan share one Gram assembly, at its largest order, or
    none, as the module docstring describes: a full scan gathers each lower
    order's band from the top one's, and a one-variable or ``diag:M,N``
    scan slices it.
    ``ortho_tol`` is checked here, before any solve.
    """
    _check_tolerance(ortho_tol, "ortho_tol")
    return _solve_orders(f, as_alpha(a), list(bases), ortho_tol)


def solve_optimal(
    f: Series,
    a: AlphaLike,
    b: BasisSpec,
    *,
    ortho_tol: Optional[float] = None,
) -> ApproximantResult:
    """Solve for the optimal approximant of order ``b.n`` in basis ``b``.

    The one-order case of :func:`solve_orders`.  A full or one-variable
    basis is one lattice box.  On a diagonal basis ``f`` is split into its
    cosets, whose one-variable problems are assembled and certified
    together; the result keeps the one-variable solution ``P``, with
    ``pattern`` set, for any ``f``, and lifts it only when ``p`` is read.

    The residual is recomputed from the solution coefficients by series
    arithmetic, and the orthogonality certificate
    ``max_i |<p f - 1, m_i f>|`` must come out below ``ortho_tol``
    (default ``1e-8 * ||f||^2``), else a conditioning error is raised.  A
    negative or NaN ``ortho_tol`` is refused with :class:`ArgumentError`.
    """
    return next(solve_orders(f, a, [b], ortho_tol=ortho_tol))


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


def riesz_orders(f: TwoVarSeries, a: AlphaLike, ns: Sequence[int], pat: Optional[DiagonalPattern] = None,
                 *, eps0: float = 1e-12) -> Iterator[TwoVarSeries]:
    """The Riesz-type means of ``1/f`` of the orders ``ns``, in order, on the square grid or lifted from ``pat``.

    The one body of :func:`riesz_approximant`, :func:`riesz_diagonal` and
    :func:`cesaro`.  The reciprocal is computed once, at the largest order;
    the recurrence is causal, so each order's truncation is a corner of it,
    bit for bit.  If that reciprocal fails, as past the grid cap, every
    order is computed alone and raises where it would alone.
    """
    aw = _rate_gauge(a)
    ns = [_check_order(n, "n") for n in ns]
    F = f if pat is None else restrict(f, pat)

    def reciprocal(d: int) -> np.ndarray:
        if pat is not None:
            # the order's lifted grid is refused before the recurrence, after the singularity check, as
            # _reciprocal2 refuses its own grid
            _require_invertible(complex(F.coeffs[0]), eps0)
            _check_entries((pat.M * d + 1) * (pat.N * d + 1))
        # each order's series checks its own corner, so a non-finite tail past it neither raises nor warns
        with np.errstate(over="ignore", invalid="ignore"):
            return _reciprocal2(f, d, d, eps0) if pat is None else _reciprocal1(F, d, eps0)

    top = None
    if len(ns) > 1:
        try:
            top = reciprocal(max(ns))
        except BidiskError:  # then each order is computed alone, and fails where it would alone
            pass
    for n in ns:
        b = reciprocal(n) if top is None else top[(slice(n + 1),) * top.ndim]
        idx = np.arange(n + 1)
        if pat is None:
            b = TwoVarSeries(b)  # refuses a non-finite reciprocal, as reciprocal2 does
            yield TwoVarSeries(_riesz_weights(aw, np.maximum.outer(idx, idx), n) * b.coeffs)
        else:
            b = OneVarSeries(b)
            yield lift(OneVarSeries(_riesz_weights(aw, idx, n) * b.coeffs), pat)


def riesz_approximant(f: TwoVarSeries, a: AlphaLike, n: int, eps0: float = 1e-12) -> TwoVarSeries:
    """Riesz-type mean of the reciprocal series on the square grid of order ``n``.

    Coefficient ``(k, l)`` of the result is
    ``(1 - phi(max(k, l)) / phi(n + 1)) * b[k, l]`` with ``b`` the reciprocal
    of ``f`` truncated at ``(n, n)``.  At ``alpha = 0`` this is the order-``n``
    Cesaro mean of the reciprocal's expansion in the ``max(k, l)`` grading.
    The one-order case of :func:`riesz_orders`.
    """
    return next(riesz_orders(f, a, [n], eps0=eps0))


def riesz_diagonal(
    f: TwoVarSeries, a: AlphaLike, n: int, pat: DiagonalPattern, eps0: float = 1e-12
) -> TwoVarSeries:
    """Riesz-type approximant built along a diagonal support pattern.

    The one-variable Riesz weights ``1 - phi(k)/phi(n+1)`` are applied to the
    reciprocal of the restricted function and the result is lifted back, so
    the approximant is a degree-``n`` polynomial in ``z1^M z2^N``.  For the
    pattern ``(1, 1)`` this coincides with :func:`riesz_approximant`.  The
    one-order case of :func:`riesz_orders` on ``pat``.
    """
    return next(riesz_orders(f, a, [n], pat, eps0=eps0))


def cesaro(f: TwoVarSeries, n: int, eps0: float = 1e-12) -> TwoVarSeries:
    """Order-``n`` Cesaro mean of the reciprocal series.

    The average of the Taylor sections ``t_0, ..., t_n`` in the ``max(k, l)``
    grading: coefficient ``(k, l)`` appears in the sections ``t_m`` with
    ``m >= max(k, l)``, so it is weighted by ``1 - max(k, l) / (n + 1)``,
    which is the ``alpha = 0`` Riesz mean: the one-order case of
    :func:`riesz_orders` at ``alpha = 0``.
    """
    return next(riesz_orders(f, 0.0, [n], eps0=eps0))


def closed_form_twisted(a: AlphaLike, n: int, pat: DiagonalPattern) -> float:
    """Exact squared residual of the diagonal Riesz approximant for ``1 - z1^M z2^N``.

    Evaluates ``phi(n+1)^-2 * sum_{k=1}^{n+1} (phi(k) - phi(k-1))^2
    (Mk+1)^alpha (Nk+1)^alpha``, which is what
    ``residual_norm_sq(riesz_diagonal(...))`` computes term by term.
    """
    aw = _rate_gauge(a)
    n = _check_order(n, "n")
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
    ``f = F(z1^M z2^N)`` is the single coset ``(0, 0)``: the one-variable
    problem for ``F`` of order ``n // max(M, N)`` under the weights
    ``((Mk+1)(Nk+1))^alpha``, an exact isometry onto the pattern subspace,
    which for ``(1, 1)`` is the one-variable space at doubled parameter.
    The result is that of :func:`solve_optimal`: it keeps ``P`` with
    ``pattern=pat``, and reading ``p`` beyond the grid cap raises
    :class:`GridSizeError`.  An ``f`` off the pattern raises
    :class:`PatternViolationError`, where :func:`solve_optimal` sums its
    coset problems and gets the optimum over the diagonal span.
    """
    _check_tolerance(ortho_tol, "ortho_tol")
    restrict(f, pat)  # refuses an f off the pattern
    return next(_solve_orders(f, as_alpha(a), [BasisSpec.diagonal(n, pat)], ortho_tol))


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
    a value at rounding level certifies local optimality.  Each direction is
    drawn on the box ``solved_lattice`` and lifted as ``p`` is.
    """
    aw = as_alpha(a)
    rng = np.random.default_rng(seed)
    p, lat = result.p, result.solved_lattice
    onevar = isinstance(result.solved, OneVarSeries)
    size = (lat.A + 1) * (lat.C + 1)
    worst = 0.0
    for _ in range(n_directions):
        coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        q = result._lifted(lat.series(coeffs, onevar))
        qnorm = norm1(q, aw) if isinstance(q, OneVarSeries) else norm2(q, aw)
        q = q * (1.0 / qnorm)
        perturbed = p + eps * q
        decrease = result.residual_sq - residual_norm_sq(perturbed, f, aw)
        worst = max(worst, decrease)
    return worst
