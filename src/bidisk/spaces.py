"""Weighted coefficient norms on the disk and bidisk.

The two-variable space with parameter ``alpha`` carries the norm
``||f||^2 = sum (k+1)^alpha (l+1)^alpha |a[k,l]|^2``; its one-variable
counterpart drops one factor.  ``alpha = 0`` is the Hardy space, ``-1`` the
Bergman space, ``1`` the Dirichlet space.  This module also houses the decay
gauge ``phi`` used to state sharp approximation rates, the index map
``beta_of_alpha`` for diagonal restriction, reproducing-kernel norms, and the
closed-form constants comparing a diagonal subspace with its one-variable
image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import ArgumentError, DivergentKernelError, NumericalError, UnsupportedRateError
from .series import DiagonalPattern, OneVarSeries, TwoVarSeries

__all__ = [
    "AlphaWeight",
    "PatternWeight",
    "as_alpha",
    "ComparisonConstants",
    "norm1",
    "norm2",
    "inner1",
    "inner2",
    "phi",
    "phi_inv",
    "beta_of_alpha",
    "kernel_norm_sq",
    "comparison_constants",
]


def _weight_rows(alpha, deg: int) -> np.ndarray:
    """Weights ``(k+1)^alpha`` for ``k`` in ``0..deg``, one row per entry of ``alpha``."""
    return np.power(np.arange(1.0, deg + 2.0), np.asarray(alpha, dtype=float)[..., None])


@lru_cache(maxsize=128)
def _weight_table(alpha: float, size: int) -> np.ndarray:
    w = _weight_rows(alpha, size - 1)
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class AlphaWeight:
    """Space parameter ``alpha`` with the coefficient weight ``(k+1)^alpha``.

    Weight tables are memoized per ``(alpha, size)`` in power-of-two blocks so
    repeated Gram assemblies stay out of transcendental hot paths.
    """

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ArgumentError("alpha must be finite")
        object.__setattr__(self, "alpha", float(self.alpha))

    def weights(self, deg: int) -> np.ndarray:
        """Read-only array ``[(k+1)^alpha for k in 0..deg]``."""
        size = 1 << max(0, (deg + 1).bit_length())
        return _weight_table(self.alpha, size)[: deg + 1]

    def weight(self, k: int) -> float:
        return (k + 1.0) ** self.alpha


AlphaLike = Union[AlphaWeight, float, int]


@dataclass(frozen=True)
class PatternWeight:
    """Weight ``((Mk+1)(Nk+1))^alpha`` of ``z^k``: the weight of ``z1^(Mk) z2^(Nk)``.

    Under these weights the lifting ``F -> F(z1^M z2^N)`` is an isometry onto
    the series supported on the pattern, and it maps ``z^i F`` to
    ``z1^(Mi) z2^(Ni) F(z1^M z2^N)``.  It offers the ``weights(deg)`` method
    of :class:`AlphaWeight`, with ``weights(0) = [1]``; for the pattern
    ``(1, 1)`` it is the weight at doubled ``alpha``.
    """

    aw: AlphaWeight
    pattern: DiagonalPattern

    def weights(self, deg: int) -> np.ndarray:
        """Array ``[((Mk+1)(Nk+1))^alpha for k in 0..deg]``."""
        M, N = self.pattern.M, self.pattern.N
        return self.aw.weights(M * deg)[::M] * self.aw.weights(N * deg)[::N]


def as_alpha(a: AlphaLike) -> AlphaWeight:
    if isinstance(a, AlphaWeight):
        return a
    return AlphaWeight(float(a))


def _norms2(x: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Norms ``sqrt(sum_{k,l} w1[..., k] w2[..., l] |x[..., k, l]|^2)`` of stacked grids."""
    return np.sqrt(np.einsum("...k,...l,...kl->...", w1, w2, np.abs(x) ** 2))


def _norms1(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Norms ``sqrt(sum_k w[..., k] |x[..., k]|^2)`` of stacked coefficient rows.

    Each row is a ``(1, n) @ (n, 1)`` product, which numpy hands to the same
    ``dot`` loop as ``np.dot`` of two vectors, so a single row rounds as
    ``np.dot(w, |x|^2)`` does.
    """
    return np.sqrt((w[..., None, :] @ (np.abs(x) ** 2)[..., :, None])[..., 0, 0])


def _finite_norm(value: np.ndarray, aw: AlphaWeight) -> float:
    if not math.isfinite(value):
        raise NumericalError(
            f"the weighted norm at alpha = {aw.alpha!r} is not finite ({float(value)}); "
            "the weights or the weighted coefficients overflow"
        )
    return float(value)


def norm2(f: TwoVarSeries, a: AlphaLike) -> float:
    """Two-variable norm ``sqrt(sum (k+1)^a (l+1)^a |coeff|^2)`` (exact finite sum).

    Raises :class:`NumericalError` when the weighted sum overflows.
    """
    aw = as_alpha(a)
    with np.errstate(over="ignore", invalid="ignore"):
        value = _norms2(f.coeffs, aw.weights(f.deg1), aw.weights(f.deg2))
    return _finite_norm(value, aw)


def norm1(F: OneVarSeries, a: AlphaLike) -> float:
    """One-variable norm ``sqrt(sum (k+1)^a |coeff|^2)``.

    Raises :class:`NumericalError` when the weighted sum overflows.
    """
    aw = as_alpha(a)
    with np.errstate(over="ignore", invalid="ignore"):
        value = _norms1(F.coeffs, aw.weights(F.deg))
    return _finite_norm(value, aw)


def inner2(f: TwoVarSeries, g: TwoVarSeries, a: AlphaLike) -> complex:
    """Sesquilinear form inducing :func:`norm2`; the second argument is conjugated."""
    aw = as_alpha(a)
    d1 = min(f.deg1, g.deg1)
    d2 = min(f.deg2, g.deg2)
    w1 = aw.weights(d1)
    w2 = aw.weights(d2)
    block_f = f.coeffs[: d1 + 1, : d2 + 1]
    block_g = g.coeffs[: d1 + 1, : d2 + 1]
    return complex(np.einsum("k,l,kl->", w1, w2, block_f * np.conj(block_g)))


def inner1(F: OneVarSeries, G: OneVarSeries, a: AlphaLike) -> complex:
    aw = as_alpha(a)
    d = min(F.deg, G.deg)
    w = aw.weights(d)
    return complex(np.dot(w, F.coeffs[: d + 1] * np.conj(G.coeffs[: d + 1])))


def _rate_gauge(a: AlphaLike) -> AlphaWeight:
    """The weights of ``a``, refused above ``alpha = 1``, where no rate gauge is defined."""
    aw = as_alpha(a)
    if aw.alpha > 1.0:
        raise UnsupportedRateError(f"no rate gauge is defined for alpha = {aw.alpha} > 1")
    return aw


def phi(a: AlphaLike, s: float) -> float:
    """Decay gauge: ``s^(1-alpha)`` for ``alpha < 1``, ``max(log s, 0)`` at ``alpha = 1``.

    Undefined for ``alpha > 1`` (the spaces are algebras there and no rate is
    attached to them).
    """
    alpha = _rate_gauge(a).alpha
    if s < 0.0:
        raise ArgumentError("the rate gauge is defined on s >= 0")
    if alpha == 1.0:
        return max(math.log(s), 0.0) if s > 0.0 else 0.0
    return float(s) ** (1.0 - alpha)


def phi_inv(a: AlphaLike, t: float) -> float:
    """Inverse of :func:`phi` on the branch ``s >= 1``."""
    alpha = _rate_gauge(a).alpha
    if alpha == 1.0:
        if t < 0.0:
            raise ArgumentError("the logarithmic gauge only takes values t >= 0")
        return math.exp(t)
    if t < 0.0:
        raise ArgumentError("the power gauge only takes values t >= 0")
    return float(t) ** (1.0 / (1.0 - alpha))


def beta_of_alpha(alpha: float) -> float:
    """Index of the one-variable space receiving diagonal restrictions."""
    alpha = as_alpha(alpha).alpha
    return alpha - 1.0 if alpha >= 0.0 else 2.0 * alpha - 1.0


# Default tail bound of the truncated kernel series.
_KERNEL_TOL = 1e-12


def kernel_norm_sq(a: AlphaLike, w: complex, tol: float = _KERNEL_TOL) -> float:
    """Squared reproducing-kernel norm ``sum_k (k+1)^(-alpha) |w|^(2k)``.

    The sum is truncated once a rigorous geometric majorant bounds the tail
    below ``tol``: past the index where ``q_k = ((k+2)/(k+1))^|alpha| |w|^2``
    drops under 1, the terms are dominated by a geometric series with ratio
    ``q_k``.  Raises :class:`NumericalError` when a term overflows.
    """
    alpha = as_alpha(a).alpha
    if abs(w) >= 1.0:
        raise DivergentKernelError(
            f"kernel norm diverges for |w| = {abs(w):.6g} >= 1"
        )
    return float(_kernel_norms_sq(alpha, w, tol))


# Terms of the kernel series formed in the first pass of ``_kernel_norms_sq``;
# each further pass forms twice as many per open sum, up to about
# ``_KERNEL_PASS_TERMS`` over all open sums together.
_KERNEL_CHUNK = 64
_KERNEL_PASS_TERMS = 1 << 15


def _kernel_norms_sq(alpha, w, tol: float = _KERNEL_TOL) -> np.ndarray:
    """Sums of :func:`kernel_norm_sq` for broadcast arrays ``alpha`` and ``w``, ``|w| < 1``.

    Each sum stops at the first index ``k`` whose term ``t_k`` and ratio
    ``q_k`` satisfy ``q_k < 1`` and ``t_k q_k / (1 - q_k) < tol``; the terms
    up to it are added in increasing ``k``, one at a time.  Each pass forms
    the next chunk of terms for the sums that have not stopped, the first
    ``_KERNEL_CHUNK`` long and each further one twice as long, but never
    more than ``_KERNEL_PASS_TERMS`` terms in all (or ``_KERNEL_CHUNK`` per
    open sum), so memory does not grow with the number of terms a sum needs.
    """
    alpha, r2 = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.abs(w) ** 2)
    total = np.zeros(alpha.shape)
    open_ = np.ones(alpha.shape, dtype=bool)
    start, chunk = 0, _KERNEL_CHUNK
    while open_.any():
        rows = np.count_nonzero(open_)
        chunk = min(chunk, max(_KERNEL_CHUNK, _KERNEL_PASS_TERMS // rows))
        a, r = alpha[open_][:, None], r2[open_][:, None]
        k = np.arange(start, start + chunk, dtype=float)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            term = (k + 1.0) ** (-a) * r**k
            q = ((k + 2.0) / (k + 1.0)) ** np.abs(a) * r
            done = (q < 1.0) & (term * q / (1.0 - q) < tol)
        stopped = done.any(axis=1)
        last = np.where(stopped, done.argmax(axis=1), chunk - 1)
        used = np.arange(chunk) <= last[:, None]
        overflow = used & ~(np.isfinite(term) & np.isfinite(q))
        if overflow.any():
            raise NumericalError(
                "a kernel-series term overflows at alpha = "
                f"{float(a[overflow.any(axis=1)][0, 0])!r}"
            )
        # running sums from the carried total, added one term at a time
        sums = np.cumsum(np.concatenate((total[open_][:, None], term), axis=1), axis=1)
        total[open_] = sums[np.arange(len(last)), last + 1]
        open_[open_] = ~stopped
        start, chunk = start + chunk, 2 * chunk
    return total


@dataclass(frozen=True)
class ComparisonConstants:
    """Constants ``c2 <= c1`` with ``c2 ||R(f)|| <= ||f|| <= c1 ||R(f)||``."""

    c1: float
    c2: float

    def __post_init__(self):
        if not (0.0 < self.c2 <= self.c1):
            raise ArgumentError(f"constants must satisfy 0 < c2 <= c1, got {self}")


def comparison_constants(alpha: float, pat: DiagonalPattern) -> ComparisonConstants:
    """Two-sided constants comparing a diagonal series with its restriction.

    For a series supported on ``(M k, N k)`` the per-term weight ratio
    ``((Mk+1)(Nk+1) / (k+1)^2)^alpha`` runs monotonically between 1 and
    ``(M N)^alpha``, which yields the closed forms below; the pattern
    ``(1, 1)`` is an exact isometry.
    """
    alpha = as_alpha(alpha).alpha
    ma = float(pat.M) ** alpha
    na = float(pat.N) ** alpha
    c1 = max(1.0, ma) * max(1.0, na)
    c2 = min(1.0, ma) * min(1.0, na)
    return ComparisonConstants(c1=c1, c2=c2)
