"""Logarithmic energy on the torus and the Bergman-dual annihilation test.

Probability measures on the two-torus enter purely through their Fourier
coefficients.  The energy against the product log-kernel is the quadratic
form

    I = 1 + sum_{k>=1} |mu(k,0)|^2 / k + sum_{l>=1} |mu(0,l)|^2 / l
          + (1/2) sum_{k != 0} sum_{l>=1} |mu(k,l)|^2 / (|k| l),

whose finiteness for a measure supported on a boundary zero set obstructs
cyclicity: the Cauchy transform of such a measure is a Bergman-space
function whose bilinear pairing annihilates every polynomial multiple of
the function.

A measure stores its nonzero coefficients on the closed upper half-plane
only, where every energy term and Cauchy coefficient lies; Hermitian symmetry
gives the rest.  Both therefore cost ``O(nnz)``, with no dense grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import CoefficientRangeError
from .series import TwoVarSeries, _as_int, shifted_pairings
from .spaces import norm2

__all__ = [
    "FourierMeasure",
    "EnergyReport",
    "lebesgue",
    "diagonal_current",
    "point_mass",
    "custom_measure",
    "energy",
    "cauchy_transform",
    "bergman_norm_sq",
    "dual_pairing",
    "annihilation_check",
]

_HERMITIAN_TOL = 1e-12


def _index(value, name: str) -> int:
    """``value`` as a Python int by :func:`series._as_int`, so numpy integers pass; else refused, ``name`` naming it."""
    return _as_int(value, f"{name}={value!r}")


@dataclass(frozen=True, eq=False)
class FourierMeasure:
    """Probability measure on the two-torus given by Fourier coefficients.

    The read-only table holds ``mu_hat(k[i], l[i]) = value[i]`` on the closed
    upper half-plane ``l > 0`` or ``(l = 0, k >= 0)``, strictly increasing in
    ``(l, k)``; unlisted coefficients there are zero, and
    ``mu_hat(-k, -l) = conj(mu_hat(k, l))`` gives the other half.  However the
    measure is built, ``K`` is taken as an integer (:func:`_index`), and
    construction checks that every index is within
    ``|k|, |l| <= K``, that ``mu_hat(0, 0) = 1`` (the first entry), and that
    every coefficient is finite and at most 1 in modulus.
    """

    K: int
    kind: str
    k: np.ndarray = field(repr=False)
    l: np.ndarray = field(repr=False)
    value: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "K", _index(self.K, "K"))
        k, l = np.asarray(self.k), np.asarray(self.l)
        value = np.asarray(self.value, dtype=np.complex128)
        if self.K < 0:
            raise CoefficientRangeError("coefficient cutoff K must be nonnegative")
        if not (k.ndim == 1 and k.shape == l.shape == value.shape
                and {k.dtype.kind, l.dtype.kind} <= {"i", "u"}):
            raise CoefficientRangeError("a measure table needs 1-D integer k, l and value arrays")
        k, l = k.astype(np.int64, copy=False), l.astype(np.int64, copy=False)
        # strictly increasing from (0, 0) keeps every entry in the upper half-plane
        if np.any((l[1:] < l[:-1]) | ((l[1:] == l[:-1]) & (k[1:] <= k[:-1]))):
            raise CoefficientRangeError("measure table indices must strictly increase in (l, k)")
        if k.size == 0 or k[0] != 0 or l[0] != 0 or not abs(value[0] - 1.0) <= _HERMITIAN_TOL:
            raise CoefficientRangeError("a probability measure needs mu_hat(0, 0) = 1 first")
        reach = max(k.max(), -k.min(), l[-1])
        if reach > self.K:
            raise CoefficientRangeError(f"coefficient range {reach} exceeds the cutoff {self.K}")
        modulus = np.abs(value)
        i = int(np.argmax(modulus))
        if not modulus[i] <= 1.0 + _HERMITIAN_TOL:  # NaN fails too
            raise CoefficientRangeError(
                f"|mu_hat({k[i]}, {l[i]})| = {modulus[i]:.6g}; a probability measure needs <= 1"
            )
        for name, array in (("k", k), ("l", l), ("value", value)):
            object.__setattr__(self, name, array.view())
            getattr(self, name).flags.writeable = False

    def mu_hat(self, k: int, l: int) -> complex:
        """Single coefficient, range-checked against the stored cutoff; ``k`` and ``l`` are integers."""
        k, l = _index(k, "k"), _index(l, "l")
        if abs(k) > self.K or abs(l) > self.K:
            raise CoefficientRangeError(
                f"coefficient ({k}, {l}) outside the stored range |k|,|l| <= {self.K}"
            )
        mirrored = l < 0 or (l == 0 and k < 0)
        if mirrored:
            k, l = -k, -l
        lo, hi = np.searchsorted(self.l, [l, l + 1])
        i = lo + int(np.searchsorted(self.k[lo:hi], k))
        value = complex(self.value[i]) if i < hi and self.k[i] == k else 0.0 + 0.0j
        return value.conjugate() if mirrored else value

    def quadrant(self, d1: int, d2: int) -> np.ndarray:
        """Grid ``out[k, l] = mu_hat(k, l)`` for ``0 <= k <= d1, 0 <= l <= d2``, integers."""
        d1, d2 = _index(d1, "d1"), _index(d2, "d2")
        if min(d1, d2) < 0 or max(d1, d2) > self.K:
            raise CoefficientRangeError(f"requested degrees ({d1}, {d2}) outside 0..{self.K}")
        stop = int(np.searchsorted(self.l, d2, side="right"))
        k, l = self.k[:stop], self.l[:stop]
        pick = (k >= 0) & (k <= d1)
        out = np.zeros((d1 + 1, d2 + 1), dtype=np.complex128)
        out[k[pick], l[pick]] = self.value[:stop][pick]
        return out


def lebesgue(K: int) -> FourierMeasure:
    """Normalized Lebesgue measure: ``mu_hat = 1`` at the origin, 0 elsewhere."""
    return FourierMeasure(K=K, kind="lebesgue", k=[0], l=[0], value=[1.0])


def diagonal_current(K: int) -> FourierMeasure:
    """Normalized integration current on the curve ``z1 z2 = 1`` in the torus.

    Its coefficients are ``mu_hat(k, l) = 1`` exactly when ``k = l``.
    """
    j = np.arange(K + 1)
    return FourierMeasure(K=K, kind="diagonal_current", k=j, l=j, value=np.ones(j.size, complex))


def point_mass(K: int) -> FourierMeasure:
    """Unit point mass at ``(1, 1)``: every coefficient equals 1 (infinite energy)."""
    K = _index(K, "K")
    # rows l = 0..K of k = -K..K, from the origin on
    l = np.repeat(np.arange(K + 1), 2 * K + 1)[K:]
    k = np.tile(np.arange(-K, K + 1), K + 1)[K:]
    return FourierMeasure(K=K, kind="custom", k=k, l=l, value=np.ones(k.size, complex))


def custom_measure(
    coeffs: Dict[Tuple[int, int], complex], K: Optional[int] = None
) -> FourierMeasure:
    """Measure from a coefficient table, Hermitian-completed and validated.

    Callers may specify either half of each conjugate pair; specifying both
    inconsistently, breaking ``mu_hat(0,0) = 1``, or exceeding modulus 1 is
    an input error.  Unspecified coefficients are zero, ``mu_hat(0, 0)``
    defaults to 1 and ``K`` to the largest index given.
    """
    table: Dict[Tuple[int, int], complex] = {}
    for (k, l), value in coeffs.items():
        value = complex(value)
        if l < 0 or (l == 0 and k < 0):
            k, l, value = -k, -l, value.conjugate()
        if (k, l) in table and abs(table[(k, l)] - value) > _HERMITIAN_TOL:
            raise CoefficientRangeError(f"coefficient {(k, l)} given twice, inconsistently")
        table[(k, l)] = value
    table.setdefault((0, 0), 1.0 + 0.0j)
    keys = sorted(table, key=lambda kl: (kl[1], kl[0]))
    k, l = np.array(keys).T
    if K is None:
        K = int(max(np.max(np.abs(k)), l[-1]))
    return FourierMeasure(K=K, kind="custom", k=k, l=l, value=[table[kl] for kl in keys])


@dataclass(frozen=True)
class EnergyReport:
    """Partial logarithmic energy at cutoff ``K`` with a per-sum breakdown."""

    K: int
    constant: float
    axis1: float
    axis2: float
    interior: float

    @property
    def partial(self) -> float:
        return self.constant + self.axis1 + self.axis2 + self.interior


def energy(mu: FourierMeasure, K: int) -> EnergyReport:
    """Partial sum of the logarithmic energy up to frequency cutoff ``K``.

    All four term groups are nonnegative, so the partial sums are
    nondecreasing in ``K``; growth without bound as ``K`` increases is
    evidence of infinite energy.  Each group is an exactly rounded sum of
    its terms, read from the upper half-plane table in ``O(nnz)``.  ``K``
    is an integer.
    """
    K = _index(K, "K")
    if not 0 <= K <= mu.K:
        raise CoefficientRangeError(f"cutoff {K} outside the stored range 0..{mu.K}")
    stop = int(np.searchsorted(mu.l, K, side="right"))
    k, l, value = mu.k[:stop], mu.l[:stop], mu.value[:stop]
    if K < mu.K:
        keep = np.abs(k) <= K
        k, l, value = k[keep], l[keep], value[keep]
    sq = np.abs(value) ** 2
    # fsum over a memoryview: exactly rounded, without a numpy scalar per term;
    # the origin comes first, then the rest of the row l = 0
    row0 = int(np.searchsorted(l, 0, side="right"))
    axis1 = math.fsum(memoryview(sq[1:row0] / k[1:row0]))
    k, l, sq = k[row0:], l[row0:], sq[row0:]
    on_axis = k == 0
    axis2 = math.fsum(memoryview(sq[on_axis] / l[on_axis]))
    interior = 0.5 * math.fsum(memoryview(sq[~on_axis] / np.abs((k * l)[~on_axis])))
    return EnergyReport(K=K, constant=1.0, axis1=axis1, axis2=axis2, interior=interior)


def cauchy_transform(mu: FourierMeasure, d1: int, d2: int) -> TwoVarSeries:
    """Taylor coefficients of the Cauchy integral of ``mu``.

    Expanding the product of geometric kernels and integrating term by term
    gives coefficient ``conj(mu_hat(k, l))`` at ``(k, l)``.
    """
    return TwoVarSeries(np.conj(mu.quadrant(d1, d2)))


def bergman_norm_sq(g: TwoVarSeries) -> float:
    """Squared Bergman-space norm ``sum |b[k,l]|^2 / ((k+1)(l+1))``.

    The Bergman space of the bidisk is the weighted coefficient space at
    parameter -1, so this is simply that squared norm.
    """
    return norm2(g, -1.0) ** 2


def dual_pairing(f: TwoVarSeries, g: TwoVarSeries) -> complex:
    """Bilinear pairing ``sum a[k,l] b[k,l]`` (no conjugation) over the common grid."""
    d1 = min(f.deg1, g.deg1)
    d2 = min(f.deg2, g.deg2)
    return complex(np.sum(f.coeffs[: d1 + 1, : d2 + 1] * g.coeffs[: d1 + 1, : d2 + 1]))


def annihilation_check(f: TwoVarSeries, mu: FourierMeasure, maxdeg: int) -> float:
    """Largest pairing ``|<z1^k z2^l f, C[mu]>|`` over ``0 <= k, l <= maxdeg``.

    A value at rounding level certifies, at this truncation, that the Cauchy
    transform annihilates the polynomial multiples of ``f``.  The shifts
    form the box ``(maxdeg, maxdeg)``, whose pairings :func:`shifted_pairings`
    reads off windows of the transform's grid.  The measure must store
    coefficients out to ``maxdeg + deg(f)`` so every shifted product fits
    that grid.  ``maxdeg`` is an integer.
    """
    maxdeg = _index(maxdeg, "maxdeg")
    if maxdeg < 0:
        raise CoefficientRangeError("maxdeg must be nonnegative")
    d1 = maxdeg + f.deg1
    d2 = maxdeg + f.deg2
    if d1 > mu.K or d2 > mu.K:
        raise CoefficientRangeError(
            f"annihilation check needs coefficients to ({d1}, {d2}); measure stores {mu.K}"
        )
    C = cauchy_transform(mu, d1, d2)
    return float(np.max(np.abs(shifted_pairings(f.coeffs, C.coeffs, (maxdeg, maxdeg)))))
