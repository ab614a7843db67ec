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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import CoefficientRangeError
from .series import TwoVarSeries, shifted_pairings
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


@dataclass(frozen=True)
class FourierMeasure:
    """Probability measure on the two-torus given by Fourier coefficients.

    Coefficients are available for ``|k|, |l| <= K``; normalization fixes
    ``mu_hat(0, 0) = 1``, coefficients are bounded by 1 in modulus, and the
    table is Hermitian-symmetric (``mu_hat(-k, -l) = conj(mu_hat(k, l))``).
    Built-ins are backed by closed forms; custom measures by a completed
    coefficient table.
    """

    K: int
    kind: str
    _style: str = field(repr=False, default="delta00")
    _table: Optional[Dict[Tuple[int, int], complex]] = field(repr=False, default=None)

    def __post_init__(self):
        if self.K < 0:
            raise CoefficientRangeError("coefficient cutoff K must be nonnegative")

    def mu_hat(self, k: int, l: int) -> complex:
        """Single coefficient, range-checked against the stored cutoff."""
        if abs(k) > self.K or abs(l) > self.K:
            raise CoefficientRangeError(
                f"coefficient ({k}, {l}) outside the stored range |k|,|l| <= {self.K}"
            )
        if self._style == "delta00":
            return 1.0 + 0.0j if k == l == 0 else 0.0 + 0.0j
        if self._style == "diag":
            return 1.0 + 0.0j if k == l else 0.0 + 0.0j
        if self._style == "ones":
            return 1.0 + 0.0j
        return complex(self._table.get((k, l), 0.0))

    def dense(self, K: int) -> np.ndarray:
        """Grid ``out[k + K, l + K] = mu_hat(k, l)`` for ``|k|, |l| <= K``."""
        if K > self.K:
            raise CoefficientRangeError(
                f"cutoff {K} exceeds the stored coefficient range {self.K}"
            )
        size = 2 * K + 1
        if self._style == "delta00":
            out = np.zeros((size, size), dtype=np.complex128)
            out[K, K] = 1.0
        elif self._style == "diag":
            out = np.eye(size, dtype=np.complex128)
        elif self._style == "ones":
            out = np.ones((size, size), dtype=np.complex128)
        else:
            out = np.zeros((size, size), dtype=np.complex128)
            for (k, l), value in self._table.items():
                if abs(k) <= K and abs(l) <= K:
                    out[k + K, l + K] = value
        return out

    def quadrant(self, d1: int, d2: int) -> np.ndarray:
        """Grid ``out[k, l] = mu_hat(k, l)`` for ``0 <= k <= d1, 0 <= l <= d2``."""
        if d1 > self.K or d2 > self.K:
            raise CoefficientRangeError(
                f"requested degrees ({d1}, {d2}) exceed the stored range {self.K}"
            )
        if self._style == "delta00":
            out = np.zeros((d1 + 1, d2 + 1), dtype=np.complex128)
            out[0, 0] = 1.0
        elif self._style == "diag":
            out = np.eye(d1 + 1, d2 + 1, dtype=np.complex128)
        elif self._style == "ones":
            out = np.ones((d1 + 1, d2 + 1), dtype=np.complex128)
        else:
            out = np.zeros((d1 + 1, d2 + 1), dtype=np.complex128)
            for (k, l), value in self._table.items():
                if 0 <= k <= d1 and 0 <= l <= d2:
                    out[k, l] = value
        return out


def lebesgue(K: int) -> FourierMeasure:
    """Normalized Lebesgue measure: ``mu_hat = 1`` at the origin, 0 elsewhere."""
    return FourierMeasure(K=K, kind="lebesgue", _style="delta00")


def diagonal_current(K: int) -> FourierMeasure:
    """Normalized integration current on the curve ``z1 z2 = 1`` in the torus.

    Its coefficients are ``mu_hat(k, l) = 1`` exactly when ``k = l``.
    """
    return FourierMeasure(K=K, kind="diagonal_current", _style="diag")


def point_mass(K: int) -> FourierMeasure:
    """Unit point mass at ``(1, 1)``: every coefficient equals 1 (infinite energy)."""
    return FourierMeasure(K=K, kind="custom", _style="ones")


def custom_measure(
    coeffs: Dict[Tuple[int, int], complex], K: Optional[int] = None
) -> FourierMeasure:
    """Measure from a coefficient table, Hermitian-completed and validated.

    Callers may specify either half of each conjugate pair; specifying both
    inconsistently, breaking ``mu_hat(0,0) = 1``, or exceeding modulus 1 is
    an input error.  Unspecified coefficients are zero.
    """
    table: Dict[Tuple[int, int], complex] = {}
    kmax = 0
    for (k, l), value in coeffs.items():
        value = complex(value)
        for key, val in (((k, l), value), ((-k, -l), complex(np.conj(value)))):
            if key in table and abs(table[key] - val) > _HERMITIAN_TOL:
                raise CoefficientRangeError(
                    f"coefficient {key} specified twice with inconsistent values"
                )
            table[key] = val
        kmax = max(kmax, abs(k), abs(l))
    table.setdefault((0, 0), 1.0 + 0.0j)
    if abs(table[(0, 0)] - 1.0) > _HERMITIAN_TOL:
        raise CoefficientRangeError("a probability measure needs mu_hat(0, 0) = 1")
    for key, value in table.items():
        if abs(value) > 1.0 + _HERMITIAN_TOL:
            raise CoefficientRangeError(
                f"|mu_hat{key}| = {abs(value):.6g} > 1 is impossible for a probability measure"
            )
    if K is None:
        K = kmax
    if kmax > K:
        raise CoefficientRangeError(
            f"coefficient range {kmax} exceeds the declared cutoff {K}"
        )
    return FourierMeasure(K=K, kind="custom", _style="table", _table=dict(table))


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
    evidence of infinite energy.
    """
    grid = mu.dense(K)
    defect = float(np.max(np.abs(grid - np.conj(grid[::-1, ::-1]))))
    if defect > 1e-10:
        raise CoefficientRangeError(
            f"coefficient table is not Hermitian-symmetric (defect {defect:.3e})"
        )
    sq = np.abs(grid) ** 2
    if K == 0:
        return EnergyReport(K=0, constant=1.0, axis1=0.0, axis2=0.0, interior=0.0)
    ks = np.arange(1, K + 1, dtype=float)
    axis1 = float(np.sum(sq[K + 1 :, K] / ks))
    axis2 = float(np.sum(sq[K, K + 1 :] / ks))
    nonzero_rows = np.concatenate([np.arange(-K, 0), np.arange(1, K + 1)])
    block = sq[nonzero_rows + K, K + 1 :]
    interior = 0.5 * float(
        np.einsum("k,l,kl->", 1.0 / np.abs(nonzero_rows), 1.0 / ks, block)
    )
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
    transform annihilates the polynomial multiples of ``f``.  The measure
    must store coefficients out to ``maxdeg + deg(f)`` so every shifted
    product fits the transform's grid.
    """
    d1 = maxdeg + f.deg1
    d2 = maxdeg + f.deg2
    if d1 > mu.K or d2 > mu.K:
        raise CoefficientRangeError(
            f"annihilation check needs coefficients to ({d1}, {d2}); measure stores {mu.K}"
        )
    C = cauchy_transform(mu, d1, d2)
    shifts = np.indices((maxdeg + 1, maxdeg + 1)).reshape(2, -1).T
    return float(np.max(np.abs(shifted_pairings(f.coeffs, C.coeffs, shifts))))
