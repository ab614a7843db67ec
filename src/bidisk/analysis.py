"""Decay scans of the optimal residuals, rate fitting, and cyclicity verdicts.

The sharp theory for the families handled here predicts

* separable products ``g(z1) h(z2)``: squared distance of order
  ``(n+1)^-(1-alpha)`` for ``alpha < 1`` and ``1/log(n+1)`` at ``alpha = 1``;
* diagonal-pattern functions ``F(z1^M z2^N)``: order ``(n+1)^-(1-2*alpha)``
  for ``alpha < 1/2``, ``1/log(n+1)`` at ``alpha = 1/2``, and no decay at all
  (a plateau) for ``alpha > 1/2``;
* functions of the first variable alone: the separable rates.

This module samples the solver over a grid of orders, fits power laws by
ordinary least squares in log-log coordinates, fits the logarithmic mode by
stability of ``dist_sq * log(n+1)``, and classifies scans into
decaying / plateau / inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .approximants import ApproximantResult, BasisSpec, solve_orders
from .errors import (
    ArgumentError,
    BidiskError,
    DegenerateFitError,
    InsufficientPointsError,
    MonotonicityError,
    NumericalError,
    UnsupportedRateError,
)
from .series import DiagonalPattern, TwoVarSeries, _as_order, _check_tolerance
from .spaces import AlphaLike, as_alpha

__all__ = [
    "DecaySeries",
    "RateFit",
    "TheoryRate",
    "CyclicityVerdict",
    "decay_scan",
    "fit_power",
    "fit_log_mode",
    "predicted_rate",
    "cyclicity_verdict",
]

_MONOTONE_SLACK = 1e-10

# The smallest positive normal float; a smaller predicted value has lost its precision.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class DecaySeries:
    """Squared distances sampled over strictly increasing orders ``n``."""

    points: Tuple[Tuple[int, float], ...]
    meta: dict = field(default_factory=dict)
    results: Optional[Tuple[ApproximantResult, ...]] = None

    def __post_init__(self):
        ns = [n for n, _ in self.points]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ArgumentError("orders must be strictly increasing")
        for n, v in self.points:
            if not math.isfinite(v):
                raise NumericalError(f"dist_sq at order n={n} is not finite ({v!r})", n=n)
        values = [v for _, v in self.points]
        for a, b in zip(values, values[1:]):
            if b > a + _MONOTONE_SLACK:
                raise MonotonicityError(
                    f"dist_sq increased from {a!r} to {b!r}; "
                    "this indicates numerical failure upstream"
                )
        object.__setattr__(self, "points", tuple((int(n), float(v)) for n, v in self.points))

    @property
    def ns(self) -> np.ndarray:
        return np.array([n for n, _ in self.points])

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.points])


@dataclass(frozen=True)
class RateFit:
    """Fitted decay law over ``fit_range``.

    Power mode: ``dist_sq ~ constant * (n+1)^exponent`` with ``r_squared``
    the usual coefficient of determination of the log-log regression.
    Logarithmic mode: ``dist_sq ~ constant / log(n+1)`` with ``r_squared``
    a stability score ``1 - (max r - min r) / max r`` of
    ``r(n) = dist_sq * log(n+1)``.
    """

    mode: str
    exponent: float
    constant: float
    r_squared: float
    fit_range: Tuple[int, int]


@dataclass(frozen=True)
class TheoryRate:
    """Sharp predicted decay mode for a function family at parameter ``alpha``."""

    family: str
    alpha: float
    mode: str  # "power" | "logarithmic" | "plateau"
    exponent: Optional[float] = None

    def predicted_value(self, n: int) -> Optional[float]:
        """Reference decay value at order ``n``.

        None where undefined, and where a power is not a positive normal float.
        """
        if self.mode == "power":
            try:
                value = (float(n) + 1.0) ** self.exponent
            except OverflowError:
                return None
            return value if _TINY <= value < math.inf else None
        if self.mode == "logarithmic":
            return 1.0 / np.log(n + 1.0) if n >= 1 else None
        return 1.0


def decay_scan(
    f: TwoVarSeries,
    a: AlphaLike,
    n_values: Sequence[int],
    basis: str = "full",
    pattern: Optional[DiagonalPattern] = None,
    ortho_tol: Optional[float] = None,
) -> DecaySeries:
    """One optimal solve per order in ``n_values`` (strictly increasing integers).

    The orders are solved by :func:`solve_orders` over
    ``BasisSpec(n, basis, pattern)``; a diagonal basis defaults to the
    pattern ``(1, 1)``, and a ``pattern`` with any other basis is refused.
    Each result equals :func:`solve_optimal` at its order, bit for bit.  A
    scan assembles its Gram band once, at its largest order, or, if that
    assembly fails, every order alone; a full scan gathers each lower
    order's band from the top one, a one-variable or diagonal scan slices
    it, and every order factors, solves, estimates the condition of and
    certifies its own band.
    ``ortho_tol`` is the orthogonality-certificate tolerance of every solve
    (default ``1e-8 * ||f||^2``); a negative or NaN one is refused before
    any solve.
    The scan stops at the first order that fails, with that order's error;
    one whose message names no order (its ``n`` is None) is made to name
    it, and ``n`` is set.
    The mathematical monotonicity of the squared distances is asserted
    after the fact — any increase beyond rounding is reported as a
    numerical failure.
    """
    n_values = [_as_order(n, "n") for n in n_values]
    if any(b <= a_ for a_, b in zip(n_values, n_values[1:])):
        raise ArgumentError("n_values must be strictly increasing")
    _check_tolerance(ortho_tol, "ortho_tol")
    aw = as_alpha(a)
    if basis == "diagonal" and pattern is None:
        pattern = DiagonalPattern(1, 1)
    bases = [BasisSpec(n, basis, pattern) for n in n_values]
    results = []
    try:
        for result in solve_orders(f, aw, bases, ortho_tol=ortho_tol):
            results.append(result)
    except BidiskError as exc:
        # Re-raise the same error, its type and attributes intact, naming
        # the order once: an error whose message names it carries it as ``n``.
        if exc.n is None:
            exc.n = n_values[len(results)]
            exc.args = (f"order n={exc.n}: {exc}", *exc.args[1:])
        raise
    points = tuple((n, r.residual_sq) for n, r in zip(n_values, results))
    meta = {"alpha": aw.alpha, "basis": basis, "pattern": pattern}
    return DecaySeries(points=points, meta=meta, results=tuple(results))


def _fit_window(ds: DecaySeries, n_min: int, n_max: Optional[int]) -> Tuple[np.ndarray, np.ndarray]:
    ns = ds.ns
    vals = ds.values
    keep = ns >= n_min
    if n_max is not None:
        keep &= ns <= n_max
    ns, vals = ns[keep], vals[keep]
    if len(ns) < 5:
        raise InsufficientPointsError(
            f"rate fits need at least 5 points in the window, got {len(ns)}"
        )
    if np.any(vals <= 0.0):
        raise DegenerateFitError(
            "dist_sq hit zero inside the fit window (function inverted exactly "
            "at finite order); no decay law applies"
        )
    return ns, vals


def fit_power(ds: DecaySeries, n_min: int = 10, n_max: Optional[int] = None) -> RateFit:
    """Least squares of ``log dist_sq`` on ``log(n+1)``.

    Orders below ``n_min`` (default 10) are excluded: the transient regime
    pollutes asymptotic slopes.
    """
    ns, vals = _fit_window(ds, n_min, n_max)
    x = np.log(ns + 1.0)
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(
        mode="power",
        exponent=float(slope),
        constant=float(np.exp(intercept)),
        r_squared=min(1.0, r2),
        fit_range=(int(ns[0]), int(ns[-1])),
    )


def fit_log_mode(ds: DecaySeries, n_min: int = 10, n_max: Optional[int] = None) -> RateFit:
    """Fit ``dist_sq ~ C / log(n+1)`` by stability of ``r(n) = dist_sq log(n+1)``.

    Returns the median of ``r`` as the constant and the stability score
    ``1 - (max r - min r)/max r`` in ``r_squared``; scores near 1 indicate a
    genuine logarithmic mode, low scores rule it out.
    """
    ns, vals = _fit_window(ds, n_min, n_max)
    r = vals * np.log(ns + 1.0)
    stability = 1.0 - (float(np.max(r)) - float(np.min(r))) / float(np.max(r))
    return RateFit(
        mode="logarithmic",
        exponent=0.0,
        constant=float(np.median(r)),
        r_squared=stability,
        fit_range=(int(ns[0]), int(ns[-1])),
    )


def predicted_rate(alpha: float, family: str) -> TheoryRate:
    """Sharp theoretical decay mode for a family at parameter ``alpha``.

    ``separable`` and ``onevar`` decay like ``(n+1)^-(1-alpha)`` below the
    logarithmic threshold ``alpha = 1``; ``diagonal`` decays like
    ``(n+1)^-(1-2 alpha)`` below its threshold ``alpha = 1/2`` and plateaus
    above it (the function stops being cyclic there).
    """
    alpha = as_alpha(alpha).alpha
    if family in ("separable", "onevar"):
        if alpha > 1.0:
            raise UnsupportedRateError(
                f"no rate is defined for the {family} family at alpha = {alpha} > 1"
            )
        if alpha == 1.0:
            return TheoryRate(family=family, alpha=alpha, mode="logarithmic")
        return TheoryRate(family=family, alpha=alpha, mode="power", exponent=-(1.0 - alpha))
    if family == "diagonal":
        if alpha > 0.5:
            return TheoryRate(family=family, alpha=alpha, mode="plateau")
        if alpha == 0.5:
            return TheoryRate(family=family, alpha=alpha, mode="logarithmic")
        return TheoryRate(family=family, alpha=alpha, mode="power", exponent=-(1.0 - 2.0 * alpha))
    raise UnsupportedRateError(f"unknown function family {family!r}")


@dataclass(frozen=True)
class CyclicityVerdict:
    verdict: str  # "decaying" | "plateau" | "inconclusive"
    power_fit: Optional[RateFit]
    log_fit: Optional[RateFit]
    detail: str


# Thresholds of :func:`cyclicity_verdict`.
_DECAY_FACTOR = 0.5  # a decaying scan ends below this fraction of its first value
_R2_MIN = 0.9  # least r_squared of an acceptable power fit
_LOG_STABILITY_MIN = 0.8  # least stability score of an acceptable logarithmic fit
_PLATEAU_REL = 1e-3  # largest relative change over the last step of a plateau
_PLATEAU_FLOOR = 0.05  # least level of a plateau
_VERDICT_N_MIN = 10  # the fits of a verdict start at this order


def cyclicity_verdict(ds: DecaySeries) -> CyclicityVerdict:
    """Conservative classification of a decay scan.

    ``decaying`` needs the last value under ``_DECAY_FACTOR`` times the first
    and a good power fit or a stable logarithmic mode; ``plateau`` needs the
    last two values to agree to ``_PLATEAU_REL`` relatively while staying
    above ``_PLATEAU_FLOOR``; everything else is ``inconclusive``.  This is
    numerical evidence about a finite window, not a proof of an asymptotic
    property.
    """
    if len(ds.points) < 8:
        raise InsufficientPointsError("verdicts need at least 8 sampled orders")
    ns = ds.ns
    if ns[-1] < 4 * max(ns[0], 1):
        raise InsufficientPointsError("verdicts need the orders to span at least a factor 4")
    vals = ds.values
    if np.all(vals <= 1e-14):
        return CyclicityVerdict(
            verdict="decaying",
            power_fit=None,
            log_fit=None,
            detail="distances vanish identically: the function is inverted exactly "
            "at finite order",
        )
    power = log = None
    try:
        power = fit_power(ds, n_min=_VERDICT_N_MIN)
        log = fit_log_mode(ds, n_min=_VERDICT_N_MIN)
    except (DegenerateFitError, InsufficientPointsError):
        pass
    last, prev, first = vals[-1], vals[-2], vals[0]
    if last < _DECAY_FACTOR * first and (
        (power is not None and power.r_squared >= _R2_MIN)
        or (log is not None and log.r_squared >= _LOG_STABILITY_MIN)
    ):
        return CyclicityVerdict(
            verdict="decaying",
            power_fit=power,
            log_fit=log,
            detail=f"last/first = {last / first:.3g} with an acceptable fit",
        )
    if last >= _PLATEAU_FLOOR and abs(last - prev) < _PLATEAU_REL * max(last, prev):
        return CyclicityVerdict(
            verdict="plateau",
            power_fit=power,
            log_fit=log,
            detail=f"level {last:.6g} stable to {abs(last - prev) / max(last, prev):.3g}",
        )
    return CyclicityVerdict(
        verdict="inconclusive",
        power_fit=power,
        log_fit=log,
        detail="neither decay nor plateau criteria met on this window",
    )
