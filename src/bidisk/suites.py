"""Randomized inequality suites for the norm-comparison results.

Each suite draws random series with a seeded generator and checks one of
the structural inequalities or identities: the diagonal-restriction
contraction, the separable norm factorization, the projection inequality
for diagonal patterns, the two-sided restriction comparison with its
closed-form constants, and the slice bound through the kernel norm.  A
suite passes when no trial violates its inequality beyond rounding slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from .errors import InputError
from .series import (
    DiagonalPattern,
    OneVarSeries,
    TwoVarSeries,
    diag_restrict,
    diagonal_project,
    lift,
    multiply2,
    restrict,
    separable,
    slice_series,
)
from .spaces import (
    beta_of_alpha,
    comparison_constants,
    kernel_norm_sq,
    norm1,
    norm2,
)

__all__ = ["SuiteResult", "SUITES", "run_suite", "available_suites"]

_REL_SLACK = 1e-9


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    violations: int
    worst: float  # most negative margin seen (0 when clean)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _random_two_var(rng: np.random.Generator, max_deg: int = 10) -> TwoVarSeries:
    d1 = int(rng.integers(0, max_deg + 1))
    d2 = int(rng.integers(0, max_deg + 1))
    grid = rng.standard_normal((d1 + 1, d2 + 1)) + 1j * rng.standard_normal((d1 + 1, d2 + 1))
    return TwoVarSeries(grid)


def _random_one_var(rng: np.random.Generator, max_deg: int = 12) -> OneVarSeries:
    d = int(rng.integers(0, max_deg + 1))
    return OneVarSeries(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))


def _random_pattern(rng: np.random.Generator) -> DiagonalPattern:
    return DiagonalPattern(int(rng.integers(1, 4)), int(rng.integers(1, 4)))


def suite_restriction(trials: int, seed: int) -> SuiteResult:
    """Diagonal restriction contracts into the shifted-index space."""
    rng = np.random.default_rng(seed)
    alphas = (-2.0, -1.0, 0.0, 1.0, 2.0)
    violations = 0
    worst = 0.0
    for _ in range(trials):
        f = _random_two_var(rng)
        g = diag_restrict(f)
        alpha = alphas[int(rng.integers(0, len(alphas)))]
        lhs = norm1(g, beta_of_alpha(alpha))
        rhs = norm2(f, alpha)
        margin = rhs - lhs
        if margin < -_REL_SLACK * rhs:
            violations += 1
        worst = min(worst, margin)
    return SuiteResult("restriction", trials, violations, worst)


def suite_separable(trials: int, seed: int) -> SuiteResult:
    """Norm of a product series factors into the one-variable norms."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    for _ in range(trials):
        g = _random_one_var(rng)
        h = _random_one_var(rng)
        alpha = float(rng.uniform(-2.0, 2.0))
        lhs = norm2(separable(g, h), alpha)
        rhs = norm1(g, alpha) * norm1(h, alpha)
        gap = abs(lhs - rhs)
        if gap > 1e-12 * max(rhs, 1e-300):
            violations += 1
        worst = min(worst, -gap)
    return SuiteResult("separable", trials, violations, worst)


def suite_polyextraction(trials: int, seed: int) -> SuiteResult:
    """Projecting a competitor onto the pattern cannot increase the residual."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    for _ in range(trials):
        pat = _random_pattern(rng)
        F = _random_one_var(rng, max_deg=6)
        f = lift(F, pat)
        r = _random_two_var(rng, max_deg=8)
        s = diagonal_project(r, pat)
        alpha = float(rng.uniform(-1.5, 1.5))
        lhs = norm2(multiply2(r, f) - 1.0, alpha)
        rhs = norm2(multiply2(s, f) - 1.0, alpha)
        margin = lhs - rhs
        if margin < -_REL_SLACK * max(lhs, 1.0):
            violations += 1
        worst = min(worst, margin)
    return SuiteResult("polyextraction", trials, violations, worst)


def suite_comparison(trials: int, seed: int) -> SuiteResult:
    """Two-sided comparison with the closed-form constants, all patterns in {1,2,3}^2."""
    rng = np.random.default_rng(seed)
    patterns = [DiagonalPattern(M, N) for M in (1, 2, 3) for N in (1, 2, 3)]
    violations = 0
    worst = 0.0
    for t in range(trials):
        pat = patterns[t % len(patterns)]
        F = _random_one_var(rng, max_deg=10)
        f = lift(F, pat)
        alpha = float(rng.uniform(-2.0, 2.0))
        cc = comparison_constants(alpha, pat)
        mid = norm2(f, alpha)
        base = norm1(restrict(f, pat), 2.0 * alpha)
        lo_margin = mid - cc.c2 * base
        hi_margin = cc.c1 * base - mid
        margin = min(lo_margin, hi_margin)
        if margin < -_REL_SLACK * max(mid, 1.0):
            violations += 1
        worst = min(worst, margin)
    return SuiteResult("comparison", trials, violations, worst)


def suite_slice(trials: int, seed: int) -> SuiteResult:
    """Slice norms are controlled by the kernel norm at the slice point."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    for _ in range(trials):
        f = _random_two_var(rng)
        alpha = float(rng.uniform(-1.5, 1.5))
        radius = float(rng.uniform(0.0, 0.9))
        angle = float(rng.uniform(0.0, 2.0 * np.pi))
        w = radius * np.exp(1j * angle)
        fix = "z2" if rng.integers(0, 2) else "z1"
        g = slice_series(f, fix, w)
        lhs = norm1(g, alpha)
        rhs = np.sqrt(kernel_norm_sq(alpha, w)) * norm2(f, alpha)
        margin = rhs - lhs
        if margin < -_REL_SLACK * max(rhs, 1.0):
            violations += 1
        worst = min(worst, margin)
    return SuiteResult("slice", trials, violations, worst)


SUITES: Dict[str, Callable[[int, int], SuiteResult]] = {
    "restriction": suite_restriction,
    "separable": suite_separable,
    "polyextraction": suite_polyextraction,
    "comparison": suite_comparison,
    "slice": suite_slice,
}


def available_suites() -> List[str]:
    return list(SUITES)


def run_suite(name: str, trials: int = 500, seed: int = 7) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    if trials < 1:
        raise InputError(f"a suite needs at least one trial (got trials={trials})")
    return SUITES[name](trials, seed)
