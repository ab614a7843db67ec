"""Randomized inequality suites for the norm-comparison results.

Each suite draws random series with a seeded generator and checks one of
the structural inequalities or identities: the diagonal-restriction
contraction, the separable norm factorization, the projection inequality
for diagonal patterns, the two-sided restriction comparison with its
closed-form constants, and the slice bound through the kernel norm.  A
suite passes when no trial violates its inequality beyond rounding slack.

A suite makes the same generator calls for each trial, in the same order,
whatever the number of trials; the draws of a seed are its inputs.  Trials
are taken ``BLOCK`` at a time: the draws of a block are packed into
zero-padded stacks, and the structural maps and norms of :mod:`.series`
and :mod:`.spaces` evaluate the whole stack at once (the projection suite
stacks the trials of each pattern).  Memory therefore does not grow with
the number of trials.  The two identity suites, ``separable`` and
``comparison``, report the largest rounding discrepancy; they evaluate
their norms one trial at a time, so that discrepancy does not depend on how
trials are grouped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from .errors import ArgumentError, InputError
from .series import (
    DiagonalPattern,
    _diag_restrict,
    _diagonal_project,
    _lift,
    _restrict,
    _separable,
    _shift_add,
    _slice,
)
from .spaces import (
    _kernel_norms_sq,
    _norms1,
    _norms2,
    _weight_rows,
    beta_of_alpha,
    comparison_constants,
)

__all__ = ["SuiteResult", "SUITES", "BLOCK", "run_suite", "available_suites"]

# Trials evaluated together.  The largest stack, a block of (3, 3)-pattern
# products in the projection suite, takes 64 * 27 * 27 * 16 bytes = 0.75 MB.
BLOCK = 64

_REL_SLACK = 1e-9

# Per block: the margin of each trial, in trial order, and the slack it may
# fall below zero by.
Margins = Iterator[Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of a suite: trials run, violations counted, and the worst margin.

    ``worst`` is the most negative margin seen, 0.0 when none is negative.
    An inequality suite's margins are positive on a clean run.  An identity
    suite's margins are minus its rounding discrepancies, so it reports the
    largest discrepancy as a small negative ``worst`` while passing.
    """

    name: str
    trials: int
    violations: int
    worst: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _random_grid(rng: np.random.Generator, max_deg: int = 10) -> np.ndarray:
    d1 = int(rng.integers(0, max_deg + 1))
    d2 = int(rng.integers(0, max_deg + 1))
    return rng.standard_normal((d1 + 1, d2 + 1)) + 1j * rng.standard_normal((d1 + 1, d2 + 1))


def _random_row(rng: np.random.Generator, max_deg: int = 12) -> np.ndarray:
    d = int(rng.integers(0, max_deg + 1))
    return rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)


def _random_pattern(rng: np.random.Generator) -> DiagonalPattern:
    return DiagonalPattern(int(rng.integers(1, 4)), int(rng.integers(1, 4)))


def _stack(arrays: List[np.ndarray]) -> np.ndarray:
    """Coefficient arrays zero-padded to their largest shape and stacked along a new first axis."""
    shape = tuple(np.max([x.shape for x in arrays], axis=0))
    out = np.zeros((len(arrays),) + shape, dtype=np.complex128)
    for i, x in enumerate(arrays):
        out[(i,) + tuple(slice(0, n) for n in x.shape)] = x
    return out


def _blocks(trials: int) -> Iterator[int]:
    """Sizes of the consecutive blocks of ``trials`` trials."""
    for start in range(0, trials, BLOCK):
        yield min(BLOCK, trials - start)


def restriction_margins(trials: int, seed: int) -> Margins:
    """Diagonal restriction contracts into the shifted-index space."""
    rng = np.random.default_rng(seed)
    alphas = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    betas = np.array([beta_of_alpha(a) for a in alphas])
    for size in _blocks(trials):
        grids, picks = [], []
        for _ in range(size):
            grids.append(_random_grid(rng))
            picks.append(int(rng.integers(0, len(alphas))))
        f = _stack(grids)
        g = _diag_restrict(f)
        lhs = _norms1(g, _weight_rows(betas[picks], g.shape[-1] - 1))
        n1, n2 = f.shape[1:]
        w = _weight_rows(alphas[picks], max(n1, n2) - 1)
        rhs = _norms2(f, w[:, :n1], w[:, :n2])
        yield rhs - lhs, _REL_SLACK * rhs


def separable_margins(trials: int, seed: int) -> Margins:
    """Norm of a product series factors into the one-variable norms."""
    rng = np.random.default_rng(seed)
    for size in _blocks(trials):
        gaps, rhs = np.empty(size), np.empty(size)
        for i in range(size):
            g = _random_row(rng)
            h = _random_row(rng)
            alpha = float(rng.uniform(-2.0, 2.0))
            wg, wh = _weight_rows(alpha, len(g) - 1), _weight_rows(alpha, len(h) - 1)
            lhs = _norms2(_separable(g, h), wg, wh)
            rhs[i] = _norms1(g, wg) * _norms1(h, wh)
            gaps[i] = abs(lhs - rhs[i])
        yield -gaps, 1e-12 * np.maximum(rhs, 1e-300)


def polyextraction_margins(trials: int, seed: int) -> Margins:
    """Projecting a competitor onto the pattern cannot increase the residual."""
    rng = np.random.default_rng(seed)
    for size in _blocks(trials):
        groups: Dict[DiagonalPattern, List[int]] = {}
        Fs, rs, alphas = [], [], np.empty(size)
        for i in range(size):
            groups.setdefault(_random_pattern(rng), []).append(i)
            Fs.append(_random_row(rng, max_deg=6))
            rs.append(_random_grid(rng, max_deg=8))
            alphas[i] = float(rng.uniform(-1.5, 1.5))
        margin, slack = np.empty(size), np.empty(size)
        for pat, idx in groups.items():
            f = _lift(_stack([Fs[i] for i in idx]), pat)
            r = _stack([rs[i] for i in idx])
            # the residuals r f - 1 and s f - 1, s the projection of r
            lhs, rhs = (_shift_add(f, x) for x in (r, _diagonal_project(r, pat)))
            lhs[..., 0, 0] -= 1.0
            rhs[..., 0, 0] -= 1.0
            n1, n2 = lhs.shape[1:]
            w = _weight_rows(alphas[idx], max(n1, n2) - 1)
            lhs, rhs = (_norms2(x, w[:, :n1], w[:, :n2]) for x in (lhs, rhs))
            margin[idx] = lhs - rhs
            slack[idx] = _REL_SLACK * np.maximum(lhs, 1.0)
        yield margin, slack


def comparison_margins(trials: int, seed: int) -> Margins:
    """Two-sided comparison with the closed-form constants, all patterns in {1,2,3}^2."""
    rng = np.random.default_rng(seed)
    patterns = [DiagonalPattern(M, N) for M in (1, 2, 3) for N in (1, 2, 3)]
    t = 0
    for size in _blocks(trials):
        margin, mid = np.empty(size), np.empty(size)
        for i in range(size):
            pat = patterns[t % len(patterns)]
            t += 1
            F = _random_row(rng, max_deg=10)
            alpha = float(rng.uniform(-2.0, 2.0))
            cc = comparison_constants(alpha, pat)
            f = _lift(F, pat)
            w = _weight_rows(alpha, max(f.shape) - 1)
            mid[i] = _norms2(f, w[: f.shape[0]], w[: f.shape[1]])
            base = _norms1(_restrict(f, pat), _weight_rows(2.0 * alpha, len(F) - 1))
            margin[i] = min(mid[i] - cc.c2 * base, cc.c1 * base - mid[i])
        yield margin, _REL_SLACK * np.maximum(mid, 1.0)


def slice_margins(trials: int, seed: int) -> Margins:
    """Slice norms are controlled by the kernel norm at the slice point."""
    rng = np.random.default_rng(seed)
    for size in _blocks(trials):
        grids = []
        alpha, w = np.empty(size), np.empty(size, dtype=np.complex128)
        fix = np.empty(size, dtype=int)
        for i in range(size):
            grids.append(_random_grid(rng))
            alpha[i] = float(rng.uniform(-1.5, 1.5))
            radius = float(rng.uniform(0.0, 0.9))
            angle = float(rng.uniform(0.0, 2.0 * np.pi))
            w[i] = radius * np.exp(1j * angle)
            fix[i] = 2 if rng.integers(0, 2) else 1
        f = _stack(grids)
        n1, n2 = f.shape[1:]
        weights = _weight_rows(alpha, max(n1, n2) - 1)
        lhs = np.empty(size)
        for which, length in ((1, n2), (2, n1)):
            sel = fix == which
            lhs[sel] = _norms1(_slice(f[sel], w[sel], which), weights[sel, :length])
        rhs = np.sqrt(_kernel_norms_sq(alpha, w)) * _norms2(f, weights[:, :n1], weights[:, :n2])
        yield rhs - lhs, _REL_SLACK * np.maximum(rhs, 1.0)


_MARGINS: Dict[str, Callable[[int, int], Margins]] = {
    "restriction": restriction_margins,
    "separable": separable_margins,
    "polyextraction": polyextraction_margins,
    "comparison": comparison_margins,
    "slice": slice_margins,
}


def _tally(name: str, trials: int, seed: int) -> SuiteResult:
    violations = 0
    worst = 0.0
    for margin, slack in _MARGINS[name](trials, seed):
        violations += int(np.count_nonzero(margin < -slack))
        worst = min(worst, float(margin.min()))
    return SuiteResult(name, trials, violations, worst)


SUITES: Dict[str, Callable[[int, int], SuiteResult]] = {
    name: partial(_tally, name) for name in _MARGINS
}


def available_suites() -> List[str]:
    return list(SUITES)


def run_suite(name: str, trials: int = 500, seed: int = 7) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    if trials < 1:
        raise InputError(f"a suite needs at least one trial (got trials={trials})")
    if seed < 0:
        raise ArgumentError(f"the seed must be nonnegative (got seed={seed})")
    return SUITES[name](trials, seed)
