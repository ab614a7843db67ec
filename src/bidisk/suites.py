"""Randomized inequality suites for the norm-comparison results.

Each suite draws random series with a seeded generator and checks one of
the structural inequalities or identities: the diagonal-restriction
contraction, the separable norm factorization, the projection inequality
for diagonal patterns, the two-sided restriction comparison with its
closed-form constants, and the slice bound through the kernel norm.  A
suite passes when no trial violates its inequality beyond rounding slack.

A suite makes the same generator calls for each trial, in the same order,
whatever the number of trials; the draws of a seed are its inputs.  Its
degrees, picks and parameters are scalar ``integers`` and ``uniform`` draws,
which a suite takes from ``_Stream``, not from the ``Generator``: the
stream rebuilds them from ``random_raw`` and ``random`` as numpy does
(Lemire's rejection on 32-bit halves of the 64-bit words, and ``low +
(high - low) * random()``), so they are numpy's draws bit for bit at a
fraction of numpy's per-call cost.  The stream holds the spare 32-bit half
itself; that is exact because every 32-bit draw of the stream goes through
it, so the bit generator's own half-word buffer stays empty.  Trials
are taken ``BLOCK`` at a time.  Each kind of series a suite draws has one
zero-padded complex array (``_Draws``), cleared for each block: a trial's
degrees are drawn, then its real and imaginary parts, by one
``standard_normal`` call written straight into a real view of that array.
The structural maps and norms of :mod:`.series` and :mod:`.spaces`
evaluate that array, cut to the largest shape drawn, at once (the
projection suite takes the trials of each pattern, and the comparison suite
takes the rows it drew as their own restrictions).  Memory therefore does
not grow with the number of trials.  The two identity suites, ``separable``
and ``comparison``, report the largest rounding discrepancy, so that
discrepancy must not depend on how trials are grouped: they take the weight
rows, the one-variable norms and the products with the comparison
constants per block, which round as one trial at a time does, but each
two-variable norm one trial at a time, since ``einsum`` rounds the norm of
a zero-padded grid differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .errors import ArgumentError, InputError
from .series import (
    DiagonalPattern,
    _as_int,
    _diag_restrict,
    _diagonal_project,
    _lift,
    _separable,
    _slice,
)
from .spaces import (
    _comparison_pair,
    _kernel_norms_sq,
    _norms1,
    _norms2,
    _weight_rows,
    beta_of_alpha,
)

__all__ = ["SuiteResult", "BLOCK", "run_suite", "available_suites"]

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


class _Stream:
    """A seed's generator whose ``integers`` and ``uniform`` are rebuilt from its raw words, bit for bit.

    ``integers(low, high)`` is numpy's Lemire rejection (*Fast random
    integer generation in an interval*, ACM TOMACS 2019) on 32-bit halves of
    the bit generator's 64-bit words, the low half first and the high half
    held for the next 32-bit draw, as PCG64's ``next_uint32`` holds it.
    ``uniform(low, high)`` is ``low + (high - low) * random()``, and
    ``standard_normal`` is the generator's own.  Each returns the Python
    ``int`` or ``float`` of the ``Generator`` call and leaves the stream
    where that call does, while the half held here is the only one: every
    32-bit draw goes through ``integers``, so the bit generator's own
    half-word buffer, empty in a fresh generator, stays empty.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self._raw = rng.bit_generator.random_raw
        self._random = rng.random
        self.standard_normal = rng.standard_normal
        self._half: Optional[int] = None

    def _next32(self) -> int:
        half = self._half
        if half is None:
            word = self._raw()
            self._half = word >> 32
            return word & 0xFFFFFFFF
        self._half = None
        return half

    def integers(self, low: int, high: int) -> int:
        """An integer in ``[low, high)``, as ``Generator.integers(low, high)`` draws it."""
        n = high - low
        if not 0 < n < 2**32:
            raise ValueError(f"integers draws from 1 to 2**32 - 1 values, not {n}")
        if n == 1:
            return low  # numpy draws nothing
        m = self._next32() * n
        if m & 0xFFFFFFFF < n:
            threshold = 2**32 % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * n
        return low + (m >> 32)

    def uniform(self, low: float, high: float) -> float:
        """A float in ``[low, high)``, as ``Generator.uniform(low, high)`` draws it."""
        return low + (high - low) * self._random()


class _Draws:
    """The complex coefficient arrays of a block's trials, drawn into one zero-padded array.

    ``block[i]`` holds trial ``i``'s coefficients in its leading corner and
    zeros past them; ``parts`` views the same memory as the real and the
    imaginary parts, ``parts[:, i]``.  A draw writes the two
    ``standard_normal`` arrays of a trial, made by one call, straight into
    ``parts``, so ``block[i]`` is ``re + 1j * im`` bit for bit.  A suite
    holds one per kind of series and clears it for each block, so a run
    allocates it once.
    """

    def __init__(self, ndim: int, max_deg: int):
        self.block = np.zeros((BLOCK,) + (max_deg + 1,) * ndim, dtype=np.complex128)
        self.parts = np.moveaxis(self.block.view(np.float64).reshape(self.block.shape + (2,)), -1, 0)
        self.max_deg = max_deg
        self.shapes: List[Tuple[int, ...]] = []

    def draw(self, rng: _Stream) -> None:
        """Draw the next trial: a degree per axis, then its real and imaginary parts.

        ``standard_normal((2,) + shape)`` is the stream of two calls at
        ``shape``, in their order, and leaves the generator where they do.
        """
        i, top = len(self.shapes), self.max_deg + 1
        if self.block.ndim == 2:
            n = rng.integers(0, top) + 1
            self.parts[:, i, :n] = rng.standard_normal((2, n))
            self.shapes.append((n,))
        else:
            n1 = rng.integers(0, top) + 1
            n2 = rng.integers(0, top) + 1
            self.parts[:, i, :n1, :n2] = rng.standard_normal((2, n1, n2))
            self.shapes.append((n1, n2))

    def clear(self) -> None:
        """Start a block: no trials drawn, and zeros throughout."""
        self.block.fill(0.0)
        self.shapes.clear()

    def stack(self, idx: Optional[List[int]] = None) -> np.ndarray:
        """Trials ``idx``, all drawn by default, zero-padded to their largest shape along a first axis.

        All trials are a view of ``block``, valid until it is cleared; a
        list of trials is a copy.
        """
        shapes = self.shapes if idx is None else [self.shapes[i] for i in idx]
        cut = tuple(slice(max(n)) for n in zip(*shapes))
        return self.block[(slice(len(self.shapes)) if idx is None else idx,) + cut]


def _blocks(trials: int) -> Iterator[int]:
    """Sizes of the consecutive blocks of ``trials`` trials."""
    for start in range(0, trials, BLOCK):
        yield min(BLOCK, trials - start)


def _residual_norms(F: np.ndarray, x: np.ndarray, pat: DiagonalPattern, alphas: np.ndarray) -> np.ndarray:
    """Norms of the residuals ``F(z1^M z2^N) x - 1`` of stacked rows ``F[:, k]`` and grids ``x``, at ``alphas``.

    The product adds ``F[:, k] x``, shifted by ``(M k, N k)``, for each
    ``k`` where some row is nonzero, in increasing ``k``: the terms of
    ``_shift_add`` on the lifted grids, in its order, without building the
    lifts.  A product is dropped once its norms are taken, so a group holds
    one at a time.
    """
    (M, N), d = (pat.M, pat.N), F.shape[1] - 1
    x1, x2 = x.shape[1:]
    n1, n2 = M * d + x1, N * d + x2
    out = np.zeros((len(F), n1, n2), dtype=np.complex128)
    for k in np.flatnonzero(F.any(axis=0)).tolist():
        out[:, M * k:M * k + x1, N * k:N * k + x2] += F[:, k, None, None] * x
    out[:, 0, 0] -= 1.0
    w = _weight_rows(alphas, max(n1, n2) - 1)
    return _norms2(out, w[:, :n1], w[:, :n2])


def restriction_margins(trials: int, seed: int) -> Margins:
    """Diagonal restriction contracts into the shifted-index space."""
    rng = _Stream(seed)
    alphas = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    betas = np.array([beta_of_alpha(a) for a in alphas])
    grids = _Draws(2, 10)
    for size in _blocks(trials):
        picks = []
        grids.clear()
        for _ in range(size):
            grids.draw(rng)
            picks.append(rng.integers(0, len(alphas)))
        f = grids.stack()
        g = _diag_restrict(f)
        lhs = _norms1(g, _weight_rows(betas[picks], g.shape[-1] - 1))
        n1, n2 = f.shape[1:]
        w = _weight_rows(alphas[picks], max(n1, n2) - 1)
        rhs = _norms2(f, w[:, :n1], w[:, :n2])
        yield rhs - lhs, _REL_SLACK * rhs


def separable_margins(trials: int, seed: int) -> Margins:
    """Norm of a product series factors into the one-variable norms."""
    rng = _Stream(seed)
    gs, hs = _Draws(1, 12), _Draws(1, 12)
    for size in _blocks(trials):
        alphas = np.empty(size)
        gs.clear()
        hs.clear()
        for i in range(size):
            gs.draw(rng)
            hs.draw(rng)
            alphas[i] = rng.uniform(-2.0, 2.0)
        g, h = gs.stack(), hs.stack()
        w = _weight_rows(alphas, max(g.shape[1], h.shape[1]) - 1)
        lhs = np.array([_norms2(_separable(gi[:m], hi[:n]), wi[:m], wi[:n])
                        for gi, hi, wi, (m,), (n,) in zip(g, h, w, gs.shapes, hs.shapes)])
        rhs = _norms1(g, w[:, :g.shape[1]]) * _norms1(h, w[:, :h.shape[1]])
        yield -np.abs(lhs - rhs), 1e-12 * np.maximum(rhs, 1e-300)


def polyextraction_margins(trials: int, seed: int) -> Margins:
    """Projecting a competitor onto the pattern cannot increase the residual."""
    rng = _Stream(seed)
    Fs, rs = _Draws(1, 6), _Draws(2, 8)
    for size in _blocks(trials):
        groups: Dict[Tuple[int, int], List[int]] = {}
        alphas = np.empty(size)
        Fs.clear()
        rs.clear()
        for i in range(size):
            groups.setdefault((rng.integers(1, 4), rng.integers(1, 4)), []).append(i)
            Fs.draw(rng)
            rs.draw(rng)
            alphas[i] = rng.uniform(-1.5, 1.5)
        margin, slack = np.empty(size), np.empty(size)
        for (M, N), idx in groups.items():
            pat, F, r = DiagonalPattern(M, N), Fs.stack(idx), rs.stack(idx)
            # the residuals r f - 1 and s f - 1, s the projection of r
            lhs = _residual_norms(F, r, pat, alphas[idx])
            rhs = _residual_norms(F, _diagonal_project(r, pat), pat, alphas[idx])
            margin[idx] = lhs - rhs
            slack[idx] = _REL_SLACK * np.maximum(lhs, 1.0)
        yield margin, slack


def comparison_margins(trials: int, seed: int) -> Margins:
    """Two-sided comparison with the closed-form constants, all patterns in {1,2,3}^2."""
    rng = _Stream(seed)
    patterns = [DiagonalPattern(M, N) for M in (1, 2, 3) for N in (1, 2, 3)]
    t = 0
    Fs = _Draws(1, 10)
    for size in _blocks(trials):
        pats, alphas = [], np.empty(size)
        Fs.clear()
        for i in range(size):
            pats.append(patterns[t % len(patterns)])
            t += 1
            Fs.draw(rng)
            alphas[i] = rng.uniform(-2.0, 2.0)
        # the restriction of a lift is the row drawn: R is the stack of the rows
        R = Fs.stack()
        # the largest lifted grid is (3 deg + 1) square
        w = _weight_rows(alphas, 3 * R.shape[1] - 3)
        mid, c1, c2 = np.empty(size), np.empty(size), np.empty(size)
        for i, (pat, alpha, F, (n,)) in enumerate(zip(pats, alphas.tolist(), R, Fs.shapes)):
            f = _lift(F[:n], pat)
            mid[i] = _norms2(f, w[i, : f.shape[0]], w[i, : f.shape[1]])
            c1[i], c2[i] = _comparison_pair(alpha, pat.M, pat.N)
        base = _norms1(R, _weight_rows(2.0 * alphas, R.shape[1] - 1))
        yield np.minimum(mid - c2 * base, c1 * base - mid), _REL_SLACK * np.maximum(mid, 1.0)


def slice_margins(trials: int, seed: int) -> Margins:
    """Slice norms are controlled by the kernel norm at the slice point."""
    rng = _Stream(seed)
    grids = _Draws(2, 10)
    for size in _blocks(trials):
        grids.clear()
        alpha, radius, angle = np.empty(size), np.empty(size), np.empty(size)
        fix = np.empty(size, dtype=int)
        for i in range(size):
            grids.draw(rng)
            alpha[i] = rng.uniform(-1.5, 1.5)
            radius[i] = rng.uniform(0.0, 0.9)
            angle[i] = rng.uniform(0.0, 2.0 * np.pi)
            fix[i] = 2 if rng.integers(0, 2) else 1
        w = radius * np.exp(1j * angle)
        f = grids.stack()
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


def available_suites() -> List[str]:
    return list(_MARGINS)


def run_suite(name: str, trials: int = 500, seed: int = 7) -> SuiteResult:
    if name not in _MARGINS:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(_MARGINS)}")
    trials, seed = _as_int(trials, f"trials={trials!r}"), _as_int(seed, f"seed={seed!r}")
    if trials < 1:
        raise InputError(f"a suite needs at least one trial (got trials={trials})")
    if seed < 0:
        raise ArgumentError(f"the seed must be nonnegative (got seed={seed})")
    violations, worst = 0, 0.0
    for margin, slack in _MARGINS[name](trials, seed):
        violations += int(np.count_nonzero(margin < -slack))
        worst = min(worst, float(margin.min()))
    return SuiteResult(name, trials, violations, worst)
