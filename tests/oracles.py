"""Independent oracles the solver is checked against.

These deliberately avoid the library's shifted-accumulation Gram assembly:
the brute-force oracle builds each basis multiple as an explicit monomial
product and forms every inner product pairwise, then solves with plain
``numpy.linalg.solve``.  The closed forms below are derived independently:

* ``f = 1 - z`` in the one-variable space at parameter ``a``: writing
  ``p f - 1`` in terms of its coefficient increments ``d_k`` gives the
  constraint ``sum d_k = -1`` with energy ``sum (k+1)^a |d_k|^2``, minimized
  by Lagrange at ``dist^2 = 1 / sum_{k=0}^{n+1} (k+1)^(-a)``.
* separable ``f = g(z1) h(z2)``: the Gram matrix of the square basis is the
  Kronecker product of the one-variable Gram matrices and the right-hand
  side factors, so ``dist^2 = 1 - (1 - dist_g^2)(1 - dist_h^2)``, evaluated
  as ``dist_g^2 + dist_h^2 - dist_g^2 dist_h^2`` to avoid cancellation when
  both distances are small.

``reference_gram_band`` is the band assembly by position lookup that the
library's lattice assembly replaced; it is kept to pin the new assembly bit
for bit.  ``reference_suite_margins`` is the per-trial loop of each
randomized suite, one ``Series`` at a time, that the block evaluation of
``bidisk.suites`` replaced.
"""

from __future__ import annotations

import numpy as np

from bidisk.series import (
    DiagonalPattern,
    OneVarSeries,
    TwoVarSeries,
    constant2,
    diag_restrict,
    diagonal_project,
    lift,
    monomial2,
    multiply2,
    restrict,
    separable,
    slice_series,
)
from bidisk.spaces import (
    PatternWeight,
    as_alpha,
    beta_of_alpha,
    comparison_constants,
    inner2,
    kernel_norm_sq,
    norm1,
    norm2,
)


def brute_gram_dist_sq(f: TwoVarSeries, alpha: float, indices) -> tuple[float, np.ndarray]:
    """Naive normal equations: explicit products, pairwise inner products."""
    mults = [multiply2(monomial2(k, l), f) for (k, l) in indices]
    B = len(indices)
    G = np.zeros((B, B), dtype=np.complex128)
    for i in range(B):
        for j in range(B):
            G[i, j] = inner2(mults[j], mults[i], alpha)
    one = constant2(1.0)
    rhs = np.array([inner2(one, m, alpha) for m in mults])
    c = np.linalg.solve(G, rhs)
    dist_sq = 1.0 - float(np.vdot(rhs, c).real)
    return dist_sq, c


def reference_gram_band(f, a, basis) -> tuple[np.ndarray, np.ndarray]:
    """Upper band of ``G`` and the right-hand side, placed through a position lookup.

    ``a`` is a space parameter or a ``PatternWeight``; ``basis`` a
    ``BasisSpec``.  For every pair of nonzero coefficients ``f[p]``,
    ``f[q]``, each basis monomial ``m_j`` is looked up at ``m_j + p - q``;
    the hits with ``i <= j`` receive ``f[p] w(m_j + p) conj(f[q])``, and the
    entries are scattered into the band in pair order.  A one-variable ``f``
    has no second variable, so its weight ``w(k)`` is the first factor alone.
    """
    aw = a if isinstance(a, PatternWeight) else as_alpha(a)
    if isinstance(f, OneVarSeries):
        grid = f.coeffs[:, None]
        e = np.asarray(basis.indices1(), dtype=np.intp)
        e = np.column_stack((e, np.zeros_like(e)))
    else:
        grid = f.coeffs
        e = np.asarray(basis.indices2(), dtype=np.intp).reshape(-1, 2)
    F1, F2 = grid.shape
    ks, ls = e[:, 0], e[:, 1]
    kmax, lmax = int(ks.max()), int(ls.max())
    size = len(e)
    w1 = aw.weights(kmax + F1 - 1)
    w2 = aw.weights(lmax + F2 - 1)
    # lookup[k + F1 - 1, l + F2 - 1] is the position of (k, l) in the basis, -1 if absent
    lookup = np.full((kmax + 2 * F1 - 1, lmax + 2 * F2 - 1), -1, dtype=np.intp)
    lookup[ks + F1 - 1, ls + F2 - 1] = np.arange(size)
    cols = np.arange(size)
    nonzero = np.argwhere(grid)
    entries = []
    onevar = isinstance(f, OneVarSeries)
    for p1, p2 in nonzero:
        weighted = grid[p1, p2] * w1[ks + p1]
        if not onevar:
            weighted = weighted * w2[ls + p2]
        for q1, q2 in nonzero:
            rows = lookup[ks + (p1 - q1 + F1 - 1), ls + (p2 - q2 + F2 - 1)]
            keep = (rows >= 0) & (rows <= cols)
            entries.append((rows[keep], cols[keep], weighted[keep] * np.conj(grid[q1, q2])))
    u = max(int(np.max(j - i, initial=0)) for i, j, _ in entries)
    band = np.zeros((u + 1, size), dtype=np.complex128)
    for i, j, v in entries:
        band[u + i - j, j] += v
    band[u] = band[u].real
    rhs = np.zeros(size, dtype=np.complex128)
    constant = lookup[F1 - 1, F2 - 1]
    if constant >= 0:
        rhs[constant] = np.conj(grid[0, 0])
    return band, rhs


def onevar_one_minus_z_dist_sq(alpha: float, n: int) -> float:
    """Exact ``dist^2`` for ``1 - z`` against degree-``n`` polynomials."""
    k = np.arange(n + 2, dtype=float)
    return float(1.0 / np.sum((k + 1.0) ** (-alpha)))


def separable_dist_sq(alpha: float, n: int,
                      dist_g_sq: float | None = None,
                      dist_h_sq: float | None = None) -> float:
    """Kronecker-factorization value for products of one-variable functions.

    Defaults to both factors equal to ``1 - z``.
    """
    if dist_g_sq is None:
        dist_g_sq = onevar_one_minus_z_dist_sq(alpha, n)
    if dist_h_sq is None:
        dist_h_sq = onevar_one_minus_z_dist_sq(alpha, n)
    return dist_g_sq + dist_h_sq - dist_g_sq * dist_h_sq


def random_two_var(rng: np.random.Generator, max_deg: int = 8,
                   min_const: float = 0.0) -> TwoVarSeries:
    """Random dense series; optionally force ``|a00| >= min_const``."""
    d1 = int(rng.integers(0, max_deg + 1))
    d2 = int(rng.integers(0, max_deg + 1))
    grid = rng.standard_normal((d1 + 1, d2 + 1)) + 1j * rng.standard_normal((d1 + 1, d2 + 1))
    if min_const > 0.0 and abs(grid[0, 0]) < min_const:
        grid[0, 0] = min_const * (1.0 + abs(grid[0, 0]))
    return TwoVarSeries(grid)


def random_one_var(rng: np.random.Generator, max_deg: int = 12) -> OneVarSeries:
    d = int(rng.integers(0, max_deg + 1))
    return OneVarSeries(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))


def random_invertible(rng: np.random.Generator, max_deg: int = 5) -> TwoVarSeries:
    """Random series with ``|a00| >= 0.5`` dominating the remaining mass.

    Keeps the reciprocal recurrence in its stable regime so rounding does
    not amplify geometrically.
    """
    d1 = int(rng.integers(0, max_deg + 1))
    d2 = int(rng.integers(0, max_deg + 1))
    grid = rng.standard_normal((d1 + 1, d2 + 1)) + 1j * rng.standard_normal((d1 + 1, d2 + 1))
    a00 = float(rng.uniform(0.5, 2.0)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    grid[0, 0] = 0.0
    tail = np.abs(grid).sum()
    if tail > 0:
        grid *= 0.9 * abs(a00) / tail
    grid[0, 0] = a00
    return TwoVarSeries(grid)


def _trial_restriction(rng, t):
    f = random_two_var(rng, max_deg=10)
    g = diag_restrict(f)
    alpha = (-2.0, -1.0, 0.0, 1.0, 2.0)[int(rng.integers(0, 5))]
    lhs = norm1(g, beta_of_alpha(alpha))
    rhs = norm2(f, alpha)
    return rhs - lhs, rhs, rhs - lhs < -1e-9 * rhs


def _trial_separable(rng, t):
    g = random_one_var(rng)
    h = random_one_var(rng)
    alpha = float(rng.uniform(-2.0, 2.0))
    lhs = norm2(separable(g, h), alpha)
    rhs = norm1(g, alpha) * norm1(h, alpha)
    gap = abs(lhs - rhs)
    return -gap, rhs, gap > 1e-12 * max(rhs, 1e-300)


def _trial_polyextraction(rng, t):
    pat = DiagonalPattern(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    f = lift(random_one_var(rng, max_deg=6), pat)
    r = random_two_var(rng, max_deg=8)
    s = diagonal_project(r, pat)
    alpha = float(rng.uniform(-1.5, 1.5))
    lhs = norm2(multiply2(r, f) - 1.0, alpha)
    rhs = norm2(multiply2(s, f) - 1.0, alpha)
    return lhs - rhs, lhs, lhs - rhs < -1e-9 * max(lhs, 1.0)


_PATTERNS = [DiagonalPattern(M, N) for M in (1, 2, 3) for N in (1, 2, 3)]


def _trial_comparison(rng, t):
    pat = _PATTERNS[t % len(_PATTERNS)]
    f = lift(random_one_var(rng, max_deg=10), pat)
    alpha = float(rng.uniform(-2.0, 2.0))
    cc = comparison_constants(alpha, pat)
    mid = norm2(f, alpha)
    base = norm1(restrict(f, pat), 2.0 * alpha)
    margin = min(mid - cc.c2 * base, cc.c1 * base - mid)
    return margin, mid, margin < -1e-9 * max(mid, 1.0)


def _trial_slice(rng, t):
    f = random_two_var(rng, max_deg=10)
    alpha = float(rng.uniform(-1.5, 1.5))
    radius = float(rng.uniform(0.0, 0.9))
    angle = float(rng.uniform(0.0, 2.0 * np.pi))
    w = radius * np.exp(1j * angle)
    fix = "z2" if rng.integers(0, 2) else "z1"
    lhs = norm1(slice_series(f, fix, w), alpha)
    rhs = np.sqrt(kernel_norm_sq(alpha, w)) * norm2(f, alpha)
    return rhs - lhs, rhs, rhs - lhs < -1e-9 * max(rhs, 1.0)


def reference_suite_margins(name: str, trials: int, seed: int):
    """Per-trial margins, sides and violation flags of a suite, one trial at a time.

    Each trial draws its series and parameters from the seeded generator and
    checks its inequality through the ``Series``-level maps and norms.  The
    side is the norm the slack is relative to.
    """
    rng = np.random.default_rng(seed)
    trial = _TRIALS[name]
    rows = [trial(rng, t) for t in range(trials)]
    margins, sides, violated = (np.array(column) for column in zip(*rows))
    return margins, sides, violated


_TRIALS = {
    "restriction": _trial_restriction,
    "separable": _trial_separable,
    "polyextraction": _trial_polyextraction,
    "comparison": _trial_comparison,
    "slice": _trial_slice,
}
