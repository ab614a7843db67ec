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
"""

from __future__ import annotations

import numpy as np

from bidisk.series import OneVarSeries, TwoVarSeries, constant2, monomial2, multiply2
from bidisk.spaces import inner2


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
