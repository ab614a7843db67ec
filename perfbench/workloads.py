"""The three workloads: inputs built from a seed, their jobs, and the oracle checks.

A workload is a fixed list of jobs.  Each job is a call into public
``bidisk`` entry points, timed, and a check of its output, untimed, run
before the next job starts so no output outlives its job.  One
operation is one sampled order of a scan, one fit-and-verdict of a scan, or
one CLI command.  An operation fails when the library raises a
``BidiskError``, a CLI command exits nonzero, a certificate exceeds its
tolerance, or a value leaves the oracle tolerance.

Oracles are independent of the library's solver:

* ``1 - z1^M z2^N`` on a diagonal basis, and ``one_minus_z1`` on the
  one-variable basis: weighted Lagrange closed form
  ``1 / sum_{k <= m+1} ((Mk+1)(Nk+1))^(-alpha)`` with ``m = n // max(M, N)``;
* separable ``g(z1) h(z2)``: ``1 - (1 - d_g)(1 - d_h)``, with ``d_g`` and
  ``d_h`` from a one-variable least-squares solve (SVD) written here, or from
  the closed form for ``1 - z``.  It is evaluated as ``d_g + d_h - d_g d_h``:
  ``tests/oracles.separable_dist_sq`` forms ``1 - (1 - d_g)(1 - d_h)``
  literally, which cancels to ~1e-7 relative error once the distance nears
  1e-9, as it does for random factors whose zeros lie well outside the disk;
* the energy of ``diagonal_current``: ``1 + 0.5 * sum_{k <= K} 1/k^2``;
* residuals of returned coefficients: recomputed by direct 2-D convolution.

The closed forms that ``tests/oracles.py`` already has are imported from it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from oracles import onevar_one_minus_z_dist_sq  # tests/oracles.py
from bidisk import analysis, catalog, cli
from bidisk.errors import BidiskError
from bidisk.series import DiagonalPattern, TwoVarSeries

# Relative tolerance of every oracle comparison; the scans here agree with
# their oracles to about 1e-14.
RTOL = 1e-9
# Certificate tolerance the library applies by default: 1e-8 * ||f||^2.
CERT_REL = 1e-8
# A pairing below this certifies annihilation at rounding level.
ANNIHILATION_TOL = 1e-12


class Tally:
    """Operations attempted and failed, with the worst oracle error and certificate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rel_err_max = 0.0
        self.cert_ratio_max = 0.0
        self.failures = []

    def close(self, got, want, what, problems):
        rel = abs(got - want) / abs(want) if want else abs(got)
        self.rel_err_max = max(self.rel_err_max, rel)
        if not rel <= RTOL:
            problems.append(f"{what}: got {got!r}, oracle {want!r} (rel {rel:.2e})")

    def cert(self, ratio, what, problems):
        self.cert_ratio_max = max(self.cert_ratio_max, ratio)
        if not ratio <= 1.0:
            problems.append(f"{what}: certificate at {ratio:.3g} of tolerance")

    def op(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {'; '.join(problems)}")


# ---------------------------------------------------------------- oracles


def weights(alpha, size):
    return np.arange(1.0, size + 1.0) ** alpha


def norm_sq(grid, alpha):
    grid = np.atleast_2d(grid)
    w = np.outer(weights(alpha, grid.shape[0]), weights(alpha, grid.shape[1]))
    return float(np.sum(w * np.abs(grid) ** 2))


def residual_sq(p_grid, f_grid, alpha):
    """``||p f - 1||^2`` by direct convolution of the coefficient grids."""
    p_grid, f_grid = np.atleast_2d(p_grid), np.atleast_2d(f_grid)
    r = np.zeros(np.add(p_grid.shape, f_grid.shape) - 1, dtype=np.complex128)
    for (i, j), c in np.ndenumerate(f_grid):
        r[i : i + p_grid.shape[0], j : j + p_grid.shape[1]] += c * p_grid
    r[0, 0] -= 1.0
    return norm_sq(r, alpha)


def pattern_dist_sq(alpha, n, *, M, N):
    """Closed form for ``1 - z1^M z2^N`` on the order-``n`` diagonal basis."""
    k = np.arange(n // max(M, N) + 2, dtype=float)
    return float(1.0 / np.sum(((M * k + 1.0) * (N * k + 1.0)) ** (-alpha)))


def onevar_dist_sq(g, alpha, n):
    """``dist^2`` of ``g`` against degree-``n`` polynomials, by least squares."""
    L = len(g)
    sw = np.sqrt(weights(alpha, n + L))
    A = np.zeros((n + L, n + 1), dtype=np.complex128)
    for k in range(n + 1):
        A[k : k + L, k] = g * sw[k : k + L]
    b = np.zeros(n + L, dtype=np.complex128)
    b[0] = 1.0
    c = np.linalg.lstsq(A, b, rcond=None)[0]
    return float(np.sum(np.abs(A @ c - b) ** 2))


def random_quadratic(rng):
    """``(1 - z/z1)(1 - z/z2)`` with zeros of modulus in [1, 1.5]."""
    roots = rng.uniform(1.0, 1.5, 2) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 2))
    return np.array([1.0, -(1 / roots[0] + 1 / roots[1]), 1 / (roots[0] * roots[1])])


def random_product(seed):
    rng = np.random.default_rng(seed)
    return random_quadratic(rng), random_quadratic(rng)


def separable_dist_sq(d_g, d_h):
    return d_g + d_h - d_g * d_h


def product_dist_sq(g, h, alpha, n):
    return separable_dist_sq(onevar_dist_sq(g, alpha, n), onevar_dist_sq(h, alpha, n))


def product_one_minus_dist_sq(alpha, n):
    d = onevar_one_minus_z_dist_sq(alpha, n)
    return separable_dist_sq(d, d)


# ---------------------------------------------------------------- scans


def expected_verdicts(family, alpha):
    """Verdicts the sharp theory allows for a finite window."""
    critical = 0.5 if family == "diagonal" else 1.0
    if alpha < critical:
        return {"decaying"}
    if alpha == critical:
        return {"decaying", "inconclusive"}
    return {"plateau"}


@dataclass
class Scan:
    label: str
    f: TwoVarSeries
    alpha: float
    ns: list
    basis: str
    pattern: Optional[DiagonalPattern]
    family: str
    oracle_fn: Callable[[int], float]
    oracle: Optional[list] = None

    def __post_init__(self):
        self.fnorm_sq = norm_sq(self.f.coeffs, self.alpha)

    def run(self):
        try:
            ds = analysis.decay_scan(self.f, self.alpha, self.ns, basis=self.basis,
                                     pattern=self.pattern)
        except BidiskError as exc:
            return exc, None
        try:
            fits = (analysis.fit_power(ds), analysis.fit_log_mode(ds),
                    analysis.cyclicity_verdict(ds))
        except BidiskError as exc:
            fits = exc
        return ds, fits

    def check(self, output, tally):
        ds, fits = output
        what = f"{self.label} alpha={self.alpha}"
        if isinstance(ds, BidiskError):
            reason = f"{type(ds).__name__}: {ds}"
        elif list(ds.ns) != self.ns:
            reason = f"orders {list(ds.ns)}"
        else:
            reason = None
        if reason:
            for n in self.ns:
                tally.op([reason], f"{what} n={n}")
            tally.op(["scan failed"], f"{what} fit")
            return
        tol = CERT_REL * self.fnorm_sq
        for (n, value), result, want in zip(ds.points, ds.results, self.oracle):
            problems = []
            tally.close(value, want, "dist_sq", problems)
            tally.cert(result.ortho_residual / tol, "orthogonality", problems)
            tally.op(problems, f"{what} n={n}")
        problems = []
        if isinstance(fits, BidiskError):
            problems.append(f"{type(fits).__name__}: {fits}")
        elif fits[2].verdict not in expected_verdicts(self.family, self.alpha):
            problems.append(f"verdict {fits[2].verdict!r}")
        tally.op(problems, f"{what} fit")


class ScanWorkload:
    def __init__(self, scans):
        self.scans = scans

    def prepare_oracles(self):
        for s in self.scans:
            s.oracle = [s.oracle_fn(n) for n in s.ns]

    def jobs(self):
        return [(s.run, s.check) for s in self.scans]

    def corrupt_oracle(self):
        self.scans[0].oracle[-1] *= 1.0 + 1e-6


def full_scan(seed, small):
    ns = list(range(3, 25, 3)) if small else list(range(4, 37, 4))
    one_minus = catalog.builtin_series("product_one_minus").series
    # One alpha per series keeps a pass near 5 s, so every scan is timed
    # several times in a run; more alphas take the same code path.
    scans = [Scan("product_one_minus", one_minus, 0.5, ns, "full", None, "separable",
                  partial(product_one_minus_dist_sq, 0.5))]
    g, h = random_product(seed)
    scans.append(Scan("random_product", TwoVarSeries(np.outer(g, h)), 0.0, ns, "full", None,
                      "separable", partial(product_dist_sq, g, h, 0.0)))
    return ScanWorkload(scans)


def reduced_scan(seed, small):
    diag_ns = list(range(25, 201, 25)) if small else list(range(50, 601, 50))
    pow_ns = list(range(30, 241, 30)) if small else list(range(30, 481, 30))
    z1z2 = catalog.builtin_series("one_minus_z1z2").series
    z1 = catalog.builtin_series("one_minus_z1").series
    pow23 = catalog.builtin_series("one_minus_pow", M=2, N=3).series
    # 1 - z1 z2 on the (1,1) pattern is 1 - z at doubled alpha.  The alphas
    # give the decaying, logarithmic and plateau regimes (diagonal) and the
    # decaying and critical ones (one-variable), and keep a pass near 7 s.
    scans = [Scan("one_minus_z1z2", z1z2, a, diag_ns, "diagonal", DiagonalPattern(1, 1),
                  "diagonal", partial(onevar_one_minus_z_dist_sq, 2.0 * a))
             for a in (0.0, 0.5, 1.0)]
    scans += [Scan("one_minus_z1", z1, a, diag_ns, "onevar", None, "onevar",
                   partial(onevar_one_minus_z_dist_sq, a)) for a in (0.0, 1.0)]
    scans.append(Scan("one_minus_pow(2,3)", pow23, 0.0, pow_ns, "diagonal",
                      DiagonalPattern(2, 3), "diagonal", partial(pattern_dist_sq, 0.0, M=2, N=3)))
    # The seed only orders the scans; every input is a fixed builtin.
    order = np.random.default_rng(seed).permutation(len(scans))
    return ScanWorkload([scans[i] for i in order])


# ---------------------------------------------------------------- CLI batch


def run_command(argv):
    """Exit code, stdout and stderr of one ``bidisk`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_command(argv, checker, output, tally):
    code, out, err = output
    problems = []
    if code != 0:
        problems.append(f"exit {code}: {err.strip()}")
    else:
        try:
            checker(out, tally, problems)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    tally.op(problems, " ".join(argv[:3]))


def _json_grid(payload):
    deg = payload["coefficients"]["deg"]
    flat = [complex(re, im) for re, im in payload["coefficients"]["coeffs"]]
    return np.array(flat).reshape(deg[0] + 1, deg[1] + 1)


def _decay_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["n", "dist_sq", "predicted", "ratio"]:
        raise ValueError(f"bad CSV header {rows[:1]!r}")
    return rows[1:]


class CliBatch:
    """A fixed list of ``bidisk`` commands, each run through ``cli.main``."""

    def __init__(self, seed, small, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.g, self.h = random_product(seed)
        self.grid = np.outer(self.g, self.h)
        series_file = out_dir / f"series-{seed}.json"
        series_file.write_text(json.dumps({
            "deg": [2, 2],
            "coeffs": [[c.real, c.imag] for c in self.grid.reshape(-1)],
        }))
        self.scan_csv = out_dir / "scan.csv"
        trials = "50" if small else "500"
        maxdeg = "40" if small else "200"
        d = "builtin:one_minus_z1z2"
        sf = str(series_file)
        self.commands = [
            # the README examples; its full-basis decay stops at --nmax 16
            (["norm", "--series", d, "--alpha", "0"], self._norm_builtin),
            (["approx", "--series", d, "--alpha", "0", "--n", "1", "--method", "optimal",
              "--basis", "full"], self._approx_builtin),
            (["decay", "--series", d, "--alpha", "0", "--nmin", "1", "--nmax", "10",
              "--basis", "diag:1,1"], self._decay_diag),
            (["decay", "--series", "builtin:product_one_minus", "--alpha", "0.5", "--nmin", "4",
              "--nmax", "16", "--step", "4", "--basis", "full", "--out", str(self.scan_csv)],
             self._decay_product),
            (["energy", "--measure", "builtin:diagonal_current", "--K", "1000"], self._energy),
            (["annihilate", "--series", d, "--measure", "builtin:diagonal_current",
              "--maxdeg", "8"], self._annihilate),
            (["verify", "--suite", "restriction", "--trials", "500", "--seed", "7"],
             self._verify),
            (["verify", "--suite", "all", "--trials", "500", "--seed", "7"], self._verify),
            # explicit constructions
            (["approx", "--series", d, "--alpha", "0.5", "--n", "30", "--method", "riesz",
              "--basis", "full"], self._riesz),
            (["approx", "--series", "builtin:product_one_minus", "--alpha", "0", "--n", "30",
              "--method", "cesaro", "--basis", "full"], self._cesaro),
            (["annihilate", "--series", d, "--measure", "builtin:diagonal_current",
              "--maxdeg", maxdeg], self._annihilate),
            # the seeded series file
            (["norm", "--series", sf, "--alpha", "0.5"], self._norm_file),
            (["approx", "--series", sf, "--alpha", "0", "--n", "8", "--basis", "full"],
             self._approx_file),
            (["decay", "--series", sf, "--alpha", "0", "--nmin", "2", "--nmax", "12",
              "--step", "2", "--basis", "full"], self._decay_file),
            (["verify", "--suite", "all", "--trials", trials, "--seed", str(seed)],
             self._verify),
        ]
        self.oracle = {}

    def prepare_oracles(self):
        o = self.oracle
        # 1 - z1 z2 at alpha 0 is 1 - z at 2 * 0 = 0 (diagonal basis or full)
        o["approx_builtin"] = onevar_one_minus_z_dist_sq(0.0, 1)
        o["decay_diag"] = [onevar_one_minus_z_dist_sq(0.0, n) for n in range(1, 11)]
        o["decay_product"] = [product_one_minus_dist_sq(0.5, n) for n in range(4, 17, 4)]
        k = np.arange(1.0, 1001.0)
        o["energy_interior"] = 0.5 * float(np.sum(1.0 / k**2))
        o["riesz_floor"] = onevar_one_minus_z_dist_sq(1.0, 30)
        o["cesaro_floor"] = product_one_minus_dist_sq(0.0, 30)
        o["norm_file"] = norm_sq(self.grid, 0.5) ** 0.5
        o["approx_file"] = product_dist_sq(self.g, self.h, 0.0, 8)
        o["decay_file"] = [product_dist_sq(self.g, self.h, 0.0, n) for n in range(2, 13, 2)]

    def corrupt_oracle(self):
        self.oracle["approx_builtin"] *= 1.0 + 1e-6

    def jobs(self):
        return [(partial(run_command, argv), partial(check_command, argv, checker))
                for argv, checker in self.commands]

    # -- checkers: each reads one command's stdout

    def _norm_builtin(self, out, tally, problems):
        tally.close(json.loads(out)["norm"], 2.0**0.5, "norm", problems)

    def _norm_file(self, out, tally, problems):
        tally.close(json.loads(out)["norm"], self.oracle["norm_file"], "norm", problems)

    def _approx(self, payload, f_grid, alpha, want, tally, problems):
        tally.close(payload["residual_sq"], want, "residual_sq", problems)
        p = _json_grid(payload)
        tally.close(residual_sq(p, f_grid, alpha), payload["residual_sq"], "recomputed",
                    problems)
        if payload["ortho_residual"] is not None:
            tol = CERT_REL * norm_sq(f_grid, alpha)
            tally.cert(payload["ortho_residual"] / tol, "orthogonality", problems)

    def _approx_builtin(self, out, tally, problems):
        self._approx(json.loads(out), np.array([[1.0, 0.0], [0.0, -1.0]]), 0.0,
                     self.oracle["approx_builtin"], tally, problems)

    def _approx_file(self, out, tally, problems):
        self._approx(json.loads(out), self.grid, 0.0, self.oracle["approx_file"], tally,
                     problems)

    def _rows(self, rows, ns, want, exponent, tally, problems):
        if [int(r[0]) for r in rows] != list(ns):
            problems.append(f"orders {[r[0] for r in rows]}")
            return
        for (n, value, predicted, ratio), w, order in zip(rows, want, ns):
            tally.close(float(value), w, f"dist_sq n={order}", problems)
            if exponent is None:
                if predicted or ratio:
                    problems.append(f"n={order}: predicted {predicted!r} for an unknown family")
                continue
            p = (order + 1.0) ** exponent
            tally.close(float(predicted), p, f"predicted n={order}", problems)
            tally.close(float(ratio), float(value) / p, f"ratio n={order}", problems)

    def _decay_diag(self, out, tally, problems):
        self._rows(_decay_rows(out), range(1, 11), self.oracle["decay_diag"], -1.0, tally,
                   problems)

    def _decay_product(self, out, tally, problems):
        self._rows(_decay_rows(self.scan_csv.read_text()), range(4, 17, 4),
                   self.oracle["decay_product"], -0.5, tally, problems)

    def _decay_file(self, out, tally, problems):
        self._rows(_decay_rows(out), range(2, 13, 2), self.oracle["decay_file"], None, tally,
                   problems)

    def _energy(self, out, tally, problems):
        payload = json.loads(out)
        tally.close(payload["interior"], self.oracle["energy_interior"], "interior", problems)
        tally.close(payload["partial"], 1.0 + self.oracle["energy_interior"], "partial",
                    problems)
        if payload["constant"] != 1.0 or payload["axis1"] != 0.0 or payload["axis2"] != 0.0:
            problems.append("constant or axis terms off their closed form")

    def _annihilate(self, out, tally, problems):
        value = json.loads(out)["max_abs_pairing"]
        if not value <= ANNIHILATION_TOL:
            problems.append(f"pairing {value!r} above rounding level")

    def _verify(self, out, tally, problems):
        lines = out.strip().splitlines()
        if not lines or any(": PASS " not in line for line in lines):
            problems.append(f"suite output {out.strip()!r}")

    def _explicit(self, out, f_grid, alpha, coeffs, floor, tally, problems):
        payload = json.loads(out)
        p = _json_grid(payload)
        if p.shape != coeffs.shape or not np.allclose(p, coeffs, rtol=RTOL, atol=RTOL):
            problems.append("coefficients differ from the closed-form weights")
        res = payload["residual_sq"]
        tally.close(residual_sq(p, f_grid, alpha), res, "recomputed", problems)
        if not res >= floor * (1.0 - RTOL):
            problems.append(f"residual {res!r} below the optimum {floor!r}")

    def _riesz(self, out, tally, problems):
        # 1/(1 - z1 z2) = sum (z1 z2)^k; Riesz weights 1 - phi(k)/phi(n+1), phi(s) = sqrt(s)
        n = 30
        k = np.arange(n + 1.0)
        coeffs = np.diag(1.0 - np.sqrt(k) / np.sqrt(n + 1.0)).astype(complex)
        self._explicit(out, np.array([[1.0, 0.0], [0.0, -1.0]]), 0.5, coeffs,
                       self.oracle["riesz_floor"], tally, problems)

    def _cesaro(self, out, tally, problems):
        # 1/((1 - z1)(1 - z2)) has all coefficients 1; Cesaro weights (n+1-max(k,l))/(n+1)
        n = 30
        idx = np.arange(n + 1)
        coeffs = ((n + 1.0 - np.maximum.outer(idx, idx)) / (n + 1.0)).astype(complex)
        self._explicit(out, np.array([[1.0, -1.0], [-1.0, 1.0]]), 0.0, coeffs,
                       self.oracle["cesaro_floor"], tally, problems)


def build(name, seed, small, out_dir):
    if name == "full_scan":
        return full_scan(seed, small)
    if name == "reduced_scan":
        return reduced_scan(seed, small)
    if name == "cli_batch":
        return CliBatch(seed, small, out_dir)
    raise ValueError(f"unknown workload {name!r}")
