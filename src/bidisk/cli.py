"""Batch command-line front end.

Subcommands: ``norm``, ``approx``, ``decay``, ``energy``, ``annihilate``,
``verify``.  Scalar and structured results are emitted as JSON, decay scans
as CSV with the fixed header ``n,dist_sq,predicted,ratio`` (``predicted``
empty when no theoretical rate applies).  Output is deterministic for fixed
inputs and seed.  Exit codes: 0 success, 2 input error, 3 numerical error.

:func:`main` parses with one parser per process, built by its first call
and reused by every later one: argparse keeps no state between parses, and
``--help`` reads the terminal width when it prints, not when the parser is
built.  A console-script run calls :func:`main` once, so it builds the
parser once, as it always did; in-process callers that run many commands
skip the rebuild.  :func:`build_parser` returns a fresh parser on each call,
which its caller may change without touching the one :func:`main` uses.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

import numpy as np

from . import analysis, approximants, capacity, suites
from .catalog import SeriesInfo, resolve_measure, resolve_series
from .errors import BidiskError, InputError, UnsupportedRateError
from .series import DiagonalPattern, _check_tolerance, is_diagonal
from .spaces import norm2

__all__ = ["main", "run", "build_parser"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_basis(token: str, n: int) -> approximants.BasisSpec:
    if token == "full":
        return approximants.BasisSpec.full(n)
    if token == "onevar":
        return approximants.BasisSpec.onevar(n)
    if token.startswith("diag:"):
        try:
            M, N = (int(v) for v in token[len("diag:") :].split(","))
        except ValueError as exc:
            raise InputError(f"use --basis diag:M,N with integers ({exc})")
        return approximants.BasisSpec.diagonal(n, DiagonalPattern(M, N))
    raise InputError(f"unknown basis {token!r}; use full, diag:M,N, or onevar")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _series_json(p) -> dict:
    grid = np.atleast_2d(p.coeffs)
    d1, d2 = grid.shape[0] - 1, grid.shape[1] - 1
    flat = grid.reshape(-1)
    return {
        "deg": [d1, d2],
        "coeffs": [[float(c.real), float(c.imag)] for c in flat],
    }


def cmd_norm(args) -> int:
    info = resolve_series(args.series)
    value = norm2(info.series, args.alpha)
    payload = {"series": info.label, "alpha": args.alpha, "norm": value}
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def _approximants(info: SeriesInfo, args, bases: List[approximants.BasisSpec]):
    """``(p, residual_sq, cond_estimate, ortho_residual)`` per basis of one kind, in order.

    The explicit methods build one reciprocal for all the bases and certify nothing.
    """
    f, kind = info.series, bases[0].kind
    if args.method == "optimal":
        for basis in bases:
            result = approximants.solve_optimal(f, args.alpha, basis, ortho_tol=args.tol_ortho)
            yield result.p, result.residual_sq, result.cond_estimate, result.ortho_residual
        return
    if args.method == "riesz" and kind == "onevar":
        raise InputError("--method riesz supports --basis full or diag:M,N")
    if args.method == "cesaro" and kind != "full":
        raise InputError("--method cesaro supports --basis full only")
    # the Cesaro mean is the alpha = 0 Riesz mean; on diag:M,N the order is that
    # of P in z1^M z2^N, the polynomial space of the optimal solve
    gauge = 0.0 if args.method == "cesaro" else args.alpha
    ns = [basis.lattice().A for basis in bases]
    for p in approximants.riesz_orders(f, gauge, ns, bases[0].pattern, eps0=args.tol_eps0):
        yield p, approximants.residual_norm_sq(p, f, args.alpha), None, None


def cmd_approx(args) -> int:
    info = resolve_series(args.series)
    p, res_sq, cond, ortho = next(_approximants(info, args, [_parse_basis(args.basis, args.n)]))
    payload = {
        "series": info.label,
        "alpha": args.alpha,
        "n": args.n,
        "method": args.method,
        "basis": args.basis,
        "coefficients": _series_json(p),
        "residual_sq": res_sq,
        "cond_estimate": cond,
        "ortho_residual": ortho,
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def _theory_for(info: SeriesInfo, alpha: float, basis: approximants.BasisSpec):
    """The family's rate where it holds: on the full basis, on ``diag:M,N`` for
    a series on that pattern, on ``onevar`` for the one-variable family."""
    if basis.kind == "diagonal":
        applies = is_diagonal(info.series, basis.pattern)
    else:
        applies = basis.kind == "full" or info.family == "onevar"
    if info.family is None or not applies:
        return None
    try:
        return analysis.predicted_rate(alpha, info.family)
    except UnsupportedRateError:
        return None


def cmd_decay(args) -> int:
    info = resolve_series(args.series)
    n_values = list(range(args.nmin, args.nmax + 1, args.step))
    if not n_values:
        raise InputError("empty order range; check --nmin/--nmax/--step")
    basis = _parse_basis(args.basis, n_values[0])
    if args.method == "optimal":
        values = analysis.decay_scan(info.series, args.alpha, n_values, basis=basis.kind,
                                     pattern=basis.pattern, ortho_tol=args.tol_ortho).values
    else:
        bases = [_parse_basis(args.basis, n) for n in n_values]
        values = [res_sq for _, res_sq, _, _ in _approximants(info, args, bases)]
    theory = _theory_for(info, args.alpha, basis)
    lines = ["n,dist_sq,predicted,ratio"]
    for n, v in zip(n_values, values):
        predicted = theory.predicted_value(n) if theory is not None else None
        rate = ",," if predicted is None else f",{_fmt(predicted)},{_fmt(v / predicted)}"
        lines.append(f"{n},{_fmt(v)}{rate}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_energy(args) -> int:
    mu = resolve_measure(args.measure, args.K)
    report = capacity.energy(mu, args.K)
    payload = {
        "measure": args.measure,
        "K": report.K,
        "constant": report.constant,
        "axis1": report.axis1,
        "axis2": report.axis2,
        "interior": report.interior,
        "partial": report.partial,
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def cmd_annihilate(args) -> int:
    info = resolve_series(args.series)
    # a negative --maxdeg is refused by the check itself
    needed = max(args.maxdeg, 0) + max(info.series.deg1, info.series.deg2)
    mu = resolve_measure(args.measure, needed)
    value = capacity.annihilation_check(info.series, mu, args.maxdeg)
    payload = {
        "series": info.label,
        "measure": args.measure,
        "maxdeg": args.maxdeg,
        "max_abs_pairing": value,
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    names = suites.available_suites() if args.suite == "all" else [args.suite]
    for name in names:
        if name not in suites.available_suites():
            raise InputError(
                f"unknown suite {name!r}; available: {', '.join(suites.available_suites())}, all"
            )
    lines = []
    all_passed = True
    for name in names:
        result = suites.run_suite(name, trials=args.trials, seed=args.seed)
        status = "PASS" if result.passed else "FAIL"
        lines.append(
            f"suite {name}: {status} (trials={result.trials}, "
            f"violations={result.violations}, worst_margin={result.worst:.3e})"
        )
        all_passed &= result.passed
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bidisk",
        description="Optimal approximants, decay rates, and energies on the bidisk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, series=False, measure=False, alpha=False, out=True):
        if series:
            p.add_argument("--series", required=True, help="builtin:name[:params] or JSON file")
        if measure:
            p.add_argument("--measure", required=True, help="builtin:name or JSON file")
        if alpha:
            p.add_argument("--alpha", type=float, required=True, help="space parameter")
        if out:
            p.add_argument("--out", help="write output to this file instead of stdout")

    def add_solver(p):
        p.add_argument("--basis", default="full", help="full | diag:M,N | onevar")
        p.add_argument("--method", default="optimal", choices=["optimal", "riesz", "cesaro"])
        p.add_argument("--tol-eps0", dest="tol_eps0", type=float, default=1e-12,
                       help="reciprocal admissibility threshold on |a00|; "
                            "read by --method riesz and cesaro only")
        p.add_argument("--tol-ortho", dest="tol_ortho", type=float, default=None,
                       help="absolute orthogonality-certificate tolerance "
                            "(default 1e-8 * ||f||^2); read by --method optimal only")

    p = sub.add_parser("norm", help="weighted norm of a series")
    add_common(p, series=True, alpha=True)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("approx", help="approximant of one order")
    add_common(p, series=True, alpha=True)
    p.add_argument("--n", type=int, required=True, help="approximant order")
    add_solver(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("decay", help="scan residuals over a range of orders (CSV)")
    add_common(p, series=True, alpha=True)
    p.add_argument("--nmin", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    add_solver(p)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("energy", help="partial logarithmic energy of a measure")
    add_common(p, measure=True)
    p.add_argument("--K", type=int, required=True, help="frequency cutoff")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("annihilate", help="max pairing of shifted multiples with the Cauchy transform")
    add_common(p, series=True, measure=True)
    p.add_argument("--maxdeg", type=int, required=True)
    p.set_defaults(func=cmd_annihilate)

    p = sub.add_parser("verify", help="run a randomized inequality suite")
    add_common(p)
    p.add_argument("--suite", required=True,
                   help=f"one of: {', '.join(suites.available_suites())}, all")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_verify)

    return parser


# the parser main uses, built by its first call
_parser = functools.cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "step", 1) < 1:
            raise InputError("--step must be >= 1")
        if getattr(args, "nmin", 0) < 0:
            raise InputError("--nmin must be >= 0")
        _check_tolerance(getattr(args, "tol_eps0", None), "--tol-eps0")
        _check_tolerance(getattr(args, "tol_ortho", None), "--tol-ortho")
        return args.func(args)
    except BidiskError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
