"""Optimal solves pinned bit for bit against ``tests/golden/solves.json``.

Each case records ``float.hex`` of ``residual_sq``, ``cond_estimate`` and
``ortho_residual``, the ridge, and a SHA-256 digest of the solved
coefficients.  The cases cover full bases with a real and a complex ``f``,
one-variable bases, the ``(1, 1)`` and ``(2, 3)`` pattern solves, a real
and a complex ``f`` off those patterns, four values of ``alpha`` at several orders,
the ridge retry after a failed factorization, and the subnormal entries of
the condition estimate at ``n = 2000``.

Regenerate the file with ``PYTHONPATH=src python tests/test_solve_pin.py``,
only for a change meant to move these values.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bidisk import approximants
from bidisk.approximants import BasisSpec, solve_optimal
from bidisk.series import DiagonalPattern, OneVarSeries, TwoVarSeries, lift, separable

GOLDEN = Path(__file__).parent / "golden" / "solves.json"

ALPHAS = (-1.0, 0.0, 0.5, 1.0)
ONE_MINUS_Z = OneVarSeries([1, -1])
PRODUCT = separable(ONE_MINUS_Z, ONE_MINUS_Z)
COMPLEX_2D = TwoVarSeries([[1.0, 0.3 - 0.2j, 0.1j],
                           [-0.4 + 0.1j, 0.25, 0.0],
                           [0.05, 0.0, -0.1 + 0.05j]])
COMPLEX_1D = OneVarSeries([1.0, -0.6 + 0.3j, 0.2j, 0.05])
ONE_MINUS_Z1Z2 = TwoVarSeries([[1, 0], [0, -1]])
PAT11, PAT23 = DiagonalPattern(1, 1), DiagonalPattern(2, 3)
ONE_MINUS_POW23 = lift(ONE_MINUS_Z, PAT23)
COMPLEX_PAT23 = lift(OneVarSeries([1.0, 0.5 - 0.25j, -0.125j]), PAT23)
# six cosets of (2, 3), with interior zeros
COMPLEX_OFF23 = TwoVarSeries([[1.0, 0.2j, 0.0, -0.3],
                              [0.1 - 0.05j, 0.0, 0.4, 0.0],
                              [0.0, 0.25j, 0.0, -0.5 + 0.1j]])


def _cases():
    """``(name, f, alpha, basis)`` of every pinned solve."""
    for a in ALPHAS:
        for n in (0, 3, 8):
            yield f"full/product/a={a}/n={n}", PRODUCT, a, BasisSpec.full(n)
        for n in (2, 6):
            yield f"full/complex/a={a}/n={n}", COMPLEX_2D, a, BasisSpec.full(n)
        for n in (0, 5, 40, 300):
            yield f"onevar/1-z/a={a}/n={n}", ONE_MINUS_Z, a, BasisSpec.onevar(n)
        for n in (7, 60):
            yield f"onevar/complex/a={a}/n={n}", COMPLEX_1D, a, BasisSpec.onevar(n)
        for n in (0, 12, 100):
            yield f"diag11/1-z1z2/a={a}/n={n}", ONE_MINUS_Z1Z2, a, BasisSpec.diagonal(n, PAT11)
        for n in (30, 90):
            yield f"diag23/pow/a={a}/n={n}", ONE_MINUS_POW23, a, BasisSpec.diagonal(n, PAT23)
        yield f"diag23/complex/a={a}/n=45", COMPLEX_PAT23, a, BasisSpec.diagonal(45, PAT23)
        yield f"diag11/off-pattern/a={a}/n=5", PRODUCT, a, BasisSpec.diagonal(5, PAT11)
        yield f"diag23/off-pattern/a={a}/n=30", COMPLEX_OFF23, a, BasisSpec.diagonal(30, PAT23)
    yield "onevar/subnormal/a=0.0/n=2000", OneVarSeries([1, -0.5]), 0.0, BasisSpec.onevar(2000)


def _record(res) -> dict:
    coeffs = np.ascontiguousarray(res.solved.coeffs)
    return {
        "residual_sq": float.hex(res.residual_sq),
        "cond_estimate": float.hex(res.cond_estimate),
        "ortho_residual": float.hex(res.ortho_residual),
        "ridge": float.hex(res.ridge),
        "coeffs": f"{coeffs.shape}:{hashlib.sha256(coeffs.tobytes()).hexdigest()}",
    }


def _ridge_cases():
    """The cases solved after one failed factorization."""
    yield "ridge/full/product/a=0.0/n=3", PRODUCT, 0.0, BasisSpec.full(3)
    yield "ridge/onevar/1-z/a=0.5/n=20", ONE_MINUS_Z, 0.5, BasisSpec.onevar(20)
    yield "ridge/diag23/pow/a=1.0/n=30", ONE_MINUS_POW23, 1.0, BasisSpec.diagonal(30, PAT23)


def _solve_after_one_failure(f, alpha, basis):
    real, calls = approximants._lapack, []

    def lapack(name):
        routine = real(name)

        def fail_once(band):
            calls.append(band)
            # info = 1: LAPACK's report of a band that is not positive definite
            return (band, 1) if len(calls) == 1 else routine(band)

        return fail_once if name == "pbtrf" else routine

    approximants._lapack = lapack
    try:
        res = solve_optimal(f, alpha, basis)
    finally:
        approximants._lapack = real
    assert len(calls) == 2 and res.ridge > 0.0
    return res


def _records() -> dict:
    out = {name: _record(solve_optimal(f, a, b)) for name, f, a, b in _cases()}
    for name, f, a, b in _ridge_cases():
        out[name] = _record(_solve_after_one_failure(f, a, b))
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned(pinned):
    names = [c[0] for c in _cases()] + [c[0] for c in _ridge_cases()]
    assert sorted(pinned) == sorted(names)


def _params(cases):
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, f, alpha, basis", _params(_cases()))
def test_solve_is_bit_identical(pinned, name, f, alpha, basis):
    assert _record(solve_optimal(f, alpha, basis)) == pinned[name]


@pytest.mark.parametrize("name, f, alpha, basis", _params(_ridge_cases()))
def test_ridge_retry_is_bit_identical(pinned, name, f, alpha, basis):
    assert _record(_solve_after_one_failure(f, alpha, basis)) == pinned[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_records(), indent=1, sort_keys=True) + "\n")
