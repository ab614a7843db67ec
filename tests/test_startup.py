"""Start-up cost: the first factorization loads scipy's compiled LAPACK module alone.

Importing ``bidisk`` and the commands that solve nothing load no LAPACK;
a solve loads ``scipy.linalg._flapack`` and never the ``scipy.linalg``
package.  Each case runs in a fresh interpreter, since this process has
loaded ``scipy.linalg`` already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports the package and its CLI, runs ``cli.main`` on the arguments, if
# any, with its output discarded, and reports whether scipy.linalg and its
# compiled LAPACK module were loaded.
PROBE = """
import contextlib, io, json, sys
import bidisk, bidisk.cli
code = None
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        code = bidisk.cli.main(sys.argv[1:])
print(json.dumps({"exit": code, "linalg": "scipy.linalg" in sys.modules,
                  "flapack": "scipy.linalg._flapack" in sys.modules}))
"""

# Solves once, with ``scipy.linalg`` imported before the solve when the
# argument is "scipy-first" and after it otherwise, and reports whether
# scipy.linalg hands out the solver's routines and factors a band to the
# solver's factor, byte for byte.
INTEROP = """
import json, sys
import numpy as np
if sys.argv[1] == "scipy-first":
    import scipy.linalg
from bidisk import approximants
from bidisk.approximants import BasisSpec, gram_assemble, solve_optimal
from bidisk.series import DiagonalPattern, OneVarSeries, separable
f = separable(OneVarSeries([1, -1]), OneVarSeries([1, -0.5]))
solve_optimal(f, 0.5, BasisSpec.full(3))
import scipy.linalg
same = [scipy.linalg.get_lapack_funcs(name, dtype=np.complex128) is approximants._lapack(name)
        for name in ("pbtrf", "pbtrs")]
equal = []
for g, b in ((f, BasisSpec.full(6)), (f, BasisSpec.diagonal(9, DiagonalPattern(1, 1))),
             (OneVarSeries([1, -1]), BasisSpec.onevar(40))):
    gs = gram_assemble(g, 0.5, b)
    band = gs.band.copy()
    factor = approximants._factor(gs, b.n, 0.5, None)[0]
    equal.append(factor.tobytes() == scipy.linalg.cholesky_banded(band).tobytes())
print(json.dumps({"same": same, "equal": equal}))
"""

# Runs ``norm`` through the CLI, then one solve, and reports the exit code
# and the error the solve raised.
NO_LAPACK = """
import contextlib, io, json, sys
import bidisk, bidisk.cli
from bidisk.approximants import BasisSpec, solve_optimal
from bidisk.series import OneVarSeries
with contextlib.redirect_stdout(io.StringIO()):
    code = bidisk.cli.main(["norm", "--series", "builtin:one_minus_z1z2", "--alpha", "0"])
try:
    solve_optimal(OneVarSeries([1, -1]), 0.0, BasisSpec.onevar(3))
    error = None
except ImportError as exc:
    error = {"type": type(exc).__name__, "name": exc.name, "message": str(exc)}
print(json.dumps({"exit": code, "error": error, "linalg": "scipy.linalg" in sys.modules}))
"""


def run(script, *argv, path=()):
    path = os.pathsep.join(filter(None, [*map(str, path), str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    (),
    ("norm", "--series", "builtin:one_minus_z1z2", "--alpha", "0"),
    ("energy", "--measure", "builtin:diagonal_current", "--K", "100"),
    ("annihilate", "--series", "builtin:one_minus_z1z2", "--measure", "builtin:diagonal_current",
     "--maxdeg", "8"),
    ("verify", "--suite", "all", "--trials", "1"),
], ids=["import", "norm", "energy", "annihilate", "verify"])
def test_work_without_a_solve_leaves_scipy_linalg_unloaded(argv):
    assert run(PROBE, *argv) == {"exit": None if not argv else 0, "linalg": False,
                                 "flapack": False}


@pytest.mark.parametrize("argv", [
    ("approx", "--series", "builtin:one_minus_z1z2", "--alpha", "0", "--n", "3", "--basis", "full"),
    ("decay", "--series", "builtin:one_minus_z1z2", "--alpha", "0", "--nmin", "1", "--nmax", "10",
     "--basis", "diag:1,1"),
    ("decay", "--series", "builtin:one_minus_z1", "--alpha", "1", "--nmin", "50", "--nmax", "100",
     "--step", "50", "--basis", "onevar"),
], ids=["approx-full", "decay-diag", "decay-onevar"])
def test_a_solve_loads_the_lapack_module_alone(argv):
    assert run(PROBE, *argv) == {"exit": 0, "linalg": False, "flapack": True}


@pytest.mark.parametrize("order", ["solve-first", "scipy-first"])
def test_scipy_linalg_shares_the_solver_routines(order):
    assert run(INTEROP, order) == {"same": [True, True], "equal": [True, True, True]}


@pytest.mark.parametrize("linalg", [False, True], ids=["no-linalg", "linalg-without-flapack"])
def test_a_scipy_without_its_lapack_module_fails_the_first_solve(tmp_path, linalg):
    # a stub scipy first on the path: bidisk imports and computes norms, and the solve names
    # the module it could not find and the scipy floor
    package = tmp_path / "scipy"
    (package / "linalg" if linalg else package).mkdir(parents=True)
    (package / "__init__.py").write_text("")
    if linalg:
        (package / "linalg" / "__init__.py").write_text("")
    out = run(NO_LAPACK, path=[tmp_path])
    error = out.pop("error")
    assert out == {"exit": 0, "linalg": False}
    assert error["type"] == "ImportError" and error["name"] == "scipy.linalg._flapack"
    assert "scipy.linalg._flapack" in error["message"] and "scipy>=1.10" in error["message"]
