"""Start-up cost: ``scipy.linalg`` is loaded by the first factorization, not on import.

Each case runs in a fresh interpreter, since this process has loaded
``scipy.linalg`` already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports the package and its CLI, runs ``cli.main`` on the arguments, if
# any, with its output discarded, and reports whether scipy.linalg was loaded.
PROBE = """
import contextlib, io, json, sys
import bidisk, bidisk.cli
code = None
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        code = bidisk.cli.main(sys.argv[1:])
print(json.dumps({"exit": code, "loaded": "scipy.linalg" in sys.modules}))
"""


def probe(*argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env={**os.environ, "PYTHONPATH": path},
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
    assert probe(*argv) == {"exit": None if not argv else 0, "loaded": False}


def test_a_solve_loads_scipy_linalg():
    argv = ("approx", "--series", "builtin:one_minus_z1z2", "--alpha", "0", "--n", "3")
    assert probe(*argv) == {"exit": 0, "loaded": True}
