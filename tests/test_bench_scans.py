"""``tools/bench_scans.py`` splits a solve into its stages by the names of the solver's functions.

Its stage table must keep finding them: a renamed stage function would drop
out of the split silently, its time landing in "rest".
"""

import importlib.util
from pathlib import Path

from bidisk import approximants
from bidisk.approximants import BasisSpec, solve_optimal, solve_orders
from bidisk.series import DiagonalPattern, OneVarSeries, TwoVarSeries

TOOL = Path(__file__).parents[1] / "tools" / "bench_scans.py"
# the names the table keeps for trees that predate these functions
LEGACY = {"_leading", "_solve_normal"}


def _bench_scans():
    spec = importlib.util.spec_from_file_location("bench_scans", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_stage_function_is_found_and_timed():
    bench = _bench_scans()
    assert {name for name in bench.Stages.NAMES if not hasattr(approximants, name)} == LEGACY
    f = TwoVarSeries([[1.0, 0.0], [0.0, -1.0]])
    solve_optimal(f, 0.5, BasisSpec.full(2))  # load the LAPACK module first
    with bench.Stages(approximants) as stages:
        solve_optimal(OneVarSeries([1.0, -1.0]), 0.5, BasisSpec.onevar(40))
        list(solve_orders(f, 0.5, [BasisSpec.diagonal(n, DiagonalPattern(1, 1)) for n in (10, 20)]))
        solve_optimal(f, 0.5, BasisSpec.full(3))
    assert all(getattr(approximants, name) is real for name, real in stages.real.items())
    per_solve = ("_gather", "_factor", "_solve", "_band_norm1", "_inverse_norm1", "_certify")
    assert [stages.calls[name] for name in per_solve] == [4] * len(per_solve)
    assert stages.calls["gram_assemble"] == 3  # the diagonal scan assembles once
    assert all(stages.seconds[stage] > 0.0 for stage in ("assemble", "factor", "solve", "cond", "certify"))
