"""Per-stage time split of the ``reduced_scan`` decay scans on two source trees.

Runs the six decay scans of the benchmark's ``reduced_scan`` workload
(``perfbench/workloads.py``) on a baseline tree, named by ``--src``, and on
the tree this script belongs to.  Each tree runs in its own processes, with
one BLAS thread as in ``perfbench/run.py``, and the two alternate for
``ROUNDS`` rounds so that drift of the host's speed hits both alike.  A
process makes one untimed warm-up pass, then ``REPEATS`` untraced passes,
keeping each scan's fastest wall time (other processes on a shared host
only ever slow a scan, as ``perfbench/worker.py`` notes), and ``REPEATS``
traced passes, in which the solver's private stages are wrapped in timers
and the median of each stage is kept:

* assemble: ``gram_assemble``;
* factor: ``_factor`` (LAPACK ``pbtrf`` and any ridge retry);
* solve: the rest of ``_solve_normal`` (the ``pbtrs`` for the coefficients);
* condition estimate: ``_band_norm1`` and ``_inverse_norm1``;
* certify: ``_certify`` (residual and orthogonality certificate);
* rest: the scan's wall time less those stages (dispatch, results, checks).

The JSON written to ``--out`` holds, per tree, the revision (git HEAD, a
dirty flag and a digest of ``src/bidisk``), the six scans' total time of
every round, the medians over rounds of that total, of each scan's time and
of its stage split, the stage call counts, and a digest of every result's
fields and coefficients, which must agree between the trees; the ratio of
the two totals in each round; and the machine: core count, BLAS, its thread
count, and versions.

    python tools/bench_scans.py --src PATH/TO/BASELINE --out BENCH.json
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ROUNDS, REPEATS = 10, 15
STAGES = ("assemble", "factor", "solve", "cond", "certify", "rest")


def revision(tree: Path) -> dict:
    """Git HEAD and dirty flag of ``tree`` when it is a repository, and a digest of its sources."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "bidisk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    info = {"git_revision": None, "git_dirty": None, "source_sha256": digest.hexdigest()[:16]}
    if (tree / ".git").exists():
        git = ["git", "-C", str(tree)]
        rev = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        dirty = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True)
        if rev.returncode == 0:
            info["git_revision"] = rev.stdout.strip()
            info["git_dirty"] = bool(dirty.stdout.strip())
    return info


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import numpy as np

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


class Stages:
    """Timers around the solver's stage functions, patched into ``bidisk.approximants``."""

    NAMES = {"gram_assemble": "assemble", "_factor": "factor", "_solve_normal": "solve_normal",
             "_band_norm1": "cond", "_inverse_norm1": "cond", "_certify": "certify"}

    def __init__(self, approximants):
        self.seconds = dict.fromkeys([*STAGES, "solve_normal"], 0.0)
        self.calls = dict.fromkeys(self.NAMES, 0)
        self.module = approximants
        self.real = {name: getattr(approximants, name) for name in self.NAMES}

    def wrap(self, name):
        real, stage = self.real[name], self.NAMES[name]

        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                self.seconds[stage] += time.perf_counter() - t
                self.calls[name] += 1

        return timed

    def __enter__(self):
        for name in self.NAMES:
            setattr(self.module, name, self.wrap(name))
        return self

    def __exit__(self, *exc):
        for name, real in self.real.items():
            setattr(self.module, name, real)

    def split(self, wall: float) -> dict:
        s = self.seconds
        out = {"assemble": s["assemble"], "factor": s["factor"],
               "solve": s["solve_normal"] - s["factor"] - s["cond"], "cond": s["cond"],
               "certify": s["certify"]}
        out["rest"] = wall - sum(out.values())
        return out


def result_digest(results) -> str:
    digest = hashlib.sha256()
    for r in results:
        floats = (r.residual_sq, r.cond_estimate, r.ortho_residual, r.ridge)
        digest.update(repr((r.n, [float(x).hex() for x in floats])).encode())
        digest.update(r.solved.coeffs.tobytes())
    return digest.hexdigest()[:16]


def worker(tree: Path) -> dict:
    """Time the six scans with the ``bidisk`` of ``tree``; the workload comes from this script's tree."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    from bidisk import analysis, approximants
    import workloads

    scans = workloads.reduced_scan(0, False).scans

    def run(scan):
        return analysis.decay_scan(scan.f, scan.alpha, scan.ns, basis=scan.basis,
                                   pattern=scan.pattern)

    digests = [result_digest(run(s).results) for s in scans]  # the warm-up pass
    labels = [f"{s.label} {s.basis} alpha={s.alpha}" for s in scans]
    wall = {label: [] for label in labels}
    for _ in range(REPEATS):
        for label, scan in zip(labels, scans):
            t = time.perf_counter()
            run(scan)
            wall[label].append(time.perf_counter() - t)
    split = {label: [] for label in labels}
    calls = {}
    for _ in range(REPEATS):
        for label, scan in zip(labels, scans):
            with Stages(approximants) as stages:
                t = time.perf_counter()
                run(scan)
                elapsed = time.perf_counter() - t
            split[label].append(stages.split(elapsed))
            calls[label] = stages.calls
    return {
        "scan_s": {label: min(times) for label, times in wall.items()},
        "stage_s": {label: {k: statistics.median(p[k] for p in passes) for k in STAGES}
                    for label, passes in split.items()},
        "stage_calls": calls,
        "results_sha256": hashlib.sha256("".join(digests).encode()).hexdigest()[:16],
        "machine": machine(),
    }


def spawn(tree: Path) -> dict:
    cmd = [sys.executable, __file__, "--worker", str(tree)]
    proc = subprocess.run(cmd, env={**os.environ, **PINNED}, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(rounds: list) -> dict:
    """Medians over rounds: per scan, per stage, and of the six scans' total."""
    labels = list(rounds[0]["scan_s"])
    total = [sum(r["scan_s"].values()) for r in rounds]
    stage_total = {k: statistics.median(sum(r["stage_s"][label][k] for label in labels)
                                        for r in rounds) for k in STAGES}
    return {
        "total_s": statistics.median(total),
        "total_s_rounds": total,
        "scan_s": {label: statistics.median(r["scan_s"][label] for r in rounds)
                   for label in labels},
        "stage_total_s": stage_total,
        "stage_s": {label: {k: statistics.median(r["stage_s"][label][k] for r in rounds)
                            for k in STAGES} for label in labels},
        "stage_calls": rounds[0]["stage_calls"],
        "results_sha256": sorted({r["results_sha256"] for r in rounds}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, help="root of the baseline source tree")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(worker(args.worker.resolve())))
        return 0
    if args.src is None or args.out is None:
        parser.error("--src and --out are required")
    trees = {"baseline": args.src.resolve(), "change": ROOT}
    rounds = {name: [] for name in trees}
    for i in range(ROUNDS):
        for name in (trees if i % 2 == 0 else reversed(list(trees))):
            rounds[name].append(spawn(trees[name]))
    sides = {name: {"revision": revision(tree), **summarize(rounds[name])}
             for name, tree in trees.items()}
    base, change = sides["baseline"]["total_s"], sides["change"]["total_s"]
    # the two runs of a round are adjacent in time, so their ratio cancels slow drift of the host
    ratios = [c / b for b, c in zip(sides["baseline"]["total_s_rounds"], sides["change"]["total_s_rounds"])]
    report = {
        "what": "six decay scans of perfbench reduced_scan: wall time and per-stage split",
        "settings": {"rounds": ROUNDS, "repeats": REPEATS, **PINNED,
                     "statistic": "scan_s: fastest of the repeats of a round; stage_s: median of "
                                  "the traced repeats; both then the median over rounds"},
        "machine": rounds["change"][0]["machine"],
        "results_identical": sides["baseline"]["results_sha256"] == sides["change"]["results_sha256"],
        "total_change_frac": (change - base) / base,
        "round_ratios": ratios,
        "round_ratio_median": statistics.median(ratios),
        "rounds_change_faster": sum(r < 1.0 for r in ratios),
        **sides,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"six scans: baseline {1e3 * base:.2f} ms, change {1e3 * change:.2f} ms "
          f"({100 * (change - base) / base:+.1f}%); change/baseline by round: median "
          f"{statistics.median(ratios):.3f}, change faster in {report['rounds_change_faster']} of "
          f"{len(ratios)}; results identical: {report['results_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
