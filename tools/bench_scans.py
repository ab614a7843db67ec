"""Per-stage time split of the benchmark's decay scans, and its commands' and suites' times, on two source trees.

Runs the decay scans of the benchmark's ``full_scan`` and ``reduced_scan``
workloads (``perfbench/workloads.py``, seed ``SEED``), and the commands of
its ``cli_batch`` workload, on a baseline tree, named by
``--src``, and on the tree this script belongs to.  Each tree runs each of
the three workloads in a process of its own, whose peak resident set size
(``ru_maxrss``) is recorded, under the environment ``perfbench/run.py`` pins
for its workers (``PINNED``: one BLAS thread, no huge pages for numpy, a
fixed malloc mmap threshold), and the two alternate for ``ROUNDS`` rounds so
that drift of the host's speed hits both alike.  A process makes one untimed
warm-up pass, then ``REPEATS`` untraced passes, keeping each scan's fastest
wall time (other processes on a shared host only ever slow a scan, as
``perfbench/worker.py`` notes) and its median count of minor page faults
(``ru_minflt``), and ``REPEATS`` traced passes, in which the solver's
private stages are wrapped in timers and the median of each stage's self
time (less the stages it calls) is kept:

* assemble: ``gram_assemble``, and the band of an order taken from the
  assembled one: ``_gather`` (``_leading``, the one-column slice, in a tree
  that predates the gather), which also writes a full order's band, the
  top order's too, into the factor buffer (in a tree that predates that,
  the copy into the buffer is part of factor);
* factor: ``_factor`` (LAPACK ``pbtrf`` and any ridge retry);
* solve: ``_solve``, the one body of a solve, less the stages it calls:
  the ``pbtrs`` for the coefficients and the solve's bookkeeping (with
  ``_solve_normal``, which held that ``pbtrs``, in a tree that predates the
  fold, so that both trees are split the same way);
* condition estimate: ``_band_norm1`` and ``_inverse_norm1``;
* certify: ``_certify`` (residual and orthogonality certificate);
* rest: the scan's wall time less those stages (dispatch, results, checks).

The ``cli_batch`` commands run through ``cli.main`` in a scratch
directory, their output captured: a process makes one untimed warm-up
pass, then ``REPEATS`` passes, keeping each command's fastest wall time and
median minor faults, and a digest of each command's output (its stdout,
and the file ``--out`` names) stands for its result.  The ``verify``
commands among them are timed again on their own, as ``cli_batch_verify``,
with each suite they run, through ``suites.run_suite``, in the same way; a
digest of each suite's margins and slacks, block by block, and of each
command's output stands for the results.

Each round also starts, per tree, one fresh interpreter per command of
``COLD``: the README's ``approx``, which solves, and ``norm``, which solves
nothing, each run as the ``bidisk`` console script runs it, and timed from
its start to its exit.  Its wall time, its peak resident set size and a
digest of its standard output are kept.

The JSON written to ``--out`` holds, per tree, the revision (git HEAD, a
dirty flag and a digest of ``src/bidisk``) and, per workload, the total time
of every round (of the scans, or of the commands), the medians
over rounds of that total, of the process's peak resident set size, of each
scan's or command's time and faults, of each scan's stage split, the stage
call counts, of each suite's time and faults, and a digest of every result
(a scan's fields and coefficients, a suite's margins, a command's output),
which must agree between the trees; per tree and cold-start command, the
medians over rounds of its wall time and peak resident set size, and its
output's digest; the ratio of the two totals in each round, and the change
of each command's time and of each peak resident set size; and the machine:
core count, the BLAS and LAPACK of numpy and of scipy (the solves run on
scipy's), numpy's BLAS thread count, and versions.

    python tools/bench_scans.py --src PATH/TO/BASELINE --out BENCH.json
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import PINNED  # noqa: E402  (perfbench/run.py, on the path just above)

WORKLOADS = ("full_scan", "reduced_scan")
BATCH = "cli_batch"  # every command of the cli_batch workload
VERIFY = "cli_batch_verify"  # its verify commands, with the suites they run
SEED = 1  # the full scan's random product; the reduced scans' order; the last verify's seed
ROUNDS, REPEATS = 10, 15
STAGES = ("assemble", "factor", "solve", "cond", "certify", "rest")
# The commands timed from a fresh interpreter: the README's approx, and norm as the control.
COLD = {"approx": ["approx", "--series", "builtin:one_minus_z1z2", "--alpha", "0", "--n", "1",
                   "--method", "optimal", "--basis", "full"],
        "norm": ["norm", "--series", "builtin:one_minus_z1z2", "--alpha", "0"]}
CONSOLE = "from bidisk.cli import run; run()"  # what the bidisk console script runs


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

    def named(deps, name):
        return f"{deps[name].get('name')} {deps[name].get('version')}"

    numpy_deps = np.show_config(mode="dicts")["Build Dependencies"]
    scipy_deps = scipy.show_config(mode="dicts")["Build Dependencies"]  # loads no scipy.linalg
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": named(numpy_deps, "blas"),
        "blas_threads": blas_threads(),
        "lapack": named(numpy_deps, "lapack"),
        "scipy_blas": named(scipy_deps, "blas"),
        "scipy_lapack": named(scipy_deps, "lapack"),
    }


class Stages:
    """Self-time timers around the solver's stage functions, patched into ``bidisk.approximants``."""

    NAMES = {"gram_assemble": "assemble", "_gather": "assemble", "_leading": "assemble",
             "_factor": "factor", "_solve": "solve", "_solve_normal": "solve", "_band_norm1": "cond",
             "_inverse_norm1": "cond", "_certify": "certify"}

    def __init__(self, approximants):
        self.seconds = dict.fromkeys(STAGES[:-1], 0.0)  # all but the rest
        # the stage functions this tree has: a baseline may predate some of them
        self.real = {name: getattr(approximants, name) for name in self.NAMES
                     if hasattr(approximants, name)}
        self.calls = dict.fromkeys(self.real, 0)
        self.module = approximants
        self.nested = []  # per open call, the time of the timed calls made inside it

    def wrap(self, name):
        real, stage = self.real[name], self.NAMES[name]

        def timed(*args, **kwargs):
            self.nested.append(0.0)
            t = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t
                self.seconds[stage] += elapsed - self.nested.pop()
                if self.nested:
                    self.nested[-1] += elapsed
                self.calls[name] += 1

        return timed

    def __enter__(self):
        for name in self.real:
            setattr(self.module, name, self.wrap(name))
        return self

    def __exit__(self, *exc):
        for name, real in self.real.items():
            setattr(self.module, name, real)

    def split(self, wall: float) -> dict:
        return {**self.seconds, "rest": wall - sum(self.seconds.values())}


def result_digest(results) -> str:
    digest = hashlib.sha256()
    for r in results:
        floats = (r.residual_sq, r.cond_estimate, r.ortho_residual, r.ridge)
        digest.update(repr((r.n, [float(x).hex() for x in floats])).encode())
        digest.update(r.solved.coeffs.tobytes())
    return digest.hexdigest()[:16]


def time_scans(analysis, approximants, scans) -> dict:
    """One warm-up pass, ``REPEATS`` untraced and ``REPEATS`` traced passes of ``scans``."""

    def run(scan):
        return analysis.decay_scan(scan.f, scan.alpha, scan.ns, basis=scan.basis,
                                   pattern=scan.pattern)

    digests = [result_digest(run(s).results) for s in scans]  # the warm-up pass
    labels = [f"{s.label} {s.basis} alpha={s.alpha}" for s in scans]
    wall = {label: [] for label in labels}
    faults = {label: [] for label in labels}
    for _ in range(REPEATS):
        for label, scan in zip(labels, scans):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t = time.perf_counter()
            run(scan)
            wall[label].append(time.perf_counter() - t)
            faults[label].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
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
        "minflt": {label: statistics.median(counts) for label, counts in faults.items()},
        "stage_s": {label: {k: statistics.median(p[k] for p in passes) for k in STAGES}
                    for label, passes in split.items()},
        "stage_calls": calls,
        "results_sha256": hashlib.sha256("".join(digests).encode()).hexdigest()[:16],
    }


def margins_digest(suites, name: str, trials: int, seed: int) -> str:
    digest = hashlib.sha256()
    for margin, slack in suites._MARGINS[name](trials, seed):
        digest.update(margin.tobytes())
        digest.update(slack.tobytes())
    return digest.hexdigest()[:16]


def run_command(cli, argv):
    """Exit code and stdout of one command run through ``cli.main``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def measured(call, *args):
    """Wall time and minor page faults of ``call(*args)``."""
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t = time.perf_counter()
    call(*args)
    return time.perf_counter() - t, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0


def time_batch(cli, commands) -> dict:
    """One warm-up pass, then ``REPEATS`` passes of ``commands``, and a digest of each one's output."""

    def output(argv):
        code, out = run_command(cli, argv)
        written = Path(argv[argv.index("--out") + 1]).read_text() if "--out" in argv else None
        return hashlib.sha256(repr((code, out, written)).encode()).hexdigest()[:16]

    labels = [" ".join(argv) for argv in commands]
    digests = {label: output(argv) for label, argv in zip(labels, commands)}  # the warm-up pass
    wall = {label: [] for label in labels}
    faults = {label: [] for label in labels}
    for _ in range(REPEATS):
        for label, argv in zip(labels, commands):
            seconds, minflt = measured(run_command, cli, argv)
            wall[label].append(seconds)
            faults[label].append(minflt)
    return {
        "command_s": {label: min(wall[label]) for label in labels},
        "minflt": {label: statistics.median(faults[label]) for label in labels},
        "output_sha256": digests,
        "results_sha256": hashlib.sha256(repr(digests).encode()).hexdigest()[:16],
    }


def time_verify(cli, suites, commands) -> dict:
    """One warm-up pass, then ``REPEATS`` passes of the ``verify`` commands and of the suites they run."""
    labels = [" ".join(argv) for argv in commands]
    runs = {}  # each suite a command runs, once: (name, trials, seed) by label
    for argv in commands:
        opts = dict(zip(argv[1::2], argv[2::2]))
        names = suites.available_suites() if opts["--suite"] == "all" else [opts["--suite"]]
        for name in names:
            runs[f"{name} trials={opts['--trials']} seed={opts['--seed']}"] = (
                name, int(opts["--trials"]), int(opts["--seed"]))
    outputs = [run_command(cli, argv) for argv in commands]  # the warm-up pass
    for name, trials, seed in runs.values():
        suites.run_suite(name, trials=trials, seed=seed)
    wall = {label: [] for label in [*labels, *runs]}
    faults = {label: [] for label in wall}
    for _ in range(REPEATS):
        for label, argv in zip(labels, commands):
            seconds, minflt = measured(run_command, cli, argv)
            wall[label].append(seconds)
            faults[label].append(minflt)
        for label, (name, trials, seed) in runs.items():
            seconds, minflt = measured(suites.run_suite, name, trials, seed)
            wall[label].append(seconds)
            faults[label].append(minflt)
    margins = {label: margins_digest(suites, *args) for label, args in runs.items()}
    results = hashlib.sha256(repr((outputs, sorted(margins.items()))).encode())
    return {
        "command_s": {label: min(wall[label]) for label in labels},
        "minflt": {label: statistics.median(faults[label]) for label in labels},
        "suite_s": {label: min(wall[label]) for label in runs},
        "suite_minflt": {label: statistics.median(faults[label]) for label in runs},
        "margins_sha256": margins,
        "results_sha256": results.hexdigest()[:16],
    }


def worker(tree: Path, workload: str) -> dict:
    """Time one workload (``cli_batch`` with its verify commands) with the ``bidisk`` of ``tree``.

    The workloads come from this script's tree.  Each timed workload
    carries the process's peak resident set size, taken before the machine
    is read.
    """
    sys.path[:0] = [str(tree / "src"), str(ROOT / "tests")]
    from bidisk import analysis, approximants, cli, suites
    import workloads

    if workload in WORKLOADS:
        out = {workload: time_scans(analysis, approximants,
                                    getattr(workloads, workload)(SEED, False).scans)}
    else:
        with tempfile.TemporaryDirectory() as tmp:  # the batch writes its series file here
            os.chdir(tmp)  # and its paths, relative to it, name a command alike in every process
            try:
                commands = [argv for argv, _ in workloads.CliBatch(SEED, False, Path(".")).commands]
                out = {BATCH: time_batch(cli, commands),
                       VERIFY: time_verify(cli, suites, [a for a in commands if a[0] == "verify"])}
            finally:
                os.chdir(ROOT)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    for timed in out.values():
        timed["peak_rss_mb"] = peak
    return {"workloads": out, "machine": machine()}


def spawn(tree: Path, workload: str) -> dict:
    cmd = [sys.executable, __file__, "--worker", str(tree), "--workload", workload]
    proc = subprocess.run(cmd, env={**os.environ, **PINNED}, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cold_start(tree: Path, argv) -> dict:
    """Wall time, peak RSS and a digest of the stdout of one fresh ``bidisk`` interpreter of ``tree``."""
    env = {**os.environ, **PINNED, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryFile() as out:
        t = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, "-c", CONSOLE, *argv], env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1)])
        _, status, usage = os.wait4(pid, 0)  # the rusage of this one child
        wall = time.perf_counter() - t
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"bidisk {' '.join(argv)} failed in {tree}")
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()[:16]
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, "output_sha256": digest}


def summarize_cold(runs: list) -> dict:
    """Medians over rounds of a cold-start command's wall time and peak RSS, and its outputs' digests."""
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "wall_s_rounds": [r["wall_s"] for r in runs],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "results_sha256": sorted({r["output_sha256"] for r in runs}),
    }


def summarize(rounds: list, timed: str = "scan_s") -> dict:
    """Medians over rounds: per scan (or command, ``timed``), per stage, per suite, of the total and of the faults per pass."""
    labels = list(rounds[0][timed])
    total = [sum(r[timed].values()) for r in rounds]

    def medians(key):
        return {label: statistics.median(r[key][label] for r in rounds) for label in rounds[0][key]}

    out = {
        "total_s": statistics.median(total),
        "total_s_rounds": total,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "minflt_per_pass": statistics.median(sum(r["minflt"].values()) for r in rounds),
        timed: medians(timed),
        timed.replace("_s", "_minflt"): medians("minflt"),
        "results_sha256": sorted({r["results_sha256"] for r in rounds}),
    }
    if "stage_s" in rounds[0]:
        out["stage_total_s"] = {k: statistics.median(sum(r["stage_s"][label][k] for label in labels)
                                                      for r in rounds) for k in STAGES}
        out["stage_s"] = {label: {k: statistics.median(r["stage_s"][label][k] for r in rounds)
                                  for k in STAGES} for label in labels}
        out["stage_calls"] = rounds[0]["stage_calls"]
    if "suite_s" in rounds[0]:
        out["suite_s"], out["suite_minflt"] = medians("suite_s"), medians("suite_minflt")
        out["margins_sha256"] = rounds[0]["margins_sha256"]
    if "output_sha256" in rounds[0]:
        out["output_sha256"] = rounds[0]["output_sha256"]
    return out


def change_frac(base: dict, change: dict, key: str) -> float:
    return (change[key] - base[key]) / base[key]


def compare(base: dict, change: dict) -> dict:
    """The change against the baseline on one workload: totals, the ratio of each round, and each command's change."""
    # the two runs of a round are adjacent in time, so their ratio cancels slow drift of the host
    ratios = [c / b for b, c in zip(base["total_s_rounds"], change["total_s_rounds"])]
    out = {
        "results_identical": base["results_sha256"] == change["results_sha256"],
        "total_change_frac": change_frac(base, change, "total_s"),
        "peak_rss_change_frac": change_frac(base, change, "peak_rss_mb"),
        "round_ratios": ratios,
        "round_ratio_median": statistics.median(ratios),
        "rounds_change_faster": sum(r < 1.0 for r in ratios),
    }
    if "command_s" in base:
        out["command_change_s"] = {label: change["command_s"][label] - seconds
                                   for label, seconds in base["command_s"].items()}
    return out


def compare_cold(base: dict, change: dict) -> dict:
    """The change against the baseline on one cold-start command."""
    return {
        "results_identical": base["results_sha256"] == change["results_sha256"],
        "wall_change_frac": change_frac(base, change, "wall_s"),
        "peak_rss_change_frac": change_frac(base, change, "peak_rss_mb"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, help="root of the baseline source tree")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--workload", choices=(*WORKLOADS, BATCH), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(worker(args.worker.resolve(), args.workload)))
        return 0
    if args.src is None or args.out is None:
        parser.error("--src and --out are required")
    trees = {"baseline": args.src.resolve(), "change": ROOT}
    rounds = {name: [] for name in trees}
    cold = {name: {command: [] for command in COLD} for name in trees}
    for i in range(ROUNDS):
        for name in (trees if i % 2 == 0 else reversed(list(trees))):
            workloads = {}
            for workload in (*WORKLOADS, BATCH):
                run = spawn(trees[name], workload)
                workloads.update(run["workloads"])
            rounds[name].append({"workloads": workloads, "machine": run["machine"]})
            for command, cmd_argv in COLD.items():
                cold[name][command].append(cold_start(trees[name], cmd_argv))
    totals = {**dict.fromkeys(WORKLOADS, "scan_s"), BATCH: "command_s", VERIFY: "command_s"}
    sides = {name: {"revision": revision(tree),
                    **{w: summarize([r["workloads"][w] for r in rounds[name]], key)
                       for w, key in totals.items()},
                    "cold_start": {command: summarize_cold(runs)
                                   for command, runs in cold[name].items()}}
             for name, tree in trees.items()}
    comparison = {w: compare(sides["baseline"][w], sides["change"][w]) for w in totals}
    comparison["cold_start"] = {command: compare_cold(sides["baseline"]["cold_start"][command],
                                                      sides["change"]["cold_start"][command])
                                for command in COLD}
    identical = [comparison[w]["results_identical"] for w in totals]
    identical += [c["results_identical"] for c in comparison["cold_start"].values()]
    report = {
        "what": "decay scans of perfbench full_scan and reduced_scan: wall time, minor page "
                "faults and per-stage split; the commands of perfbench cli_batch: wall time, "
                "minor page faults and a digest of each one's output; its verify commands and "
                "the suites they run: wall time, minor page faults and a digest of the margins; "
                "the peak resident set size of each workload's process; fresh bidisk approx "
                "and norm interpreters: wall time, peak resident set size and a digest of "
                "the output",
        "settings": {"rounds": ROUNDS, "repeats": REPEATS, "seed": SEED, **PINNED,
                     "statistic": "scan_s, command_s, suite_s: fastest of the repeats of a "
                                  "round; minflt: median of the untraced repeats; stage_s: "
                                  "median of the traced repeats; peak_rss_mb: ru_maxrss of "
                                  "the process; each then the median over rounds; "
                                  "cold_start: one run per round, the median over rounds"},
        "machine": rounds["change"][0]["machine"],
        "results_identical": all(identical),
        "comparison": comparison,
        **sides,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for w in totals:
        base, change, c = sides["baseline"][w], sides["change"][w], comparison[w]
        print(f"{w}: baseline {1e3 * base['total_s']:.2f} ms, change {1e3 * change['total_s']:.2f} ms "
              f"({100 * c['total_change_frac']:+.1f}%); change/baseline by round: median "
              f"{c['round_ratio_median']:.3f}, change faster in {c['rounds_change_faster']} of "
              f"{len(c['round_ratios'])}; minor faults per pass {base['minflt_per_pass']:.0f} -> "
              f"{change['minflt_per_pass']:.0f}; peak RSS {base['peak_rss_mb']:.1f} -> "
              f"{change['peak_rss_mb']:.1f} MB ({100 * c['peak_rss_change_frac']:+.1f}%)")
    for command in COLD:
        base, change = (sides[name]["cold_start"][command] for name in trees)
        print(f"cold start {command}: {1e3 * base['wall_s']:.0f} -> {1e3 * change['wall_s']:.0f} "
              f"ms, peak RSS {base['peak_rss_mb']:.1f} -> {change['peak_rss_mb']:.1f} MB")
    print(f"results identical: {report['results_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
