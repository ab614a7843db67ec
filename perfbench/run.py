"""Benchmark of ``bidisk``: decay scans on the full and reduced bases, and a CLI batch.

Usage, from the repository root::

    python3 perfbench/run.py --workload full_scan --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1
    python3 perfbench/run.py --self-check

Each workload runs in fresh Python processes started one at a time, with the
BLAS thread count pinned to 1 before numpy loads: eight processes that only
set up, then one that sets up, makes an untimed warm-up pass over the
smallest inputs and times the passes that fit in ``--seconds``.  ``setup_s``
is the median set-up time of the nine, ``pass_s`` the sum over the jobs of a
pass of each job's fastest timed run (robust to bursts of load from other
processes on the host), scaled to the reference speed ``worker.py`` defines,
``peak_rss_mb`` the measuring process's peak resident memory.  Every output is checked against an oracle; failures are
counted in ``attempted``/``failed`` and printed as ``fail_frac``.
With ``--trace 1`` the per-layer metrics of ``tracing.LAYERS`` are printed
instead, from traced passes alternating with untraced ones.

The last line of standard output is the result as one JSON object.  The full
report, with the machine and revision, is written to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("full_scan", "reduced_scan", "cli_batch")
SETUPS = 9
# Everything one invocation starts must end within this many seconds.
TIME_LIMIT = 170.0
# One BLAS thread: the single-threaded baseline, and the CLI's two-worker
# pool then fits two cores.  Peak RSS should follow the arrays the program
# holds, not the host: no transparent huge pages for numpy arrays (their
# availability varies), and a fixed malloc mmap threshold (glibc's default
# start value), since its run-time adjustment let heap fragmentation move
# peak RSS by 10% between identical runs.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMPY_MADVISE_HUGEPAGE": "0", "MALLOC_MMAP_THRESHOLD_": "131072"}
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def spawn(args, deadline):
    """Run ``worker.py`` to completion and return its last output line."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0),
           "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PINNED}, capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def revision():
    """Git revision and dirty flag when the checkout is a repository, and a source digest."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bidisk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    info = {"git_revision": None, "git_dirty": None, "source_sha256": digest.hexdigest()[:16]}
    if (ROOT / ".git").exists():
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                   cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return info
        if rev.returncode == 0:
            info["git_revision"] = rev.stdout.strip()
            info["git_dirty"] = bool(dirty.stdout.strip())
    return info


def run_workload(name, seed, seconds, trace, deadline, extra=()):
    common = ["--workload", name, "--seed", str(seed), *extra]
    setups = [spawn([*common, "--mode", "setup"], deadline)["setup_s"]
              for _ in range(SETUPS - 1)]
    res = spawn([*common, "--mode", "run", "--seconds", str(seconds), "--trace", str(trace)],
                deadline)
    setups.append(res["setup_s"])
    res["setups"] = setups
    res["setup_s"] = statistics.median(setups)
    res["fail_frac"] = res["failed"] / res["attempted"]
    res["machine"].update(nproc=os.cpu_count(), nproc_affinity=len(os.sched_getaffinity(0)),
                          **revision())
    if trace:
        metrics = res["layers"]
    else:
        metrics = {m: {"value": res[m], "unit": u} for m, u in END_TO_END}
    res["result"] = {"correct": res["failed"] == 0, "attempted": res["attempted"],
                     "failed": res["failed"], "metrics": metrics}
    return res


def report(name, seed, trace, res):
    """Human-readable lines, then the report file."""
    print(f"workload {name} seed {seed} trace {trace}")
    print("machine " + json.dumps(res["machine"], sort_keys=True))
    print(f"  setup_s      {res['setup_s']:.4f} s   (median of {len(res['setups'])} set-ups)")
    print(f"  pass_s       {res['pass_s']:.4f} s   (fastest run of each job over "
          f"{len(res['passes'])} passes: {res['pass_wall_s']:.4f} s, scaled by the "
          f"fastest of {len(res['reference_s'])} reference runs, "
          f"{min(res['reference_s']):.4f} s)")
    print(f"  peak_rss_mb  {res['peak_rss_mb']:.1f} MB")
    print(f"  fail_frac    {res['fail_frac']:.4g} 1   ({res['failed']} of {res['attempted']} "
          "operations)")
    print(f"  oracle rel err max {res['rel_err_max']:.3g}, certificate ratio max "
          f"{res['cert_ratio_max']:.3g}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    if trace:
        for layer, m in res["layers"].items():
            print(f"  {layer:34s} {m['value']:.6g} {m['unit']}")
        if res["largest_order"]:
            print("largest order " + json.dumps(res["largest_order"]))
        if res["missing_targets"]:
            print("trace targets missing: " + ", ".join(res["missing_targets"]))
    out = OUT_DIR / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")


def self_check():
    """Small inputs through every workload; metric names and the oracle gate."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    layers = {name: unit for name, unit, *_ in LAYERS}
    problems = []
    if want[1] != layers:
        problems.append("BENCHMARK.json per_layer differs from tracing.LAYERS")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for name in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(name, 1, 0.0, trace, time.monotonic() + TIME_LIMIT, ("--small",))
            got = {m: v["unit"] for m, v in res["result"]["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace {trace}: metrics {got} != {want[trace]}")
            if not res["result"]["correct"]:
                problems.append(f"{name} trace {trace}: failures {res['failures']}")
            print(f"{name} trace {trace}: {len(got)} metrics, {res['attempted']} operations, "
                  f"{res['failed']} failed")
        res = run_workload(name, 1, 0.0, 0, time.monotonic() + TIME_LIMIT,
                           ("--small", "--wrong-oracle"))
        if res["failed"] < 1 or res["result"]["correct"]:
            problems.append(f"{name}: a wrong oracle value was not counted as a failure")
        print(f"{name} with a wrong oracle value: {res['failed']} of {res['attempted']} failed")
    for p in problems:
        print("SELF-CHECK FAILED: " + p)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    for needed in ("src/bidisk/__init__.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}; run from a checkout of the "
                  "repository", file=sys.stderr)
            return 2
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.self_check:
            return self_check()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace,
                               time.monotonic() + TIME_LIMIT)
            report(name, args.seed, args.trace, res)
            results[name] = res["result"]
            if len(names) > 1:
                print(json.dumps({"workload": name, **res["result"]}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) > 1:
        results = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
        print(json.dumps(results))
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
