"""One workload in one fresh process: set up, warm up, time passes, check outputs.

``run.py`` starts this script with the BLAS thread count pinned in the
environment and the monotonic clock reading taken just before the start, so
``setup_s`` covers interpreter start, imports and building the inputs.  The
last line of standard output is one JSON object for ``run.py`` to read.

``--mode setup`` stops after set-up.  ``--mode run`` then makes one untimed
warm-up pass over the same job list at its smallest inputs, which runs every
code path once, and times passes that fit in ``--seconds`` (at least one); with
``--trace 1`` it alternates untraced and traced passes so the tracing
overhead can be measured against the untraced time.

The host's speed drifts: other tenants slowed every kind of work here by
30-60% for minutes at a time.  So untraced passes are interleaved with a
fixed reference computation, and ``pass_s`` is scaled to a host on which
that computation takes ``REFERENCE_S``.  The unscaled time is reported as
``pass_wall_s``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import bidisk  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bidisk import cli  # noqa: E402


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


# Fastest time of ``Reference.run`` seen on the 2-vCPU Xeon VM the benchmark
# was tuned on; ``pass_s`` is scaled to a host that runs it this fast.
REFERENCE_S = 0.075
# Least gap between two reference runs, so short jobs are not swamped by them.
REFERENCE_EVERY_S = 0.5


class Reference:
    """A fixed mix of dense BLAS and interpreted Python, timed between jobs.

    It uses numpy only, never ``bidisk``, so no change to the library moves
    it; it moves with the host's speed, as the jobs do.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((600, 600)) + 1j * rng.standard_normal((600, 600))
        self.matrix = a @ a.conj().T
        self.times = []
        self.last = -REFERENCE_EVERY_S

    def run(self):
        t = time.perf_counter()
        np.linalg.eigvalsh(self.matrix)
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        return time.perf_counter() - t

    def maybe_run(self):
        if time.perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.times.append(self.run())
            self.last = time.perf_counter()


def run_pass(jobs, tally, reference=None):
    """Wall time of each job of one pass; each output is checked once its job ends."""
    times = []
    for job, check in jobs:
        if reference is not None:
            reference.maybe_run()
        t = time.perf_counter()
        output = job()
        times.append(time.perf_counter() - t)
        check(output, tally)
        del output  # peak RSS must not depend on which job ran before
    return times


def fastest_pass(job_times):
    """Time of one pass with every job at the fastest of its timed runs.

    Other processes on a shared host only ever slow a job, in bursts that
    hit 20-50% of the passes of some runs.  Over five ``cli_batch`` runs the
    median pass moved by 12% with them, the first quartile by 10%, and the
    sum of per-job minima by 3%.
    """
    return sum(min(times) for times in zip(*job_times))


def machine():
    """Library versions, BLAS and the CLI's default worker count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    decay = cli.build_parser().parse_args(
        ["decay", "--series", "builtin:one_minus_z1", "--alpha", "0", "--nmin", "1", "--nmax", "2"])
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bidisk": bidisk.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
        "blas_threads_effective": blas_threads(),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "cli_default_workers": getattr(decay, "workers", 1),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="time the smallest inputs instead (self-check)")
    parser.add_argument("--wrong-oracle", action="store_true",
                        help="corrupt one oracle value (self-check)")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    if Path(bidisk.__file__).resolve().parent != ROOT / "src" / "bidisk":
        raise SystemExit(f"bidisk imported from {bidisk.__file__}, not from this checkout")
    out_dir = Path(args.out_dir)
    warm = workloads.build(args.workload, args.seed, True, out_dir)
    wl = workloads.build(args.workload, args.seed, args.small, out_dir)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    warm.prepare_oracles()
    wl.prepare_oracles()
    if args.wrong_oracle:
        wl.corrupt_oracle()
    tally = workloads.Tally()
    reference = Reference()
    reference.run()
    run_pass(warm.jobs(), tally)

    untraced, traced, traces, job_times, traced_job_times = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        tracer = tracing.Tracer() if args.trace and len(traced) < len(untraced) else None
        if tracer is not None:
            tracer.install()
        try:
            times = run_pass(wl.jobs(), tally, None if tracer else reference)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is None:
            untraced.append(sum(times))
            job_times.append(times)
        else:
            traced.append(sum(times))
            traced_job_times.append(times)
            traces.append(tracer)
        # Start another pass only if one like the last still ends in time,
        # so a run never overshoots ``--seconds`` by a whole pass.
        if time.perf_counter() + sum(times) > deadline and (traced or not args.trace):
            break

    result = {
        "setup_s": setup_s,
        "passes": untraced,
        "pass_s": fastest_pass(job_times) * REFERENCE_S / min(reference.times),
        "pass_wall_s": fastest_pass(job_times),
        "reference_s": reference.times,
        "job_times": job_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rel_err_max": tally.rel_err_max,
        "cert_ratio_max": tally.cert_ratio_max,
        "failures": tally.failures,
        "machine": machine(),
    }
    if args.trace:
        overhead = fastest_pass(traced_job_times) / result["pass_wall_s"] - 1.0
        per_pass = [tracing.layer_values(t.spans, tally, overhead) for t in traces]
        result["traced_passes"] = traced
        result["layers"] = {
            name: {"value": statistics.median(p[name][0] for p in per_pass), "unit": unit}
            for name, (_, unit) in per_pass[0].items()
        }
        last = traces[-1]
        result["largest_order"] = tracing.largest_order_stages(last.spans)
        result["missing_targets"] = last.missing
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_file, "w") as fh:
            for span in last.spans:
                fh.write(json.dumps(span) + "\n")
        result["spans_file"] = str(spans_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
