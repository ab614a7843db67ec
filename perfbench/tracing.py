"""Spans around the public calls into each ``bidisk`` layer, and the per-layer table.

A :class:`Tracer` replaces a public function with a timing wrapper in its
defining module and in every ``bidisk`` module that binds the same object
(``analysis.solve_optimal``, ``approximants.multiply2``, ``suites.norm2``,
...), so calls made through any of those names are recorded.  Each call
becomes a span ``(id, name, start, end, parent)`` kept in memory; the
benchmark writes them out when the run ends.  A layer's number is the self
time of its spans: the span's duration minus the part of it that child spans
cover, so the self times of all spans partition the traced wall time.

Only public names are wrapped.  A target that a later revision removes is
skipped and reported as missing; its metric then reads 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

# (span name, defining module, attribute, tag function or None).  A tag
# function maps (args, kwargs, result) to a dict stored on the span.
TARGETS = [
    ("approximants.gram_assemble", "bidisk.approximants", "gram_assemble",
     lambda a, k, r: {"unknowns": len(r.basis)}),
    ("approximants.solve_optimal", "bidisk.approximants", "solve_optimal",
     lambda a, k, r: {"n": r.n, "unknowns": len(r.basis)}),
    ("approximants.diagonal_reduce_solve", "bidisk.approximants", "diagonal_reduce_solve",
     lambda a, k, r: {"n": r.n, "unknowns": len(r.basis)}),
    ("approximants.residual_norm_sq", "bidisk.approximants", "residual_norm_sq", None),
    ("approximants.riesz_approximant", "bidisk.approximants", "riesz_approximant", None),
    ("approximants.riesz_diagonal", "bidisk.approximants", "riesz_diagonal", None),
    ("approximants.cesaro", "bidisk.approximants", "cesaro", None),
    ("numpy.linalg.eigvalsh", "numpy.linalg", "eigvalsh", None),
    ("scipy.linalg.cho_factor", "scipy.linalg", "cho_factor", None),
    ("scipy.linalg.cho_solve", "scipy.linalg", "cho_solve", None),
    ("series.multiply2", "bidisk.series", "multiply2", None),
    ("series.multiply1", "bidisk.series", "multiply1", None),
    ("series.reciprocal2", "bidisk.series", "reciprocal2", None),
    ("series.reciprocal1", "bidisk.series", "reciprocal1", None),
    ("spaces.norm2", "bidisk.spaces", "norm2", None),
    ("spaces.norm1", "bidisk.spaces", "norm1", None),
    ("analysis.decay_scan", "bidisk.analysis", "decay_scan", None),
    ("analysis.fit_power", "bidisk.analysis", "fit_power", None),
    ("analysis.fit_log_mode", "bidisk.analysis", "fit_log_mode", None),
    ("analysis.cyclicity_verdict", "bidisk.analysis", "cyclicity_verdict", None),
    ("capacity.energy", "bidisk.capacity", "energy", None),
    ("capacity.annihilation_check", "bidisk.capacity", "annihilation_check", None),
    ("suites.run_suite", "bidisk.suites", "run_suite",
     lambda a, k, r: {"trials": r.trials}),
    ("catalog.resolve_series", "bidisk.catalog", "resolve_series", None),
    ("catalog.resolve_measure", "bidisk.catalog", "resolve_measure", None),
    ("cli.main", "bidisk.cli", "main", lambda a, k, r: {"exit": r}),
]

SOLVES = ("approximants.solve_optimal", "approximants.diagonal_reduce_solve")

# Per-layer metrics: name, unit, better, how it is computed, and the
# prediction it carries -- which end-to-end metric it should move, on which
# workload it is large, and where it is about 0.  ``count`` counts spans,
# ``self`` sums their self time, ``tag`` sums a span tag, ``raised`` counts
# spans that ended in the named exception, ``nonzero`` counts spans that
# raised or whose tag is nonzero, ``check`` reads the oracle tally.
LAYERS = [
    ("approximants.solves", "count", "higher", ("count", SOLVES),
     "context for all", "all"),
    ("approximants.unknowns", "count", "higher", ("tag", ("approximants.gram_assemble",), "unknowns"),
     "context for all", "all"),
    ("approximants.assemble_s", "s", "lower", ("self", ("approximants.gram_assemble",)),
     "pass_s, peak_rss_mb", "full_scan, reduced_scan (pow 2,3); ~0 cli_batch"),
    ("approximants.cond_s", "s", "lower", ("self", ("numpy.linalg.eigvalsh",)),
     "pass_s", "full_scan, reduced_scan; ~0 cli_batch"),
    ("approximants.factor_s", "s", "lower",
     ("self", ("scipy.linalg.cho_factor", "scipy.linalg.cho_solve")),
     "pass_s", "full_scan; small elsewhere"),
    ("approximants.residual_s", "s", "lower", ("self", ("approximants.residual_norm_sq",)),
     "pass_s", "reduced_scan; ~0 full_scan"),
    ("approximants.certify_s", "s", "lower", ("self", SOLVES),
     "pass_s", "reduced_scan; ~0 full_scan"),
    ("approximants.explicit_s", "s", "lower",
     ("self", ("approximants.riesz_approximant", "approximants.riesz_diagonal",
               "approximants.cesaro")),
     "pass_s", "cli_batch only"),
    ("approximants.ridge_retries", "count", "lower",
     ("raised", ("scipy.linalg.cho_factor",), "LinAlgError"),
     "fail_frac", "all"),
    ("approximants.cert_ratio_max", "1", "lower", ("check", "cert_ratio_max"),
     "fail_frac", "all"),
    ("approximants.oracle_rel_err_max", "1", "lower", ("check", "rel_err_max"),
     "fail_frac", "all"),
    ("series.multiply_calls", "count", "lower", ("count", ("series.multiply2", "series.multiply1")),
     "pass_s", "reduced_scan, cli_batch; ~0 full_scan"),
    ("series.multiply_s", "s", "lower", ("self", ("series.multiply2", "series.multiply1")),
     "pass_s", "reduced_scan, cli_batch; ~0 full_scan"),
    ("series.reciprocal_s", "s", "lower", ("self", ("series.reciprocal2", "series.reciprocal1")),
     "pass_s", "reduced_scan, cli_batch; ~0 full_scan"),
    ("spaces.norm_calls", "count", "lower", ("count", ("spaces.norm2", "spaces.norm1")),
     "pass_s", "cli_batch (suites); small elsewhere"),
    ("spaces.norm_s", "s", "lower", ("self", ("spaces.norm2", "spaces.norm1")),
     "pass_s", "cli_batch (suites); small elsewhere"),
    ("analysis.scans", "count", "higher", ("count", ("analysis.decay_scan",)),
     "context for all", "all"),
    ("analysis.scan_self_s", "s", "lower", ("self", ("analysis.decay_scan",)),
     "pass_s", "cli_batch (pool); ~0 elsewhere"),
    ("analysis.fit_s", "s", "lower",
     ("self", ("analysis.fit_power", "analysis.fit_log_mode", "analysis.cyclicity_verdict")),
     "pass_s", "full_scan, reduced_scan (small); 0 cli_batch"),
    ("capacity.energy_s", "s", "lower", ("self", ("capacity.energy",)),
     "pass_s", "cli_batch only"),
    ("capacity.annihilation_s", "s", "lower", ("self", ("capacity.annihilation_check",)),
     "pass_s", "cli_batch only"),
    ("suites.trials", "count", "higher", ("tag", ("suites.run_suite",), "trials"),
     "context", "cli_batch only"),
    ("suites.run_s", "s", "lower", ("self", ("suites.run_suite",)),
     "pass_s", "cli_batch only"),
    ("catalog.resolve_s", "s", "lower",
     ("self", ("catalog.resolve_series", "catalog.resolve_measure")),
     "pass_s", "cli_batch only"),
    ("cli.commands", "count", "higher", ("count", ("cli.main",)),
     "context", "cli_batch only"),
    ("cli.failed", "count", "lower", ("nonzero", ("cli.main",), "exit"),
     "fail_frac", "cli_batch only"),
    ("cli.self_s", "s", "lower", ("self", ("cli.main",)),
     "pass_s", "cli_batch only"),
    ("trace_overhead_frac", "1", "lower", ("overhead",),
     "none (tracing cost)", "all"),
]


class Tracer:
    """Records spans for the wrapped targets while installed."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._patched = []

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A solve on a pool thread belongs to the span the main thread is in.
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def _wrap(self, name, fn, tag):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stacks.setdefault(threading.get_ident(), [])
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            span = {"id": sid, "name": name, "parent": parent, "start": time.perf_counter()}
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["raised"] = type(exc).__name__
                raise
            else:
                if tag is not None:
                    span.update(tag(args, kwargs, result))
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return wrapper

    def install(self):
        bidisk_modules = [m for n, m in sys.modules.items()
                          if m is not None and (n == "bidisk" or n.startswith("bidisk."))]
        for name, module_name, attr, tag in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, tag)
            for mod in [module, *bidisk_modules]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


def self_times(spans):
    """Map span id to its duration minus the union of its children's intervals.

    Children on pool threads can overlap each other; the union counts the
    wall time they cover once.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered, reach = 0.0, lo
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (hi - lo) - covered
    return out


def layer_values(spans, tally, overhead):
    """Every per-layer metric as ``{name: (value, unit)}``."""
    self_t = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    values = {}
    for name, unit, _better, rule, _moves, _where in LAYERS:
        kind = rule[0]
        if kind == "count":
            v = sum(len(by_name[n]) for n in rule[1])
        elif kind == "self":
            v = sum(self_t[s["id"]] for n in rule[1] for s in by_name[n])
        elif kind == "tag":
            v = sum(s.get(rule[2], 0) for n in rule[1] for s in by_name[n])
        elif kind == "raised":
            v = sum(1 for n in rule[1] for s in by_name[n] if s.get("raised") == rule[2])
        elif kind == "nonzero":
            v = sum(1 for n in rule[1] for s in by_name[n] if "raised" in s or s.get(rule[2]))
        elif kind == "check":
            v = getattr(tally, rule[1])
        else:
            v = overhead
        values[name] = (v, unit)
    return values


def largest_order_stages(spans):
    """Mean per-solve self time by span name for the solves at the largest order."""
    solves = [s for s in spans if s["name"] in SOLVES and "n" in s]
    if not solves:
        return None
    n_max = max(s["n"] for s in solves)
    top = [s for s in solves if s["n"] == n_max]
    self_t = self_times(spans)
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    stages = defaultdict(float)
    todo = list(top)
    while todo:
        s = todo.pop()
        stages[s["name"]] += self_t[s["id"]] / len(top)
        todo.extend(kids[s["id"]])
    return {
        "n": n_max,
        "unknowns": top[0]["unknowns"],
        "solves": len(top),
        "total_s": sum(s["end"] - s["start"] for s in top) / len(top),
        "self_s": dict(sorted(stages.items(), key=lambda kv: -kv[1])),
    }
