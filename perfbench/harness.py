"""One benchmark run: set-up, timed solves, verification and the metrics.

A run generates ``instances`` instance texts from the seed, then spends its
seconds measuring:

* solves, visiting the instances round robin; per visit one checked solve
  (``check=True``, the CLI's only mode) and one unchecked solve
  (``check=False``).  Around each solve a fixed reference loop that does not
  touch locround is timed too, and ``solve_ref`` and ``unchecked_solve_ref``
  are the medians of solve time over reference time.  On a shared host the
  speed of the whole machine drifts by tens of percent for minutes at a time;
  the ratio cancels that drift, and the raw seconds stay in the record;
* set-up: each text parsed into program objects once before the first visit
  and again after each visit for a tenth of the visit's solve time;
  ``setup_s`` is the median.

Every solve is verified with ``locround.oracle`` scans and the paper's
bounds, and hashed; all solves of one instance must give the same digest.
A failed solve, scan or digest counts in ``failed`` and the run goes on.

A traced run visits with an untraced checked solve, a traced checked solve
and an unchecked solve, and reports per-layer figures of the traced solves:
self seconds and calls per solve, averaged per instance and then over
instances.  Those self times plus ``other.self_s`` add up to
``trace.solve_s``, which the run checks.
"""

from __future__ import annotations

import gc
import os
import platform
import random
import resource
import statistics
import time
import traceback
from fractions import Fraction

import locround

from tracing import LAYER_PREFIXES, Tracer
from workloads import digest

SETUP_SHARE = 0.1          # set-up time per visit, as a share of its solves
MAX_SETUPS_PER_VISIT = 50

# per-layer prefixes whose call count has its own name
CALL_NAMES = {"rounding.step": "rounding.steps",
              "setcover.iteration": "setcover.live_iterations"}
ITERATION_METRICS = ("mis.iterations", "indepset.outer_iterations")


def environment():
    return {"kernel_backend": locround.kernel_backend,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def reference():
    """Fixed pure-Python work, about 20 ms on a 2.1 GHz Xeon: exact rationals
    and dict churn, like the solves, but no locround code."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 4000):
        acc += Fraction(i % 97, i)
        table[i] = (i * i) % 1009
    return acc, max(table.values())


def _mean(figures):
    """Key-wise mean of a list of dicts with the same keys."""
    return {k: statistics.fmean(f[k] for f in figures) for k in figures[0]}


class Run:
    """One run of one workload; ``execute`` then ``result``."""

    def __init__(self, wl, seed, seconds, trace, smoke=False):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        rng = random.Random(seed)
        self.texts = [wl.generate(rng, smoke) for _ in range(wl.instances)]
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}           # instance -> digest of its first solve
        self.quality = {}           # instance -> Fraction
        self.times = {"checked": [], "unchecked": [], "traced": []}
        self.ratios = {"checked": [], "unchecked": [], "traced": []}
        self.ref_times = []
        self.by_instance = {"checked": {}, "traced": {}}    # instance -> [ratio]
        self.traced_roots = {}      # instance -> [(root id, metrics, cert)]
        self.setup_times = []
        self.setup_roots = []
        self.visits = 0
        self.elapsed = 0.0

    def _timed(self, fn, traced, root):
        if not traced:
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0, None
        with self.tracer.installed(), self.tracer.root(root) as sid:
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
        return out, dt, sid

    def _setup(self, text):
        """Ingest ``text`` once, timed (and traced in a traced run)."""
        problem, dt, sid = self._timed(lambda: self.wl.setup(text),
                                       self.trace, "setup")
        self.setup_times.append(dt)
        if sid is not None:
            self.setup_roots.append(sid)
        return problem

    def _more_setups(self, text, budget):
        """Untraced set-up repeats for ``budget`` seconds, so that the
        set-up samples spread over the whole run like the solves."""
        gc.collect()
        end = time.perf_counter() + budget
        for _ in range(MAX_SETUPS_PER_VISIT):
            if time.perf_counter() >= end:
                return
            self._setup(text)

    def _fail(self, kind, i, why):
        self.failed += 1
        self.failures.append(f"{kind} solve of instance {i}: {why}")

    def _reference(self):
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        self.ref_times.append(dt)
        return dt

    def _solve(self, problem, i, kind):
        self.attempted += 1
        gc.collect()
        before = self._reference()
        try:
            (out, metrics, cert), dt, sid = self._timed(
                lambda: self.wl.solve(problem, kind != "unchecked"),
                kind == "traced", "solve")
        except Exception as exc:     # a failing solve is counted, not fatal
            self._fail(kind, i, "".join(
                traceback.format_exception_only(exc)).strip())
            return
        ratio = dt / ((before + self._reference()) / 2)
        quality, error = self.wl.verify(problem, out, cert)
        d = digest(out, metrics, cert)
        ref = self.digests.setdefault(i, d)
        if error is not None:
            self._fail(kind, i, error)
        elif d != ref:
            self._fail(kind, i, f"digest {d[:16]} differs from {ref[:16]}")
        else:
            self.quality[i] = quality
            self.times[kind].append(dt)
            self.ratios[kind].append(ratio)
            if kind in self.by_instance:
                self.by_instance[kind].setdefault(i, []).append(ratio)
            if sid is not None:
                self.traced_roots.setdefault(i, []).append((sid, metrics, cert))

    def execute(self):
        start = time.perf_counter()
        deadline = start + self.seconds
        problems = []
        for text in self.texts:
            gc.collect()
            problems.append(self._setup(text))
        kinds = (["checked", "traced", "unchecked"] if self.trace
                 else ["checked", "unchecked"])
        while True:
            now = time.perf_counter()
            per_visit = (now - start) / self.visits if self.visits else 0.0
            if self.visits >= len(problems) and now + per_visit > deadline:
                break
            i = self.visits % len(problems)
            for kind in kinds:
                self._solve(problems[i], i, kind)
            if not self.trace:
                self._more_setups(self.texts[i],
                                  SETUP_SHARE * (time.perf_counter() - now))
            self.visits += 1
        self.elapsed = time.perf_counter() - start

    # -- metrics ----------------------------------------------------------------

    def end_to_end(self):
        def med(xs):
            return statistics.median(xs) if xs else 0.0

        q = list(self.quality.values())
        return {
            "setup_s": med(self.setup_times),
            "solve_ref": med(self.ratios["checked"]),
            "unchecked_solve_ref": med(self.ratios["unchecked"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "quality": float(sum(q) / len(q)) if q else 0.0,
        }

    def _solve_figures(self, part, sid, metrics, cert):
        """The layer figures of one traced solve."""
        duration, _incl, self_s, calls = part
        fig = dict.fromkeys(ITERATION_METRICS, 0)
        for prefix in LAYER_PREFIXES:
            if prefix != "graph.ingest":
                fig[prefix + "_s"] = self_s.get(prefix, 0.0)
                fig[CALL_NAMES.get(prefix, prefix + "_calls")] = calls.get(prefix, 0)
        fig["other.self_s"] = self_s["solve"]
        fig["trace.solve_s"] = duration
        fig["oracle.lp_cells"] = self.tracer.counters[sid]["oracle.lp_cells"]
        fig["sim.rounds"] = metrics.total_rounds
        fig["sim.max_bits"] = metrics.max_bits_per_edge_round
        fig["sim.violations"] = len(metrics.budget_violations)
        if self.wl.iterations_metric:
            fig[self.wl.iterations_metric] = cert["iterations"]
        return fig

    def per_layer(self):
        """Per-solve layer figures: the mean over each instance's traced
        solves, then the mean over the instances, so every instance weighs
        the same.  Counts repeat exactly from run to run, because all solves
        of one instance make the same calls."""
        instances = sorted(self.traced_roots)
        if not instances:
            return {}
        parts = self.tracer.breakdown()
        out = _mean([
            _mean([self._solve_figures(parts[sid], sid, metrics, cert)
                   for sid, metrics, cert in self.traced_roots[i]])
            for i in instances])
        setups = [parts[sid] for sid in self.setup_roots]
        out["graph.ingest_s"] = statistics.fmean(
            incl.get("graph.ingest", 0.0) for _d, incl, _s, _c in setups)
        out["graph.ingest_calls"] = statistics.fmean(
            calls.get("graph.ingest", 0) for _d, _i, _s, calls in setups)
        steps = out["rounding.steps"]
        out["rounding.potential_per_step"] = (
            out["rounding.potential_calls"] / steps if steps else 0.0)
        traced = sum(statistics.fmean(self.by_instance["traced"][i])
                     for i in instances)
        plain = sum(statistics.fmean(self.by_instance["checked"][i])
                    for i in instances if i in self.by_instance["checked"])
        out["trace_overhead"] = traced / plain - 1 if plain else 0.0
        self._check_additivity(out)
        return out

    def _check_additivity(self, layer):
        total = layer["other.self_s"] + sum(
            layer[p + "_s"] for p in LAYER_PREFIXES if p != "graph.ingest")
        solve = layer["trace.solve_s"]
        if abs(total - solve) > 1e-9 * (1 + solve):
            self.failures.append(f"layer self times sum to {total!r}, "
                                 f"traced solve_s is {solve!r}")

    def result(self, declared):
        """The result object: ``declared`` maps metric names to units."""
        values = self.per_layer() if self.trace else self.end_to_end()
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        if missing or extra:
            self.failures.append(f"metrics missing {missing}, undeclared {extra}")
        return {"correct": not self.failures,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                            for name, unit in declared.items()}}

    def record(self, result):
        """Everything a later comparison needs, as one JSON-ready dict."""
        rec = {
            "workload": self.wl.name, "seed": self.seed,
            "seconds": self.seconds, "trace": self.trace,
            "environment": environment(),
            "instances": len(self.texts), "visits": self.visits,
            "elapsed_s": self.elapsed,
            "fail_rate": result["failed"] / result["attempted"],
            "failures": self.failures,
            "digests": {str(i): d for i, d in sorted(self.digests.items())},
            "quality": {str(i): str(q) for i, q in sorted(self.quality.items())},
            "samples": {"setup_s": self.setup_times,
                        "reference_s": self.ref_times,
                        **{f"{k}_solve_s": v for k, v in self.times.items()},
                        **{f"{k}_solve_ref": v for k, v in self.ratios.items()}},
            "result": result,
        }
        if self.trace:
            rec["spans"] = {"fields": ["id", "parent", "name", "start", "end"],
                            "spans": self.tracer.spans}
        return rec
