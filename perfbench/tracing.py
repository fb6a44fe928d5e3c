"""In-memory span tracer for the layers of ``locround``.

The tracer wraps layer-boundary functions by replacing module and class
attributes for the duration of a ``with tracer.installed():`` block.  The
library looks these names up through the module (``_rounding.rounding_step``,
``_K.eval_potential``, ...) at call time, so no library source changes.

Each wrapped call records one span ``(id, parent id, name, start, end)``.
Spans stay in memory and are written out by the caller when the run ends.
A span's self time is its duration minus the durations of its direct
children; the self time of a root span (``solve`` or ``setup``) is the time
no layer span covers.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from locround import coloring, graph, indepset, mis, oracle, rounding, setcover
from locround import _kernel

_K = _kernel.impl

# (metric prefix, owner, attribute, optional per-call counter)
# One prefix may cover several functions; every prefix yields ``<prefix>_s``
# (self seconds per solve) and ``<prefix>_calls`` (calls per solve).
BOUNDARIES = [
    ("graph.ingest", graph, "parse_edge_list"),
    ("graph.ingest", graph, "parse_setcover"),
    ("graph.line_graph", graph, "line_graph_view"),
    ("graph.simple_graph", graph, "simple_graph"),
    ("coloring.defective", coloring, "defective_colors_for_rounding"),
    ("coloring.proper", coloring, "linial_coloring"),
    ("coloring.proper", coloring, "three_color_paths_cycles"),
    ("coloring.proper", coloring, "proper_colors_for_rounding"),
    ("kernel.eval_potential", _K, "eval_potential"),
    ("kernel.edge_weights", _K, "edge_weights_for_step"),
    ("kernel.color_loop", _K, "rounding_color_loop"),
    ("kernel.rs_step", _K, "rs_defective_step"),
    ("kernel.rs_step", _K, "rs_proper_step"),
    ("kernel.reduce_colors", _K, "reduce_colors_by_orderings"),
    ("kernel.plan_schedule", _K, "plan_defective_schedule"),
    ("kernel.plan_schedule", _K, "plan_proper_schedule"),
    ("rounding.prepare", rounding._Prepared, "__init__"),
    ("rounding.preprocess", rounding, "preprocess_fractional"),
    ("rounding.step", rounding, "rounding_step"),
    ("rounding.potential", rounding._Prepared, "potential"),
    ("rounding.potential", rounding, "evaluate"),
    ("mis.classify", mis, "classify_and_select_instar"),
    ("mis.valuation", mis, "build_mis_valuation"),
    ("indepset.uc", indepset, "_uc_at"),
    ("indepset.is_valuation", indepset, "is_valuation"),
    ("indepset.extract", indepset, "extract_is"),
    ("indepset.edge_coloring", indepset, "edge_coloring_sq"),
    ("indepset.freeze", indepset, "fractional_matching_doubling_freeze"),
    ("setcover.fractional_cover", setcover, "fractional_cover"),
    ("setcover.iteration", setcover, "cover_iteration"),
    ("setcover.valuation", setcover, "_iteration_valuation"),
    ("setcover.two_hop", setcover, "_two_hop_set_coloring"),
    ("oracle.simplex", oracle, "simplex_max",
     ("oracle.lp_cells", lambda c, A, *rest, **kw: len(A) * len(c))),
    ("oracle.scan", oracle, "is_maximal_is"),
    ("oracle.scan", oracle, "is_maximal_matching"),
    ("oracle.scan", oracle, "covers"),
    ("oracle.scan", oracle, "is_independent"),
]

LAYER_PREFIXES = sorted({b[0] for b in BOUNDARIES})


class Tracer:
    """Collects spans, and per-root counters, while installed."""

    def __init__(self):
        self.spans = []                           # [id, parent, name, start, end]
        self.counters = defaultdict(lambda: defaultdict(int))   # root -> name -> n
        self._stack = []

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """A root span (``setup`` or ``solve``) around the block; yields its id."""
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None and tracer._stack:
                tracer.counters[tracer._stack[0]][counter[0]] += counter[1](
                    *args, **kwargs)
            sid = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every boundary with a recording wrapper inside the block."""
        originals = []
        try:
            for entry in BOUNDARIES:
                name, owner, attr = entry[:3]
                counter = entry[3] if len(entry) > 3 else None
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def breakdown(self):
        """Per root span id: (duration, inclusive seconds by name, self
        seconds by name, calls by name).  The root's own self time is filed
        under the root's name."""
        child = defaultdict(float)
        for _sid, parent, _name, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {}
        root_of = {}
        for sid, parent, name, t0, t1 in self.spans:
            if parent is None:
                root_of[sid] = sid
                out[sid] = (t1 - t0, defaultdict(float), defaultdict(float),
                            defaultdict(int))
            else:
                root_of[sid] = root_of[parent]
                out[root_of[sid]][3][name] += 1
            _dur, incl, self_s, _calls = out[root_of[sid]]
            incl[name] += t1 - t0
            self_s[name] += (t1 - t0) - child[sid]
        return out
