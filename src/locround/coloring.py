"""Proper and defective colorings on plain multigraphs and d2-multigraphs.

The fast weighted defective coloring runs candidate-set steps built from
Reed-Solomon codes: step j maps the current coloring into (position, value)
pairs of degree-d polynomial evaluations over a prime field F_q, and every
node takes the candidate minimizing the (estimated) weight of bichromatic
edges to neighbors sharing it.  Distinct polynomials agree on at most d of
the q positions, so the best candidate conflicts with at most a d/q
fraction of the incident weight; the step budgets follow the
s_i = 2^(t-i+1)/delta schedule with the extra coarse step 0 at s_0 = 4/delta.

The average defective coloring reduces the resulting palette to one prime p
over p steps: stage-one color c maps to the sequence z(i) = a*i + b mod p
with (a, b) = (1 + c//p, c%p); two distinct sequences coincide at most
once, and a node commits to z(i) when less than a quarter (an eighth under
factor-2 estimates) of its delta-fraction conflict budget is blocked.

The public colorings and the rounding step's entry points run the same
three loops (stage one, reduction, proper) over one graph packing per
call.  Each loop returns (colors, palette, declared rounds, max message
bits), and the caller declares those figures once on its engine.  The
defective colorings take a required engine, whose mode selects exact
(LOCAL) or factor-2 (CONGEST) conflict estimates; the proper colorings
take an optional one.  An initial coloring is a node -> color mapping
with palette max + 1; without one, the node ids start the loops.

Every returned coloring carries a certificate recomputed by an independent
scan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import sim as _sim
from ._kernel import impl as _K

ID_SPACE = 1 << 63


class ColoringError(ValueError):
    pass


@dataclass
class ProperColoring:
    colors: dict
    palette_size: int
    rounds: int = 0


@dataclass
class DefectiveColoring:
    colors: dict
    palette_size: int
    defect_kind: str              # "per-node" | "average"
    relative_defect: Fraction = Fraction(0)
    certificate: dict = field(default_factory=dict)
    rounds: int = 0


# ---------------------------------------------------------------------------
# graph packing and the coloring loops
# ---------------------------------------------------------------------------


class _Packing:
    """Dense arrays of a multigraph for the coloring kernels.

    Node ``i`` is ``nodes[i]``; edge ``j`` joins ``eu[j]`` and ``ev[j]``, is
    managed by node ``mgr[j]`` (-1 when it has no manager among the nodes)
    and carries edge index ``eidx[j]``.  ``agree_cache`` memoizes the
    candidate agreements of color pairs across Reed-Solomon steps and may
    be shared between packings.
    """

    def __init__(self, g, agree_cache=None):
        self.nodes = list(g.nodes)
        index = self.index = {v: i for i, v in enumerate(self.nodes)}
        self.nv = len(self.nodes)
        self.eu, self.ev, self.mgr, self.eidx = [], [], [], []
        for e in g.edges:
            self.eu.append(index[e.u])
            self.ev.append(index[e.v])
            self.mgr.append(-1 if e.manager is None else index.get(e.manager, -1))
            self.eidx.append(e.index)
        self.agree_cache = {} if agree_cache is None else agree_cache
        self._agreements = {}

    def agreements(self, colors, q, d):
        """Per-edge candidate agreements of ``colors`` at step (q, d),
        walked once per (q, d) and input coloring, compared by value: the
        steps of one rounding schedule share the plan and the start
        coloring."""
        hit = self._agreements.get((q, d))
        if hit is None or hit[0] != colors:
            hit = self._agreements[q, d] = (list(colors), _K.edge_agreements(
                self.eu, self.ev, colors, q, d,
                self.agree_cache.setdefault((q, d), {})))
        return hit[1]

    def start(self, initial):
        """Initial colors, palette and span: the node ids with palette
        2^63, or the colors of the mapping ``initial`` with palette max + 1;
        the span is their (min, max), None when there are none."""
        if initial is None:
            colors, palette = list(self.nodes), ID_SPACE
        else:
            colors = [initial[v] for v in self.nodes]
            palette = max(colors) + 1
        return colors, palette, _span(colors)

    def mapping(self, colors):
        return dict(zip(self.nodes, colors))


def _weights_to_ints(weights, eidx):
    scale = 1
    for i in eidx:
        d = Fraction(weights.get(i, 0)).denominator
        scale = scale * d // math.gcd(scale, d)
    w = [int(Fraction(weights.get(i, 0)) * scale) for i in eidx]
    if any(x < 0 for x in w):
        raise ColoringError("edge weights must be non-negative")
    return w


def _check_initial(g, initial):
    """Reject an initial coloring that misses a node of ``g``, holds a
    negative color or gives both endpoints of an edge one color."""
    if initial is None:
        return
    for v in g.nodes:
        if v not in initial:
            raise ColoringError(f"initial coloring misses node {v}")
        if initial[v] < 0:
            raise ColoringError(f"initial color {initial[v]} of node {v} "
                                f"is negative")
    if not check_proper(g, initial):
        raise ColoringError("initial coloring gives both endpoints of an "
                            "edge one color")


def _span(colors):
    return (min(colors), max(colors)) if colors else None


def _below(span, bound):
    """Whether every color of a coloring with ``span``, its (min, max) or
    None when it has no colors, lies in [0, bound)."""
    return span is None or (span[0] >= 0 and span[1] < bound)


def _stage_one(pk, weights, delta, factor2, start):
    """Per-node delta-relative defective coloring by Reed-Solomon
    candidate-set steps, two declared rounds each, from ``start``, the
    packing's start colors, palette and span (``_Packing.start``).
    ``weights()`` returns the packing's integer edge weights and node
    weights (which count toward node totals but never conflict); it is
    called only by a step that reads them.

    A step whose colors all lie in [0, q) keeps them: each color's digit
    polynomial is then the constant c, distinct colors never agree, and
    the step would pick z = 0 at every node.  Such a step walks no
    agreements and estimates nothing (1 bit).

    Returns (colors, their span, palette, rounds, max message bits).
    """
    colors, palette, span = start
    dd = delta.denominator * (2 if factor2 else 1)
    rounds, max_bits = 0, 1
    for (q, d, _bn, _bd) in _K.plan_defective_schedule(palette,
                                                       delta.numerator, dd):
        if _below(span, q):
            mb = 1
        else:
            colors, mb = _K.rs_defective_step(
                pk.nv, pk.eu, pk.ev, pk.mgr, weights()[0], colors, q, d,
                factor2, pk.agreements(colors, q, d))
            span = _span(colors)
        palette = q * q
        rounds += 2
        max_bits = max(max_bits, mb + 9, 2 + palette.bit_length())
    return colors, span, palette, rounds, max_bits


def _reduce(pk, weights, colors, span, ncolors, delta, factor2):
    """Prime-ordering reduction of a stage-one coloring with ``ncolors``
    colors and span ``span`` to p colors over p steps, commit threshold
    delta/4 (delta/8 under factor-2 estimates), two declared rounds per
    step.  When every color lies in [0, p) the reduction returns its
    input, so the kernel and ``weights()`` are called only otherwise.

    Returns (colors, p, rounds, max message bits).
    """
    thr_den = 4 * delta.denominator * (2 if factor2 else 1)
    p = _K.reduction_prime(ncolors, delta.numerator, thr_den)
    if not _below(span, p):
        w, nodew = weights()
        colors, p, _last = _K.reduce_colors_by_orderings(
            pk.nv, pk.eu, pk.ev, pk.mgr, w, nodew, colors, ncolors,
            delta.numerator, thr_den, factor2)
    return colors, p, 2 * p, 11 + p.bit_length()


def _proper(pk, start, max_degree):
    """Conflict-free candidate-set steps for edge degree ``max_degree``,
    one declared round each, from the packing's ``start`` colors, palette
    and span (``_Packing.start``).

    Returns (colors, palette, rounds, max message bits over the steps).
    """
    colors, palette, _lohi = start
    rounds, max_bits = 0, 0
    for (q, d) in _K.plan_proper_schedule(palette, max_degree):
        colors = _K.rs_proper_step(pk.nv, pk.eu, pk.ev, colors, q, d,
                                   pk.agreements(colors, q, d))
        palette = q * q
        rounds += 1
        max_bits = max(max_bits, 2 + palette.bit_length())
    return colors, palette, rounds, max_bits


# ---------------------------------------------------------------------------
# certificates (independent scans)
# ---------------------------------------------------------------------------


def defect_certificate(g, weights, colors, delta, kind):
    """Recompute the defect certificate from scratch.

    Returns (ok, certificate dict) where the certificate lists, per node or
    globally, monochromatic against total incident weight.
    """
    delta = Fraction(delta)
    mono = {v: Fraction(0) for v in g.nodes}
    tot = {v: Fraction(0) for v in g.nodes}
    for e in g.edges:
        w = Fraction(weights.get(e.index, 0))
        tot[e.u] += w
        tot[e.v] += w
        if colors[e.u] == colors[e.v]:
            mono[e.u] += w
            mono[e.v] += w
    if kind == "per-node":
        ok = all(mono[v] <= delta * tot[v] for v in g.nodes)
        return ok, {"per_node_mono": mono, "per_node_total": tot}
    mono_sum = sum(mono.values())
    tot_sum = sum(tot.values())
    ok = mono_sum <= delta * tot_sum
    return ok, {"mono_weight": mono_sum, "total_weight": tot_sum}


def check_proper(g, colors):
    for e in g.edges:
        if colors[e.u] == colors[e.v]:
            return False
    return True


# ---------------------------------------------------------------------------
# public coloring operations
# ---------------------------------------------------------------------------


def linial_coloring(g, initial=None, engine=None):
    """Proper coloring with O(max_degree^2) colors by conflict-free
    candidate-set steps (documented palette bound: (2*Delta + 66)^2)."""
    pk = _Packing(g)
    if not pk.nodes:
        return ProperColoring({}, 1)
    _check_initial(g, initial)
    colors, palette, rounds, max_bits = _proper(pk, pk.start(initial),
                                                g.max_degree())
    if engine is not None:
        engine.account(max_bits, rounds)
    out = ProperColoring(pk.mapping(colors), palette, rounds)
    if not check_proper(g, out.colors):
        raise AssertionError("candidate-set coloring produced a conflict")
    return out


def three_color_paths_cycles(g):
    """Proper 3-coloring of a graph with maximum degree 2."""
    for v in g.nodes:
        if g.degree(v) > 2:
            raise ColoringError(f"node {v} has degree > 2")
    pk = _Packing(g)
    if not pk.nodes:
        return ProperColoring({}, 3)
    colors, _palette, rounds, _bits = _proper(pk, pk.start(None), 2)
    # shrink to 3 colors: iterate colors downward, recolor greedily
    adj = [[] for _ in pk.nodes]
    for a, b in zip(pk.eu, pk.ev):
        adj[a].append(b)
        adj[b].append(a)
    for c in range(max(colors), 2, -1):
        for v in range(pk.nv):
            if colors[v] == c:
                used = {colors[u] for u in adj[v]}
                colors[v] = min(x for x in range(3) if x not in used)
        rounds += 1
    out = ProperColoring(pk.mapping(colors), 3, rounds)
    if not check_proper(g, out.colors):
        raise AssertionError("3-coloring produced a conflict")
    return out


def _check_delta(delta):
    """``delta`` as a fraction, required in (0, 1]."""
    delta = Fraction(delta)
    if not (0 < delta <= 1):
        raise ColoringError("delta must be in (0, 1]")
    return delta


def _certified(g, weights, out):
    """``out`` with the certificate of its colors, recomputed by
    ``defect_certificate``; raises ``AssertionError`` when it fails."""
    ok, out.certificate = defect_certificate(
        g, weights, out.colors, out.relative_defect, out.defect_kind)
    if not ok:
        raise AssertionError(f"defective coloring violated its "
                             f"{out.defect_kind} certificate")
    return out


def weighted_defective_coloring(g, weights, delta, engine, initial=None):
    """Weighted per-node delta-relative defective coloring with O(1/delta^2)
    colors (documented bound: palette <= (2^16/delta)^2 / 2^16, i.e.
    K/delta^2 with K = 2^16), declared on ``engine``; conflict weights are
    estimated to factor 2 when its mode is CONGEST."""
    return _defective(g, weights, delta, engine, initial, "per-node")


def average_defective_coloring(g, weights, delta, engine, initial=None):
    """Weighted average delta-relative defective coloring with a prime
    palette p > 8/delta (16/delta under CONGEST's factor-2 estimates),
    declared on ``engine``: a certified (delta/2)-relative per-node
    defective coloring followed by the p-step ordering reduction with
    commit threshold delta/4."""
    return _defective(g, weights, delta, engine, initial, "average")


def _defective(g, weights, delta, engine, initial, kind):
    """The public defective coloring of ``kind`` over one packing of
    ``g``: stage one, certified per node at delta (delta/2 for the
    average kind, which then runs the reduction), each loop declared on
    ``engine``."""
    delta = _check_delta(delta)
    pk = _Packing(g)
    if not pk.nodes:
        return DefectiveColoring({}, 1, kind, delta)
    w = _weights_to_ints(weights, pk.eidx)
    _check_initial(g, initial)
    nodew = [0] * pk.nv
    factor2 = engine.mode == _sim.CONGEST
    d1 = delta / 2 if kind == "average" else delta
    colors, span, palette, rounds, max_bits = _stage_one(
        pk, lambda: (w, nodew), d1, factor2, pk.start(initial))
    engine.account(max_bits, rounds)
    out = _certified(g, weights, DefectiveColoring(
        pk.mapping(colors), palette, "per-node", d1, rounds=rounds))
    if kind != "average":
        return out
    colors, p, rounds2, max_bits = _reduce(
        pk, lambda: (w, nodew), colors, span, palette, delta, factor2)
    engine.account(max_bits, rounds2)
    return _certified(g, weights, DefectiveColoring(
        pk.mapping(colors), p, "average", delta, rounds=rounds + rounds2))


def greedy_defective_oracle(g, weights, delta, initial=None):
    """Slow reference defective coloring: iterate the classes of a proper
    coloring, each node picking the color with least committed conflicting
    weight, then local-improvement passes until every node's relative
    defect is at most delta.  Palette ceil(1/delta) + 1."""
    delta = _check_delta(delta)
    _check_initial(g, initial)
    pk = _Packing(g)
    if not pk.nodes:
        return DefectiveColoring({}, 1, "per-node", delta)
    w = _weights_to_ints(weights, pk.eidx)
    ncolors = -(-delta.denominator // delta.numerator) + 1   # ceil(1/delta) + 1
    adj = [[] for _ in pk.nodes]
    for j, (a, b) in enumerate(zip(pk.eu, pk.ev)):
        adj[a].append((b, w[j]))
        adj[b].append((a, w[j]))
    tot = [sum(wt for (_u, wt) in adj[v]) for v in range(pk.nv)]
    cols = pk.start(initial)[0]
    order_key = [(cols[i], i) for i in range(pk.nv)]
    colors = [-1] * pk.nv
    rounds = 0

    def best_color(v):
        conf = [0] * ncolors
        for (u, wt) in adj[v]:
            if colors[u] >= 0:
                conf[colors[u]] += wt
        best = min(range(ncolors), key=lambda c: (conf[c], c))
        return best, conf[best]

    for (_key, v) in sorted(order_key):
        colors[v], _ = best_color(v)
        rounds += 1
    # local improvement to the per-node guarantee
    for _pass in range(1 + sum(w)):
        dirty = False
        for v in range(pk.nv):
            mono = sum(wt for (u, wt) in adj[v] if colors[u] == colors[v])
            if mono * delta.denominator > delta.numerator * tot[v]:
                c, new = best_color(v)
                if new < mono:
                    colors[v] = c
                    dirty = True
        rounds += 1
        if not dirty:
            break
    return _certified(g, weights, DefectiveColoring(
        pk.mapping(colors), ncolors, "per-node", delta, rounds=rounds))


# ---------------------------------------------------------------------------
# entry points for the rounding step (a packing, integer weights)
# ---------------------------------------------------------------------------


def defective_colors_for_rounding(pk, weights, delta, factor2, start):
    """Average (delta)-relative defective coloring over a packing, from
    its ``start`` colors, palette and span (``_Packing.start``), which a
    rounding schedule builds once for all its steps.  ``weights()``
    returns the integer edge weights and the node-level weights, which
    count toward totals but never conflict.  It is called at most once,
    and only when a Reed-Solomon step or the reduction reads weights:
    start colors below the field size settle every loop without them.
    The start colors are not checked here; ``round_to_integral`` checks
    its initial coloring once per schedule.

    Returns (colors list, palette p, declared rounds, max message bits);
    the list is the start colors when no loop recolored.
    """
    delta = Fraction(delta)
    weights = functools.cache(weights)
    colors, span, palette, rounds1, bits1 = _stage_one(
        pk, weights, delta / 2, factor2, start)
    colors, p, rounds2, bits2 = _reduce(pk, weights, colors, span, palette,
                                        delta, factor2)
    return colors, p, rounds1 + rounds2, max(bits1, bits2)


def proper_colors_for_rounding(pk, start):
    """Proper coloring over a rounding packing, which keeps its graph as
    ``pk.g`` (used by delta = 0 rounding), from its ``start`` colors,
    palette and span."""
    return _proper(pk, start, pk.g.max_degree())
