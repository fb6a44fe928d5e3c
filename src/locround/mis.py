"""Derandomized Luby iterations to a maximal independent set.

Each iteration on the residual graph: orient edges by (degree, id), call a
node good when at least a third of its edges come in, pick a greedy
in-neighbor subset IN*(v) with marking mass in [1/60, 4/60], and round the
fractional marking x_v = 1/(20 deg(v)) against the pessimistic estimator

    u(x) = sum_{good v} (deg(v)/2) sum_{u in IN*(v)} x_u
    c(x) = sum_{good v} (deg(v)/2) ( sum_{u != u' in IN*(v)} x_u x_u'
                                   + sum_{u in IN*(v), w in OUT(u)} x_u x_w )

on the d2-multigraph whose virtual edges join IN*(v)-mates (managed by v).
Marked nodes without a marked out-neighbor join the set; they and their
neighbors leave the graph.  Every iteration removes at least a 1/500
fraction of the remaining edges, which is asserted along with the exact
potential facts behind it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import graph as _graph
from . import oracle as _oracle
from . import rounding as _rounding
from . import sim as _sim


class MisInvariantError(AssertionError):
    pass


@dataclass
class LubyIteration:
    """One Luby iteration.  ``mark_num[v] / mark_den`` is the marking
    probability of v, 1/(20 deg(v)): the marks are integers over one
    denominator."""

    nodes: list
    degree: dict
    in_nbrs: dict
    out_nbrs: dict
    good_nodes: list
    in_star: dict
    mark_num: dict
    mark_den: int

    def check(self):
        good = set(self.good_nodes)
        for v in self.nodes:
            if (v in good) != (3 * len(self.in_nbrs[v]) >= self.degree[v]):
                raise MisInvariantError(f"goodness misclassified at {v}")
        num = self.mark_num.__getitem__
        den = self.mark_den
        for v in self.good_nodes:
            s = sum(map(num, self.in_star[v]))
            if not (den <= 60 * s <= 4 * den):     # 1/60 <= s/den <= 4/60
                raise MisInvariantError(f"IN*({v}) mass {Fraction(s, den)} "
                                        f"outside [1/60, 4/60]")
        for u in self.nodes:
            s = sum(map(num, self.out_nbrs[u]))
            if 20 * s > den:                        # s/den > 1/20
                raise MisInvariantError(f"OUT({u}) mass {Fraction(s, den)} "
                                        f"exceeds 1/20")


def _adjacency(g):
    adj = {v: set() for v in g.nodes}
    for e in g.edges:
        adj[e.u].add(e.v)
        adj[e.v].add(e.u)
    return adj


def classify_and_select_instar(adj):
    """Goodness and greedy IN* selection on an adjacency dict."""
    nodes = sorted(v for v in adj if adj[v])
    degree = {v: len(adj[v]) for v in nodes}
    in_nbrs = {}
    out_nbrs = {}
    for v in nodes:
        key_v = (degree[v], v)
        ins = []
        outs = []
        for u in sorted(adj[v]):
            if (degree[u], u) < key_v:
                ins.append(u)
            else:
                outs.append(u)
        in_nbrs[v] = ins
        out_nbrs[v] = outs
    # 1/(20 deg(v)) is (D // deg(v)) / (20 D), D the lcm of the degrees
    D = math.lcm(*set(degree.values()))
    mark_num = {v: D // d for v, d in degree.items()}
    good = [v for v in nodes if 3 * len(in_nbrs[v]) >= degree[v]]
    in_star = {}
    for v in good:
        acc = 0
        chosen = []
        for u in in_nbrs[v]:     # ascending id
            if 3 * acc >= D:     # mass acc / (20 D) reached 1/60
                break
            chosen.append(u)
            acc += mark_num[u]
        in_star[v] = chosen
    it = LubyIteration(nodes, degree, in_nbrs, out_nbrs, good, in_star,
                       mark_num, 20 * D)
    it.check()
    return it


def build_mis_valuation(it):
    """The d2-multigraph H and the utility/cost valuation of one iteration.

    Physical edges carry the (u, OUT(u)) cost terms aggregated per pair;
    virtual edges carry the IN*(v)-pair terms, one edge per (manager, pair).
    Labels: 0 unmarked, 1 marked.  Every entry is a multiple of deg(v)/2,
    so the tables are built at scale 2.

    The edge (u, w), w in OUT(u), collects deg(v)/2 for every v with u in
    IN*(v), which sums to u's node utility; w in OUT(u) puts u outside
    OUT(w), so no pair is reached from both ends.
    """
    virt = []
    node_util = {}
    for v in it.good_nodes:
        half = it.degree[v]          # deg(v)/2 at scale 2
        star = it.in_star[v]
        for u in star:
            node_util[u] = node_util.get(u, 0) + half
        for i in range(len(star)):
            for j in range(i + 1, len(star)):
                virt.append((star[i], star[j], v, 2 * half))
    phys = sorted(((u, w) if u < w else (w, u), util)
                  for u, util in node_util.items() for w in it.out_nbrs[u])
    edges = []
    comm = {v: set(it.in_nbrs[v]) | set(it.out_nbrs[v]) for v in it.nodes}
    ec = {}
    idx = 0
    for (a, b), cost in phys:
        edges.append(_graph.Edge(a, b, _graph.PHYSICAL, None, idx))
        ec[idx] = (0, 0, 0, cost)
        idx += 1
    for (a, b, mgr, cost) in virt:
        edges.append(_graph.Edge(a, b, _graph.VIRTUAL, mgr, idx))
        ec[idx] = (0, 0, 0, cost)
        idx += 1
    h = _graph.Multigraph(it.nodes, edges, comm)
    nut = {v: (0, w) for v, w in node_util.items()}
    val = _rounding.Valuation(2, {}, ec, node_utility=nut, scale=2)
    return h, val


def luby_derandomized_iteration(adj, engine, agree_cache=None, check=True):
    """One derandomized iteration on ``engine``, rounding at eps = mu =
    1/2; returns (joined, removed, edges_removed, edges_before)."""
    it = classify_and_select_instar(adj)
    edges_before = sum(len(adj[v]) for v in it.nodes) // 2
    h, val = build_mis_valuation(it)
    den = it.mark_den
    lam_raw = {v: (den - m, m) for v, m in it.mark_num.items()}
    prep = _rounding._Prepared(h, val, agree_cache=agree_cache)
    uc_raw = None
    if check:
        U, C = uc_raw = prep.potential(lam_raw)
        if U - C < U / 2:
            raise MisInvariantError(f"u - c >= u/2 failed: {U} - {C}")
        if 240 * U < edges_before:
            raise MisInvariantError(f"u(x) >= |E|/240 failed: {U} vs {edges_before}")
        good_deg = sum(it.degree[v] for v in it.good_nodes)
        if 2 * good_deg < edges_before:
            raise MisInvariantError("good-degree mass below |E|/2")
    ell, _uc = _rounding.round_fractional(
        prep, lam_raw, Fraction(1, 2), Fraction(1, 2), engine, check=check,
        uc_raw=uc_raw)
    marked = {v for v, lab in ell.items() if lab == 1}
    joined = sorted(u for u in marked
                    if not any(w in marked for w in it.out_nbrs[u]))
    removed = set(joined)
    for u in joined:
        removed.update(adj[u])
    edges_removed = 0
    seen = set()
    for u in sorted(removed):
        for w in adj[u]:
            key = (min(u, w), max(u, w))
            if key not in seen:
                seen.add(key)
                edges_removed += 1
    if check and 500 * edges_removed < edges_before:
        raise MisInvariantError(
            f"removed {edges_removed} of {edges_before} edges, below 1/500")
    engine.account(8 + 64, 2)    # mark exchange + join/removal notify
    return joined, removed, edges_removed, edges_before


def mis(g, mode=None, engine=None, check=True):
    """Maximal independent set by iterated derandomized Luby steps, on
    ``engine`` or on a new one over ``g`` in ``mode`` (``sim.engine_for``)."""
    engine = _sim.engine_for(g, mode, engine)
    adj = _adjacency(g)
    live = set(g.nodes)
    out = []
    iterations = 0
    ratios = []
    agree_cache = {}
    while live:
        isolated = sorted(v for v in live if not adj[v])
        for v in isolated:
            out.append(v)
            live.discard(v)
        if not live:
            break
        joined, removed, er, eb = luby_derandomized_iteration(
            {v: adj[v] for v in sorted(live)}, engine,
            agree_cache=agree_cache, check=check)
        iterations += 1
        ratios.append((er, eb))
        out.extend(joined)
        for v in sorted(removed):
            for w in adj[v]:
                adj[w].discard(v)
            adj[v] = set()
            live.discard(v)
    out.sort()
    if check:
        if not _oracle.is_maximal_is(g, out):
            raise MisInvariantError("output failed the independence/maximality scan")
        e0 = g.n_edges()
        if e0:
            bound = _iteration_bound(e0)
            if iterations > bound:
                raise MisInvariantError(
                    f"{iterations} iterations exceed the {bound} bound")
    engine.metrics.objective = Fraction(len(out))
    return out, engine.metrics, {"iterations": iterations, "ratios": ratios}


def _iteration_bound(edges):
    """ceil(log_{500/499} edges) + 1: the least t with 500^t >= 499^t edges,
    from a float estimate settled by exact integer comparison."""
    t = max(0, math.ceil(math.log(edges) / math.log1p(1 / 499)))
    num, den = 500 ** t, 499 ** t
    while den * edges > num:
        num *= 500
        den *= 499
        t += 1
    while t and 500 * den * edges <= 499 * num:     # t - 1 suffices
        num //= 500
        den //= 499
        t -= 1
    return t + 1


def luby_randomized_baseline(g, seed=0):
    """Luby's randomized algorithm with the same 1/(20 deg) marking and
    conflict rule; for iteration-count comparisons."""
    rng = random.Random(seed)
    adj = _adjacency(g)
    live = set(g.nodes)
    out = []
    iterations = 0
    while live:
        isolated = sorted(v for v in live if not adj[v])
        for v in isolated:
            out.append(v)
            live.discard(v)
        if not live:
            break
        degree = {v: len(adj[v]) for v in sorted(live)}
        marked = {v for v in sorted(live)
                  if rng.random() < 1.0 / (20 * degree[v])}
        joined = []
        for u in sorted(marked):
            ku = (degree[u], u)
            if not any((degree[w], w) > ku for w in adj[u] if w in marked):
                joined.append(u)
        removed = set(joined)
        for u in joined:
            removed.update(adj[u])
        out.extend(joined)
        for v in sorted(removed):
            for w in adj[v]:
                adj[w].discard(v)
            adj[v] = set()
            live.discard(v)
        iterations += 1
    out.sort()
    if not _oracle.is_maximal_is(g, out):
        raise MisInvariantError("baseline produced an invalid MIS")
    return out, iterations
