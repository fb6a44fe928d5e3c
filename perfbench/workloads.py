"""Seeded instances, solves, verification and digests for each workload.

Every workload turns ``random.Random(seed)`` into instance *text*, and the
program only ever sees that text through ``graph.parse_edge_list`` or
``graph.parse_setcover``, as the CLI does.  The generators here are used
instead of ``cli.generate_graph``, whose duplicate check is quadratic in the
edge count.

A run uses several instances per workload so that one unlucky instance does
not move the run's median solve time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from locround import graph, indepset, mis, oracle, setcover, sim


# -- instance text ------------------------------------------------------------


def graph_text(rng, n, max_degree, tries, weight_max=1, blocks=1):
    """Edge-list text: ``n <id> <w>`` lines for nodes 1..blocks*n, then a
    disjoint union of ``blocks`` random graphs on consecutive ids, each from
    ``tries`` random pairs kept while both endpoints are under the cap."""
    total = blocks * n
    lines = [f"n {v} {rng.randint(1, weight_max)}" for v in range(1, total + 1)]
    deg = [0] * (total + 1)
    seen = set()
    for base in range(0, total, n):
        for _ in range(tries):
            u = base + rng.randint(1, n)
            v = base + rng.randint(1, n)
            a, b = min(u, v), max(u, v)
            if (a == b or (a, b) in seen or deg[a] >= max_degree
                    or deg[b] >= max_degree):
                continue
            seen.add((a, b))
            deg[a] += 1
            deg[b] += 1
            lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def setcover_text(rng, blocks, n_elements, n_sets, t_cap, s_cap):
    """Unit-cost set cover text: a disjoint union of ``blocks`` blocks, each
    with ``n_elements`` elements in 1..t_cap random sets of at most
    ``s_cap`` elements."""
    lines = []
    stride = n_elements + n_sets
    for blk in range(blocks):
        base = blk * stride
        elements = range(base + 1, base + n_elements + 1)
        sets_ = list(range(base + n_elements + 1, base + stride + 1))
        lines += [f"e {u}" for u in elements]
        lines += [f"s {v}" for v in sets_]
        size = dict.fromkeys(sets_, 0)
        for u in elements:
            k = rng.randint(1, t_cap)
            cands = [v for v in sets_ if size[v] < s_cap] or sets_
            for v in rng.sample(cands, min(k, len(cands))):
                lines.append(f"c {u} {v}")
                size[v] += 1
    return "\n".join(lines) + "\n"


# -- setup: text -> program objects -----------------------------------------


def load_weighted(text):
    """The CLI's ingestion: parse, then give unweighted graphs weight 1."""
    g = graph.parse_edge_list(text.splitlines())
    if isinstance(g, graph.WeightedGraph):
        return g
    return graph.WeightedGraph(g, {v: 1 for v in g.nodes})


def load_setcover(text):
    return graph.parse_setcover(text.splitlines())


# -- solves -------------------------------------------------------------------
#
# A solve returns (output, metrics, certificate).  ``output`` is the
# algorithm's answer, ``certificate`` what it claims about it, and both go
# into the digest with the round and bit counts.  Each solve builds a fresh
# RoundEngine, because an engine's metrics accumulate over its lifetime.


def _solve_mis(wg, check):
    engine = sim.RoundEngine(wg.graph, mode=sim.LOCAL)
    out, metrics, info = mis.mis(wg.graph, mode=sim.LOCAL, engine=engine,
                                 check=check)
    return out, metrics, {"iterations": info["iterations"]}


def _solve_matching(wg, check):
    engine = sim.RoundEngine(wg.graph, mode=sim.CONGEST)
    M, metrics, iters = indepset.maximal_matching(
        wg.graph, mode=sim.CONGEST, engine=engine, check=check)
    return [list(p) for p in M], metrics, {"iterations": iters}


def _solve_setcover(inst, check):
    # set_cover builds its engine over the incidence graph itself, as the
    # CLI's setcover runner lets it
    V, metrics, info = setcover.set_cover(inst, mode=sim.LOCAL,
                                          cost_mode="unit", check=check)
    return V, metrics, {"tau": info["tau"], "opt_bound": info["opt_bound"],
                        "fallback": info.get("fallback")}


def _solve_wis(wg, check):
    engine = sim.RoundEngine(wg.graph, mode=sim.LOCAL)
    I, sstar = indepset.lp_guided_is(wg, eps=Fraction(1, 5), engine=engine,
                                     mode=sim.LOCAL, check=check)
    return I, engine.metrics, {"s_star": sstar}


# -- verification from the benchmark's side ---------------------------------
#
# Each returns (quality, error).  ``error`` is None when every scan and bound
# holds; quality is the achieved objective over the certified bound.


def _verify_mis(wg, out, cert):
    g = wg.graph
    if not oracle.is_independent(g, out):
        return None, "MIS output is not independent"
    if not oracle.is_maximal_is(g, out):
        return None, "MIS output is not maximal"
    return Fraction(len(out), len(g.nodes)), None


def _verify_matching(wg, out, cert):
    g = wg.graph
    index = {(e.u, e.v): e.index for e in g.edges}
    ids = [index.get((min(p), max(p))) for p in out]
    if None in ids or not oracle.is_maximal_matching(g, ids):
        return None, "matching is not a maximal matching of the graph"
    return Fraction(2 * len(out), len(g.nodes)), None


def _verify_setcover(inst, out, cert):
    if cert["fallback"] is not None:
        return None, f"set cover took the {cert['fallback']} fallback"
    if not oracle.covers(inst, out):
        return None, "sets do not cover every element"
    cost = len(out)
    if cost > 3 * cert["tau"] * cert["opt_bound"]:
        return None, f"cost {cost} exceeds 3 tau OPT_bound"
    return cert["opt_bound"] / cost, None


def _verify_wis(wg, out, cert):
    if not oracle.is_independent(wg.graph, out):
        return None, "weighted set is not independent"
    weight = wg.total_weight(out)
    if 4 * weight < cert["s_star"]:
        return None, f"4 w(I) = {4 * weight} below S* = {cert['s_star']}"
    return Fraction(weight) / cert["s_star"], None


def digest(out, metrics, cert):
    """Hash of the output, its certificate and the round/bit accounting.

    Potential samples are left out: only checked solves record them."""
    doc = {
        "out": out,
        "cert": {k: str(v) for k, v in sorted(cert.items())},
        "rounds": metrics.total_rounds,
        "max_bits": metrics.max_bits_per_edge_round,
        "violations": [[r, list(e), b] for (r, e, b) in metrics.budget_violations],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# -- the workloads ------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int                # distinct instances per run
    generate: Callable            # (rng, smoke) -> instance text
    setup: Callable               # text -> problem
    solve: Callable               # (problem, check) -> (out, metrics, cert)
    verify: Callable              # (problem, out, cert) -> (quality, error)
    iterations_metric: str | None = None   # per-layer name of cert["iterations"]


# Sizes: on the pure kernels a solve takes about a second, so a 30-second
# run gets ten or more solves of each kind.  Instances within a workload
# differ in cost (the set cover loop sometimes needs a second live
# iteration, and the simplex pivot count varies), so a run visits several
# of them and reports medians over all visits.


def _mis_text(rng, smoke):
    # sparse, degree-capped: a few iterations of the rounding loop, no LP
    n = 60 if smoke else 1000
    return graph_text(rng, n, 12, 6 * n)


def _matching_text(rng, smoke):
    n = 30 if smoke else 300
    return graph_text(rng, n, 8, 4 * n)


def _setcover_text(rng, smoke):
    # many small components: many small covering LPs, one rounding loop
    return setcover_text(rng, 2 if smoke else 60, 30, 25, 3, 6)


def _wis_text(rng, smoke):
    # disjoint blocks keep the pivot count, and so the solve time, steady
    # from seed to seed; packing_lp still solves one dense LP over all nodes
    return graph_text(rng, 25, 6, 75, weight_max=50, blocks=1 if smoke else 8)


WORKLOADS = {w.name: w for w in [
    Workload("mis-local", 3, _mis_text, load_weighted, _solve_mis,
             _verify_mis, "mis.iterations"),
    Workload("matching-congest", 3, _matching_text, load_weighted,
             _solve_matching, _verify_matching, "indepset.outer_iterations"),
    Workload("setcover-blocks", 5, _setcover_text, load_setcover,
             _solve_setcover, _verify_setcover),
    Workload("wis-lp4", 5, _wis_text, load_weighted, _solve_wis,
             _verify_wis),
]}
