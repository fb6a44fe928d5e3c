import math
import random
from fractions import Fraction

import pytest

from locround import graph as G


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_simple_graph(rng, n, max_degree, density=0.2, id_range=None,
                        id_base=0):
    """Random simple graph on n node ids drawn from [1, id_range), shifted
    by ``id_base``; the shift leaves every random draw as it is."""
    hi = id_range or 8 * n + 2
    nodes = sorted(id_base + v for v in rng.sample(range(1, hi), n))
    deg = {v: 0 for v in nodes}
    pairs = set()
    if n >= 2:
        for _ in range(int(density * n * (n - 1) / 2) + n):
            u, v = rng.sample(nodes, 2)
            key = (min(u, v), max(u, v))
            if key in pairs or deg[u] >= max_degree or deg[v] >= max_degree:
                continue
            pairs.add(key)
            deg[u] += 1
            deg[v] += 1
    return G.simple_graph(nodes, sorted(pairs))


def random_weighted_graph(rng, n, max_degree, density=0.2, wmax=9):
    g = random_simple_graph(rng, n, max_degree, density)
    return G.WeightedGraph(g, {v: rng.randint(1, wmax) for v in g.nodes})


def random_setcover(rng, ne, ns, t_cap, s_cap, wmax=1):
    els = list(range(1, ne + 1))
    sets_ = list(range(1001, 1001 + ns))
    deg_s = {v: 0 for v in sets_}
    inc = []
    for u in els:
        k = rng.randint(1, t_cap)
        cands = [v for v in sets_ if deg_s[v] < s_cap] or sets_
        for v in rng.sample(cands, min(k, len(cands))):
            inc.append((u, v))
            deg_s[v] += 1
    costs = {v: rng.randint(1, wmax) for v in sets_} if wmax > 1 else {}
    return G.SetCoverInstance(els, sets_, inc, costs)


def build_d2_multigraph(g, virtual_edge_spec):
    """d2-multigraph over the simple graph ``g``: its edges plus one virtual
    edge per (manager, pair).

    ``virtual_edge_spec(manager) -> iterable of (u, v)`` must yield only
    pairs of the manager's neighbors in ``g``; ``Multigraph`` checks that
    against ``g``'s adjacency.  Pairs repeated for the same manager are
    kept once.
    """
    edges = [e for e in g.edges if e.kind == G.PHYSICAL]
    seen = set()
    for w in g.nodes:
        for (u, v) in virtual_edge_spec(w):
            key = (w, min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            edges.append(G.Edge(key[1], key[2], G.VIRTUAL, w))
    comm = {w: set(g.neighbors(w)) for w in g.nodes}
    return G.Multigraph(g.nodes, edges, comm)


def raw_rows(lam):
    """The raw rows of rational distributions: node -> the row's
    numerators over the lcm of its denominators, a tuple of integers whose
    sum is that denominator when the row sums to 1."""
    out = {}
    for v, row in lam.items():
        fr = [Fraction(x) for x in row]
        den = math.lcm(*(x.denominator for x in fr))
        out[v] = tuple(x.numerator * (den // x.denominator) for x in fr)
    return out


def valuation_to_json(g, val, lam=None):
    """The ``round`` instance document of ``(g, val, lam)``, with ``lam``
    raw rows: edge tables keyed by edge index, rationals as "a/b"
    strings."""
    def fr(x):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
            else str(x.numerator)

    def row(ints):
        return [fr(Fraction(x, val.scale)) for x in ints]

    L = val.nlabels
    zero = (0,) * (L * L)
    doc = {
        "labels": L,
        "nodes": [int(v) for v in g.nodes],
        "edges": [],
        "node_utility": {str(v): row(r)
                         for v, r in sorted(val.node_utility.items())},
        "node_cost": {str(v): row(r)
                      for v, r in sorted(val.node_cost.items())},
    }
    for e in g.edges:
        tu = val.edge_utility.get(e.index, zero)
        tc = val.edge_cost.get(e.index, zero)
        doc["edges"].append({
            "index": e.index, "u": e.u, "v": e.v,
            "manager": e.manager,
            "utility": [row(tu[a * L:(a + 1) * L]) for a in range(L)],
            "cost": [row(tc[a * L:(a + 1) * L]) for a in range(L)],
        })
    if lam is not None:
        doc["assignment"] = {
            str(v): [fr(Fraction(x, sum(nums))) for x in nums]
            for v, nums in sorted(lam.items())}
    return doc
