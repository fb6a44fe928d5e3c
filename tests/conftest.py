import random

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
