import dataclasses
import math
from fractions import Fraction

import pytest

from locround import graph as G, mis as M, oracle as O, rounding as R, sim as S
from locround.mis import _adjacency
from conftest import random_simple_graph


def test_triangle_good_nodes():
    g = G.simple_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    it = M.classify_and_select_instar(_adjacency(g))
    assert it.good_nodes == [2, 3]


def test_star_instar_prefix():
    g = G.simple_graph([0, 1, 2, 3, 4, 5], [(0, i) for i in range(1, 6)])
    it = M.classify_and_select_instar(_adjacency(g))
    assert 0 in it.good_nodes
    assert it.in_star[0] == [1]      # one leaf already reaches 1/60
    assert Fraction(it.mark_num[1], it.mark_den) == Fraction(1, 20)


def test_instar_stops_at_exactly_one_sixtieth():
    """Hub 100 has four in-neighbors of degree 3, each marked 1/60: the
    first one alone reaches the IN* mass 1/60."""
    pairs = [(100, u) for u in range(1, 5)]
    pairs += [(u, 10 * u + j) for u in range(1, 5) for j in (1, 2)]
    g = G.simple_graph(sorted({x for p in pairs for x in p}), pairs)
    it = M.classify_and_select_instar(_adjacency(g))
    assert it.in_nbrs[100] == [1, 2, 3, 4] and 100 in it.good_nodes
    assert it.in_star[100] == [1]
    assert Fraction(it.mark_num[1], it.mark_den) == Fraction(1, 60)


def test_isolated_nodes_absorbed():
    g = G.simple_graph([1, 2, 3], [])
    I, metrics, info = M.mis(g)
    assert I == [1, 2, 3] and info["iterations"] == 0


def test_clique_and_path():
    k4 = G.simple_graph([1, 2, 3, 4],
                        [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    I, _, _ = M.mis(k4)
    assert len(I) == 1
    p5 = G.simple_graph(list(range(1, 6)), [(i, i + 1) for i in range(1, 5)])
    I, _, _ = M.mis(p5)
    assert O.is_maximal_is(p5, I) and 2 <= len(I) <= 3


def test_single_edge_removal_count():
    g = G.simple_graph([1, 2], [(1, 2)])
    joined, removed, er, eb = M.luby_derandomized_iteration(_adjacency(g),
                                                            S.RoundEngine(g))
    assert len(joined) == 1 and removed == {1, 2} and er == eb == 1


def _distinct_edges_at(adj, nodes):
    """The distinct edges of ``adj`` with an endpoint in ``nodes``."""
    return {frozenset((u, w)) for u in nodes for w in adj[u]}


def test_removed_edge_count_matches_the_distinct_edges(rng):
    """The count from set sizes equals the number of distinct edges with an
    endpoint in ``removed``, on graphs where removed nodes are adjacent
    to each other."""
    adjacent = 0
    for _ in range(10):
        g = random_simple_graph(rng, rng.randint(2, 90), rng.choice([3, 6, 12]),
                                rng.choice([0.05, 0.2, 0.5]))
        if not g.n_edges():
            continue
        adj = _adjacency(g)
        joined, removed, er, eb = M.luby_derandomized_iteration(
            adj, S.RoundEngine(g))
        assert er == len(_distinct_edges_at(adj, removed))
        assert eb == g.n_edges()
        adjacent += sum(1 for u in removed for w in adj[u] if w in removed)
    assert adjacent      # every joined node is removed with its neighbors


def test_mis_ratios_match_the_distinct_edge_count(rng, monkeypatch):
    """Each ``mis`` run's ``info["ratios"]`` equals the brute-force count of
    every iteration it ran, taken on the residual adjacency it passed."""
    seen = []
    run = M.luby_derandomized_iteration

    def spy(adj, engine, check=True):
        before = {v: set(nb) for v, nb in adj.items()}
        joined, removed, er, eb = run(adj, engine, check=check)
        seen.append((len(_distinct_edges_at(before, removed)),
                     sum(map(len, before.values())) // 2))
        return joined, removed, er, eb

    monkeypatch.setattr(M, "luby_derandomized_iteration", spy)
    iterations = 0
    for _ in range(6):
        g = random_simple_graph(rng, rng.randint(2, 120), 10, 0.1)
        seen.clear()
        I, _metrics, info = M.mis(g)
        assert O.is_maximal_is(g, I)
        assert info["ratios"] == seen
        iterations += len(seen)
    assert iterations > 6


def test_random_graphs_scans(rng):
    for _ in range(6):
        g = random_simple_graph(rng, rng.randint(2, 120), 10, 0.1)
        I, metrics, info = M.mis(g)
        assert O.is_maximal_is(g, I)
        for er, eb in info["ratios"]:
            assert 500 * er >= eb


def test_congest_mode_budget(rng):
    g = random_simple_graph(rng, 80, 8, 0.1)
    eng = S.RoundEngine(g, mode=S.CONGEST)
    I, metrics, _ = M.mis(g, engine=eng)
    assert O.is_maximal_is(g, I)
    assert metrics.max_bits_per_edge_round <= eng.bit_budget
    assert not metrics.budget_violations


def test_baseline_seeded_determinism(rng):
    g = random_simple_graph(rng, 60, 8, 0.15)
    a1, i1 = M.luby_randomized_baseline(g, seed=7)
    a2, i2 = M.luby_randomized_baseline(g, seed=7)
    assert a1 == a2 and i1 == i2
    assert O.is_maximal_is(g, a1)
    empty = G.simple_graph([], [])
    assert M.luby_randomized_baseline(empty, seed=0)[0] == []


def test_determinism_rerun(rng):
    g = random_simple_graph(rng, 70, 8, 0.12)
    r1 = M.mis(g)
    r2 = M.mis(g)
    assert r1[0] == r2[0]
    assert r1[1].total_rounds == r2[1].total_rounds
    assert r1[2] == r2[2]


def _iteration_bound_loop(edges):
    """The defining loop: the least t with (500/499)^t >= edges, plus 1."""
    t, num, den = 0, 1, 1
    while den * edges > num:
        num *= 500
        den *= 499
        t += 1
    return t + 1


def test_iteration_bound_matches_loop():
    # one upward pass of the loop serves every edge count in order
    t, num, den = 0, 1, 1
    for edges in range(1, 5001):
        while den * edges > num:
            num *= 500
            den *= 499
            t += 1
        assert M._iteration_bound(edges) == t + 1
    for edges in (5001, 65536, 123457, 10 ** 6, 9_999_991, 10 ** 7):
        assert M._iteration_bound(edges) == _iteration_bound_loop(edges)


def _iteration(degree, in_nbrs, out_nbrs, good, in_star):
    """A Luby iteration over the given tables, with the 1/(20 deg) marks
    and IN u OUT as its adjacency."""
    nodes = sorted(degree)
    D = math.lcm(*degree.values())
    ins = {v: in_nbrs.get(v, []) for v in nodes}
    outs = {v: out_nbrs.get(v, []) for v in nodes}
    return M.LubyIteration(
        nodes, degree, ins, outs, good, in_star,
        {v: D // d for v, d in degree.items()}, 20 * D,
        {v: set(ins[v]) | set(outs[v]) for v in nodes})


def test_luby_check_trips_each_assertion():
    """Nodes 1-4 have degree 3 (mark 1/60), node 5 degree 1 (mark 1/20),
    node 6 degree 4 (mark 1/80) and node 9, with five in-neighbors, is
    good.  Masses exactly at 1/60, 4/60 and 1/20 pass; a misclassified
    node, IN* mass just outside [1/60, 4/60] and OUT mass above 1/20 fail."""
    degree = {1: 3, 2: 3, 3: 3, 4: 3, 5: 1, 6: 4, 9: 5}
    ins = {9: [1, 2, 3, 4, 5]}
    for star in ([1], [1, 2, 3, 4], [6, 2]):
        it = _iteration(degree, ins, {1: [5], 2: [6, 3, 4]}, [9], {9: star})
        it.check()
        assert (Fraction(sum(it.mark_num[u] for u in star), it.mark_den)
                >= Fraction(1, 60))
    assert Fraction(it.mark_num[5], it.mark_den) == Fraction(1, 20)
    assert Fraction(it.mark_num[6], it.mark_den) == Fraction(1, 80)
    cases = [
        ({}, [], {}, "goodness misclassified at 9"),
        ({}, [9, 1], {9: [1]}, "goodness misclassified at 1"),
        ({}, [9], {9: []}, r"IN\*\(9\) mass 0 outside"),
        ({}, [9], {9: [6]}, r"IN\*\(9\) mass 1/80 outside"),
        ({}, [9], {9: [5, 1, 2]}, r"IN\*\(9\) mass 1/12 outside"),
        ({1: [5, 2]}, [9], {9: [1]}, r"OUT\(1\) mass 1/15 exceeds"),
        ({6: [1, 2, 3, 4]}, [9], {9: [1]}, r"OUT\(6\) mass 1/15 exceeds"),
    ]
    for outs, good, star, msg in cases:
        with pytest.raises(M.MisInvariantError, match=msg):
            _iteration(degree, ins, outs, good, star).check()


def test_luby_check_runs_on_built_iterations(rng):
    """Tampering with a built iteration's IN* or marks trips its check."""
    g = random_simple_graph(rng, 40, 6, 0.2)
    it = M.classify_and_select_instar(_adjacency(g))
    v = it.good_nodes[0]
    with pytest.raises(M.MisInvariantError, match="IN"):
        dataclasses.replace(it, in_star={**it.in_star, v: []}).check()
    heavy = dict(it.mark_num)
    for u in it.nodes:
        heavy[u] *= 21
    with pytest.raises(M.MisInvariantError, match="mass"):
        dataclasses.replace(it, mark_num=heavy).check()


def test_model_check_reads_the_residual_adjacency(rng):
    """A non-neighbor put into OUT(u), or a non-neighbor of v put into
    IN*(v), makes an edge off the residual adjacency, which the
    d2-multigraph's model check rejects.  The edge (u, x), u < x, is
    checked from u's side, where IN u OUT as the reference would have
    accepted it."""
    g = random_simple_graph(rng, 60, 6, 0.15)
    it = M.classify_and_select_instar(_adjacency(g))
    M.build_mis_valuation(it)
    v = next(v for v in it.good_nodes if it.in_star[v])
    u = min(u for w in it.good_nodes for u in it.in_star[w])
    x = next(x for x in it.nodes if x > u and x not in it.adj[u])
    outs = {**it.out_nbrs, u: it.out_nbrs[u] + [x]}
    with pytest.raises(G.GraphFormatError, match="not comm-adjacent"):
        M.build_mis_valuation(dataclasses.replace(it, out_nbrs=outs))
    y = next(y for y in it.nodes if y != v and y not in it.adj[v]
             and y not in it.in_star[v])
    star = {**it.in_star, v: it.in_star[v] + [y]}
    with pytest.raises(G.GraphFormatError, match=f"manager {v} not adjacent"):
        M.build_mis_valuation(dataclasses.replace(it, in_star=star))


def _reference_mis_valuation(it):
    """The valuation built by the per-(v, u, w) loop: the edge (u, w),
    w in OUT(u), collects deg(v)/2 once for every v with u in IN*(v)."""
    phys = {}
    virt = []
    node_util = {}
    for v in it.good_nodes:
        half = it.degree[v]
        star = it.in_star[v]
        for u in star:
            node_util[u] = node_util.get(u, 0) + half
        for i in range(len(star)):
            for j in range(i + 1, len(star)):
                virt.append((star[i], star[j], v, 2 * half))
        for u in star:
            for w in it.out_nbrs[u]:
                key = (min(u, w), max(u, w))
                phys[key] = phys.get(key, 0) + half
    edges = []
    ec = {}
    for (a, b), cost in sorted(phys.items()):
        edges.append(G.Edge(a, b, G.PHYSICAL, None, len(edges)))
        ec[len(ec)] = (0, 0, 0, cost)
    for (a, b, mgr, cost) in virt:
        edges.append(G.Edge(a, b, G.VIRTUAL, mgr, len(edges)))
        ec[len(ec)] = (0, 0, 0, cost)
    nut = {v: (0, w) for v, w in node_util.items()}
    return edges, R.Valuation(2, {}, ec, node_utility=nut, scale=2)


def test_mis_valuation_matches_the_per_pair_loop(rng):
    built = 0
    for _ in range(12):
        g = random_simple_graph(rng, rng.randint(2, 150), rng.choice([3, 8, 20]),
                                rng.choice([0.02, 0.1, 0.3]))
        if not g.n_edges():
            continue
        it = M.classify_and_select_instar(_adjacency(g))
        h, val = M.build_mis_valuation(it)
        edges, want = _reference_mis_valuation(it)
        assert list(h.edges) == edges
        assert vars(val) == vars(want)
        built += 1
    assert built >= 10


def test_unknown_mode_is_rejected():
    """An unknown mode ran as LOCAL."""
    g = G.simple_graph([1, 2, 3], [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        M.mis(g, mode="bogus")
