from fractions import Fraction

from locround import graph as G, mis as M, oracle as O, sim as S
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
    assert it.marks[1] == Fraction(1, 20)


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
    joined, removed, er, eb = M.luby_derandomized_iteration(_adjacency(g))
    assert len(joined) == 1 and removed == {1, 2} and er == eb == 1


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
    I, metrics, _ = M.mis(g, mode=S.CONGEST, engine=eng)
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
