from fractions import Fraction

import pytest

from locround import coloring as C, graph as G
from conftest import random_simple_graph


def unit_weights(g):
    return {e.index: Fraction(1) for e in g.edges}


def rand_weights(rng, g):
    return {e.index: Fraction(rng.randint(0, 9), rng.choice([1, 2, 4]))
            for e in g.edges}


def test_linial_single_node_and_edge():
    g = G.simple_graph([42], [])
    pc = C.linial_coloring(g)
    assert len(set(pc.colors.values())) == 1
    g = G.simple_graph([1, 2], [(1, 2)])
    pc = C.linial_coloring(g)
    assert pc.colors[1] != pc.colors[2]


def test_linial_palette_bound(rng):
    for _ in range(8):
        g = random_simple_graph(rng, 50, 6, 0.1)
        pc = C.linial_coloring(g)
        assert C.check_proper(g, pc.colors)
        assert pc.palette_size <= 4 * 36 * 4   # documented K * Delta^2 slack


def test_three_color_cycle_and_path():
    cyc = G.simple_graph(list(range(1, 6)),
                         [(i, i % 5 + 1) for i in range(1, 6)])
    pc = C.three_color_paths_cycles(cyc)
    assert C.check_proper(cyc, pc.colors) and pc.palette_size == 3
    path = G.simple_graph([1, 2], [(1, 2)])
    pc = C.three_color_paths_cycles(path)
    assert len({pc.colors[1], pc.colors[2]}) == 2
    lone = G.simple_graph([5], [])
    pc = C.three_color_paths_cycles(lone)
    assert pc.colors[5] in (0, 1, 2)


def test_three_color_rejects_high_degree():
    star = G.simple_graph([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(C.ColoringError):
        C.three_color_paths_cycles(star)


def test_defective_delta_one_trivial():
    g = G.simple_graph([1, 2, 3], [(1, 2), (2, 3)])
    ones = {v: 0 for v in g.nodes}
    ok, _ = C.defect_certificate(g, unit_weights(g), ones, Fraction(1),
                                 "per-node")
    assert ok


def test_defective_single_edge_half():
    g = G.simple_graph([1, 2], [(1, 2)])
    w = {0: Fraction(5)}
    dc = C.weighted_defective_coloring(g, w, Fraction(1, 2))
    assert dc.colors[1] != dc.colors[2]


def test_defective_fuzz_certificates(rng):
    for trial in range(12):
        g = random_simple_graph(rng, rng.randint(2, 40), 5, 0.15)
        w = rand_weights(rng, g)
        delta = rng.choice([Fraction(1), Fraction(1, 2), Fraction(1, 4)])
        for agg in ("exact", "factor2"):
            dc = C.weighted_defective_coloring(g, w, delta, aggregation=agg)
            ok, _ = C.defect_certificate(g, w, dc.colors, delta, "per-node")
            assert ok
            assert dc.palette_size <= (1 << 16) * delta.denominator ** 2
            ac = C.average_defective_coloring(g, w, delta, aggregation=agg)
            ok, _ = C.defect_certificate(g, w, ac.colors, delta, "average")
            assert ok


def test_average_star_example():
    g = G.simple_graph([0, 1, 2, 3, 4], [(0, i) for i in (1, 2, 3, 4)])
    w = unit_weights(g)
    ac = C.average_defective_coloring(g, w, Fraction(1, 2))
    mono = ac.certificate["mono_weight"]
    assert mono <= Fraction(1, 2) * ac.certificate["total_weight"]


def test_greedy_oracle(rng):
    g = G.simple_graph([1, 2, 3], [(1, 2), (2, 3)])
    w = {0: Fraction(1), 1: Fraction(1)}
    dc = C.greedy_defective_oracle(g, w, Fraction(1, 2))
    assert dc.palette_size == 3
    mono_mid = sum(1 for e in g.edges
                   if dc.colors[e.u] == dc.colors[e.v] and 2 in (e.u, e.v))
    assert mono_mid <= 1
    dc1 = C.greedy_defective_oracle(g, w, Fraction(1))
    assert dc1.palette_size == 2
    for _ in range(10):
        gg = random_simple_graph(rng, rng.randint(2, 30), 6)
        ww = rand_weights(rng, gg)
        delta = rng.choice([Fraction(1), Fraction(1, 2), Fraction(1, 3)])
        dd = C.greedy_defective_oracle(gg, ww, delta)
        ok, _ = C.defect_certificate(gg, ww, dd.colors, delta, "per-node")
        assert ok


def test_defective_on_multigraph(rng):
    g = random_simple_graph(rng, 15, 5, 0.3)

    def spec(w, g=g):
        nb = sorted(g.comm_adjacency[w])
        return [(nb[i], nb[i + 1]) for i in range(len(nb) - 1)]

    h = G.build_d2_multigraph(g, spec)
    w = rand_weights(rng, h)
    for agg in ("exact", "factor2"):
        ac = C.average_defective_coloring(h, w, Fraction(1, 4), aggregation=agg)
        ok, _ = C.defect_certificate(h, w, ac.colors, Fraction(1, 4), "average")
        assert ok


def test_initial_coloring_reuse(rng):
    g = random_simple_graph(rng, 20, 4, 0.3)
    pc = C.linial_coloring(g)
    w = unit_weights(g)
    dc = C.weighted_defective_coloring(g, w, Fraction(1, 2), initial=pc.colors)
    ok, _ = C.defect_certificate(g, w, dc.colors, Fraction(1, 2), "per-node")
    assert ok


def test_average_defective_zero_weight_managed_edges():
    """Zero-weight edges under factor-2 managers add no pending weight in
    the ordering reduction (this instance raised KeyError there)."""
    spec = [(7, 2, None), (8, 9, 6), (8, 3, 9), (8, 5, 6), (6, 9, 8),
            (8, 3, None), (1, 7, 9), (5, 8, 6), (8, 7, 9), (8, 5, 9),
            (3, 1, 9), (9, 2, 6), (8, 5, 9), (9, 7, None), (7, 8, 9),
            (3, 5, 9), (4, 1, 9), (3, 5, 6), (3, 8, None), (6, 8, None),
            (9, 3, 6), (7, 1, 9)]
    weight = [0, 3, 0, 3, 3, 3, 2, 0, 2, 0, 3, 2, 0, 0, 3, 2, 0, 3, 1, 0, 0,
              0]
    g = G.Multigraph(range(1, 10), [
        G.Edge(u, v) if m is None else G.Edge(u, v, G.VIRTUAL, m)
        for u, v, m in spec])
    w = {e.index: Fraction(x) for e, x in zip(g.edges, weight)}
    initial = {1: 7, 2: 152, 3: 115, 4: 300, 5: 6, 6: 189, 7: 4, 8: 78, 9: 41}
    ac = C.average_defective_coloring(g, w, Fraction(1, 2), initial=initial,
                                      aggregation="factor2")
    assert ac.colors == {1: 7, 2: 4, 3: 2, 4: 4, 5: 6, 6: 5, 7: 2, 8: 3, 9: 1}
    assert (ac.palette_size, ac.rounds) == (41, 84)
    ok, _ = C.defect_certificate(g, w, ac.colors, Fraction(1, 2), "average")
    assert ok
