from fractions import Fraction

import pytest

from locround import coloring as C, graph as G, sim
from conftest import build_d2_multigraph, random_simple_graph


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
    dc = C.weighted_defective_coloring(g, w, Fraction(1, 2),
                                       sim.RoundEngine(g))
    assert dc.colors[1] != dc.colors[2]


def test_defective_fuzz_certificates(rng):
    for trial in range(12):
        g = random_simple_graph(rng, rng.randint(2, 40), 5, 0.15)
        w = rand_weights(rng, g)
        delta = rng.choice([Fraction(1), Fraction(1, 2), Fraction(1, 4)])
        for mode in (sim.LOCAL, sim.CONGEST):
            engine = sim.RoundEngine(g, mode=mode)
            dc = C.weighted_defective_coloring(g, w, delta, engine)
            ok, _ = C.defect_certificate(g, w, dc.colors, delta, "per-node")
            assert ok
            assert dc.palette_size <= (1 << 16) * delta.denominator ** 2
            ac = C.average_defective_coloring(g, w, delta, engine)
            ok, _ = C.defect_certificate(g, w, ac.colors, delta, "average")
            assert ok


def test_average_defective_coloring_packs_its_graph_once(monkeypatch):
    """The average coloring packed its graph and integer weights twice:
    once itself and once in the per-node coloring it called for stage
    one.  Both certificates and both declared phases stay."""
    packs = []
    init = C._Packing.__init__

    def counted(self, *args):
        packs.append(self)
        init(self, *args)

    monkeypatch.setattr(C._Packing, "__init__", counted)
    g = G.simple_graph(range(6), [(i, i + 1) for i in range(5)] + [(0, 5)])
    w = unit_weights(g)
    for mode in (sim.LOCAL, sim.CONGEST):
        packs.clear()
        engine = sim.RoundEngine(g, mode=mode)
        ac = C.average_defective_coloring(g, w, Fraction(1, 2), engine)
        assert len(packs) == 1
        assert ac.certificate["mono_weight"] <= ac.certificate[
            "total_weight"] / 2
        assert engine.metrics.total_rounds == ac.rounds
        stage1 = C.weighted_defective_coloring(g, w, Fraction(1, 4),
                                               sim.RoundEngine(g, mode=mode))
        assert ac.rounds > stage1.rounds


def test_average_star_example():
    g = G.simple_graph([0, 1, 2, 3, 4], [(0, i) for i in (1, 2, 3, 4)])
    w = unit_weights(g)
    ac = C.average_defective_coloring(g, w, Fraction(1, 2), sim.RoundEngine(g))
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
        nb = g.neighbors(w)
        return [(nb[i], nb[i + 1]) for i in range(len(nb) - 1)]

    h = build_d2_multigraph(g, spec)
    w = rand_weights(rng, h)
    for mode in (sim.LOCAL, sim.CONGEST):
        ac = C.average_defective_coloring(h, w, Fraction(1, 4),
                                          sim.RoundEngine(h, mode=mode))
        ok, _ = C.defect_certificate(h, w, ac.colors, Fraction(1, 4), "average")
        assert ok


def test_initial_coloring_reuse(rng):
    g = random_simple_graph(rng, 20, 4, 0.3)
    pc = C.linial_coloring(g)
    w = unit_weights(g)
    dc = C.weighted_defective_coloring(g, w, Fraction(1, 2),
                                       sim.RoundEngine(g), initial=pc.colors)
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
    ac = C.average_defective_coloring(g, w, Fraction(1, 2),
                                      sim.RoundEngine(g, mode=sim.CONGEST),
                                      initial=initial)
    assert ac.colors == {1: 7, 2: 4, 3: 2, 4: 4, 5: 6, 6: 5, 7: 2, 8: 3, 9: 1}
    assert (ac.palette_size, ac.rounds) == (41, 84)
    ok, _ = C.defect_certificate(g, w, ac.colors, Fraction(1, 2), "average")
    assert ok


def test_public_colorings_reject_malformed_initial():
    """A missing node raised KeyError and a monochromatic edge the
    coloring's own AssertionError; a negative color is rejected too."""
    g = G.simple_graph([1, 2], [(1, 2)])
    w = {0: 1}
    cases = [({1: 0}, "misses node 2"), ({1: 0, 2: 0}, "both endpoints"),
             ({1: 0, 2: -1}, "negative")]
    for initial, msg in cases:
        with pytest.raises(C.ColoringError, match=msg):
            C.linial_coloring(g, initial=initial)
        with pytest.raises(C.ColoringError, match=msg):
            C.weighted_defective_coloring(g, w, Fraction(1, 2),
                                          sim.RoundEngine(g), initial=initial)
        with pytest.raises(C.ColoringError, match=msg):
            C.average_defective_coloring(g, w, Fraction(1, 2),
                                         sim.RoundEngine(g), initial=initial)
        with pytest.raises(C.ColoringError, match=msg):
            C.greedy_defective_oracle(g, w, Fraction(1, 2), initial=initial)
    # an isolated node's color is unconstrained, and extra keys are ignored
    h = G.simple_graph([1, 2, 3], [(1, 2)])
    initial = {1: 0, 2: 1, 3: 1, 99: 5}
    assert C.linial_coloring(h, initial=initial).palette_size >= 2
    C.average_defective_coloring(h, {0: 1}, Fraction(1, 2), sim.RoundEngine(h),
                                 initial=initial)


def test_closed_forms_match_the_kernels(rng, monkeypatch):
    """Stage-one steps on colors below q and reductions on colors below p
    are settled without the kernels; with those shortcuts off, the kernels
    give the same colorings, palettes and figures.  Start colors straddle
    q (and 0 on the rounding path), and collisions mod q push stage-one
    colors around p."""
    below0 = C._below
    weighed = 0
    for trial in range(120):
        g = random_simple_graph(rng, rng.randint(2, 24), 5, 0.4)
        order = list(g.nodes)
        rng.shuffle(order)
        top = rng.randint(len(order), 80)
        initial = dict(zip(order, rng.sample(range(top), len(order))))
        w = rand_weights(rng, g)
        delta = rng.choice([Fraction(1), Fraction(1, 2), Fraction(1, 3)])
        mode = rng.choice([sim.LOCAL, sim.CONGEST])
        pk = C._Packing(g)
        wi = C._weights_to_ints(w, pk.eidx)
        # the rounding path does not check its start colors: some negative
        shift = rng.choice([0, 0, top // 2])
        start = {v: c - shift for v, c in initial.items()}
        calls = []
        runs = []
        for below in (below0, lambda colors, bound: False):
            monkeypatch.setattr(C, "_below", below)
            ac = C.average_defective_coloring(
                g, w, delta, sim.RoundEngine(g, mode=mode), initial=initial)
            runs.append((ac.colors, ac.palette_size, ac.rounds,
                         C.defective_colors_for_rounding(
                             pk, lambda: (calls.append(below) or wi,
                                          [0] * pk.nv),
                             delta, mode == sim.CONGEST, pk.start(start))))
        assert runs[0] == runs[1], trial
        assert len(calls) == len(set(calls))    # weights() at most once
        weighed += below0 in calls
    assert 0 < weighed < 120
