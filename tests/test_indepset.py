from fractions import Fraction

import pytest

from locround import (graph as G, indepset as IS, oracle as O,
                      rounding as R, sim as S)
from conftest import random_simple_graph, random_weighted_graph, raw_rows
from rational_lp import dual_covering_lp


def wgraph(nodes, pairs, weights):
    return G.WeightedGraph(G.simple_graph(nodes, pairs), weights)


def _local(wg):
    """A new LOCAL engine over the graph of ``wg``."""
    return S.RoundEngine(wg.graph)


def _is_uc(wg, x):
    val = IS.is_valuation(wg.graph, wg.weights)
    lam = {v: (1 - Fraction(x[v]), Fraction(x[v])) for v in wg.graph.nodes}
    return R.evaluate(val, raw_rows(lam), wg.graph)


def test_is_valuation_examples():
    wg = wgraph([1, 2], [(1, 2)], {1: 3, 2: 5})
    assert _is_uc(wg, {1: 0, 2: 0}) == (0, 0)
    assert _is_uc(wg, {1: 1, 2: 1}) == (8, 3)
    k3 = wgraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)], {1: 1, 2: 1, 3: 1})
    assert _is_uc(k3, {v: Fraction(1, 3) for v in (1, 2, 3)}) == (
        1, Fraction(1, 3))


def test_extract_examples():
    wg = wgraph([1, 2], [(1, 2)], {1: 3, 2: 5})
    I = IS.extract_is(wg.graph, wg.weights, {1: 1, 2: 1})
    assert I == [2]
    I = IS.extract_is(wg.graph, wg.weights, {1: 1, 2: 0})
    assert I == [1]
    k3 = wgraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)], {1: 1, 2: 1, 3: 1})
    I = IS.extract_is(k3.graph, k3.weights, {1: 1, 2: 1, 3: 1})
    assert len(I) == 1


def test_basic_round_edgeless():
    wg = wgraph([1, 2, 3], [], {1: 2, 2: 3, 3: 4})
    x = {v: Fraction(1) for v in (1, 2, 3)}
    I, u0 = IS.basic_is_round(wg.graph, wg.weights, x, Fraction(1, 10),
                              _local(wg))
    assert I == [1, 2, 3] and u0 == 9


def test_basic_round_k3():
    k3 = wgraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)], {1: 1, 2: 1, 3: 1})
    x = {v: Fraction(1, 3) for v in (1, 2, 3)}
    I, u0 = IS.basic_is_round(k3.graph, k3.weights, x, Fraction(1, 10),
                              _local(k3))
    assert len(I) >= 1


def test_basic_round_precondition():
    k3 = wgraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)], {1: 1, 2: 1, 3: 1})
    x = {v: Fraction(1) for v in (1, 2, 3)}     # u = 3, c = 3
    with pytest.raises(IS.ISInvariantError):
        IS.basic_is_round(k3.graph, k3.weights, x, Fraction(1, 10),
                          _local(k3))


def test_packing_backends():
    k3 = wgraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)], {1: 1, 2: 1, 3: 1})
    sstar, x = O.packing_lp(k3)
    assert sstar == 1
    lone = wgraph([9], [], {9: 7})
    sstar, x = O.packing_lp(lone)
    assert sstar == 7 and x[9] == 1
    # doubling-freeze on a path: value within [S*/4, S*]
    p3 = G.simple_graph([1, 2, 3], [(1, 2), (2, 3)])
    y = IS.fractional_matching_doubling_freeze(p3)
    total = sum(Fraction(n, m + n) for m, n in y.values())
    line = G.line_graph_view(p3)
    sstar_line, _ = O.packing_lp(line, weights={v: 1 for v in line.nodes})
    assert 4 * total >= sstar_line


def test_lp_guided_examples(rng):
    edgeless = wgraph([1, 2], [], {1: 4, 2: 6})
    I, sstar = IS.lp_guided_is(edgeless)
    assert I == [1, 2] and sstar == 10
    k3 = wgraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)], {1: 1, 2: 1, 3: 1})
    I, sstar = IS.lp_guided_is(k3)
    assert len(I) == 1 and sstar == 1
    for _ in range(5):
        wg = random_weighted_graph(rng, rng.randint(3, 30), 6)
        I, sstar = IS.lp_guided_is(wg)
        assert 4 * sum(wg.weights[v] for v in I) >= sstar


def test_local_ratio_combine_cases():
    g = G.simple_graph([1, 2, 3, 4], [(1, 2), (3, 4)])
    I = IS.local_ratio_combine(g, [([1], 1)])
    assert I == [1]
    I = IS.local_ratio_combine(g, [([1], 1), ([3], 1)])
    assert I == [1, 3]


def test_beta_approx_vs_oracle(rng):
    for _ in range(4):
        wg = random_weighted_graph(rng, rng.randint(3, 14), 4, 0.3)
        I, sstar, ups = IS.beta_approx_is(wg, Fraction(1, 10),
                                          engine=_local(wg))
        wI = sum(wg.weights[v] for v in I)
        assert wI >= Fraction(9, 10) * sstar
        opt, _ = O.brute_max_weight_is(wg)
        beta = O.neighborhood_independence(wg.graph)
        assert beta * wI >= Fraction(9, 10) * opt
        assert O.is_independent(wg.graph, I)


def _scripted_ladder(rounds, eps=Fraction(1, 2), bound=lambda w: 0,
                     check=True):
    """``_ladder`` on the path 1-2 plus the lone node 3, weights 4, 8, 4,
    whose rounds return the scripted (I_t, B(w_t)) in turn."""
    wg = wgraph([1, 2, 3], [(1, 2)], {1: 4, 2: 8, 3: 4})
    script = iter(rounds)
    return IS._ladder(wg, eps, None, check, lambda sub, w, cols: next(script),
                      bound)


def test_ladder_check_trips_each_assertion(monkeypatch):
    """Round 1 takes {3} at B = 16: Upsilon_1 = 12 = (3/4) 16, and 1, 2
    keep 4, 8.  Each case breaks one inequality and keeps the ones checked
    before it."""
    cases = [
        ([([3], 100)], "potential did not shrink: Upsilon_1 = 96"),
        # Upsilon_2 = 8 <= 9, but 4 * 4 < 17
        ([([3], 16), ([1], 17)], r"round 2: 4 w_t\(I_t\) = 16 below"),
        ([([3], 16), ([1], 11)], r"Upsilon_1 = 12 exceeds B\(w_2\) = 11"),
        # {2} clears 1 and 2: nothing is left, so B = 0 after round 2
        ([([3], 16), ([2], 12)], "Upsilon_2 = 4 exceeds B = 0 of the last"),
        # 1 and 2 conflict: the union keeps 1 and 3, 8 of the 16 charged
        ([([1, 2], 12), ([3], 4)], "local-ratio charge failed: 8 < 16"),
    ]
    for rounds, msg in cases:
        with pytest.raises(IS.ISInvariantError, match=msg):
            _scripted_ladder(rounds)
    # eps = 9/10 is one round; 1 and 2 keep weight, so ``bound`` reads it
    seen = []
    with pytest.raises(IS.ISInvariantError,
                       match="Upsilon_1 = 12 exceeds B = 11 of the last"):
        _scripted_ladder([([3], 16)], Fraction(9, 10),
                         lambda w: seen.append(w) or 11)
    assert seen == [{1: 4, 2: 8, 3: 0}]
    # unchecked, no ladder check runs and ``bound`` is not read
    assert _scripted_ladder([([3], 100), ([2], 1)], bound=None,
                            check=False) == ([2, 3], 100, [96, 88])
    # the union passes every check above; a light or dependent one fails
    for union, msg in (([], r"\(1-eps\) B bound failed: 0 < 6"),
                       ([1, 2], "combined set is not independent")):
        monkeypatch.setattr(IS, "local_ratio_combine", lambda *args: union)
        with pytest.raises(IS.ISInvariantError, match=msg):
            _scripted_ladder([([2, 3], 12)])
    monkeypatch.undo()
    # a residual that deducts twice what I_t covers: 2 loses 8, y = 4
    residual = IS._residual_weights

    def doubled(g, w, I):
        return {u: max(0, 2 * r - w[u]) for u, r in residual(g, w, I).items()}

    monkeypatch.setattr(IS, "_residual_weights", doubled)
    with pytest.raises(IS.ISInvariantError,
                       match=r"y\(N\+\[2\]\) = 4 below w'_t\(2\) = 8"):
        _scripted_ladder([([1], 16)])


def test_ladder_certificate_matches_the_covering_lp(rng, monkeypatch):
    """On seeded beta and Turan ladders, every round's w'_t = w_t - w_{t+1}
    has S*(w'_t), the covering LP optimum, at most w_t(I_t), and the
    certificate scan passes on the same inputs."""
    seen = []
    residual = IS._residual_weights

    def recording(g, w, I):
        seen.append((g, w, I, residual(g, w, I)))
        return seen[-1][3]

    monkeypatch.setattr(IS, "_residual_weights", recording)
    for _ in range(6):
        wg = random_weighted_graph(rng, rng.randint(2, 16), 5, 0.3, wmax=30)
        IS.beta_approx_is(wg, Fraction(1, 2), engine=_local(wg))
        IS.turan_fraction_is(wg, Fraction(1, 2), engine=_local(wg))
    assert len(seen) >= 12
    for g, w, I, w_next in seen:
        opt, _y = dual_covering_lp(g, {v: w[v] - w_next[v] for v in g.nodes})
        assert opt <= sum(w[v] for v in I)
        IS._check_dual_certificate(g, w, I, w_next)


def test_turan_bound(rng):
    k4 = wgraph([1, 2, 3, 4],
                [(i, j) for i in range(1, 5) for j in range(i + 1, 5)],
                {v: 1 for v in range(1, 5)})
    I = IS.turan_fraction_is(k4, Fraction(1, 10), engine=_local(k4))
    assert len(I) >= 1
    for _ in range(4):
        wg = random_weighted_graph(rng, rng.randint(2, 40), 6)
        I = IS.turan_fraction_is(wg, Fraction(1, 10), engine=_local(wg))
        bound = (1 - Fraction(1, 10)) * Fraction(
            wg.total_weight(), wg.graph.max_degree() + 1)
        assert sum(wg.weights[v] for v in I) >= bound


def test_caro_wei_examples(rng):
    lone = wgraph([3], [], {3: 5})
    I = IS.caro_wei_is(lone, Fraction(1, 20), engine=_local(lone))
    assert I == [3]
    star = wgraph([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)],
                  {v: 1 for v in range(4)})
    I = IS.caro_wei_is(star, Fraction(1, 20), engine=_local(star))
    mass = Fraction(1, 4) + 3 * Fraction(1, 2)
    assert sum(1 for _ in I) >= 1
    assert len(I) >= (Fraction(1, 2) - Fraction(1, 20)) * mass
    for _ in range(4):
        wg = random_weighted_graph(rng, rng.randint(2, 40), 6, wmax=20)
        IS.caro_wei_is(wg, Fraction(1, 10), engine=_local(wg))


def test_matching_examples(rng):
    single = G.simple_graph([1, 2], [(1, 2)])
    M, _, iters = IS.maximal_matching(single)
    assert M == [(1, 2)]
    p4 = G.simple_graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    M, _, _ = IS.maximal_matching(p4)
    assert len(M) >= 1
    for _ in range(5):
        g = random_simple_graph(rng, rng.randint(2, 60), 8, 0.15)
        M, _, iters = IS.maximal_matching(g)
        index = {(min(e.u, e.v), max(e.u, e.v)): e.index for e in g.edges}
        ids = [index[p] for p in M]
        assert O.is_maximal_matching(g, ids)


def test_edge_coloring_proper(rng):
    for _ in range(5):
        g = random_simple_graph(rng, rng.randint(2, 40), 6, 0.2)
        col = IS.edge_coloring_sq(g)
        dmax = g.max_degree()
        if col:
            assert max(col.values()) < 3 * (dmax * (dmax + 1) // 2 + dmax + 1)
