"""The builders' integer valuations against the least-common-denominator
conversion of the same rational tables, and the JSON round trip."""

import json
from fractions import Fraction

from locround import cli, graph as G, indepset as IS, mis as M
from locround import rounding as R, setcover as SC
from locround.mis import _adjacency
from conftest import (random_setcover, random_simple_graph, raw_rows,
                      valuation_to_json)


def _fields(val):
    return (val.nlabels, val.edge_utility, val.edge_cost, val.node_utility,
            val.node_cost, val.scale)


def _packed(g, val):
    p = R._Prepared(g, val)
    zero = (0,) * (p.L * p.L)
    return (p.L, [val.edge_utility.get(i, zero) for i in p.eidx],
            [val.edge_cost.get(i, zero) for i in p.eidx], p.nut, p.nct,
            p.scale)


def _json_round_trip(tmp_path, h, val):
    lam = R.FractionalAssignment.integral(val.nlabels,
                                          {v: 0 for v in h.nodes})
    path = tmp_path / "val.json"
    path.write_text(json.dumps(valuation_to_json(h, val, lam)))
    h2, val2, _lam = cli._load_rounding_instance(str(path))
    assert _packed(h2, val2) == _packed(h, val)


def _cost_table(c):
    return ((0, 0), (0, c))


def _mis_reference(it, h):
    """The MIS estimator's tables in rationals, from the iteration."""
    half = {v: Fraction(it.degree[v], 2) for v in it.good_nodes}
    nu, phys = {}, {}
    for v in it.good_nodes:
        for u in it.in_star[v]:
            nu[u] = nu.get(u, 0) + half[v]
            for w in it.out_nbrs[u]:
                key = (min(u, w), max(u, w))
                phys[key] = phys.get(key, 0) + half[v]
    ec = {e.index: _cost_table(phys[(e.u, e.v)] if e.manager is None
                               else 2 * half[e.manager])
          for e in h.edges}
    return R.Valuation.from_fractions(
        2, {}, ec, node_utility={v: (0, x) for v, x in nu.items()})


def test_from_fractions_takes_least_common_denominator():
    val = R.Valuation.from_fractions(
        2, {3: ((Fraction(1, 2), 0), (Fraction(2, 3), 1))}, {},
        node_cost={5: (Fraction(5, 4), 0)})
    assert val.scale == 12
    assert val.edge_utility == {3: (6, 0, 8, 12)}
    assert val.node_cost == {5: (15, 0)}
    # an integer form with a common factor is reduced to the same
    assert _fields(R.Valuation(2, {3: (18, 0, 24, 36)}, {},
                               node_cost={5: (45, 0)}, scale=36)) \
        == _fields(val)


def test_mis_valuation_matches_rational_tables(rng, tmp_path):
    graphs = [random_simple_graph(rng, rng.randint(2, 40),
                                  rng.randint(2, 9), 0.3)
              for _ in range(12)]
    # every degree even: every entry is an integer and the scale is 1
    even = [G.simple_graph(range(1, 9),
                           [(i, i % 8 + 1) for i in range(1, 9)]),
            G.simple_graph(range(5), [(a, b) for a in range(5)
                                      for b in range(a + 1, 5)])]
    for g in graphs + even:
        if not g.edges:
            continue
        it = M.classify_and_select_instar(_adjacency(g))
        h, val = M.build_mis_valuation(it)
        assert _fields(val) == _fields(_mis_reference(it, h))
        if g in even:
            assert val.scale == 1
        _json_round_trip(tmp_path, h, val)
    assert any(M.build_mis_valuation(M.classify_and_select_instar(
        _adjacency(g)))[1].scale == 2 for g in graphs)


def test_is_valuation_matches_rational_tables(rng, tmp_path):
    for trial in range(18):
        g = random_simple_graph(rng, rng.randint(1, 30), 6, 0.3)
        kind = trial % 3
        if kind == 0:
            w = {v: rng.randint(1, 9) for v in g.nodes}
        elif kind == 1:
            w = {v: Fraction(rng.randint(1, 9)) for v in g.nodes}
        else:
            w = {v: Fraction(rng.randint(1, 30), rng.choice([2, 3, 5, 12]))
                 for v in g.nodes}
        ref = R.Valuation.from_fractions(
            2, {}, {e.index: _cost_table(Fraction(min(w[e.u], w[e.v])))
                    for e in g.edges},
            node_utility={v: (0, Fraction(w[v])) for v in g.nodes})
        val = IS.is_valuation(g, w)
        assert _fields(val) == _fields(ref)
        if kind < 2:
            assert val.scale == 1
        _json_round_trip(tmp_path, g, val)


def test_setcover_valuation_matches_rational_tables(rng, tmp_path):
    checked = set()
    for trial in range(8):
        wmax = 5 if trial % 2 else 1
        inst = random_setcover(rng, rng.randint(3, 20), rng.randint(3, 14),
                               4, 5, wmax=wmax)
        cost = inst.costs if wmax > 1 else {v: 1 for v in inst.sets}
        x0, _f, _ob = SC.fractional_cover(inst, weighted=wmax > 1)
        x = SC.build_scaled_x(x0, inst)
        try:
            n_star = SC.select_n_star(inst, x)
        except SC.CoverInvariantError:
            continue
        lam = R.preprocess_fractional(
            raw_rows({v: (1 - Fraction(*x[v]), Fraction(*x[v]))
                      for v in inst.sets}),
            Fraction(1, 200), Fraction(1, 2), 2)
        tau = SC._tau_for(max(2, inst.s * wmax))
        for i in (1, tau // 2, tau):
            g_i = 20 * wmax * SC._g_coefficient(tau - i)
            u_live = {u for u in inst.elements if rng.random() < 0.7}
            h, val = SC._iteration_valuation(inst, n_star, u_live, g_i, lam,
                                             cost)
            cnt = {}
            for u in u_live:
                for v in n_star[u]:
                    cnt[v] = cnt.get(v, 0) + 1
            xprime = {v: Fraction(lam.values[v][1], 1 << lam.k)
                      for v in inst.sets}
            const = {v: 10 * cost[v] * xprime[v] for v in inst.sets}
            ref = R.Valuation.from_fractions(
                2, {}, {e.index: _cost_table(2 * g_i) for e in h.edges},
                node_utility={v: (const[v], g_i * cnt.get(v, 0) + const[v])
                              for v in inst.sets},
                node_cost={v: (0, cost[v]) for v in inst.sets})
            assert _fields(val) == _fields(ref)
            _json_round_trip(tmp_path, h, val)
            checked.add(wmax)
    assert checked == {1, 5}
