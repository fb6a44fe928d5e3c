from fractions import Fraction

import pytest

from locround import (coloring as C, graph as G, indepset as IS, mis as M,
                      setcover as SC, sim as S)


def test_budget_violation_recorded():
    g = G.simple_graph([1, 2], [(1, 2)])
    eng = S.RoundEngine(g, mode=S.CONGEST, bit_budget=64)
    eng.account(225, 1, edge=(1, 2))
    eng.account(64, 1)
    assert len(eng.metrics.budget_violations) == 1
    rnd, edge, bits = eng.metrics.budget_violations[0]
    assert (rnd, edge, bits) == (1, (1, 2), 225)
    assert eng.metrics.total_rounds == 2
    assert eng.metrics.max_bits_per_edge_round == 225


def test_strict_budget_aborts():
    g = G.simple_graph([1, 2], [(1, 2)])
    eng = S.RoundEngine(g, mode=S.CONGEST, bit_budget=8, strict=True)
    with pytest.raises(S.BudgetExceeded):
        eng.account(9)


def test_zero_node_graph():
    g = G.simple_graph([], [])
    eng = S.RoundEngine(g, mode=S.CONGEST)
    assert eng.bit_budget == 64
    C.linial_coloring(g, engine=eng)
    assert eng.metrics.total_rounds == 0
    assert eng.metrics.max_bits_per_edge_round == 0


def test_metrics_json_roundtrip():
    m = S.RunMetrics(total_rounds=3, max_bits_per_edge_round=10,
                     objective=Fraction(7, 2))
    m.potential_samples.append((1, Fraction(1, 3)))
    doc = m.to_json()
    assert doc["rounds"] == 3
    assert doc["objective_num"] == "7" and doc["objective_den"] == "2"
    assert doc["potential"][0]["den"] == "3"


def test_unknown_mode_is_rejected():
    """An engine in an unknown mode was built, and charged no budget."""
    g = G.simple_graph([1, 2], [(1, 2)])
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        S.RoundEngine(g, mode="bogus")


@pytest.mark.parametrize("kwargs", [{"bit_budget": 8}, {"strict": True},
                                    {"mode": S.LOCAL, "bit_budget": 64,
                                     "strict": True}],
                         ids=["budget", "strict", "both"])
def test_budget_outside_congest_is_rejected(kwargs):
    """A LOCAL engine took a bit budget and strict accounting and checked
    neither."""
    g = G.simple_graph([1, 2], [(1, 2)])
    with pytest.raises(ValueError, match="needs mode 'congest'"):
        S.RoundEngine(g, **kwargs)


def _entry_points():
    """Each entry point that takes a ``mode`` as a call on a small
    instance, with the network its engine runs over."""
    g = G.simple_graph([1, 2, 3], [(1, 2), (2, 3)])
    wg = G.WeightedGraph(g, {1: 1, 2: 2, 3: 1})
    inst = G.SetCoverInstance([1, 2], [10, 11], [(1, 10), (2, 10), (2, 11)])
    return {"mis": (lambda **kw: M.mis(g, **kw), g),
            "matching": (lambda **kw: IS.maximal_matching(g, **kw), g),
            "setcover": (lambda **kw: SC.set_cover(inst, **kw),
                         SC.network_nodes(inst)),
            "lp4": (lambda **kw: IS.lp_guided_is(wg, **kw), g)}


@pytest.mark.parametrize("entry", ["mis", "matching", "setcover", "lp4"])
def test_an_engine_of_the_other_mode_is_rejected(entry):
    """``mis(g, mode=LOCAL, engine=RoundEngine(g, mode=CONGEST))`` ran and
    reported the LOCAL figures from a CONGEST engine; the swap reported
    CONGEST figures from an engine that checks no budget."""
    run, network = _entry_points()[entry]
    for mode, other in ((S.LOCAL, S.CONGEST), (S.CONGEST, S.LOCAL)):
        engine = S.RoundEngine(network, mode=other)
        with pytest.raises(ValueError, match="contradicts the engine's mode"):
            run(mode=mode, engine=engine)
        assert engine.metrics.total_rounds == 0
        run(mode=other, engine=engine)
        assert engine.metrics.total_rounds > 0
