from fractions import Fraction

import pytest

from locround import graph as G, oracle as O, setcover as SC, sim as S
from conftest import random_setcover


def test_single_element_single_set():
    inst = G.SetCoverInstance([1], [10], [(1, 10)])
    V, metrics, info = SC.set_cover(inst)
    assert V == [10]


def test_disjoint_forced_cover(rng):
    # each element in exactly one set: the forced cover is optimal
    els = list(range(1, 9))
    sets_ = [100, 200]
    inc = [(u, 100) for u in els[:4]] + [(u, 200) for u in els[4:]]
    inst = G.SetCoverInstance(els, sets_, inc)
    V, metrics, info = SC.set_cover(inst)
    assert V == [100, 200]
    opt, wit = O.brute_set_cover_opt(inst)
    assert opt == 2


def test_build_scaled_x_rules():
    inst = G.SetCoverInstance([1, 2], [10, 11], [(1, 10), (2, 11), (2, 10)])
    t = inst.t
    # sets 10 and 11 share element 2, so their values share a denominator
    x0 = {10: (2 * t, 2 * t), 11: (1, 2 * t)}
    x = SC.build_scaled_x(x0, inst)
    assert Fraction(*x[10]) == Fraction(1, 10)
    assert x[11][0] == 0     # at the threshold: zeroed


def test_select_n_star_traces():
    inst = G.SetCoverInstance([1], [10, 11, 12, 13],
                              [(1, v) for v in (10, 11, 12, 13)])
    x = {10: (1, 20), 11: (1, 20), 12: (1, 20), 13: (1, 20)}
    ns = SC.select_n_star(inst, x)
    assert ns[1] == [10]
    x = {10: (1, 10), 11: (0, 10), 12: (0, 10), 13: (0, 10)}
    ns = SC.select_n_star(inst, x)
    assert ns[1] == [10]


def test_scaling_boundaries():
    # element i lies in set 9 + i and in set 13 (t = 2)
    inst = G.SetCoverInstance([1, 2, 3], [10, 11, 12, 13],
                              [(1, 10), (2, 11), (3, 12), (1, 13), (2, 13),
                               (3, 13)])
    assert inst.t == 2
    d = 400

    def scaled(x10, x11, x12, x13):
        return SC.build_scaled_x({10: (x10, d), 11: (x11, d), 12: (x12, d),
                                  13: (x13, d)}, inst)

    # x0 = 1/(2t) is zeroed; one step above it the value is kept, just
    # above the (frac0) floor 1/(20t), and x0 = 1 sits on its ceiling 1/10
    x = scaled(d // 4, d // 4 + 1, d, d)
    assert x[10][0] == 0
    assert Fraction(*x[11]) == Fraction(d // 4 + 1, 10 * d)
    assert Fraction(*x[12]) == Fraction(1, 10)
    # one step above x0 = 1 breaks the (frac0) ceiling
    with pytest.raises(SC.CoverInvariantError, match="frac0"):
        scaled(0, 0, d + 1, d)
    # x0 = 1/2 alone gives element 1 the (frac1) mass 1/20 exactly; one
    # step less raises
    x = scaled(d // 2, d, d, 0)
    assert Fraction(*x[10]) == Fraction(1, 20)
    with pytest.raises(SC.CoverInvariantError, match="frac1"):
        scaled(d // 2 - 1, d, d, 0)


def test_n_star_boundaries():
    inst = G.SetCoverInstance([1], [10, 11, 12],
                              [(1, v) for v in (10, 11, 12)])
    # the greedy stops once the mass reaches 1/20 exactly
    assert SC.select_n_star(inst, {v: (1, 40) for v in (10, 11, 12)}) == {
        1: [10, 11]}
    # (frac2): a mass of exactly 1/5 holds, one step above raises
    x = {10: (40, 200), 11: (0, 200), 12: (0, 200)}
    assert SC.select_n_star(inst, x) == {1: [10]}
    x[10] = (41, 200)
    with pytest.raises(SC.CoverInvariantError, match="frac2"):
        SC.select_n_star(inst, x)
    # and so does a mass below 1/20
    x = {10: (1, 200), 11: (8, 200), 12: (0, 200)}
    with pytest.raises(SC.CoverInvariantError, match="frac2"):
        SC.select_n_star(inst, x)
    # the sets of one element must share a denominator
    with pytest.raises(ValueError, match="share a denominator"):
        SC.select_n_star(inst, {10: (1, 20), 11: (1, 40), 12: (0, 20)})


def test_triangle_cover_sits_at_one_over_t():
    # the triangle: every element in two of three sets; the only optimal
    # fractional cover is 1/2 = 1/t on every set, which (frac1) and (frac2)
    # still accept
    inst = G.SetCoverInstance([1, 2, 3], [10, 11, 12],
                              [(1, 10), (1, 12), (2, 10), (2, 11), (3, 11),
                               (3, 12)])
    x0, factor, ob = SC.fractional_cover(inst)
    assert {Fraction(*x0[v]) for v in inst.sets} == {Fraction(1, inst.t)}
    assert ob == Fraction(3, 2)
    V, metrics, info = SC.set_cover(inst)
    assert O.covers(inst, V)
    assert len(V) <= 3 * info["tau"] * ob


def test_tau_monotone_in_s():
    assert SC._tau_for(2) < SC._tau_for(50) < SC._tau_for(5000)


def test_g_coefficient_dyadic_and_monotone():
    gs = [SC._g_coefficient(m) for m in range(0, 40)]
    assert gs[0] == 1
    for a, b in zip(gs, gs[1:]):
        assert b < a
        assert a <= Fraction(102, 100) * b
        assert a.denominator & (a.denominator - 1) == 0 or a.denominator == 1


def test_fractional_cover_backends(rng):
    inst = random_setcover(rng, 8, 6, 3, 5)
    for backend in ("central-exact", "central-approx"):
        x0, factor, ob = SC.fractional_cover(inst, backend)
        for u in inst.elements:
            assert sum(Fraction(*x0[v]) for v in inst.element_sets[u]) >= 1
        if backend == "central-approx":
            for v in inst.sets:
                d = Fraction(*x0[v]).denominator
                assert d & (d - 1) == 0


def test_oracle_tier_fuzz(rng):
    for _ in range(6):
        inst = random_setcover(rng, rng.randint(1, 9), rng.randint(1, 7), 3, 4)
        V, metrics, info = SC.set_cover(inst)
        assert O.covers(inst, V)
        opt, _ = O.brute_set_cover_opt(inst)
        assert len(V) <= 3 * info["tau"] * opt
        assert opt * inst.s >= len(inst.elements)     # OPT >= |U|/s
        # phi trace monotone
        phi = info["phi"]
        assert all(phi[i + 1] <= phi[i] for i in range(len(phi) - 1))


def test_weighted_variant(rng):
    for _ in range(4):
        inst = random_setcover(rng, rng.randint(2, 8), rng.randint(2, 7),
                               3, 4, wmax=6)
        V, metrics, info = SC.set_cover(inst, cost_mode="weighted")
        assert O.covers(inst, V)
        cost = sum(inst.costs[v] for v in V)
        assert cost <= 3 * info["tau"] * info["opt_bound"]


def test_congest_mode(rng):
    inst = random_setcover(rng, 12, 9, 3, 5)
    V, metrics, info = SC.set_cover(inst, mode=S.CONGEST)
    assert O.covers(inst, V)
    assert not metrics.budget_violations


def test_from_dominating_set(rng):
    g = G.simple_graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    inst, base = SC.from_dominating_set(g)
    V, metrics, info = SC.set_cover(inst)
    dom = [v - base for v in V]
    covered = set()
    for v in dom:
        covered.add(v)
        covered.update(g.neighbors(v))
    assert covered == set(g.nodes)


def test_empty_universe():
    inst = G.SetCoverInstance([], [5], [])
    V, metrics, info = SC.set_cover(inst)
    assert V == []
