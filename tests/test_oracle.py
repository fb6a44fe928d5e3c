import itertools
from fractions import Fraction

import pytest

from locround import graph as G, oracle as O
from conftest import random_simple_graph, random_setcover
from rational_lp import dual_covering_lp, exact_lp


def test_brute_is_examples():
    k3 = G.WeightedGraph(G.simple_graph([1, 2, 3],
                                        [(1, 2), (2, 3), (1, 3)]),
                         {1: 1, 2: 1, 3: 1})
    assert O.brute_max_weight_is(k3)[0] == 1
    p4 = G.WeightedGraph(G.simple_graph([1, 2, 3, 4],
                                        [(1, 2), (2, 3), (3, 4)]),
                         {v: 1 for v in range(1, 5)})
    assert O.brute_max_weight_is(p4)[0] == 2
    star = G.WeightedGraph(G.simple_graph(list(range(6)),
                                          [(0, i) for i in range(1, 6)]),
                           {v: 1 for v in range(6)})
    assert O.brute_max_weight_is(star)[0] == 5


def test_brute_is_budget():
    big = G.simple_graph(list(range(25)), [])
    with pytest.raises(O.OverBudget):
        O.brute_max_weight_is(big)


def _edgeless(n):
    return G.simple_graph(list(range(n)), [])


def _star(leaves):
    return G.simple_graph(list(range(leaves + 1)),
                          [(0, i) for i in range(1, leaves + 1)])


def _one_element_cover(nsets):
    """One element in every one of ``nsets`` sets: one component."""
    sets_ = list(range(2, nsets + 2))
    return G.SetCoverInstance([1], sets_, [(1, v) for v in sets_])


# each OverBudget site: the oracle, the largest input it takes and the
# message of the one just past it
ORACLE_LIMITS = {
    "brute-is": (lambda n: O.brute_max_weight_is(_edgeless(n)), 20,
                 "21 nodes over oracle budget"),
    "brute-cover": (lambda n: O.brute_set_cover_opt(_one_element_cover(n)),
                    20, "21 sets over oracle budget"),
    "beta-graph": (lambda n: O.neighborhood_independence(_edgeless(n)), 120,
                   "graph over oracle budget"),
    "beta-neighborhood": (lambda n: O.neighborhood_independence(_star(n)),
                          20, "neighborhood of 0 over budget"),
    "packing-lp": (lambda n: O.packing_lp_integers(_edgeless(n)), 10_000,
                   "packing LP over budget"),
    "cover-lp": (lambda n: O.setcover_lp(_one_element_cover(n)), 10_000,
                 "set cover LP over budget"),
}


@pytest.mark.parametrize("site", sorted(ORACLE_LIMITS))
def test_oracle_limit_fires_one_past_it(site):
    """Every OverBudget site takes an input at its limit and refuses the
    one just past it, with its own message."""
    run, limit, msg = ORACLE_LIMITS[site]
    run(limit)
    with pytest.raises(O.OverBudget, match=f"^{msg}$"):
        run(limit + 1)


def test_brute_setcover_examples():
    single = G.SetCoverInstance([1], [9], [(1, 9)])
    assert O.brute_set_cover_opt(single)[0] == 1
    two = G.SetCoverInstance([1, 2, 3, 4], [10, 11],
                             [(1, 10), (2, 10), (3, 11), (4, 11)])
    assert O.brute_set_cover_opt(two)[0] == 2


def test_beta_examples():
    k4 = G.simple_graph([1, 2, 3, 4],
                        [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    assert O.neighborhood_independence(k4) == 1
    star = G.simple_graph([0, 1, 2, 3, 4], [(0, i) for i in range(1, 5)])
    assert O.neighborhood_independence(star) == 4
    tri_line = G.simple_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert O.neighborhood_independence(tri_line) == 1


def test_lp_examples():
    k3 = G.WeightedGraph(G.simple_graph([1, 2, 3],
                                        [(1, 2), (2, 3), (1, 3)]),
                         {1: 1, 2: 1, 3: 1})
    sstar, x = O.packing_lp(k3)
    assert sstar == 1
    lone = G.WeightedGraph(G.simple_graph([8], []), {8: 11})
    sstar, x = O.packing_lp(lone)
    assert sstar == 11 and x[8] == 1


def test_strong_duality_fuzz(rng):
    for _ in range(12):
        g = random_simple_graph(rng, rng.randint(1, 10), 4, 0.3)
        wp = {v: rng.randint(0, 9) for v in g.nodes}
        o1, y = dual_covering_lp(g, wp)
        o2, x = O.packing_lp(g, weights=wp)
        assert o1 == o2


def test_lp_vs_brute(rng):
    for _ in range(10):
        from conftest import random_weighted_graph
        wg = random_weighted_graph(rng, rng.randint(2, 12), 5, 0.3)
        sstar, x = O.packing_lp(wg)
        opt, _ = O.brute_max_weight_is(wg)
        assert opt <= sstar * O.neighborhood_independence(wg.graph)
        assert sstar >= opt / max(1, O.neighborhood_independence(wg.graph))


def _disjoint_union(rng, blocks):
    """Random graph of ``blocks`` components (isolated nodes included) whose
    node ids interleave, so components are not contiguous in node order."""
    nodes, pairs = [], []
    for b in range(blocks):
        g = random_simple_graph(rng, rng.randint(1, 8), 4, 0.4, id_range=30)
        nodes += [blocks * v + b for v in g.nodes]
        pairs += [(blocks * e.u + b, blocks * e.v + b) for e in g.edges]
    return G.simple_graph(nodes, pairs)


def test_per_component_lps_match_whole_system(rng):
    for _ in range(25):
        g = _disjoint_union(rng, rng.randint(1, 5))
        nodes = list(g.nodes)
        w = {v: rng.choice([0, 0, 1, 3, 7]) for v in nodes}
        idx = {v: i for i, v in enumerate(nodes)}
        rows = [{idx[u]: 1 for u in [v] + g.neighbors(v)} for v in nodes]
        num, X, Y, prev = O.simplex_max([w[v] for v in nodes], rows,
                                        [1] * len(nodes))
        opt = Fraction(num, prev)
        x = [Fraction(xj, prev) for xj in X]
        y = [Fraction(yi, prev) for yi in Y]
        assert O.packing_lp(g, weights=w) == (opt, dict(zip(nodes, x)))
        # the covering LP's optimum is the packing LP's dual
        assert dual_covering_lp(g, w) == (opt, dict(zip(nodes, y)))


def _solve_square(M, r):
    """Exact solution of the square system M z = r, or None if singular."""
    n = len(M)
    aug = [list(row) + [rv] for row, rv in zip(M, r)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col] / aug[col][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def _vertex_optimum(c, A, b, sense):
    """Best objective over the vertices of {A x <= b (max) or A x >= b
    (min), x >= 0}, by enumerating every n of the m + n constraints as
    equalities; None when no vertex is feasible."""
    n = len(c)
    sgn = 1 if sense == "max" else -1
    dense = [[sgn * Fraction(row.get(j, 0)) for j in range(n)] for row in A]
    cons = ([(row, sgn * Fraction(bv)) for row, bv in zip(dense, b)]
            + [([-Fraction(int(i == j)) for i in range(n)], Fraction(0))
               for j in range(n)])
    best = None
    for pick in itertools.combinations(cons, n):
        z = _solve_square([row for row, _ in pick], [rv for _, rv in pick])
        if z is None or any(sum(a * zj for a, zj in zip(row, z)) > rv
                            for row, rv in cons):
            continue
        val = sum(cj * zj for cj, zj in zip(c, z))
        if best is None or sgn * val > sgn * best:
            best = val
    return best


def test_small_lps_match_vertex_enumeration(rng):
    def coef():
        return rng.randint(-4, 5)

    seen = {"max": 0, "min": 0, "infeasible": 0}
    for _ in range(150):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        sense = rng.choice(["max", "min"])
        A = [{j: coef() for j in range(n) if rng.random() < 0.8}
             for _ in range(m)]
        if sense == "max":
            # simplex_max takes b >= 0; a positive box keeps the max
            # bounded
            b = [abs(coef()) for _ in range(m)]
            c = [coef() for _ in range(n)]
            A.append({j: rng.randint(1, 3) for j in range(n)})
            b.append(rng.randint(1, 6))
        else:
            # costs >= 0 bound the min below by 0, so an infeasible min is
            # one whose dual is unbounded
            b = [coef() for _ in range(m)]
            c = [abs(coef()) for _ in range(n)]
        best = _vertex_optimum(c, A, b, sense)
        if best is None:
            with pytest.raises(O.LPInfeasible):
                exact_lp(c, A, b, sense=sense)
            seen["infeasible"] += 1
            continue
        opt, x, _y = exact_lp(c, A, b, sense=sense)
        assert opt == best
        assert sum(cj * xj for cj, xj in zip(c, x)) == opt
        seen[sense] += 1
    assert min(seen.values()) >= 10, seen


def test_lp_infeasible_and_unbounded():
    with pytest.raises(O.LPInfeasible):
        exact_lp([1], [{0: -1}], [1], sense="min")    # -x >= 1
    with pytest.raises(O.LPUnbounded):
        O.simplex_max([1, 1], [{1: 1}], [2])            # x0 is free


@pytest.mark.parametrize("solve, msg", [
    (lambda: O.simplex_max([1], [{0: 1}], [-1]), "simplex_max takes b >= 0"),
    (lambda: O.simplex_max([1, 1], [{0: 1}, {1: 1}], [2, Fraction(-1, 3)]),
     "simplex_max takes b >= 0"),
    (lambda: O._min_lp([-1], [{0: 1}], [1]), "a min LP takes costs >= 0"),
    (lambda: O._min_lp([1, Fraction(-1, 2)], [{0: 1, 1: 1}], [1]),
     "a min LP takes costs >= 0"),
    (lambda: O.simplex_max([Fraction(1, 3)], [{0: 1}], [1]),
     "simplex_max takes int coefficients"),
    (lambda: O.simplex_max([1], [{0: Fraction(2)}], [1]),
     "simplex_max takes int coefficients"),
    (lambda: O.simplex_max([1], [{0: 1}], [1.0]),
     "simplex_max takes int coefficients"),
    (lambda: O.simplex_max([True], [{0: 1}], [1]),
     "simplex_max takes int coefficients"),
    (lambda: O._min_lp([1], [{0: 1}], [Fraction(1, 3)]),
     "simplex_max takes int coefficients"),
], ids=["max-b", "max-fraction-b", "min-cost", "min-fraction-cost",
        "fraction-cost", "integral-fraction-entry", "float-rhs", "bool-cost",
        "min-fraction-rhs"])
def test_lp_outside_the_slack_start_raises_value_error(solve, msg):
    """The exact simplex starts from the slack basis and takes integer
    coefficients: a max LP with a negative rhs, a min LP with a negative
    cost (its dual's rhs), of any type, or a coefficient that is not an
    int (a Fraction, even an integral one, a float or a bool) is refused
    before any pivot."""
    with pytest.raises(ValueError, match=f"^{msg}$"):
        solve()


def test_setcover_lp_feasible(rng):
    for _ in range(8):
        inst = random_setcover(rng, rng.randint(1, 10), rng.randint(1, 8),
                               3, 4, wmax=4)
        opt, x = O.setcover_lp(inst)
        for u in inst.elements:
            nums, dens = zip(*(x[v] for v in inst.element_sets[u]))
            assert len(set(dens)) == 1      # one denominator per component
            assert sum(nums) >= dens[0]
        bopt, _ = O.brute_set_cover_opt(inst, weighted=True)
        assert opt <= bopt


def test_setcover_lp_values_match_the_rational_lp(rng):
    # the integer values equal the Fractions exact_lp returns for one
    # rational min LP per component
    for _ in range(8):
        inst = random_setcover(rng, rng.randint(1, 12), rng.randint(1, 9),
                               3, 4, wmax=rng.choice([1, 5]))
        opt, x = O.setcover_lp(inst)
        total = 0
        for els, sets_ in O._components(inst):
            sidx = {v: j for j, v in enumerate(sets_)}
            A = [{sidx[v]: 1 for v in inst.element_sets[u]} for u in els]
            o, xs, _y = exact_lp([inst.costs[v] for v in sets_], A,
                                   [1] * len(els), sense="min")
            total += o
            for v, xv in zip(sets_, xs):
                assert Fraction(*x[v]) == xv
        assert opt == total
        assert set(x) == {v for u in inst.elements
                          for v in inst.element_sets[u]}


def test_scanners():
    g = G.simple_graph([1, 2, 3], [(1, 2), (2, 3)])
    assert O.is_independent(g, [1, 3])
    assert not O.is_independent(g, [1, 2])
    assert O.is_maximal_is(g, [1, 3])
    assert O.is_maximal_is(g, [2])          # 2 dominates both 1 and 3
    assert not O.is_maximal_is(g, [1])      # 3 has no selected neighbor


def test_matching_scanners():
    g = G.simple_graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    idx = {(min(e.u, e.v), max(e.u, e.v)): e.index for e in g.edges}
    assert O.is_matching(g, [idx[(1, 2)], idx[(3, 4)]])
    assert not O.is_matching(g, [idx[(1, 2)], idx[(2, 3)]])
    assert O.is_maximal_matching(g, [idx[(2, 3)]])
    assert not O.is_maximal_matching(g, [idx[(1, 2)]])
