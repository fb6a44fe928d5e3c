from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from locround import coloring as C, graph as G, rounding as R
from conftest import random_simple_graph, raw_rows


def two_node_graph():
    return G.simple_graph([1, 2], [(1, 2)])


def test_evaluate_integral_is_lookup():
    g = two_node_graph()
    tab = ((Fraction(2), Fraction(3)), (Fraction(5), Fraction(7)))
    val = R.Valuation.from_fractions(2, {0: tab}, {0: tab})
    lam = {1: (Fraction(0), Fraction(1)), 2: (Fraction(1), Fraction(0))}
    U, C = R.evaluate(val, raw_rows(lam), g)
    assert U == 5 and C == 5


def test_evaluate_constant_table():
    g = two_node_graph()
    ones = ((1, 1), (1, 1))
    val = R.Valuation.from_fractions(2, {0: ones}, {})
    for lam1 in (Fraction(1, 3), Fraction(2, 5), Fraction(1)):
        lam = {1: (1 - lam1, lam1), 2: (Fraction(1, 2), Fraction(1, 2))}
        U, _ = R.evaluate(val, raw_rows(lam), g)
        assert U == 1


def test_evaluate_equal_label_indicator_uniform():
    g = two_node_graph()
    eq = ((1, 0), (0, 1))
    val = R.Valuation.from_fractions(2, {}, {0: eq})
    lam = {v: (Fraction(1, 2), Fraction(1, 2)) for v in (1, 2)}
    _, C = R.evaluate(val, raw_rows(lam), g)
    assert C == Fraction(1, 2)


def _step(g, val, lam, delta, eta, **kwargs):
    """One rounding step on the rows of ``lam``: returns the packing and
    the rows after the step, still numerators over 2^lam.k but all even."""
    prep = R._Prepared(g, val)
    rows = prep.lam_array(lam)
    R.rounding_step(prep, rows, lam.k, delta, eta, **kwargs)
    return prep, rows


def test_rounding_step_node_utility_forces_argmax():
    # lone node with node utility (0, 1): the full rounding must pick label 1
    g = G.simple_graph([7], [])
    val = R.Valuation.from_fractions(
        2, {}, {}, node_utility={7: (Fraction(0), Fraction(1))})
    lam = R.FractionalAssignment(2, 1, {7: (1, 1)})
    prep, rows = _step(g, val, lam, Fraction(0), Fraction(1))
    assert rows[prep.index[7]] == [0, 2]
    # and through the full schedule from half-half
    lam = R.FractionalAssignment(2, 4, {7: (8, 8)})
    ell = R.round_to_integral(g, val, lam, Fraction(1, 2), Fraction(1))
    assert ell[7] == 1


def test_rounding_step_noop_without_odd_multiples():
    g = two_node_graph()
    val = R.Valuation.from_fractions(2, {0: ((1, 1), (1, 1))}, {})
    lam = R.FractionalAssignment(2, 3, {1: (2, 6), 2: (4, 4)})
    prep, rows = _step(g, val, lam, Fraction(1, 2), Fraction(1))
    assert all(sum(row) == 1 << 3 for row in rows)
    row1, row2 = rows[prep.index[1]], rows[prep.index[2]]
    assert Fraction(row1[0], 8) == Fraction(2, 8) and Fraction(row2[0], 8) == Fraction(4, 8)


def test_rounding_step_guarantee_cost_only_edge():
    g = two_node_graph()
    eq = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    val = R.Valuation.from_fractions(2, {}, {0: eq})
    lam = R.FractionalAssignment(2, 1, {1: (1, 1), 2: (1, 1)})
    # internal exact assertion of the step lemma is the test
    for mode in ("exact", "worst", "quantized"):
        _prep, rows = _step(g, val, lam, Fraction(1, 3), Fraction(2),
                            estimate_mode=mode)
        assert all(sum(row) == 2 and row[0] % 2 == 0 for row in rows)


def test_valuation_bound_check():
    g = two_node_graph()
    tab = ((Fraction(2), Fraction(3)), (Fraction(0), Fraction(7)))
    # all entries in [1/10, 10]
    R.Valuation.from_fractions(2, {0: tab}, {}, bound=10)
    with pytest.raises(ValueError):
        R.Valuation.from_fractions(2, {0: tab}, {}, bound=5)   # 7 > 5
    with pytest.raises(ValueError):
        R.Valuation.from_fractions(2, {0: ((-1, 0), (0, 0))}, {})


def test_step_parameter_validation():
    g = two_node_graph()
    val = R.Valuation.from_fractions(2, {0: ((1, 1), (1, 1))}, {})
    lam = R.FractionalAssignment(2, 1, {1: (1, 1), 2: (1, 1)})
    with pytest.raises(ValueError):
        _step(g, val, lam, Fraction(-1, 2), Fraction(1))
    with pytest.raises(ValueError):
        _step(g, val, lam, Fraction(1, 2), Fraction(1, 2))
    bad = R.FractionalAssignment(2, 0, {1: (0, 1), 2: (1, 0)})
    with pytest.raises(ValueError):
        _step(g, val, bad, Fraction(1, 2), Fraction(1))


def _random_instance(rng, n, L, kmax, q=50, id_base=0):
    g, (eu, ec, nu), lam = _random_rational_instance(rng, n, L, kmax, q,
                                                     id_base)
    return g, R.Valuation.from_fractions(L, eu, ec, node_utility=nu), lam


def _random_rational_instance(rng, n, L, kmax, q=50, id_base=0):
    """A random graph with node ids shifted by ``id_base``, its rational
    edge utility/cost tables and node utility rows, and a dyadic
    assignment."""
    g = random_simple_graph(rng, n, 6, 0.3, id_base=id_base)
    den = rng.choice([1, 2, 4])
    eu = {}
    ec = {}
    for e in g.edges:
        eu[e.index] = tuple(tuple(Fraction(rng.randint(0, q), den)
                                  for _ in range(L)) for _ in range(L))
        ec[e.index] = tuple(tuple(Fraction(rng.randint(0, q), den)
                                  for _ in range(L)) for _ in range(L))
    nu = {v: tuple(Fraction(rng.randint(0, q), den) for _ in range(L))
          for v in g.nodes if rng.random() < 0.4}
    k = rng.randint(1, kmax)
    tot = 1 << k
    lam = {}
    for v in g.nodes:
        cuts = sorted(rng.randint(0, tot) for _ in range(L - 1))
        nums, prev = [], 0
        for cpt in cuts:
            nums.append(cpt - prev)
            prev = cpt
        nums.append(tot - prev)
        lam[v] = tuple(nums)
    return g, (eu, ec, nu), R.FractionalAssignment(L, k, lam)


def test_step_invariants_fuzz(rng):
    for _ in range(25):
        L = rng.choice([2, 3])
        g, val, lam = _random_instance(rng, rng.randint(2, 20), L, 5)
        delta = rng.choice([Fraction(0), Fraction(1, 7), Fraction(1)])
        eta = 1 + Fraction(rng.randint(0, 6), 4)
        mode = rng.choice(["exact", "worst", "quantized"])
        prep, rows = _step(g, val, lam, delta, eta, estimate_mode=mode)
        tot = 1 << lam.k
        for v in g.nodes:
            row = rows[prep.index[v]]
            # integrality doubling: the distributions survive over 2^(k-1)
            assert sum(row) == tot and all(x % 2 == 0 for x in row)
            for a in range(L):
                # moves by at most one old-scale unit
                assert abs(row[a] - lam.values[v][a]) <= 1


def _margin_scaled(g, val, lam, mu):
    lamf = {v: tuple(Fraction(x, 1 << lam.k) for x in nums)
            for v, nums in lam.values.items()}
    U, C = R.evaluate(val, raw_rows(lamf), g)
    if U == 0:
        return None
    if U - C < mu * U:
        f = (C / U / (1 - mu)).__ceil__() + 1
        val = R.Valuation(
            val.nlabels,
            {i: tuple(x * f for x in t) for i, t in val.edge_utility.items()},
            val.edge_cost,
            node_utility={v: tuple(x * f for x in t)
                          for v, t in val.node_utility.items()},
            scale=val.scale)
    return val


def test_full_rounding_fuzz(rng):
    done = 0
    while done < 10:
        g, val, lam = _random_instance(rng, rng.randint(2, 15), 2, 4)
        mu = rng.choice([Fraction(1, 2), Fraction(1, 4)])
        val = _margin_scaled(g, val, lam, mu)
        if val is None:
            continue
        eps = rng.choice([Fraction(1, 2), Fraction(1, 10)])
        ell = R.round_to_integral(g, val, lam, eps, mu,
                                  estimate_mode=rng.choice(
                                      ["exact", "worst", "quantized"]))
        assert set(ell) == set(g.nodes)
        done += 1


def test_schedule_rejects_malformed_initial_coloring():
    """A missing node raised KeyError, a monochromatic edge the misleading
    "lost too much potential", and a negative color was accepted."""
    g = two_node_graph()
    val = R.Valuation.from_fractions(2, {0: ((0, 1), (1, 0))}, {})
    lam = R.FractionalAssignment(2, 1, {1: (1, 1), 2: (1, 1)})
    half = {v: (Fraction(1, 2), Fraction(1, 2)) for v in (1, 2)}
    cases = [({1: 0}, "misses node 2"), ({1: 0, 2: 0}, "both endpoints"),
             ({1: -1, 2: 3}, "negative")]
    for initial, msg in cases:
        with pytest.raises(C.ColoringError, match=msg):
            R.round_to_integral(g, val, lam, Fraction(1, 2), Fraction(1, 4),
                                initial_coloring=initial)
        with pytest.raises(C.ColoringError, match=msg):
            R.round_fractional(g, val, raw_rows(half), Fraction(1, 2),
                               Fraction(1, 4),
                               2, initial_coloring=initial)
    ell = R.round_to_integral(g, val, lam, Fraction(1, 2), Fraction(1, 4),
                              initial_coloring={1: 0, 2: 1})
    assert ell[1] != ell[2]


def test_step_rejects_malformed_initial_coloring():
    """One public rounding step checks its start coloring: a missing node
    raised KeyError, a monochromatic edge the misleading "lost too much
    potential", and a negative color was accepted."""
    g = two_node_graph()
    val = R.Valuation.from_fractions(2, {0: ((0, 1), (1, 0))}, {})
    lam = R.FractionalAssignment(2, 1, {1: (1, 1), 2: (1, 1)})
    cases = [({1: 0}, "misses node 2"), ({1: 0, 2: 0}, "both endpoints"),
             ({1: -1, 2: 3}, "negative")]
    for initial, msg in cases:
        with pytest.raises(C.ColoringError, match=msg):
            _step(g, val, lam, Fraction(1, 2), Fraction(1),
                  initial_coloring=initial)
    _prep, rows = _step(g, val, lam, Fraction(1, 2), Fraction(1),
                        initial_coloring={1: 0, 2: 1})
    assert sorted(map(sorted, rows)) == [[0, 2], [0, 2]]


def test_integral_input_returned_unchanged():
    g = two_node_graph()
    val = R.Valuation.from_fractions(2, {0: ((1, 1), (1, 1))}, {})
    lam = R.FractionalAssignment(2, 3, {1: (0, 8), 2: (8, 0)})
    ell = R.round_to_integral(g, val, lam, Fraction(1, 2), Fraction(1, 2))
    assert ell == {1: 1, 2: 0}


def test_preprocess_example_third():
    g = G.simple_graph([5], [])
    val = R.Valuation.from_fractions(
        2, {}, {}, node_utility={5: (Fraction(1), Fraction(1))})
    lam_raw = {5: (Fraction(1, 3), Fraction(2, 3))}
    out = R.preprocess_fractional(raw_rows(lam_raw), Fraction(1, 2),
                                  Fraction(1, 2), 2, lam_min=Fraction(1, 3))
    prep = R._Prepared(g, val)
    R._check_preprocessed(prep, prep.potential(raw_rows(lam_raw)), out,
                          Fraction(1, 2),
                          Fraction(1, 2))
    # 2^k >= 9/(eps mu lam_min) = 108
    assert (1 << out.k) == 128
    assert sum(out.values[5]) == 128
    for a, x in enumerate(lam_raw[5]):
        assert abs(Fraction(out.values[5][a], 128) - x) <= Fraction(1, 128)


def test_preprocess_keeps_dyadic_unchanged():
    lam_raw = {1: (Fraction(3, 128), Fraction(125, 128))}
    out = R.preprocess_fractional(raw_rows(lam_raw), Fraction(1, 2),
                                  Fraction(1, 2), 2, lam_min=Fraction(3, 128))
    assert out.values[1] == (3 * (1 << out.k) // 128,
                             125 * (1 << out.k) // 128)


def test_preprocess_zero_stays_zero(rng):
    for _ in range(10):
        L = 3
        lam_raw = {}
        for v in range(5):
            v0 = Fraction(rng.randint(0, 6), 7)
            lam_raw[v] = (v0, 0, 1 - v0)
        out = R.preprocess_fractional(raw_rows(lam_raw), Fraction(1, 4),
                                      Fraction(1, 2), L)
        for v, nums in lam_raw.items():
            for a, x in enumerate(nums):
                if x == 0:
                    assert out.values[v][a] == 0
                else:
                    assert out.values[v][a] > 0


def test_preprocess_rejects_wrong_lam_min():
    lam_raw = {1: (Fraction(1, 10), Fraction(9, 10))}
    with pytest.raises(ValueError):
        R.preprocess_fractional(raw_rows(lam_raw), Fraction(1, 2),
                                Fraction(1, 2), 2, lam_min=Fraction(1, 5))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 50), min_size=2, max_size=4),
       st.integers(1, 6))
def test_preprocess_sum_preserved(parts, scale):
    total = sum(parts)
    lam_raw = {0: tuple(Fraction(p, total) for p in parts)}
    out = R.preprocess_fractional(raw_rows(lam_raw), Fraction(1, 2),
                                  Fraction(1, 2), len(parts))
    assert sum(out.values[0]) == 1 << out.k


def test_worst_estimator_still_satisfies_lemma(rng):
    for _ in range(10):
        g, val, lam = _random_instance(rng, rng.randint(2, 12), 2, 4)
        _step(g, val, lam, Fraction(1, 5), Fraction(3, 2),
              estimate_mode="worst")


def _definition_uc(g, L, tables, lam):
    """Exact (u, c) of rational distributions under the rational tables
    (eu, ec, nu, nc), term by term from the definition of the potential."""
    eu, ec, nu, nc = tables
    zero = tuple((0,) * L for _ in range(L))
    U = C = Fraction(0)
    for e in g.edges:
        tu = eu.get(e.index, zero)
        tc = ec.get(e.index, zero)
        for a in range(L):
            for b in range(L):
                p = Fraction(lam[e.u][a]) * Fraction(lam[e.v][b])
                U += p * tu[a][b]
                C += p * tc[a][b]
    for v, row in nu.items():
        U += sum(Fraction(lam[v][a]) * row[a] for a in range(L))
    for v, row in nc.items():
        C += sum(Fraction(lam[v][a]) * row[a] for a in range(L))
    return U, C


def test_rational_potential_matches_definition(rng):
    for _ in range(60):
        L = rng.choice([2, 3])
        g, (eu, ec, nu), lam = _random_rational_instance(
            rng, rng.randint(1, 12), L, 4)
        nc = {v: tuple(Fraction(rng.randint(0, 9), rng.choice([1, 3, 7]))
                       for _ in range(L))
              for v in g.nodes if rng.random() < 0.4}
        tables = (eu, ec, nu, nc)
        val = R.Valuation.from_fractions(L, eu, ec, node_utility=nu,
                                         node_cost=nc)
        lamf = {v: tuple(Fraction(x, 1 << lam.k) for x in nums)
                for v, nums in lam.values.items()}
        assert R.evaluate(val, lam, g) == _definition_uc(g, L, tables, lamf)
        raw = {}
        for v in g.nodes:
            den = rng.choice([1, 2, 3, 12, 35, (1 << 70) + 1])
            cuts = sorted(rng.randint(0, den) for _ in range(L - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
            # plain ints where the value is 0 or 1
            raw[v] = tuple(p // den if p in (0, den) else Fraction(p, den)
                           for p in parts)
        assert R.evaluate(val, raw_rows(raw), g) == _definition_uc(
            g, L, tables, raw)


def _count_calls(monkeypatch):
    """Count kernel potential evaluations, rounding steps, conversions of
    an assignment to rows and FractionalAssignments built."""
    counts = {"eval": 0, "steps": 0, "rows": 0, "assignments": 0}
    kernel_eval = R._K.eval_potential
    step = R.rounding_step
    lam_array = R._Prepared.lam_array
    assignment = R.FractionalAssignment.__init__

    def counted_eval(*args):
        counts["eval"] += 1
        return kernel_eval(*args)

    def counted_step(*args, **kwargs):
        counts["steps"] += 1
        return step(*args, **kwargs)

    def counted_lam_array(self, lam):
        counts["rows"] += 1
        return lam_array(self, lam)

    def counted_assignment(self, *args):
        counts["assignments"] += 1
        assignment(self, *args)

    monkeypatch.setattr(R._K, "eval_potential", counted_eval)
    monkeypatch.setattr(R, "rounding_step", counted_step)
    monkeypatch.setattr(R._Prepared, "lam_array", counted_lam_array)
    monkeypatch.setattr(R.FractionalAssignment, "__init__",
                        counted_assignment)
    return counts


def test_potential_evaluated_once_per_step(rng, monkeypatch):
    counts = _count_calls(monkeypatch)
    done = 0
    while done < 6:
        g, val, lam = _random_instance(rng, rng.randint(2, 12), 2, 4)
        mu = Fraction(1, 4)
        val = _margin_scaled(g, val, lam, mu)
        if val is None or lam.normalize().k == 0:
            continue
        k = lam.normalize().k
        # one conversion to rows; the only assignment built is normalize's
        counts.update(eval=0, steps=0, rows=0, assignments=0)
        R.round_to_integral(g, val, lam, Fraction(1, 2), mu)
        assert counts == {"eval": k + 1, "steps": k, "rows": 1,
                          "assignments": 1}
        counts.update(eval=0, steps=0, rows=0, assignments=0)
        R.round_to_integral(g, val, lam, Fraction(1, 2), mu, check=False)
        assert counts == {"eval": 1, "steps": k, "rows": 1, "assignments": 1}
        # raw input, preprocessed input, one per step
        lamf = {v: tuple(Fraction(x, 1 << lam.k) for x in nums)
                for v, nums in lam.values.items()}
        counts.update(eval=0, steps=0, rows=0, assignments=0)
        R.round_fractional(g, val, raw_rows(lamf), Fraction(1, 2), mu, 2)
        assert counts["eval"] == counts["steps"] + 2
        done += 1


def test_color_loop_visits_only_the_frontier(rng, monkeypatch):
    """Over a schedule the color loop visits exactly the rows holding the
    bit of its step's level, and the start coloring is checked once."""
    counts = {"visits": 0, "pairs": 0, "rows": 0, "checks": 0}
    loop = R._K.rounding_color_loop
    check_initial = C._check_initial

    def counted_loop(nv, L, *args):
        lam, unit, rows = args[6], args[14], args[15]
        holding = [v for v in range(nv) if any(x & unit for x in lam[v])]
        assert sorted(rows) == holding
        counts["visits"] += len(rows)
        counts["pairs"] += len(holding)
        counts["rows"] += nv
        return loop(nv, L, *args)

    def counted_check(*args):
        counts["checks"] += 1
        return check_initial(*args)

    monkeypatch.setattr(R._K, "rounding_color_loop", counted_loop)
    monkeypatch.setattr(C, "_check_initial", counted_check)
    done = 0
    while done < 8:
        g, val, lam = _random_instance(rng, rng.randint(2, 15), 3, 5)
        mu = Fraction(1, 4)
        val = _margin_scaled(g, val, lam, mu)
        if val is None or lam.normalize().k == 0:
            continue
        initial = C.linial_coloring(g).colors
        counts["checks"] = 0
        R.round_to_integral(g, val, lam, Fraction(1, 2), mu,
                            initial_coloring=initial,
                            estimate_mode=rng.choice(["exact", "quantized"]))
        assert counts["checks"] == 1
        done += 1
    assert counts["visits"] == counts["pairs"] < counts["rows"]


def test_step_weights_do_not_depend_on_the_fixed_denominator(
        rng, monkeypatch):
    """A step at denominator 2^k hands its coloring the edge weights of its
    rows over 2^k, whatever fixed 2^K the schedule keeps them over, so the
    coloring's estimates and bit counts are those of halved rows."""
    seen = []
    colors_for = C.defective_colors_for_rounding

    def capture(pk, weights, *args):
        seen.append(weights())
        return colors_for(pk, weights, *args)

    monkeypatch.setattr(C, "defective_colors_for_rounding", capture)
    for _ in range(6):
        g, val, lam = _random_instance(rng, rng.randint(2, 12), 2, 4)
        prep = R._Prepared(g, val)
        initial = {v: (1 << 45) + 7 * c
                   for v, c in C.linial_coloring(g).colors.items()}
        for s in (0, 3):
            rows = [[x << s for x in r] for r in prep.lam_array(lam)]
            R.rounding_step(prep, rows, lam.k, Fraction(1, 10),
                            Fraction(3, 2), initial_coloring=initial,
                            check=False,
                            frontier=R._Frontier(rows, lam.k + s))
        assert seen[-1] == seen[-2]
        assert g.n_edges() == 0 or any(seen[-1][0])


def test_tables_packed_once_per_prepared(rng, monkeypatch):
    counts = {"pack": 0, "prepare": 0}
    pack = R._K.pack_tables
    prepare = R._Prepared.__init__

    def counted_pack(*args):
        counts["pack"] += 1
        return pack(*args)

    def counted_prepare(self, *args, **kwargs):
        counts["prepare"] += 1
        prepare(self, *args, **kwargs)

    monkeypatch.setattr(R._K, "pack_tables", counted_pack)
    monkeypatch.setattr(R._Prepared, "__init__", counted_prepare)
    done = 0
    while done < 4:
        g, val, lam = _random_instance(rng, rng.randint(2, 12), 3, 4)
        mu = Fraction(1, 4)
        val = _margin_scaled(g, val, lam, mu)
        if val is None or lam.normalize().k == 0:
            continue
        lamf = {v: tuple(Fraction(x, 1 << lam.k) for x in nums)
                for v, nums in lam.values.items()}
        counts.update(pack=0, prepare=0)
        R.round_fractional(g, val, raw_rows(lamf), Fraction(1, 2), mu, 3)
        assert counts == {"pack": 1, "prepare": 1}
        prep = R._Prepared(g, val)
        counts.update(pack=0, prepare=0)
        R.round_fractional(g, val, raw_rows(lamf), Fraction(1, 2), mu, 3,
                           prep=prep)
        assert counts == {"pack": 0, "prepare": 0}
        done += 1


def test_agreements_walked_once_per_packing_and_coloring(rng, monkeypatch):
    """A packing walks its edges for the candidate agreements once per
    (q, d) and input coloring: the first stage-one step of every rounding
    step starts from the same coloring and shares one walk.  Node ids at
    2^40 and above lie beyond the field size, so stage one walks."""
    walks = []
    steps = []
    agreements = R._K.edge_agreements
    rs_step = R._K.rs_defective_step

    def counted_agreements(eu, ev, colors, q, d, cache):
        walks.append((q, d, tuple(colors)))
        return agreements(eu, ev, colors, q, d, cache)

    def counted_step(*args):
        steps.append((args[6], args[7], tuple(args[5])))
        return rs_step(*args)

    monkeypatch.setattr(R._K, "edge_agreements", counted_agreements)
    monkeypatch.setattr(R._K, "rs_defective_step", counted_step)
    done = 0
    while done < 4:
        g, val, lam = _random_instance(rng, rng.randint(4, 12), 3, 4,
                                       id_base=1 << 40)
        mu = Fraction(1, 4)
        val = _margin_scaled(g, val, lam, mu)
        if val is None or lam.normalize().k < 2:
            continue
        k = lam.normalize().k
        walks.clear()
        steps.clear()
        R.round_to_integral(g, val, lam, Fraction(1, 2), mu)
        assert set(walks) == set(steps)
        last = {}
        for q, d, colors in walks:
            assert last.get((q, d)) != colors
            last[q, d] = colors
        assert steps.count(steps[0]) == k and walks.count(steps[0]) == 1
        assert len(walks) < len(steps)
        done += 1


def test_small_ids_round_without_weights_or_agreements(rng, monkeypatch):
    """Node ids below the field size settle the rounding step's coloring
    in closed form: a checked schedule computes no edge weights and walks
    no agreements."""
    calls = []
    for name in ("edge_weights_for_step", "edge_agreements"):
        monkeypatch.setattr(R._K, name,
                            lambda *args, _name=name: calls.append(_name))
    done = 0
    while done < 3:
        g, val, lam = _random_instance(rng, rng.randint(4, 12), 3, 4)
        mu = Fraction(1, 4)
        val = _margin_scaled(g, val, lam, mu)
        if val is None or lam.normalize().k < 2 or not g.edges:
            continue
        ell = R.round_to_integral(g, val, lam, Fraction(1, 2), mu)
        assert set(ell) == set(g.nodes) and calls == []
        done += 1


def test_fractional_assignment_rejects_malformed_rows():
    cases = [(2, 2, (1, 2, 1), "wrong number of labels"),
             (2, 2, (5, -1), "outside"),
             (2, 2, (0, 5), "outside"),
             (3, 2, (2, 1, 0), "do not sum to 1"),
             (0, 1, (), "do not sum to 1")]
    for nlabels, k, row, msg in cases:
        with pytest.raises(ValueError, match=msg):
            R.FractionalAssignment(nlabels, k, {1: row})
    assert R.FractionalAssignment(2, 2, {1: (0, 4), 2: (1, 3)}).k == 2


def test_schedule_rejects_assignment_off_the_valuation():
    """An assignment missing a node raised a bare KeyError, three labels
    against a 2-label valuation the misleading "lost too much potential",
    and one label an IndexError; nodes outside the graph are ignored."""
    g = two_node_graph()
    val = R.Valuation.from_fractions(2, {0: ((0, 1), (1, 0))}, {})
    prep = R._Prepared(g, val)
    cases = [(R.FractionalAssignment(2, 1, {1: (1, 1)}), "misses node 2"),
             (R.FractionalAssignment(3, 2, {1: (2, 1, 1), 2: (1, 1, 2)}),
              "3 labels"),
             (R.FractionalAssignment(1, 0, {1: (1,), 2: (1,)}), "1 labels")]
    for lam, msg in cases:
        with pytest.raises(ValueError, match=msg):
            R.round_to_integral(g, val, lam, Fraction(1, 2), Fraction(1, 4))
        with pytest.raises(ValueError, match=msg):
            prep.potential(lam)
    extra = R.FractionalAssignment(2, 1, {1: (1, 1), 2: (1, 1), 9: (2, 0)})
    ell = R.round_to_integral(g, val, extra, Fraction(1, 2), Fraction(1, 4))
    assert set(ell) == {1, 2} and ell[1] != ell[2]
    assert prep.potential(extra) == prep.potential(
        R.FractionalAssignment(2, 1, {1: (1, 1), 2: (1, 1)}))
