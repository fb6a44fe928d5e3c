"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Every inequality is checked in exact rational arithmetic; the
fuzz generators are seeded and deterministic.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from locround import coloring as C
from locround import graph as G
from locround import indepset as IS
from locround import mis as M
from locround import oracle as O
from locround import rounding as R
from locround import setcover as SC
from locround import sim as S
from conftest import build_d2_multigraph, raw_rows


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


def _graph(rng, n, dcap, density):
    nodes = sorted(rng.sample(range(1, 16 * n + 2), n)) if n else []
    deg = {v: 0 for v in nodes}
    pairs = set()
    if n >= 2:
        for _ in range(int(density * n * (n - 1) / 2) + n):
            u, v = rng.sample(nodes, 2)
            key = (min(u, v), max(u, v))
            if key in pairs or deg[u] >= dcap or deg[v] >= dcap:
                continue
            pairs.add(key)
            deg[u] += 1
            deg[v] += 1
    return G.simple_graph(nodes, sorted(pairs))


def _valuation(rng, g, L, q=1000, with_nodes=True):
    den = rng.choice([1, 2, 4, 8])
    eu, ec = {}, {}
    for e in g.edges:
        eu[e.index] = tuple(tuple(Fraction(rng.randint(0, q), den)
                                  for _ in range(L)) for _ in range(L))
        ec[e.index] = tuple(tuple(Fraction(rng.randint(0, q), den)
                                  for _ in range(L)) for _ in range(L))
    nu = nc = None
    if with_nodes:
        nu = {v: tuple(Fraction(rng.randint(0, q // 2), den) for _ in range(L))
              for v in g.nodes if rng.random() < 0.4}
        nc = {v: tuple(Fraction(rng.randint(0, q // 4), den) for _ in range(L))
              for v in g.nodes if rng.random() < 0.3}
    return R.Valuation.from_fractions(L, eu, ec, node_utility=nu, node_cost=nc)


def _dyadic_assignment(rng, g, L, kmax):
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
    return R.FractionalAssignment(L, k, lam)


def _scale_to_margin(g, val, lam_fr, mu):
    U, Cc = R.evaluate(val, raw_rows(lam_fr), g)
    if U == 0:
        return None
    if U - Cc < mu * U:
        f = (Cc / U / (1 - mu)).__ceil__() + 1
        val = R.Valuation(
            val.nlabels,
            {i: tuple(x * f for x in t) for i, t in val.edge_utility.items()},
            val.edge_cost,
            node_utility={v: tuple(x * f for x in t)
                          for v, t in val.node_utility.items()},
            node_cost=val.node_cost, scale=val.scale)
    return val


def test_c1_rounding_step_lemma():
    rng = random.Random(101)
    t0 = time.time()
    deltas = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 10),
              Fraction(1, 50)]
    modes = ["exact", "worst", "quantized"]
    for i in range(500):
        n = rng.randint(2, 100)
        L = 2 if i % 3 else 3
        g = _graph(rng, n, rng.randint(2, 10), 0.1)
        val = _valuation(rng, g, L)
        lam = _dyadic_assignment(rng, g, L, 6)
        delta = deltas[i % len(deltas)]
        eta = 1 + Fraction(rng.randint(0, 8), 4)
        mode = modes[i % 3]
        if delta == 0:
            mode = "exact"
        prep = R._Prepared(g, val)
        U0, C0 = prep.potential(lam)
        rows = prep.lam_array(lam)
        uc1 = R.rounding_step(prep, rows, lam.k, delta, eta,
                              estimate_mode=mode)
        # independent recheck of the step inequality on a subsample
        if i % 10 == 0:
            U1, C1 = prep.potential(raw_rows({
                v: [Fraction(x, 1 << lam.k) for x in row]
                for v, row in zip(prep.nodes, rows)}))
            assert (U1, C1) == uc1
            assert U1 - eta * C1 >= U0 - eta * C0 - delta * (U0 + eta * C0)
    took = time.time() - t0
    assert took < 60.0, f"criterion 1 runtime target missed: {took:.1f}s"
    _report(1, "rounding-step-lemma-exact", f"500 instances, {took:.1f}s")


def test_c2_full_rounding_lemma():
    rng = random.Random(202)
    t0 = time.time()
    grid = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 4)),
            (Fraction(1, 10), Fraction(1, 2)), (Fraction(1, 10), Fraction(1, 4)),
            (Fraction(1, 100), Fraction(1, 2)), (Fraction(1, 100), Fraction(1, 4))]
    done = 0
    attempts = 0
    while done < 200:
        attempts += 1
        eps, mu = grid[done % len(grid)]
        n = rng.randint(2, 60)
        g = _graph(rng, n, 8, 0.15)
        val = _valuation(rng, g, 2, q=100)
        lam = _dyadic_assignment(rng, g, 2, 6)
        lam_fr = {v: tuple(Fraction(x, 1 << lam.k) for x in nums)
                  for v, nums in lam.values.items()}
        val = _scale_to_margin(g, val, lam_fr, mu)
        if val is None:
            continue
        mode = ["exact", "worst", "quantized"][done % 3]
        R.round_to_integral(g, val, lam, eps, mu, estimate_mode=mode)
        done += 1
    _report(2, "full-rounding-lemma-exact",
            f"200 instances over eps x mu grid, {time.time() - t0:.1f}s")


def test_c3_preprocessing_lemma():
    rng = random.Random(303)
    t0 = time.time()
    done = 0
    while done < 200:
        n = rng.randint(2, 50)
        L = rng.choice([2, 3])
        g = _graph(rng, n, 8, 0.15)
        val = _valuation(rng, g, L, q=60)
        lam_fr = {}
        for v in g.nodes:
            dens = rng.choice([3, 5, 7, 9, 16])
            cuts = sorted(rng.randint(0, dens) for _ in range(L - 1))
            nums, prev = [], 0
            for cpt in cuts:
                nums.append(Fraction(cpt - prev, dens))
                prev = cpt
            nums.append(Fraction(dens - prev, dens))
            lam_fr[v] = tuple(nums)
        mu = rng.choice([Fraction(1, 2), Fraction(1, 4)])
        val = _scale_to_margin(g, val, lam_fr, mu)
        if val is None:
            continue
        eps = rng.choice([Fraction(1, 2), Fraction(1, 10)])
        out = R.preprocess_fractional(raw_rows(lam_fr), eps, mu, L)
        prep = R._Prepared(g, val)
        R._check_preprocessed(prep, prep.potential(raw_rows(lam_fr)), out,
                              eps, mu)
        done += 1
    _report(3, "preprocessing-lemma-exact",
            f"200 instances, {time.time() - t0:.1f}s")


def test_c4_defective_colorings():
    rng = random.Random(404)
    t0 = time.time()
    deltas = [Fraction(1), Fraction(1, 2), Fraction(1, 8), Fraction(1, 32)]
    for i in range(200):
        n = rng.randint(2, 60)
        g = _graph(rng, n, 8, 0.15)
        if i % 4 == 0 and n >= 3:
            def spec(w, g=g):
                nb = g.neighbors(w)
                return [(nb[j], nb[j + 1]) for j in range(len(nb) - 1)]
            g = build_d2_multigraph(g, spec)
        w = {e.index: Fraction(rng.randint(0, 9), rng.choice([1, 2]))
             for e in g.edges}
        delta = deltas[i % 4]
        agg = "factor2" if i % 2 else "exact"
        dc = C.weighted_defective_coloring(g, w, delta, aggregation=agg)
        ok, _ = C.defect_certificate(g, w, dc.colors, delta, "per-node")
        assert ok
        assert dc.palette_size * delta.numerator ** 2 <= (1 << 16) * delta.denominator ** 2
        ac = C.average_defective_coloring(g, w, delta, aggregation=agg)
        ok, _ = C.defect_certificate(g, w, ac.colors, delta, "average")
        assert ok
        go = C.greedy_defective_oracle(g, w, delta)
        ok, _ = C.defect_certificate(g, w, go.colors, delta, "per-node")
        assert ok
        # fast and oracle agree in guarantee: both certified at delta
    _report(4, "defective-colorings",
            f"200 instances x 4 deltas cycled, {time.time() - t0:.1f}s")


def _mis_suite_sizes():
    sizes = []
    for i in range(70):
        sizes.append((2 + (i * 7) % 149, 3 + (i % 10), 0.2))
    for i in range(20):
        sizes.append((150 + i * 22, 6 + (i % 20), 0.05))
    for i in range(7):
        sizes.append((600 + i * 130, 8 + 4 * i, 0.01))
    sizes.append((2000, 50, 0.012))
    sizes.append((2000, 8, 0.004))
    sizes.append((1500, 32, 0.006))
    return sizes


def test_c5_mis_claims():
    rng = random.Random(505)
    t0 = time.time()
    total_iters = 0
    for (n, dcap, dens) in _mis_suite_sizes():
        g = _graph(rng, n, dcap, dens)
        I, metrics, info = M.mis(g)     # claims asserted inside, exactly
        assert O.is_maximal_is(g, I)
        for er, eb in info["ratios"]:
            assert 500 * er >= eb
        total_iters += info["iterations"]
    _report(5, "mis-claims",
            f"100 seeded graphs, {total_iters} iterations, "
            f"{time.time() - t0:.1f}s")


def test_c6_weighted_is_bounds():
    rng = random.Random(606)
    t0 = time.time()
    eps = Fraction(1, 10)
    for i in range(100):
        if i < 80:
            n = rng.randint(4, 120)
        else:
            n = rng.randint(120, 200)
        g = _graph(rng, n, rng.randint(3, 10), 0.08)
        wg = G.WeightedGraph(g, {v: rng.randint(1, 100) for v in g.nodes})
        w = wg.weights
        dmax = max(g.max_degree(), 1)
        # basic rounding at the uniform feasible point
        x = {v: Fraction(1, dmax + 1) for v in g.nodes}
        I, u0 = IS.basic_is_round(g, w, x, eps)
        assert sum(w[v] for v in I) >= (Fraction(1, 2) - eps) * u0
        # LP-guided S*/4
        I, sstar = IS.lp_guided_is(wg)
        assert 4 * sum(w[v] for v in I) >= sstar
        # Turan fraction
        I = IS.turan_fraction_is(wg, eps)
        assert sum(w[v] for v in I) >= (1 - eps) * Fraction(
            wg.total_weight(), dmax + 1)
        # Caro-Wei
        I = IS.caro_wei_is(wg, eps)
        mass = sum(Fraction(w[v] ** 2,
                            w[v] + sum(w[u] for u in g.neighbors(v)))
                   for v in g.nodes)
        assert sum(w[v] for v in I) >= (Fraction(1, 2) - eps) * mass
    _report(6, "weighted-is-bounds",
            f"100 graphs x 4 algorithms, {time.time() - t0:.1f}s")


def test_c7_c8_beta_and_local_ratio():
    rng = random.Random(707)
    t0 = time.time()
    eps = Fraction(1, 10)
    for i in range(50):
        n = rng.randint(3, 18)
        g = _graph(rng, n, rng.randint(2, 6), 0.3)
        wg = G.WeightedGraph(g, {v: rng.randint(1, 9) for v in g.nodes})
        I, sstar, ups = IS.beta_approx_is(wg, eps, deep_check=True)
        wI = sum(wg.weights[v] for v in I)
        assert wI >= (1 - eps) * sstar
        opt, _ = O.brute_max_weight_is(wg)
        beta = O.neighborhood_independence(g)
        assert beta * wI >= (1 - eps) * opt
        # Upsilon trace shrinks geometrically (rho = 1/4)
        for t, u in enumerate(ups, 1):
            assert u <= (Fraction(3, 4) ** t) * sstar
    _report(7, "beta-approximation-vs-oracle",
            f"50 graphs, eps=1/10, {time.time() - t0:.1f}s")
    _report(8, "local-ratio-lemmas",
            "charging + Upsilon + dual checks ran inside criterion 7")


def _block_union(rng, blocks, ne, ns, tcap, scap, wmax=1):
    all_e, all_s, all_inc = [], [], []
    costs = {}
    base = 0
    for _b in range(blocks):
        els = [base + i for i in range(1, ne + 1)]
        sets_ = [base + ne + i for i in range(1, ns + 1)]
        deg_s = {v: 0 for v in sets_}
        for u in els:
            k = rng.randint(1, tcap)
            cands = [v for v in sets_ if deg_s[v] < scap] or sets_
            for v in rng.sample(cands, min(k, len(cands))):
                all_inc.append((u, v))
                deg_s[v] += 1
        all_e += els
        all_s += sets_
        for v in sets_:
            costs[v] = rng.randint(1, wmax) if wmax > 1 else 1
        base += ne + ns + 3
    return G.SetCoverInstance(all_e, all_s, all_inc,
                              costs if wmax > 1 else {})


def test_c9_set_cover():
    rng = random.Random(909)
    t0 = time.time()
    # oracle tier: 80 instances with brute-force OPT
    for i in range(80):
        inst = _block_union(rng, 1, rng.randint(1, 12), rng.randint(1, 12),
                            rng.randint(1, 4), rng.randint(1, 4),
                            wmax=5 if i % 3 == 0 else 1)
        weighted = bool(inst.costs and max(inst.costs.values()) > 1)
        mode = "weighted" if weighted else "unit"
        V, metrics, info = SC.set_cover(inst, cost_mode=mode)
        assert O.covers(inst, V)
        opt, _ = O.brute_set_cover_opt(inst, weighted=weighted)
        cost = sum((inst.costs[v] if weighted else 1) for v in V)
        assert cost <= 3 * info["tau"] * opt
        # OPT >= |U|/s (costs >= 1, so it also lower-bounds weighted OPT)
        assert opt * max(inst.s, 1) >= len(inst.elements)
        phi = info["phi"]
        assert all(phi[j + 1] <= phi[j] for j in range(len(phi) - 1))
    # property tier: 20 instances up to 5000 elements
    specs = [(rng.randint(3, 8), 30, 25, 3, 6, 1) for _ in range(10)]
    specs += [(rng.randint(6, 12), 25, 20, 3, 6, 6) for _ in range(6)]
    specs += [(40, 30, 25, 3, 8, 1), (60, 35, 25, 3, 8, 1),
              (100, 32, 24, 3, 8, 6), (167, 30, 22, 3, 8, 1)]
    for (blocks, ne, ns, tcap, scap, wmax) in specs:
        inst = _block_union(rng, blocks, ne, ns, tcap, scap, wmax)
        mode = "weighted" if wmax > 1 else "unit"
        V, metrics, info = SC.set_cover(inst, cost_mode=mode)
        assert O.covers(inst, V)
        cost = sum((inst.costs[v] if wmax > 1 else 1) for v in V)
        assert cost <= 3 * info["tau"] * info["opt_bound"]
    biggest = 167 * 30
    _report(9, "set-cover",
            f"80 oracle-tier + 20 property-tier (largest |U|={biggest}), "
            f"{time.time() - t0:.1f}s")


def test_c10_maximal_matching():
    rng = random.Random(1010)
    t0 = time.time()
    total_iters = 0
    for i in range(100):
        n = rng.randint(2, 300)
        g = _graph(rng, n, rng.randint(2, 12), 0.05)
        Mset, metrics, iters = IS.maximal_matching(g)
        index = {(min(e.u, e.v), max(e.u, e.v)): e.index for e in g.edges}
        ids = [index[p] for p in Mset]
        assert O.is_maximal_matching(g, ids)
        e0 = g.n_edges()
        if e0 >= 2:
            assert iters <= 8 * max(1, (e0 - 1).bit_length()) + 2
        total_iters += iters
    _report(10, "maximal-matching",
            f"100 graphs, {total_iters} outer iterations total, "
            f"{time.time() - t0:.1f}s")


def _run_fingerprint():
    rng = random.Random(1111)
    payload = []
    g = _graph(rng, 300, 10, 0.05)
    eng = S.RoundEngine(g, mode=S.CONGEST)
    I, metrics, info = M.mis(g, mode=S.CONGEST, engine=eng)
    payload.append({"mis": I, "metrics": metrics.to_json(),
                    "iters": info["iterations"]})
    inst = _block_union(rng, 4, 20, 16, 3, 5)
    V, metrics, info = SC.set_cover(inst, mode=S.CONGEST)
    payload.append({"cover": V, "metrics": metrics.to_json(),
                    "tau": info["tau"],
                    "phi": [str(p) for p in info["phi"]]})
    g2 = _graph(rng, 60, 6, 0.1)
    wg = G.WeightedGraph(g2, {v: rng.randint(1, 50) for v in g2.nodes})
    I2 = IS.caro_wei_is(wg, Fraction(1, 10))
    payload.append({"carowei": I2})
    g3 = _graph(rng, 80, 8, 0.1)
    M3, metrics3, it3 = IS.maximal_matching(g3)
    payload.append({"matching": [list(p) for p in M3],
                    "metrics": metrics3.to_json()})
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_c11_determinism_and_model_fidelity():
    t0 = time.time()
    h1 = _run_fingerprint()
    h2 = _run_fingerprint()
    assert h1 == h2, "reruns were not bit-identical"
    # CONGEST bandwidth bound on MIS and set cover at n <= 2000
    rng = random.Random(1212)
    g = _graph(rng, 1200, 24, 0.006)
    eng = S.RoundEngine(g, mode=S.CONGEST)
    budget = 64 * max(1, (len(g.nodes) - 1).bit_length())
    assert eng.bit_budget == budget
    I, metrics, _ = M.mis(g, mode=S.CONGEST, engine=eng)
    assert metrics.max_bits_per_edge_round <= budget
    assert not metrics.budget_violations
    inst = _block_union(rng, 40, 30, 20, 3, 6)
    V, metrics2, _ = SC.set_cover(inst, mode=S.CONGEST)
    n2 = len(inst.elements) + len(inst.sets)
    assert metrics2.max_bits_per_edge_round <= 64 * max(1, (n2 - 1).bit_length())
    assert not metrics2.budget_violations
    _report(11, "determinism-and-model-fidelity",
            f"rerun hash {h1[:12]}.., congest bits ok, {time.time() - t0:.1f}s")


def test_c12_round_trend_report():
    rng = random.Random(1313)
    t0 = time.time()
    n = 600
    rounds = []
    for dcap in (8, 16, 32, 64):
        g = _graph(rng, n, dcap, 0.3)   # dense enough that the cap binds
        eng = S.RoundEngine(g)
        M.mis(g, engine=eng)
        rounds.append((dcap, eng.metrics.total_rounds))
    trend = " ".join(f"D={d}:{r}" for d, r in rounds)
    monotone = all(rounds[i][1] <= rounds[i + 1][1]
                   for i in range(len(rounds) - 1))
    _report(12, "round-trend-report",
            f"{trend} monotone={monotone} (reported, not gated), "
            f"{time.time() - t0:.1f}s")
