"""Weighted independent set approximations and maximal matching.

Utility/cost for independent sets: node utility w(v) for being in the set,
edge cost min(w(u), w(v)) when both endpoints are in.  An integral solution
loses at most its cost when conflicts are dropped toward the larger
(weight, id), so any rounding guarantee on u - c transfers to set weight.

The LP max sum w(v) x_v subject to x(N+[v]) <= 1 steers the stronger
approximations: any feasible point has u >= 2c, one rounding round yields
weight >= S*(w)/4, and the local-ratio ladder of residual weights boosts
T rounds of that to (1-eps) * S*(w).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import coloring as _coloring
from . import graph as _graph
from . import oracle as _oracle
from . import rounding as _rounding
from . import sim as _sim


class ISInvariantError(AssertionError):
    pass


def is_valuation(h, weights):
    """Valuation of the independent-set estimator on any multigraph, built
    at the common denominator of the weights (1 for integer weights)."""
    scale = math.lcm(*(Fraction(weights[v]).denominator for v in h.nodes
                       if type(weights[v]) is not int))
    w = {v: int(weights[v] * scale) for v in h.nodes}
    ec = {e.index: (0, 0, 0, min(w[e.u], w[e.v])) for e in h.edges}
    nut = {v: (0, w[v]) for v in h.nodes}
    return _rounding.Valuation(2, {}, ec, node_utility=nut, scale=scale)


def _uc_at(prep, rows):
    """Exact (u, c) of the independent-set valuation packed in ``prep`` at
    the raw two-label rows ``rows``: (d - n, n) at x_v = n/d.  A function
    of its own so that a traced benchmark run times it as a layer."""
    return prep.potential(rows)


def _rows_at(x, nodes):
    """node -> (d - n, n), the raw two-label row of x_v = n/d."""
    return {v: (xv.denominator - xv.numerator, xv.numerator)
            for v, xv in zip(nodes, map(x.__getitem__, nodes))}


def extract_is(h, weights, x_int, uc=None):
    """Conflict-dropping extraction: keep selected nodes without a selected
    neighbor of larger (weight, id).  Returns I with w(I) >= u(x) - c(x),
    asserted exactly; ``uc`` is (u(x), c(x)) when the caller already
    holds it."""
    selected = {v for v in h.nodes if x_int[v] == 1}
    survives = set(selected)
    for v in selected:
        kv = (weights[v], v)
        if any(u in selected and (weights[u], u) > kv
               for u in h.neighbors(v)):
            survives.discard(v)
    if uc is None:
        uc = _uc_at(_rounding._Prepared(h, is_valuation(h, weights)),
                    _rows_at(x_int, h.nodes))
    U, C = uc
    wI = sum(weights[v] for v in survives)
    if wI < U - C:
        raise ISInvariantError(f"extraction bound failed: {wI} < {U - C}")
    for e in h.edges:
        if e.u in survives and e.v in survives:
            raise ISInvariantError("extraction left a conflict")
    return sorted(survives)


def basic_is_round(h, weights, x, eps, engine=None, initial_coloring=None,
                   mode=_sim.LOCAL, check=True, prep=None):
    """Round a fractional solution with u(x) >= 2c(x) into an independent
    set of weight at least (1/2 - eps) u(x), asserted exactly.

    ``x`` maps each node to a rational in [0, 1] (a Fraction or an int),
    read once by numerator and denominator into the raw row (d - n, n).
    Applies the x + eps/(2*Delta) utility shift in integers (skipped where
    it would exceed 1), then the preprocessing + rounding pipeline with
    mu = 1/2 - eps/2 (or the exact measured margin when smaller).
    ``prep`` is the packed independent-set valuation of ``(h, weights)``
    when the caller already holds it.
    """
    eps = Fraction(eps)
    if not (0 < eps <= Fraction(1, 2)):
        raise ValueError("eps must be in (0, 1/2]")
    if prep is None:
        prep = _rounding._Prepared(h, is_valuation(h, weights))
    rows = _rows_at(x, h.nodes)
    U0, C0 = _uc_at(prep, rows)
    if U0 < 2 * C0:
        raise ISInvariantError(f"precondition u >= 2c violated: {U0} < {2 * C0}")
    if U0 == 0:
        return [], U0
    s = eps / (2 * max(h.max_degree(), 1))
    sn, sd = s.numerator, s.denominator
    # x_v + s = (n sd + sn d) / (d sd), kept at x_v where it would exceed 1
    shifted = {}
    for v, (m, n) in rows.items():
        d = m + n
        t = n * sd + sn * d
        shifted[v] = (d * sd - t, t) if t <= d * sd else (m, n)
    U1, C1 = _uc_at(prep, shifted)
    if U1 <= C1:
        raise ISInvariantError("shifted solution lost its margin")
    mu = min(Fraction(1, 2) - eps / 2, (U1 - C1) / U1)
    estimate_mode = "quantized" if mode == _sim.CONGEST else "exact"
    ell, uc = _rounding.round_fractional(
        h, prep.val, shifted, eps, mu, 2, estimate_mode=estimate_mode,
        initial_coloring=initial_coloring, engine=engine, check=check,
        prep=prep, uc_raw=(U1, C1))
    if uc is None:
        uc = _uc_at(prep, _rows_at(ell, h.nodes))
    I = extract_is(h, weights, ell, uc)
    wI = sum(weights[v] for v in I)
    if check and wI < (Fraction(1, 2) - eps) * U0:
        raise ISInvariantError(
            f"basic rounding bound failed: {wI} < {(Fraction(1, 2) - eps) * U0}")
    return I, U0


def fractional_matching_doubling_freeze(g):
    """Start every edge at the power of two <= 1/(2*Delta), then double all
    non-frozen edges until every edge has a saturated endpoint
    (node sum >= 1/4).  Returns {edge index: value}; asserts that 4y is a
    feasible dual, so sum(y) >= S*/4 on the line graph.

    The values are integer numerators over 2^k, the start denominator, so
    an endpoint saturates when 4 * sum >= 2^k.  An edge freezes once for
    good, since sums only grow; each phase doubles the edges still live
    and adds their old values to their endpoints' sums.  The returned
    Fractions are one object per distinct value."""
    dmax = max((g.degree(v) for v in g.nodes), default=1)
    k = max(1, (2 * max(dmax, 1) - 1).bit_length())
    one = 1 << k
    if not g.edges:
        return {}
    eu = [e.u for e in g.edges]
    ev = [e.v for e in g.edges]
    y = [1] * len(eu)
    sums = dict.fromkeys(g.nodes, 0)
    for u, v in zip(eu, ev):
        sums[u] += 1
        sums[v] += 1
    live = range(len(eu))
    for _phase in range(k + 2):
        live = [i for i in live
                if 4 * sums[eu[i]] < one and 4 * sums[ev[i]] < one]
        if not live:
            break
        for i in live:
            yi = y[i]
            sums[eu[i]] += yi
            sums[ev[i]] += yi
            y[i] = 2 * yi
    # the checks read sums recomputed from the final values
    sums = dict.fromkeys(g.nodes, 0)
    for u, v, yi in zip(eu, ev, y):
        sums[u] += yi
        sums[v] += yi
    if any(2 * s > one for s in sums.values()):
        raise ISInvariantError("doubling-freeze oversaturated a node")
    for u, v in zip(eu, ev):
        if 4 * max(sums[u], sums[v]) < one:
            raise ISInvariantError("doubling-freeze left an unfrozen edge")
    value = {n: Fraction(n, one) for n in set(y)}
    return {e.index: value[n] for e, n in zip(g.edges, y)}


def lp_guided_is(wg, weights=None, coloring=None, eps=Fraction(1, 5),
                 engine=None, mode=_sim.LOCAL, check=True,
                 budget=_oracle.DEFAULT_BUDGET):
    """Independent set of weight >= S*(w)/4 from the exact LP optimum.

    The LP point is floored to the dyadic grid 2^-j with j chosen so the
    floor loses at most S*/12; the rounding's (1/2 - 1/5) factor then still
    clears 1/4.  Returns (I, S*)."""
    g = wg.graph
    w = weights if weights is not None else wg.weights
    sstar, xstar = _oracle.packing_lp(g, weights=w, budget=budget)
    if engine is not None:
        engine.metrics.oracle_assisted = True
    if sstar == 0:
        return [], sstar
    prep = _rounding._Prepared(g, is_valuation(g, w))
    U, C = _uc_at(prep, _rows_at(xstar, g.nodes))
    if U < 2 * C:
        raise ISInvariantError("feasible LP point broke u >= 2c")
    n = max(1, len(g.nodes))
    j = (6 * n - 1).bit_length() + 1
    grid = 1 << j
    xt = {v: Fraction((Fraction(xstar[v]) * grid).__floor__(), grid)
          for v in g.nodes}
    I, _u = basic_is_round(g, w, xt, eps, engine=engine,
                           initial_coloring=coloring, mode=mode, check=check,
                           prep=prep)
    wI = sum(w[v] for v in I)
    if check and 4 * wI < sstar:
        raise ISInvariantError(f"S*/4 bound failed: {wI} < {sstar}/4")
    return I, sstar


def local_ratio_combine(g, staged, weights):
    """Reverse-greedy union of the local-ratio sets.

    ``staged`` is the list [(I_i, w_i(I_i))] in forward order; asserts
    w(I) >= sum_i w_i(I_i) exactly."""
    I = set()
    blocked = set()
    for (Ij, _val) in reversed(staged):
        for v in sorted(Ij):
            if v not in blocked:
                I.add(v)
                blocked.add(v)
                blocked.update(g.neighbors(v))
    wI = sum(weights[v] for v in I)
    lower = sum(val for (_s, val) in staged)
    if wI < lower:
        raise ISInvariantError(f"local-ratio charge failed: {wI} < {lower}")
    if not _oracle.is_independent(g, I):
        raise ISInvariantError("combined set is not independent")
    return sorted(I)


def _steps_for(eps, rho=Fraction(1, 4)):
    """Smallest T with (1-rho)^T <= eps (exact integer search)."""
    eps = Fraction(eps)
    t = 0
    acc = Fraction(1)
    while acc > eps:
        acc *= 1 - rho
        t += 1
        if t > 10_000:
            raise ValueError("eps too small")
    return t


def _residual_weights(g, w_i, I_i):
    out = {}
    inI = set(I_i)
    for u in g.nodes:
        ded = sum(w_i[v] for v in {u, *g.neighbors(u)} & inI)
        out[u] = max(0, w_i[u] - ded)
    return out


def _induced(g, support):
    sup = set(support)
    pairs = [(e.u, e.v) for e in g.edges if e.u in sup and e.v in sup]
    return _graph.simple_graph(sorted(sup), pairs)


def beta_approx_is(wg, eps=Fraction(1, 10), engine=None, mode=_sim.LOCAL,
                   deep_check=False, check=True,
                   budget=_oracle.DEFAULT_BUDGET):
    """(1-eps) * S*(w) independent set via the local-ratio ladder; against
    neighborhood independence beta this is a (1-eps)/beta approximation.

    ``deep_check`` additionally verifies, per step, the dual-LP facts
    Upsilon_t <= S*(w_{t+1}) and w_i(I_i) >= S*(w'_i) (small instances).
    Returns (I, S*(w), trace)."""
    eps = Fraction(eps)
    g = wg.graph
    coloring = _coloring.linial_coloring(g, engine=engine)
    cols = {v: coloring.colors[v] for v in g.nodes}
    T = _steps_for(eps)
    w_i = {v: Fraction(wg.weights[v]) for v in g.nodes}
    sstar0 = None
    staged = []
    upsilons = []
    for i in range(1, T + 1):
        support = sorted(v for v in g.nodes if w_i[v] > 0)
        if not support:
            break
        sub = _induced(g, support)
        subcols = {v: cols[v] for v in support}
        I_i, sstar_i = lp_guided_is(
            _graph.WeightedGraph(sub, {v: 1 for v in support}),
            weights={v: w_i[v] for v in support}, coloring=subcols,
            engine=engine, mode=mode, check=check, budget=budget)
        if sstar0 is None:
            sstar0 = sstar_i
        val_i = sum(w_i[v] for v in I_i)
        staged.append((I_i, val_i))
        w_next = _residual_weights(g, w_i, I_i)
        ups = sstar0 - sum(val for (_s, val) in staged)
        upsilons.append(ups)
        t = len(staged)
        if check and ups > (Fraction(3, 4) ** t) * sstar0:
            raise ISInvariantError(
                f"potential did not shrink: Upsilon_{t} = {ups}")
        if deep_check:
            sub_next = _induced(g, [v for v in g.nodes if w_next[v] > 0] or [])
            if len(sub_next.nodes) > 0:
                s_next, _x = _oracle.packing_lp(
                    sub_next, weights={v: w_next[v] for v in sub_next.nodes},
                    budget=budget)
            else:
                s_next = Fraction(0)
            if ups > s_next:
                raise ISInvariantError(
                    f"Upsilon_{t} = {ups} exceeds S*(w_next) = {s_next}")
            wprime = {v: w_i[v] - w_next[v] for v in g.nodes}
            s_prime, _y = _oracle.dual_covering_lp(g, wprime, budget=budget)
            if val_i < s_prime:
                raise ISInvariantError(
                    f"w_i(I_i) = {val_i} below S*(w'_i) = {s_prime}")
        w_i = w_next
    if sstar0 is None:
        return [], Fraction(0), []
    I = local_ratio_combine(g, staged, wg.weights)
    wI = sum(wg.weights[v] for v in I)
    if check and wI < (1 - eps) * sstar0:
        raise ISInvariantError(
            f"(1-eps) S* bound failed: {wI} < {(1 - eps) * sstar0}")
    return I, sstar0, upsilons


def turan_fraction_is(wg, eps=Fraction(1, 10), engine=None, mode=_sim.LOCAL,
                      check=True):
    """Independent set of weight >= (1-eps) w(V)/(Delta+1): the local-ratio
    ladder fed by the uniform fractional solution x = 1/(Delta+1), no LP."""
    eps = Fraction(eps)
    g = wg.graph
    if not g.nodes:
        return []
    coloring = _coloring.linial_coloring(g, engine=engine)
    cols = {v: coloring.colors[v] for v in g.nodes}
    dmax = g.max_degree()
    target = Fraction(wg.total_weight(), dmax + 1)
    T = _steps_for(eps)
    w_i = {v: Fraction(wg.weights[v]) for v in g.nodes}
    staged = []
    for t in range(1, T + 1):
        support = sorted(v for v in g.nodes if w_i[v] > 0)
        if not support:
            break
        sub = _induced(g, support)
        x = {v: Fraction(1, dmax + 1) for v in support}
        I_t, u_t = basic_is_round(sub, {v: w_i[v] for v in support}, x,
                                  Fraction(1, 4), engine=engine,
                                  initial_coloring={v: cols[v] for v in support},
                                  mode=mode, check=check)
        val_t = sum(w_i[v] for v in I_t)
        wv_t = sum(w_i[v] for v in support)
        if check and 4 * (dmax + 1) * val_t < wv_t:
            raise ISInvariantError("per-step w_t(V)/(4(Delta+1)) bound failed")
        staged.append((I_t, val_t))
        w_i = _residual_weights(g, w_i, I_t)
        ups = target - sum(val for (_s, val) in staged)
        if check:
            if ups > (Fraction(3, 4) ** len(staged)) * target:
                raise ISInvariantError(f"Upsilon_{t} = {ups} did not shrink")
            if ups > Fraction(sum(w_i.values()), dmax + 1):
                raise ISInvariantError(
                    f"Upsilon_{t} = {ups} above w_next(V)/(Delta+1)")
    I = local_ratio_combine(g, staged, wg.weights) if staged else []
    wI = sum(wg.weights[v] for v in I)
    if check and wI < (1 - eps) * target:
        raise ISInvariantError(f"Turan bound failed: {wI} < {(1 - eps) * target}")
    return I


def caro_wei_is(wg, eps=Fraction(1, 10), engine=None, mode=_sim.LOCAL,
                check=True):
    """Independent set of weight >= (1/2 - eps) sum_v w(v)^2 / w(N+[v])."""
    eps = Fraction(eps)
    g = wg.graph
    if not g.nodes:
        return []
    x = {}
    bound = Fraction(0)
    for v in g.nodes:
        Wv = wg.weights[v] + sum(wg.weights[u] for u in g.neighbors(v))
        x[v] = Fraction(wg.weights[v], Wv)
        bound += Fraction(wg.weights[v] ** 2, Wv)
    I, u0 = basic_is_round(g, wg.weights, x, eps, engine=engine, mode=mode,
                           check=check)
    if u0 != bound:
        raise ISInvariantError("u(x) disagrees with the Caro-Wei mass")
    wI = sum(wg.weights[v] for v in I)
    if check:
        if wI < (Fraction(1, 2) - eps) * bound:
            raise ISInvariantError(f"Caro-Wei bound failed: {wI} < "
                                   f"{(Fraction(1, 2) - eps) * bound}")
        wv = wg.total_weight()
        denom = wv + sum(wg.weights[v] * g.degree(v) for v in g.nodes)
        if wI < (Fraction(1, 2) - eps) * Fraction(wv * wv, denom):
            raise ISInvariantError("Cauchy-Schwarz corollary bound failed")
    return I


def maximal_matching(g, mode=_sim.LOCAL, engine=None, check=True):
    """Maximal matching: per outer iteration an O(Delta^2) edge coloring, a
    doubling-freeze fractional matching, and one rounding of it on the
    line-graph d2-multigraph; matched nodes leave and the loop repeats.

    Outer iterations are at most 8*log2|E| + 2 (each matching is at least a
    1/12 fraction of the residual maximum).  Returns (M as (u, v) pairs,
    metrics, iterations)."""
    if engine is None:
        engine = _sim.RoundEngine(g, mode=mode)
    live = set(g.nodes)
    pairs = {(min(e.u, e.v), max(e.u, e.v)) for e in g.edges}
    M = []
    iterations = 0
    while True:
        cur_pairs = sorted(p for p in pairs if p[0] in live and p[1] in live)
        if not cur_pairs:
            break
        sub = _graph.simple_graph(sorted(live), cur_pairs)
        iterations += 1
        ecol = edge_coloring_sq(sub, engine=engine)
        h = _graph.line_graph_view(sub)
        base = h.edge_node_base
        ecol_h = {base + e.index: ecol[(min(e.u, e.v), max(e.u, e.v))]
                  for e in sub.edges}
        y = fractional_matching_doubling_freeze(sub)
        x = {base + i: y[i] for i in y}
        w1 = {v: 1 for v in h.nodes}
        I, _u = basic_is_round(h, w1, x, Fraction(1, 6), engine=engine,
                               initial_coloring=ecol_h, mode=mode, check=check)
        matched = []
        edge_of = {base + e.index: (e.u, e.v) for e in sub.edges}
        for en in I:
            matched.append(edge_of[en])
        if check and len(matched) == 0 and cur_pairs:
            raise ISInvariantError("iteration produced an empty matching")
        for (u, v) in matched:
            M.append((u, v))
            live.discard(u)
            live.discard(v)
        engine.account(8, 1)
    if check:
        index = {(min(e.u, e.v), max(e.u, e.v)): e.index for e in g.edges}
        ids = [index[p] for p in M]
        if not _oracle.is_maximal_matching(g, ids):
            raise ISInvariantError("matching failed the maximality scan")
        e0 = g.n_edges()
        if e0 >= 2:
            limit = 8 * max(1, (e0 - 1).bit_length()) + 2
            if iterations > limit:
                raise ISInvariantError(
                    f"{iterations} outer iterations exceed {limit}")
    engine.metrics.objective = Fraction(len(M))
    return sorted(M), engine.metrics, iterations


def edge_coloring_sq(g, engine=None):
    """Proper O(Delta^2) edge coloring: each node labels its edges by
    ascending neighbor id, label pairs split the edges into paths and
    cycles, and each class is 3-colored.  Returns {(u, v): color}."""
    label = {}
    for v in g.nodes:
        for i, u in enumerate(g.neighbors(v)):
            label[(v, u)] = i + 1
    classes = {}
    for e in g.edges:
        a = label[(e.u, e.v)]
        b = label[(e.v, e.u)]
        key = (min(a, b), max(a, b))
        classes.setdefault(key, []).append(e)
    out = {}
    class_ids = {key: i for i, key in enumerate(sorted(classes))}
    for key in sorted(classes):
        edges = classes[key]
        base = (g.nodes[-1] + 1) if g.nodes else 0
        enodes = [base + e.index for e in edges]
        present = {}
        for e in edges:
            for end in (e.u, e.v):
                present.setdefault(end, []).append(base + e.index)
        cls_pairs = []
        for v, lst in sorted(present.items()):
            for i in range(len(lst)):
                for j in range(i + 1, len(lst)):
                    cls_pairs.append((lst[i], lst[j]))
        cls_g = _graph.simple_graph(enodes, cls_pairs)
        col3 = _coloring.three_color_paths_cycles(cls_g)
        for e in edges:
            out[(min(e.u, e.v), max(e.u, e.v))] = (
                3 * class_ids[key] + col3.colors[base + e.index])
    # properness scan over the line graph
    for v in g.nodes:
        seen = set()
        for e in g.incident(v):
            c = out[(min(e.u, e.v), max(e.u, e.v))]
            if c in seen:
                raise ISInvariantError("edge coloring not proper")
            seen.add(c)
    if engine is not None:
        engine.account(16, 4)
    return out
