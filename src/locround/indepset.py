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

import itertools
from fractions import Fraction

from . import coloring as _coloring
from . import graph as _graph
from . import oracle as _oracle
from . import rounding as _rounding
from . import sim as _sim


class ISInvariantError(AssertionError):
    pass


def is_valuation(h, weights):
    """Valuation of the independent-set estimator on any multigraph, at
    the integer node weights ``weights``."""
    ec = {e.index: (0, 0, 0, min(weights[e.u], weights[e.v]))
          for e in h.edges}
    nut = {v: (0, weights[v]) for v in h.nodes}
    return _rounding.Valuation(2, {}, ec, node_utility=nut)


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


def basic_is_round(h, weights, x, eps, engine, initial_coloring=None,
                   check=True):
    """Round a fractional solution with u(x) >= 2c(x) into an independent
    set of weight at least (1/2 - eps) u(x), asserted exactly, on
    ``engine``.

    ``x`` maps each node to a rational in [0, 1] (a Fraction or an int),
    read once by numerator and denominator into the raw row (d - n, n).
    Applies the x + eps/(2*Delta) utility shift in integers (skipped where
    it would exceed 1), then the preprocessing + rounding pipeline with
    mu = 1/2 - eps/2 (or the exact measured margin when smaller).
    """
    prep = _rounding._Prepared(h, is_valuation(h, weights))
    return _round_is_rows(prep, weights, _rows_at(x, h.nodes), eps, engine,
                          initial_coloring, check)


def _round_is_rows(prep, weights, rows, eps, engine, initial_coloring,
                   check):
    """``basic_is_round`` at the raw two-label rows ``rows``: node ->
    (d - n, n) at x_v = n/d, with ``prep`` the packed independent-set
    valuation of ``(h, weights)`` on the graph ``h = prep.g``."""
    h = prep.g
    eps = Fraction(eps)
    if not (0 < eps <= Fraction(1, 2)):
        raise ValueError("eps must be in (0, 1/2]")
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
    ell, uc = _rounding.round_fractional(
        prep, shifted, eps, mu, engine, initial_coloring=initial_coloring,
        check=check, uc_raw=(U1, C1))
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
    (node sum >= 1/4).  Returns {edge index: raw row (2^k - n, n)} at
    y_e = n/2^k; asserts that 4y is a feasible dual, so sum(y) >= S*/4 on
    the line graph.

    The values are integer numerators over 2^k, the start denominator, so
    an endpoint saturates when 4 * sum >= 2^k.  An edge freezes once for
    good, since sums only grow; each phase doubles the edges still live
    and adds their old values to their endpoints' sums.  The returned rows
    are one object per distinct value."""
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
    row = {n: (one - n, n) for n in set(y)}
    return {e.index: row[n] for e, n in zip(g.edges, y)}


def lp_guided_is(wg, weights=None, coloring=None, eps=Fraction(1, 5),
                 engine=None, mode=None, check=True):
    """Independent set of weight >= S*(w)/4 from the exact LP optimum, on
    ``engine`` or on a new one in ``mode`` (``sim.engine_for``).

    The LP point, integers X_v over each component's denominator D, is
    floored to the dyadic grid 2^-j with j chosen so the floor loses at
    most S*/12; the rounding's (1/2 - 1/5) factor then still clears 1/4.
    Returns (I, S*)."""
    g = wg.graph
    engine = _sim.engine_for(g, mode, engine)
    w = weights if weights is not None else wg.weights
    sstar, xstar = _oracle.packing_lp_integers(g, weights=w)
    engine.metrics.oracle_assisted = True
    if sstar == 0:
        return [], sstar
    prep = _rounding._Prepared(g, is_valuation(g, w))
    U, C = _uc_at(prep, {v: (D - X, X) for v, (X, D) in xstar.items()})
    if U < 2 * C:
        raise ISInvariantError("feasible LP point broke u >= 2c")
    n = max(1, len(g.nodes))
    j = (6 * n - 1).bit_length() + 1
    grid = 1 << j
    floors = {v: (X << j) // D for v, (X, D) in xstar.items()}
    rows = {v: (grid - f, f) for v, f in floors.items()}
    I, _u = _round_is_rows(prep, w, rows, eps, engine, coloring, check)
    wI = sum(w[v] for v in I)
    if check and 4 * wI < sstar:
        raise ISInvariantError(f"S*/4 bound failed: {wI} < {sstar}/4")
    return I, sstar


def local_ratio_combine(g, staged):
    """Reverse-greedy union of the local-ratio sets: ``staged`` is the list
    [(I_i, w_i(I_i))] in forward order, and each node joins unless a node
    taken before it is a neighbor."""
    I = set()
    blocked = set()
    for (Ij, _val) in reversed(staged):
        for v in sorted(Ij):
            if v not in blocked:
                I.add(v)
                blocked.add(v)
                blocked.update(g.neighbors(v))
    return sorted(I)


def _steps_for(eps):
    """Smallest T with (3/4)^T <= eps (exact integer search): each rung of
    the ladder takes at least a quarter of what is left, rho = 1/4."""
    eps = Fraction(eps)
    t = 0
    acc = Fraction(1)
    while acc > eps:
        acc *= Fraction(3, 4)
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


def _check_dual_certificate(g, w_t, I_t, w_next):
    """Asserts w_t(I_t) >= S*(w'_t), w'_t = w_t - w_next, by weak duality:
    y = w_t on I_t and 0 elsewhere has objective w_t(I_t) and is feasible
    for the covering LP min y(V), y(N+[u]) >= w'_t(u) for all u, y >= 0."""
    inI = set(I_t)
    for u in g.nodes:
        y = sum(w_t[v] for v in {u, *g.neighbors(u)} & inI)
        if y < w_t[u] - w_next[u]:
            raise ISInvariantError(
                f"y(N+[{u}]) = {y} below w'_t({u}) = {w_t[u] - w_next[u]}: "
                f"no certificate of w_t(I_t) >= S*(w'_t)")


def _ladder(wg, eps, engine, check, step, bound):
    """The local-ratio ladder over residual weights: T rounds, each an
    independent set I_t of the residual support, then the reverse-greedy
    union.  Returns (I, B(w_1), [Upsilon_1, ...]).

    ``step(sub, w_t, cols) -> (I_t, B(w_t))`` runs one round on the
    support graph at its residual weights and start colors; ``bound(w)``
    is B of the residual left after the last round, read only when it has
    support.  ``check`` asserts, with Upsilon_t = B(w_1) - sum_{s<=t}
    w_s(I_s): per round Upsilon_t <= (3/4)^t B(w_1) (first, so that it
    fires although the next two imply it), 4 w_t(I_t) >= B(w_t),
    Upsilon_{t-1} <= B(w_t) and ``_check_dual_certificate``; then the last
    Upsilon against ``bound``, w(I) >= (1-eps) B(w_1) (which those checks
    and the next one imply), the local-ratio charge w(I) >= sum_t
    w_t(I_t), and that I is independent."""
    eps = Fraction(eps)
    g = wg.graph
    cols = _coloring.linial_coloring(g, engine=engine).colors
    w_t = {v: wg.weights[v] for v in g.nodes}
    B1 = None
    staged = []
    upsilons = []
    for t in range(1, _steps_for(eps) + 1):
        support = sorted(v for v in g.nodes if w_t[v] > 0)
        if not support:
            break
        I_t, B_t = step(_induced(g, support), {v: w_t[v] for v in support},
                        {v: cols[v] for v in support})
        if B1 is None:
            B1 = B_t
        val_t = sum(w_t[v] for v in I_t)
        staged.append((I_t, val_t))
        ups = B1 - sum(val for (_s, val) in staged)
        w_next = _residual_weights(g, w_t, I_t)
        if check:
            if ups > (Fraction(3, 4) ** t) * B1:
                raise ISInvariantError(
                    f"potential did not shrink: Upsilon_{t} = {ups}")
            if 4 * val_t < B_t:
                raise ISInvariantError(
                    f"round {t}: 4 w_t(I_t) = {4 * val_t} below B(w_t) = {B_t}")
            if upsilons and upsilons[-1] > B_t:
                raise ISInvariantError(
                    f"Upsilon_{t - 1} = {upsilons[-1]} exceeds B(w_{t}) = {B_t}")
            _check_dual_certificate(g, w_t, I_t, w_next)
        upsilons.append(ups)
        w_t = w_next
    if B1 is None:
        return [], Fraction(0), []
    if check:
        last = bound(w_t) if any(w_t.values()) else 0
        if upsilons[-1] > last:
            raise ISInvariantError(
                f"Upsilon_{len(upsilons)} = {upsilons[-1]} exceeds B = {last} "
                f"of the last residual")
    I = local_ratio_combine(g, staged)
    if check:
        wI = sum(wg.weights[v] for v in I)
        if wI < (1 - eps) * B1:
            raise ISInvariantError(
                f"(1-eps) B bound failed: {wI} < {(1 - eps) * B1}")
        lower = sum(val for (_s, val) in staged)
        if wI < lower:
            raise ISInvariantError(f"local-ratio charge failed: {wI} < {lower}")
        if not _oracle.is_independent(g, I):
            raise ISInvariantError("combined set is not independent")
    return I, B1, upsilons


def beta_approx_is(wg, eps=Fraction(1, 10), *, engine, check=True):
    """(1-eps) * S*(w) independent set via the local-ratio ladder fed by
    ``lp_guided_is``, B = S*, on ``engine``; against neighborhood
    independence beta this is a (1-eps)/beta approximation.  Returns
    (I, S*(w), trace)."""
    g = wg.graph

    def step(sub, w, cols):
        return lp_guided_is(
            _graph.WeightedGraph(sub, {v: 1 for v in sub.nodes}), weights=w,
            coloring=cols, engine=engine, check=check)

    def bound(w):
        sub = _induced(g, [v for v in g.nodes if w[v] > 0])
        return _oracle.packing_lp(sub, weights=w)[0]

    return _ladder(wg, eps, engine, check, step, bound)


def turan_fraction_is(wg, eps=Fraction(1, 10), *, engine, check=True):
    """Independent set of weight >= (1-eps) w(V)/(Delta+1) on ``engine``:
    the local-ratio ladder fed by the uniform fractional solution
    x = 1/(Delta+1), whose utility is B = w(V)/(Delta+1); no LP."""
    share = Fraction(1, wg.graph.max_degree() + 1)

    def step(sub, w, cols):
        return basic_is_round(sub, w, dict.fromkeys(sub.nodes, share),
                              Fraction(1, 4), engine, initial_coloring=cols,
                              check=check)

    def bound(w):
        return share * sum(w.values())

    return _ladder(wg, eps, engine, check, step, bound)[0]


def caro_wei_is(wg, eps=Fraction(1, 10), *, engine, check=True):
    """Independent set of weight >= (1/2 - eps) sum_v w(v)^2 / w(N+[v]),
    on ``engine``."""
    eps = Fraction(eps)
    g, w = wg.graph, wg.weights
    if not g.nodes:
        return []
    x = {}
    bound = Fraction(0)
    for v in g.nodes:
        Wv = w[v] + sum(w[u] for u in g.neighbors(v))
        x[v] = Fraction(w[v], Wv)
        bound += Fraction(w[v] ** 2, Wv)
    I, u0 = basic_is_round(g, w, x, eps, engine, check=check)
    if u0 != bound:
        raise ISInvariantError("u(x) disagrees with the Caro-Wei mass")
    wI = sum(w[v] for v in I)
    if check:
        if wI < (Fraction(1, 2) - eps) * bound:
            raise ISInvariantError(f"Caro-Wei bound failed: {wI} < "
                                   f"{(Fraction(1, 2) - eps) * bound}")
        wv = wg.total_weight()
        denom = wv + sum(w[v] * g.degree(v) for v in g.nodes)
        if wI < (Fraction(1, 2) - eps) * Fraction(wv * wv, denom):
            raise ISInvariantError("Cauchy-Schwarz corollary bound failed")
    return I


def maximal_matching(g, mode=None, engine=None, check=True):
    """Maximal matching: per outer iteration an O(Delta^2) edge coloring, a
    doubling-freeze fractional matching, and one rounding of it on the
    line-graph d2-multigraph; matched nodes leave and the loop repeats.
    It runs on ``engine`` or on a new one over ``g`` in ``mode``
    (``sim.engine_for``).

    Outer iterations are at most 8*log2|E| + 2 (each matching is at least a
    1/12 fraction of the residual maximum).  Returns (M as (u, v) pairs,
    metrics, iterations)."""
    engine = _sim.engine_for(g, mode, engine)
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
        w1 = {v: 1 for v in h.nodes}
        I, _u = _round_is_rows(
            _rounding._Prepared(h, is_valuation(h, w1)), w1,
            {base + i: row for i, row in y.items()}, Fraction(1, 6), engine,
            ecol_h, check)
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
    cycles, and each class is 3-colored.  The classes are colored as the
    components of one graph of maximum degree 2, whose edges join the
    edges of a class that share an endpoint; that gives each class the
    coloring it gets alone.  Returns {(u, v): color}."""
    label = {}
    for v in g.nodes:
        for i, u in enumerate(g.neighbors(v)):
            label[(v, u)] = i + 1
    base = (g.nodes[-1] + 1) if g.nodes else 0
    keys = []
    present = {}
    for e in g.edges:
        a = label[(e.u, e.v)]
        b = label[(e.v, e.u)]
        key = (min(a, b), max(a, b))
        keys.append(key)
        for end in (e.u, e.v):
            present.setdefault((end, key), []).append(base + e.index)
    pairs = [p for lst in present.values()
             for p in itertools.combinations(lst, 2)]
    col3 = _coloring.three_color_paths_cycles(_graph.simple_graph(
        [base + e.index for e in g.edges], pairs)).colors
    class_ids = {key: i for i, key in enumerate(sorted(set(keys)))}
    out = {}
    for e, key in zip(g.edges, keys):
        out[(min(e.u, e.v), max(e.u, e.v))] = (
            3 * class_ids[key] + col3[base + e.index])
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
