"""O(log s)-approximate set cover by iterated derandomized rounding.

From a 2-approximate fractional cover x0, the algorithm scales
x = x0/10 (zeroing values at most 1/(2t)), picks per element a greedy set
family N*(u) with mass in [1/20, 1/5], and runs tau = ceil(log_1.01 s)
rounding iterations.  Up to the rounding, x0 and x are integer pairs
(numerator, denominator), all sets of one element sharing the
denominator: the LP's per-component denominator D for x0 (a power of two
under central-approx), 10 D for x.  Every pre-rounding condition is an
integer comparison, and a failed one raises.  (frac2) cannot fail once
(frac1) holds: x0 <= 1 keeps every nonzero x at most 1/10, so the greedy
stops below 3/20.  Iteration i rounds x against

    u(x~) = g_i * sum_{u in U_i} sum_{v in N*(u)} x~_v + 10 * sum_v w(v) x'_v
    c(x~) = g_i * sum_{u in U_i} sum_{v != v' in N*(u)} x~_v x~_v' + sum_v w(v) x~_v

on the d2-multigraph where each uncovered element manages virtual edges
between its N*(u) pairs.  The geometric coefficient g_i is the exact dyadic
value ceil(2^40 / 1.01^(tau-i)) / 2^40, which keeps the kernels in bounded
integers; all potential inequalities are asserted against the implemented
coefficients exactly.  Uncovered elements afterwards pick their smallest-id
neighbor.  The potential

    Phi_i = g_i |U_i| + w(V'_1) + ... + w(V'_{i-1}) + 3 (tau - i) OPT_bound

is non-increasing, giving |V_out| <= 3 tau OPT_bound with OPT_bound a
certified lower bound on the optimum from the fractional backend.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import coloring as _coloring
from . import graph as _graph
from . import oracle as _oracle
from . import rounding as _rounding
from . import sim as _sim

G_BITS = 40


class CoverInvariantError(AssertionError):
    pass


def fractional_cover(inst, backend="central-exact", weighted=False):
    """Feasible fractional cover with a declared approximation factor.

    Both backends start from the exact LP optimum for the costs being
    minimised (set costs if ``weighted``, else unit costs).  central-exact:
    that optimum capped at 1 (factor 1), over the LP's per-component
    denominators.  central-approx: it rounded up to powers of two
    (factor 2), 1 over 2^e written over the largest such 2^E.
    Returns (x0, factor, opt_bound): x0[v] = (numerator, denominator) for
    every set, all sets of one element sharing the denominator, and
    opt_bound = total cost / factor a certified lower bound on the
    fractional optimum.
    """
    cost = inst.costs if weighted else {v: 1 for v in inst.sets}
    _lp_opt, x = _oracle.setcover_lp(inst, cost)
    if backend == "central-exact":
        x0 = {}
        for v in inst.sets:
            n, d = x.get(v, (0, 1))
            x0[v] = (min(n, d), d)
        factor = Fraction(1)
    elif backend == "central-approx":
        # e is the largest e with 1/2^e >= x_v = n/d, that is 2^e <= d // n
        exps = {}
        for v in inst.sets:
            n, d = x.get(v, (0, 1))
            if n:
                exps[v] = 0 if n >= d else (d // n).bit_length() - 1
        top = max(exps.values(), default=0)
        x0 = {v: (1 << (top - exps[v]) if v in exps else 0, 1 << top)
              for v in inst.sets}
        factor = Fraction(2)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    for u in inst.elements:
        nums, d = _element_values(inst, x0, u)
        if sum(nums) < d:
            raise CoverInvariantError(f"backend cover misses element {u}")
    return x0, factor, Fraction(*_total_cost(x0, cost)) / factor


def _element_values(inst, x, u):
    """The numerators of ``x`` over the sets of element ``u``, in
    ``inst.element_sets[u]`` order, and their shared denominator."""
    sets_ = inst.element_sets[u]
    d = x[sets_[0]][1]
    nums = []
    for v in sets_:
        n, dv = x[v]
        if dv != d:
            raise ValueError(f"sets of element {u} do not share a denominator")
        nums.append(n)
    return nums, d


def _total_cost(x, cost):
    """sum_v cost(v) x_v as (numerator, denominator) integers."""
    by_den = {}
    for v, (n, d) in x.items():
        if n:
            by_den[d] = by_den.get(d, 0) + cost[v] * n
    den = math.lcm(*by_den)
    return sum(s * (den // d) for d, s in by_den.items()), den


def build_scaled_x(x0, inst):
    """x = x0/10 unless x0 <= 1/(2t), as (numerator, 10 * denominator)
    pairs over the denominators of x0; asserts (frac0) and (frac1)."""
    t = max(1, inst.t)
    x = {}
    for v in inst.sets:
        n, d = x0[v]
        x[v] = (n if 2 * t * n > d else 0, 10 * d)
    for v, (n, d) in x.items():
        # 1/(20t) <= n/d <= 1/10
        if n and not (d <= 20 * t * n and 10 * n <= d):
            raise CoverInvariantError(
                f"(frac0) violated at set {v}: {Fraction(n, d)}")
    for u in inst.elements:
        nums, d = _element_values(inst, x, u)
        if 20 * sum(nums) < d:
            raise CoverInvariantError(f"(frac1) violated at element {u}")
    return x


def select_n_star(inst, x):
    """Greedy N*(u) in ascending set id while the mass is below 1/20;
    asserts (frac2)."""
    n_star = {}
    for u in inst.elements:
        nums, d = _element_values(inst, x, u)
        acc = 0
        chosen = []
        for v, n in zip(inst.element_sets[u], nums):
            if 20 * acc >= d:
                break
            if n == 0:
                continue
            chosen.append(v)
            acc += n
        # 1/20 <= acc/d <= 1/5
        if not (d <= 20 * acc and 5 * acc <= d):
            raise CoverInvariantError(
                f"(frac2) violated at element {u}: {Fraction(acc, d)}")
        n_star[u] = chosen
    return n_star


def _tau_for(bound):
    """Smallest tau with 1.01^tau >= bound, by integer comparison.

    The floor of 21 keeps Phi_0 <= 3 tau OPT_bound under the coverage
    coefficient 20 W / 1.01^(tau-i) (20 OPT_bound of initial mass needs
    tau >= 20 slack terms)."""
    tau = 0
    num, den = 1, 1
    while num < bound * den:
        num *= 101
        den *= 100
        tau += 1
    return max(21, tau)


def _g_numerator(m):
    """ceil(2^G_BITS / 1.01^m), the numerator of g over 2^G_BITS."""
    return -(-((100 ** m) << G_BITS) // 101 ** m)


def _g_coefficient(m):
    """Exact dyadic ceil(2^G_BITS / 1.01^m) / 2^G_BITS."""
    return Fraction(_g_numerator(m), 1 << G_BITS)


def _iteration_valuation(inst, n_star, u_live, g_i, lam, cost):
    """Multigraph H over the sets and the iteration's utility/cost tables,
    with x' the preprocessed assignment ``lam``.  g_i is dyadic at
    2^G_BITS and x' at 2^k, the common sum of its rows, so the tables are
    built at the larger of the two denominators."""
    two_k = sum(next(iter(lam.values())))
    scale = math.lcm(g_i.denominator, two_k)
    g = g_i.numerator * (scale // g_i.denominator)
    cnt = {}
    edges = []
    ec = {}
    comm = {v: set() for v in inst.sets}
    idx = 0
    for u in sorted(u_live):
        star = n_star[u]
        for v in star:
            cnt[v] = cnt.get(v, 0) + 1
            comm[v].add(u)
        comm.setdefault(u, set()).update(star)
        for i in range(len(star)):
            for j in range(i + 1, len(star)):
                a, b = star[i], star[j]
                edges.append(_graph.Edge(min(a, b), max(a, b),
                                         _graph.VIRTUAL, u, idx))
                ec[idx] = (0, 0, 0, 2 * g)
                idx += 1
    nut = {}
    nct = {}
    for v in inst.sets:
        const = 10 * cost[v] * lam[v][1] * (scale // two_k)
        nut[v] = (const, g * cnt.get(v, 0) + const)
        nct[v] = (0, cost[v] * scale)
    h = _graph.Multigraph(inst.sets, edges, comm)
    val = _rounding.Valuation(2, {}, ec, node_utility=nut, node_cost=nct,
                              scale=scale)
    return h, val


def cover_iteration(inst, n_star, u_live, g_i, lam, cost, engine,
                    agree_cache, initial_coloring, check=True):
    """One rounding iteration on ``engine``; returns (V'_i, U_{i+1})."""
    h, val = _iteration_valuation(inst, n_star, u_live, g_i, lam, cost)
    prep = _rounding._Prepared(h, val, agree_cache=agree_cache)
    U0, C0 = prep.potential(lam)
    if 2 * C0 > U0:
        raise CoverInvariantError(
            f"margin u - c >= u/2 failed before rounding: {U0}, {C0}")
    ell, _uc = _rounding.round_to_integral(
        prep, lam, Fraction(1, 200), Fraction(1, 2), engine,
        initial_coloring=initial_coloring, check=check, uc0=(U0, C0))
    v_i = sorted(v for v, lab in ell.items() if lab == 1)
    covered = set()
    for v in v_i:
        covered.update(inst.set_elements[v])
    u_next = set(u for u in u_live if u not in covered)
    return v_i, u_next


def network_nodes(inst):
    """The nodes of the element-set incidence network as a Multigraph
    without edges, which is all a ``RoundEngine`` reads: its node count
    |U| + |V| sizes the default CONGEST budget.  Raises GraphFormatError
    on an id outside [0, 2^63)."""
    return _graph.Multigraph(inst.elements + inst.sets, ())


def set_cover(inst, mode=None, cost_mode="unit",
              backend="central-exact", engine=None, check=True):
    """Full Algorithm: returns (V_out, metrics, info).

    Without an ``engine`` it runs on one over ``network_nodes(inst)`` in
    ``mode`` (``sim.engine_for``).  Under LOCAL the rounding starts from a
    2-hop coloring of the sets, under CONGEST from their ids.
    info carries tau, OPT_bound, the exact Phi trace, and per-iteration
    uncovered counts.  Asserted invariants: (frac0)-(frac3), the
    per-iteration potential decrease inequality, Phi monotonicity,
    coverage, and cost(V_out) <= 3 tau OPT_bound; the weighted variant
    additionally asserts w(V'') <= OPT_bound.  Once every element is
    covered, the remaining iterations round nothing: their Phi values
    follow in closed form, and their two inequalities both read
    OPT_bound >= 0, checked once.
    """
    weighted = cost_mode == "weighted"
    cost = inst.costs if weighted else {v: 1 for v in inst.sets}
    engine = _sim.engine_for(network_nodes(inst), mode, engine)
    W = inst.W if weighted else 1
    x0, factor, opt_bound = fractional_cover(inst, backend, weighted)
    engine.metrics.oracle_assisted = True       # both backends solve the LP
    x = build_scaled_x(x0, inst)
    xn, xd = _total_cost(x, cost)
    total0 = factor * opt_bound
    if 10 * xn * total0.denominator > 2 * total0.numerator * xd:
        raise CoverInvariantError("(frac3) violated")
    if not inst.elements:
        return [], engine.metrics, {"tau": 0, "opt_bound": opt_bound,
                                    "phi": [], "uncovered": []}
    n_star = select_n_star(inst, x)
    w_eff = W if weighted else 1
    tau = _tau_for(inst.s * w_eff if inst.s else 2)
    # one shared preprocessing of the scaled solution (valuation-independent)
    lam = _rounding.preprocess_fractional(
        {v: (d - n, n) for v, (n, d) in x.items()},
        Fraction(1, 200), Fraction(1, 2))
    # element-coverage coefficient 20 W / 1.01^(tau-i): the 20 W factor makes
    # covering an element strictly dominate the cost of any single set in
    # late iterations, so the completion step V'' stays negligible
    g0 = 20 * w_eff * _g_coefficient(tau)
    if g0 * len(inst.elements) > tau * opt_bound:
        raise CoverInvariantError("Phi_0 > 3 tau OPT_bound")
    # g_{i+1} <= 1.02 g_i, compared by the numerators over 2^G_BITS
    gnum = [_g_numerator(tau - i) for i in range(tau + 1)]
    for i in range(tau):
        if 100 * gnum[i + 1] > 102 * gnum[i]:
            raise CoverInvariantError("geometric coefficient stepped too far")
    initial_coloring = None
    if engine.mode == _sim.LOCAL:
        initial_coloring = _two_hop_set_coloring(inst)
    agree_cache = {}
    u_live = set(inst.elements)
    phi = [g0 * len(inst.elements) + 3 * tau * opt_bound]
    uncovered = [len(u_live)]
    v_prime = set()
    chosen_cost = 0
    i = 0
    while u_live and i < tau:
        i += 1
        g_i = 20 * w_eff * _g_coefficient(tau - i)
        v_i, u_next = cover_iteration(
            inst, n_star, u_live, g_i, lam, cost, engine,
            agree_cache, initial_coloring, check=check)
        ci = sum(cost[v] for v in v_i)
        if check:
            lhs = g_i * (len(u_live) - len(u_next)) - ci
            rhs = Fraction(2, 100) * g_i * len(u_live) - 3 * opt_bound
            if lhs < rhs:
                raise CoverInvariantError(
                    f"potential-decrease inequality failed at step {i}: "
                    f"{lhs} < {rhs}")
        v_prime.update(v_i)
        chosen_cost += ci
        u_live = u_next
        phi_i = (g_i * len(u_live) + chosen_cost
                 + 3 * (tau - i) * opt_bound)
        if check and phi_i > phi[-1]:
            raise CoverInvariantError(
                f"Phi increased at step {i}: {phi_i} > {phi[-1]}")
        phi.append(phi_i)
        uncovered.append(len(u_live))
        engine.sample_potential(phi_i)
    # idle steps j > i: U_j and V'_j are empty, so the decrease inequality
    # reads 0 >= -3 OPT_bound and Phi_j = chosen_cost + 3 (tau - j) OPT_bound
    # falls from Phi_{j-1} by 3 OPT_bound
    if check and i < tau and opt_bound < 0:
        raise CoverInvariantError(
            f"potential-decrease inequality failed at step {i + 1}: "
            f"0 < {-3 * opt_bound}")
    num, den = opt_bound.numerator, opt_bound.denominator
    for j in range(i + 1, tau + 1):
        phi_j = Fraction(chosen_cost * den + 3 * (tau - j) * num, den)
        phi.append(phi_j)
        uncovered.append(0)
        engine.sample_potential(phi_j)
    v_double = sorted(set(min(inst.element_sets[u]) for u in sorted(u_live)))
    v_out = sorted(v_prime.union(v_double))
    engine.account(64, 2)
    if check:
        if not _oracle.covers(inst, v_out):
            raise CoverInvariantError("output does not cover the universe")
        out_cost = sum(cost[v] for v in v_out)
        vpp_cost = sum(cost[v] for v in set(v_double).difference(v_prime))
        if weighted:
            if vpp_cost > opt_bound:
                raise CoverInvariantError(
                    f"w(V'') = {vpp_cost} exceeds OPT_bound = {opt_bound}")
        if out_cost > 3 * tau * opt_bound:
            raise CoverInvariantError(
                f"cost {out_cost} exceeds 3 tau OPT_bound = {3 * tau * opt_bound}")
    engine.metrics.objective = Fraction(sum(cost[v] for v in v_out))
    return v_out, engine.metrics, {
        "tau": tau, "opt_bound": opt_bound, "phi": phi,
        "uncovered": uncovered, "factor": factor,
    }


def _two_hop_set_coloring(inst):
    """Proper coloring of the conflict graph over sets sharing an element
    (the rounding graph is a subgraph); palette O((st)^2).  Each pair is
    ordered, because ``element_sets`` are sorted, and kept once."""
    pairs = set()
    for u in inst.elements:
        nb = inst.element_sets[u]
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                pairs.add((nb[i], nb[j]))
    g2 = _graph.Multigraph(
        inst.sets, [_graph.Edge(a, b, _graph.PHYSICAL, None, i)
                    for i, (a, b) in enumerate(sorted(pairs))])
    pc = _coloring.linial_coloring(g2)
    return dict(pc.colors)


def from_dominating_set(g):
    """Dominating set as set cover: every node becomes a set covering its
    closed neighborhood; elements keep the node ids, sets are offset."""
    base = (max(g.nodes) + 1) if g.nodes else 0
    elements = list(g.nodes)
    sets_ = [base + v for v in g.nodes]
    inc = []
    for v in g.nodes:
        inc.append((v, base + v))
        for u in g.neighbors(v):
            inc.append((u, base + v))
    return _graph.SetCoverInstance(elements, sets_, inc), base
