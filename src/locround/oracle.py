"""Exact integer LP, brute-force optima and certificate scanners.

Everything here runs on integers: the exact LP takes integer coefficients
and returns its solution as integers over one denominator.  The
brute-force optima and the scanners share no code with the rounding
pipeline and check its outputs.  The exact LP does not stand apart:
``set_cover``, ``lp_guided_is`` and ``beta_approx_is`` solve their
fractional optimum through ``packing_lp_integers``, ``packing_lp`` and
``setcover_lp``, and its optimality certificate is checked on every such
solve.  Oracles refuse inputs beyond their budget instead of running
unboundedly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class OverBudget(ValueError):
    pass


class LPUnbounded(RuntimeError):
    pass


class LPInfeasible(RuntimeError):
    pass


# the budget: brute force takes at most MAX_BRUTE_NODES nodes or sets, an
# exact LP at most MAX_LP_VARS variables (one component, for set cover)
MAX_BRUTE_NODES = 20
MAX_LP_VARS = 10_000


# ---------------------------------------------------------------------------
# exact simplex: max c.x  s.t.  A x <= b, x >= 0
# ---------------------------------------------------------------------------


def simplex_max(c, A, b, max_pivots=200_000):
    """Exact simplex for max c.x  s.t.  A x <= b, x >= 0, with b >= 0,
    integer (fraction-free) pivoting, Dantzig pricing, and a Bland
    fallback against cycling.

    ``A`` is a list of m sparse rows ``{column: coefficient}`` over the
    n = len(c) columns; coefficients, ``b`` and ``c`` are ints, and any
    other type (a Fraction, a float, a bool) raises ValueError.  With
    b >= 0, x = 0 is feasible and the slacks form the start basis; a
    negative b_i raises ValueError.  Variables are labelled 0..n-1
    (original) and n..n+m-1 (slacks).  The rows are laid out in a
    condensed (Tucker) integer tableau: one column per nonbasic variable,
    whose labels sit in a list, plus the rhs, over one shared positive
    denominator ``prev``.  The basic columns of the full tableau are
    ``prev`` times unit vectors and are not stored.  A pivot applies the
    Sylvester identity T' = (piv*T - T[col] x prow) / prev with exact
    integer division to the rows other than the pivot row, and the
    entering column then holds the leaving variable's: ``prev`` in the
    pivot row and the negated old entries elsewhere (J. Edmonds, 1967).
    The integers are those of the full fraction-free tableau, so entries
    stay minor-sized.

    Returns the solution in integers, (cx, X, Y, prev): the optimum is
    cx / prev, x_j = X[j] / prev and y_i = Y[i] / prev, y the optimal
    dual (min y.b, y A >= c, y >= 0), over the final, unreduced tableau
    denominator ``prev``, once an exact optimality certificate holds:
    primal and dual feasibility, y >= 0 and equal objectives.  Raises
    LPUnbounded.
    """
    if any(bv < 0 for bv in b):
        raise ValueError("simplex_max takes b >= 0")
    if any(type(v) is not int
           for v in itertools.chain(c, b, *(row.values() for row in A))):
        raise ValueError("simplex_max takes int coefficients")
    m = len(A)
    n = len(c)
    rows = [{j: a for j, a in row.items() if a} for row in A]
    # the originals are nonbasic at the start, the slacks basic; the slack
    # basis has determinant 1, so the tableau starts at the true values
    labels = list(range(n))
    basis = list(range(n, n + m))
    T = []
    for row, bv in zip(rows, b):
        T.append([0] * n + [bv])
        for j, a in row.items():
            T[-1][j] = a
    # z = prev * (c_B B^-1 N - c_N), and c_B = 0 on the slack basis
    T.append([-cj for cj in c] + [0])
    prev = _run(T, labels, basis, 1, max_pivots, n + 2 * m)
    z = T.pop()

    # true values x = X/prev and y = Y/prev; Y is read off the slack
    # reduced costs, 0 where a slack is basic
    X = [0] * n
    for i, bc in enumerate(basis):
        if bc < n:
            X[bc] = T[i][-1]
    Y = [0] * m
    for lab, zj in zip(labels, z):
        if lab >= n:
            Y[lab - n] = zj
    # exact optimality certificate, in integers: primal/dual feasibility,
    # y >= 0 and equal objectives
    for i, row in enumerate(rows):
        if sum(a * X[j] for j, a in row.items()) > b[i] * prev:
            raise AssertionError("primal infeasible after solve")
    yA = [0] * n
    for yi, row in zip(Y, rows):
        if yi:
            for j, a in row.items():
                yA[j] += yi * a
    if any(yA[j] < c[j] * prev for j in range(n)):
        raise AssertionError("dual infeasible after solve")
    if any(yi < 0 for yi in Y):
        raise AssertionError("negative dual")
    cx = sum(cj * xj for cj, xj in zip(c, X) if xj)
    if sum(yi * bv for yi, bv in zip(Y, b) if yi) != cx:
        raise AssertionError("duality gap after solve")
    return cx, X, Y, prev


def _run(T, labels, basis, prev, limit, bland_width):
    """Pivots the condensed tableau ``T``, whose last row is the reduced
    costs, to optimality; returns the final ``prev``.  Dantzig pricing
    (ties to the smallest label) until more than 4 * ``bland_width``
    degenerate pivots in a row, then Bland's rule; the ratio test breaks
    ties toward the smallest basic label."""
    m = len(basis)
    degenerate = 0
    bland = False
    for _ in range(limit):
        z = T[m]
        zc = z[:-1]
        best = min(zc, default=0)
        if best >= 0:
            return prev
        if bland:
            enter = labels.index(min([lab for lab, zj in zip(labels, zc)
                                      if zj < 0]))
        elif zc.count(best) > 1:
            enter = labels.index(min([lab for lab, zj in zip(labels, zc)
                                      if zj == best]))
        else:
            enter = zc.index(best)
        ratio_num = ratio_den = None
        leave = -1
        for i, a in enumerate([row[enter] for row in T[:m]]):
            if a > 0:
                # compare the row's rhs/a with the incumbent by cross mult
                rhs = T[i][-1]
                if (leave < 0 or rhs * ratio_den < ratio_num * a
                        or (rhs * ratio_den == ratio_num * a
                            and basis[i] < basis[leave])):
                    ratio_num = rhs
                    ratio_den = a
                    leave = i
        if leave < 0:
            raise LPUnbounded("unbounded direction")
        if ratio_num == 0:
            degenerate += 1
            if degenerate > 4 * bland_width:
                bland = True
        else:
            degenerate = 0
        prev = _pivot(T, labels, basis, leave, enter, prev)
    raise RuntimeError("simplex pivot limit exceeded")


def _pivot(T, labels, basis, r, p, prev):
    """Edmonds integer pivot of the condensed tableau ``T`` (the reduced
    costs its last row) on row ``r`` and the nonbasic column at position
    ``p``; returns the new ``prev``.  Divisions by the previous pivot are
    exact (entries are subdeterminants); the final optimality certificate
    independently guards against any arithmetic slip."""
    prow = T[r]
    piv = prow[p]
    col = [row[p] for row in T]
    if piv == prev:
        # (prev*a - f*q) / prev = a - f*q/prev: a row changes only where
        # the pivot row is nonzero, and not at all where f is 0
        nz = [(j, q) for j, q in enumerate(prow) if q]
        for i, f in enumerate(col):
            if f and i != r:
                row = T[i]
                for j, q in nz:
                    row[j] -= f * q // prev
                row[p] = -f
    else:
        for i, f in enumerate(col):
            if f:
                if i != r:
                    row = [(piv * a - f * q) // prev
                           for a, q in zip(T[i], prow)]
                    row[p] = -f
                    T[i] = row
            else:
                T[i] = [(piv * a) // prev for a in T[i]]
    prow[p] = prev
    labels[p], basis[r] = basis[r], labels[p]
    return piv


def _min_lp(objective, A, b):
    """min c.x, Ax >= b, x >= 0, solved through its dual max b.y,
    A^T y <= c by ``simplex_max``, whose dual is x.  The costs c are
    >= 0, so y = 0 starts the dual; a negative cost raises ValueError.
    Returns the integers (num, X, Y, prev) of that solve: the optimum is
    num / prev, x_j = X[j] / prev and y_i = Y[i] / prev.  The recovered
    x is checked feasible and of the optimal cost, in integers."""
    if any(cj < 0 for cj in objective):
        raise ValueError("a min LP takes costs >= 0")
    At = [{} for _ in objective]
    for i, row in enumerate(A):
        for j, a in row.items():
            if a:
                At[j][i] = a
    try:
        num, y, x, prev = simplex_max(b, At, objective)
    except LPUnbounded as exc:
        raise LPInfeasible("primal infeasible (dual unbounded)") from exc
    for row, bv in zip(A, b):
        if sum(a * x[j] for j, a in row.items() if a and x[j]) < bv * prev:
            raise AssertionError("recovered primal infeasible")
    if sum(cj * xj for cj, xj in zip(objective, x) if cj and xj) != num:
        raise AssertionError("duality gap in min recovery")
    return num, x, y, prev


def packing_lp(wg, weights=None):
    """LP: max sum w(v) x_v  s.t.  for all v: sum_{u in N+(v)} x_u <= 1.

    Returns (S*, x dict), x as Fractions; ``packing_lp_integers`` solves
    it."""
    opt, x = packing_lp_integers(wg, weights)
    return opt, {v: Fraction(xv, D) for v, (xv, D) in x.items()}


def packing_lp_integers(wg, weights=None):
    """The packing LP of ``packing_lp``, with its point in integers.

    Returns (S*, x): S* a Fraction, and x[v] = (numerator, D) for every
    node in graph order, its value numerator / D with D the unreduced
    denominator of v's component.  ``weights`` overrides the graph's
    weights (residual weight functions); nodes of weight 0 still
    constrain.  One LP is solved per connected component, over its nodes
    in graph order.  The constraints are block diagonal and every run
    starts from the slack basis, so a pivot in one block leaves the
    reduced costs of the others alone, and Dantzig pricing on the whole
    system interleaves these per-block runs: the merged x is the vertex
    one solve over all nodes returns, unless its degenerate-pivot count
    brings in the Bland fallback.
    """
    g = wg.graph if hasattr(wg, "graph") else wg
    w = weights if weights is not None else getattr(wg, "weights", None)
    if w is None:
        w = {v: 1 for v in g.nodes}
    nodes = list(g.nodes)
    if len(nodes) > MAX_LP_VARS:
        raise OverBudget("packing LP over budget")
    opt = Fraction(0)
    x = {}
    for comp in _graph_components(g):
        num, xs, _y, prev = simplex_max(
            [w.get(v, 0) for v in comp], _closed_neighborhood_rows(g, comp),
            [1] * len(comp))
        opt += Fraction(num, prev)
        x.update((v, (xv, prev)) for v, xv in zip(comp, xs))
    return opt, {v: x[v] for v in nodes}


def _graph_components(g):
    """Connected components of ``g`` as node lists in ``g.nodes`` order,
    ordered by their first node."""
    root = {}
    for start in g.nodes:
        if start in root:
            continue
        root[start] = start
        stack = [start]
        while stack:
            for u in g.neighbors(stack.pop()):
                if u not in root:
                    root[u] = start
                    stack.append(u)
    comps = {}
    for v in g.nodes:
        comps.setdefault(root[v], []).append(v)
    return list(comps.values())


def _closed_neighborhood_rows(g, nodes):
    """Sparse 0/1 rows of x(N+[v]) for v in ``nodes``, a union of
    components of ``g``, with columns in the order of ``nodes``."""
    idx = {v: i for i, v in enumerate(nodes)}
    rows = []
    for v in nodes:
        row = {idx[v]: 1}
        for u in g.neighbors(v):
            row[idx[u]] = 1
        rows.append(row)
    return rows


def setcover_lp(inst, costs=None):
    """Exact fractional set cover optimum: min sum cost(v) x_v with every
    element covered at least once.  ``costs`` maps every set to its cost
    and defaults to the instance's costs.  Solved per connected component
    over sparse 0/1 rows.

    Returns (optimum, x): the optimum a Fraction, and x[v] = (numerator,
    D) for every set v of an element, its value numerator / D with D the
    unreduced denominator of v's component.  All sets of one element
    share D, so per-element sums are integer sums over D."""
    if costs is None:
        costs = inst.costs
    x = {}
    opt = Fraction(0)
    for (els, sets_) in _components(inst):
        if len(sets_) > MAX_LP_VARS:
            raise OverBudget("set cover LP over budget")
        sidx = {v: j for j, v in enumerate(sets_)}
        A = [{sidx[v]: 1 for v in inst.element_sets[u]} for u in els]
        num, xs, _y, prev = _min_lp([costs[v] for v in sets_], A,
                                    [1] * len(els))
        opt += Fraction(num, prev)
        x.update((v, (xv, prev)) for v, xv in zip(sets_, xs))
    return opt, x


def _components(inst):
    seen = set()
    out = []
    for start in inst.elements:
        if start in seen:
            continue
        els, sets_ = [], []
        stack = [("e", start)]
        seen.add(start)
        while stack:
            kind, x = stack.pop()
            if kind == "e":
                els.append(x)
                for v in inst.element_sets[x]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(("s", v))
            else:
                sets_.append(x)
                for u in inst.set_elements[x]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(("e", u))
        out.append((sorted(els), sorted(sets_)))
    return out


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


def brute_max_weight_is(wg):
    """Exact maximum weight independent set by branch and bound."""
    g = wg.graph if hasattr(wg, "graph") else wg
    w = getattr(wg, "weights", None) or {v: 1 for v in g.nodes}
    nodes = list(g.nodes)
    if len(nodes) > MAX_BRUTE_NODES:
        raise OverBudget(f"{len(nodes)} nodes over oracle budget")
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    adj = [0] * n
    for e in g.edges:
        adj[idx[e.u]] |= 1 << idx[e.v]
        adj[idx[e.v]] |= 1 << idx[e.u]
    wt = [w[v] for v in nodes]
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + wt[i]
    best = [0, 0]

    def rec(i, taken_mask, blocked, acc):
        if acc + suffix[i] <= best[0]:
            return
        if i == n:
            if acc > best[0]:
                best[0] = acc
                best[1] = taken_mask
            return
        if not (blocked >> i) & 1:
            rec(i + 1, taken_mask | (1 << i), blocked | adj[i], acc + wt[i])
        rec(i + 1, taken_mask, blocked, acc)

    rec(0, 0, 0, 0)
    witness = sorted(nodes[i] for i in range(n) if (best[1] >> i) & 1)
    return best[0], witness


def brute_set_cover_opt(inst, weighted=False):
    """Exact minimum (cost) set cover by branch and bound on the least-
    covered element."""
    if len(inst.sets) > MAX_BRUTE_NODES:
        raise OverBudget(f"{len(inst.sets)} sets over oracle budget")
    cost = (lambda v: inst.costs[v]) if weighted else (lambda v: 1)
    els = list(inst.elements)
    best = [None, None]

    def rec(uncovered, chosen, acc):
        if best[0] is not None and acc >= best[0]:
            return
        if not uncovered:
            best[0] = acc
            best[1] = sorted(chosen)
            return
        u = min(uncovered, key=lambda e: (len(inst.element_sets[e]), e))
        for v in inst.element_sets[u]:
            if v in chosen:
                continue
            newly = set(inst.set_elements[v]) & uncovered
            rec(uncovered - newly, chosen | {v}, acc + cost(v))

    rec(set(els), set(), 0)
    if best[0] is None:
        raise LPInfeasible("instance has an uncoverable element")
    return best[0], best[1]


def neighborhood_independence(g):
    """beta = max over nodes v of the max independent set size in G[N(v)]."""
    if len(g.nodes) > 6 * MAX_BRUTE_NODES:
        raise OverBudget("graph over oracle budget")
    from .graph import simple_graph

    beta = 1 if g.nodes else 0
    for v in g.nodes:
        nb = g.neighbors(v)
        if len(nb) > MAX_BRUTE_NODES:
            raise OverBudget(f"neighborhood of {v} over budget")
        if not nb:
            continue
        nbset = set(nb)
        pairs = [(e.u, e.v) for e in g.edges if e.u in nbset and e.v in nbset]
        sub = simple_graph(nb, pairs)
        size, _w = brute_max_weight_is(sub)
        beta = max(beta, size)
    return beta


# ---------------------------------------------------------------------------
# certificate scanners
# ---------------------------------------------------------------------------


def is_independent(g, S):
    S = set(S)
    return all(not (e.u in S and e.v in S) for e in g.edges)


def is_maximal_is(g, S):
    S = set(S)
    if not is_independent(g, S):
        return False
    for v in g.nodes:
        if v in S:
            continue
        if not any(u in S for u in g.neighbors(v)):
            return False
    return True


def is_matching(g, M):
    used = set()
    index = {e.index: e for e in g.edges}
    for i in M:
        e = index.get(i)
        if e is None:
            return False
        if e.u in used or e.v in used:
            return False
        used.update((e.u, e.v))
    return True


def is_maximal_matching(g, M):
    if not is_matching(g, M):
        return False
    used = set()
    index = {e.index: e for e in g.edges}
    for i in M:
        used.update((index[i].u, index[i].v))
    for e in g.edges:
        if e.u not in used and e.v not in used:
            return False
    return True


def covers(inst, chosen):
    covered = set()
    chosen = set(chosen)
    for v in chosen:
        if v not in inst.set_elements:
            return False
        covered.update(inst.set_elements[v])
    return covered >= set(inst.elements)
