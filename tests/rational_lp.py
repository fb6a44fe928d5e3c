"""Rational-valued LP solves, kept as references for the tests.

``exact_lp`` hands out the optimum, the primal and the dual of one LP as
Fractions, from ``oracle.simplex_max`` or, for a min LP, ``oracle._min_lp``.
``dual_covering_lp`` solves the covering LP dual to ``oracle.packing_lp``.
The local-ratio ladder certifies w_t(I_t) >= S*(w'_t) by a feasible point
of that LP, with no solve; the tests hold the LP optimum against
w_t(I_t).
"""

from fractions import Fraction

from locround.oracle import (MAX_LP_VARS, OverBudget,
                             _closed_neighborhood_rows, _graph_components,
                             _min_lp, simplex_max)


def exact_lp(objective, A, b, sense="max"):
    """Exact LP optimum; ``max c.x, Ax <= b`` or ``min c.x, Ax >= b``
    (both with x >= 0 and integer coefficients), ``A`` given as sparse
    rows ``{column: coefficient}`` as in ``simplex_max``.  Returns (optimum, x, y) as Fractions, y the
    optimal dual.  Unbounded and infeasible are reported distinctly."""
    if len(objective) > MAX_LP_VARS:
        raise OverBudget(f"{len(objective)} variables over LP budget")
    solve = simplex_max if sense == "max" else _min_lp
    num, x, y, prev = solve(objective, A, b)
    return (Fraction(num, prev), [Fraction(v, prev) for v in x],
            [Fraction(v, prev) for v in y])


def dual_covering_lp(wg, wprime):
    """LP (dual of the packing LP): min sum y_v s.t. for all v:
    sum_{u in N+(v)} y_u >= w'(v), y >= 0.  Solved per connected component
    like ``packing_lp``.  Returns (opt, y dict)."""
    g = wg.graph if hasattr(wg, "graph") else wg
    nodes = list(g.nodes)
    if len(nodes) > MAX_LP_VARS:
        raise OverBudget(f"{len(nodes)} variables over LP budget")
    opt = Fraction(0)
    y = {}
    for comp in _graph_components(g):
        o, ys, _x = exact_lp([1] * len(comp),
                             _closed_neighborhood_rows(g, comp),
                             [wprime.get(v, 0) for v in comp], sense="min")
        opt += o
        y.update(zip(comp, ys))
    return opt, {v: y[v] for v in nodes}
