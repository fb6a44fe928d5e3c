"""``oracle.simplex_max`` keeps only the nonbasic columns of the tableau.
It must take the same pivots through the same integers as the dense
tableau of ``dense_simplex.py``: the same 5-tuple, or the same exception
class with the same message, on every LP."""

import random
from fractions import Fraction

from locround import oracle as O
from conftest import random_simple_graph
from dense_simplex import dense_simplex_max


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _coef(rng, fractions, lo=-5, hi=5):
    if rng.random() < 0.35:
        return 0
    if fractions and rng.random() < 0.5:
        return Fraction(rng.randint(lo, hi), rng.randint(1, 6))
    return rng.randint(lo, hi)


def _random_lp(rng):
    """max c.x, A x <= b over n, m in 1..8, with int or Fraction
    coefficients and zeros.  Half the LPs are anchored: b = A x0 + s for a
    point x0 >= 0 and s >= 0, with A of both signs, so that a negative b
    needs a phase 1 that ends feasible; the others draw b freely."""
    n = rng.randint(1, 8)
    m = rng.randint(1, 8)
    fractions = rng.random() < 0.5
    c = [_coef(rng, fractions) for _ in range(n)]
    if rng.random() < 0.5:
        A = [{j: a for j in range(n) if (a := _coef(rng, fractions))}
             for _ in range(m)]
        x0 = [rng.randint(0, 3) for _ in range(n)]
        b = [sum(a * x0[j] for j, a in row.items()) + rng.randint(0, 2)
             for row in A]
        return c, A, b
    lo = -3 if rng.random() < 0.3 else 0
    A = [{j: a for j in range(n) if (a := _coef(rng, fractions, lo))}
         for _ in range(m)]
    p_neg = rng.choice((0, 0.2, 0.5))
    b = [-_coef(rng, fractions, 0, 4) if rng.random() < p_neg
         else _coef(rng, fractions, 0, 9) for _ in range(m)]
    return c, A, b


def test_same_outcome_on_seeded_random_lps():
    rng = random.Random(20)
    kinds = {"optimal": 0, "phase1": 0, "LPInfeasible": 0, "LPUnbounded": 0,
             "RuntimeError": 0}
    for _ in range(2400):
        c, A, b = _random_lp(rng)
        args = (c, A, b)
        if rng.random() < 0.05:
            args += (rng.randint(0, 3),)                # max_pivots
        got = _outcome(O.simplex_max, *args)
        assert got == _outcome(dense_simplex_max, *args), args
        if isinstance(got[0], type):
            kinds[got[0].__name__] += 1
        else:
            kinds["phase1" if min(b) < 0 else "optimal"] += 1
    assert all(v >= 20 for v in kinds.values()), kinds


def test_same_outcome_on_packing_and_covering_lps():
    """Connected packing LPs of up to 30 nodes, and their covering duals
    with a phase 1, take hundreds of pivots."""
    rng = random.Random(21)
    for n in (5, 12, 20, 30):
        for _ in range(3):
            g = random_simple_graph(rng, n, 6, density=0.3)
            nodes = list(g.nodes)
            idx = {v: i for i, v in enumerate(nodes)}
            rows = [{idx[v]: 1, **{idx[u]: 1 for u in g.neighbors(v)}}
                    for v in nodes]
            w = [Fraction(rng.randint(1, 9), rng.randint(1, 3))
                 for _ in nodes]
            for args in ((w, rows, [1] * n),
                         ([-1] * n, [{j: -a for j, a in r.items()}
                                    for r in rows], [-x for x in w])):
                got = O.simplex_max(*args)
                assert got == dense_simplex_max(*args)


def test_same_outcome_on_edge_cases():
    beale = (  # cycles under Dantzig pricing; the Bland fallback ends it
        [Fraction(3, 4), -20, Fraction(1, 2), -6],
        [{0: Fraction(1, 4), 1: -8, 2: -1, 3: 9},
         {0: Fraction(1, 2), 1: -12, 2: Fraction(-1, 2), 3: 3},
         {2: 1}],
        [0, 0, 1])
    cases = [
        beale,
        ([1], [{0: 1}], [-1]),                          # infeasible
        ([1, 1], [{1: 1}], [2]),                        # unbounded
        ([1, 1], [{0: 1, 1: 1}, {0: -1, 1: -1}], [0, 0]),
        ([0, 0], [{}, {}], [0, -0]),                    # empty rows
        ([2, -1], [{0: 1}, {0: -1}], [3, -3]),          # x0 = 3 by two rows
        ([-1, -1], [{0: -1, 1: -1}, {0: -1}], [-2, -1]),  # phase 1 to a min
        ([1, 2], [{0: 1, 1: 1}] * 3, [4, 4, 4]),        # degenerate ties
    ]
    for args in cases:
        # pivot limits around Beale's cycle also pin when Bland takes over
        limits = range(64 if args is beale else 3)
        for extra in ((), *((k,) for k in limits)):
            got = _outcome(O.simplex_max, *args, *extra)
            assert got == _outcome(dense_simplex_max, *args, *extra), args
    cx, X, _Y, prev, den = O.simplex_max(*beale)
    assert Fraction(cx, prev * den) == Fraction(5, 4)
    assert [Fraction(v, prev) for v in X] == [1, 0, 1, 0]
