"""``oracle.simplex_max`` keeps only the nonbasic columns of the tableau.
It must take the same pivots through the same integers as the dense
tableau of ``dense_simplex.py``: the same 4-tuple, or the same exception
class with the same message, on every LP.  Every LP here has integer
coefficients and b >= 0, the only form ``simplex_max`` takes."""

import itertools
import random
from fractions import Fraction

import pytest

from locround import oracle as O
from conftest import random_setcover, random_simple_graph
from dense_simplex import dense_simplex_max


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _coef(rng, lo=-5, hi=5):
    if rng.random() < 0.35:
        return 0
    return rng.randint(lo, hi)


def _random_lp(rng):
    """max c.x, A x <= b over n, m in 1..8, with b >= 0, int coefficients
    and zeros.  Three in ten LPs draw A of both signs; the others draw
    A >= 0, so that a column with a positive cost and no positive entry
    leaves the LP unbounded.  A zero in b makes its row degenerate at the
    start."""
    n = rng.randint(1, 8)
    m = rng.randint(1, 8)
    c = [_coef(rng) for _ in range(n)]
    lo = -3 if rng.random() < 0.3 else 0
    A = [{j: a for j in range(n) if (a := _coef(rng, lo))} for _ in range(m)]
    b = [_coef(rng, 0, 9) for _ in range(m)]
    return c, A, b


def test_same_outcome_on_seeded_random_lps():
    rng = random.Random(20)
    kinds = {"optimal": 0, "degenerate": 0, "LPUnbounded": 0,
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
            kinds["degenerate" if min(b) == 0 else "optimal"] += 1
    assert all(v >= 20 for v in kinds.values()), kinds


def _covering_args(costs, A, b):
    """The max LP ``_min_lp`` hands ``simplex_max`` for min costs.x,
    A x >= b, x >= 0: its dual max b.y, A^T y <= costs."""
    At = [{} for _ in costs]
    for i, row in enumerate(A):
        for j, a in row.items():
            At[j][i] = a
    return b, At, costs


def test_same_outcome_on_packing_and_covering_lps():
    """Connected packing LPs of up to 30 nodes take hundreds of pivots;
    set cover LPs of up to 30 elements are posed through their duals."""
    rng = random.Random(21)
    for n in (5, 12, 20, 30):
        for _ in range(3):
            g = random_simple_graph(rng, n, 6, density=0.3)
            nodes = list(g.nodes)
            idx = {v: i for i, v in enumerate(nodes)}
            rows = [{idx[v]: 1, **{idx[u]: 1 for u in g.neighbors(v)}}
                    for v in nodes]
            w = [rng.randint(1, 9) for _ in nodes]
            inst = random_setcover(rng, n, n, 3, 4)
            sidx = {v: j for j, v in enumerate(inst.sets)}
            cover = [{sidx[v]: 1 for v in inst.element_sets[u]}
                     for u in inst.elements]
            costs = [rng.randint(1, 9) for _ in inst.sets]
            for args in ((w, rows, [1] * n),
                         _covering_args(costs, cover, [1] * n)):
                got = O.simplex_max(*args)
                assert got == dense_simplex_max(*args)


def test_same_outcome_on_edge_cases():
    beale = (  # Beale's cycling LP with its rows and costs made integer
        [3, -80, 2, -24],
        [{0: 1, 1: -32, 2: -4, 3: 36}, {0: 1, 1: -24, 2: -1, 3: 6}, {2: 1}],
        [0, 0, 1])
    cases = [
        beale,
        ([1, 1], [{1: 1}], [2]),                        # unbounded
        ([1, 1], [{0: 1, 1: 1}, {0: -1, 1: -1}], [0, 0]),
        ([0, 0], [{}, {}], [0, -0]),                    # empty rows
        ([2, 1], [{0: 1}, {0: -1, 1: 1}], [3, 0]),      # x0 = 3, x1 = 3
        ([-1, -1], [{0: 1, 1: 1}], [2]),                # optimal at the start
        ([1, 2], [{0: 1, 1: 1}] * 3, [4, 4, 4]),        # degenerate ties
    ]
    for args in cases:
        # pivot limits pin each of the 7 pivots of Beale's LP
        limits = range(8 if args is beale else 3)
        for extra in ((), *((k,) for k in limits)):
            got = _outcome(O.simplex_max, *args, *extra)
            assert got == _outcome(dense_simplex_max, *args, *extra), args
    cx, X, _Y, prev = O.simplex_max(*beale)
    assert Fraction(cx, 4 * prev) == Fraction(5, 4)
    assert [Fraction(v, prev) for v in X] == [1, 0, 1, 0]


def _beale_start():
    """The fraction-free start tableau of Beale's LP, max 3/4 x0 - 20 x1
    + 1/2 x2 - 6 x3 over x0/4 - 8 x1 - x2 + 9 x3 <= 0, x0/2 - 12 x1 -
    x2/2 + 3 x3 <= 0, x2 <= 1: its rows at prev = 16 times the true
    values, and its reduced costs at 64 times, -64 c.  Dantzig pricing
    cycles on it; no integer scaling of its rows, which changes the slack
    reduced costs, does."""
    T = [[4, -128, -16, 144, 0], [8, -192, -8, 48, 0], [0, 0, 16, 0, 16],
         [-48, 1280, -32, 384, 0]]
    return T, list(range(4)), list(range(4, 7))


def test_bland_fallback_ends_beales_cycle():
    """``_run`` on Beale's start: Dantzig pricing alone runs into the pivot
    limit; with the fallback after 4 * 10 degenerate pivots in a row it
    takes more than that many pivots and ends at the optimum 5/4 at
    x = (1, 0, 1, 0)."""
    T, labels, basis = _beale_start()
    with pytest.raises(RuntimeError, match="pivot limit exceeded"):
        O._run(T, labels, basis, 16, 1000, 10 ** 6)      # no fallback
    for limit in itertools.count():
        T, labels, basis = _beale_start()
        try:
            prev = O._run(T, labels, basis, 16, limit, 10)
            break
        except RuntimeError:
            pass
    assert limit > 4 * 10 + 1
    assert min(T[-1][:-1]) >= 0
    assert Fraction(T[-1][-1], 4 * prev) == Fraction(5, 4)
    X = [0] * 4
    for row, bc in zip(T, basis):
        if bc < 4:
            X[bc] = Fraction(row[-1], prev)
    assert X == [1, 0, 1, 0]
