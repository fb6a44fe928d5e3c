"""Preprocessing and the potential on raw integer rows against a Fraction
reference.

A raw row is a tuple of non-negative integers whose sum is its
denominator: ``(d - n, n)`` is x = n/d.  ``reference_preprocess`` and
``reference_potential`` are ``preprocess_fractional`` and the rational
branch of ``_Prepared.potential`` as they were over rows of Fractions,
each converted once per row object with an lcm of its denominators.  The
integer path must give equal rows over the same 2^k and equal exact
(u, c), and raise the same errors, whatever multiple of its reduced
denominator a raw row is written over.
"""

import math
import operator
import random
from fractions import Fraction

import pytest

from locround import rounding as R
from conftest import random_simple_graph, raw_rows


def reference_preprocess(lam_raw, eps, mu, lam_min=None):
    eps = Fraction(eps)
    mu = Fraction(mu)
    distinct = {}
    rows = []
    actual_min = None
    for v, nums in lam_raw.items():
        hit = distinct.get(id(nums))
        if hit is None:
            fr = [Fraction(x) for x in nums]
            D = math.lcm(*(x.denominator for x in fr))
            N = [x.numerator * (D // x.denominator) for x in fr]
            if sum(N) != D:
                raise ValueError("input distributions must sum to 1")
            if any(x < 0 for x in N):
                raise ValueError("negative fractional value")
            m = min((x for x in N if x), default=0)
            if m and (actual_min is None or Fraction(m, D) < actual_min):
                actual_min = Fraction(m, D)
            hit = distinct[id(nums)] = [nums, D, N, None]
        rows.append((v, hit))
    if actual_min is None:
        actual_min = Fraction(1)
    if lam_min is None:
        lam_min = actual_min
    else:
        lam_min = Fraction(lam_min)
        if actual_min < lam_min:
            raise ValueError(
                f"declared lam_min {lam_min} exceeds actual minimum {actual_min}")
    k = 0
    target = Fraction(9) / (eps * mu * lam_min)
    while (1 << k) < target:
        k += 1
    two_k = 1 << k
    for hit in distinct.values():
        _nums, D, N, _out = hit
        floors = []
        rems = []
        for a, x in enumerate(N):
            f, r = divmod(x << k, D)
            floors.append(f)
            if r:
                rems.append((-r, a))
        deficit = two_k - sum(floors)
        rems.sort()
        for j in range(deficit):
            floors[rems[j][1]] += 1
        hit[3] = tuple(floors)
    return {v: hit[3] for v, hit in rows}


def reference_potential(prep, lam):
    rows = [lam[v] for v in prep.nodes]
    distinct = {}
    for row in rows:
        if id(row) not in distinct:
            distinct[id(row)] = [Fraction(x) for x in row]
    D = math.lcm(*(x.denominator for fr in distinct.values() for x in fr))
    for key, fr in distinct.items():
        distinct[key] = [x.numerator * (D // x.denominator) for x in fr]
    arr = [distinct[id(row)] for row in rows]
    U, C = R._K.eval_potential(prep.tables, arr, 0)
    val = prep.val
    for v, row in zip(prep.nodes, arr):
        nu = val.node_utility.get(v)
        if nu is not None:
            U += D * sum(map(operator.mul, row, nu))
        nc = val.node_cost.get(v)
        if nc is not None:
            C += D * sum(map(operator.mul, row, nc))
    den = prep.scale * D * D
    return Fraction(U, den), Fraction(C, den)


def _outcome(f, *args, **kwargs):
    try:
        out = f(*args, **kwargs)
    except ValueError as exc:
        return "raised", type(exc), str(exc)
    return "ok", out


def _scaled(rng, rows):
    """The same raw rows, each written over a random multiple of its
    reduced denominator."""
    out = {}
    for v, row in rows.items():
        c = rng.choice([1, 1, 2, 3, 10, 1 << 40])
        out[v] = tuple(c * x for x in row)
    return out


def _random_row(rng, L, kind):
    if kind == "dyadic":
        den = 1 << rng.randint(0, 12)
    elif kind == "huge":
        den = rng.getrandbits(300) | (1 << 299)
    else:
        den = rng.choice([1, 3, 7, 12, 35, 60, 97])
    cuts = sorted(rng.randint(0, den) for _ in range(L - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    if kind == "zero" and L > 1:
        # one entry exactly zero, its mass moved to the next label
        a = rng.randrange(L)
        b = (a + 1) % L
        parts[b] += parts[a]
        parts[a] = 0
    return tuple(Fraction(p, den) for p in parts)


def _random_case(rng):
    L = rng.choice([2, 2, 3])
    g = random_simple_graph(rng, rng.randint(1, 10), 4, 0.4)
    q = 20
    # utilities in thirds and fifths, costs in halves, at scale 30
    eu = {e.index: tuple(rng.randint(0, q) * (30 // rng.choice([1, 3]))
                         for _ in range(L * L))
          for e in g.edges}
    ec = {e.index: tuple(rng.randint(0, q) * (30 // rng.choice([1, 2]))
                         for _ in range(L * L))
          for e in g.edges}
    nu = {v: tuple(rng.randint(0, q) * 6 for _ in range(L))
          for v in g.nodes if rng.random() < 0.5}
    nc = {v: tuple(rng.randint(0, q) * 30 for _ in range(L))
          for v in g.nodes if rng.random() < 0.3}
    val = R.Valuation(L, eu, ec, node_utility=nu, node_cost=nc, scale=30)
    kinds = rng.choice([["plain"], ["dyadic"], ["huge"], ["zero"],
                        ["plain", "dyadic", "huge", "zero"]])
    lam = {}
    shared = _random_row(rng, L, rng.choice(kinds))
    for v in g.nodes:
        # MIS and set cover hand every node with one value one row object
        lam[v] = (shared if rng.random() < 0.3
                  else _random_row(rng, L, rng.choice(kinds)))
    return g, val, L, lam


def test_raw_rows_match_the_fraction_reference():
    rng = random.Random(1901)
    seen = {"ok": 0, "lam_min": 0}
    for _ in range(240):
        g, val, L, lam = _random_case(rng)
        prep = R._Prepared(g, val)
        raw = _scaled(rng, raw_rows(lam))
        assert prep.potential(raw) == reference_potential(prep, lam)
        assert R.evaluate(val, raw, g) == reference_potential(prep, lam)
        eps = rng.choice([Fraction(1, 2), Fraction(1, 10), Fraction(1, 400)])
        mu = rng.choice([Fraction(1, 2), Fraction(1, 4)])
        actual = min((x for row in lam.values() for x in row if x),
                     default=Fraction(1))
        lam_min = rng.choice([None, actual, actual / 3, actual * 2,
                              actual + Fraction(1, 10 ** 9)])
        ref = _outcome(reference_preprocess, lam, eps, mu, lam_min)
        assert _outcome(R.preprocess_fractional, raw, eps, mu,
                        lam_min) == ref
        seen["ok" if ref[0] == "ok" else "lam_min"] += 1
    # both branches ran often
    assert min(seen.values()) >= 40


@pytest.mark.parametrize("row, line", [
    ((Fraction(0), Fraction(0)), "input distributions must sum to 1"),
    ((Fraction(3, 2), Fraction(-1, 2)), "negative fractional value"),
    ((Fraction(0), Fraction(5, 4), Fraction(-1, 4)),
     "negative fractional value"),
])
def test_raw_rows_raise_the_reference_errors(row, line):
    """Preprocessing rejects the row as the reference does.  The
    potential of the all-zero row equals the reference's; the potential
    rejects a row with a negative entry, which the reference evaluated."""
    L = len(row)
    lam = {1: tuple(Fraction(1, L) for _ in range(L)), 2: row}
    raw = raw_rows(lam)
    g = random_simple_graph(random.Random(L), 2, 1, 1.0)
    lam = dict(zip(g.nodes, lam.values()))
    raw = dict(zip(g.nodes, raw.values()))
    # the table (a + 2b + 1)/3 at labels (a, b)
    table = tuple(a + 2 * b + 1 for a in range(L) for b in range(L))
    val = R.Valuation(
        L, {0: table}, {0: table},
        node_utility={v: tuple(range(3, 3 * L + 1, 3)) for v in g.nodes},
        scale=3)
    prep = R._Prepared(g, val)
    assert g.edges
    if min(row) < 0:
        with pytest.raises(ValueError, match="negative entry"):
            prep.potential(raw)
    else:
        assert prep.potential(raw) == reference_potential(prep, lam)
    ref = _outcome(reference_preprocess, lam, Fraction(1, 2),
                   Fraction(1, 2))
    assert ref == ("raised", ValueError, line)
    assert _outcome(R.preprocess_fractional, raw, Fraction(1, 2),
                    Fraction(1, 2)) == ref


def test_declared_lam_min_above_the_minimum_raises_the_reference_error():
    lam = {1: (Fraction(1, 10), Fraction(9, 10)),
           2: (Fraction(1, 2), Fraction(1, 2))}
    for raw in (raw_rows(lam), {1: (10, 90), 2: (7, 7)}):
        out = _outcome(R.preprocess_fractional, raw, Fraction(1, 2),
                       Fraction(1, 2), Fraction(1, 5))
        assert out == _outcome(reference_preprocess, lam, Fraction(1, 2),
                               Fraction(1, 2), Fraction(1, 5))
        assert out[2] == "declared lam_min 1/5 exceeds actual minimum 1/10"


def test_dyadic_and_huge_rows_match_the_reference():
    """A row already on the grid keeps its values, and a 300-bit
    denominator is rounded as the reference rounds it."""
    big = (1 << 299) + 12345
    lam = {1: (Fraction(3, 128), Fraction(125, 128)),
           2: (Fraction(big - 7, big), Fraction(7, big)),
           3: (Fraction(0), Fraction(1))}
    for eps in (Fraction(1, 2), Fraction(1, 1000)):
        ref = _outcome(reference_preprocess, lam, eps, Fraction(1, 2),
                       Fraction(7, big))
        assert ref[0] == "ok"
        assert _outcome(R.preprocess_fractional, raw_rows(lam), eps,
                        Fraction(1, 2), Fraction(7, big)) == ref
        _ok, values = ref
        k = sum(values[3]).bit_length() - 1
        assert values[1] == (3 << (k - 7), 125 << (k - 7))
        assert values[3] == (0, 1 << k)
