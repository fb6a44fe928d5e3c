"""The doubling-freeze fractional matching against a Fraction reference.

``reference_freeze`` is the freeze as first written, in exact rationals:
it recomputes every node sum in each phase and freezes an edge once an
endpoint sum reaches 1/4.  ``indepset.fractional_matching_doubling_freeze``
works on integer numerators over the start denominator and hands out raw
rows (2^k - n, n); it must give the same values and raise the same
``ISInvariantError``s.

The unfrozen-edge check cannot fire on a graph whose degrees are its own:
an edge's value reaches 1/4 after at most k - 2 of its k + 2 phases.  A
graph that understates its degrees starts the edges too high, and both
versions then report the oversaturated node.
"""

import random
from fractions import Fraction

import pytest

from locround import graph as G, indepset as IS
from conftest import random_simple_graph


def reference_freeze(g):
    dmax = max((g.degree(v) for v in g.nodes), default=1)
    k = max(1, (2 * max(dmax, 1) - 1).bit_length())
    y = {e.index: Fraction(1, 1 << k) for e in g.edges}
    if not y:
        return y
    for _phase in range(k + 2):
        sums = {v: Fraction(0) for v in g.nodes}
        for e in g.edges:
            sums[e.u] += y[e.index]
            sums[e.v] += y[e.index]
        frozen = {e.index: (sums[e.u] >= Fraction(1, 4)
                            or sums[e.v] >= Fraction(1, 4))
                  for e in g.edges}
        if all(frozen.values()):
            break
        for e in g.edges:
            if not frozen[e.index]:
                y[e.index] *= 2
    sums = {v: Fraction(0) for v in g.nodes}
    for e in g.edges:
        sums[e.u] += y[e.index]
        sums[e.v] += y[e.index]
    for v in g.nodes:
        if sums[v] > Fraction(1, 2):
            raise IS.ISInvariantError("doubling-freeze oversaturated a node")
    for e in g.edges:
        if 4 * max(sums[e.u], sums[e.v]) < 1:
            raise IS.ISInvariantError("doubling-freeze left an unfrozen edge")
    return y


def _values(rows):
    """Edge index -> n/d of the raw rows (d - n, n)."""
    return {i: Fraction(n, m + n) for i, (m, n) in rows.items()}


def _outcome(freeze, g):
    try:
        return "ok", freeze(g)
    except IS.ISInvariantError as exc:
        return "raised", str(exc)


def _integer_freeze(g):
    return _values(IS.fractional_matching_doubling_freeze(g))


class _UnderstatedDegrees(G.Multigraph):
    """A graph that reports every degree as 1."""

    def degree(self, v):
        return 1


def _graphs():
    rng = random.Random(20261021)
    yield G.simple_graph([1, 2, 3], [])                 # edgeless
    yield G.simple_graph([], [])                        # no nodes
    yield G.simple_graph([4, 9], [(4, 9)])              # a single edge
    yield G.simple_graph(range(8), [(0, v) for v in range(1, 8)])  # a star
    yield G.simple_graph(range(6), [(v, v + 1) for v in range(5)])  # a path
    for _ in range(48):
        yield random_simple_graph(rng, rng.randint(2, 40), rng.randint(1, 9),
                                  density=rng.choice([0.05, 0.2, 0.5]))
    star = G.simple_graph(range(7), [(0, v) for v in range(1, 7)])
    yield _UnderstatedDegrees(star.nodes, star.edges)


def test_integer_freeze_matches_the_fraction_reference():
    outcomes = [(_outcome(reference_freeze, g),
                 _outcome(_integer_freeze, g))
                for g in _graphs()]
    for want, got in outcomes:
        assert got == want
    kinds = [want[0] for want, _got in outcomes]
    assert kinds.count("raised") == 1 and kinds[-1] == "raised"
    # the values are not all at the start: some edges doubled
    assert any(len(set(want[1].values())) > 1 for want, _ in outcomes[:-1])


@pytest.mark.parametrize("g", [G.simple_graph([1, 2, 3], []),
                               G.simple_graph([4, 9], [(4, 9)])])
def test_small_freezes(g):
    y = IS.fractional_matching_doubling_freeze(g)
    assert _values(y) == ({} if not g.edges else {0: Fraction(1, 2)})
