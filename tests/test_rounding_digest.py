"""Pinned outputs of the full rounding schedule.

Checked ``round_to_integral`` runs on seeded plain graphs and
d2-multigraphs whose node ids are small or at and above 2^40, in exact
and quantized modes, with no initial coloring, a small proper one or a
proper one with colors at and above 2^45.  Every labeling and the engine's
``total_rounds`` and ``max_bits_per_edge_round`` go into one sha256.  The
small start colors let the rounding step's coloring settle in closed form;
the large ones make it read edge weights, walk agreements and run the
Reed-Solomon step.  Node ids spaced by ``SPREAD`` share one residue modulo
the step's field size, so their edges agree at candidate 0 and the
ordering reduction runs too.  The test checks that all three kernels ran.
"""

import hashlib
import json
import random
from fractions import Fraction

from locround import coloring as C, graph as G, rounding as R, sim
from conftest import build_d2_multigraph, random_simple_graph

DIGEST = "1d86e5149fa66aed9f4b63113130133f293b0f755861c7743fd373dc17d03c61"

BIG = 1 << 40
# the Reed-Solomon field sizes at palette 2^63 (node ids as start colors)
# of a schedule of 1 to 4 steps at eps = 1/2, mu = 1/4
SPREAD = 9221 * 18433 * 27653 * 36871


def _d2(rng, g):
    def spec(w):
        nb = g.neighbors(w)
        return [(a, b) for i, a in enumerate(nb) for b in nb[i + 1:]
                if rng.random() < 0.5]

    return build_d2_multigraph(g, spec)


def _valuation(rng, g, L, q=40):
    """Random integer tables with every cost entry at most half the
    utility entry beside it, so u - c >= u/2 holds for every assignment."""
    eu, ec = {}, {}
    for e in g.edges:
        ut = [rng.randint(0, q) for _ in range(L * L)]
        eu[e.index] = tuple(ut)
        ec[e.index] = tuple(rng.randint(0, x // 2) for x in ut)
    nu = {v: tuple(rng.randint(0, q) for _ in range(L))
          for v in g.nodes if rng.random() < 0.4}
    return R.Valuation(L, eu, ec, node_utility=nu, scale=rng.choice([1, 3]))


def _assignment(rng, g, L, k):
    tot = 1 << k
    lam = {}
    for v in g.nodes:
        cuts = sorted(rng.randint(0, tot) for _ in range(L - 1))
        lam[v] = tuple(b - a for a, b in zip([0] + cuts, cuts + [tot]))
    return lam


def _instances():
    rng = random.Random(20261018)
    for i in range(32):
        g = random_simple_graph(rng, rng.randint(2, 16), 4, 0.3,
                                id_base=BIG if i % 4 in (1, 2) else 0)
        if i % 4 == 3:
            new = {v: BIG + r * SPREAD for r, v in enumerate(g.nodes)}
            g = G.simple_graph([new[v] for v in g.nodes],
                               [(new[e.u], new[e.v]) for e in g.edges])
        if i % 8 >= 4:
            g = _d2(rng, g)
        L = rng.choice([2, 3])
        start = rng.choice(["none", "small", "large"])
        if start == "none":
            initial = None
        else:
            initial = dict(C.linial_coloring(g).colors)
            if start == "large":
                initial = {v: (1 << 45) + 7 * c for v, c in initial.items()}
        yield (g, _valuation(rng, g, L), _assignment(rng, g, L, rng.randint(1, 4)),
               Fraction(1, 2) if i % 4 == 3 else
               rng.choice([Fraction(1, 2), Fraction(1, 10)]),
               rng.choice([sim.LOCAL, sim.CONGEST]), initial)


def rounding_digest():
    h = hashlib.sha256()
    for g, val, lam, eps, mode, initial in _instances():
        engine = sim.RoundEngine(g, mode=mode)
        ell, _uc = R.round_to_integral(R._Prepared(g, val), lam, eps,
                                       Fraction(1, 4), engine,
                                       initial_coloring=initial)
        h.update(json.dumps([sorted(ell.items()), engine.metrics.total_rounds,
                             engine.metrics.max_bits_per_edge_round]).encode())
    return h.hexdigest()


def test_rounding_outputs_are_pinned(monkeypatch):
    calls = {}
    for name in ("edge_weights_for_step", "rs_defective_step",
                 "reduce_colors_by_orderings"):
        def counted(*args, _kernel=getattr(R._K, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _kernel(*args)
        monkeypatch.setattr(R._K, name, counted)
    assert rounding_digest() == DIGEST
    assert len(calls) == 3 and min(calls.values()) >= 1, calls
