"""Pinned outputs of maximal matching and of the independent-set rounding.

Checked ``maximal_matching`` runs in LOCAL and CONGEST, and checked
``lp_guided_is`` (lp4), ``turan_fraction_is`` and ``caro_wei_is`` runs in
both models, on seeded weighted graphs.  Every output, the matching's
outer iteration count and the engine's ``total_rounds`` and
``max_bits_per_edge_round`` go into one sha256.  Matching rounds a
doubling-freeze fractional matching on the line graph, so this pins the
line-graph view, the freeze and the two-label rounding path end to end.
"""

import hashlib
import json
import random
from fractions import Fraction

from locround import indepset as IS, sim
from conftest import random_weighted_graph

DIGEST = "8a5c0cbbde57ac00a3b1c81fcfb6ce3e013071a8c252b36420b128ae0305c5d0"


def _graphs():
    rng = random.Random(20261020)
    for _ in range(10):
        yield random_weighted_graph(rng, rng.randint(1, 30), rng.randint(1, 6),
                                    density=rng.choice([0.1, 0.3, 0.6]),
                                    wmax=7)


def _records():
    for wg in _graphs():
        g = wg.graph
        for mode in (sim.LOCAL, sim.CONGEST):
            engine = sim.RoundEngine(g, mode=mode)
            M, metrics, iters = IS.maximal_matching(g, engine=engine)
            yield ["matching", mode, M, iters, metrics.total_rounds,
                   metrics.max_bits_per_edge_round]
            runs = (
                ("lp4", lambda e: list(IS.lp_guided_is(
                    wg, eps=Fraction(1, 5), engine=e)[0])),
                ("turan", lambda e: IS.turan_fraction_is(
                    wg, Fraction(1, 10), engine=e)),
                ("carowei", lambda e: IS.caro_wei_is(
                    wg, Fraction(1, 10), engine=e)),
            )
            for name, run in runs:
                engine = sim.RoundEngine(g, mode=mode)
                I = run(engine)
                yield [name, mode, I, engine.metrics.total_rounds,
                       engine.metrics.max_bits_per_edge_round]


def matching_digest():
    h = hashlib.sha256()
    for rec in _records():
        h.update(json.dumps(rec).encode())
    return h.hexdigest()


def test_matching_and_is_outputs_are_pinned():
    assert matching_digest() == DIGEST
