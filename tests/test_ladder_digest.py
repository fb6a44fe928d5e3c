"""Pinned outputs of the local-ratio ladder.

Checked ``beta_approx_is`` and ``turan_fraction_is`` runs in LOCAL and
CONGEST on seeded weighted graphs, an empty graph and an edgeless graph.
For beta the set, S* and the Upsilon trace go into one sha256; for turan
the set; for both the engine's ``total_rounds`` and
``max_bits_per_edge_round``.  eps = 9/10 gives a one-round ladder, so some
runs end with weight left on the residual support after their last round,
and the last Upsilon is held against the bound of that residual.
"""

import hashlib
import json
import random
from fractions import Fraction

from locround import graph as G, indepset as IS, sim
from conftest import random_weighted_graph

DIGEST = "7ebbec16afdb312da655d58fb29c6853b0a9437e5ae6e611b88834b746235b8f"

EPSILONS = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))


def _graphs():
    yield G.WeightedGraph(G.simple_graph([], []), {})
    yield G.WeightedGraph(G.simple_graph([3, 5, 8], []), {3: 2, 5: 7, 8: 1})
    rng = random.Random(20261021)
    for _ in range(8):
        yield random_weighted_graph(rng, rng.randint(2, 24), rng.randint(1, 6),
                                    density=rng.choice([0.1, 0.3, 0.6]),
                                    wmax=rng.choice([1, 7, 60]))


def _runs():
    """(record to hash, whether the run was a beta ladder that used all
    its rounds).  Each run appends its residual weights to ``residuals``
    through ``_residual_weights``."""
    for wg in _graphs():
        g = wg.graph
        for mode in (sim.LOCAL, sim.CONGEST):
            for eps in EPSILONS:
                engine = sim.RoundEngine(g, mode=mode)
                I, sstar, ups = IS.beta_approx_is(wg, eps, engine=engine)
                yield (["beta", mode, str(eps), I, str(sstar),
                        [str(u) for u in ups], engine.metrics.total_rounds,
                        engine.metrics.max_bits_per_edge_round],
                       len(ups) == IS._steps_for(eps))
                engine = sim.RoundEngine(g, mode=mode)
                I = IS.turan_fraction_is(wg, eps, engine=engine)
                yield (["turan", mode, str(eps), I, engine.metrics.total_rounds,
                        engine.metrics.max_bits_per_edge_round], False)


def test_ladder_outputs_are_pinned(monkeypatch):
    residuals = []
    residual_weights = IS._residual_weights

    def recording(*args):
        residuals.append(residual_weights(*args))
        return residuals[-1]

    monkeypatch.setattr(IS, "_residual_weights", recording)
    h = hashlib.sha256()
    left_over = 0
    for rec, full in _runs():
        h.update(json.dumps(rec).encode())
        left_over += full and any(residuals[-1].values())
    assert left_over, "no beta run kept weight past its last round"
    assert h.hexdigest() == DIGEST
