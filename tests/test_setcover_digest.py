"""Pinned outputs of the full set cover algorithm.

Checked ``set_cover`` runs on seeded instances, three for every
combination of unit and weighted costs, the central-exact and
central-approx fractional backends and the LOCAL and CONGEST models.
Every output set, tau, OPT_bound, the exact Phi trace, the uncovered
counts and the engine's ``total_rounds`` and ``max_bits_per_edge_round``
go into one sha256.
"""

import hashlib
import itertools
import json
import random

from locround import setcover as SC, sim
from conftest import random_setcover

DIGEST = "db4d01d600fc21496abe6947cf15c9fc146fbbe8f2101872ecb625917835e159"


def _record(V, metrics, info):
    return [V, info["tau"], str(info["opt_bound"]),
            [str(p) for p in info["phi"]], info["uncovered"],
            metrics.total_rounds, metrics.max_bits_per_edge_round]


def _runs():
    rng = random.Random(20261019)
    combos = itertools.product(("unit", "weighted"),
                               ("central-exact", "central-approx"),
                               (sim.LOCAL, sim.CONGEST))
    for cost_mode, backend, mode in combos:
        for _ in range(3):
            inst = random_setcover(rng, rng.randint(4, 24), rng.randint(3, 16),
                                   4, 5, wmax=6 if cost_mode == "weighted" else 1)
            yield SC.set_cover(inst, mode=mode, cost_mode=cost_mode,
                               backend=backend)


def setcover_digest():
    h = hashlib.sha256()
    for run in _runs():
        h.update(json.dumps(_record(*run)).encode())
    return h.hexdigest()


def test_setcover_outputs_are_pinned():
    assert setcover_digest() == DIGEST
