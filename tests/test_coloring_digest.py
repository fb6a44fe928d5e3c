"""Pinned outputs of the public colorings.

``linial_coloring``, ``three_color_paths_cycles``,
``weighted_defective_coloring`` and ``average_defective_coloring`` run on
seeded plain graphs, d2-multigraphs, paths and cycles, in both modes
(exact and factor-2 conflict estimates) and with dict initial colorings.  Colors, palette and rounds
of every call go into one sha256, so a refactor of the coloring loops that
changes any output fails here.
"""

import hashlib
import json
import random
from fractions import Fraction

from locround import coloring as C, graph as G, sim
from conftest import build_d2_multigraph, random_simple_graph

DIGEST = "4f63ece1f9d8ecfd165a671cf313d64079f156bde65810e5d72d18e867d0a506"


def _d2(rng, g):
    def spec(w):
        nb = g.neighbors(w)
        return [(a, b) for i, a in enumerate(nb) for b in nb[i + 1:]
                if rng.random() < 0.5]

    return build_d2_multigraph(g, spec)


def _paths_and_cycles(rng):
    nodes, pairs, nxt = [], [], 1
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, 9)
        ids = sorted(rng.sample(range(nxt, nxt + 40), size))
        nxt += 40
        nodes += ids
        pairs += list(zip(ids, ids[1:]))
        if size >= 3 and rng.random() < 0.5:
            pairs.append((ids[0], ids[-1]))
    return G.simple_graph(nodes, pairs)


def _instances():
    rng = random.Random(20260418)
    out = [G.simple_graph([], []), G.simple_graph([7], []),
           G.simple_graph([1, 2], [(1, 2)])]
    for _ in range(20):
        out.append(random_simple_graph(rng, rng.randint(2, 30),
                                       rng.randint(2, 6), rng.random() / 3))
    for _ in range(10):
        out.append(_d2(rng, random_simple_graph(rng, rng.randint(3, 16), 4,
                                                0.3)))
    return rng, out


def _record(h, name, colors, palette, rounds):
    h.update(json.dumps([name, sorted(colors.items()), palette, rounds])
             .encode())


def coloring_digest():
    rng, graphs = _instances()
    h = hashlib.sha256()
    for g in graphs:
        pc = C.linial_coloring(g)
        _record(h, "linial", pc.colors, pc.palette_size, pc.rounds)
        initial = dict(pc.colors) if pc.colors else None
        if initial is not None:
            pc2 = C.linial_coloring(g, initial=initial)
            _record(h, "linial-initial", pc2.colors, pc2.palette_size,
                    pc2.rounds)
        w = {e.index: Fraction(rng.randint(0, 9), rng.choice([1, 2, 4]))
             for e in g.edges}
        for mode in (sim.LOCAL, sim.CONGEST):
            delta = rng.choice([Fraction(1), Fraction(1, 2), Fraction(1, 3),
                                Fraction(1, 4), Fraction(2, 7)])
            start = initial if rng.random() < 0.5 else None
            engine = sim.RoundEngine(g, mode=mode)
            dc = C.weighted_defective_coloring(g, w, delta, engine,
                                               initial=start)
            _record(h, "defective", dc.colors, dc.palette_size, dc.rounds)
            ac = C.average_defective_coloring(g, w, delta, engine,
                                              initial=start)
            _record(h, "average", ac.colors, ac.palette_size, ac.rounds)
    for _ in range(8):
        g = _paths_and_cycles(rng)
        tc = C.three_color_paths_cycles(g)
        _record(h, "three", tc.colors, tc.palette_size, tc.rounds)
    return h.hexdigest()


def test_public_coloring_outputs_are_pinned():
    assert coloring_digest() == DIGEST
