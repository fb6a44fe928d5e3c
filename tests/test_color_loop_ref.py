"""The rounding color loop against its sort-per-row reference.

``pure.rounding_color_loop`` settles a row with two labels at the step's
bit by the sign of one difference under exact estimates, and by one
comparison otherwise, and scales phi by 6 * delta_den only when
quantized per-manager terms join it.
``color_loop_ref.rounding_color_loop`` sorts every row's scaled
(phi, label) pairs, reading the node tables row by row.  On seeded inputs
both must return the same (max_qbits, touched) and move ``lam`` alike.
"""

import itertools
import random

from color_loop_ref import rounding_color_loop as reference_loop

from locround._kernel import pure


def _tables(rng, L, m):
    """m flat L*L (utility, cost) table pairs with entries from a short
    range, so that phis tie; every fourth pair is all zero."""
    ut, ct = [], []
    for e in range(m):
        if e % 4 == 3:
            ut.append((0,) * (L * L))
            ct.append((0,) * (L * L))
            continue
        ut.append(tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(L * L)))
        ct.append(tuple(rng.choice([0, 0, 1, 2]) for _ in range(L * L)))
    return ut, ct


def _rows(rng, n, L, k):
    lam = []
    for _v in range(n):
        cuts = sorted(rng.randint(0, 1 << k) for _ in range(L - 1))
        lam.append([b - a for a, b in zip([0] + cuts, cuts + [1 << k])])
    return lam


def _trials(rng):
    """Every combination of L, exact or quantized estimates, managers and
    node tables, eight random instances each, colored from two or three
    colors so that neighbors share one."""
    for L, quantized, managed, node_tables in itertools.product(
            (2, 3, 4), (False, True), (False, True), (False, True)):
        for _ in range(8):
            n = rng.randint(2, 10)
            eu, ev, mgr = [], [], []
            for _e in range(rng.randint(0, 3 * n)):
                u, v = rng.sample(range(n), 2)
                eu.append(u)
                ev.append(v)
                mgr.append(rng.choice([-1, rng.randrange(n)]) if managed
                           else -1)
            ut, ct = _tables(rng, L, len(eu))
            nut = nct = None
            if node_tables:
                nut = [tuple(rng.randint(0, 3) for _ in range(L))
                       if rng.random() < 0.7 else None for _ in range(n)]
                nct = [tuple(rng.randint(0, 3) for _ in range(L))
                       if rng.random() < 0.7 else None for _ in range(n)]
            k = rng.randint(1, 5)
            colors = [rng.randrange(rng.choice([2, 3])) for _ in range(n)]
            # delta = dn/dd up to 1, so that the band terms reorder rows;
            # delta = 0 rounds with exact estimates only
            dd = rng.randint(1, 8)
            dn = rng.randint(1 if quantized else 0, dd)
            en, ed = rng.randint(1, 6), rng.randint(1, 6)
            yield (n, L, eu, ev, mgr, ut, ct, nut, nct, _rows(rng, n, L, k),
                   k, colors, dn, dd, en, ed, quantized)


def _phis(L, lam, v, unit, tables, nut, nct, colors, k, en, ed):
    """The unscaled exact phis of row v's labels at bit ``unit``."""
    out = []
    for a in range(L):
        if not lam[v][a] & unit:
            continue
        it = iter(tables.inc[v * L + a])
        su = sc = 0
        for u, _man, b, x, y in zip(it, it, it, it, it):
            if colors[u] != colors[v]:
                su += lam[u][b] * x
                sc += lam[u][b] * y
        if nut is not None and nut[v] is not None:
            su += (1 << k) * nut[v][a]
        if nct is not None and nct[v] is not None:
            sc += (1 << k) * nct[v][a]
        out.append(ed * su - en * sc)
    return out


def test_color_loop_matches_the_sorting_reference():
    seen = {"two": 0, "more": 0, "tie": 0, "frontier": 0, "managed": 0,
            "exact_two_tie": 0, "exact_two_isolated": 0}
    for (n, L, eu, ev, mgr, ut, ct, nut, nct, lam, k, colors, dn, dd, en, ed,
         quantized) in _trials(random.Random(23)):
        tables = pure.pack_tables(n, L, eu, ev, mgr, ut, ct, nut, nct)
        seen["managed"] += tables.managed and quantized
        # the rows that the signed difference settles
        exact_two = L == 2 and not (quantized and tables.managed)
        for s in (0, 2):
            # s = 0: every row, unit 1; s = 2: rows over 2^(k+2), the
            # frontier's rows holding bit 4 in a shuffled order
            unit = 1 << s
            rows = range(n)
            base = [[x << s for x in r] for r in lam]
            if s:
                rows = [v for v in range(n) if any(x & unit for x in base[v])]
                random.Random(n * k).shuffle(rows)
                seen["frontier"] += 1
            for v in range(n):
                odd = _phis(L, base, v, unit, tables, nut, nct, colors,
                            k + s, en, ed)
                seen["two"] += len(odd) == 2
                seen["more"] += len(odd) > 2
                seen["tie"] += len(odd) != len(set(odd))
                if exact_two and len(odd) == 2:
                    seen["exact_two_tie"] += odd[0] == odd[1]
                    seen["exact_two_isolated"] += not (
                        tables.inc[2 * v] or tables.inc[2 * v + 1])
            want_lam = [list(r) for r in base]
            got_lam = [list(r) for r in base]
            want = reference_loop(n, L, eu, ev, mgr, tables, nut, nct,
                                  want_lam, k + s, colors, dn, dd, en, ed,
                                  quantized, unit, rows)
            got = pure.rounding_color_loop(tables, got_lam, k + s, colors,
                                           dn, dd, en, ed, quantized, unit,
                                           rows)
            assert got == want
            assert got_lam == want_lam
    # the trials reach every row path, ties (also of the signed
    # difference), rows without an incidence entry, frontiers and
    # per-manager sums
    assert min(seen.values()) > 20, seen
