import hashlib
import heapq
import itertools
import json
import math
import random

import pytest

from locround._kernel import BACKEND, pure

KERNEL_DIGEST = "af6db02f80580a679da8b8e3417039a067844c358480293d4253703e6995f494"


def test_primes():
    assert pure.next_prime(8) == 11
    assert pure.next_prime(2) == 2
    assert pure.is_prime(101) and not pure.is_prime(1)
    assert pure.next_prime(10 ** 6) == 1000003


def test_poly_roots_vs_brute(rng):
    for _ in range(120):
        p = rng.choice([2, 3, 5, 7, 11, 13, 101, 1009])
        d = rng.randint(1, 6)
        f = [rng.randrange(p) for _ in range(d + 1)]
        if all(c % p == 0 for c in f):
            f[-1] = 1
        got = pure.poly_roots(f, p)
        want = sorted(z for z in range(p) if pure._poly_eval(f, z, p) == 0)
        assert got == want
    # degree 1, below and above the brute-force bound of 512: the one root
    for p in (101, 1009, 13829):
        for _ in range(40):
            f = [rng.randrange(p), rng.randrange(1, p)]
            if rng.random() < 0.5:
                f += [0] * rng.randint(1, 4)     # zero top coefficients
            want = [z for z in range(p) if pure._poly_eval(f, z, p) == 0]
            assert pure.poly_roots(f, p) == want
            assert len(want) == 1


def _values(c, q, d):
    """f_c(0), ..., f_c(q - 1) for the polynomial f_c whose coefficients
    are the d + 1 base-q digits of c."""
    digits = [(c // q ** i) % q for i in range(d + 1)]
    return [sum(a * z ** i for i, a in enumerate(digits)) % q
            for z in range(q)]


def _brute_agreements(eu, ev, colors, q, d):
    out = []
    for u, v in zip(eu, ev):
        if colors[u] == colors[v]:
            out.append(None)
            continue
        fu = _values(colors[u], q, d)
        fv = _values(colors[v], q, d)
        out.append([z for z in range(q) if fu[z] == fv[z]])
    return out


def test_edge_agreements_vs_brute(rng):
    for q, d, span in ((29, 2, 29 ** 2), (109, 9, 3300), (13, 3, 13 ** 4),
                       (101, 1, 101 ** 2)):
        n = 30
        colors = [rng.randrange(span) for _ in range(n)]
        colors[1] = colors[0]                   # one monochromatic edge
        eu = [0] + [rng.randrange(n) for _ in range(60)]
        ev = [1] + [rng.randrange(n) for _ in range(60)]
        cache = {}
        got = pure.edge_agreements(eu, ev, colors, q, d, cache)
        assert got == _brute_agreements(eu, ev, colors, q, d)
        # a second walk reads the cache and returns the same positions
        assert pure.edge_agreements(eu, ev, colors, q, d, cache) == got


def test_closed_form_pairs_are_not_cached(rng):
    """Pairs whose digits differ only in the lowest one or two are settled
    without the cache: a walk over such pairs only leaves it empty."""
    for q, d in ((29, 2), (109, 9), (13, 3), (101, 1)):
        n = 30
        high = rng.randrange(q ** (d + 1) // (q * q)) * q * q
        colors = [high + rng.randrange(q * q) for _ in range(n // 2)]
        # half of them differ from an earlier color in the lowest digit only
        for _ in range(n - n // 2):
            c = rng.choice(colors)
            colors.append(c - c % q + rng.randrange(q))
        eu = [rng.randrange(n) for _ in range(60)]
        ev = [rng.randrange(n) for _ in range(60)]
        cache = {}
        got = pure.edge_agreements(eu, ev, colors, q, d, cache)
        assert cache == {}
        assert got == _brute_agreements(eu, ev, colors, q, d)
        assert any(got) and [] in got


def test_poly_roots_large_prime():
    p = 999999937
    roots = pure.poly_roots([3, 0, 1], p)   # x^2 + 3
    for z in roots:
        assert (z * z + 3) % p == 0


def test_defective_plan_budget():
    for dd in (2, 8, 64, 2304):
        plan = pure.plan_defective_schedule(1 << 64, 1, dd)
        assert sum(bn / bd for (_q, _d, bn, bd) in plan) <= 1 / dd + 1e-12
        for (q, d, bn, bd) in plan:
            assert pure.is_prime(q)
            assert d * bd <= q * bn     # d/q <= budget


def test_reduction_properties(rng):
    for _ in range(15):
        nv = rng.randint(1, 30)
        m = rng.randint(0, 3 * nv)
        eu, ev = [], []
        for _ in range(m):
            if nv < 2:
                break
            a, b = rng.sample(range(nv), 2)
            eu.append(a)
            ev.append(b)
        m = len(eu)
        mgr = [-1] * m
        w = [rng.randint(0, 9) for _ in range(m)]
        nodew = [0] * nv
        c1 = rng.randint(1, 200)
        colors = [rng.randrange(c1) for _ in range(nv)]
        out, p, last = pure.reduce_colors_by_orderings(
            nv, eu, ev, mgr, w, nodew, colors, c1, 1, 16, False)
        assert all(0 <= c < p for c in out)
        assert p * (p - 1) >= c1
        assert last < p
        # average defect: committed-conflict accounting implies the bound
        tot = [0] * nv
        mono = [0] * nv
        for e in range(m):
            tot[eu[e]] += w[e]
            tot[ev[e]] += w[e]
            if out[eu[e]] == out[ev[e]] and colors[eu[e]] != colors[ev[e]]:
                mono[eu[e]] += w[e]
                mono[ev[e]] += w[e]
        assert 16 * sum(mono) <= 2 * 1 * sum(tot) * 2


def _reference_reduce(nv, eu, ev, mgr, w, nodew, colors, ncolors,
                     thr_num, thr_den, factor2):
    """Reference: the event-driven ordering reduction run over every node
    from step 0, with zero-weight edges left out of the pending weights."""
    lo = max(2 * thr_den // thr_num + 1,
             (1 + math.isqrt(4 * ncolors + 1)) // 2)
    p = pure.next_prime(lo)
    while p * (p - 1) < ncolors:
        p = pure.next_prime(p + 1)
    aa = [1 + c // p for c in colors]
    bb = [c % p for c in colors]
    wtot = list(nodew)
    adj = [[] for _ in range(nv)]
    for e in range(len(eu)):
        u, v, we = eu[e], ev[e], w[e]
        wtot[u] += we
        wtot[v] += we
        if aa[u] == aa[v] and bb[u] == bb[v]:
            continue
        if aa[u] != aa[v]:
            i_star = ((bb[v] - bb[u]) * pow(aa[u] - aa[v], -1, p)) % p
        else:
            i_star = -1
        adj[u].append((v, we, i_star, mgr[e]))
        adj[v].append((u, we, i_star, mgr[e]))
    ainv = [pow(aa[v], -1, p) if adj[v] else 0 for v in range(nv)]
    pend = [None] * nv
    for v in range(nv):
        for (_u, we, i_star, man) in adj[v]:
            if i_star < 0 or not we:
                continue
            d_ = pend[v]
            if d_ is None:
                d_ = pend[v] = {}
            slot = d_.setdefault(i_star, {})
            key = man if (factor2 and man >= 0) else -1
            slot[key] = slot.get(key, 0) + we

    def estimate(v, step):
        d_ = pend[v]
        if not d_ or step not in d_:
            return 0
        tot = 0
        for key, val in d_[step].items():
            tot += pure.pow2_floor(val) if (factor2 and key >= 0) else val
        return tot

    def clear(v, step):
        if wtot[v] == 0:
            return True
        return estimate(v, step) * thr_den < thr_num * wtot[v]

    def next_clear(v, after):
        s = after + 1
        if pend[v]:
            while s < p and not clear(v, s):
                s += 1
        return s

    committed = [-1] * nv
    heap = []
    for v in range(nv):
        heapq.heappush(heap, (next_clear(v, -1), v))
    out = [0] * nv
    last_step = 0
    while heap:
        step = heap[0][0]
        if step >= p:
            raise AssertionError("ordering reduction did not commit all nodes")
        batch = []
        while heap and heap[0][0] == step:
            _s, v = heapq.heappop(heap)
            if committed[v] >= 0:
                continue
            if clear(v, step):
                committed[v] = step
                batch.append(v)
            else:
                heapq.heappush(heap, (next_clear(v, step), v))
        if not batch:
            continue
        last_step = step
        repush = set()
        for v in batch:
            out[v] = (aa[v] * step + bb[v]) % p
        for v in batch:
            chi = out[v]
            for (u, we, i_star, man) in adj[v]:
                if committed[u] >= 0 or not we:
                    continue
                du = pend[u]
                key = man if (factor2 and man >= 0) else -1
                if i_star > step and du is not None and i_star in du:
                    slot = du[i_star]
                    slot[key] = slot[key] - we
                    if slot[key] == 0:
                        del slot[key]
                        if not slot:
                            del du[i_star]
                    repush.add(u)
                i2 = ((chi - bb[u]) * ainv[u]) % p
                if i2 > step:
                    if du is None:
                        du = pend[u] = {}
                    slot = du.setdefault(i2, {})
                    slot[key] = slot.get(key, 0) + we
        for u in sorted(repush):
            if committed[u] < 0:
                heapq.heappush(heap, (next_clear(u, step), u))
    return out, p, last_step


def _random_reduction_instance(rng):
    """Small palettes with colors bunched modulo the prime, so that many
    nodes miss step 0; thresholds 1/2..1/64, both factor-2 settings,
    managers, zero edge weights and node weights."""
    nv = rng.randint(1, 24)
    thr_den = rng.choice((2, 3, 4, 8, 16, 32, 64))
    p0 = pure.next_prime(2 * thr_den + 1)
    ncolors = rng.randint(1, p0 * (p0 - 1) + rng.choice((0, 0, 40)))
    few = rng.choice((2, 3, p0 + 2, ncolors))
    colors = [(rng.randrange(ncolors) % few + p0 * rng.randrange(3)) % ncolors
              for _ in range(nv)]
    m = rng.randint(0, 6 * nv) if nv > 1 else 0
    eu, ev, mgr, w = [], [], [], []
    for _ in range(m):
        a, b = rng.sample(range(nv), 2)
        eu.append(a)
        ev.append(b)
        mgr.append(rng.choice((-1, -1, rng.randrange(nv), rng.randrange(nv))))
        w.append(rng.choice((0, 1, rng.randint(1, 9), rng.randint(1, 1000))))
    nodew = [rng.choice((0, 0, 0, rng.randint(1, 20))) for _ in range(nv)]
    return (nv, eu, ev, mgr, w, nodew, colors, ncolors, 1, thr_den,
            rng.random() < 0.5)


def test_reduction_matches_event_driven_reference(rng):
    """The step-0 pass plus the event loop over the late nodes gives the
    colors, prime and last commit step of the all-node event loop."""
    late = 0
    trials = 3000
    for _ in range(trials):
        args = _random_reduction_instance(rng)
        want = _reference_reduce(*args)
        assert pure.reduce_colors_by_orderings(*args) == want, args
        late += want[2] > 0
    assert 5 * late >= trials


def test_backend_reports():
    assert BACKEND == "pure"


def test_file_rows_checks_moved_rows():
    """Rows over 2^3 that a step at unit 2 moved are filed under their
    lowest set bit, one-hot rows left out; a row that still holds bit 2,
    holds a negative entry or sums to another total is rejected."""
    lam = [[4, 4], [8, 0], [2, 6], [0, 8]]
    assert pure.file_rows(lam, [0, 1, 3], 2, 8, {}) == {4: [0]}
    assert pure.file_rows(lam, range(4), 0, 8, {4: [5]}) == {4: [5, 0],
                                                            2: [2]}
    cases = [([2, 6], "holds bit 2"), ([12, -4], "negative"),
             ([4, 8], "sum")]
    for row, msg in cases:
        with pytest.raises(AssertionError, match=msg):
            pure.file_rows([[4, 4], row], [0, 1], 2, 8, {})


def _random_tables(rng, L, m, kinds):
    """m flat L*L (utility, cost) table pairs, each of a kind drawn from
    ``kinds``: "sparse" has mostly zero entries, "zero" is all zero,
    "utility" and "cost" have entries in one table only, "dense" has
    entries everywhere; equal pairs repeat."""
    ut, ct = [], []
    for _ in range(m):
        if ut and rng.random() < 0.2:
            j = rng.randrange(len(ut))
            ut.append(ut[j])
            ct.append(ct[j])
            continue
        kind = rng.choice(kinds)

        def row(on):
            if not on:
                return (0,) * (L * L)
            hit = 0.3 if kind == "sparse" else 1.0
            return tuple(rng.randint(1, 40) if rng.random() < hit else 0
                         for _ in range(L * L))

        ut.append(row(kind in ("sparse", "dense", "utility")))
        ct.append(row(kind in ("sparse", "dense", "cost")))
    return ut, ct


def _random_lam(rng, n, L, k):
    lam = []
    for _v in range(n):
        cuts = sorted(rng.randint(0, 1 << k) for _ in range(L - 1))
        lam.append([b - a for a, b in zip([0] + cuts, cuts + [1 << k])])
    return lam


def _multigraph_trials(rng):
    """Random multigraphs with parallel edges under different managers,
    every table kind (all zero on every fifth trial), node tables on odd
    trials and quantized estimates on every third trial."""
    kinds = ("sparse", "zero", "utility", "cost", "dense")
    for trial in range(150):
        n = rng.randint(2, 12)
        L = rng.choice([2, 3, 4])
        eu, ev, mgr = [], [], []
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(range(n), 2)
            for man in rng.sample([-1] + list(range(n)), rng.choice([1, 1, 3])):
                eu.append(u)
                ev.append(v)
                mgr.append(man)
        ut, ct = _random_tables(rng, L, len(eu),
                                kinds if trial % 5 else ("zero",))
        nut = nct = None
        if trial % 2:
            nut = [tuple(rng.randint(0, 9) for _ in range(L))
                   if rng.random() < 0.6 else None for _ in range(n)]
            nct = [tuple(rng.randint(0, 9) for _ in range(L))
                   if rng.random() < 0.6 else None for _ in range(n)]
        k = rng.randint(1, 7)
        lam = _random_lam(rng, n, L, k)
        en, ed = rng.randint(1, 9), rng.randint(1, 8)
        colors = [rng.randrange(4) for _ in range(n)]
        dn, dd = rng.randint(1, 3), rng.randint(3, 100)
        yield (n, L, eu, ev, mgr, ut, ct, nut, nct, lam, k, colors, dn, dd,
               en, ed, trial % 3 == 2)


def _aligned_trials(rng):
    """Two labels, random endpoints and managers, dense tables, and
    quantized estimates on a third of the trials, drawn at random."""
    for _trial in range(60):
        n = rng.randint(2, 15)
        m = rng.randint(0, 3 * n)
        eu = [rng.randrange(n) for _ in range(m)]
        ev = []
        for e in range(m):
            x = rng.randrange(n)
            while x == eu[e]:
                x = rng.randrange(n)
            ev.append(x)
        mgr = [rng.choice([-1, rng.randrange(n)]) for _ in range(m)]
        k = rng.randint(1, 7)
        tot = 1 << k
        ut = [tuple(rng.randint(0, 40) for _ in range(4)) for _ in range(m)]
        ct = [tuple(rng.randint(0, 40) for _ in range(4)) for _ in range(m)]
        lam = []
        for _v in range(n):
            a = rng.randint(0, tot)
            lam.append([a, tot - a])
        colors = [rng.randrange(4) for _ in range(n)]
        dn, dd = 1, rng.randint(1, 100)
        en, ed = rng.randint(1, 9), rng.randint(1, 8)
        yield (n, 2, eu, ev, mgr, ut, ct, None, None, lam, k, colors, dn, dd,
               en, ed, rng.choice([0, 1, 2]) == 2)


def _overflow_trials():
    """One edge whose values leave the range of 64-bit machine integers: a
    table entry of 2^63 or more, ten odd labels at one node, and label
    values at 2^-60."""
    for L, ut, lam, k in (
            (2, (1 << 63, 5, 7, (1 << 63) + 3), [[1, 3], [3, 1]], 2),
            (10, tuple(range(100)), [[1] * 9 + [7]] * 2, 4),
            (2, (3, 5, 7, 11), [[1, (1 << 60) - 1], [(1 << 60) - 3, 3]], 60)):
        yield (2, L, [0], [1], [-1], [ut], [(0,) * (L * L)],
               [tuple(range(L)), None], [None, (1,) * L], lam, k, [0, 1],
               1, 4, 3, 2, False)


def kernel_digest():
    """sha256 over the three table kernels' outputs and ``lam`` after the
    color loop, on every trial."""
    h = hashlib.sha256()
    trials = itertools.chain(_multigraph_trials(random.Random(0xC0FFEE)),
                             _aligned_trials(random.Random(0xC0FFEE)),
                             _overflow_trials())
    for (n, L, eu, ev, mgr, ut, ct, nut, nct, lam, k, colors, dn, dd,
         en, ed, quantized) in trials:
        lam = [list(r) for r in lam]
        tables = pure.pack_tables(n, L, eu, ev, mgr, ut, ct, nut, nct)
        out = [pure.eval_potential(tables, lam, 1 << k),
               pure.edge_weights_for_step(tables, lam, k, en, ed),
               pure.rounding_color_loop(tables, lam, k, colors, dn, dd, en,
                                        ed, quantized, 1, range(n)),
               lam]
        h.update(json.dumps(out).encode())
    return h.hexdigest()


def test_table_kernel_outputs_are_pinned():
    """The digest was taken when a compiled C implementation of these
    kernels gave the same outputs on every trial, including the ones whose
    values leave the range of 64-bit integers."""
    assert kernel_digest() == KERNEL_DIGEST


def test_color_loop_on_a_frontier_matches_the_full_loop():
    """Rows scaled by 2^s and rounded at unit 2^s, visiting only the rows
    that hold that bit in the order given, move exactly as the full loop
    moves the unscaled rows, scaled, with the same (max_qbits, touched)."""
    trials = itertools.chain(_multigraph_trials(random.Random(5)),
                             _aligned_trials(random.Random(5)))
    for (n, L, eu, ev, mgr, ut, ct, nut, nct, lam, k, colors, dn, dd,
         en, ed, quantized) in trials:
        tables = pure.pack_tables(n, L, eu, ev, mgr, ut, ct, nut, nct)
        want_lam = [list(r) for r in lam]
        want = pure.rounding_color_loop(tables, want_lam, k, colors, dn, dd,
                                        en, ed, quantized, 1, range(n))
        for s in (1, 3):
            got_lam = [[x << s for x in r] for r in lam]
            rows = [v for v in reversed(range(n))
                    if any(x >> s & 1 for x in got_lam[v])]
            got = pure.rounding_color_loop(tables, got_lam, k + s, colors,
                                           dn, dd, en, ed, quantized, 1 << s,
                                           rows)
            assert got == want
            assert got_lam == [[x << s for x in r] for r in want_lam]


def test_table_kernels_match_the_dense_sums():
    """``eval_potential`` and ``edge_weights_for_step`` against the plain
    L x L double sum over every edge and the L-term sum over every node,
    for L in {2, 3}, rows over D and node terms at scale D, D not always a
    power of two."""
    rng = random.Random(28)
    kinds = ("sparse", "zero", "utility", "cost", "dense")
    seen = {"several": 0, "bare_node": 0, "odd_scale": 0}
    for trial in range(80):
        L = 2 + trial % 2
        n = rng.randint(2, 10)
        eu, ev = [], []
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(range(n), 2)
            eu.append(u)
            ev.append(v)
        ut, ct = _random_tables(rng, L, len(eu), kinds)
        nut = nct = None
        if trial % 3:
            nut = [tuple(rng.randint(0, 9) for _ in range(L))
                   if rng.random() < 0.6 else None for _ in range(n)]
            nct = [tuple(rng.randint(0, 9) for _ in range(L))
                   if rng.random() < 0.6 else None for _ in range(n)]
        D = rng.choice([1, 3, 6, 8, 12, 1 << 40])
        lam = []
        for _v in range(n):
            cuts = sorted(rng.randint(0, D) for _ in range(L - 1))
            lam.append([b - a for a, b in zip([0] + cuts, cuts + [D])])
        k = rng.randint(0, 5)
        en, ed = rng.randint(1, 9), rng.randint(1, 8)
        tables = pure.pack_tables(n, L, eu, ev, [-1] * len(eu), ut, ct,
                                  nut, nct)

        def edge(e, t):
            return sum(lam[eu[e]][a] * lam[ev[e]][b] * t[e][a * L + b]
                       for a in range(L) for b in range(L))

        def node(v, t):
            return (0 if t is None or t[v] is None
                    else sum(lam[v][a] * t[v][a] for a in range(L)))

        want_u = (sum(edge(e, ut) for e in range(len(eu)))
                  + D * sum(node(v, nut) for v in range(n)))
        want_c = (sum(edge(e, ct) for e in range(len(eu)))
                  + D * sum(node(v, nct) for v in range(n)))
        assert pure.eval_potential(tables, lam, D) == (want_u, want_c)
        w, nodew = pure.edge_weights_for_step(tables, lam, k, en, ed)
        assert w == [ed * edge(e, ut) + en * edge(e, ct)
                     for e in range(len(eu))]
        assert nodew == [(ed * node(v, nut) + en * node(v, nct)) << k
                         for v in range(n)]
        seen["several"] += sum(
            sum(1 for x, y in zip(ut[e], ct[e]) if x or y) > 1
            for e in range(len(eu)))
        seen["bare_node"] += sum(nut is None or nut[v] is None
                                 for v in range(n))
        seen["odd_scale"] += D & (D - 1) != 0
    assert min(seen.values()) > 20, seen


def test_pack_tables_keeps_nonzero_entries():
    ut = [(0, 0, 0, 5), (0, 0, 0, 5), (0, 0, 0, 0), (2, 0, 0, 0)]
    ct = [(0, 0, 0, 7), (0, 0, 0, 7), (0, 0, 0, 0), (0, 3, 0, 0)]
    t = pure.pack_tables(3, 2, [0, 1, 0, 2], [1, 2, 2, 0], [-1, 0, 1, -1],
                         ut, ct, [(0, 4), None, (0, 0)], [None, (2, 2), None])
    # the nonzero entries as parallel columns, edge by edge
    assert (t.eid, t.eu, t.ev, t.ea, t.eb, t.ex, t.ey) == (
        [0, 1, 3, 3], [0, 1, 2, 2], [1, 2, 0, 0], [1, 1, 0, 0], [1, 1, 0, 1],
        [5, 5, 2, 0], [7, 7, 0, 3])
    assert (t.nv, t.m, t.L) == (3, 4, 2)
    # one column per label, None where all zero, and the label differences
    assert t.node_u == [None, [4, 0, 0]] and t.dnu == [4, 0, 0]
    assert t.node_c == [[0, 2, 0], [0, 2, 0]] and t.dnc is None
    # flat (other, manager, b, utility, cost) quintuples per (node, label)
    assert t.inc == [[2, -1, 0, 2, 0],
                     [1, -1, 1, 5, 7, 2, -1, 0, 0, 3],
                     (),
                     [0, -1, 1, 5, 7, 2, 0, 1, 5, 7],
                     [0, -1, 0, 2, 0, 0, -1, 1, 0, 3],
                     [1, 0, 1, 5, 7]]
    assert t.managed
    # a manager counts only on an edge with a nonzero entry
    assert not pure.pack_tables(3, 2, [0, 1, 0, 2], [1, 2, 2, 0],
                                [-1, -1, 1, -1], ut, ct, None, None).managed
    # without node tables every column is None
    t = pure.pack_tables(2, 3, [], [], [], [], [], None, None)
    assert (t.node_u, t.node_c, t.dnu, t.dnc) == ([None] * 3, [None] * 3,
                                                  None, None)
