"""Pure-Python integer kernels for the rounding and coloring inner loops.

Everything in here works on dense node indices and plain Python integers.
Fractional label values are numerators over a common power-of-two
denominator, and utility/cost tables are pre-scaled to integers by the
caller, so all hot-loop arithmetic is exact integer arithmetic.  The
compiled extension (``locround._kernel._core``) implements the same
functions with C integers and falls back to this module per call when its
magnitude bounds would overflow.

Multigraphs are passed as parallel edge arrays ``eu``, ``ev`` (endpoint
node indices), ``mgr`` (manager node index for virtual edges, -1 for
physical edges) plus optional per-node weights for node-level valuation
terms (the dummy-edge reduction).

The three table kernels (``eval_potential``, ``edge_weights_for_step``,
``rounding_color_loop``) take the edge tables as ``pack_tables`` returns
them, packed once per multigraph and valuation.  The packing keeps only
the nonzero entries of each edge's L*L utility and cost tables, interned
so that edges with equal tables share them, plus per-node incidence lists
grouped by the node's own label.  In every algorithm here an edge has one
nonzero entry, so the kernels do one product per edge, not L*L, and a
label without an entry costs nothing.  Only zero terms are skipped, so
the results are those of the dense sums.
"""

from __future__ import annotations

import functools
import heapq
import math

# ---------------------------------------------------------------------------
# primes and polynomial arithmetic over F_p
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for n < 3.3e24
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    """Smallest prime >= n."""
    if n <= 2:
        return 2
    if n % 2 == 0:
        n += 1
    while not is_prime(n):
        n += 2
    return n


def _poly_trim(f, p):
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mulmod(a, b, g, p):
    # a*b mod g, all coefficient lists low->high, g monic
    n = len(a) + len(b) - 1
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    dg = len(g) - 1
    for i in range(n - 1, dg - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(dg):
                out[i - dg + j] = (out[i - dg + j] - c * g[j]) % p
    del out[dg:]
    return _poly_trim(out, p)


def _poly_powmod(base, e, g, p):
    result = [1]
    base = _poly_trim(base, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, g, p)
        base = _poly_mulmod(base, base, g, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a = _poly_trim(a, p)
    b = _poly_trim(b, p)
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        r = list(a)
        while len(r) >= len(bm) and r:
            c = r[-1]
            if c:
                off = len(r) - len(bm)
                for j in range(len(bm)):
                    r[off + j] = (r[off + j] - c * bm[j]) % p
            r = _poly_trim(r, p)
            if not r:
                break
        a, b = bm, _poly_trim(r, p)
    return _poly_trim(a, p)


def poly_roots(f, p):
    """Sorted distinct roots in F_p of the polynomial with coefficients f.

    Deterministic: splitting elements are tried in the fixed order
    a = 0, 1, 2, ...
    """
    f = _poly_trim(f, p)
    if not f:
        raise ValueError("zero polynomial has every root")
    if len(f) == 1:
        return []
    if p <= 512 or len(f) - 1 >= p:
        return [z for z in range(p) if _poly_eval(f, z, p) == 0]
    # monic
    inv = pow(f[-1], p - 2, p)
    f = [(c * inv) % p for c in f]
    # radical part containing exactly the distinct roots: gcd(f, x^p - x)
    xp = _poly_powmod([0, 1], p, f, p)
    xp_minus_x = list(xp)
    while len(xp_minus_x) < 2:
        xp_minus_x.append(0)
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    g = _poly_gcd(f, xp_minus_x, p)
    roots = []
    _split_roots(g, p, roots)
    roots.sort()
    return roots


def _poly_eval(f, z, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * z + c) % p
    return acc


def _split_roots(g, p, out):
    g = _poly_trim(g, p)
    if len(g) <= 1:
        return
    inv = pow(g[-1], p - 2, p)
    g = [(c * inv) % p for c in g]
    if len(g) == 2:
        out.append((-g[0]) % p)
        return
    half = (p - 1) // 2
    for a in range(4096):
        h = _poly_powmod([a, 1], half, g, p)
        h = list(h) + [0] * (1 - len(h)) if not h else list(h)
        h[0] = (h[0] - 1) % p
        d = _poly_gcd(g, h, p)
        if 0 < len(d) - 1 < len(g) - 1:
            _split_roots(d, p, out)
            # g / d
            quot = _poly_divexact(g, d, p)
            _split_roots(quot, p, out)
            return
        # also try splitting off the root -a directly
        if _poly_eval(g, (-a) % p, p) == 0:
            out.append((-a) % p)
            quot = _poly_divexact(g, [a, 1], p)
            _split_roots(quot, p, out)
            return
    raise RuntimeError("root splitting did not converge")


def _poly_divexact(a, b, p):
    a = list(a)
    binv = pow(b[-1], p - 2, p)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = (a[i] * binv) % p
        q[i - (len(b) - 1)] = c
        if c:
            off = i - (len(b) - 1)
            for j in range(len(b)):
                a[off + j] = (a[off + j] - c * b[j]) % p
    return _poly_trim(q, p)


# ---------------------------------------------------------------------------
# Reed-Solomon candidate-set schedules
# ---------------------------------------------------------------------------


def _choose_prime_degree(ncolors, min_ratio_num, min_ratio_den, max_d=12):
    """Smallest-palette (q, d) with q prime, q^(d+1) >= ncolors and
    d/q <= min_ratio_num/min_ratio_den (candidate-set intersection over size).
    """
    best = None
    for d in range(1, max_d + 1):
        # q >= d * den / num, exact ceiling
        qlo = -(-d * min_ratio_den // min_ratio_num)
        q = max(2, qlo, _iroot_ceil(ncolors, d + 1))
        q = next_prime(q)
        while q ** (d + 1) < ncolors:
            q = next_prime(q + 1)
        if best is None or q * q < best[0] * best[0]:
            best = (q, d)
    return best


def _iroot_ceil(n, k):
    if n <= 1:
        return 1
    r = int(round(n ** (1.0 / k)))
    while r ** k >= n:
        r -= 1
    while r ** k < n:
        r += 1
    return r


@functools.lru_cache(maxsize=1024)
def plan_defective_schedule(ncolors0, delta_num, delta_den):
    """Schedule of (q, d) Reed-Solomon steps for a weighted per-node
    delta-relative defective coloring starting from ``ncolors0`` colors.

    Budget split follows the s_i = 2^(t-i+1)/delta schedule with the extra
    coarse step 0 at s_0 = 4/delta; the returned per-step conflict budgets
    b_j satisfy sum_j b_j <= delta.  Memoized, so the plan is a tuple.
    """
    for t in range(1, 16):
        budgets = [(delta_num, 4 * delta_den)]
        budgets += [(delta_num, delta_den * (1 << (t - i + 3))) for i in range(1, t + 1)]
        plan = []
        n = ncolors0
        for bn, bd in budgets:
            q, d = _choose_prime_degree(n, bn, bd)
            plan.append((q, d, bn, bd))
            n = q * q
        # converged when one more step at the coarsest budget cannot shrink
        q2, _ = _choose_prime_degree(n, delta_num, 8 * delta_den)
        if q2 * q2 >= n:
            # drop trailing steps that stopped shrinking the palette
            while len(plan) > 1:
                q, d, _, _ = plan[-1]
                prev_n = plan[-2][0] ** 2 if len(plan) >= 2 else ncolors0
                if q * q >= prev_n:
                    plan.pop()
                else:
                    break
            return tuple(plan)
    return tuple(plan)


@functools.lru_cache(maxsize=1024)
def plan_proper_schedule(ncolors0, max_edge_degree):
    """Schedule of (q, d) steps for a proper Linial-style coloring.
    Memoized, so the plan is a tuple."""
    dd = max(1, max_edge_degree)
    plan = []
    n = ncolors0
    for _ in range(20):
        best = None
        for d in range(1, 13):
            q = max(2, dd * d + 1, _iroot_ceil(n, d + 1))
            q = next_prime(q)
            while q ** (d + 1) < n:
                q = next_prime(q + 1)
            if best is None or q * q < best[0] * best[0]:
                best = (q, d)
        q, d = best
        if q * q >= n and plan:
            break
        plan.append((q, d))
        if q * q >= n:
            break
        n = q * q
    return tuple(plan)


def _digits(c, q, d):
    out = []
    for _ in range(d + 1):
        out.append(c % q)
        c //= q
    return out


def pow2_floor(x):
    return 0 if x <= 0 else 1 << (x.bit_length() - 1)


def edge_agreements(eu, ev, colors, q, d, cache):
    """Per-edge sorted agreement positions {z : f_u(z) == f_v(z) mod q} of
    the degree-d polynomials whose base-q digits are the endpoint colors.

    Monochromatic edges get None.  ``cache`` maps a color pair to its
    positions, and may be shared by every coloring with the same (q, d).
    """
    out = []
    for u, v in zip(eu, ev):
        cu = colors[u]
        cv = colors[v]
        if cu == cv:
            out.append(None)
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        hit = cache.get(key)
        if hit is None:
            pu = _digits(key[0], q, d)
            pv = _digits(key[1], q, d)
            hit = cache[key] = poly_roots(
                [(a - b) % q for a, b in zip(pu, pv)], q)
        out.append(hit)
    return out


def rs_defective_step(nv, eu, ev, mgr, w, nodew, colors, q, d, factor2,
                      agree):
    """One candidate-set defective-coloring step; returns new colors in
    [0, q*q) and the max conflict-estimate bit length (for accounting).

    ``agree`` is ``edge_agreements`` of ``colors`` at (q, d).  Each node
    picks the candidate (z, f(z)) minimizing the (estimated) weight of
    bichromatic edges to neighbors whose candidate set contains the same
    pair, ties toward the smallest resulting color index.
    """
    conf = [None] * nv      # z -> exact physical weight
    confm = [None] * nv if factor2 else None   # (z, mgr) -> weight
    for u, v, man, we, zs in zip(eu, ev, mgr, w, agree):
        if not zs:
            continue
        for node in (u, v):
            if factor2 and man >= 0:
                dd_ = confm[node]
                if dd_ is None:
                    dd_ = confm[node] = {}
                for z in zs:
                    kz = (z, man)
                    dd_[kz] = dd_.get(kz, 0) + we
            else:
                dd_ = conf[node]
                if dd_ is None:
                    dd_ = conf[node] = {}
                for z in zs:
                    dd_[z] = dd_.get(z, 0) + we
    new_colors = [0] * nv
    maxbits = 1
    for v in range(nv):
        if not conf[v] and not (factor2 and confm[v]):
            new_colors[v] = colors[v] % q     # z = 0, no conflict
            continue
        est = dict(conf[v]) if conf[v] else {}
        if factor2 and confm[v]:
            for (z, _man), tot in confm[v].items():
                r = pow2_floor(tot)
                if r:
                    est[z] = est.get(z, 0) + r
                    if r.bit_length() > maxbits:
                        maxbits = r.bit_length()
        fv = _digits(colors[v], q, d)
        best = None
        z0 = 0
        while z0 in est:
            z0 += 1
        if z0 < q:
            best = (0, z0 * q + _poly_eval(fv, z0, q))
        for z, wt in est.items():
            cand = (wt, z * q + _poly_eval(fv, z, q))
            if best is None or cand < best:
                best = cand
        new_colors[v] = best[1]
    return new_colors, maxbits


def rs_proper_step(nv, eu, ev, colors, q, d, agree):
    """One conflict-free Linial step; requires q > d * edge-degree.
    ``agree`` is ``edge_agreements`` of ``colors`` at (q, d)."""
    blocked = [None] * nv
    for u, v, zs in zip(eu, ev, agree):
        if not zs:
            continue
        for node in (u, v):
            s = blocked[node]
            if s is None:
                s = blocked[node] = set()
            s.update(zs)
    new_colors = [0] * nv
    for v in range(nv):
        s = blocked[v]
        if not s:
            new_colors[v] = colors[v] % q     # z = 0
            continue
        z = 0
        while z in s:
            z += 1
        if z >= q:
            raise AssertionError("no free candidate color; palette too small")
        new_colors[v] = z * q + _poly_eval(_digits(colors[v], q, d), z, q)
    return new_colors


# ---------------------------------------------------------------------------
# ordering-based color reduction (commit-if-conflict-small passes)
# ---------------------------------------------------------------------------


def reduce_colors_by_orderings(nv, eu, ev, mgr, w, nodew, colors, ncolors,
                               thr_num, thr_den, factor2):
    """Reduce a C-coloring to p colors over p steps, p prime.

    Every stage-one color c < p*(p-1) is mapped to the color sequence
    z_v(i) = (1 + c // p) * i + (c % p) mod p.  In step i an uncommitted
    node takes color z_v(i) iff the (estimated) weight of its
    stage-one-bichromatic edges to neighbors committed to or currently
    trying z_v(i) is < (thr_num/thr_den) of its total incident weight:
    each node commits at the first step where its final pending weight is
    clear.  Zero-weight edges add 0 to every estimate and are skipped.

    Step 0 is settled in one linear pass.  There z_v(0) = c % p, so an
    edge blocks it exactly when its endpoints share c % p, and every node
    clear at step 0 commits to c % p.  Sequence slopes, adjacency, pending
    weights and the event heap are built only for the nodes left (the
    late nodes), and the event loop runs steps 1..p-1 over them.  Total
    work is near-linear in the edge count, while the declared round count
    stays p steps.

    Returns (colors in [0, p), p, last_commit_step).
    """
    # blocked steps per node <= 2 / thr, need strictly more steps than that;
    # also p * (p - 1) >= ncolors so distinct colors get distinct orderings
    lo = max(2 * thr_den // thr_num + 1,
             (1 + math.isqrt(4 * ncolors + 1)) // 2)
    p = next_prime(lo)
    while p * (p - 1) < ncolors:
        p = next_prime(p + 1)

    # step 0; out[v] holds z_v(0) = c % p until v commits
    out = [c % p for c in colors]
    wtot = list(nodew)
    est = [0] * nv          # step-0 weight, managed edges under factor2 apart
    managed = {}            # (node, manager) -> step-0 weight under factor2
    for u, v, man, we in zip(eu, ev, mgr, w):
        wtot[u] += we
        wtot[v] += we
        if we and out[u] == out[v] and colors[u] != colors[v]:
            if factor2 and man >= 0:
                managed[u, man] = managed.get((u, man), 0) + we
                managed[v, man] = managed.get((v, man), 0) + we
            else:
                est[u] += we
                est[v] += we
    for (v, _man), tot in managed.items():
        est[v] += pow2_floor(tot)
    # commit rule: estimate < thr * total weight (vacuous stake commits)
    late = [v for v in range(nv)
            if wtot[v] != 0 and est[v] * thr_den >= thr_num * wtot[v]]
    if not late:
        return out, p, 0

    aa = {v: 1 + colors[v] // p for v in late}
    ainv = {v: pow(a, -1, p) for v, a in aa.items()}
    adj = {v: [] for v in late}     # (other, weight, coincide_step or -1, mgr)
    pend = {v: {} for v in late}    # step -> {-1: physical, mgr: weight}

    def add(v, step, man, we):
        slot = pend[v].setdefault(step, {})
        key = man if (factor2 and man >= 0) else -1
        slot[key] = slot.get(key, 0) + we

    for u, v, man, we in zip(eu, ev, mgr, w):
        if not we or colors[u] == colors[v]:
            continue
        if u not in aa:
            if v in aa:     # u committed at step 0 to out[u]
                i2 = ((out[u] - out[v]) * ainv[v]) % p
                if i2:
                    add(v, i2, man, we)
            continue
        if v not in aa:     # v committed at step 0 to out[v]
            i2 = ((out[v] - out[u]) * ainv[u]) % p
            if i2:
                add(u, i2, man, we)
            continue
        if aa[u] != aa[v]:
            i_star = ((out[v] - out[u]) * pow(aa[u] - aa[v], -1, p)) % p
            if i_star:      # step 0 is settled
                add(u, i_star, man, we)
                add(v, i_star, man, we)
        else:
            i_star = -1
        adj[u].append((v, we, i_star, man))
        adj[v].append((u, we, i_star, man))

    def clear(v, step):
        slot = pend[v].get(step)
        tot = 0
        if slot:
            for key, val in slot.items():
                tot += pow2_floor(val) if (factor2 and key >= 0) else val
        return tot * thr_den < thr_num * wtot[v]

    def next_clear(v, after):
        s = after + 1
        while s < p and not clear(v, s):
            s += 1
        return s

    committed = set()
    heap = [(next_clear(v, 0), v) for v in late]
    heapq.heapify(heap)

    # Pending-entry edits always target steps strictly after the step being
    # processed, so processing the heap in ascending step order sees the
    # final pending state for each step; removals re-push the affected node
    # so its earliest clear step is never overshot.
    last_step = 0
    while heap:
        step = heap[0][0]
        if step >= p:
            raise AssertionError("ordering reduction did not commit all nodes")
        batch = []
        while heap and heap[0][0] == step:
            _s, v = heapq.heappop(heap)
            if v in committed:
                continue
            if clear(v, step):
                committed.add(v)    # mark now; batch applies together
                batch.append(v)
            else:
                heapq.heappush(heap, (next_clear(v, step), v))
        if not batch:
            continue
        last_step = step
        repush = set()
        for v in batch:
            out[v] = (aa[v] * step + out[v]) % p
        for v in batch:
            chi = out[v]
            for (u, we, i_star, man) in adj[v]:
                if u in committed:
                    continue
                pu = pend[u]
                if i_star > step:
                    # every weight here is positive, so the entry is there
                    key = man if (factor2 and man >= 0) else -1
                    slot = pu[i_star]
                    left = slot[key] - we
                    if left:
                        slot[key] = left
                    else:
                        del slot[key]
                        if not slot:
                            del pu[i_star]
                    repush.add(u)
                i2 = ((chi - out[u]) * ainv[u]) % p
                if i2 > step:
                    add(u, i2, man, we)
        for u in sorted(repush):
            if u not in committed:
                heapq.heappush(heap, (next_clear(u, step), u))
    return out, p, last_step


# ---------------------------------------------------------------------------
# table packing, fractional potential and the basic rounding step
# ---------------------------------------------------------------------------


class Tables:
    """The nonzero entries of a multigraph's edge tables, packed once.

    ``entries[e]`` holds the ``(a, b, utility, cost)`` entries of edge e
    whose utility or cost is nonzero, with a the label of ``eu[e]`` and b
    the label of ``ev[e]``.  Edges with equal tables share one tuple; an
    all-zero table gives the empty tuple.  ``inc[v * L + a]`` is a flat
    list of ``other, manager, toward`` triples, one for every edge at node
    v with a nonzero entry at v's label a; ``toward`` holds those entries
    as ``(b, utility, cost)`` with b the label of ``other``.
    """

    __slots__ = ("entries", "inc")

    def __init__(self, entries, inc):
        self.entries = entries
        self.inc = inc


def pack_tables(nv, L, eu, ev, mgr, ut, ct):
    """The ``Tables`` of the flat L*L utility and cost tables ``ut[e]``,
    ``ct[e]`` of the edges ``eu[e]``-``ev[e]`` managed by ``mgr[e]``."""
    interned = {}
    entries = []
    inc = [()] * (nv * L)
    for e in range(len(eu)):
        key = (ut[e], ct[e])
        hit = interned.get(key)
        if hit is None:
            ent = tuple((i // L, i % L, x, y)
                        for i, (x, y) in enumerate(zip(*key)) if x or y)
            hit = interned[key] = (
                ent,
                [(a, tuple((b, x, y) for a_, b, x, y in ent if a_ == a))
                 for a in range(L)],
                [(b, tuple((a, x, y) for a, b_, x, y in ent if b_ == b))
                 for b in range(L)])
        ent, toward_u, toward_v = hit
        entries.append(ent)
        if not ent:
            continue
        u = eu[e]
        v = ev[e]
        for node, other, toward in ((u, v, toward_u), (v, u, toward_v)):
            for a, t in toward:
                if t:
                    i = node * L + a
                    if not inc[i]:
                        inc[i] = []
                    inc[i] += (other, mgr[e], t)
    return Tables(entries, inc)


def eval_potential(nv, L, eu, ev, tables, nut, nct, lam, k):
    """Total (utility, cost), integers at scale (table scale) * 2^(2k)."""
    U = 0
    C = 0
    for u, v, ent in zip(eu, ev, tables.entries):
        if not ent:
            continue
        lu = lam[u]
        lv = lam[v]
        for a, b, x, y in ent:
            prod = lu[a] * lv[b]
            if prod:
                U += prod * x
                C += prod * y
    if nut is not None:
        twok = 1 << k
        for v in range(nv):
            nu = nut[v]
            nc = nct[v]
            if nu is None and nc is None:
                continue
            lv = lam[v]
            for a in range(L):
                la = lv[a]
                if not la:
                    continue
                if nu is not None:
                    U += twok * la * nu[a]
                if nc is not None:
                    C += twok * la * nc[a]
    return U, C


def edge_weights_for_step(nv, L, eu, ev, tables, nut, nct, lam, k,
                          eta_num, eta_den):
    """w_e = u(e, lam) + eta * c(e, lam), integers at scale
    table * 2^(2k) * eta_den; plus per-node weights for node-level terms."""
    w = [0] * len(eu)
    for e, ent in enumerate(tables.entries):
        if not ent:
            continue
        lu = lam[eu[e]]
        lv = lam[ev[e]]
        acc_u = 0
        acc_c = 0
        for a, b, x, y in ent:
            prod = lu[a] * lv[b]
            if prod:
                acc_u += prod * x
                acc_c += prod * y
        w[e] = eta_den * acc_u + eta_num * acc_c
    nodew = [0] * nv
    if nut is not None:
        twok = 1 << k
        for v in range(nv):
            nu = nut[v]
            nc = nct[v]
            acc = 0
            if nu is not None:
                lv = lam[v]
                for a in range(L):
                    acc += eta_den * lv[a] * nu[a]
            if nc is not None:
                lv = lam[v]
                for a in range(L):
                    acc += eta_num * lv[a] * nc[a]
            nodew[v] = twok * acc
    return w, nodew


def rounding_color_loop(nv, L, eu, ev, mgr, tables, nut, nct, lam, k, colors,
                        delta_num, delta_den, eta_num, eta_den, est_mode):
    """Inner loop of the basic rounding step over the defective coloring.

    Iterates the color classes in ascending color order; inside a class,
    every node with labels at odd multiples of 2^-k splits them into equal
    halves by estimated marginal potential and moves each value by one
    unit.  Edges between nodes of one color are left out of the estimates.
    ``est_mode``: 0 exact, 1 worst-in-band (test hook), 2 quantized
    per-manager contributions (the bandwidth-saving estimator).

    Mutates ``lam`` (numerators at denominator 2^k); afterwards every value
    is even and the caller halves them.  Returns (max_qidx_bits, touched).
    """
    twok = 1 << k
    inc = tables.inc
    classes = {}
    for v in range(nv):
        classes.setdefault(colors[v], []).append(v)
    sixdd = 6 * delta_den
    max_qbits = 1
    touched = 0
    for gamma in sorted(classes):
        for v in classes[gamma]:
            lamv = lam[v]
            sv = [a for a in range(L) if lamv[a] & 1]
            if not sv:
                continue
            touched += 1
            row = v * L
            nu = nc = None
            if nut is not None:
                nu = nut[v]
                nc = nct[v]
            phis = []
            for a in sv:
                # su, sc: lam-weighted utility and cost toward the other
                # endpoints, plus 2^k times the node terms; in est_mode 2
                # the managed edges' sums go per manager instead
                su = 0
                sc = 0
                per_mgr = {} if est_mode == 2 else None
                it = iter(inc[row + a])
                for u, man, toward in zip(it, it, it):
                    if colors[u] == gamma:
                        continue
                    lu = lam[u]
                    ue = 0
                    ce = 0
                    for b, x, y in toward:
                        lb = lu[b]
                        if lb:
                            ue += lb * x
                            ce += lb * y
                    if per_mgr is not None and man >= 0:
                        slot = per_mgr.get(man)
                        if slot is None:
                            per_mgr[man] = [ue, ce]
                        else:
                            slot[0] += ue
                            slot[1] += ce
                    else:
                        su += ue
                        sc += ce
                if nu is not None:
                    su += twok * nu[a]
                if nc is not None:
                    sc += twok * nc[a]
                # phi = eta_den*su - eta_num*sc and theta = eta_den*su +
                # eta_num*sc are at scale table * 2^k * eta_den, and phi6
                # at that scale times 6 * delta_den
                phi6 = sixdd * (eta_den * su - eta_num * sc)
                if est_mode == 1:
                    phi6 -= delta_num * (eta_den * su + eta_num * sc)
                # quantize each manager contribution down to its band grid
                for pu, pc in per_mgr.values() if per_mgr else ():
                    te = eta_den * pu + eta_num * pc
                    if te == 0:
                        continue
                    grid = delta_num * te
                    qidx = (sixdd * (eta_den * pu - eta_num * pc)) // grid
                    if qidx:
                        b_ = abs(qidx).bit_length()
                        if b_ > max_qbits:
                            max_qbits = b_
                    phi6 += qidx * grid
                phis.append((phi6, a))
            phis.sort(reverse=True)     # labels are distinct: no ties
            half = len(phis) // 2
            for i, (_val, a) in enumerate(phis):
                if i < half:
                    lamv[a] += 1
                else:
                    lamv[a] -= 1
    return max_qbits, touched


def halve_assignment(nv, L, lam):
    """After a rounding step all numerators are even; divide them by two."""
    for v in range(nv):
        lv = lam[v]
        for a in range(L):
            x = lv[a]
            if x & 1:
                raise AssertionError("rounding step left an odd numerator")
            lv[a] = x >> 1
