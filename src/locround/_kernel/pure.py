"""Pure-Python integer kernels for the rounding and coloring inner loops.

Everything in here works on dense node indices and plain Python integers.
Fractional label values are numerators over a common power-of-two
denominator, and utility/cost tables are pre-scaled to integers by the
caller, so all hot-loop arithmetic is exact integer arithmetic.  A
rounding schedule keeps that denominator fixed: its step at a coarser
denominator rounds the entries holding one bit (``unit``), and
``file_rows`` files the rows by their lowest set bit so that the color
loop visits only the rows holding the step's bit.

Multigraphs are passed as parallel edge arrays ``eu``, ``ev`` (endpoint
node indices), ``mgr`` (manager node index for virtual edges, -1 for
physical edges) plus optional per-node weights for node-level valuation
terms (the dummy-edge reduction).

The three table kernels (``eval_potential``, ``edge_weights_for_step``,
``rounding_color_loop``) take the tables as ``pack_tables`` returns them,
packed once per multigraph and valuation.  The nonzero entries of the edge
tables are one flat run of parallel columns (edge id, both ends, both
labels, utility, cost), so the potential and the edge weights are one
loop over those columns, with no loop per edge or per label pair.  The
node tables are one column per label, all-zero columns dropped, and the
node terms are one sum per column.  Per-node incidence lists, grouped by
the node's own label, serve the color loop.  Only zero entries are left
out, so the results are those of the dense sums.

The color loop ranks a row's labels at the step's bit by their estimated
marginal potential phi.  With exact estimates it settles a two-label row
by the sign of phi_1 - phi_0, one difference summed over the row's
incidence lists plus the packed difference of its node entries, so a row
without incident entries reads no list.  Otherwise it compares a
two-label row's phis, taken to a common scale when quantized
per-manager terms join them, and sorts the phis of a row with three or
more labels.
"""

from __future__ import annotations

import functools
import heapq
import math
from operator import add, itemgetter, mul

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
    if len(f) == 2:
        # f0 + f1 x has the one root -f0 / f1
        return [-f[0] * pow(f[1], p - 2, p) % p]
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


def _choose_prime_degree(ncolors, lower):
    """Smallest-palette (q, d), the first d on ties: for each d in
    1..12, q is the least prime >= max(2, lower(d)) with
    q^(d+1) >= ncolors."""
    best = None
    for d in range(1, 13):
        q = next_prime(max(2, lower(d), _iroot_ceil(ncolors, d + 1)))
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
            # d/q <= bn/bd (candidate-set intersection over size)
            q, d = _choose_prime_degree(n, lambda d: -(-d * bd // bn))
            plan.append((q, d, bn, bd))
            n = q * q
        # converged when one more step at the coarsest budget cannot shrink
        q2, _ = _choose_prime_degree(
            n, lambda d: -(-d * 8 * delta_den // delta_num))
        if q2 * q2 >= n:
            # drop trailing steps that stopped shrinking the palette
            while len(plan) > 1 and plan[-1][0] >= plan[-2][0]:
                plan.pop()
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
        q, d = _choose_prime_degree(n, lambda d: dd * d + 1)
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

    Monochromatic edges get None.  A pair a < b whose digits differ only
    in the lowest is settled as [] (f_a - f_b is a nonzero constant); one
    whose digits differ only in the lowest two has the one root
    (b - a) / (a//q - b//q) mod q of the linear f_a - f_b.  Other pairs
    take ``poly_roots`` over their d + 1 digits, and only those answers go
    in ``cache``, which maps a color pair to its positions and may be
    shared by every coloring with the same (q, d).
    """
    out = []
    for u, v in zip(eu, ev):
        a = colors[u]
        b = colors[v]
        if a == b:
            out.append(None)
            continue
        if a > b:
            a, b = b, a
        ha, hb = a // q, b // q
        if ha == hb:
            out.append([])
        elif ha // q == hb // q:
            out.append([(b - a) * pow(ha - hb, -1, q) % q])
        else:
            key = (a, b)
            hit = cache.get(key)
            if hit is None:
                hit = cache[key] = poly_roots(
                    [(x - y) % q for x, y in
                     zip(_digits(a, q, d), _digits(b, q, d))], q)
            out.append(hit)
    return out


def rs_defective_step(nv, eu, ev, mgr, w, colors, q, d, factor2, agree):
    """One candidate-set defective-coloring step; returns new colors in
    [0, q*q) and the max conflict-estimate bit length (for accounting).

    ``agree`` is ``edge_agreements`` of ``colors`` at (q, d).  Each node
    picks the candidate (z, f(z)) minimizing the (estimated) weight of
    bichromatic edges to neighbors whose candidate set contains the same
    pair, ties toward the smallest resulting color index.  A color c below
    q^2 is evaluated in closed form, f_c(z) = (c % q + (c // q) z) mod q;
    a larger one by Horner over its d + 1 digits.
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
    qq = q * q
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
        z0 = 0
        while z0 in est:
            z0 += 1
        if z0 < q:
            est[z0] = 0
        # candidates (z, f(z)) have distinct colors z * q + f(z), so the
        # least (weight, color) is unique
        c = colors[v]
        if c < qq:
            c0, c1 = c % q, c // q
            best = min((wt, z * q + (c0 + c1 * z) % q)
                       for z, wt in est.items())
        else:
            fv = _digits(c, q, d)
            best = min((wt, z * q + _poly_eval(fv, z, q))
                       for z, wt in est.items())
        new_colors[v] = best[1]
    return new_colors, maxbits


def rs_proper_step(nv, eu, ev, colors, q, d, agree):
    """One conflict-free Linial step; requires q > d * edge-degree.
    ``agree`` is ``edge_agreements`` of ``colors`` at (q, d).  Candidate
    values are evaluated as in ``rs_defective_step``."""
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
    qq = q * q
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
        c = colors[v]
        new_colors[v] = z * q + ((c % q + c // q * z) % q if c < qq
                                 else _poly_eval(_digits(c, q, d), z, q))
    return new_colors


# ---------------------------------------------------------------------------
# ordering-based color reduction (commit-if-conflict-small passes)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def reduction_prime(ncolors, thr_num, thr_den):
    """The prime p of the ordering reduction of an ``ncolors``-coloring at
    commit threshold thr_num/thr_den: the least prime p > 2 / thr with
    p * (p - 1) >= ncolors.  A node is blocked at no more than 2 / thr
    steps, so it has a clear step among p, and distinct colors below
    p * (p - 1) get distinct orderings.  When every color lies in [0, p),
    no edge joins two colors with one residue, every node commits at step
    0 and the reduction returns its input.  Memoized."""
    lo = max(2 * thr_den // thr_num + 1,
             (1 + math.isqrt(4 * ncolors + 1)) // 2)
    p = next_prime(lo)
    while p * (p - 1) < ncolors:
        p = next_prime(p + 1)
    return p


def reduce_colors_by_orderings(nv, eu, ev, mgr, w, nodew, colors, ncolors,
                               thr_num, thr_den, factor2):
    """Reduce a C-coloring to p = ``reduction_prime(ncolors, thr_num,
    thr_den)`` colors over p steps.

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
    p = reduction_prime(ncolors, thr_num, thr_den)

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
    """A multigraph's edge and node tables, packed once.

    The nonzero entries of the edge tables are one flat run of parallel
    columns: entry i belongs to edge ``eid[i]``, whose end ``eu[i]`` has
    label ``ea[i]`` and end ``ev[i]`` label ``eb[i]``, with utility
    ``ex[i]`` and cost ``ey[i]``; an edge's entries are consecutive, in
    the order of its flat L*L table, and an all-zero table has none.
    ``inc[v * L + a]`` is a flat list of ``other, manager, b, utility,
    cost`` quintuples, one for every nonzero entry at node v's label a of
    an edge at v, with b the label of ``other`` (the empty tuple when
    there is none).  ``managed`` tells whether any of them has a manager
    (``manager >= 0``).

    ``node_u[a]`` and ``node_c[a]`` are the columns of the node utility
    and cost tables at label a, one entry per node and 0 for a node
    without a table; a column that is all zero is None.  For L = 2,
    ``dnu[v]`` and ``dnc[v]`` are node v's differences nu[1] - nu[0] and
    nc[1] - nc[0], None when all zero (and for other L).
    """

    __slots__ = ("nv", "m", "L", "eid", "eu", "ev", "ea", "eb", "ex", "ey",
                 "inc", "managed", "node_u", "node_c", "dnu", "dnc")

    def __init__(self, nv, m, L):
        self.nv = nv
        self.m = m
        self.L = L


def _node_columns(L, nt):
    """The columns of the node tables ``nt`` (None: no node has one) and,
    for L = 2, the differences of their two labels."""
    cols = [None] * L
    diff = None
    if nt is not None:
        for a in range(L):
            col = [row[a] if row is not None else 0 for row in nt]
            if any(col):
                cols[a] = col
        if L == 2:
            diff = [row[1] - row[0] if row is not None else 0 for row in nt]
            if not any(diff):
                diff = None
    return cols, diff


def pack_tables(nv, L, eu, ev, mgr, ut, ct, nut, nct):
    """The ``Tables`` of the flat L*L utility and cost tables ``ut[e]``,
    ``ct[e]`` of the edges ``eu[e]``-``ev[e]`` managed by ``mgr[e]``, and
    of the node tables ``nut[v]``, ``nct[v]`` (None for a node without
    one, or ``nut`` and ``nct`` None when no node has one)."""
    t = Tables(nv, len(eu), L)
    eid, cu, cv, ca, cb, cx, cy = cols = ([], [], [], [], [], [], [])
    t.eid, t.eu, t.ev, t.ea, t.eb, t.ex, t.ey = cols
    inc = [()] * (nv * L)
    managed = False
    # edges with equal tables share one list of their nonzero entries
    interned = {}
    for e in range(len(eu)):
        key = (ut[e], ct[e])
        ent = interned.get(key)
        if ent is None:
            ent = interned[key] = [(*divmod(i, L), x, y) for i, (x, y)
                                   in enumerate(zip(*key)) if x or y]
        if not ent:
            continue
        u = eu[e]
        v = ev[e]
        man = mgr[e]
        if man >= 0:
            managed = True
        for a, b, x, y in ent:
            eid.append(e)
            cu.append(u)
            cv.append(v)
            ca.append(a)
            cb.append(b)
            cx.append(x)
            cy.append(y)
            for j, other, c in ((u * L + a, v, b), (v * L + b, u, a)):
                lst = inc[j]
                if not lst:
                    lst = inc[j] = []
                lst += (other, man, c, x, y)
    t.inc = inc
    t.managed = managed
    t.node_u, t.dnu = _node_columns(L, nut)
    t.node_c, t.dnc = _node_columns(L, nct)
    return t


def _node_sum(lam, cols):
    """sum over nodes v and labels a of lam[v][a] * cols[a][v]."""
    return sum(sum(map(mul, map(itemgetter(a), lam), col))
               for a, col in enumerate(cols) if col is not None)


def eval_potential(tables, lam, node_scale):
    """Total (utility, cost) of the rows ``lam``: the sum of
    lam[u][a] * lam[v][b] times the edge entries plus ``node_scale`` times
    the sum of lam[v][a] times the node entries.  For rows over D and
    node_scale D it is at scale (table scale) * D^2."""
    t = tables
    U = 0
    C = 0
    for u, v, a, b, x, y in zip(t.eu, t.ev, t.ea, t.eb, t.ex, t.ey):
        prod = lam[u][a] * lam[v][b]
        if prod:
            U += prod * x
            C += prod * y
    U += node_scale * _node_sum(lam, t.node_u)
    C += node_scale * _node_sum(lam, t.node_c)
    return U, C


def edge_weights_for_step(tables, lam, k, eta_num, eta_den):
    """w_e = u(e, lam) + eta * c(e, lam), integers at scale
    table * 2^(2k) * eta_den; plus per-node weights for node-level terms."""
    t = tables
    w = [0] * t.m
    for e, u, v, a, b, x, y in zip(t.eid, t.eu, t.ev, t.ea, t.eb, t.ex,
                                   t.ey):
        prod = lam[u][a] * lam[v][b]
        if prod:
            w[e] += prod * (eta_den * x + eta_num * y)
    nodew = [0] * t.nv
    for cols, f in ((t.node_u, eta_den << k), (t.node_c, eta_num << k)):
        for a, col in enumerate(cols):
            if col is not None:
                nodew = list(map(add, nodew, map(
                    f.__mul__, map(mul, map(itemgetter(a), lam), col))))
    return w, nodew


def rounding_color_loop(tables, lam, k, colors, delta_num, delta_den,
                        eta_num, eta_den, quantized, unit, rows):
    """Inner loop of the basic rounding step over the defective coloring.

    ``lam`` holds numerators over 2^k, and the step rounds the entries
    that hold bit ``unit``.  Visits the row indices ``rows`` in ascending
    color order; every visited row with entries holding that bit splits
    them into equal halves by estimated marginal potential phi and moves
    each entry by ``unit``, up for the better half and down for the rest.
    The halves are those of sorting the (phi, label) pairs in descending
    order: a row with two such labels a0 < a1 is settled by one
    comparison, raising a1 when its phi is at least a0's.  Edges between
    nodes of one color are left out of the estimates, so the order inside
    a color class does not matter.  Estimates are exact sums, or with
    ``quantized`` each manager's contribution quantized down to its band
    grid (the bandwidth-saving CONGEST estimator).

    phi is eta_den*su - eta_num*sc, at scale table * 2^k * eta_den.  Only
    when quantized per-manager terms join it is it taken to that scale
    times 6*delta_den, for every row of the call; a positive factor
    orders the rows' phis alike.  With exact estimates a row of two
    labels, both at the bit, is settled by the sign of

        d = 2^k (eta_den dnu - eta_num dnc)
            + eta_den (su_1 - su_0) - eta_num (sc_1 - sc_0),

    summed over its incidence lists only, which is phi_1 - phi_0.

    Mutates ``lam``; afterwards no visited entry holds bit ``unit``.
    Returns (max_qidx_bits, touched), touched being the rows that moved.
    """
    L = tables.L
    twok = 1 << k
    inc = tables.inc
    node_u = tables.node_u
    node_c = tables.node_c
    sixdd = 6 * delta_den
    # without managed entries the quantized estimator is the exact one
    per_manager = quantized and tables.managed
    two = L == 2 and not per_manager
    dnu = tables.dnu
    dnc = tables.dnc
    labels = range(L)
    max_qbits = 1
    touched = 0
    for v in sorted(rows, key=colors.__getitem__):
        lamv = lam[v]
        if two and lamv[0] & unit and lamv[1] & unit:
            touched += 1
            gamma = colors[v]
            du = 0
            dc = 0
            ent = inc[2 * v]
            if ent:
                it = iter(ent)
                for u, _man, b, x, y in zip(it, it, it, it, it):
                    if colors[u] != gamma:
                        lb = lam[u][b]
                        du -= lb * x
                        dc -= lb * y
            ent = inc[2 * v + 1]
            if ent:
                it = iter(ent)
                for u, _man, b, x, y in zip(it, it, it, it, it):
                    if colors[u] != gamma:
                        lb = lam[u][b]
                        du += lb * x
                        dc += lb * y
            d = eta_den * du - eta_num * dc
            if dnu is not None:
                d += twok * eta_den * dnu[v]
            if dnc is not None:
                d -= twok * eta_num * dnc[v]
            if d >= 0:      # a tie raises the larger label
                lamv[1] += unit
                lamv[0] -= unit
            else:
                lamv[0] += unit
                lamv[1] -= unit
            continue
        sv = [a for a in labels if lamv[a] & unit]
        if not sv:
            continue
        touched += 1
        gamma = colors[v]
        row = v * L
        phis = []
        for a in sv:
            # su, sc: lam-weighted utility and cost toward the other
            # endpoints, plus 2^k times the node terms; with per-manager
            # estimates the managed entries' sums go per manager instead
            su = 0
            sc = 0
            per_mgr = {}
            it = iter(inc[row + a])
            for u, man, b, x, y in zip(it, it, it, it, it):
                if colors[u] == gamma:
                    continue
                lb = lam[u][b]
                if not lb:
                    continue
                if man < 0 or not per_manager:
                    su += lb * x
                    sc += lb * y
                    continue
                slot = per_mgr.get(man)
                if slot is None:
                    per_mgr[man] = [lb * x, lb * y]
                else:
                    slot[0] += lb * x
                    slot[1] += lb * y
            col = node_u[a]
            if col is not None:
                su += twok * col[v]
            col = node_c[a]
            if col is not None:
                sc += twok * col[v]
            phi = eta_den * su - eta_num * sc
            if per_manager:
                phi *= sixdd
                # quantize each manager contribution down to its band grid
                for pu, pc in per_mgr.values():
                    te = eta_den * pu + eta_num * pc
                    if te == 0:
                        continue
                    grid = delta_num * te
                    qidx = (sixdd * (eta_den * pu - eta_num * pc)) // grid
                    if qidx:
                        b_ = abs(qidx).bit_length()
                        if b_ > max_qbits:
                            max_qbits = b_
                    phi += qidx * grid
            phis.append(phi)
        if len(sv) == 2:
            up, down = sv
            if phis[1] >= phis[0]:      # a tie raises the larger label
                up, down = down, up
            lamv[up] += unit
            lamv[down] -= unit
            continue
        ranked = sorted(zip(phis, sv), reverse=True)   # labels are distinct
        half = len(ranked) // 2
        for i, (_phi, a) in enumerate(ranked):
            if i < half:
                lamv[a] += unit
            else:
                lamv[a] -= unit
    return max_qbits, touched


def file_rows(lam, rows, unit, total, buckets):
    """Files each row index in ``rows`` in ``buckets`` (bit -> row
    indices) under the lowest set bit of the OR of its entries in
    ``lam``, leaving out one-hot rows, whose lowest bit is ``total``.

    Asserts of every filed row that no entry is negative, that no entry
    holds bit ``unit`` (0 tests no bit) and that the row sums to
    ``total``: what a rounding step at ``unit`` must leave in each row it
    moved.  Returns ``buckets``.
    """
    for v in rows:
        acc = 0
        s = 0
        for x in lam[v]:
            if x < 0:
                raise AssertionError(f"row {v} holds a negative entry")
            acc |= x
            s += x
        if acc & unit:
            raise AssertionError(f"row {v} still holds bit {unit}")
        if s != total:
            raise AssertionError(f"row {v} does not sum to {total}")
        low = acc & -acc
        if low != total:
            hit = buckets.get(low)
            if hit is None:
                buckets[low] = [v]
            else:
                hit.append(v)
    return buckets
