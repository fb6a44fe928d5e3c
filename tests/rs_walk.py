"""The digit-list Reed-Solomon walk, kept as a reference for the kernels'
closed forms.

These are ``edge_agreements``, ``rs_defective_step`` and ``rs_proper_step``
as they were before the kernels settled colors below q^2 in closed form:
every color pair gets its d + 1 base-q digits and one ``poly_roots`` call,
and every candidate value one ``_poly_eval`` over the digits.
``test_rs_closed_form.py`` compares the two on seeded inputs.
"""

from locround._kernel.pure import _digits, _poly_eval, poly_roots, pow2_floor


def edge_agreements(eu, ev, colors, q, d, cache):
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


def rs_defective_step(nv, eu, ev, mgr, w, colors, q, d, factor2, agree):
    conf = [None] * nv
    confm = [None] * nv if factor2 else None
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
            new_colors[v] = colors[v] % q
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
            new_colors[v] = colors[v] % q
            continue
        z = 0
        while z in s:
            z += 1
        if z >= q:
            raise AssertionError("no free candidate color; palette too small")
        new_colors[v] = z * q + _poly_eval(_digits(colors[v], q, d), z, q)
    return new_colors
