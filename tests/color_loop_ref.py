"""The rounding color loop with a sort per row, kept as a reference for the
kernel's two-label comparison.

This is ``rounding_color_loop`` as it was before the kernel settled rows
with two labels at the step's bit by one comparison: every visited row
builds its (phi, label) pairs, scaled by 6 * delta_den whether or not
the estimates are quantized, and sorts them.  ``test_color_loop_ref.py`` compares the
two on seeded inputs.
"""


def rounding_color_loop(nv, L, eu, ev, mgr, tables, nut, nct, lam, k, colors,
                        delta_num, delta_den, eta_num, eta_den, quantized,
                        unit, rows):
    twok = 1 << k
    inc = tables.inc
    sixdd = 6 * delta_den
    per_manager = quantized and tables.managed
    max_qbits = 1
    touched = 0
    for v in sorted(rows, key=colors.__getitem__):
        lamv = lam[v]
        sv = [a for a in range(L) if lamv[a] & unit]
        if not sv:
            continue
        touched += 1
        gamma = colors[v]
        row = v * L
        nu = nc = None
        if nut is not None:
            nu = nut[v]
            nc = nct[v]
        phis = []
        for a in sv:
            su = 0
            sc = 0
            it = iter(inc[row + a])
            if per_manager:
                per_mgr = {}
                for u, man, b, x, y in zip(it, it, it, it, it):
                    if colors[u] == gamma:
                        continue
                    lb = lam[u][b]
                    if not lb:
                        continue
                    if man < 0:
                        su += lb * x
                        sc += lb * y
                        continue
                    slot = per_mgr.get(man)
                    if slot is None:
                        per_mgr[man] = [lb * x, lb * y]
                    else:
                        slot[0] += lb * x
                        slot[1] += lb * y
            else:
                per_mgr = None
                for u, _man, b, x, y in zip(it, it, it, it, it):
                    if colors[u] == gamma:
                        continue
                    lb = lam[u][b]
                    if lb:
                        su += lb * x
                        sc += lb * y
            if nu is not None:
                su += twok * nu[a]
            if nc is not None:
                sc += twok * nc[a]
            phi6 = sixdd * (eta_den * su - eta_num * sc)
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
                lamv[a] += unit
            else:
                lamv[a] -= unit
    return max_qbits, touched
