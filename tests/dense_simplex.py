"""The dense-tableau exact simplex, kept as a reference for
``oracle.simplex_max``.

This is the integer simplex over the full tableau: one column per
original, slack and artificial variable.  ``simplex_max`` keeps only the
nonbasic columns, and must take the same pivots through the same integers;
``test_condensed_simplex.py`` compares the two.
"""

from locround.oracle import LPInfeasible, LPUnbounded


def dense_simplex_max(c, A, b, max_pivots=200_000):
    """Exact simplex for max c.x  s.t.  A x <= b, x >= 0, with integer
    (fraction-free) pivoting, Dantzig pricing, and a Bland fallback against
    cycling.

    ``A`` is a list of m sparse rows ``{column: coefficient}`` over the
    n = len(c) columns; coefficients, ``b`` and ``c`` are ints.  The rows
    are laid out in a dense integer tableau whose rows carry one shared
    positive denominator ``prev``; each pivot applies the Sylvester
    identity T' = (piv*T - T[col] x prow) / prev with exact integer
    division, so entries stay minor-sized integers.

    Returns the certified solution in integers, (cx, X, Y, prev): the
    optimum is cx / prev, x_j = X[j] / prev and y_i = Y[i] / prev, y the
    optimal dual (min y.b, y A >= c, y >= 0), over the final, unreduced
    tableau denominator ``prev``.  The solution is returned once an exact
    optimality certificate holds: primal and dual feasibility, y >= 0 and
    equal objectives, checked in integers.  Raises LPUnbounded /
    LPInfeasible.
    """
    m = len(A)
    n = len(c)
    rows = [{j: a for j, a in row.items() if a} for row in A]

    neg = [i for i in range(m) if b[i] < 0]
    negset = set(neg)
    n_art = len(neg)
    total = n + m + n_art
    # columns: 0..n-1 original, n..n+m-1 slacks, then artificials; entries
    # are true values scaled by prev.  The start basis, a row's slack or,
    # for a negated row, its artificial, is the identity, so prev = 1
    T = []
    basis = []
    art_col = {}
    k = 0
    for i in range(m):
        row = [0] * (total + 1)
        for j, a in rows[i].items():
            row[j] = a
        row[n + i] = 1
        row[-1] = b[i]
        if i in negset:
            row = [-x for x in row]
            col = n + m + k
            art_col[i] = col
            row[col] = 1
            basis.append(col)
            k += 1
        else:
            basis.append(n + i)
        T.append(row)
    state = {"prev": 1}

    def pivot(z, r, col):
        # Edmonds integer pivoting: divisions by the previous pivot are
        # exact (entries are subdeterminants); the final optimality
        # certificate independently guards against any arithmetic slip.
        prev = state["prev"]
        piv = T[r][col]
        prow = T[r]
        for i in range(m):
            if i != r:
                f = T[i][col]
                if f:
                    T[i] = [(piv * a - f * p) // prev
                            for a, p in zip(T[i], prow)]
                elif piv != prev:
                    T[i] = [(piv * a) // prev for a in T[i]]
        f = z[col]
        if f:
            z[:] = [(piv * a - f * p) // prev for a, p in zip(z, prow)]
        elif piv != prev:
            z[:] = [(piv * a) // prev for a in z]
        basis[r] = col
        if piv < 0:
            # only the phase-1 cleanup pivots on a negative entry; negate
            # everything so that prev stays positive and the signs the
            # pricing and the ratio test read are the signs of true values
            for i in range(m):
                T[i] = [-a for a in T[i]]
            z[:] = [-a for a in z]
            piv = -piv
        state["prev"] = piv

    def make_zrow(obj_num):
        # z[j] = prev * (sum_i obj[basis_i] T_true[i][j] - obj[j]): each
        # T entry already carries the factor prev
        prev = state["prev"]
        z = [-o * prev for o in obj_num] + [0]
        for i, bc in enumerate(basis):
            cb = obj_num[bc]
            if cb:
                row = T[i]
                for j in range(total + 1):
                    if row[j]:
                        z[j] += cb * row[j]
        return z

    def run(z, allowed, limit):
        degenerate = 0
        bland = False
        for _ in range(limit):
            enter = -1
            if bland:
                for j in allowed:
                    if z[j] < 0:
                        enter = j
                        break
            else:
                best = 0
                for j in allowed:
                    zj = z[j]
                    if zj < best:
                        best = zj
                        enter = j
            if enter < 0:
                return
            ratio_num = ratio_den = None
            leave = -1
            for i in range(m):
                a = T[i][enter]
                if a > 0:
                    # compare T[i][-1]/a with the incumbent by cross mult
                    if (leave < 0 or T[i][-1] * ratio_den < ratio_num * a
                            or (T[i][-1] * ratio_den == ratio_num * a
                                and basis[i] < basis[leave])):
                        ratio_num = T[i][-1]
                        ratio_den = a
                        leave = i
            if leave < 0:
                raise LPUnbounded("unbounded direction")
            if ratio_num == 0:
                degenerate += 1
                if degenerate > 4 * (len(allowed) + m):
                    bland = True
            else:
                degenerate = 0
            pivot(z, leave, enter)
        raise RuntimeError("simplex pivot limit exceeded")

    if n_art:
        obj1 = [0] * total
        for i in neg:
            obj1[art_col[i]] = -1
        z1 = make_zrow(obj1)
        run(z1, list(range(total)), max_pivots)
        if any(T[i][-1] != 0 for i in range(m) if basis[i] >= n + m):
            raise LPInfeasible("phase-1 optimum nonzero")
        for i in range(m):
            if basis[i] >= n + m:
                row = T[i]
                for j in range(n + m):
                    if row[j]:
                        pivot(z1, i, j)
                        break

    obj = list(c) + [0] * (m + n_art)
    z = make_zrow(obj)
    run(z, list(range(n + m)), max_pivots)

    # true values x = X/prev and y = Y/prev; the slack column of a negated
    # row is negated too, so Y is read off the slack reduced costs of every
    # row alike
    prev = state["prev"]
    X = [0] * n
    for i, bc in enumerate(basis):
        if bc < n:
            X[bc] = T[i][-1]
    Y = z[n:n + m]
    # exact optimality certificate, in integers: primal/dual feasibility,
    # y >= 0 and equal objectives
    for i, row in enumerate(rows):
        if sum(a * X[j] for j, a in row.items()) > b[i] * prev:
            raise AssertionError("primal infeasible after solve")
    yA = [0] * n
    for yi, row in zip(Y, rows):
        if yi:
            for j, a in row.items():
                yA[j] += yi * a
    if any(yA[j] < c[j] * prev for j in range(n)):
        raise AssertionError("dual infeasible after solve")
    if any(yi < 0 for yi in Y):
        raise AssertionError("negative dual")
    cx = sum(cj * xj for cj, xj in zip(c, X) if xj)
    if sum(yi * bv for yi, bv in zip(Y, b) if yi) != cx:
        raise AssertionError("duality gap after solve")
    return cx, X, Y, prev
