"""Generic deterministic rounding of fractional label assignments.

A fractional label assignment gives every node a distribution over a finite
label alphabet with all values dyadic (integer multiples of 2^-k).  A
valuation attaches a non-negative utility and cost table to every edge of a
multigraph (depending only on the two endpoint labels) and optionally to
every node (depending on its own label).  The rounding step halves the
integrality denominator while losing at most a delta-fraction of
``u + eta*c`` from the potential ``u - eta*c``; iterating with a sliding
eta schedule turns a fractional assignment with ``u - c >= mu*u`` into an
integral one with ``u - c >= (1-eps)*(u - c)``.  All guarantees are
asserted exactly in rational arithmetic on every call.

Arbitrary rational input enters as raw rows, tuples of non-negative
integers whose sum is the row's denominator; ``preprocess_fractional``
rounds them onto the 2^-k grid.  A schedule keeps its rows over the fixed
2^K of the normalized assignment: the step at denominator 2^k moves the entries holding bit
2^(K-k), and visits only the rows its ``_Frontier`` files under that bit.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import coloring as _coloring
from ._kernel import impl as _K


class RoundingInvariantError(AssertionError):
    """An exact lemma-level inequality failed at runtime."""


class FractionalAssignment:
    """Per-node distributions over labels, all values multiples of 2^-k.

    ``values[v]`` is a tuple of integer numerators summing to 2^k.
    """

    def __init__(self, nlabels, k, values):
        self.nlabels = nlabels
        self.k = k
        self.values = dict(values)
        tot = 1 << k
        for v, nums in self.values.items():
            if len(nums) != nlabels:
                raise ValueError(f"node {v}: wrong number of labels")
            if nums and (min(nums) < 0 or max(nums) > tot):
                raise ValueError(f"node {v}: value outside [0, 1]")
            if sum(nums) != tot:
                raise ValueError(f"node {v}: values do not sum to 1")

    @classmethod
    def from_fractions(cls, nlabels, values):
        """Exact conversion; every value must be dyadic."""
        k = 0
        for nums in values.values():
            for x in nums:
                d = Fraction(x).denominator
                if d & (d - 1):
                    raise ValueError(f"non-dyadic value {x}")
                k = max(k, d.bit_length() - 1)
        scaled = {
            v: tuple(int(Fraction(x) * (1 << k)) for x in nums)
            for v, nums in values.items()
        }
        return cls(nlabels, k, scaled)

    def normalize(self):
        """Reduce k while every numerator is even."""
        k = self.k
        values = self.values
        while k > 0 and all(x % 2 == 0 for nums in values.values() for x in nums):
            values = {v: tuple(x >> 1 for x in nums) for v, nums in values.items()}
            k -= 1
        return FractionalAssignment(self.nlabels, k, values)

    @classmethod
    def integral(cls, nlabels, labeling):
        return cls(nlabels, 0, {
            v: tuple(1 if a == lab else 0 for a in range(nlabels))
            for v, lab in labeling.items()
        })


class Valuation:
    """Edge and node utility/cost tables: non-negative rationals held as
    integers over one common denominator ``scale``.

    ``edge_utility[i]`` is the flat ``L*L`` table of the edge with index i,
    in the stored endpoint order: entry ``a*L + b`` is ``scale`` times the
    utility when ``e.u`` has label a and ``e.v`` has label b; an edge
    without a table has zeros.  ``node_utility[v]`` and ``node_cost[v]``
    are rows of L integers.  The constructor divides ``scale`` and every
    entry by their gcd, so ``scale`` is the least common denominator of the
    entries.  ``from_fractions`` converts rational tables.
    """

    def __init__(self, nlabels, edge_utility, edge_cost,
                 node_utility=None, node_cost=None, scale=1):
        self.nlabels = nlabels
        groups = [edge_utility, edge_cost, node_utility or {}, node_cost or {}]
        g = scale
        kinds = ("table of edge",) * 2 + ("node table of",) * 2
        for kind, tables in zip(kinds, groups):
            for key, row in tables.items():
                if min(row) < 0:
                    raise ValueError(f"negative entry in {kind} {key}")
                if g != 1:
                    g = math.gcd(g, *row)
        if g != 1:
            groups = [{key: tuple(x // g for x in row)
                       for key, row in tables.items()} for tables in groups]
        (self.edge_utility, self.edge_cost,
         self.node_utility, self.node_cost) = groups
        self.scale = scale // g

    @classmethod
    def from_fractions(cls, nlabels, edge_utility, edge_cost,
                       node_utility=None, node_cost=None, bound=None):
        """Integer form of rational tables: edge tables nested as
        ``[a][b]`` and keyed by edge index, node rows keyed by node.  With
        ``bound`` = q, every nonzero entry must lie in [1/q, q]."""
        L = nlabels
        for i, t in (*edge_utility.items(), *edge_cost.items()):
            if len(t) != L or any(len(row) != L for row in t):
                raise ValueError(f"table of edge {i} is not {L} x {L}")
        for v, row in (*(node_utility or {}).items(),
                       *(node_cost or {}).items()):
            if len(row) != L:
                raise ValueError(f"node table of {v} needs {L} entries")
        groups = [{i: [Fraction(x) for row in t for x in row]
                   for i, t in tables.items()}
                  for tables in (edge_utility, edge_cost)]
        groups += [{v: [Fraction(x) for x in row]
                    for v, row in (tables or {}).items()}
                   for tables in (node_utility, node_cost)]
        scale = math.lcm(*(x.denominator for tables in groups
                           for row in tables.values() for x in row))
        val = cls(nlabels, *({key: tuple(x.numerator * (scale // x.denominator)
                                         for x in row)
                              for key, row in tables.items()}
                             for tables in groups), scale=scale)
        if bound is not None:
            lo, hi = Fraction(1, bound), Fraction(bound)
            for tables in groups:
                for row in tables.values():
                    for x in row:
                        if x and not (lo <= x <= hi):
                            raise ValueError(
                                f"entry {x} outside declared bound [{lo}, {hi}]")
        return val


class _Prepared(_coloring._Packing):
    """The graph packing plus the valuation's integer tables in packing
    order, packed for the kernels once per (graph, valuation)."""

    def __init__(self, g, val, agree_cache=None):
        super().__init__(g, agree_cache)
        self.g = g
        self.val = val
        self.L = val.nlabels
        self.scale = val.scale
        zero = (0,) * (self.L * self.L)
        self.tables = _K.pack_tables(
            self.nv, self.L, self.eu, self.ev, self.mgr,
            [val.edge_utility.get(i, zero) for i in self.eidx],
            [val.edge_cost.get(i, zero) for i in self.eidx])
        if val.node_utility or val.node_cost:
            self.nut = [val.node_utility.get(v) for v in self.nodes]
            self.nct = [val.node_cost.get(v) for v in self.nodes]
        else:
            self.nut = None
            self.nct = None

    def lam_array(self, lam):
        """The rows of the FractionalAssignment ``lam`` in packing order, as
        lists of numerators over 2^lam.k; nodes outside the graph are
        ignored.  Raises ``ValueError`` when ``lam`` misses a node or has
        another number of labels than the valuation."""
        if lam.nlabels != self.L:
            raise ValueError(f"assignment has {lam.nlabels} labels, "
                             f"the valuation {self.L}")
        values = lam.values
        try:
            return [list(values[v]) for v in self.nodes]
        except KeyError as exc:
            raise ValueError(f"assignment misses node {exc.args[0]}") from None

    def potential(self, lam, k=None):
        """Exact (utility, cost) of ``lam``: rows in packing order with
        numerators over 2^k when ``k`` is given, otherwise a
        FractionalAssignment or a mapping node -> raw row, a tuple of
        non-negative integers whose sum is the row's denominator.

        Raw rows are brought to D, the lcm of their sums, for one kernel
        call.  The kernel scales node terms by 2^k, so when D is not a
        power of two they are added here, at scale D."""
        if isinstance(lam, FractionalAssignment):
            lam, k = self.lam_array(lam), lam.k
        if k is not None:
            D = 1 << k
        else:
            rows = [lam[v] for v in self.nodes]
            sums = list(map(sum, rows))
            # an all-zero row adds nothing at any scale
            D = math.lcm(*set(sums).difference((0,)))
            lam = [row if s == D or not s else [x * (D // s) for x in row]
                   for row, s in zip(rows, sums)]
            k = D.bit_length() - 1
        dyadic = D == 1 << k
        node_tables = (self.nut, self.nct) if dyadic else (None, None)
        U, C = _K.eval_potential(self.nv, self.L, self.eu, self.ev,
                                 self.tables, *node_tables, lam, k)
        if not dyadic and self.nut is not None:
            for row, nu, nc in zip(lam, self.nut, self.nct):
                if nu is not None:
                    U += D * sum(map(operator.mul, row, nu))
                if nc is not None:
                    C += D * sum(map(operator.mul, row, nc))
        den = self.scale * D * D
        return Fraction(U, den), Fraction(C, den)


def evaluate(val, lam, g):
    """Exact (utility, cost) of ``lam``, a FractionalAssignment or a
    mapping node -> raw row (non-negative integers summing to the row's
    denominator)."""
    return _Prepared(g, val).potential(lam)


def _eta_ints(eta):
    eta = Fraction(eta)
    return eta.numerator, eta.denominator


class _Frontier:
    """Where a rounding schedule's rows are not yet rounded.

    The rows are numerators over the schedule's fixed 2^K.  Every row that
    is not one-hot is filed in ``buckets`` under the lowest set bit of the
    OR of its entries: the step at denominator 2^k rounds the rows filed
    under 2^(K-k), and no others.
    """

    __slots__ = ("K", "buckets")

    def __init__(self, rows, K):
        self.K = K
        self.buckets = _K.file_rows(rows, range(len(rows)), 0, 1 << K, {})


def rounding_step(prep, lam, k, delta, eta, estimate_mode="exact",
                  initial_coloring=None, engine=None, check=True, uc0=None,
                  frontier=None):
    """One basic rounding step: 2^-k-integral in, 2^-(k-1)-integral out.

    ``lam`` is the rows of ``prep`` (``prep.lam_array``) as numerators over
    a fixed 2^K, and the step rounds its entries at odd multiples of 2^-k
    in place: those that hold bit unit = 2^(K-k).  K is k unless
    ``frontier``, the ``_Frontier`` of ``lam`` inside a schedule, gives the
    schedule's K; the step then visits only the rows filed under ``unit``
    and files each row it moved again.  Every moved row is asserted to
    hold no entry at bit ``unit``, no negative entry, and to sum to 2^K.

    Colors the multigraph with a weighted average (delta/6)-relative
    defective coloring, then per color class splits each row's entries at
    bit ``unit`` into halves by estimated marginal potential and moves each
    by ``unit``.  The coloring is weighted by u + eta*c per edge; those
    weights are computed only when it reads them, that is, when a
    Reed-Solomon step meets a color at or above its field size or the
    reduction a color at or above its prime.  The exact guarantee

        u' - eta c'  >=  u - eta c - delta (u + eta c)

    is asserted (zero tolerance) unless ``check=False``.  ``uc0`` is the
    exact (u, c) of ``lam`` when the caller already holds it.  Without a
    ``frontier``, an ``initial_coloring`` that misses a node, holds a
    negative color or is not proper raises ``ColoringError``; a schedule
    checks it once.  Returns the exact (u', c'), or None when
    ``check=False``.
    """
    delta = Fraction(delta)
    eta = Fraction(eta)
    if not (0 <= delta <= 1):
        raise ValueError("delta must be in [0, 1]")
    if eta < 1:
        raise ValueError("eta must be >= 1")
    if k < 1:
        raise ValueError("assignment must be 2^-k-integral with k >= 1")
    if frontier is None:
        _coloring._check_initial(prep.g, initial_coloring)
        frontier = _Frontier(lam, k)
    K = frontier.K
    unit = 1 << (K - k)
    if check:
        U0, C0 = prep.potential(lam, K) if uc0 is None else uc0
    en, ed = _eta_ints(eta)
    factor2 = estimate_mode == "quantized"
    if delta == 0:
        colors, palette, rounds, maxbits = _coloring.proper_colors_for_rounding(
            prep, initial_coloring)
    else:
        def weights():
            # at the scale of rows over 2^k: every term is a product of two
            # entries that are multiples of ``unit``
            w, nodew = _K.edge_weights_for_step(
                prep.nv, prep.L, prep.eu, prep.ev, prep.tables, prep.nut,
                prep.nct, lam, K, en, ed)
            s = 2 * (K - k)
            if s:
                w = [x >> s for x in w]
                nodew = [x >> s for x in nodew]
            return w, nodew

        colors, palette, rounds, maxbits = _coloring.defective_colors_for_rounding(
            prep, weights, delta / 6, factor2, initial_coloring)
    if engine is not None:
        engine.account(maxbits, rounds)
    mode_id = {"exact": 0, "worst": 1, "quantized": 2}[estimate_mode]
    if delta == 0:
        mode_id = 0
    dn, dd = delta.numerator, delta.denominator
    moved = frontier.buckets.pop(unit, [])
    max_qbits, _touched = _K.rounding_color_loop(
        prep.nv, prep.L, prep.eu, prep.ev, prep.mgr, prep.tables,
        prep.nut, prep.nct, lam, K, colors, dn, dd, en, ed, mode_id,
        unit, moved)
    if engine is not None:
        msg_bits = prep.L * (max_qbits + 2) + 2
        engine.account(msg_bits, 2 * palette)
    _K.file_rows(lam, moved, unit, 1 << K, frontier.buckets)
    if not check:
        return None
    U1, C1 = prep.potential(lam, K)
    if U1 - eta * C1 < U0 - eta * C0 - delta * (U0 + eta * C0):
        raise RoundingInvariantError(
            f"rounding step lost too much potential: "
            f"{U1 - eta * C1} < {U0 - eta * C0 - delta * (U0 + eta * C0)}")
    return U1, C1


def round_to_integral(g, val, lam, eps, mu, estimate_mode="exact",
                      initial_coloring=None, engine=None, prep=None,
                      check=True, uc0=None):
    """Full rounding schedule: k steps with delta = eps*mu/(6k) and
    eta_i = 1 + (1 - i/k) * eps*mu/2.

    Requires ``u - c >= mu*u`` exactly; returns the integral labeling with
    ``u(l) - c(l) >= (1-eps)(u - c)`` asserted exactly.  ``uc0`` is the
    exact (u, c) of ``lam`` when the caller already holds it.  An
    ``initial_coloring`` that misses a node, holds a negative color or is
    not proper raises ``ColoringError``; an assignment that misses a node
    or has another number of labels than ``val`` raises ``ValueError``.
    """
    if prep is None:
        prep = _Prepared(g, val)
    return _round_to_integral(prep, lam, eps, mu, estimate_mode,
                              initial_coloring, engine, check, uc0)[0]


def _round_to_integral(prep, lam, eps, mu, estimate_mode, initial_coloring,
                       engine, check, uc0):
    """``round_to_integral`` on a packed valuation; returns the labeling and
    its exact (u, c), which is None when unchecked steps ran.

    The normalized assignment is converted once to the rows of ``prep``,
    numerators over its 2^k for the whole schedule; every step rounds the
    rows of the frontier in place, and the labeling is read off the final
    one-hot rows."""
    eps = Fraction(eps)
    mu = Fraction(mu)
    if not (0 <= eps <= 1) or not (0 < mu <= 1):
        raise ValueError("eps in [0,1], mu in (0,1] required")
    _coloring._check_initial(prep.g, initial_coloring)
    lam = lam.normalize()
    k = lam.k
    rows = prep.lam_array(lam)
    U0, C0 = prep.potential(rows, k) if uc0 is None else uc0
    if U0 - C0 < mu * U0:
        raise RoundingInvariantError(
            f"precondition u - c >= mu*u violated: {U0 - C0} < {mu * U0}")
    if k == 0:
        return _labeling(prep, rows, k), (U0, C0)
    delta = eps * mu / (6 * k)
    if engine is not None:
        # pipelined initial fractional-value broadcast
        engine.account(min(2 * prep.L + 2, (1 << min(k, 20)) * 8), rounds=k)
    phi0 = U0 - (1 + eps * mu / 2) * C0
    uc = (U0, C0)
    frontier = _Frontier(rows, k)
    for i in range(1, k + 1):
        eta_i = 1 + Fraction(k - i, k) * eps * mu / 2
        uc = rounding_step(prep, rows, k - i + 1, delta, eta_i, estimate_mode,
                           initial_coloring, engine, check=check, uc0=uc,
                           frontier=frontier)
        if check:
            Ui, Ci = uc
            phi_i = Ui - eta_i * Ci
            if phi_i < (1 - delta) ** i * phi0:
                raise RoundingInvariantError(
                    f"potential schedule broken at step {i}: "
                    f"{phi_i} < (1-delta)^{i} * {phi0}")
            if engine is not None:
                engine.sample_potential(phi_i)
    if check:
        Uf, Cf = uc
        if Uf - Cf < (1 - eps) * (U0 - C0):
            raise RoundingInvariantError(
                f"final guarantee failed: {Uf - Cf} < {(1 - eps) * (U0 - C0)}")
    return _labeling(prep, rows, k), uc


def _labeling(prep, rows, k):
    """The labeling of one-hot rows of ``prep`` over 2^k: node -> its
    label."""
    one = 1 << k
    return {v: row.index(one) for v, row in zip(prep.nodes, rows)}


def preprocess_fractional(lam_raw, eps, mu, nlabels, lam_min=None):
    """Round raw rows to a 1/2^k-integral assignment with 2^k the smallest
    power of two >= 9/(eps*mu*lam_min).

    ``lam_raw`` maps each node to a raw row: a tuple of non-negative
    integers whose sum D is the row's denominator, so entry x stands for
    x/D.  A row may be written over any multiple of its reduced
    denominator; ``lam_min`` defaults to the least nonzero value.  Zero
    values stay zero; per node the values move by less than 2^-k and keep
    their unit sum.  For any valuation with ``u - c >= mu*u`` on the
    input, this gives

        u' - c' >= (1-eps)(u - c)   and   u' - c' >= (mu/2) u',

    which ``_check_preprocessed`` asserts exactly.
    """
    eps = Fraction(eps)
    mu = Fraction(mu)
    # equal rows round alike, so each distinct row is checked and rounded
    # once.  The least nonzero value is mn/md, 1 when every entry is zero.
    dens = {}
    mn = md = 1
    for nums in lam_raw.values():
        if nums in dens:
            continue
        D = dens[nums] = sum(nums)
        if D <= 0:
            raise ValueError("input distributions must sum to 1")
        m = min(nums)
        if m < 0:
            raise ValueError("negative fractional value")
        if not m:
            m = min(filter(None, nums))
        if m * md < mn * D:
            mn, md = m, D
    if lam_min is None:
        ln, ld = mn, md
    else:
        lam_min = Fraction(lam_min)
        ln, ld = lam_min.numerator, lam_min.denominator
        if mn * ld < ln * md:
            raise ValueError(f"declared lam_min {lam_min} exceeds actual "
                             f"minimum {Fraction(mn, md)}")
    # 2^k >= 9 ld / (eps mu ln), that is 2^k >= its ceiling
    need = -(-9 * ld * eps.denominator * mu.denominator
             // (eps.numerator * mu.numerator * ln))
    k = (max(need, 1) - 1).bit_length()
    two_k = 1 << k
    rounded = {}
    for nums, D in dens.items():
        floors = []
        rems = []
        for a, x in enumerate(nums):
            f, r = divmod(x << k, D)
            floors.append(f)
            if r:
                rems.append((-r, a))
        deficit = two_k - sum(floors)
        if deficit < 0:
            raise AssertionError("floor sum exceeded the unit total")
        # bump the largest remainders, ties toward smaller label index
        rems.sort()
        if deficit > len(rems):
            raise AssertionError("not enough fractional mass to rebalance")
        for j in range(deficit):
            floors[rems[j][1]] += 1
        for x, y in zip(nums, floors):
            if x == 0 and y != 0:
                raise AssertionError("zero value moved")
            if abs(y * D - (x << k)) > D:
                raise AssertionError("value moved by more than 2^-k")
        rounded[nums] = tuple(floors)
    return FractionalAssignment(
        nlabels, k, {v: rounded[nums] for v, nums in lam_raw.items()})


def _check_preprocessed(prep, uc_raw, out, eps, mu):
    """Asserts the guarantees of ``preprocess_fractional`` for ``out``,
    given the exact (u, c) of its input; returns the exact (u, c) of
    ``out``."""
    U, C = uc_raw
    if U - C < mu * U:
        raise RoundingInvariantError(
            f"precondition u - c >= mu*u violated: {U - C} < {mu * U}")
    U1, C1 = prep.potential(out)
    if U1 - C1 < (1 - eps) * (U - C):
        raise RoundingInvariantError(
            f"preprocessing lost too much: {U1 - C1} < {(1 - eps) * (U - C)}")
    if U1 - C1 < mu / 2 * U1:
        raise RoundingInvariantError(
            f"preprocessing broke the margin: {U1 - C1} < {mu / 2 * U1}")
    return U1, C1


def round_fractional(g, val, lam_raw, eps, mu, nlabels, lam_min=None,
                     estimate_mode="exact", initial_coloring=None,
                     engine=None, check=True, prep=None, uc_raw=None):
    """Preprocess + full rounding with the eps/2 + eps/2 split.

    Produces an integral labeling with ``u - c >= (1-eps)(u(lam) - c(lam))``
    from any fractional assignment with ``u - c >= mu*u``, given as raw
    rows (``preprocess_fractional``); the rows of a FractionalAssignment's
    ``values`` are raw rows too.  The claim is asserted exactly end to
    end.  ``prep`` is the packed ``(g, val)`` and ``uc_raw`` the exact
    (u, c) of ``lam_raw``, when the caller already holds them.  Returns
    the labeling and its exact (u, c), which is None when ``check=False``.
    """
    eps = Fraction(eps)
    mu = Fraction(mu)
    if prep is None:
        prep = _Prepared(g, val)
    if check and uc_raw is None:
        uc_raw = prep.potential(lam_raw)
    lam = preprocess_fractional(lam_raw, eps / 2, mu, nlabels, lam_min)
    uc0 = (_check_preprocessed(prep, uc_raw, lam, eps / 2, mu) if check
           else None)
    ell, ucf = _round_to_integral(prep, lam, eps / 2, mu / 2, estimate_mode,
                                  initial_coloring, engine, check, uc0)
    if not check:
        return ell, None
    U, C = uc_raw
    Uf, Cf = ucf
    if Uf - Cf < (1 - eps) * (U - C):
        raise RoundingInvariantError(
            f"composed rounding guarantee failed: "
            f"{Uf - Cf} < {(1 - eps) * (U - C)}")
    return ell, ucf
