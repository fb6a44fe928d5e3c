import heapq
import importlib.util
import math
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from locround import _kernel
from locround._kernel import BACKEND, pure


@pytest.fixture(scope="session")
def core(tmp_path_factory):
    """The compiled kernels: the selected extension, or else the shipped
    ``_core.c`` built with gcc into a temp dir and loaded under its package
    name without registering it, so the rest of the suite keeps the
    selected backend."""
    if BACKEND == "compiled":
        from locround._kernel import _core
        return _core
    gcc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if gcc is None or not (Path(include) / "Python.h").exists():
        pytest.skip("no C compiler or Python headers to build _core.c")
    src = Path(pure.__file__).with_name("_core.c")
    out = (tmp_path_factory.mktemp("core")
           / ("_core" + sysconfig.get_config_var("EXT_SUFFIX")))
    subprocess.run([gcc, "-shared", "-fPIC", f"-I{include}", str(src),
                    "-o", str(out)], check=True)
    spec = importlib.util.spec_from_file_location("locround._kernel._core",
                                                  out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert BACKEND in ("compiled", "pure")


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


def test_compiled_matches_pure(rng, core):
    """The pure kernels on packed tables against the compiled kernels on
    the dense ones: every kernel output, and ``lam`` after the color loop,
    in every estimate mode."""
    kinds = ("sparse", "zero", "utility", "cost", "dense")
    modes = set()
    for trial in range(150):
        n = rng.randint(2, 12)
        L = rng.choice([2, 3, 4])
        eu, ev, mgr = [], [], []
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(range(n), 2)
            # parallel edges between one pair, with different managers
            for man in rng.sample([-1] + list(range(n)), rng.choice([1, 1, 3])):
                eu.append(u)
                ev.append(v)
                mgr.append(man)
        m = len(eu)
        ut, ct = _random_tables(rng, L, m, kinds if trial % 5 else ("zero",))
        nut = nct = None
        if trial % 2:
            nut = [tuple(rng.randint(0, 9) for _ in range(L))
                   if rng.random() < 0.6 else None for _ in range(n)]
            nct = [tuple(rng.randint(0, 9) for _ in range(L))
                   if rng.random() < 0.6 else None for _ in range(n)]
        k = rng.randint(1, 7)
        lam = _random_lam(rng, n, L, k)
        tables = pure.pack_tables(n, L, eu, ev, mgr, ut, ct)
        assert (pure.eval_potential(n, L, eu, ev, tables, nut, nct, lam, k)
                == core.eval_potential(n, L, eu, ev, ut, ct, nut, nct, lam, k))
        en, ed = rng.randint(1, 9), rng.randint(1, 8)
        assert (pure.edge_weights_for_step(n, L, eu, ev, tables, nut, nct,
                                           lam, k, en, ed)
                == core.edge_weights_for_step(n, L, eu, ev, ut, ct, nut, nct,
                                              lam, k, en, ed))
        colors = [rng.randrange(4) for _ in range(n)]
        dn, dd = rng.randint(1, 3), rng.randint(3, 100)
        mode = trial % 3
        modes.add(mode)
        lam2 = [list(r) for r in lam]
        assert (pure.rounding_color_loop(n, L, eu, ev, mgr, tables, nut, nct,
                                         lam, k, colors, dn, dd, en, ed, mode)
                == core.rounding_color_loop(n, L, eu, ev, mgr, ut, ct, nut,
                                            nct, lam2, k, colors, dn, dd, en,
                                            ed, mode))
        assert lam == lam2
    assert modes == {0, 1, 2}


def test_compiled_matches_pure_aligned(rng, core):
    for trial in range(60):
        n = rng.randint(2, 15)
        L = 2
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
        lam2 = [list(r) for r in lam]
        colors = [rng.randrange(4) for _ in range(n)]
        dn, dd = 1, rng.randint(1, 100)
        en, ed = rng.randint(1, 9), rng.randint(1, 8)
        mode = rng.choice([0, 1, 2])
        tables = pure.pack_tables(n, L, eu, ev, mgr, ut, ct)
        r1 = pure.rounding_color_loop(n, L, eu, ev, mgr, tables, None, None,
                                      lam, k, colors, dn, dd, en, ed, mode)
        r2 = core.rounding_color_loop(n, L, eu, ev, mgr, ut, ct, None, None,
                                      lam2, k, colors, dn, dd, en, ed, mode)
        assert lam == lam2 and r1 == r2


def test_pack_tables_keeps_nonzero_entries():
    ut = [(0, 0, 0, 5), (0, 0, 0, 5), (0, 0, 0, 0), (2, 0, 0, 0)]
    ct = [(0, 0, 0, 7), (0, 0, 0, 7), (0, 0, 0, 0), (0, 3, 0, 0)]
    t = pure.pack_tables(3, 2, [0, 1, 0, 2], [1, 2, 2, 0], [-1, 0, 1, -1],
                         ut, ct)
    assert t.entries == [((1, 1, 5, 7),), ((1, 1, 5, 7),), (),
                         ((0, 0, 2, 0), (0, 1, 0, 3))]
    assert t.entries[0] is t.entries[1]
    assert t.inc == [[2, -1, ((0, 2, 0),)],
                     [1, -1, ((1, 5, 7),), 2, -1, ((0, 0, 3),)],
                     (),
                     [0, -1, ((1, 5, 7),), 2, 0, ((1, 5, 7),)],
                     [0, -1, ((0, 2, 0), (1, 0, 3))],
                     [1, 0, ((1, 5, 7),)]]


def _table_kernel_calls(L, k, tables):
    """The three table kernels on two nodes joined by one edge, whose
    tables are ``tables``: the dense (ut, ct) for the raw compiled kernels,
    else one packing.  (name, arguments before lam, arguments after lam)."""
    head = (2, L, [0], [1])
    nodes = ([tuple(range(L)), None], [None, (1,) * L])
    return [
        ("eval_potential", head + tables + nodes, (k,)),
        ("edge_weights_for_step", head + tables + nodes, (k, 3, 2)),
        ("rounding_color_loop", head + ([-1],) + tables + nodes,
         (k, [0, 1], 1, 4, 3, 2, 0)),
    ]


def _check_fallback(core, L, ut, lam, k, raising):
    """The compiled kernels named in ``raising`` raise OverflowError, the
    others match the pure ones; the selected wrappers return the pure
    results, update ``lam`` alike, and build the pure packing of their
    dense tables only once a call falls back."""
    impl = _kernel.with_fallback(core)
    dense = ([ut], [(0,) * (L * L)])
    packed = impl.pack_tables(2, L, [0], [1], [-1], *dense)
    runs = [_table_kernel_calls(L, k, tables) for tables in (
        dense, (packed,), (pure.pack_tables(2, L, [0], [1], [-1], *dense),))]
    fell_back = False
    for (name, head, tail), (_, ihead, _), (_, phead, _) in zip(*runs):
        lam_pure = [list(r) for r in lam]
        want = getattr(pure, name)(*phead, lam_pure, *tail)
        if name in raising:
            with pytest.raises(OverflowError):
                getattr(core, name)(*head, [list(r) for r in lam], *tail)
        else:
            assert getattr(core, name)(*head, [list(r) for r in lam],
                                       *tail) == want
        lam_impl = [list(r) for r in lam]
        assert getattr(impl, name)(*ihead, lam_impl, *tail) == want
        assert lam_impl == lam_pure
        fell_back = fell_back or name in raising
        assert (packed._packed is not None) == fell_back


def test_compiled_falls_back_on_huge_table_entry(core):
    """A table entry of 2^63 passes the compiled 124-bit bound but not the
    cast to a 64-bit C integer."""
    ut = (1 << 63, 5, 7, (1 << 63) + 3)
    _check_fallback(core, 2, ut, [[1, 3], [3, 1]], 2,
                    {"eval_potential", "edge_weights_for_step",
                     "rounding_color_loop"})


def test_compiled_falls_back_on_many_odd_labels(core):
    """Ten odd labels at one node exceed the compiled loop's 8 slots."""
    row = [1] * 9 + [7]
    _check_fallback(core, 10, tuple(range(100)), [row, row], 4,
                    {"rounding_color_loop"})


def test_compiled_range_check_reaches_packed_pure(core):
    """Values at 2^-60 fail the compiled 124-bit bound; the range check
    inside the compiled kernels then reruns the call in the pure kernels
    on packed tables, without an OverflowError."""
    k = 60
    _check_fallback(core, 2, (3, 5, 7, 11),
                    [[1, (1 << k) - 1], [(1 << k) - 3, 3]], k, set())


def test_fallback_offers_every_pure_kernel(core):
    """Both backends honour one contract: every public callable of
    ``pure`` is a kernel of the compiled backend too."""
    impl = _kernel.with_fallback(core)
    missing = [name for name in dir(pure) if not name.startswith("_")
               and callable(getattr(pure, name)) and not hasattr(impl, name)]
    assert missing == []
    assert impl.edge_agreements is pure.edge_agreements
