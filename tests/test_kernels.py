import importlib.util
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
