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


def test_compiled_matches_pure(rng, core):
    for trial in range(60):
        n = rng.randint(2, 15)
        L = rng.choice([2, 3])
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
        ut = [tuple(rng.randint(0, 40) for _ in range(L * L)) for _ in range(m)]
        ct = [tuple(rng.randint(0, 40) for _ in range(L * L)) for _ in range(m)]
        nut = nct = None
        if rng.random() < 0.5:
            nut = [tuple(rng.randint(0, 9) for _ in range(L))
                   if rng.random() < 0.6 else None for _ in range(n)]
            nct = [tuple(rng.randint(0, 9) for _ in range(L))
                   if rng.random() < 0.6 else None for _ in range(n)]
        lam = []
        for _v in range(n):
            cuts = sorted(rng.randint(0, tot) for _ in range(L - 1))
            nums, prev = [], 0
            for cpt in cuts:
                nums.append(cpt - prev)
                prev = cpt
            nums.append(tot - prev)
            lam.append(list(nums))
        lam2 = [list(r) for r in lam]
        assert (pure.eval_potential(n, L, eu, ev, ut, ct, nut, nct, lam, k)
                == core.eval_potential(n, L, eu, ev, ut, ct, nut, nct, lam, k))
        en, ed = rng.randint(1, 9), rng.randint(1, 8)
        assert (pure.edge_weights_for_step(n, L, eu, ev, ut, ct, nut, nct,
                                           lam, k, en, ed)
                == core.edge_weights_for_step(n, L, eu, ev, ut, ct, nut, nct,
                                              lam, k, en, ed))
        colors = [rng.randrange(4) for _ in range(n)]
        mode = rng.choice([0, 1, 2])
        r1 = pure.rounding_color_loop(n, L, eu, ev, mgr, ut, ct, nut, nct,
                                      lam, k, colors, 1, rng.randint(1, 100),
                                      en, ed, mode)
        r2 = core.rounding_color_loop(n, L, eu, ev, mgr, ut, ct, nut, nct,
                                      lam2, k, colors, 1, 1, en, ed, mode)
        # different delta only affects quantized estimates; rerun aligned
        if mode != 2:
            assert lam == lam2


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
        r1 = pure.rounding_color_loop(n, L, eu, ev, mgr, ut, ct, None, None,
                                      lam, k, colors, dn, dd, en, ed, mode)
        r2 = core.rounding_color_loop(n, L, eu, ev, mgr, ut, ct, None, None,
                                      lam2, k, colors, dn, dd, en, ed, mode)
        assert lam == lam2 and r1 == r2


def _table_kernel_calls(L, ut, k):
    """The three table kernels on two nodes joined by one edge with utility
    table ``ut``: (name, arguments before lam, arguments after lam)."""
    head = (2, L, [0], [1])
    tables = ([ut], [(0,) * (L * L)], [tuple(range(L)), None],
              [None, (1,) * L])
    return [
        ("eval_potential", head + tables, (k,)),
        ("edge_weights_for_step", head + tables, (k, 3, 2)),
        ("rounding_color_loop", head + ([-1],) + tables,
         (k, [0, 1], 1, 4, 3, 2, 0)),
    ]


def _check_fallback(core, L, ut, lam, k, raising):
    """The compiled kernels named in ``raising`` raise OverflowError; the
    selected wrappers return the pure results and update ``lam`` alike."""
    impl = _kernel.with_fallback(core)
    for name, head, tail in _table_kernel_calls(L, ut, k):
        if name in raising:
            with pytest.raises(OverflowError):
                getattr(core, name)(*head, [list(r) for r in lam], *tail)
        lam_pure = [list(r) for r in lam]
        lam_impl = [list(r) for r in lam]
        assert (getattr(impl, name)(*head, lam_impl, *tail)
                == getattr(pure, name)(*head, lam_pure, *tail))
        assert lam_impl == lam_pure


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
