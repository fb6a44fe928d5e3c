"""The Reed-Solomon kernels settle color pairs that differ only in their
two lowest base-q digits, and evaluate colors below q^2, in closed form.
They must agree with the digit-list walk of ``rs_walk.py`` on every input:
the same agreements, the same cache contents but for the closed-form pairs,
which the kernel does not cache, the same new colors and estimate bits, or
the same exception."""

import random

from locround._kernel import pure
import rs_walk

# (q, d) pairs on both sides of poly_roots' brute-force bound q <= 512
PLANS = ((2, 1), (3, 1), (29, 2), (13, 3), (101, 1), (109, 9), (521, 2),
         (1009, 3), (13829, 4))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _coloring(rng, n, q, d):
    """Colors in the kernels' domain [0, q^(d+1)): colors with 1, 2, 3 and
    d + 1 base-q digits, the boundaries q - 1, q, q^2 - 1 and q^2, and
    colors that share all digits but the lowest one or two with an earlier
    color."""
    classes = sorted({1, 2, min(3, d + 1), d + 1})
    colors = [c for c in (q - 1, q, q * q - 1, q * q) if c < q ** (d + 1)]
    while len(colors) < n:
        r = rng.random()
        if r < 0.3 and colors:
            c = rng.choice(colors)
            colors.append(c - c % q + rng.randrange(q))
        elif r < 0.5 and colors:
            c = rng.choice(colors)
            colors.append(c - c % (q * q) + rng.randrange(q * q))
        else:
            k = rng.choice(classes)
            colors.append(rng.randrange(q ** (k - 1) if k > 1 else 0, q ** k))
    rng.shuffle(colors)
    return colors


def _edges(rng, n, m):
    eu, ev = [], []
    while len(eu) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            eu.append(u)
            ev.append(v)
    return eu, ev


def _higher(cache, q):
    """The entries of ``cache`` whose pairs differ above the lowest two
    base-q digits: those that take ``poly_roots``."""
    return {key: z for key, z in cache.items()
            if key[0] // (q * q) != key[1] // (q * q)}


def test_agreements_and_steps_match_the_digit_walk():
    rng = random.Random(21)
    routes = {"equal": 0, "constant": 0, "linear": 0, "higher": 0}
    for q, d in PLANS:
        for trial in range(4):
            n = rng.randint(6, 40)
            eu, ev = _edges(rng, n, rng.randint(1, 3 * n))
            mgr = [rng.randrange(-1, n) for _ in eu]
            w = [rng.choice((0, 1, 2, 7, 1 << 20)) for _ in eu]
            colorings = [_coloring(rng, n, q, d) for _ in range(3)]
            # one fresh cache per walk, then one cache shared by a
            # sequence of walks, then each side reading the other's cache
            shared_old, shared_new = {}, {}
            for colors in colorings:
                for u, v in zip(eu, ev):
                    a, b = sorted((colors[u], colors[v]))
                    routes["equal" if a == b else "constant" if a // q == b // q
                           else "linear" if a // (q * q) == b // (q * q)
                           else "higher"] += 1
                fresh_old, fresh_new = {}, {}
                want = rs_walk.edge_agreements(eu, ev, colors, q, d, fresh_old)
                assert pure.edge_agreements(eu, ev, colors, q, d,
                                            fresh_new) == want
                assert fresh_new == _higher(fresh_old, q)
                assert rs_walk.edge_agreements(eu, ev, colors, q, d,
                                               shared_old) == want
                assert pure.edge_agreements(eu, ev, colors, q, d,
                                            shared_new) == want
                assert shared_new == _higher(shared_old, q)
                assert pure.edge_agreements(eu, ev, colors, q, d,
                                            dict(fresh_old)) == want
                assert rs_walk.edge_agreements(eu, ev, colors, q, d,
                                               dict(fresh_new)) == want

                assert (_outcome(pure.rs_proper_step, n, eu, ev, colors, q,
                                 d, want)
                        == _outcome(rs_walk.rs_proper_step, n, eu, ev, colors,
                                    q, d, want))
                for factor2 in (False, True):
                    assert (_outcome(pure.rs_defective_step, n, eu, ev, mgr,
                                     w, colors, q, d, factor2, want)
                            == _outcome(rs_walk.rs_defective_step, n, eu, ev,
                                        mgr, w, colors, q, d, factor2, want))
    assert min(routes.values()) > 0, routes


def test_steps_on_a_proper_palette_match_the_digit_walk():
    """Steps whose palette is large enough that ``rs_proper_step`` finds a
    free candidate at every node, on colors below and above q^2."""
    rng = random.Random(2021)
    n = 30
    eu, ev = _edges(rng, n, 40)
    deg = max(sum(1 for x in eu + ev if x == v) for v in range(n))
    for q, d in ((29, 2), (109, 9), (521, 2), (13829, 4)):
        assert q > d * deg
        for top in (q * q, q ** (d + 1)):
            colors = []
            while len(colors) < n:
                c = rng.randrange(top)
                if c not in colors:
                    colors.append(c)
            agree = pure.edge_agreements(eu, ev, colors, q, d, {})
            got = pure.rs_proper_step(n, eu, ev, colors, q, d, agree)
            assert got == rs_walk.rs_proper_step(n, eu, ev, colors, q, d,
                                                 agree)
            assert len(set(got[u] for u in range(n))) > 1
            assert all(got[u] != got[v] for u, v in zip(eu, ev))
