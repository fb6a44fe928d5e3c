"""Command-line entry point.

Subcommands: generate, mis, matching, wis, setcover, color, round, oracle,
verify.  Every runner echoes its configuration into the output JSON and the
``verify`` subcommand recomputes all certificates from the instance file,
independent of the runner's own assertions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction

from . import coloring as _coloring
from . import graph as _graph
from . import indepset as _indepset
from . import mis as _mis
from . import oracle as _oracle
from . import rounding as _rounding
from . import setcover as _setcover
from . import sim as _sim


class UsageError(ValueError):
    """An option value outside the range its algorithm accepts."""


def _frac(s):
    return Fraction(s)


def _frac_str(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _emit(args, payload):
    payload["config"] = {k: v for k, v in vars(args).items()
                         if k not in ("func",) and v is not None}
    for k, v in list(payload["config"].items()):
        if isinstance(v, Fraction):
            payload["config"][k] = _frac_str(v)
    text = json.dumps(payload, sort_keys=True, indent=1, default=str)
    payload["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    text = json.dumps(payload, sort_keys=True, indent=1, default=str)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def _engine_for(g, args):
    return _sim.RoundEngine(g, mode=args.mode, bit_budget=args.bit_budget,
                            strict=args.strict_budget)


def _load_weighted(path):
    g = _graph.load_graph(path, "edge-list")
    if isinstance(g, _graph.WeightedGraph):
        return g
    return _graph.WeightedGraph(g, {v: 1 for v in g.nodes})


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def generate_graph(n, max_degree, seed, weight_max=1):
    """Seeded random graph text with a degree cap; deterministic per seed."""
    rng = random.Random(seed)
    nodes = list(range(1, n + 1))
    deg = {v: 0 for v in nodes}
    lines = []
    seen = set()
    if weight_max > 1:
        for v in nodes:
            lines.append(f"n {v} {rng.randint(1, weight_max)}")
    else:
        for v in nodes:
            lines.append(f"n {v} 1")
    if n >= 2:
        attempts = 3 * n * max(1, max_degree)
        for _ in range(attempts):
            u, v = rng.sample(nodes, 2)
            if deg[u] >= max_degree or deg[v] >= max_degree:
                continue
            a, b = min(u, v), max(u, v)
            line = f"{a} {b}"
            if line not in seen:
                seen.add(line)
                lines.append(line)
                deg[u] += 1
                deg[v] += 1
    return "\n".join(lines) + ("\n" if lines else "")


def generate_setcover(n_elements, n_sets, t_cap, s_cap, seed, weight_max=1):
    rng = random.Random(seed)
    els = list(range(1, n_elements + 1))
    sets_ = list(range(n_elements + 1, n_elements + n_sets + 1))
    lines = [f"e {u}" for u in els]
    for v in sets_:
        if weight_max > 1:
            lines.append(f"s {v} {rng.randint(1, weight_max)}")
        else:
            lines.append(f"s {v}")
    deg_s = {v: 0 for v in sets_}
    for u in els:
        k = rng.randint(1, max(1, t_cap))
        cands = [v for v in sets_ if deg_s[v] < s_cap] or sets_
        for v in rng.sample(cands, min(k, len(cands))):
            lines.append(f"c {u} {v}")
            deg_s[v] += 1
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args):
    if args.kind == "graph":
        text = generate_graph(args.n, args.max_degree, args.seed, args.weight_max)
    else:
        text = generate_setcover(args.n, args.sets, args.t_cap, args.s_cap,
                                 args.seed, args.weight_max)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.output}")
    return 0


def cmd_mis(args):
    wg = _load_weighted(args.input)
    g = wg.graph
    if args.baseline is not None:
        out, iters = _mis.luby_randomized_baseline(g, args.baseline)
        return _emit(args, {"algorithm": "mis-baseline", "set": out,
                            "iterations": iters, "input": args.input})
    engine = _engine_for(g, args)
    out, metrics, info = _mis.mis(g, mode=args.mode, engine=engine)
    return _emit(args, {
        "algorithm": "mis", "input": args.input, "set": out,
        "iterations": info["iterations"],
        "removed_ratios": [[er, eb] for (er, eb) in info["ratios"]],
        "metrics": metrics.to_json(),
    })


def cmd_matching(args):
    wg = _load_weighted(args.input)
    engine = _engine_for(wg.graph, args)
    M, metrics, iters = _indepset.maximal_matching(wg.graph, mode=args.mode,
                                                   engine=engine)
    return _emit(args, {
        "algorithm": "matching", "input": args.input,
        "matching": [list(p) for p in M], "iterations": iters,
        "metrics": metrics.to_json(),
    })


def _check_range(option, value, hi, closed, context=""):
    """Raises ``UsageError`` unless ``value`` lies in (0, hi], or in
    (0, hi) when the upper end is not ``closed``."""
    if not (0 < value and (value <= hi if closed else value < hi)):
        raise UsageError(f"{option} {value} is outside "
                         f"(0, {hi}{']' if closed else ')'}{context}")


# the --eps range of each wis algorithm: (upper end, whether it is included);
# every range is open at 0.  basic and carowei round with a (1/2 - eps)
# factor; beta and turan run the local-ratio ladder to (1 - eps).  lp4
# runs at its own fixed eps and takes no --eps.
WIS_EPS = {"basic": (Fraction(1, 2), True), "carowei": (Fraction(1, 2), True),
           "beta": (Fraction(1), False), "turan": (Fraction(1), False)}
WIS_EPS_DEFAULT = Fraction(1, 10)
LP4_EPS = Fraction(1, 5)


def cmd_wis(args):
    if args.algo == "lp4":
        if args.eps is not None:
            raise UsageError(f"--algo lp4 runs at eps = {LP4_EPS} and takes "
                             f"no --eps")
        args.eps = LP4_EPS
    elif args.eps is None:
        args.eps = WIS_EPS_DEFAULT
    else:
        _check_range("--eps", args.eps, *WIS_EPS[args.algo],
                     f" for --algo {args.algo}")
    eps = args.eps
    wg = _load_weighted(args.input)
    engine = _engine_for(wg.graph, args)
    cert = {}
    if args.algo == "basic":
        x = {v: Fraction(1, wg.graph.max_degree() + 1) for v in wg.graph.nodes}
        I, u0 = _indepset.basic_is_round(wg.graph, wg.weights, x, eps,
                                         engine=engine, mode=args.mode)
        cert["u_of_x"] = _frac_str(u0)
        cert["bound"] = _frac_str((Fraction(1, 2) - eps) * u0)
    elif args.algo == "lp4":
        I, sstar = _indepset.lp_guided_is(wg, eps=eps, engine=engine,
                                          mode=args.mode)
        cert["s_star"] = _frac_str(sstar)
        cert["bound"] = _frac_str(sstar / 4)
    elif args.algo == "beta":
        I, sstar, ups = _indepset.beta_approx_is(wg, eps, engine=engine,
                                                 mode=args.mode)
        cert["s_star"] = _frac_str(sstar)
        cert["bound"] = _frac_str((1 - eps) * sstar)
    elif args.algo == "turan":
        I = _indepset.turan_fraction_is(wg, eps, engine=engine, mode=args.mode)
        bound = (1 - eps) * Fraction(wg.total_weight(),
                                     wg.graph.max_degree() + 1)
        cert["bound"] = _frac_str(bound)
    elif args.algo == "carowei":
        I = _indepset.caro_wei_is(wg, eps, engine=engine, mode=args.mode)
        mass = sum(Fraction(wg.weights[v] ** 2,
                            wg.weights[v] + sum(wg.weights[u]
                                                for u in wg.graph.neighbors(v)))
                   for v in wg.graph.nodes)
        cert["bound"] = _frac_str((Fraction(1, 2) - eps) * mass)
    else:
        raise SystemExit(f"unknown --algo {args.algo}")
    weight = sum(wg.weights[v] for v in I)
    return _emit(args, {
        "algorithm": f"wis-{args.algo}", "input": args.input, "set": list(I),
        "weight": weight, "certificate": cert,
        "metrics": engine.metrics.to_json(),
    })


def _load_cover(path, from_dominating_set):
    if not from_dominating_set:
        return _graph.load_graph(path, "setcover")
    g = _graph.load_graph(path, "edge-list")
    if isinstance(g, _graph.WeightedGraph):
        g = g.graph
    return _setcover.from_dominating_set(g)[0]


def cmd_setcover(args):
    inst = _load_cover(args.input, args.from_dominating_set)
    cost_mode = "weighted" if args.weighted else "unit"
    V, metrics, info = _setcover.set_cover(inst, mode=args.mode,
                                           cost_mode=cost_mode,
                                           backend=args.backend)
    return _emit(args, {
        "algorithm": "setcover", "input": args.input, "sets": V,
        "tau": info["tau"], "opt_bound": _frac_str(info["opt_bound"]),
        "phi": [_frac_str(p) for p in info["phi"]],
        "uncovered": info["uncovered"],
        "metrics": metrics.to_json(),
    })


def cmd_color(args):
    _check_range("--delta", args.delta, Fraction(1), True)
    wg = _load_weighted(args.input)
    g = wg.graph
    w = {e.index: Fraction(1) for e in g.edges}
    engine = _engine_for(g, args)
    if args.color_mode == "proper":
        pc = _coloring.linial_coloring(g, engine=engine)
        out = {"colors": {str(v): c for v, c in pc.colors.items()},
               "palette": pc.palette_size, "kind": "proper"}
    elif args.color_mode == "defective":
        dc = _coloring.weighted_defective_coloring(g, w, args.delta,
                                                   engine=engine)
        out = _defective_json(dc)
    elif args.color_mode == "avgdefective":
        dc = _coloring.average_defective_coloring(g, w, args.delta,
                                                  engine=engine)
        out = _defective_json(dc)
    elif args.color_mode == "greedy-oracle":
        dc = _coloring.greedy_defective_oracle(g, w, args.delta, engine=engine)
        out = _defective_json(dc)
    else:
        raise SystemExit(f"unknown --mode {args.color_mode}")
    out["input"] = args.input
    out["metrics"] = engine.metrics.to_json()
    out["algorithm"] = "color"
    return _emit(args, out)


def _defective_json(dc):
    cert = {}
    if "mono_weight" in dc.certificate:
        cert = {"mono": _frac_str(dc.certificate["mono_weight"]),
                "total": _frac_str(dc.certificate["total_weight"])}
    return {"colors": {str(v): c for v, c in dc.colors.items()},
            "palette": dc.palette_size, "kind": dc.defect_kind,
            "delta": _frac_str(dc.relative_defect), "certificate": cert}


def cmd_round(args):
    # eps = 0 leaves preprocessing no room to move a value onto a grid
    _check_range("--eps", args.eps, Fraction(1), True)
    _check_range("--mu", args.mu, Fraction(1), True)
    g, val, lam = _load_rounding_instance(args.valuation)
    engine = _engine_for(g, args)
    estimate = "quantized" if args.mode == _sim.CONGEST else "exact"
    prep = _rounding._Prepared(g, val)
    U, C = prep.potential(lam.values)
    ell, (Uf, Cf) = _rounding.round_fractional(
        g, val, lam.values, args.eps, args.mu, val.nlabels,
        estimate_mode=estimate, engine=engine, prep=prep, uc_raw=(U, C))
    return _emit(args, {
        "algorithm": "round", "input": args.valuation,
        "eps": _frac_str(args.eps),
        "labels": {str(v): a for v, a in ell.items()},
        "fractional_u": _frac_str(U), "fractional_c": _frac_str(C),
        "final_u": _frac_str(Uf), "final_c": _frac_str(Cf),
        "guarantee_ok": Uf - Cf >= (1 - args.eps) * (U - C),
        "metrics": engine.metrics.to_json(),
    })


def _load_rounding_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    L = doc["labels"]
    nodes = [int(v) for v in doc["nodes"]]
    edges = []
    eu, ec = {}, {}
    for i, e in enumerate(doc["edges"]):
        kind = _graph.VIRTUAL if e.get("manager") is not None else _graph.PHYSICAL
        edges.append(_graph.Edge(int(e["u"]), int(e["v"]), kind,
                                 e.get("manager"), i))
        eu[i] = e["utility"]
        ec[i] = e["cost"]
    g = _graph.Multigraph(nodes, edges)
    nut = {int(v): row for v, row in doc.get("node_utility", {}).items()}
    nct = {int(v): row for v, row in doc.get("node_cost", {}).items()}
    val = _rounding.Valuation.from_fractions(L, eu, ec, node_utility=nut,
                                             node_cost=nct)
    lam = _rounding.FractionalAssignment.from_fractions(
        L, {int(v): tuple(Fraction(x) for x in row)
            for v, row in doc["assignment"].items()})
    return g, val, lam


def cmd_oracle(args):
    if args.oracle == "wis":
        wg = _load_weighted(args.input)
        opt, wit = _oracle.brute_max_weight_is(wg)
        return _emit(args, {"oracle": "wis", "opt": int(opt), "witness": wit})
    if args.oracle == "setcover":
        inst = _graph.load_graph(args.input, "setcover")
        opt, wit = _oracle.brute_set_cover_opt(inst, weighted=args.weighted)
        return _emit(args, {"oracle": "setcover", "opt": int(opt),
                            "witness": wit})
    if args.oracle == "lp":
        wg = _load_weighted(args.input)
        sstar, x = _oracle.packing_lp(wg)
        return _emit(args, {"oracle": "lp", "s_star": _frac_str(sstar),
                            "x": {str(v): _frac_str(xv) for v, xv in x.items()}})
    if args.oracle == "beta":
        wg = _load_weighted(args.input)
        return _emit(args, {"oracle": "beta",
                            "beta": _oracle.neighborhood_independence(wg.graph)})
    raise SystemExit(f"unknown oracle {args.oracle}")


def cmd_verify(args):
    with open(args.report, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    algo = doc.get("algorithm", "")
    checks = {}
    inp = doc.get("input") or doc.get("config", {}).get("input")
    if algo in ("mis", "mis-baseline"):
        wg = _load_weighted(inp)
        S = doc["set"]
        checks["independent"] = _oracle.is_independent(wg.graph, S)
        checks["maximal"] = _oracle.is_maximal_is(wg.graph, S)
    elif algo == "matching":
        wg = _load_weighted(inp)
        index = {(min(e.u, e.v), max(e.u, e.v)): e.index
                 for e in wg.graph.edges}
        ids = [index[tuple(sorted(p))] for p in doc["matching"]]
        checks["matching"] = _oracle.is_matching(wg.graph, ids)
        checks["maximal"] = _oracle.is_maximal_matching(wg.graph, ids)
    elif algo.startswith("wis"):
        wg = _load_weighted(inp)
        S = doc["set"]
        checks["independent"] = _oracle.is_independent(wg.graph, S)
        bound = Fraction(doc["certificate"]["bound"])
        checks["weight_bound"] = sum(wg.weights[v] for v in S) >= bound
    elif algo == "setcover":
        inst = _load_cover(inp, doc.get("config", {}).get(
            "from_dominating_set", False))
        checks["covers"] = _oracle.covers(inst, doc["sets"])
        phi = [Fraction(p) for p in doc["phi"]]
        checks["phi_monotone"] = all(phi[i + 1] <= phi[i]
                                     for i in range(len(phi) - 1))
    elif algo == "round":
        g, val, lam = _load_rounding_instance(inp)
        prep = _rounding._Prepared(g, val)
        U, C = prep.potential(lam.values)
        checks["fractional_uc"] = (Fraction(doc["fractional_u"]) == U
                                   and Fraction(doc["fractional_c"]) == C)
        ell = {int(v): a for v, a in doc["labels"].items()}
        checks["labels"] = (sorted(ell) == sorted(g.nodes) and all(
            a in range(val.nlabels) for a in ell.values()))
        if checks["labels"]:
            Uf, Cf = prep.potential(
                _rounding.FractionalAssignment.integral(val.nlabels, ell))
            checks["final_uc"] = (Fraction(doc["final_u"]) == Uf
                                  and Fraction(doc["final_c"]) == Cf)
            eps = Fraction(doc["eps"])
            checks["guarantee"] = Uf - Cf >= (1 - eps) * (U - C)
    elif algo == "color":
        wg = _load_weighted(inp)
        g = wg.graph
        colors = {int(v): c for v, c in doc["colors"].items()}
        w = {e.index: Fraction(1) for e in g.edges}
        if doc["kind"] == "proper":
            checks["proper"] = _coloring.check_proper(g, colors)
        else:
            ok, _cert = _coloring.defect_certificate(
                g, w, colors, Fraction(doc["delta"]), doc["kind"])
            checks["defect"] = ok
    else:
        raise SystemExit(f"cannot verify algorithm {algo!r}")
    ok = all(checks.values())
    print(json.dumps({"ok": ok, "checks": checks}, sort_keys=True))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(prog="locround")
    ap.add_argument("--mode", choices=[_sim.LOCAL, _sim.CONGEST],
                    default=_sim.LOCAL)
    ap.add_argument("--bit-budget", type=int, default=None)
    ap.add_argument("--strict-budget", action="store_true")
    ap.add_argument("--json", default=None, help="write the report here")
    sub = ap.add_subparsers(required=True)

    p = sub.add_parser("generate")
    p.add_argument("kind", choices=["graph", "setcover"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--sets", type=int, default=8)
    p.add_argument("--t-cap", type=int, default=3)
    p.add_argument("--s-cap", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weight-max", type=int, default=1)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("mis")
    p.add_argument("--input", required=True)
    p.add_argument("--baseline", type=int, default=None,
                   help="run the seeded randomized baseline instead")
    p.set_defaults(func=cmd_mis)

    p = sub.add_parser("matching")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_matching)

    p = sub.add_parser("wis")
    p.add_argument("--input", required=True)
    p.add_argument("--algo", choices=["basic", "lp4", "beta", "turan",
                                      "carowei"], required=True)
    p.add_argument("--eps", type=_frac, default=None,
                   help="default 1/10; lp4 runs at 1/5 and takes none")
    p.set_defaults(func=cmd_wis)

    p = sub.add_parser("setcover")
    p.add_argument("--input", required=True)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--backend", choices=["central-exact", "central-approx"],
                   default="central-exact")
    p.add_argument("--from-dominating-set", action="store_true")
    p.set_defaults(func=cmd_setcover)

    p = sub.add_parser("color")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=_frac, default=Fraction(1, 2))
    p.add_argument("--color-mode", dest="color_mode",
                   choices=["proper", "defective", "avgdefective",
                            "greedy-oracle"], default="defective")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("round")
    p.add_argument("--valuation", required=True,
                   help="JSON instance: graph, tables, assignment")
    p.add_argument("--eps", type=_frac, default=Fraction(1, 10))
    p.add_argument("--mu", type=_frac, default=Fraction(1, 2))
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("oracle")
    p.add_argument("oracle", choices=["wis", "setcover", "lp", "beta"])
    p.add_argument("--input", required=True)
    p.add_argument("--weighted", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify")
    p.add_argument("report")
    p.set_defaults(func=cmd_verify)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (_graph.GraphFormatError, OSError, UsageError) as exc:
        # a bad input, a file that cannot be opened or an option value out
        # of range: one line and the usage status, as argparse gives for a
        # bad argument
        print(f"locround: error: {exc}", file=sys.stderr)
        return 2
    except _sim.BudgetExceeded as exc:
        # a run that broke its --strict-budget: a failed check, status 1
        print(f"locround: bit budget exceeded: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
