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
import math
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
    try:
        return Fraction(s)
    except ZeroDivisionError:
        # argparse reports only TypeError, ValueError and this as usage
        raise argparse.ArgumentTypeError(
            f"{s} has a zero denominator") from None


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
    out, metrics, info = _mis.mis(g, engine=engine)
    return _emit(args, {
        "algorithm": "mis", "input": args.input, "set": out,
        "iterations": info["iterations"],
        "removed_ratios": [[er, eb] for (er, eb) in info["ratios"]],
        "metrics": metrics.to_json(),
    })


def cmd_matching(args):
    wg = _load_weighted(args.input)
    engine = _engine_for(wg.graph, args)
    M, metrics, iters = _indepset.maximal_matching(wg.graph, engine=engine)
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
                                         engine)
        cert["u_of_x"] = _frac_str(u0)
        cert["bound"] = _frac_str((Fraction(1, 2) - eps) * u0)
    elif args.algo == "lp4":
        I, sstar = _indepset.lp_guided_is(wg, eps=eps, engine=engine)
        cert["s_star"] = _frac_str(sstar)
        cert["bound"] = _frac_str(sstar / 4)
    elif args.algo == "beta":
        I, sstar, ups = _indepset.beta_approx_is(wg, eps, engine=engine)
        cert["s_star"] = _frac_str(sstar)
        cert["bound"] = _frac_str((1 - eps) * sstar)
    elif args.algo == "turan":
        I = _indepset.turan_fraction_is(wg, eps, engine=engine)
        bound = (1 - eps) * Fraction(wg.total_weight(),
                                     wg.graph.max_degree() + 1)
        cert["bound"] = _frac_str(bound)
    elif args.algo == "carowei":
        I = _indepset.caro_wei_is(wg, eps, engine=engine)
        mass = sum(Fraction(wg.weights[v] ** 2,
                            wg.weights[v] + sum(wg.weights[u]
                                                for u in wg.graph.neighbors(v)))
                   for v in wg.graph.nodes)
        cert["bound"] = _frac_str((Fraction(1, 2) - eps) * mass)
    else:
        raise SystemExit(f"unknown --algo {args.algo}")
    weight = sum(wg.weights[v] for v in I)
    engine.metrics.objective = Fraction(weight)
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
    engine = _engine_for(_setcover.network_nodes(inst), args)
    cost_mode = "weighted" if args.weighted else "unit"
    V, metrics, info = _setcover.set_cover(inst, cost_mode=cost_mode,
                                           backend=args.backend,
                                           engine=engine)
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
        dc = _coloring.weighted_defective_coloring(g, w, args.delta, engine)
        out = _defective_json(dc)
    elif args.color_mode == "avgdefective":
        dc = _coloring.average_defective_coloring(g, w, args.delta, engine)
        out = _defective_json(dc)
    else:   # greedy-oracle
        dc = _coloring.greedy_defective_oracle(g, w, args.delta)
        # the reference oracle colors the nodes one at a time, centrally
        engine.metrics.oracle_assisted = True
        out = _defective_json(dc)
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
    prep = _rounding._Prepared(g, val)
    U, C = prep.potential(lam)
    if U - C < args.mu * U:
        # the rounding's precondition u - c >= mu*u, checked before the run
        raise UsageError(f"--mu {args.mu} is above the input's margin: "
                         f"u - c = {U - C} < mu*u = {args.mu * U}")
    ell, (Uf, Cf) = _rounding.round_fractional(
        prep, lam, args.eps, args.mu, engine, uc_raw=(U, C))
    return _emit(args, {
        "algorithm": "round", "input": args.valuation,
        "eps": _frac_str(args.eps),
        "labels": {str(v): a for v, a in ell.items()},
        "fractional_u": _frac_str(U), "fractional_c": _frac_str(C),
        "final_u": _frac_str(Uf), "final_c": _frac_str(Cf),
        "guarantee_ok": Uf - Cf >= (1 - args.eps) * (U - C),
        "metrics": engine.metrics.to_json(),
    })


class _JSONObject(dict):
    """An object of the JSON file ``path``: a key it lacks is a format
    error that names the file and the key."""

    def __init__(self, path, items):
        super().__init__(items)
        self.path = path

    def __missing__(self, key):
        raise _graph.GraphFormatError(f"{self.path}: missing key {key!r}")


def _load_json(path):
    """The JSON document in ``path``; a file that does not hold one is a
    format error, and so is reading a key one of its objects lacks."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_hook=lambda d: _JSONObject(path, d))
        except ValueError as exc:
            raise _graph.GraphFormatError(
                f"{path}: not a JSON document: {exc}") from None


# the JSON type of each Python type json.load returns for one
_JSON_TYPES = {dict: "object", list: "array", str: "string"}


def _typed(path, what, value, kind):
    """``value``, read as ``what`` of the JSON file ``path``; a value that
    is not of the JSON type of ``kind`` is a format error naming it."""
    if not isinstance(value, kind):
        raise _graph.GraphFormatError(
            f"{path}: {what} is not a JSON {_JSON_TYPES[kind]}")
    return value


def _node_id(path, what, x):
    """``x``, read as the node id ``what`` of the JSON file ``path``: an
    integer, or the decimal string of one, as object keys are."""
    if type(x) in (int, str):
        try:
            return int(x)
        except ValueError:
            pass
    raise _graph.GraphFormatError(f"{path}: {what} is not an integer: {x!r}")


def _ids(path, what, value):
    """``value``, read as ``what`` of the JSON file ``path``: an array of
    integer ids, each read by ``_node_id``."""
    return [_node_id(path, f"an id of {what}", x)
            for x in _typed(path, what, value, list)]


def _rational(path, where, x):
    """``x``, read as ``where`` of the JSON file ``path``: a rational, a
    number or a string such as "1/3"."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise _graph.GraphFormatError(f"{path}: {where}: {exc}") from None


def _rationals(path, where, row, L):
    """``row``, read as ``where`` of the JSON file ``path``: an array of
    L non-negative rationals, each read by ``_rational``."""
    if not isinstance(row, list):
        raise _graph.GraphFormatError(f"{path}: {where}: not a JSON array")
    if len(row) != L:
        raise _graph.GraphFormatError(
            f"{path}: {where}: {len(row)} values, not {L}")
    fr = [_rational(path, where, x) for x in row]
    if min(fr) < 0:
        raise _graph.GraphFormatError(f"{path}: {where}: negative value")
    return fr


def _load_rounding_instance(path):
    """The graph, the integer ``Valuation`` and the raw assignment rows of
    the ``round`` instance in ``path``.  Every row is read by
    ``_rationals``; the valuation is built at the lcm of the denominators
    of its tables, and an assignment row at the lcm of its own."""
    doc = _typed(path, "the document", _load_json(path), dict)
    L = doc["labels"]
    if type(L) is not int or L < 1:
        raise _graph.GraphFormatError(
            f"{path}: key 'labels' is not a positive integer: {L!r}")
    nodes = [_node_id(path, "a node of key 'nodes'", v)
             for v in _typed(path, "key 'nodes'", doc["nodes"], list)]
    node_set = set(nodes)
    edges = []
    tables = [{}, {}, {}, {}]
    for i, e in enumerate(_typed(path, "key 'edges'", doc["edges"], list)):
        manager = _typed(path, f"edge {i}", e, dict).get("manager")
        kind = _graph.PHYSICAL
        if manager is not None:
            # a virtual edge is simulated by its manager, a node of the
            # instance
            kind = _graph.VIRTUAL
            manager = _node_id(path, f"edge {i}: manager", manager)
            if manager not in node_set:
                raise _graph.GraphFormatError(
                    f"{path}: edge {i}: manager {manager} is not a node")
        edges.append(_graph.Edge(_node_id(path, f"edge {i}: key 'u'", e["u"]),
                                 _node_id(path, f"edge {i}: key 'v'", e["v"]),
                                 kind, manager, i))
        for key, t in zip(("utility", "cost"), tables):
            where = f"edge {i}: key {key!r}"
            rows = _typed(path, where, e[key], list)
            if len(rows) != L:
                raise _graph.GraphFormatError(
                    f"{path}: {where}: {len(rows)} rows, not {L}")
            t[i] = [x for a, row in enumerate(rows)
                    for x in _rationals(path, f"{where}: row {a}", row, L)]
    g = _graph.Multigraph(nodes, edges)
    lam = {}
    for key, t in zip(("node_utility", "node_cost", "assignment"),
                      (*tables[2:], lam)):
        doc_rows = doc[key] if t is lam else doc.get(key, {})
        for v, row in _typed(path, f"key {key!r}", doc_rows, dict).items():
            v = _node_id(path, f"a node of key {key!r}", v)
            if v not in node_set:
                raise _graph.GraphFormatError(
                    f"{path}: key {key!r}: {v} is not a node")
            t[v] = _rationals(path, f"assignment of node {v}" if t is lam
                              else f"key {key!r}: node {v}", row, L)
    for v in g.nodes:
        if v not in lam:
            raise _graph.GraphFormatError(f"{path}: node {v} has no "
                                          f"assignment row")
        fr = lam[v]
        if sum(fr) != 1:
            raise _graph.GraphFormatError(f"{path}: assignment of node {v}: "
                                          f"values sum to {sum(fr)}, not 1")
        lam[v] = _numerators(fr, math.lcm(*(x.denominator for x in fr)))
    scale = math.lcm(*(x.denominator for t in tables for row in t.values()
                       for x in row))
    return g, _rounding.Valuation(
        L, *({key: _numerators(row, scale) for key, row in t.items()}
             for t in tables), scale=scale), lam


def _numerators(row, den):
    """The rationals ``row`` as numerators over ``den``."""
    return tuple(x.numerator * (den // x.denominator) for x in row)


def cmd_oracle(args):
    if args.oracle == "wis":
        wg = _load_weighted(args.input)
        opt, wit = _oracle.brute_max_weight_is(wg)
        return _emit(args, {"oracle": "wis", "opt": opt, "witness": wit})
    if args.oracle == "setcover":
        inst = _graph.load_graph(args.input, "setcover")
        opt, wit = _oracle.brute_set_cover_opt(inst, weighted=args.weighted)
        return _emit(args, {"oracle": "setcover", "opt": opt,
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


def _report_input(path, doc, config):
    """The instance file a report names: its ``input``, or else its
    ``config.input``."""
    for key, inp in (("input", doc.get("input")),
                     ("config.input", config.get("input"))):
        if inp is not None:
            return _typed(path, f"key {key!r}", inp, str)
    raise _graph.GraphFormatError(f"{path}: missing key 'input'")


def _independent(g, S):
    """Whether the ids ``S`` are nodes of ``g`` and independent in it."""
    return set(S) <= set(g.nodes) and _oracle.is_independent(g, S)


def cmd_verify(args):
    path = args.report
    doc = _typed(path, "the document", _load_json(path), dict)
    config = _typed(path, "key 'config'", doc.get("config", {}), dict)
    algo = _typed(path, "key 'algorithm'", doc.get("algorithm", ""), str)
    checks = {}
    inp = _report_input(path, doc, config)
    if algo in ("mis", "mis-baseline"):
        wg = _load_weighted(inp)
        S = _ids(path, "key 'set'", doc["set"])
        checks["independent"] = _independent(wg.graph, S)
        checks["maximal"] = _oracle.is_maximal_is(wg.graph, S)
    elif algo == "matching":
        wg = _load_weighted(inp)
        index = {(min(e.u, e.v), max(e.u, e.v)): e.index
                 for e in wg.graph.edges}
        # a pair that is no edge has no index and fails both checks
        pairs = _typed(path, "key 'matching'", doc["matching"], list)
        ids = [index.get(tuple(sorted(
                   _ids(path, f"pair {i} of key 'matching'", p))))
               for i, p in enumerate(pairs)]
        checks["matching"] = _oracle.is_matching(wg.graph, ids)
        checks["maximal"] = _oracle.is_maximal_matching(wg.graph, ids)
    elif algo.startswith("wis"):
        wg = _load_weighted(inp)
        S = set(_ids(path, "key 'set'", doc["set"]))
        checks["independent"] = _independent(wg.graph, S)
        cert = _typed(path, "key 'certificate'", doc["certificate"], dict)
        bound = _rational(path, "key 'certificate.bound'", cert["bound"])
        checks["weight_bound"] = sum(wg.weights.get(v, 0)
                                     for v in S) >= bound
    elif algo == "setcover":
        inst = _load_cover(inp, config.get("from_dominating_set", False))
        checks["covers"] = _oracle.covers(
            inst, _ids(path, "key 'sets'", doc["sets"]))
        phi = _typed(path, "key 'phi'", doc["phi"], list)
        phi = [_rational(path, f"key 'phi': entry {i}", p)
               for i, p in enumerate(phi)]
        checks["phi_monotone"] = all(phi[i + 1] <= phi[i]
                                     for i in range(len(phi) - 1))
    elif algo == "round":
        g, val, lam = _load_rounding_instance(inp)
        prep = _rounding._Prepared(g, val)
        U, C = prep.potential(lam)
        fig = {key: _rational(path, f"key {key!r}", doc[key])
               for key in ("fractional_u", "fractional_c", "final_u",
                           "final_c", "eps")}
        checks["fractional_uc"] = (fig["fractional_u"],
                                   fig["fractional_c"]) == (U, C)
        ell = {_node_id(path, "a node of key 'labels'", v): a
               for v, a in _typed(path, "key 'labels'", doc["labels"],
                                  dict).items()}
        checks["labels"] = (sorted(ell) == sorted(g.nodes) and all(
            a in range(val.nlabels) for a in ell.values()))
        if checks["labels"]:
            Uf, Cf = prep.potential(
                {v: tuple(int(a == lab) for a in range(val.nlabels))
                 for v, lab in ell.items()})
            checks["final_uc"] = (fig["final_u"],
                                  fig["final_c"]) == (Uf, Cf)
            checks["guarantee"] = Uf - Cf >= (1 - fig["eps"]) * (U - C)
    elif algo == "color":
        wg = _load_weighted(inp)
        g = wg.graph
        colors = {_node_id(path, "a node of key 'colors'", v):
                  _node_id(path, f"key 'colors': the color of node {v}", c)
                  for v, c in _typed(path, "key 'colors'", doc["colors"],
                                     dict).items()}
        w = {e.index: Fraction(1) for e in g.edges}
        kind = _typed(path, "key 'kind'", doc["kind"], str)
        # a node without a color fails the check
        colored = sorted(colors) == sorted(g.nodes)
        if kind == "proper":
            checks["proper"] = colored and _coloring.check_proper(g, colors)
        else:
            delta = _rational(path, "key 'delta'", doc["delta"])
            checks["defect"] = colored and _coloring.defect_certificate(
                g, w, colors, delta, kind)[0]
    else:
        raise _graph.GraphFormatError(
            f"{path}: cannot verify algorithm {algo!r}")
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
        if args.bit_budget is not None and args.bit_budget < 1:
            raise UsageError(f"--bit-budget {args.bit_budget} is below 1")
        if args.mode != _sim.CONGEST and (args.bit_budget is not None
                                          or args.strict_budget):
            # only a CONGEST engine checks a budget
            raise UsageError("--bit-budget and --strict-budget need "
                             "--mode congest")
        return args.func(args)
    except (_graph.GraphFormatError, OSError, UsageError,
            _oracle.OverBudget) as exc:
        # a bad input, a file that cannot be opened, an option value out
        # of range or an instance beyond an oracle's limits: one line and
        # the usage status, as argparse gives for a bad argument
        print(f"locround: error: {exc}", file=sys.stderr)
        return 2
    except _sim.BudgetExceeded as exc:
        # a run that broke its --strict-budget: a failed check, status 1
        print(f"locround: bit budget exceeded: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
