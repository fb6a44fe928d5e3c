import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from locround import cli, coloring as C, graph as G, oracle as O
from conftest import raw_rows, valuation_to_json

# one cost-10 set covers both elements; two cost-1 sets cover one each
WEIGHTED_COVER = ("e 1\ne 2\ns 10 10\ns 11 1\ns 12 1\n"
                  "c 1 10\nc 2 10\nc 1 11\nc 2 12\n")


def _run_console_script(*argv):
    """Run the CLI in a child process the way the ``locround`` console
    script does: ``sys.exit(main())``."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from locround.cli import main; sys.exit(main())",
         *argv],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path))


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.edges"
    b = tmp_path / "b.edges"
    for out in (a, b):
        cli.main(["generate", "graph", "--n", "25", "--max-degree", "4",
                  "--seed", "9", "--output", str(out)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, sha256", [
    (["--n", "300", "--max-degree", "6", "--seed", "7", "--weight-max", "20"],
     "25e996d5ca9cdc262f9c602984f1f96007b73813bcb62d62c53f45aba1376f99"),
    (["--n", "200", "--max-degree", "4", "--seed", "3"],
     "1545ab8be0edecddf2a8acacd4163ab0b1ef144bb897825af3a7687e53b0acd2"),
])
def test_generate_graph_bytes_fixed(tmp_path, argv, sha256):
    # digests of the output of the list-scan duplicate check, which the
    # set-based check must reproduce byte for byte
    p = tmp_path / "g.edges"
    cli.main(["generate", "graph", *argv, "--output", str(p)])
    assert hashlib.sha256(p.read_bytes()).hexdigest() == sha256


def test_generate_empty():
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "e.edges")
        cli.main(["generate", "graph", "--n", "0", "--output", p])
        assert open(p).read() == ""


def test_generate_degree_cap(tmp_path):
    p = tmp_path / "g.edges"
    cli.main(["generate", "graph", "--n", "40", "--max-degree", "4",
              "--seed", "1", "--output", str(p)])
    from locround import graph as G
    g = G.load_graph(p, "edge-list")
    g = g.graph if hasattr(g, "graph") else g
    assert g.max_degree() <= 4


def test_runner_and_verify(tmp_path):
    g = tmp_path / "g.edges"
    cli.main(["generate", "graph", "--n", "20", "--max-degree", "5",
              "--seed", "3", "--weight-max", "6", "--output", str(g)])
    rep = tmp_path / "mis.json"
    cli.main(["--json", str(rep), "mis", "--input", str(g)])
    assert cli.main(["verify", str(rep)]) == 0
    # negative control: drop a member from the set
    doc = json.loads(rep.read_text())
    if doc["set"]:
        doc["set"] = doc["set"][1:]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["verify", str(bad)]) == 1


def test_setcover_verify_negative(tmp_path):
    sc = tmp_path / "i.sc"
    cli.main(["generate", "setcover", "--n", "10", "--sets", "8",
              "--seed", "5", "--output", str(sc)])
    rep = tmp_path / "sc.json"
    cli.main(["--json", str(rep), "setcover", "--input", str(sc)])
    assert cli.main(["verify", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    if doc["sets"]:
        doc["sets"] = doc["sets"][:-1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["verify", str(bad)]) == 1
    # tampered phi trace
    doc = json.loads(rep.read_text())
    if len(doc["phi"]) >= 2:
        doc["phi"][-1] = str(10 ** 9)
        bad2 = tmp_path / "bad2.json"
        bad2.write_text(json.dumps(doc))
        assert cli.main(["verify", str(bad2)]) == 1


def test_valuation_json_roundtrip(tmp_path):
    import json as _json
    import random
    from fractions import Fraction
    from locround import graph as G, rounding as R

    rng = random.Random(3)
    g = G.simple_graph([1, 2, 3], [(1, 2), (2, 3)])
    eu = {e.index: tuple(tuple(Fraction(rng.randint(0, 5), 2)
                               for _ in range(2)) for _ in range(2))
          for e in g.edges}
    ec = {e.index: tuple(tuple(Fraction(rng.randint(0, 5))
                               for _ in range(2)) for _ in range(2))
          for e in g.edges}
    val = R.Valuation.from_fractions(
        2, eu, ec, node_utility={2: (Fraction(0), Fraction(3))})
    lam = R.FractionalAssignment(2, 2, {1: (1, 3), 2: (2, 2), 3: (4, 0)})
    doc = valuation_to_json(g, val, lam)
    p = tmp_path / "inst.json"
    p.write_text(_json.dumps(doc))
    g2, val2, lam2 = cli._load_rounding_instance(str(p))
    lamf = {v: tuple(Fraction(x, 4) for x in nums)
            for v, nums in lam.values.items()}
    assert (R.evaluate(val, raw_rows(lamf), g)
            == R.evaluate(val2, raw_rows(lamf), g2))
    assert lam2.values == lam.values and lam2.k == lam.k


@pytest.mark.parametrize("field,table", [
    ("utility", [["1"], ["2", "3", "4"]]),                       # ragged
    ("utility", [["1", "2", "3"], ["4", "5", "6"], ["7", "8", "9"]]),
    ("cost", [["0", "1"]]),                                      # one row
    ("node_utility", {"1": ["1", "2", "3"]}),
])
def test_round_loader_rejects_malformed_tables(tmp_path, field, table):
    inst = {
        "labels": 2,
        "nodes": [1, 2],
        "edges": [{"u": 1, "v": 2,
                   "utility": [["2", "2"], ["2", "2"]],
                   "cost": [["0", "1"], ["1", "0"]]}],
        "assignment": {"1": ["1/2", "1/2"], "2": ["1/4", "3/4"]},
    }
    if field == "node_utility":
        inst[field] = table
    else:
        inst["edges"][0][field] = table
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(inst))
    with pytest.raises(ValueError):
        cli._load_rounding_instance(str(p))


def test_round_subcommand(tmp_path):
    inst = {
        "labels": 2,
        "nodes": [1, 2],
        "edges": [{"u": 1, "v": 2,
                   "utility": [["2", "2"], ["2", "2"]],
                   "cost": [["0", "1"], ["1", "0"]]}],
        "assignment": {"1": ["1/2", "1/2"], "2": ["1/4", "3/4"]},
    }
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(inst))
    rep = tmp_path / "round.json"
    cli.main(["--json", str(rep), "round", "--valuation", str(p),
              "--eps", "1/10", "--mu", "1/4"])
    doc = json.loads(rep.read_text())
    assert doc["guarantee_ok"] is True


def test_round_report_verifies(tmp_path):
    inst = {
        "labels": 2,
        "nodes": [1, 2, 3],
        "edges": [{"u": 1, "v": 2,
                   "utility": [["2", "2"], ["2", "2"]],
                   "cost": [["0", "1"], ["1", "0"]]},
                  {"u": 2, "v": 3,
                   "utility": [["1", "3"], ["3", "1"]],
                   "cost": [["1/2", "0"], ["0", "1/2"]]}],
        "node_utility": {"3": ["0", "5/3"]},
        "assignment": {"1": ["1/2", "1/2"], "2": ["1/4", "3/4"],
                       "3": ["3/8", "5/8"]},
    }
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(inst))
    rep = tmp_path / "round.json"
    assert cli.main(["--json", str(rep), "round", "--valuation", str(p),
                     "--eps", "1/10", "--mu", "1/4"]) == 0
    doc = json.loads(rep.read_text())
    assert doc["input"] == str(p) and doc["eps"] == "1/10"
    assert cli.main(["verify", str(rep)]) == 0
    # negative control: flip one label
    doc["labels"]["2"] = 1 - doc["labels"]["2"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", str(bad)]) == 1


def test_setcover_from_dominating_set(tmp_path):
    g = tmp_path / "path.edges"
    g.write_text("1 2\n2 3\n")
    rep = tmp_path / "dom.json"
    proc = _run_console_script("--json", str(rep), "setcover", "--input",
                               str(g), "--from-dominating-set")
    assert (proc.returncode, proc.stderr) == (0, "")
    proc = _run_console_script("verify", str(rep))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_oracle_subcommand(tmp_path, capsys):
    g = tmp_path / "g.edges"
    g.write_text("1 2\n2 3\n1 3\n")
    cli.main(["oracle", "wis", "--input", str(g)])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["opt"] == 1


def test_wis_and_color_runners(tmp_path):
    g = tmp_path / "g.edges"
    cli.main(["generate", "graph", "--n", "15", "--max-degree", "4",
              "--seed", "2", "--weight-max", "5", "--output", str(g)])
    for algo in ("basic", "turan", "carowei"):
        rep = tmp_path / f"wis-{algo}.json"
        cli.main(["--json", str(rep), "wis", "--input", str(g),
                  "--algo", algo, "--eps", "1/10"])
        assert cli.main(["verify", str(rep)]) == 0
    rep = tmp_path / "color.json"
    cli.main(["--json", str(rep), "color", "--input", str(g),
              "--delta", "1/4", "--color-mode", "avgdefective"])
    assert cli.main(["verify", str(rep)]) == 0


@pytest.mark.parametrize("color_mode", ["defective", "avgdefective"])
def test_color_report_figures_are_the_cores(tmp_path, color_mode):
    # the report declares the rounds and bits of the coloring loops the
    # rounding step runs: stage one alone, or stage one plus the reduction
    g = tmp_path / "g.edges"
    cli.main(["generate", "graph", "--n", "40", "--max-degree", "5",
              "--seed", "4", "--output", str(g)])
    rep = tmp_path / "color.json"
    cli.main(["--json", str(rep), "color", "--input", str(g),
              "--delta", "1/4", "--color-mode", color_mode])
    metrics = json.loads(rep.read_text())["metrics"]
    pk = C._Packing(cli._load_weighted(str(g)).graph)
    weights = lambda: ([1] * len(pk.eu), [0] * pk.nv)    # noqa: E731
    delta = Fraction(1, 4)
    if color_mode == "defective":
        _c, _p, rounds, bits = C._stage_one(pk, weights, delta, False, None)
    else:
        _c, _p, rounds, bits = C.defective_colors_for_rounding(
            pk, weights, delta, False, None)
    assert (metrics["rounds"], metrics["max_bits"]) == (rounds, bits)


def test_console_script_exits_zero(tmp_path):
    sc = tmp_path / "i.sc"
    sc.write_text(WEIGHTED_COVER)
    g = tmp_path / "g.edges"
    g.write_text("1 2\n2 3\n4 5\n")
    for argv in (["setcover", "--input", str(sc)],
                 ["oracle", "lp", "--input", str(g)]):
        proc = _run_console_script(*argv)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert json.loads(proc.stdout)["config"]["input"] == argv[-1]


@pytest.mark.parametrize("text, argv, line", [
    ("1 1\n", ["mis"], "g.edges:1: self-loop at node 1"),
    ("n 1 0\n", ["wis", "--algo", "turan"],
     "weight of node 1 must be a positive integer"),
    (None, ["matching"], "No such file or directory"),
], ids=["self-loop", "zero-weight", "missing-input"])
def test_input_error_exits_two_with_one_line(tmp_path, text, argv, line):
    g = tmp_path / "g.edges"
    if text is not None:
        g.write_text(text)
    proc = _run_console_script(*argv, "--input", str(g))
    assert proc.returncode == 2
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("locround: error: ")
    assert line in err[0]


@pytest.mark.parametrize("algo, eps, line", [
    ("beta", "2", "--eps 2 is outside (0, 1) for --algo beta"),
    ("beta", "1", "--eps 1 is outside (0, 1) for --algo beta"),
    ("turan", "0", "--eps 0 is outside (0, 1) for --algo turan"),
    ("carowei", "1", "--eps 1 is outside (0, 1/2] for --algo carowei"),
    ("basic", "3/5", "--eps 3/5 is outside (0, 1/2] for --algo basic"),
    ("basic", "0", "--eps 0 is outside (0, 1/2] for --algo basic"),
])
def test_wis_eps_out_of_range_exits_two_with_one_line(tmp_path, algo, eps,
                                                      line):
    g = tmp_path / "g.edges"
    g.write_text("1 2\n2 3\n3 1\n")
    proc = _run_console_script("wis", "--algo", algo, "--eps", eps,
                               "--input", str(g))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [f"locround: error: {line}"]


@pytest.mark.parametrize("algo, eps", [("basic", "1/2"), ("carowei", "1/2"),
                                       ("beta", "99/100"), ("turan", "1/2")])
def test_wis_eps_in_range_runs(tmp_path, algo, eps):
    """The upper ends that belong to a range run."""
    g = tmp_path / "g.edges"
    g.write_text("1 2\n2 3\n3 1\n")
    rep = tmp_path / "wis.json"
    assert cli.main(["--json", str(rep), "wis", "--algo", algo, "--eps", eps,
                     "--input", str(g)]) == 0
    doc = json.loads(rep.read_text())
    assert len(doc["set"]) == 1
    assert cli.main(["verify", str(rep)]) == 0


TRIANGLE = "1 2\n2 3\n3 1\n"

ROUND_INSTANCE = {
    "labels": 2,
    "nodes": [1, 2],
    "edges": [{"u": 1, "v": 2,
               "utility": [["2", "2"], ["2", "2"]],
               "cost": [["0", "1"], ["1", "0"]]}],
    "assignment": {"1": ["1/2", "1/2"], "2": ["1/4", "3/4"]},
}


def _usage_inputs(tmp_path):
    g = tmp_path / "g.edges"
    g.write_text(TRIANGLE)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(ROUND_INSTANCE))
    return {"GRAPH": str(g), "INSTANCE": str(inst)}


@pytest.mark.parametrize("argv, line", [
    (["color", "--input", "GRAPH", "--delta", "0"],
     "--delta 0 is outside (0, 1]"),
    (["color", "--input", "GRAPH", "--delta", "2"],
     "--delta 2 is outside (0, 1]"),
    (["color", "--input", "GRAPH", "--delta=-1/2",
      "--color-mode", "greedy-oracle"],
     "--delta -1/2 is outside (0, 1]"),
    (["round", "--valuation", "INSTANCE", "--mu", "0"],
     "--mu 0 is outside (0, 1]"),
    (["round", "--valuation", "INSTANCE", "--mu", "3/2"],
     "--mu 3/2 is outside (0, 1]"),
    (["round", "--valuation", "INSTANCE", "--eps", "3"],
     "--eps 3 is outside (0, 1]"),
    (["round", "--valuation", "INSTANCE", "--eps", "0"],
     "--eps 0 is outside (0, 1]"),
    (["wis", "--algo", "lp4", "--input", "GRAPH", "--eps", "7"],
     "--algo lp4 runs at eps = 1/5 and takes no --eps"),
    (["wis", "--algo", "lp4", "--input", "GRAPH", "--eps", "1/5"],
     "--algo lp4 runs at eps = 1/5 and takes no --eps"),
], ids=["delta-0", "delta-2", "greedy-delta-negative", "mu-0", "mu-3/2",
        "eps-3", "eps-0", "lp4-eps-7", "lp4-eps-1/5"])
def test_option_out_of_range_exits_two_with_one_line(tmp_path, argv, line):
    """These ended in a ColoringError, ZeroDivisionError or ValueError
    traceback with status 1, or (lp4) ran and echoed an eps it did not
    use; no report is written."""
    paths = _usage_inputs(tmp_path)
    rep = tmp_path / "out.json"
    proc = _run_console_script("--json", str(rep),
                               *(paths.get(a, a) for a in argv))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [f"locround: error: {line}"]
    assert not rep.exists()


@pytest.mark.parametrize("argv, echoed", [
    (["color", "--input", "GRAPH", "--delta", "1"], {"delta": "1/1"}),
    (["round", "--valuation", "INSTANCE", "--eps", "1", "--mu", "1/4"],
     {"eps": "1/1", "mu": "1/4"}),
    (["wis", "--algo", "lp4", "--input", "GRAPH"], {"eps": "1/5"}),
    (["wis", "--algo", "beta", "--input", "GRAPH"], {"eps": "1/10"}),
], ids=["delta-1", "round-eps-1", "lp4-default", "beta-default"])
def test_option_at_the_end_of_its_range_runs(tmp_path, argv, echoed):
    """The closed upper ends run and verify, and a report echoes the eps
    its run used: lp4 its own 1/5, the other wis algorithms 1/10."""
    paths = _usage_inputs(tmp_path)
    rep = tmp_path / "out.json"
    proc = _run_console_script("--json", str(rep),
                               *(paths.get(a, a) for a in argv))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    config = json.loads(rep.read_text())["config"]
    assert {k: config[k] for k in echoed} == echoed
    assert cli.main(["verify", str(rep)]) == 0


def test_strict_budget_overrun_exits_one_with_one_line(tmp_path):
    """A --strict-budget overrun printed a BudgetExceeded traceback; it
    keeps status 1, a failed check, with one stderr line."""
    paths = _usage_inputs(tmp_path)
    rep = tmp_path / "out.json"
    proc = _run_console_script("--mode", "congest", "--bit-budget", "1",
                               "--strict-budget", "--json", str(rep), "mis",
                               "--input", paths["GRAPH"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [
        "locround: bit budget exceeded: round 1: 6 bits exceeds budget 1"]
    assert not rep.exists()
    # the same run without --strict-budget records the overrun and exits 0
    proc = _run_console_script("--mode", "congest", "--bit-budget", "1",
                               "--json", str(rep), "mis",
                               "--input", paths["GRAPH"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(rep.read_text())["metrics"]["violations"]


def test_setcover_unit_mode_on_weighted_input(tmp_path):
    sc = tmp_path / "i.sc"
    sc.write_text(WEIGHTED_COVER)
    rep = tmp_path / "sc.json"
    assert cli.main(["--json", str(rep), "setcover", "--input", str(sc)]) == 0
    doc = json.loads(rep.read_text())
    unit_opt, _ = O.brute_set_cover_opt(G.load_graph(sc, "setcover"))
    assert unit_opt == 1
    # the bound comes from the unit-cost LP, not the weighted one (2)
    assert Fraction(doc["opt_bound"]) <= unit_opt
    # the fractional cover is a central LP solve
    assert doc["metrics"]["oracle_assisted"] is True
