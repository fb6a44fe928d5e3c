import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from locround import cli, coloring as C, graph as G, oracle as O
from conftest import valuation_to_json

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
    from locround import graph as G, rounding as R

    g = G.simple_graph([1, 2, 3], [(1, 2), (2, 3)])
    # halves in the utilities, integers in the costs
    val = R.Valuation(2, {0: (1, 4, 0, 5), 1: (3, 3, 2, 1)},
                      {0: (2, 0, 8, 4), 1: (10, 0, 6, 2)},
                      node_utility={2: (0, 6)}, scale=2)
    lam = {1: (1, 3), 2: (2, 2), 3: (4, 0)}
    doc = valuation_to_json(g, val, lam)
    p = tmp_path / "inst.json"
    p.write_text(_json.dumps(doc))
    g2, val2, lam2 = cli._load_rounding_instance(str(p))
    assert (val2.nlabels, val2.edge_utility, val2.edge_cost,
            val2.node_utility, val2.node_cost, val2.scale) == (
        2, val.edge_utility, val.edge_cost, val.node_utility, {}, 2)
    assert R.evaluate(val, lam, g) == R.evaluate(val2, lam2, g2)
    assert lam2 == {1: (1, 3), 2: (1, 1), 3: (1, 0)}


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


@pytest.mark.parametrize("mode, color_mode", [
    ("local", "defective"), ("local", "avgdefective"),
    ("congest", "defective"), ("congest", "avgdefective")],
    ids=["defective", "avgdefective", "congest-defective",
         "congest-avgdefective"])
def test_color_report_figures_are_the_cores(tmp_path, mode, color_mode):
    # the report declares the rounds and bits of the coloring loops the
    # rounding step runs in the same mode: stage one alone, or stage one
    # plus the reduction
    g = tmp_path / "g.edges"
    cli.main(["generate", "graph", "--n", "40", "--max-degree", "5",
              "--seed", "4", "--output", str(g)])
    rep = tmp_path / "color.json"
    cli.main(["--mode", mode, "--json", str(rep), "color", "--input", str(g),
              "--delta", "1/4", "--color-mode", color_mode])
    report = json.loads(rep.read_text())
    metrics = report["metrics"]
    pk = C._Packing(cli._load_weighted(str(g)).graph)
    weights = lambda: ([1] * len(pk.eu), [0] * pk.nv)    # noqa: E731
    delta = Fraction(1, 4)
    factor2 = mode == "congest"
    if color_mode == "defective":
        colors, _s, palette, rounds, bits = C._stage_one(
            pk, weights, delta, factor2, pk.start(None))
    else:
        colors, palette, rounds, bits = C.defective_colors_for_rounding(
            pk, weights, delta, factor2, pk.start(None))
    assert (metrics["rounds"], metrics["max_bits"]) == (rounds, bits)
    assert report["palette"] == palette
    assert report["colors"] == {str(v): c
                                for v, c in zip(pk.nodes, colors)}
    assert cli.main(["verify", str(rep)]) == 0


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


def test_edge_line_with_a_third_token_exits_two_with_one_line(tmp_path):
    """An edge line is ``u v``, as the README says: a third token is an
    input error, not a token to drop silently.  No report is written."""
    g = tmp_path / "g.edges"
    g.write_text("1 2\n1 2 x\n")
    rep = tmp_path / "out.json"
    proc = _run_console_script("--json", str(rep), "mis", "--input", str(g))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"locround: error: {g}:2: edge line needs 'u v'"]
    assert not rep.exists()


@pytest.mark.parametrize("argv", [["verify", "FILE"],
                                  ["round", "--valuation", "FILE"]],
                         ids=["verify", "round"])
def test_malformed_json_exits_two_with_one_line(tmp_path, argv):
    """A report or rounding instance that is not JSON is an input error
    named by its path, not a JSONDecodeError traceback.  No report is
    written."""
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    rep = tmp_path / "out.json"
    proc = _run_console_script("--json", str(rep),
                               *(str(bad) if a == "FILE" else a for a in argv))
    assert (proc.returncode, proc.stdout) == (2, "")
    err = proc.stderr.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"locround: error: {bad}: not a JSON document")
    assert not rep.exists()


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


@pytest.mark.parametrize("argv, option", [
    (["round", "--valuation", "INSTANCE", "--eps", "1/0"], "--eps"),
    (["round", "--valuation", "INSTANCE", "--mu", "1/0"], "--mu"),
    (["color", "--input", "GRAPH", "--delta", "1/0"], "--delta"),
    (["wis", "--input", "GRAPH", "--eps", "1/0"], "--eps"),
], ids=["round-eps", "round-mu", "color-delta", "wis-eps"])
def test_zero_denominator_in_an_option_is_a_usage_error(tmp_path, argv,
                                                        option):
    """A rational option over zero ended in a ZeroDivisionError traceback
    with status 1; it is a usage error naming the option, and no report
    is written."""
    paths = _usage_inputs(tmp_path)
    rep = tmp_path / "out.json"
    proc = _run_console_script("--json", str(rep),
                               *(paths.get(a, a) for a in argv))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        f"locround {argv[0]}: error: argument {option}: "
        "1/0 has a zero denominator")
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


def test_round_mu_above_the_input_margin_exits_two_with_one_line(tmp_path):
    """The instance's margin (u - c)/u is 3/4; --mu 1 ended in a
    RoundingInvariantError traceback with status 1."""
    paths = _usage_inputs(tmp_path)
    rep = tmp_path / "out.json"
    proc = _run_console_script("--json", str(rep), "round", "--valuation",
                               paths["INSTANCE"], "--eps", "1", "--mu", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        "locround: error: --mu 1 is above the input's margin: "
        "u - c = 3/2 < mu*u = 2"]
    assert not rep.exists()


def test_round_rejects_a_manager_outside_the_instance(tmp_path):
    """A virtual edge managed by node 99 of a two-node instance ran and
    reported guarantee_ok: true."""
    inst = tmp_path / "inst.json"
    bad = json.loads(json.dumps(ROUND_INSTANCE))
    bad["edges"][0]["manager"] = 99
    inst.write_text(json.dumps(bad))
    rep = tmp_path / "out.json"
    proc = _run_console_script("--json", str(rep), "round", "--valuation",
                               str(inst), "--mu", "1/4")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"locround: error: {inst}: edge 0: manager 99 is not a node"]
    assert not rep.exists()


def test_round_takes_a_non_dyadic_assignment(tmp_path):
    """The row ["2/3", "1/3"] ended in a "non-dyadic value 2/3" traceback
    with status 1, although the rounding preprocesses any rational row."""
    inst = tmp_path / "inst.json"
    doc = json.loads(json.dumps(ROUND_INSTANCE))
    doc["assignment"]["1"] = ["2/3", "1/3"]
    inst.write_text(json.dumps(doc))
    rep = tmp_path / "out.json"
    proc = _run_console_script("--json", str(rep), "round", "--valuation",
                               str(inst), "--mu", "1/4")
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(rep.read_text())
    assert report["guarantee_ok"] is True
    assert (report["fractional_u"], report["fractional_c"]) == ("2/1", "7/12")
    proc = _run_console_script("verify", str(rep))
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("row,line", [
    (["1/2", "1/4", "1/4"], "assignment of node 1: 3 values, not 2"),
    (["3/2", "-1/2"], "assignment of node 1: negative value"),
    (["1/2", "1/3"], "assignment of node 1: values sum to 5/6, not 1"),
    (["x", "1"], "assignment of node 1: Invalid literal for Fraction: 'x'"),
    (None, "node 1 has no assignment row"),
], ids=["length", "negative", "sum", "literal", "missing"])
def test_round_rejects_a_malformed_assignment_row(tmp_path, row, line):
    inst = tmp_path / "inst.json"
    doc = json.loads(json.dumps(ROUND_INSTANCE))
    if row is None:
        del doc["assignment"]["1"]
    else:
        doc["assignment"]["1"] = row
    inst.write_text(json.dumps(doc))
    rep = tmp_path / "out.json"
    proc = _run_console_script("--json", str(rep), "round", "--valuation",
                               str(inst), "--mu", "1/4")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [f"locround: error: {inst}: {line}"]
    assert not rep.exists()


def _edge(**change):
    return [dict(ROUND_INSTANCE["edges"][0], **change)]


@pytest.mark.parametrize("change, line", [
    ({"edges": _edge(utility=5)}, "edge 0: key 'utility' is not a JSON array"),
    ({"node_utility": {"1": 5}},
     "key 'node_utility': node 1: not a JSON array"),
    ({"edges": _edge(utility=[["1"], ["2", "3", "4"]])},
     "edge 0: key 'utility': row 0: 1 values, not 2"),
    ({"edges": _edge(cost=[["0", "1"]])}, "edge 0: key 'cost': 1 rows, not 2"),
    ({"edges": _edge(utility=[["x", "2"], ["2", "2"]])},
     "edge 0: key 'utility': row 0: Invalid literal for Fraction: 'x'"),
    ({"edges": _edge(cost=[["0", "1"], ["1", None]])},
     "edge 0: key 'cost': row 1: "),
    ({"edges": _edge(cost=[["0", ["1"]], ["1", "0"]])},
     "edge 0: key 'cost': row 0: "),
    ({"edges": _edge(utility=[["2", "2"], ["2", "1/0"]])},
     "edge 0: key 'utility': row 1: Fraction(1, 0)"),
    ({"edges": _edge(utility=[["2", "2"], ["-2", "2"]])},
     "edge 0: key 'utility': row 1: negative value"),
    ({"node_cost": {"2": ["1", "-1/3"]}},
     "key 'node_cost': node 2: negative value"),
    ({"labels": "2"}, "key 'labels' is not a positive integer: '2'"),
    ({"labels": 0}, "key 'labels' is not a positive integer: 0"),
    ({"node_utility": {"x": ["1", "1"]}},
     "a node of key 'node_utility' is not an integer: 'x'"),
    ({"assignment": {"1": ["1", "0"], "x": ["1", "0"]}},
     "a node of key 'assignment' is not an integer: 'x'"),
    ({"edges": _edge(u=[1])}, "edge 0: key 'u' is not an integer: [1]"),
    ({"nodes": ["a", 2]}, "a node of key 'nodes' is not an integer: 'a'"),
    ({"node_utility": {"7": ["1", "1"]}}, "key 'node_utility': 7 is not a node"),
    ({"assignment": dict(ROUND_INSTANCE["assignment"], **{"7": ["1", "0"]})},
     "key 'assignment': 7 is not a node"),
], ids=["utility-number", "node-utility-number", "ragged", "one-row",
        "entry-literal", "entry-null", "entry-array",
        "entry-zero-denominator", "negative",
        "negative-node-entry", "labels-string", "labels-zero",
        "node-key-literal", "assignment-key-literal", "u-array",
        "nodes-literal", "node-table-off-the-nodes",
        "assignment-row-off-the-nodes"])
def test_round_rejects_a_malformed_instance(tmp_path, change, line):
    """Each case ended in a TypeError, ValueError or ZeroDivisionError
    traceback with status 1, except a node table or an assignment row for
    an id outside ``nodes``, which ran with status 0 and was ignored."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(dict(ROUND_INSTANCE, **change)))
    rep = tmp_path / "out.json"
    proc = _run_console_script("--json", str(rep), "round", "--valuation",
                               str(inst), "--mu", "1/4")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"locround: error: {inst}: {line}")
    assert not rep.exists()


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


def test_setcover_strict_budget_overrun_exits_one_with_one_line(tmp_path):
    """setcover ran on an engine of its own and ignored --bit-budget and
    --strict-budget: it exited 0 with no violations."""
    sc = tmp_path / "two.sc"
    sc.write_text("e 1\ne 2\ns 10\ns 11\nc 1 10\nc 2 11\n")
    rep = tmp_path / "out.json"
    proc = _run_console_script("--mode", "congest", "--bit-budget", "1",
                               "--strict-budget", "--json", str(rep),
                               "setcover", "--input", str(sc))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [
        "locround: bit budget exceeded: round 1: 6 bits exceeds budget 1"]
    assert not rep.exists()
    proc = _run_console_script("--mode", "congest", "--bit-budget", "1",
                               "--json", str(rep), "setcover", "--input",
                               str(sc))
    assert (proc.returncode, proc.stderr) == (0, "")
    metrics = json.loads(rep.read_text())["metrics"]
    assert metrics["violations"][0] == {"round": 1, "edge": ["-", "-"],
                                        "bits": 6}
    assert all(v["bits"] > 1 for v in metrics["violations"])


@pytest.mark.parametrize("bad", [-1, 1 << 63])
def test_setcover_id_outside_the_id_space_exits_two(tmp_path, bad):
    sc = tmp_path / "bad.sc"
    sc.write_text(f"e {bad}\ne 2\ns 10\nc {bad} 10\nc 2 10\n")
    rep = tmp_path / "out.json"
    proc = _run_console_script("--json", str(rep), "setcover", "--input",
                               str(sc))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        "locround: error: node ids must be in [0, 2^63)"]
    assert not rep.exists()


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


@pytest.mark.parametrize("oracle, fmt, text, line", [
    ("wis", "edges", "".join(f"n {v} 1\n" for v in range(1, 22)),
     "21 nodes over oracle budget"),
    ("setcover", "sc", "e 1\n" + "".join(f"s {v}\nc 1 {v}\n"
                                          for v in range(2, 23)),
     "21 sets over oracle budget"),
], ids=["wis", "setcover"])
def test_oracle_over_its_limit_exits_two_with_one_line(tmp_path, oracle, fmt,
                                                       text, line):
    """An instance past a brute-force oracle's 20 nodes or sets ended in
    an OverBudget traceback with status 1.  No report is written."""
    inp = tmp_path / f"big.{fmt}"
    inp.write_text(text)
    rep = tmp_path / "out.json"
    proc = _run_console_script("--json", str(rep), "oracle", oracle,
                               "--input", str(inp))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [f"locround: error: {line}"]
    assert not rep.exists()


@pytest.mark.parametrize("argv", [["mis"], ["setcover"]],
                         ids=["edge-list", "setcover"])
def test_instance_that_is_not_utf8_exits_two_with_one_line(tmp_path, argv):
    """A file starting with the bytes ff fe ended in a UnicodeDecodeError
    traceback with status 1."""
    inp = tmp_path / "bad.txt"
    inp.write_bytes(b"\xff\xfe1 2\n")
    rep = tmp_path / "out.json"
    proc = _run_console_script("--json", str(rep), *argv, "--input",
                               str(inp))
    assert (proc.returncode, proc.stdout) == (2, "")
    err = proc.stderr.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"locround: error: {inp}: not UTF-8 text")
    assert not rep.exists()


def test_round_instance_without_labels_exits_two_with_one_line(tmp_path):
    """{"nodes": [1, 2]} ended in a KeyError: 'labels' traceback."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"nodes": [1, 2]}))
    rep = tmp_path / "out.json"
    proc = _run_console_script("--json", str(rep), "round", "--valuation",
                               str(inst))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"locround: error: {inst}: missing key 'labels'"]
    assert not rep.exists()


def test_wis_report_without_its_bound_exits_two_with_one_line(tmp_path):
    """A wis report without certificate.bound ended in a KeyError: 'bound'
    traceback from verify."""
    g = tmp_path / "g.edges"
    g.write_text(TRIANGLE)
    rep = tmp_path / "wis.json"
    assert cli.main(["--json", str(rep), "wis", "--algo", "basic",
                     "--input", str(g)]) == 0
    doc = json.loads(rep.read_text())
    del doc["certificate"]["bound"]
    rep.write_text(json.dumps(doc))
    proc = _run_console_script("verify", str(rep))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"locround: error: {rep}: missing key 'bound'"]


def _exits_two_with_one_line(proc, rep, line):
    """Status 2, nothing on stdout, the one stderr line ``line`` and no
    report at ``rep``."""
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [f"locround: error: {line}"]
    assert not rep.exists()


@pytest.mark.parametrize("doc, line", [
    ({"algorithm": "mis", "set": []}, "missing key 'input'"),
    ({"algorithm": "mis", "set": [], "config": {}}, "missing key 'input'"),
    ({"algorithm": "mis", "set": [], "input": 7},
     "key 'input' is not a JSON string"),
    ({"algorithm": "mis", "set": [], "config": {"input": 7}},
     "key 'config.input' is not a JSON string"),
], ids=["no-input", "no-config-input", "input-number",
        "config-input-number"])
def test_verify_report_without_an_input_path_exits_two_with_one_line(
        tmp_path, doc, line):
    """A report with neither input nor config.input ended in a TypeError
    traceback with status 1; a number there was opened as a file
    descriptor ([Errno 9] Bad file descriptor)."""
    rep = tmp_path / "report.json"
    rep.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    proc = _run_console_script("--json", str(out), "verify", str(rep))
    _exits_two_with_one_line(proc, out, f"{rep}: {line}")


@pytest.mark.parametrize("argv, doc, line", [
    (["verify"], [1], "the document is not a JSON object"),
    (["verify"], {"algorithm": 5}, "key 'algorithm' is not a JSON string"),
    (["verify"], {"algorithm": "mis", "input": "g.edges", "config": 3},
     "key 'config' is not a JSON object"),
    (["verify"], {"algorithm": "sort", "input": "g.edges"},
     "cannot verify algorithm 'sort'"),
    (["round", "--valuation"], dict(ROUND_INSTANCE, edges=[5]),
     "edge 0 is not a JSON object"),
    (["round", "--valuation"], dict(ROUND_INSTANCE, node_utility=[1]),
     "key 'node_utility' is not a JSON object"),
    (["round", "--valuation"], [ROUND_INSTANCE],
     "the document is not a JSON object"),
], ids=["verify-array", "verify-algorithm-number", "verify-config-number",
        "verify-unknown-algorithm", "round-edge-number",
        "round-node-utility-array", "round-array"])
def test_json_of_the_wrong_type_exits_two_with_one_line(tmp_path, argv, doc,
                                                        line):
    """A JSON value of the wrong type where the command reads an object
    or a string ended in an AttributeError traceback with status 1 (an
    unknown algorithm: a bare message with status 1)."""
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    rep = tmp_path / "out.json"
    proc = _run_console_script("--json", str(rep), *argv, str(inp))
    _exits_two_with_one_line(proc, rep, f"{inp}: {line}")


@pytest.mark.parametrize("flags", [["--bit-budget", "8"], ["--strict-budget"],
                                   ["--mode", "local", "--bit-budget", "8",
                                    "--strict-budget"]],
                         ids=["budget", "strict", "both-local"])
def test_budget_flags_without_congest_exit_two_with_one_line(tmp_path, flags):
    """Under the default --mode local, --bit-budget 8 --strict-budget mis
    exited 0 with max_bits 72 and no violations, and echoed both flags
    in its config: only a CONGEST engine checks a budget."""
    g = tmp_path / "g.edges"
    g.write_text(TRIANGLE)
    rep = tmp_path / "out.json"
    proc = _run_console_script(*flags, "--json", str(rep), "mis", "--input",
                               str(g))
    _exits_two_with_one_line(
        proc, rep, "--bit-budget and --strict-budget need --mode congest")


@pytest.mark.parametrize("budget", [["--bit-budget", "0"],
                                    ["--bit-budget", "-5"],
                                    ["--bit-budget=-5"]],
                         ids=["zero", "negative", "negative-joined"])
def test_bit_budget_below_one_exits_two_with_one_line(tmp_path, budget):
    """--bit-budget 0 and -5 ran with status 0 and recorded one violation
    per accounted phase."""
    g = tmp_path / "g.edges"
    g.write_text(TRIANGLE)
    rep = tmp_path / "out.json"
    proc = _run_console_script("--mode", "congest", *budget, "--json",
                               str(rep), "mis", "--input", str(g))
    value = budget[-1].split("=")[-1]
    _exits_two_with_one_line(proc, rep, f"--bit-budget {value} is below 1")


def test_matching_report_with_a_non_edge_fails_its_check(tmp_path):
    """The pair [1, 5] is no edge of the triangle: verify ended in a
    KeyError: (1, 5) traceback; it is a failed check, status 1."""
    g = tmp_path / "tri.edges"
    g.write_text(TRIANGLE)
    rep = tmp_path / "matching.json"
    rep.write_text(json.dumps({"algorithm": "matching", "input": str(g),
                               "matching": [[1, 5]]}))
    proc = _run_console_script("verify", str(rep))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout) == {
        "ok": False, "checks": {"matching": False, "maximal": False}}


def test_greedy_oracle_color_report_is_oracle_assisted(tmp_path):
    """The greedy oracle colors the nodes one at a time, centrally; its
    report said "oracle_assisted": false, like a distributed coloring's."""
    g = tmp_path / "g.edges"
    g.write_text(TRIANGLE)
    for mode, central in (("greedy-oracle", True), ("defective", False)):
        rep = tmp_path / f"{mode}.json"
        assert cli.main(["--json", str(rep), "color", "--input", str(g),
                         "--color-mode", mode]) == 0
        doc = json.loads(rep.read_text())
        assert doc["metrics"]["oracle_assisted"] is central
        assert cli.main(["verify", str(rep)]) == 0


# a path 1-2-3-4 whose heaviest independent set {1, 4} weighs 6
WEIGHTED_PATH = "n 1 3\nn 2 1\nn 3 1\nn 4 3\n1 2\n2 3\n3 4\n"


def _report(tmp_path, algo):
    """A report of ``algo`` (a subcommand, or ``wis`` with ``--algo
    basic``) on a small instance, as a dict."""
    g = tmp_path / "g.edges"
    g.write_text(WEIGHTED_PATH)
    sc = tmp_path / "i.sc"
    sc.write_text(WEIGHTED_COVER)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(ROUND_INSTANCE))
    argv = {"mis": ["mis", "--input", str(g)],
            "matching": ["matching", "--input", str(g)],
            "wis": ["wis", "--algo", "basic", "--input", str(g)],
            "setcover": ["setcover", "--input", str(sc)],
            "color": ["color", "--input", str(g)],
            "round": ["round", "--valuation", str(inst), "--mu", "1/4"]}[algo]
    rep = tmp_path / f"{algo}.json"
    assert cli.main(["--json", str(rep), *argv]) == 0
    return json.loads(rep.read_text())


@pytest.mark.parametrize("algo, edit, status, line", [
    ("round", lambda d: d["labels"].update(x=0), 2,
     "a node of key 'labels' is not an integer: 'x'"),
    ("round", lambda d: d.update(fractional_u=[1]), 2, "key 'fractional_u': "),
    ("round", lambda d: d.update(eps=None), 2, "key 'eps': "),
    ("wis", lambda d: d.update(certificate=5), 2,
     "key 'certificate' is not a JSON object"),
    ("wis", lambda d: d["certificate"].update(bound=[1]), 2,
     "key 'certificate.bound': "),
    ("wis", lambda d: d.update(set=7), 2, "key 'set' is not a JSON array"),
    ("wis", lambda d: d.update(set=[99]), 1, "independent"),
    ("wis", lambda d: d.update(set=[1, 1, 1], certificate={"bound": "6"}), 1,
     "weight_bound"),
    ("setcover", lambda d: d.update(phi=[[1]]), 2, "key 'phi': entry 0: "),
    ("setcover", lambda d: d.update(sets=3), 2,
     "key 'sets' is not a JSON array"),
    ("mis", lambda d: d.update(set=7), 2, "key 'set' is not a JSON array"),
    ("mis", lambda d: d.update(set=[99]), 1, "independent"),
    ("matching", lambda d: d.update(matching=[5]), 2,
     "pair 0 of key 'matching' is not a JSON array"),
    ("color", lambda d: d["colors"].update(x=0), 2,
     "a node of key 'colors' is not an integer: 'x'"),
    ("color", lambda d: d.update(delta=[1]), 2, "key 'delta': "),
    ("color", lambda d: d["colors"].pop("4"), 1, "defect"),
], ids=["round-label-key", "round-fractional-u-array", "round-eps-null",
        "wis-certificate-number", "wis-bound-array", "wis-set-number",
        "wis-set-off-the-nodes", "wis-set-repeats-a-node",
        "setcover-phi-nested", "setcover-sets-number", "mis-set-number",
        "mis-set-off-the-nodes", "matching-pair-number", "color-key-literal",
        "color-delta-array", "color-node-without-a-color"])
def test_verify_reads_every_report_field_by_its_type(tmp_path, algo, edit,
                                                     status, line):
    """Each edited report ended in a traceback with status 1, except the
    repeated node, whose weight counted three times, and the mis set off
    the nodes, which passed ``independent``.  A field of the wrong type
    exits 2 with one line naming the file and the key.  A set id that is
    no node fails ``independent``, as a matching pair that is no edge
    fails ``matching``; a set weighs each node once; a node without a
    color fails the coloring's check."""
    doc = _report(tmp_path, algo)
    edit(doc)
    rep = tmp_path / "edited.json"
    rep.write_text(json.dumps(doc))
    proc = _run_console_script("verify", str(rep))
    assert "Traceback" not in proc.stderr
    assert proc.returncode == status
    if status == 1:
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["checks"][line] is False
        return
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"locround: error: {rep}: {line}")


@pytest.mark.parametrize("algo", ["basic", "lp4", "beta", "turan",
                                  "carowei"])
def test_wis_report_objective_is_the_set_weight(tmp_path, algo):
    """Every wis report said objective 0/1, whatever its set weighed."""
    g = tmp_path / "g.edges"
    g.write_text(WEIGHTED_PATH)
    rep = tmp_path / "wis.json"
    assert cli.main(["--json", str(rep), "wis", "--algo", algo,
                     "--input", str(g)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["weight"] > 0
    metrics = doc["metrics"]
    assert Fraction(int(metrics["objective_num"]),
                    int(metrics["objective_den"])) == doc["weight"]
    assert cli.main(["verify", str(rep)]) == 0
