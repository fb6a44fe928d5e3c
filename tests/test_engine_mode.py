"""The engine carries the model.

The scan reads the ASTs of ``src/``.  A function that runs on a
``RoundEngine`` reads the model from ``engine.mode``, so no definition
takes both a ``mode`` and an ``engine`` parameter, except the four entry
points that build their engine from a ``mode`` and ``sim.engine_for``,
the one helper they build it with.  ``RoundEngine.__init__`` is the one
check of a mode, so only ``sim.py`` calls ``check_mode``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "locround"
TAKE_BOTH = ["indepset.py:lp_guided_is", "indepset.py:maximal_matching",
             "mis.py:mis", "setcover.py:set_cover", "sim.py:engine_for"]


def _nodes():
    """(module path relative to the package, AST node) for every node of
    every module of ``src/``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        where = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            yield where, node


def test_only_the_entry_points_take_a_mode_and_an_engine():
    both = []
    for where, node in _nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            if {"mode", "engine"} <= params:
                both.append(f"{where}:{node.name}")
    assert sorted(both) == TAKE_BOTH


def test_check_mode_is_called_only_in_sim():
    calls = []
    for where, node in _nodes():
        if isinstance(node, ast.Call) and where != "sim.py":
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if name == "check_mode":
                calls.append(f"{where}:{node.lineno}")
    assert calls == []
