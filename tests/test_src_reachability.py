"""No function or class in ``src/`` that only tests reach.

The scan reads the ASTs of ``src/`` and ``perfbench/`` and collects the
identifiers they reference: every ``Name``, every ``Attribute`` and every
string constant that is an identifier, since the benchmark's tracer names
the functions it wraps by string.  A definition in ``src/`` is live when a
live part of the code names it from outside its own body.  The roots are
the module-level code of ``src/`` and all of ``perfbench/``, and the scan
iterates to a fixpoint, so code that only dead code calls is dead too.
Names are matched without their module, and dunder methods, which Python
calls implicitly, are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier()):
        return {node.value}
    return set()


def _scan(node, refs, defs, where):
    """Adds to ``refs`` the identifiers under ``node`` outside nested
    definitions, and to ``defs`` one (label, name, refs of its body) per
    nested definition.  Decorators, bases and defaults are evaluated where
    the definition stands, so they count for the enclosing code."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            outer = list(child.decorator_list)
            if isinstance(child, ast.ClassDef):
                outer += child.bases + [k.value for k in child.keywords]
            else:
                outer += child.args.defaults + [
                    d for d in child.args.kw_defaults if d is not None]
            for part in outer:
                refs |= _names(part)
                _scan(part, refs, defs, where)
            own = set()
            defs.append((f"{where}:{child.lineno} {child.name}", child.name,
                         own))
            for stmt in child.body:
                _scan(stmt, own, defs, where)
        else:
            refs |= _names(child)
            _scan(child, refs, defs, where)


def _unreached():
    live = set()
    defs = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        _scan(ast.parse(path.read_text()), live, defs,
              path.relative_to(ROOT))
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        live |= {n for node in ast.walk(ast.parse(path.read_text()))
                 for n in _names(node)}
    todo = [d for d in defs
            if not (d[1].startswith("__") and d[1].endswith("__"))]
    while True:
        unreached = [d for d in todo if d[1] not in live]
        if len(unreached) == len(todo):
            return sorted(label for label, _n, _r in todo)
        for _label, name, refs in todo:
            if name in live:
                live |= refs
        todo = unreached


def test_every_src_definition_is_reached_from_src_or_perfbench():
    assert _unreached() == []
