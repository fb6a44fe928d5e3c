"""The functions the benchmark tracer (``perfbench/tracing.py``) wraps
still exist under the names it looks up, so a refactor that renames or
moves one fails here instead of in a full benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves():
    tracing = _load_tracing()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for _name, owner, attr, *_counter in tracing.BOUNDARIES
               if not callable(owner.__dict__.get(attr))]
    assert missing == []


def test_install_wraps_and_restores_every_boundary():
    tracing = _load_tracing()
    before = [owner.__dict__[attr]
              for _name, owner, attr, *_counter in tracing.BOUNDARIES]
    with tracing.Tracer().installed():
        inside = [owner.__dict__[attr]
                  for _name, owner, attr, *_counter in tracing.BOUNDARIES]
    after = [owner.__dict__[attr]
             for _name, owner, attr, *_counter in tracing.BOUNDARIES]
    assert all(a is not b for a, b in zip(inside, before))
    assert after == before
