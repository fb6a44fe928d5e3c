"""Kernel selection: compiled extension when available, pure Python otherwise.

Set ``LOCROUND_FORCE_PURE=1`` to force the pure-Python kernels.  Both
backends honour one contract: ``pack_tables(nv, L, eu, ev, mgr, ut, ct)``
packs a multigraph's flat L*L edge tables once, and the three table
kernels take its result in place of ``ut, ct``.  The pure packing keeps
the nonzero entries only (see ``pure``).  Both offer the same kernel
names: a public ``pure`` kernel that ``_core`` lacks, such as
``edge_agreements``, is the pure one in the compiled backend too.

The compiled kernels (``_core``, generated from ``_core.pyx``) still take
the dense tables, so the compiled backend's packing, ``DenseTables``,
stores them and hands them over on every call.  The compiled kernels fall
back to the pure ones per call: inside the extension when their integer
magnitude bounds would overflow, and here when they raise
``OverflowError`` anyway (a table entry of 2^63 or more, more than 8 odd
labels at one node).  Only then is the pure packing built, once per
``DenseTables``.  The compiled color loop writes ``lam`` back only when it
finishes, so the pure rerun starts from the same input.
"""

import functools
import os
import types

from . import pure

# table kernel -> position of the packed tables among its arguments
_TABLE_KERNELS = {"eval_potential": 4, "edge_weights_for_step": 4,
                  "rounding_color_loop": 5}


class DenseTables:
    """The compiled backend's packing: the dense tables, and the pure
    packing once a call falls back to the pure kernels."""

    __slots__ = ("args", "ut", "ct", "_packed")

    def __init__(self, nv, L, eu, ev, mgr, ut, ct):
        self.args = (nv, L, eu, ev, mgr, ut, ct)
        self.ut = ut
        self.ct = ct
        self._packed = None

    def packed(self):
        if self._packed is None:
            self._packed = pure.pack_tables(*self.args)
        return self._packed


def _falling_back(fast, slow, at):
    @functools.wraps(slow)
    def call(*args):
        tables = args[at]
        try:
            return fast(*args[:at], tables.ut, tables.ct, *args[at + 1:])
        except OverflowError:
            return slow(*args[:at], tables.packed(), *args[at + 1:])
    return call


def _dense_pure(slow, at):
    """``slow`` on dense tables: packs them, then runs the pure kernel."""
    def call(*args):
        nv, L, eu, ev = args[:4]
        mgr = args[4] if at == 5 else [-1] * len(eu)
        tables = pure.pack_tables(nv, L, eu, ev, mgr, args[at], args[at + 1])
        return slow(*args[:at], tables, *args[at + 2:])
    return call


def with_fallback(core):
    """The kernels of the compiled module ``core`` under the packed-table
    contract, with each table kernel rerun in ``pure`` when it raises
    ``OverflowError``, and every public ``pure`` kernel that ``core``
    lacks taken from ``pure``, so both backends offer the same names.  The
    range check inside ``core`` calls its module global ``_pure`` with the
    dense tables; that name is pointed at wrappers that pack the tables
    for the pure kernels."""
    kernels = {name: getattr(pure, name) for name in dir(pure)
               if not name.startswith("_") and callable(getattr(pure, name))}
    kernels.update((name, getattr(core, name)) for name in dir(core)
                   if not name.startswith("_"))
    impl = types.SimpleNamespace(**kernels)
    impl.pack_tables = DenseTables
    dense = {}
    for name, at in _TABLE_KERNELS.items():
        slow = getattr(pure, name)
        setattr(impl, name, _falling_back(getattr(core, name), slow, at))
        dense[name] = _dense_pure(slow, at)
    core._pure = types.SimpleNamespace(**dense)
    return impl


if os.environ.get("LOCROUND_FORCE_PURE"):
    impl = pure
    BACKEND = "pure"
else:
    try:
        from . import _core
    except ImportError:
        impl = pure
        BACKEND = "pure"
    else:
        impl = with_fallback(_core)
        BACKEND = "compiled"
