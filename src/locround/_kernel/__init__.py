"""Kernel selection: compiled extension when available, pure Python otherwise.

Set ``LOCROUND_FORCE_PURE=1`` to force the pure-Python kernels.  The
compiled kernels fall back to the pure ones per call: inside the extension
when their integer magnitude bounds would overflow, and here when they
raise ``OverflowError`` anyway (a table entry of 2^63 or more, more than 8
odd labels at one node).  The compiled color loop writes ``lam`` back only
when it finishes, so the pure rerun starts from the same input.
"""

import functools
import os
import types

from . import pure

_TABLE_KERNELS = ("eval_potential", "edge_weights_for_step",
                  "rounding_color_loop")


def _falling_back(fast, slow):
    @functools.wraps(fast)
    def call(*args):
        try:
            return fast(*args)
        except OverflowError:
            return slow(*args)
    return call


def with_fallback(core):
    """The kernels of the compiled module ``core``, with each table kernel
    rerun in ``pure`` when it raises ``OverflowError``."""
    impl = types.SimpleNamespace(**{name: getattr(core, name)
                                    for name in dir(core)
                                    if not name.startswith("_")})
    for name in _TABLE_KERNELS:
        setattr(impl, name, _falling_back(getattr(core, name),
                                          getattr(pure, name)))
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
