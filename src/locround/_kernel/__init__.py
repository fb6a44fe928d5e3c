"""The hot kernels: exact integer arithmetic in pure Python (``pure``).

Callers reach them through ``impl`` and report ``BACKEND``; the benchmark
tracer wraps kernels on ``impl``.
"""

from . import pure

impl = pure
BACKEND = "pure"
