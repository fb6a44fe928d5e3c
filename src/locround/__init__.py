"""Deterministic local rounding of fractional graph problems.

Library layout:

- ``graph``: multigraphs with managed virtual edges, set cover instances,
  ingestion, the line-graph view
- ``sim``: synchronous round engine with LOCAL/CONGEST bit accounting
- ``coloring``: proper / weighted defective / average defective colorings
- ``rounding``: the generic rounding framework (step, schedule, preprocessing)
- ``mis``: derandomized Luby iterations to a maximal independent set
- ``indepset``: weighted independent set approximations and maximal matching
- ``setcover``: O(log s)-approximate set cover
- ``oracle``: brute-force and exact-LP ground truth for testing
- ``cli``: command-line entry points

The hot kernels live in ``locround._kernel``: exact integer arithmetic in
pure Python.
"""

from ._kernel import BACKEND as kernel_backend

__all__ = ["kernel_backend"]
__version__ = "0.1.0"
