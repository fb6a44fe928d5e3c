"""Deterministic synchronous round engine with LOCAL/CONGEST accounting.

Algorithm implementations have a precomputed round structure and declare
their rounds and the bit profile of each communication phase through
``advance`` / ``account``.  Under CONGEST every declared message size is
checked against the per-edge bit budget; a violation is recorded, or
raises under ``strict``.

The engine carries the model: code that runs on one reads ``engine.mode``,
and only the entry points that build one (``engine_for``) take a mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

LOCAL = "local"
CONGEST = "congest"


def check_mode(mode):
    """Raises ``ValueError`` unless ``mode`` is LOCAL or CONGEST."""
    if mode not in (LOCAL, CONGEST):
        raise ValueError(f"unknown mode {mode!r}")


def engine_for(graph, mode, engine):
    """``engine``, or a new ``RoundEngine`` over ``graph`` in ``mode``
    (LOCAL when None) when it is None.  Raises ``ValueError`` when both
    are given and ``mode`` is not the engine's."""
    if engine is None:
        return RoundEngine(graph, mode=LOCAL if mode is None else mode)
    if mode is not None and mode != engine.mode:
        raise ValueError(f"mode {mode!r} contradicts the engine's mode "
                         f"{engine.mode!r}")
    return engine


class BudgetExceeded(RuntimeError):
    pass


@dataclass
class RunMetrics:
    total_rounds: int = 0
    max_bits_per_edge_round: int = 0
    budget_violations: list = field(default_factory=list)
    potential_samples: list = field(default_factory=list)
    objective: Fraction = Fraction(0)
    oracle_assisted: bool = False

    def to_json(self):
        return {
            "rounds": self.total_rounds,
            "max_bits": self.max_bits_per_edge_round,
            "violations": [
                {"round": r, "edge": list(e), "bits": b}
                for (r, e, b) in self.budget_violations
            ],
            "potential": [
                {"round": r, "num": str(p.numerator), "den": str(p.denominator)}
                for (r, p) in self.potential_samples
            ],
            "objective_num": str(self.objective.numerator),
            "objective_den": str(self.objective.denominator),
            "oracle_assisted": self.oracle_assisted,
        }


class RoundEngine:
    """Synchronous engine for a network given as a
    :class:`locround.graph.Multigraph`.  It reads only the graph's node
    count n, which sizes the default CONGEST budget of 64 ceil(log2 n)
    bits, and keeps no reference to the graph.  ``mode`` is the model of
    the whole run; a ``bit_budget`` or ``strict`` raises ``ValueError``
    outside CONGEST, which alone checks a budget."""

    def __init__(self, graph, mode=LOCAL, bit_budget=None, strict=False):
        check_mode(mode)
        if mode != CONGEST and (bit_budget is not None or strict):
            raise ValueError(f"a bit budget or strict accounting needs mode "
                             f"{CONGEST!r}, not {mode!r}")
        self.mode = mode
        if bit_budget is None and mode == CONGEST:
            n = max(2, len(graph.nodes))
            bit_budget = 64 * max(1, (n - 1).bit_length())
        self.bit_budget = bit_budget
        self.strict = strict
        self.round = 0
        self.metrics = RunMetrics()

    # -- phase API ----------------------------------------------------------

    def advance(self, rounds=1):
        """Advance the round counter for message-free or declared rounds."""
        if rounds < 0:
            raise ValueError("rounds must be >= 0")
        self.round += rounds
        self.metrics.total_rounds = self.round

    def account(self, max_bits, rounds=1, edge=("-", "-")):
        """Record ``rounds`` rounds whose heaviest directed-edge message
        costs ``max_bits`` bits."""
        if max_bits > self.metrics.max_bits_per_edge_round:
            self.metrics.max_bits_per_edge_round = max_bits
        if self.bit_budget is not None and max_bits > self.bit_budget:
            self.metrics.budget_violations.append((self.round + 1, tuple(edge), max_bits))
            if self.strict:
                raise BudgetExceeded(
                    f"round {self.round + 1}: {max_bits} bits exceeds budget "
                    f"{self.bit_budget}")
        self.advance(rounds)

    def sample_potential(self, value):
        self.metrics.potential_samples.append((self.round, Fraction(value)))
