"""Search statistics and the search defaults the API layer reads.

Kept apart from :mod:`repro.core.engine` and stdlib-only, so the spec,
the result envelope and the closed-form tier can name them without
loading the branch-and-bound engine.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BRANCHING_ORDERS", "DEFAULT_NODE_LIMIT", "SolverStats"]

DEFAULT_NODE_LIMIT = 20_000_000

BRANCHING_ORDERS = ("lex", "scarcest")


@dataclass
class SolverStats:
    """Search statistics, reported by the certifying benchmarks."""

    nodes: int = 0
    best_value: int | None = None
    proven_optimal: bool = False
    shards: int = 0

    @classmethod
    def merge(cls, parts: list["SolverStats"]) -> "SolverStats":
        """Deterministic merge of per-shard statistics (in shard order):
        nodes add up, the best value is the minimum, and optimality
        holds only when every shard ran to completion."""
        merged = cls(shards=len(parts))
        best: int | None = None
        proven = bool(parts)
        for st in parts:
            merged.nodes += st.nodes
            if st.best_value is not None and (best is None or st.best_value < best):
                best = st.best_value
            proven = proven and st.proven_optimal
        merged.best_value = best
        merged.proven_optimal = proven
        return merged
