"""Incremental coverage accounting for coverings.

A :class:`CoverageLedger` is the mutable bookkeeping behind
:class:`~repro.core.covering.Covering`'s coverage queries: chord →
multiplicity counts plus the running slot total.  Derived coverings
(``with_blocks``, ``replace_block``, ``without_block``) copy the parent
ledger (a single C-level ``dict`` copy) and apply per-block deltas in
``O(block size)`` instead of recounting every block from scratch —
the difference between quadratic and incremental behaviour for the
greedy baselines and local-search loops that mutate coverings
thousands of times.

The ledger never stores zero counts, so ``len(counts)`` is always the
number of distinct covered chords; for the All-to-All instance that
makes ``excess`` and ``covers`` O(1) queries
(``excess = total_slots − distinct covered``).
"""

from __future__ import annotations

from collections.abc import Iterable

from .blocks import CycleBlock

__all__ = ["CoverageLedger"]


class CoverageLedger:
    """Chord-multiplicity counts for a family of cycle blocks.

    Invariants: ``counts`` holds strictly positive values only;
    ``total_slots == Σ counts.values()`` (each block contributes one
    slot per edge, and a cycle has as many edges as vertices).
    """

    __slots__ = ("counts", "total_slots")

    def __init__(self, counts: dict[tuple[int, int], int] | None = None, total_slots: int = 0):
        self.counts: dict[tuple[int, int], int] = {} if counts is None else counts
        self.total_slots = total_slots

    @classmethod
    def from_blocks(cls, blocks: Iterable[CycleBlock]) -> "CoverageLedger":
        """Full recount — the O(total slots) fallback for fresh coverings."""
        ledger = cls()
        for blk in blocks:
            ledger.add_block(blk)
        return ledger

    def copy(self) -> "CoverageLedger":
        return CoverageLedger(dict(self.counts), self.total_slots)

    # -- deltas (mutating, O(block size)) --------------------------------

    def add_block(self, blk: CycleBlock) -> None:
        counts = self.counts
        for e in blk.edges():
            counts[e] = counts.get(e, 0) + 1
        self.total_slots += blk.size

    def remove_block(self, blk: CycleBlock) -> None:
        counts = self.counts
        for e in blk.edges():
            c = counts[e]
            if c == 1:
                del counts[e]
            else:
                counts[e] = c - 1
        self.total_slots -= blk.size

    # -- queries ---------------------------------------------------------

    def multiplicity(self, e: tuple[int, int]) -> int:
        return self.counts.get(e, 0)

    @property
    def distinct_covered(self) -> int:
        """Number of distinct chords covered at least once."""
        return len(self.counts)

    def excess_all_to_all(self) -> int:
        """Over-coverage against the All-to-All instance (λ = 1): every
        chord is requested exactly once, so ``Σ_e (c_e − 1) =
        total_slots − distinct covered``."""
        return self.total_slots - len(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CoverageLedger(distinct={len(self.counts)}, "
            f"total_slots={self.total_slots})"
        )
