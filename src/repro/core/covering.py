"""Coverings: collections of cycle blocks covering a traffic instance.

A :class:`Covering` is the paper's central object — a family of
subnetworks ``{I_k}`` whose union of requests covers the logical graph.
The class is a value container with cached coverage accounting (chord →
times covered), DRC feasibility, excess, and C3/C4 mix statistics; the
independent validity checker lives in :mod:`repro.core.verify`.

Coverage accounting is backed by a
:class:`~repro.core.ledger.CoverageLedger`: a fresh covering recounts
once, lazily, and every derived covering (``with_blocks``,
``without_block``, ``replace_block``) inherits the parent's ledger and
applies per-block deltas, so chains of edits — greedy loops, local
search, mutation tests — pay O(block size) per step instead of
recounting every slot.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

from ..traffic.instances import Instance, all_to_all
from ..util.errors import InvalidCoveringError
from .blocks import CycleBlock
from .ledger import CoverageLedger

__all__ = ["Covering"]


@dataclass(frozen=True)
class Covering:
    """An (ordered) family of cycle blocks over the ring ``C_n``.

    The covering does not itself fix the traffic instance: coverage
    queries take an :class:`~repro.traffic.instances.Instance` and
    default to All-to-All, the paper's headline case.
    """

    n: int
    blocks: tuple[CycleBlock, ...]

    def __post_init__(self) -> None:
        if self.n < 3:
            raise InvalidCoveringError(f"a ring needs n ≥ 3, got n={self.n}")
        blocks = tuple(self.blocks)
        for blk in blocks:
            if max(blk.vertices) >= self.n:
                raise InvalidCoveringError(
                    f"block {blk.vertices!r} does not fit on ring of order {self.n}"
                )
        object.__setattr__(self, "blocks", blocks)

    # -- basic shape ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def size_histogram(self) -> dict[int, int]:
        """Mapping cycle length → number of blocks of that length."""
        hist = Counter(blk.size for blk in self.blocks)
        return dict(sorted(hist.items()))

    @property
    def num_triangles(self) -> int:
        return self.size_histogram.get(3, 0)

    @property
    def num_quads(self) -> int:
        return self.size_histogram.get(4, 0)

    @property
    def total_slots(self) -> int:
        """Total number of request slots over all blocks (Σ block sizes)."""
        return self._ledger.total_slots

    # -- coverage accounting --------------------------------------------

    @cached_property
    def _ledger(self) -> CoverageLedger:
        """Incremental coverage accounting.  Recounted lazily for fresh
        coverings; the mutation methods pre-seed this cache on derived
        coverings with a copied-and-patched parent ledger."""
        return CoverageLedger.from_blocks(self.blocks)

    @property
    def coverage(self) -> dict[tuple[int, int], int]:
        """Chord → number of blocks covering it (with multiplicity).

        The returned mapping is the ledger's live view — treat it as
        read-only.
        """
        return self._ledger.counts

    def _derive(self, blocks: tuple[CycleBlock, ...], added: Iterable[CycleBlock],
                removed: Iterable[CycleBlock]) -> "Covering":
        """A sibling covering whose ledger is patched incrementally when
        this covering's ledger has already been materialised."""
        child = Covering(self.n, blocks)
        parent = self.__dict__.get("_ledger")
        if parent is not None:
            ledger = parent.copy()
            for blk in removed:
                ledger.remove_block(blk)
            for blk in added:
                ledger.add_block(blk)
            child.__dict__["_ledger"] = ledger
        return child

    def multiplicity(self, e: tuple[int, int]) -> int:
        a, b = min(e), max(e)
        return self._ledger.multiplicity((a, b))

    def uncovered(self, instance: Instance | None = None) -> list[tuple[int, int]]:
        """Requests of ``instance`` covered fewer times than demanded."""
        inst = instance if instance is not None else all_to_all(self.n)
        self._check_instance(inst)
        cov = self.coverage
        return [e for e, m in inst.demand.items() if cov.get(e, 0) < m]

    def covers(self, instance: Instance | None = None) -> bool:
        """True when every request is covered at least its multiplicity."""
        if instance is None:
            # All-to-All, λ = 1: covered ⟺ every chord appears in the ledger.
            n = self.n
            return self._ledger.distinct_covered == n * (n - 1) // 2
        return not self.uncovered(instance)

    def excess(self, instance: Instance | None = None) -> int:
        """Total over-coverage: ``Σ_e max(0, covered(e) − required(e))``
        plus coverage of unrequested chords.

        Theorem 2's optimal coverings have excess exactly ``n/2``.
        """
        if instance is None:
            # All-to-All, λ = 1: every chord on the ring is requested once.
            return self._ledger.excess_all_to_all()
        self._check_instance(instance)
        extra = 0
        for e, c in self.coverage.items():
            extra += max(0, c - instance.required(e))
        return extra

    def doubled_edges(self, instance: Instance | None = None) -> list[tuple[int, int]]:
        """Chords covered strictly more often than required — candidates
        for block-enlargement moves in the even construction."""
        inst = instance if instance is not None else all_to_all(self.n)
        return sorted(e for e, c in self.coverage.items() if c > inst.required(e))

    def is_exact(self, instance: Instance | None = None) -> bool:
        """True for a perfect decomposition: every request covered exactly
        its multiplicity and nothing else covered."""
        inst = instance if instance is not None else all_to_all(self.n)
        self._check_instance(inst)
        return self.covers(inst) and self.excess(inst) == 0

    # -- DRC ------------------------------------------------------------

    @cached_property
    def non_convex_blocks(self) -> tuple[CycleBlock, ...]:
        """Blocks violating the disjoint-routing constraint on ``C_n``."""
        return tuple(blk for blk in self.blocks if not blk.is_convex(self.n))

    def is_drc_feasible(self) -> bool:
        """True when every block admits an edge-disjoint routing on the
        ring (the paper's DRC property)."""
        return not self.non_convex_blocks

    # -- algebra ---------------------------------------------------------

    def with_blocks(self, extra: Iterable[CycleBlock]) -> "Covering":
        extra = tuple(extra)
        return self._derive(self.blocks + extra, added=extra, removed=())

    def without_block(self, index: int) -> "Covering":
        if not 0 <= index < len(self.blocks):
            raise IndexError(index)
        return self._derive(
            self.blocks[:index] + self.blocks[index + 1 :],
            added=(),
            removed=(self.blocks[index],),
        )

    def replace_block(self, index: int, new_block: CycleBlock) -> "Covering":
        if not 0 <= index < len(self.blocks):
            raise IndexError(index)
        blocks = list(self.blocks)
        old = blocks[index]
        blocks[index] = new_block
        return self._derive(tuple(blocks), added=(new_block,), removed=(old,))

    def deduplicated(self) -> "Covering":
        """Remove repeated blocks (same canonical cycle)."""
        seen: set[tuple[int, ...]] = set()
        keep: list[CycleBlock] = []
        for blk in self.blocks:
            if blk.canonical not in seen:
                seen.add(blk.canonical)
                keep.append(blk)
        return Covering(self.n, tuple(keep))

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        return {"n": self.n, "blocks": [list(blk.vertices) for blk in self.blocks]}

    @classmethod
    def from_dict(cls, payload: dict) -> "Covering":
        return cls(int(payload["n"]), tuple(CycleBlock(tuple(vs)) for vs in payload["blocks"]))

    @classmethod
    def from_vertex_lists(cls, n: int, cycles: Sequence[Sequence[int]]) -> "Covering":
        return cls(n, tuple(CycleBlock(tuple(c)) for c in cycles))

    # -- misc --------------------------------------------------------------

    def describe(self) -> str:
        """One-line summary used by examples and the experiment harness."""
        hist = ", ".join(f"{cnt}×C{size}" for size, cnt in self.size_histogram.items())
        return (
            f"Covering(n={self.n}): {self.num_blocks} cycles [{hist}], "
            f"excess={self.excess()}, DRC={'ok' if self.is_drc_feasible() else 'VIOLATED'}"
        )

    def _check_instance(self, instance: Instance) -> None:
        if instance.n != self.n:
            raise InvalidCoveringError(
                f"instance order {instance.n} does not match covering order {self.n}"
            )

    def __repr__(self) -> str:  # pragma: no cover
        return f"Covering(n={self.n}, blocks={self.num_blocks})"
