"""Cycle blocks: the subnetworks ``I_k`` of the paper.

A :class:`CycleBlock` is a cycle in the *logical* graph — an ordered
tuple of distinct vertices; its edges (consecutive pairs, cyclically)
are the requests the subnetwork carries.  On a ring physical network a
block is DRC-routable iff its vertices appear in ring circular order
(see :mod:`repro.core.drc`), in which case we call it *convex*: drawn on
a circle its edges form a convex polygon.

Blocks are value objects: immutable, hashable by canonical rotation, and
cheap to create in bulk (constructions produce ``Θ(n²)`` of them).

The *tight* blocks of ``C_n`` (convex, every gap at most ``⌊n/2⌋``, so
their chord distances sum to exactly ``n``) are listed once each by
:func:`tight_vertex_tuples`, without building or hashing a block; the
exact-cover and greedy pools are drawn from that listing.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

from ..util import circular
from ..util.errors import InvalidBlockError, SolverError

__all__ = [
    "CycleBlock",
    "triangle",
    "quad",
    "convex_block",
    "enumerate_tight_blocks",
    "tight_vertex_tuples",
]


@dataclass(frozen=True)
class CycleBlock:
    """A logical cycle ``(v_0, v_1, ..., v_{k-1})`` with ``k ≥ 3``.

    The vertex order is the cycle order; the block covers the requests
    ``{v_i, v_{i+1 mod k}}``.  Equality and hashing are by canonical
    rotation/reflection, so two blocks describing the same subnetwork
    compare equal regardless of starting vertex or direction.
    """

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        vs = tuple(int(v) for v in self.vertices)
        if len(vs) < 3:
            raise InvalidBlockError(f"a cycle block needs ≥ 3 vertices, got {vs!r}")
        if len(set(vs)) != len(vs):
            raise InvalidBlockError(f"cycle block has repeated vertices: {vs!r}")
        if any(v < 0 for v in vs):
            raise InvalidBlockError(f"cycle block has negative vertex ids: {vs!r}")
        object.__setattr__(self, "vertices", vs)

    # -- structure ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def size(self) -> int:
        """Number of vertices = number of requests covered."""
        return len(self.vertices)

    @cached_property
    def canonical(self) -> tuple[int, ...]:
        """Canonical representative under rotation + reflection."""
        return circular.canonical_rotation(self.vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycleBlock):
            return NotImplemented
        return self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash(self.canonical)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """The requests covered by this subnetwork, as normalised chords."""
        vs = self.vertices
        k = len(vs)
        return tuple(circular.chord(vs[i], vs[(i + 1) % k]) for i in range(k))

    def contains_edge(self, e: tuple[int, int]) -> bool:
        a, b = min(e), max(e)
        return (a, b) in self.edges()

    # -- ring geometry (needs the ring order n) -------------------------

    def gaps(self, n: int) -> list[int]:
        """Clockwise ring gaps between consecutive block vertices."""
        self._check_ring(n)
        return circular.gaps_of_cycle(n, self.vertices)

    def is_convex(self, n: int) -> bool:
        """DRC-feasibility on ``C_n``: vertices in ring circular order."""
        self._check_ring(n)
        return circular.is_circular_order(n, self.vertices)

    def distance_sum(self, n: int) -> int:
        """Sum of ring distances of the covered requests (≤ n for convex
        blocks; = n exactly for *tight* blocks)."""
        self._check_ring(n)
        return sum(circular.chord_distance(n, e) for e in self.edges())

    def is_tight(self, n: int) -> bool:
        """Tight blocks meet the counting lower bound with equality: the
        block is convex and every gap is at most ``⌊n/2⌋``."""
        if not self.is_convex(n):
            return False
        half = n // 2
        gs = self.gaps(n)
        if sum(gs) != n:  # counterclockwise listing: normalise mentally
            gs = [n - g for g in reversed(gs)]
        return all(g <= half for g in gs)

    def oriented(self, n: int) -> "CycleBlock":
        """The same block listed in clockwise circular order (convex
        blocks only) — convenient normal form for routing extraction."""
        if not self.is_convex(n):
            raise InvalidBlockError(f"block {self.vertices!r} is not convex on C_{n}")
        return CycleBlock(tuple(sorted(self.vertices)))

    def _check_ring(self, n: int) -> None:
        if max(self.vertices) >= n:
            raise InvalidBlockError(
                f"block {self.vertices!r} has vertices outside ring of order {n}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CycleBlock{self.vertices!r}"


def triangle(a: int, b: int, c: int) -> CycleBlock:
    """A C3 block on three vertices (every triangle is convex)."""
    return CycleBlock((a, b, c))


def quad(a: int, b: int, c: int, d: int) -> CycleBlock:
    """A C4 block in the given cycle order."""
    return CycleBlock((a, b, c, d))


def convex_block(vertices: tuple[int, ...] | list[int]) -> CycleBlock:
    """The unique convex (DRC-routable) block on a vertex set: vertices
    joined in circular order."""
    return CycleBlock(circular.convex_cycle(vertices))


# ---------------------------------------------------------------------------
# Tight block enumeration
# ---------------------------------------------------------------------------


def _gap_compositions(total: int, parts: int, max_part: int) -> list[tuple[int, ...]]:
    """All ordered compositions of ``total`` into ``parts`` positive parts
    each ≤ ``max_part``, in lexicographic order (gap sequences of tight
    blocks)."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, left: int, prefix: tuple[int, ...]) -> None:
        if left == 1:
            if 1 <= remaining <= max_part:
                out.append(prefix + (remaining,))
            return
        lo = max(1, remaining - max_part * (left - 1))
        hi = min(max_part, remaining - (left - 1))
        for g in range(lo, hi + 1):
            rec(remaining - g, left - 1, prefix + (g,))

    rec(total, parts, ())
    return out


def tight_vertex_tuples(n: int, max_size: int = 4) -> Iterator[tuple[int, ...]]:
    """The vertex tuple of every tight block of size 3..``max_size`` on
    ``C_n``, each block once, by size, then gap sequence, then start.

    Each listing runs clockwise from a start vertex along a gap
    composition of ``n``, so a block's listings are its gap sequence's
    rotations, each at the vertex it begins at.  The first one in
    (gaps, start) order is the *first listing*: its gaps are the
    lexicographically least rotation, and if that sequence repeats
    every ``p`` gaps summing to ``P`` (``P = n`` when it never
    repeats), the block's starts on it are congruent mod ``P``, so its
    least start lies in ``0..P−1``.  Only least rotations are taken,
    each at the starts ``0..P−1``: every block comes out exactly once,
    with no set to remember the ones already seen.
    """
    half = n // 2
    for size in range(3, max_size + 1):
        for gaps in _gap_compositions(n, size, half):
            rotations = [gaps[i:] + gaps[:i] for i in range(1, size)]
            if min(rotations) < gaps:
                continue
            period = rotations.index(gaps) + 1 if gaps in rotations else size
            offsets = [0]
            for g in gaps[:-1]:
                offsets.append(offsets[-1] + g)
            for start in range(sum(gaps[:period])):
                yield tuple([(start + o) % n for o in offsets])


@lru_cache(maxsize=64)
def enumerate_tight_blocks(n: int, max_size: int = 4) -> tuple[CycleBlock, ...]:
    """All tight blocks of size 3..``max_size`` on ``C_n`` as
    :class:`CycleBlock` objects, in :func:`tight_vertex_tuples` order."""
    if n < 3:
        raise SolverError(f"n ≥ 3 required, got {n}")
    return tuple(CycleBlock(vs) for vs in tight_vertex_tuples(n, max_size))
