"""Structural statistics of coverings.

Numbers that make a covering legible: how the request-distance classes
are spread over blocks, how evenly vertices are loaded, the gap
profiles (tightness), and where the excess lands.  Used by the
experiment harness and handy when eyeballing a new construction — an
uneven vertex load or a non-tight block is usually the first symptom of
a construction bug.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..core.covering import Covering
from ..util import circular

__all__ = ["CoveringStatistics", "covering_statistics"]


@dataclass(frozen=True)
class CoveringStatistics:
    """Aggregated structural statistics of one covering."""

    n: int
    num_blocks: int
    size_histogram: dict[int, int]
    vertex_load_min: int
    vertex_load_max: int
    vertex_load_mean: float
    distance_class_coverage: dict[int, int]   # distance → covered slots
    distance_class_required: dict[int, int]   # distance → chords of K_n
    tight_blocks: int
    excess_by_distance: dict[int, int]
    mean_block_distance_sum: float

    @property
    def all_tight(self) -> bool:
        return self.tight_blocks == self.num_blocks

    @property
    def load_balanced(self) -> bool:
        """Every vertex in the same number of blocks (true for the odd
        exact decompositions, near-true for even)."""
        return self.vertex_load_min == self.vertex_load_max

    def summary(self) -> str:
        return (
            f"stats(n={self.n}): {self.num_blocks} blocks, vertex load "
            f"[{self.vertex_load_min}, {self.vertex_load_max}] "
            f"(mean {self.vertex_load_mean:.2f}), tight {self.tight_blocks}"
            f"/{self.num_blocks}, excess {sum(self.excess_by_distance.values())}"
        )


def covering_statistics(covering: Covering) -> CoveringStatistics:
    """Compute structural statistics."""
    n = covering.n

    vertex_load = Counter()
    for blk in covering.blocks:
        vertex_load.update(blk.vertices)
    loads = [vertex_load.get(v, 0) for v in range(n)]

    # Distance spectrum of covered slots.
    spectrum = Counter(
        circular.chord_distance(n, e) for blk in covering.blocks for e in blk.edges()
    )

    required = Counter()
    for d in range(1, n // 2 + 1):
        required[d] = n if (n % 2 == 1 or d < n // 2) else n // 2

    excess_by_distance: Counter[int] = Counter()
    for e, c in covering.coverage.items():
        if c > 1:
            excess_by_distance[circular.chord_distance(n, e)] += c - 1

    tight = sum(1 for blk in covering.blocks if blk.is_tight(n))
    dist_sums = [blk.distance_sum(n) for blk in covering.blocks]

    return CoveringStatistics(
        n=n,
        num_blocks=covering.num_blocks,
        size_histogram=covering.size_histogram,
        vertex_load_min=min(loads) if loads else 0,
        vertex_load_max=max(loads) if loads else 0,
        vertex_load_mean=sum(loads) / len(loads) if loads else 0.0,
        distance_class_coverage=dict(sorted(spectrum.items())),
        distance_class_required=dict(sorted(required.items())),
        tight_blocks=tight,
        excess_by_distance=dict(sorted(excess_by_distance.items())),
        mean_block_distance_sum=sum(dist_sums) / len(dist_sums) if dist_sums else 0.0,
    )
