"""Greedy DRC-covering baselines.

A natural heuristic a practitioner would try before the paper's
constructions: repeatedly add the convex (DRC-routable) cycle that
covers the most still-uncovered requests, breaking ties toward lower
excess.  The benchmarks compare its cycle count against ρ(n) to show
what the closed-form constructions buy.

The selection loop itself is the greedy kernel behind the
:mod:`repro.api` heuristic backend (the same pass that seeds the
branch-and-bound incumbents), pinned to the *tight* block pool with the
local-search improver off; this module keeps the historical signature
and error contract over an ``api.solve`` call.

:func:`size_greedy_covering` is the [3]/[4]-flavoured sibling for the
``min_total_size`` objective (ring-size sum / ADM count — now a
first-class :mod:`repro.core.objective` entry with its exact
certificate in :func:`repro.core.bounds.total_size_lower_bound`):
greedy by newly-covered-per-vertex ratio, so triangles are preferred
when equally useful.
"""

from __future__ import annotations

from ..core.blocks import CycleBlock, enumerate_tight_blocks
from ..core.covering import Covering
from ..traffic.instances import Instance
from ..util import circular
from ..util.errors import ConstructionError, SolverError

__all__ = ["greedy_drc_covering", "size_greedy_covering"]


def greedy_drc_covering(
    n: int,
    instance: Instance | None = None,
    *,
    max_size: int = 4,
) -> Covering:
    """Greedy max-coverage DRC covering of ``instance`` (default
    All-to-All) by tight cycles of length ≤ ``max_size``.

    Deterministic; runs in ``O(iterations × |blocks|)``.  Not optimal —
    that is the point of the baseline.
    """
    from ..api import CoverSpec, solve

    if instance is not None and instance.n != n:
        raise ConstructionError(f"instance order {instance.n} ≠ n = {n}")
    if instance is None:
        spec = CoverSpec.for_ring(
            n, max_size=max_size, backend="heuristic",
            require_optimal=False, pool="tight", improve=False,
        )
    else:
        spec = CoverSpec.from_instance(
            instance, max_size=max_size, backend="heuristic",
            require_optimal=False, pool="tight", improve=False,
        )
    try:
        return solve(spec).covering
    except SolverError as exc:
        raise ConstructionError(str(exc)) from exc


def size_greedy_covering(n: int) -> Covering:
    """A [3]/[4]-flavoured heuristic: greedily add the tight DRC cycle
    with the best newly-covered-per-vertex ratio (so triangles are
    preferred when equally useful), minimising ADM count rather than
    ring count — the baseline for the ``min_total_size`` objective."""
    if n < 3:
        raise ConstructionError(f"n ≥ 3 required, got {n}")
    uncovered: set[tuple[int, int]] = set(circular.all_chords(n))
    pool = [(blk, blk.edges()) for blk in enumerate_tight_blocks(n)]
    chosen: list[CycleBlock] = []
    while uncovered:
        best: tuple[float, int, CycleBlock] | None = None
        for blk, edges in pool:
            gain = sum(1 for e in edges if e in uncovered)
            if gain == 0:
                continue
            ratio = gain / blk.size
            key = (ratio, gain)
            if best is None or key > (best[0], best[1]):
                best = (ratio, gain, blk)
        if best is None:
            raise ConstructionError(f"size-greedy covering stuck at n={n}")
        blk = best[2]
        chosen.append(blk)
        uncovered.difference_update(blk.edges())
    return Covering(n, tuple(chosen))
