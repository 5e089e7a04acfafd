"""Unified incremental solver engine for DRC cycle coverings.

Engine architecture
-------------------
Both covering solvers in the repo — minimum covering of ``K_n`` (the
ρ(n) certifier) and minimum covering of an arbitrary instance (the λK_n
certifier) — used to carry their own copy of the same scaffolding: a
sorted chord list, a chord → bit index map, per-chord candidate-block
lists, and a counting lower bound.  :class:`SolverEngine` owns that
scaffolding once:

* **Edge space** (:func:`edge_space`): the sorted chords of ``K_n``,
  their bit indices, ring distances, and the full-coverage bitmask.
  Memoized per ring size.
* **Block tables** (:func:`convex_block_table`,
  :func:`tight_block_table`): candidate pools with precomputed edge
  bitmasks, bit lists, per-block coverage masses (total chord distance
  — the quantity the DRC geometry caps at ``n`` per block), per-chord
  candidate indices pre-sorted by coverage mass, and the *bound
  fragments* below.  Memoized per ``(n, max_size)`` so batched sweeps
  (:func:`repro.api.solve_batch`) build each table once per process.
* **Packing lower bound** — the seed pruned with the counting bound
  ``⌈Σ_uncovered dist(e) / n⌉`` alone.  The engine's bound is the max
  of two strictly-dominating relaxations, both O(1) per node thanks to
  incrementally maintained residual totals:

  - the *per-chord fractional bound* ``⌈Σ dist(e)·(L/mm(e)) / L⌉``,
    where ``mm(e)`` is the largest in-demand coverage mass of any
    candidate block containing chord ``e`` and ``L = lcm{mm(e)}``.
    Since every block that covers ``e`` retires at most ``mm(e)`` of
    weighted demand, each chosen block contributes at most ``L`` to the
    weighted total; with ``mm(e) ≤ n`` everywhere this dominates the
    counting bound, strictly so whenever the demand leaves a chord
    without full-mass candidates (restricted instances, residual
    subproblems).  The scaled integer weights (``chord_weights``,
    ``weight_denom``) are cached in the memoized block tables.
  - the *cardinality bound* ``⌈|uncovered| / max cover⌉`` — each block
    covers at most ``max_size`` chords, which bites exactly where the
    distance-weighted bound is weakest (many short chords left).

* **Branching** — branch-and-bound always branches on one uncovered
  chord and tries exactly its candidate blocks (complete, since every
  covering must cover that chord).  Candidates are expanded in
  descending *residual* coverage-mass order, so near-zero-waste blocks
  — the only ones optimal coverings can afford — are tried first and
  strong incumbents appear early.  Two chord-selection orders are
  built in (measured in the A4 ablation):

  - ``"lex"`` (default): the lexicographically first uncovered chord.
    All chords at vertex 0 are resolved first, so sibling subtrees
    share most of their covered mask — which is precisely what makes
    the transposition memo below hit; measured on ``n = 8`` and
    ``n = 10`` this beats scarcity ordering by 2–30×.
  - ``"scarcest"``: fewest candidate blocks first (most-constrained;
    ties toward longer chords).  The classic MRV heuristic — smallest
    fan-out per node, but sibling subtrees diverge early, starving the
    memo.  Kept for the ablation and for restricted instances whose
    candidate counts are genuinely lopsided.

* **Dominance pruning** — when the demand does not touch every chord
  (the λK_n certifier, residual instances), candidate blocks are
  filtered at table-build time: a block whose in-demand edge set is a
  subset of another candidate's is *dominated* — any covering using it
  maps, block-for-block, to one at most as large using the dominator —
  and is dropped (:func:`dominated_candidates`).  Unsound for exact
  decomposition (a strict superset changes the partition), so
  :func:`exact_decomposition` never applies it.
* **Transposition memo** — the subproblem below a node depends only on
  its uncovered-chord set, so the search memoizes ``uncovered → fewest
  blocks used`` and prunes any revisit that does not arrive strictly
  cheaper.  For dihedral-invariant demand (All-to-All), masks are
  first canonicalised under the ``2n`` ring symmetries
  (:func:`dihedral_bit_perms`), collapsing rotated/reflected residual
  states *anywhere* in the tree, not just at the root.  This is the
  fix for the seed's ``n = 8`` anomaly: even ``n`` leaves a gap of one
  between the counting bound and ρ(n), so certification must exhaust a
  space that is ~``2n``-fold redundant — 85,650 nodes at ``n = 8``
  while the gap-free ``n = 9`` needed 234.  With the memo (plus the
  mass-ordered expansion) the same proof takes ~3.5k nodes, and
  ``n = 10`` / ``n = 11`` close in well under a second.
* **Symmetry breaking** — for dihedral-invariant demand the first
  branch only needs one candidate block per dihedral orbit
  (:func:`dihedral_canonical`); every solution maps, by some ring
  symmetry, to a solution through a retained representative.
* **Incumbents** — before branching, a deterministic max-coverage
  greedy pass (shared with :mod:`repro.baselines.greedy`) is tightened
  by the :mod:`repro.core.improve` local-search improver and seeds
  ``best_count``, letting the bound prune from the first node.
* **Sharded scale-out** — :meth:`SolverEngine.min_covering_sharded`
  partitions the root orbit representatives into per-worker shards
  balanced by orbit weight (:func:`repro.util.parallel.weighted_chunks`)
  and fans them out over :func:`repro.util.parallel.parallel_map`.
  Every worker starts from the same shared greedy/improver incumbent
  (the "incumbent broadcast"), so each shard proves its subtree cannot
  beat the best known covering; the union of shards covers every root
  orbit, which is exactly the serial proof.  :class:`SolverStats` from
  the shards merge deterministically (:meth:`SolverStats.merge`) in
  shard order, independent of worker scheduling.
* **Incremental coverings** — results are
  :class:`~repro.core.covering.Covering` objects backed by a
  :class:`~repro.core.ledger.CoverageLedger`, so downstream mutation
  (greedy loops, the improver, mutation tests) stays O(block size) per
  edit.

* **One search loop** — :meth:`SolverEngine.min_covering`, the shard
  workers of :meth:`SolverEngine.min_covering_sharded` and
  :meth:`SolverEngine.min_covering_instance` all run the same
  explicit-stack driver (:func:`_branch_and_bound`) over a small
  residual model: the covered-chord bitmask of ``K_n`` or the residual
  count vector of an arbitrary demand.  The driver owns node
  accounting, the node-limit/deadline/preempt checks and checkpoint
  capture/resume; each frame evaluates all its children once (residual
  mass, bound and cost from per-block lookup tables), so runs of
  bound-pruned children are counted in one step.  Dihedral canonical
  masks come from 8-bit-chunk permutation tables.

* **Exact decomposition** — :func:`exact_decomposition` (Theorem 2's
  pole completion) is an exact cover, not a covering search, and
  shares none of the above: Algorithm X with live candidate counts
  over the tight pool.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from ..util import circular
from ..util.errors import SolverError, SolverPreempted
from ..util.parallel import parallel_map, resolve_workers, weighted_chunks
from .blocks import CycleBlock
from .checkpoint import KIND_INSTANCE, KIND_KN, CappedMemo, SearchCheckpoint, memo_cap
from .covering import Covering
from .ledger import CoverageLedger
from .objective import Objective, resolve_objective

__all__ = [
    "SolverEngine",
    "SolverStats",
    "dihedral_canonical",
    "dihedral_bit_perms",
    "dominated_candidates",
    "enumerate_convex_blocks",
    "enumerate_tight_blocks",
    "exact_decomposition",
    "restricted_block_table",
]

DEFAULT_NODE_LIMIT = 20_000_000

BRANCHING_ORDERS = ("lex", "scarcest")

# Wall-clock deadlines (``time.time()``-based so they survive pickling
# into sharded workers) and preempt callbacks are polled each time the
# node count crosses a multiple of DEADLINE_POLL_MASK+1 — cheap enough
# to leave on, frequent enough for sub-second budgets.
DEADLINE_POLL_MASK = 0xFF


# The acceptance bar of the PR-2 perf work, shared by the regression
# tests, the solver benchmark, and CI: the seed solver explored 85,650
# nodes certifying ρ(8) (the even-n anomaly — see the module docstring)
# and the engine must stay ≥ 10× below it.
SEED_N8_NODES = 85_650
N8_NODE_CEILING = SEED_N8_NODES // 10


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


# ---------------------------------------------------------------------------
# Block enumeration
# ---------------------------------------------------------------------------


def _gap_compositions(total: int, parts: int, max_part: int) -> list[tuple[int, ...]]:
    """All ordered compositions of ``total`` into ``parts`` positive parts
    each ≤ ``max_part`` (gap sequences of tight blocks)."""
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


@lru_cache(maxsize=64)
def enumerate_tight_blocks(n: int, max_size: int = 4) -> tuple[CycleBlock, ...]:
    """All *tight* convex blocks of size 3..max_size on ``C_n`` (gaps
    ≤ ⌊n/2⌋ summing to n), each listed once, at its first (gaps, start)
    listing.  Every listing runs clockwise, so two listings are the same
    cycle exactly when they share a vertex set: duplicates are dropped
    on that set before any block is built."""
    if n < 3:
        raise SolverError(f"n ≥ 3 required, got {n}")
    half = n // 2
    seen: set[frozenset[int]] = set()
    blocks: list[CycleBlock] = []
    for size in range(3, max_size + 1):
        for gaps in _gap_compositions(n, size, half):
            for start in range(n):
                vs = [start]
                for g in gaps[:-1]:
                    vs.append((vs[-1] + g) % n)
                key = frozenset(vs)
                if key not in seen:
                    seen.add(key)
                    blocks.append(CycleBlock(tuple(vs)))
    return tuple(blocks)


@lru_cache(maxsize=32)
def enumerate_convex_blocks(n: int, max_size: int = 4) -> tuple[CycleBlock, ...]:
    """All convex blocks of size 3..max_size on ``C_n`` (any gaps): one
    block per vertex subset, joined in circular order."""
    if n < 3:
        raise SolverError(f"n ≥ 3 required, got {n}")
    from itertools import combinations

    blocks: list[CycleBlock] = []
    for size in range(3, max_size + 1):
        for subset in combinations(range(n), size):
            blocks.append(CycleBlock(subset))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# Shared bitmask universe
# ---------------------------------------------------------------------------


class EdgeSpace(NamedTuple):
    """The chord universe of ``K_n`` as a bitmask space."""

    n: int
    edges: tuple[tuple[int, int], ...]
    index: dict[tuple[int, int], int]
    dist: tuple[int, ...]
    full_mask: int


class BlockTable(NamedTuple):
    """A candidate-block pool with precomputed masks, bound fragments,
    and per-chord candidate indices (sorted by coverage mass for the
    convex pool — the branching expansion order)."""

    blocks: tuple[CycleBlock, ...]
    masks: tuple[int, ...]
    per_edge: tuple[tuple[int, ...], ...]  # chord bit → candidate block indices
    bit_lists: tuple[tuple[int, ...], ...]  # block → covered chord bits
    masses: tuple[int, ...]  # block → Σ chord distance (≤ n, = n iff tight)
    chord_weights: tuple[int, ...]  # fractional-bound fragments (full demand)
    weight_denom: int


@lru_cache(maxsize=64)
def edge_space(n: int) -> EdgeSpace:
    edges = tuple(sorted(circular.all_chords(n)))
    index = {e: i for i, e in enumerate(edges)}
    dist = tuple(circular.chord_distance(n, e) for e in edges)
    return EdgeSpace(n, edges, index, dist, (1 << len(edges)) - 1)


@lru_cache(maxsize=64)
def dihedral_bit_perms(n: int) -> tuple[tuple[int, ...], ...]:
    """Chord-bit permutations induced by the ``2n`` ring symmetries.

    ``perms[k][b]`` is the bit index of the image of chord-bit ``b``
    under the k-th symmetry; the identity is ``perms[0]``.  Used to
    canonicalise residual masks in the transposition memo.
    """
    space = edge_space(n)
    perms: list[tuple[int, ...]] = []
    for refl in (False, True):
        for r in range(n):
            perm = [0] * len(space.edges)
            for i, (a, b) in enumerate(space.edges):
                if refl:
                    a, b = (-a) % n, (-b) % n
                a2, b2 = (a + r) % n, (b + r) % n
                perm[i] = space.index[(a2, b2) if a2 < b2 else (b2, a2)]
            perms.append(tuple(perm))
    return tuple(perms)


@lru_cache(maxsize=64)
def _mask_canonicalizer(n: int):
    """The transposition memo's key function for ``K_n`` chord masks:
    ``mask ->`` its minimum image under the ``2n`` ring symmetries.

    Table-driven: ``tables[c][v]`` packs the images of value ``v`` in
    the mask's c-th 8-bit chunk under *every* symmetry into one
    integer, one fixed-width lane per symmetry.  OR-ing one entry per
    chunk yields all ``2n`` images at once (each symmetry permutes the
    chord bits, so lanes never overlap), and the canonical mask is the
    smallest lane.  With at most 64 chord bits (n ≤ 11) the lanes are
    read out as one ``array("Q")``.
    """
    perms = dihedral_bit_perms(n)
    nbits = len(perms[0])
    nperms = len(perms)
    lane = 64 * -(-nbits // 64)
    single = [
        sum(1 << (perm[b] + lane * p) for p, perm in enumerate(perms))
        for b in range(nbits)
    ]
    tables = []
    for base in range(0, nbits, 8):
        tab = [0] * (1 << min(8, nbits - base))
        for v in range(1, len(tab)):
            tab[v] = tab[v & (v - 1)] | single[base + (v & -v).bit_length() - 1]
        tables.append(tab)
    nchunks = len(tables)

    def images(mask: int) -> int:
        img = 0
        for tab, v in zip(tables, mask.to_bytes(nchunks, "little")):
            img |= tab[v]
        return img

    if lane == 64:
        nbytes = 8 * nperms

        def canonical(mask: int) -> int:
            return min(array("Q", images(mask).to_bytes(nbytes, sys.byteorder)))

    else:
        lane_mask = (1 << lane) - 1

        def canonical(mask: int) -> int:
            img = images(mask)
            return min((img >> (lane * p)) & lane_mask for p in range(nperms))

    return canonical


def _bound_fragments(
    dist: tuple[int, ...], masks, bit_lists, demand_bits: list[int]
) -> tuple[list[int], int, list[int]]:
    """Fractional-bound fragments for the demanded chord bits.

    Returns ``(weights, denom, uncoverable)`` with ``weights[e] =
    dist(e) · denom / mm(e)`` for demanded bits (0 elsewhere), where
    ``mm(e)`` is the maximum in-demand coverage mass over candidate
    blocks containing ``e`` and ``denom = lcm{mm(e)}``; any demanded
    chord no candidate covers is reported in ``uncoverable``.
    """
    demand_mask = 0
    for b in demand_bits:
        demand_mask |= 1 << b
    nbits = len(dist)
    mm = [0] * nbits
    for mask, bits in zip(masks, bit_lists):
        if not mask & demand_mask:
            continue
        mass = sum(dist[b] for b in bits if (demand_mask >> b) & 1)
        for b in bits:
            if (demand_mask >> b) & 1 and mass > mm[b]:
                mm[b] = mass
    uncoverable = [b for b in demand_bits if mm[b] == 0]
    denom = 1
    for b in demand_bits:
        if mm[b]:
            denom = lcm(denom, mm[b])
    weights = [0] * nbits
    for b in demand_bits:
        if mm[b]:
            weights[b] = dist[b] * denom // mm[b]
    return weights, denom, uncoverable


def _build_table(n: int, pool: tuple[CycleBlock, ...], *, mass_sorted: bool) -> BlockTable:
    space = edge_space(n)
    dist = space.dist
    masks: list[int] = []
    bit_lists: list[tuple[int, ...]] = []
    masses: list[int] = []
    for blk in pool:
        mask = 0
        bits: list[int] = []
        for e in blk.edges():
            b = space.index[e]
            mask |= 1 << b
            bits.append(b)
        masks.append(mask)
        bit_lists.append(tuple(bits))
        masses.append(sum(dist[b] for b in bits))
    per_edge: list[list[int]] = [[] for _ in space.edges]
    for i, bits in enumerate(bit_lists):
        for b in bits:
            per_edge[b].append(i)
    if mass_sorted:
        # Widest coverage first (then heaviest): the branching expansion
        # sorts dynamically by residual mass, and this static order is
        # its tie-break — preferring more-chords-covered on residual
        # ties is measured ~47× cheaper at n = 10 than mass-first.
        for cands in per_edge:
            cands.sort(key=lambda i: (-pool[i].size, -masses[i], i))
    weights, denom, _ = _bound_fragments(
        dist, masks, bit_lists, list(range(len(space.edges)))
    )
    return BlockTable(
        tuple(pool),
        tuple(masks),
        tuple(tuple(c) for c in per_edge),
        tuple(bit_lists),
        tuple(masses),
        tuple(weights),
        denom,
    )


@lru_cache(maxsize=32)
def convex_block_table(n: int, max_size: int = 4) -> BlockTable:
    return _build_table(n, enumerate_convex_blocks(n, max_size), mass_sorted=True)


@lru_cache(maxsize=32)
def tight_block_table(n: int, max_size: int = 4) -> BlockTable:
    return _build_table(n, enumerate_tight_blocks(n, max_size), mass_sorted=False)


@lru_cache(maxsize=64)
def restricted_block_table(
    n: int, max_size: int, allowed_sizes: tuple[int, ...], pool: str = "convex"
) -> BlockTable:
    """A candidate table admitting only cycle lengths in
    ``allowed_sizes`` (Manthey-style restricted covers).

    The table is rebuilt — not just filtered — so the per-chord bound
    fragments (``chord_weights``/``weight_denom``) see the restricted
    pool: chords whose full-mass candidates were excluded get heavier
    fractional weights, which is exactly where the packing bound
    strengthens on restricted instances.  Memoized like the full
    tables; a chord no admitted block covers simply has an empty
    candidate list (callers decide whether that is fatal).
    """
    sizes = frozenset(allowed_sizes)
    if pool == "convex":
        base = enumerate_convex_blocks(n, max_size)
    elif pool == "tight":
        base = enumerate_tight_blocks(n, max_size)
    else:
        raise SolverError(f"unknown candidate pool {pool!r}")
    admitted = tuple(blk for blk in base if blk.size in sizes)
    return _build_table(n, admitted, mass_sorted=pool == "convex")


# ---------------------------------------------------------------------------
# Dihedral symmetry
# ---------------------------------------------------------------------------


def dihedral_canonical(n: int, vertices: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical representative of a vertex set under the ``2n`` ring
    symmetries (rotations and reflections of ``C_n``).

    Convex blocks are determined by their vertex set, so two convex
    blocks lie in the same dihedral orbit iff their canonical vertex
    sets coincide.
    """
    best: tuple[int, ...] | None = None
    for vs in (vertices, tuple((-v) % n for v in vertices)):
        for r in range(n):
            img = tuple(sorted((v + r) % n for v in vs))
            if best is None or img < best:
                best = img
    assert best is not None
    return best


def _orbit_representatives(
    n: int, blocks: tuple[CycleBlock, ...], cand_indices
) -> tuple[list[int], list[int]]:
    """One candidate per dihedral orbit, in candidate order, plus the
    orbit weight (how many candidates each representative stands for —
    the shard-balancing weight)."""
    order: dict[tuple[int, ...], int] = {}
    reps: list[int] = []
    weights: list[int] = []
    for i in cand_indices:
        key = dihedral_canonical(n, blocks[i].vertices)
        pos = order.get(key)
        if pos is None:
            order[key] = len(reps)
            reps.append(i)
            weights.append(1)
        else:
            weights[pos] += 1
    return reps, weights


def _is_dihedral_invariant(instance) -> bool:
    """True when demand depends only on chord distance — the condition
    under which root symmetry breaking and canonical-mask memoization
    are sound for an instance."""
    n = instance.n
    per_dist: dict[int, int] = {}
    for e in circular.all_chords(n):
        d = circular.chord_distance(n, e)
        m = instance.required(e)
        if per_dist.setdefault(d, m) != m:
            return False
    return True


# ---------------------------------------------------------------------------
# Dominance pruning
# ---------------------------------------------------------------------------


def dominated_candidates(
    masks,
    restrict_mask: int | None = None,
    costs: "list[int] | tuple[int, ...] | None" = None,
) -> set[int]:
    """Indices of candidates dominated within the demanded chord set.

    Candidate ``i`` is dominated when some other candidate ``j`` covers
    a (weak) superset of ``i``'s demanded chords *at no greater cost*;
    of an exactly-equal pair only the later index is dropped, so at
    least one optimal covering always survives the filter (every
    covering maps block-for-block onto dominators without its objective
    value growing).  ``costs=None`` means unit costs — the historical
    ``min_blocks`` behaviour, where any superset dominates.  Weighted
    objectives **must** pass their block costs: a 4-cycle covering a
    superset of a triangle's demanded chords does not dominate it under
    the ring-size-sum objective (3 slots beat 4 — the cost-blind filter
    provably loses optima there).  Candidates with no demanded coverage
    at all are dominated trivially.  Only sound for *covering*
    problems — see :func:`exact_decomposition`.
    """
    if restrict_mask is None:
        restricted = list(masks)
    else:
        restricted = [m & restrict_mask for m in masks]
    dropped: set[int] = set()
    nblocks = len(restricted)
    for i in range(nblocks):
        ri = restricted[i]
        if ri == 0:
            dropped.add(i)
            continue
        for j in range(nblocks):
            if j == i or j in dropped:
                continue
            rj = restricted[j]
            if ri & ~rj != 0:
                continue
            if costs is None:
                strictly_better = ri != rj
            else:
                if costs[j] > costs[i]:
                    continue
                strictly_better = ri != rj or costs[j] < costs[i]
            if strictly_better or j < i:
                dropped.add(i)
                break
    return dropped


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class SolverEngine:
    """Shared bitmask kernel behind every exact solver and the greedy
    baseline (see the module docstring for the architecture)."""

    def __init__(self, n: int, *, max_size: int = 4):
        if n < 3:
            raise SolverError(f"n ≥ 3 required, got {n}")
        self.n = n
        self.max_size = max_size

    # -- shared state (memoized at module level, cheap to re-ask) -------

    @property
    def space(self) -> EdgeSpace:
        return edge_space(self.n)

    @property
    def convex_table(self) -> BlockTable:
        return convex_block_table(self.n, self.max_size)

    @property
    def tight_table(self) -> BlockTable:
        return tight_block_table(self.n, self.max_size)

    def _table(
        self, pool: str, allowed_sizes: tuple[int, ...] | None = None
    ) -> BlockTable:
        if allowed_sizes is not None:
            return restricted_block_table(
                self.n, self.max_size, tuple(allowed_sizes), pool
            )
        if pool == "convex":
            return self.convex_table
        if pool == "tight":
            return self.tight_table
        raise SolverError(f"unknown candidate pool {pool!r}")

    # -- greedy kernel ---------------------------------------------------

    def greedy_cover_indices(
        self,
        demand: dict[tuple[int, int], int],
        *,
        pool: str = "convex",
        allowed_sizes: tuple[int, ...] | None = None,
    ) -> tuple[list[int], int]:
        """Deterministic max-coverage greedy over the pool: repeatedly
        take the block covering the most residual requests, ties toward
        lower waste then enumeration order.  Returns the chosen block
        indices and the number of residual requests it failed to cover
        (0 whenever the pool can reach them, which it always can for
        ``pool="convex"`` without a size restriction)."""
        table = self._table(pool, allowed_sizes)
        index = self.space.index
        residual = [0] * len(index)
        live = 0  # chords with positive residual demand
        for e, m in demand.items():
            if m > 0:
                b = index[e]
                residual[b] = m
                live |= 1 << b
        masks = table.masks
        # Maximise gain, then minimise waste (= size − gain), then the
        # lowest index: one integer key, since gain ≤ size ≤ n.
        width = self.n + 1
        chosen: list[int] = []
        while live:
            scores = [(m & live).bit_count() * width - m.bit_count() for m in masks]
            top = max(scores, default=0)
            if top <= 0:  # no block reaches a live chord
                break
            best_i = scores.index(top)
            chosen.append(best_i)
            for b in table.bit_lists[best_i]:
                m = residual[b]
                if m > 0:
                    residual[b] = m - 1
                    if m == 1:
                        live &= ~(1 << b)
        return chosen, sum(residual)

    def greedy_cover(
        self,
        instance=None,
        *,
        pool: str = "convex",
        allowed_sizes: tuple[int, ...] | None = None,
    ) -> Covering:
        """Greedy covering as a ledger-backed :class:`Covering`; raises
        :class:`SolverError` when the (possibly size-restricted) pool
        cannot reach some request."""
        from ..traffic.instances import all_to_all

        inst = instance if instance is not None else all_to_all(self.n)
        if inst.n != self.n:
            raise SolverError(f"instance order {inst.n} ≠ n = {self.n}")
        chosen, leftover = self.greedy_cover_indices(
            dict(inst.demand), pool=pool, allowed_sizes=allowed_sizes
        )
        if leftover:
            raise SolverError(
                f"greedy covering stuck with {leftover} requests left "
                f"(n={self.n}, pool={pool!r}, max_size={self.max_size}, "
                f"allowed_sizes={allowed_sizes})"
            )
        table = self._table(pool, allowed_sizes)
        return Covering(self.n, tuple(table.blocks[i] for i in chosen))

    def _incumbent_blocks(
        self,
        objective: Objective,
        allowed_sizes: tuple[int, ...] | None = None,
    ) -> list[CycleBlock] | None:
        """Greedy All-to-All covering tightened by the local-search
        improver — the incumbent every ``K_n`` search starts from.
        Honours the objective's move scoring and the size restriction
        (a restricted search must never be seeded with an inadmissible
        incumbent)."""
        from .improve import improved_greedy_covering

        try:
            improved = improved_greedy_covering(
                self.n,
                max_size=self.max_size,
                max_rounds=2,
                objective=objective,
                allowed_sizes=allowed_sizes,
            )
        except SolverError:
            return None
        return list(improved.blocks)

    # -- minimum covering of K_n ----------------------------------------

    def min_covering(
        self,
        *,
        upper_bound: int | None = None,
        node_limit: int = DEFAULT_NODE_LIMIT,
        stats: SolverStats | None = None,
        branching: str = "lex",
        use_memo: bool = True,
        deadline: float | None = None,
        objective: Objective | str | None = None,
        allowed_sizes: tuple[int, ...] | None = None,
        checkpoint: SearchCheckpoint | None = None,
        checkpoint_every: int | None = None,
        on_checkpoint=None,
        preempt=None,
    ) -> Covering:
        """Certified minimum DRC-covering of ``K_n`` over ``C_n``.

        ``upper_bound`` is *inclusive* and expressed in the objective's
        units: a covering of exactly that value is still found and
        returned (internally the branch-and-bound threshold is the
        exclusive ``upper_bound + 1``).  Raises :class:`SolverError`
        when no covering within the bound exists.

        ``objective`` selects the cost model (default ``min_blocks`` —
        the historical behaviour, node-for-node); ``allowed_sizes``
        restricts candidate cycle lengths (Manthey-style restricted
        covers) and raises when some chord becomes uncoverable.
        ``branching`` and ``use_memo`` select the chord order and the
        canonical-mask transposition memo (see the module docstring);
        the defaults are the measured-fastest configuration and the
        knobs exist for the A4 ablation.  ``deadline`` is an absolute
        ``time.time()`` wall-clock cutoff (the :mod:`repro.api` layer
        derives it from a spec's time budget); overrunning it raises,
        exactly like the node limit.

        Checkpointing: pass ``checkpoint`` (a
        :class:`~repro.core.checkpoint.SearchCheckpoint` from a prior
        run) to resume exactly where that run stopped — the final
        covering and node count are identical to an uninterrupted
        search.  ``on_checkpoint`` is called with a fresh snapshot
        once every ``checkpoint_every`` nodes; ``preempt`` is polled with
        the live :class:`SolverStats` at the deadline cadence and a
        truthy return raises :class:`SolverPreempted` carrying the
        resumable checkpoint (deadline overruns raise the same way;
        a node-limit overrun raises :class:`SolverError` with the
        checkpoint attached).
        """
        n = self.n
        if n > 12:
            raise SolverError(f"exact covering solver is for small n (≤ 12), got {n}")

        obj = resolve_objective(objective)
        st = stats if stats is not None else SolverStats()
        best_count, best_blocks, root_cands, _ = self._search_prologue(
            upper_bound, branching, obj, allowed_sizes
        )
        model = _KnModel(
            self,
            obj,
            root_cands=root_cands,
            branching=branching,
            use_memo=use_memo,
            allowed_sizes=allowed_sizes,
        )
        best_count, best_blocks = _branch_and_bound(
            model,
            best_value=best_count,
            best_blocks=best_blocks,
            node_limit=node_limit,
            st=st,
            deadline=deadline,
            preempt=preempt,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )
        if best_blocks is None:
            # The search ran to exhaustion (a node-limit overrun raises
            # inside), so the bound itself is below the optimum.
            raise SolverError(
                f"no covering of K_{n} within upper bound {upper_bound} "
                f"(the optimum is larger)"
            )
        st.best_value = best_count
        st.proven_optimal = True
        return Covering(n, tuple(best_blocks))

    def _search_prologue(
        self,
        upper_bound: int | None,
        branching: str,
        objective: Objective,
        allowed_sizes: tuple[int, ...] | None = None,
    ) -> tuple[int, list[CycleBlock] | None, list[int], list[int]]:
        """Shared setup of the serial and sharded ``K_n`` certifications:
        the exclusive threshold (seeded by the greedy/improver
        incumbent, valued under the objective) and the root orbit
        representatives with their orbit weights.  Keeping one copy is
        what guarantees both paths prove against the same incumbent
        convention."""
        table = self._table("convex", allowed_sizes)
        if allowed_sizes is not None:
            for bit, cands in enumerate(table.per_edge):
                if not cands:
                    raise SolverError(
                        f"no candidate block of size in {tuple(sorted(set(allowed_sizes)))} "
                        f"covers chord {self.space.edges[bit]} of K_{self.n}"
                    )
        max_block_cost = max(
            (objective.block_cost(blk) for blk in table.blocks), default=1
        )
        best_count = (
            max_block_cost * len(self.space.edges) + 1
            if upper_bound is None
            else upper_bound + 1
        )
        best_blocks: list[CycleBlock] | None = None
        incumbent = self._incumbent_blocks(objective, allowed_sizes)
        if incumbent is not None:
            incumbent_value = sum(objective.block_cost(blk) for blk in incumbent)
            if incumbent_value < best_count:
                best_count = incumbent_value
                best_blocks = incumbent
        order = self._branch_order(table, branching)
        # All-to-All is dihedral-invariant, so the root branch needs one
        # block per orbit only.
        root_cands, orbit_weights = _orbit_representatives(
            self.n, table.blocks, table.per_edge[order[0]]
        )
        return best_count, best_blocks, root_cands, orbit_weights

    def _branch_order(self, table: BlockTable, branching: str) -> list[int]:
        space = self.space
        if branching == "lex":
            return list(range(len(space.edges)))
        if branching == "scarcest":
            return sorted(
                range(len(space.edges)),
                key=lambda e: (len(table.per_edge[e]), -space.dist[e], e),
            )
        raise SolverError(
            f"unknown branching order {branching!r} (expected one of {BRANCHING_ORDERS})"
        )

    # -- sharded scale-out -----------------------------------------------

    def min_covering_sharded(
        self,
        *,
        workers: int | None = None,
        upper_bound: int | None = None,
        node_limit: int = DEFAULT_NODE_LIMIT,
        stats: SolverStats | None = None,
        branching: str = "lex",
        use_memo: bool = True,
        deadline: float | None = None,
        objective: Objective | str | None = None,
        allowed_sizes: tuple[int, ...] | None = None,
    ) -> Covering:
        """Certified minimum covering of ``K_n`` sharded across
        processes by root-orbit partitioning (objective-generic — the
        objective is shipped to the shard workers by registry name).

        The root orbit representatives are split into per-worker shards
        balanced by orbit weight; every worker searches its shard
        starting from the shared greedy/improver incumbent, so the
        union of the shard proofs is exactly the serial proof.  Results
        and merged statistics are deterministic for a fixed shard count
        (scheduling order cannot change them).  With one worker this
        degrades to :meth:`min_covering`.
        """
        n = self.n
        if n > 12:
            raise SolverError(f"exact covering solver is for small n (≤ 12), got {n}")
        obj = resolve_objective(objective)
        nworkers = resolve_workers(workers)
        if nworkers == 1:
            return self.min_covering(
                upper_bound=upper_bound,
                node_limit=node_limit,
                stats=stats,
                branching=branching,
                use_memo=use_memo,
                deadline=deadline,
                objective=obj,
                allowed_sizes=allowed_sizes,
            )

        st = stats if stats is not None else SolverStats()
        best_count, best_blocks, root_cands, orbit_weights = self._search_prologue(
            upper_bound, branching, obj, allowed_sizes
        )
        shards = weighted_chunks(root_cands, orbit_weights, nworkers)
        payloads = [
            (
                n,
                self.max_size,
                tuple(shard),
                best_count,
                node_limit,
                branching,
                use_memo,
                deadline,
                obj.name,
                allowed_sizes,
            )
            for shard in shards
        ]
        results = parallel_map(
            _sharded_root_worker, payloads, workers=len(payloads), min_chunk=1
        )
        shard_stats = []
        for count, vertex_lists, nodes in results:
            part = SolverStats(nodes=nodes, best_value=count, proven_optimal=True)
            shard_stats.append(part)
            if count is not None and count < best_count:
                best_count = count
                best_blocks = [CycleBlock(tuple(vs)) for vs in vertex_lists]
        merged = SolverStats.merge(shard_stats)
        st.nodes += merged.nodes
        st.shards = merged.shards
        if best_blocks is None:
            raise SolverError(
                f"no covering of K_{n} within upper bound {upper_bound} "
                f"(the optimum is larger)"
            )
        st.best_value = best_count
        st.proven_optimal = merged.proven_optimal
        return Covering(n, tuple(best_blocks))

    # -- minimum covering of an arbitrary instance -----------------------

    def min_covering_instance(
        self,
        instance,
        *,
        node_limit: int = DEFAULT_NODE_LIMIT,
        stats: SolverStats | None = None,
        dominance: bool = True,
        deadline: float | None = None,
        objective: Objective | str | None = None,
        allowed_sizes: tuple[int, ...] | None = None,
        checkpoint: SearchCheckpoint | None = None,
        checkpoint_every: int | None = None,
        on_checkpoint=None,
        preempt=None,
    ) -> Covering:
        """Certified minimum DRC-covering of an arbitrary instance on
        ``C_n`` (multiplicities supported — e.g. ``λK_n``), generic
        over the objective.

        Inadmissible candidates (cycle lengths outside
        ``allowed_sizes``) are dropped alongside the dominance filter
        (``dominance=False`` disables the latter — the knob the
        soundness property tests exercise); the branch-and-bound prunes
        with the objective's node bound over the residual demand (for
        ``min_blocks`` the historical fractional/cardinality packing
        maximum) plus a residual-state transposition memo keyed by
        accumulated objective cost.  Exponential; intended for small
        instances (``n ≤ 10``, small λ).  This is the certifier behind
        the λK_n experiment's exact values.

        ``checkpoint``/``checkpoint_every``/``on_checkpoint``/``preempt``
        follow :meth:`min_covering`'s resumable-search contract; the
        instance frames additionally carry the per-chord residual
        decrements so the mutable residual count vector restores
        exactly, and resume validates a demand fingerprint.
        """
        from ..traffic.instances import Instance

        if not isinstance(instance, Instance):
            raise SolverError(f"expected an Instance, got {type(instance).__name__}")
        n = instance.n
        if n != self.n:
            raise SolverError(f"instance order {n} ≠ n = {self.n}")
        if n > 10:
            raise SolverError(f"instance solver is for small n (≤ 10), got {n}")

        obj = resolve_objective(objective)
        space = self.space
        residual_counts = [0] * len(space.edges)
        for e, m in instance.demand.items():
            if m > 0:
                residual_counts[space.index[e]] = m
        demand_bits = [b for b, m in enumerate(residual_counts) if m]
        st = stats if stats is not None else SolverStats()
        if not demand_bits:
            st.best_value = 0
            st.proven_optimal = True
            return Covering(n, ())

        table = self.convex_table
        demand_mask = 0
        for b in demand_bits:
            demand_mask |= 1 << b
        keep = [
            i
            for i, m in enumerate(table.masks)
            if m & demand_mask and obj.admits(table.blocks[i], allowed_sizes)
        ]
        if dominance:
            # Cost-aware dominance: under weighted objectives a superset
            # cover only dominates at equal-or-lower block cost (unit
            # costs reduce to the historical min_blocks filter).
            dropped = dominated_candidates(
                [table.masks[i] for i in keep],
                demand_mask,
                costs=[obj.block_cost(table.blocks[i]) for i in keep],
            )
            keep = [i for k, i in enumerate(keep) if k not in dropped]

        weights, denom, uncoverable = _bound_fragments(
            space.dist,
            [table.masks[i] for i in keep],
            [table.bit_lists[i] for i in keep],
            demand_bits,
        )
        if uncoverable:
            e = space.edges[uncoverable[0]]
            raise SolverError(f"no candidate block covers requested chord {e}")
        per_bit: dict[int, list[int]] = {b: [] for b in demand_bits}
        max_cover = 1
        for i in keep:
            covered_bits = [b for b in table.bit_lists[i] if (demand_mask >> b) & 1]
            max_cover = max(max_cover, len(covered_bits))
            for b in covered_bits:
                per_bit[b].append(i)

        # Exclusive threshold: one admitted block per request always
        # suffices, so this is a true upper limit (max_cost = 1 recovers
        # min_covering's historical total_requests + 1).
        max_cost = max((obj.block_cost(table.blocks[i]) for i in keep), default=1)
        best_count = max_cost * sum(residual_counts) + 1
        best_blocks: list[CycleBlock] | None = None
        greedy_idx, leftover = self.greedy_cover_indices(
            dict(instance.demand), allowed_sizes=allowed_sizes
        )
        if not leftover:
            greedy_table = self._table("convex", allowed_sizes)
            greedy_value = sum(
                obj.block_cost(greedy_table.blocks[i]) for i in greedy_idx
            )
            if greedy_value < best_count:
                best_count = greedy_value
                best_blocks = [greedy_table.blocks[i] for i in greedy_idx]

        # Root symmetry breaking is sound only when the demand itself is
        # preserved by the ring's rotations and reflections.
        root_cands: list[int] | None = None
        if _is_dihedral_invariant(instance):
            root_cands, _ = _orbit_representatives(
                n, table.blocks, per_bit[demand_bits[0]]
            )

        model = _InstanceModel(
            self,
            obj,
            residual_counts=residual_counts,
            keep=keep,
            weights=weights,
            denom=denom,
            max_cover=max_cover,
            per_bit=per_bit,
            root_cands=root_cands,
            dominance=dominance,
            allowed_sizes=allowed_sizes,
            demand=sorted([a, b, m] for (a, b), m in instance.demand.items() if m > 0),
        )
        best_count, best_blocks = _branch_and_bound(
            model,
            best_value=best_count,
            best_blocks=best_blocks,
            node_limit=node_limit,
            st=st,
            deadline=deadline,
            preempt=preempt,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )
        if best_blocks is None:
            raise SolverError("no covering found (node limit too small?)")
        st.best_value = best_count
        st.proven_optimal = True
        return Covering(n, tuple(best_blocks))


# ---------------------------------------------------------------------------
# The branch-and-bound driver and its residual models
# ---------------------------------------------------------------------------
#
# One explicit-stack loop (:func:`_branch_and_bound`) runs every exact
# covering search.  It owns the frame stack, the chosen-block path, node
# accounting, the node-limit/deadline/preempt checks, and checkpoint
# capture and resume.  What a search node *is* lives in a residual
# model: :class:`_KnModel` (the covered-chord bitmask of ``K_n``,
# checkpoint kind ``kn``) or :class:`_InstanceModel` (the per-chord
# residual count vector of an arbitrary demand, kind ``instance``).
#
# Every frame starts with the same four slots:
#
#   [scored, cursor, bpu, entries, <model state ...>]
#
# ``scored`` is the node's candidate blocks in expansion order and
# ``cursor`` the next one to try; frame k's active child is always
# ``scored[cursor - 1]``, so the chosen-block path is implicit in the
# stack.  ``entries[k]`` is child k's (−mass, ΔW, newly covered, parity
# toggle) and ``bpu[k]`` its *bound plus cost*: the child's accumulated
# cost plus the objective's lower bound on what remains (for a child
# that completes a covering, just its cost).  A child is pruned by the
# bound exactly when ``bpu[k] >= best``, so the driver skips whole runs
# of bound-pruned children in one step — counting one node per child,
# as visiting each would.

# Outcome of ``model.child`` for a child that completes a covering.
_LEAF = object()


def _branch_and_bound(
    model,
    *,
    best_value: int,
    best_blocks: list[CycleBlock] | None,
    node_limit: int,
    st: SolverStats,
    deadline: float | None,
    preempt,
    checkpoint: SearchCheckpoint | None,
    checkpoint_every: int | None,
    on_checkpoint,
) -> tuple[int, list[CycleBlock] | None]:
    """Run ``model``'s search to exhaustion from the exclusive threshold
    ``best_value`` (objective units; only strictly better coverings are
    accepted) and return the improved ``(best_value, best_blocks)``.

    A node-limit overrun raises :class:`SolverError` at exactly
    ``node_limit + 1`` nodes; deadline overruns and truthy ``preempt``
    polls raise :class:`SolverPreempted`.  Both carry a resumable
    :class:`SearchCheckpoint`, and resuming one continues the identical
    node sequence.  Deadline/preempt polls fire when the node count
    crosses a multiple of ``DEADLINE_POLL_MASK + 1``, and
    ``on_checkpoint`` flushes once ``checkpoint_every`` nodes have
    passed since the last one.
    """
    n = model.n
    blocks = model.blocks
    memo = model.memo
    best: list = [best_value, best_blocks]
    chosen: list[int] = []
    frames: list[list] = []

    def capture() -> SearchCheckpoint:
        return SearchCheckpoint(
            kind=model.kind,
            n=n,
            max_size=model.max_size,
            objective=model.objective,
            nodes=st.nodes,
            best_value=best[0],
            best_blocks=(
                tuple(blk.vertices for blk in best[1]) if best[1] is not None else None
            ),
            frames=[model.dump(fr) for fr in frames],
            memo=list(memo.items()),
            residual_counts=model.residual_counts(),
            resumes=(checkpoint.resumes + 1) if checkpoint is not None else 0,
            **model.config,
        )

    def overrun(error, message: str):
        return error(
            message,
            checkpoint=capture(),
            best_blocks=list(best[1]) if best[1] is not None else None,
            best_value=best[0],
            stats=st,
        )

    if checkpoint is not None:
        checkpoint.check_compatible(
            kind=model.kind,
            n=n,
            max_size=model.max_size,
            objective=model.objective,
            **model.config,
        )
        st.nodes = checkpoint.nodes
        best[0] = checkpoint.best_value
        best[1] = (
            [CycleBlock(tuple(vs)) for vs in checkpoint.best_blocks]
            if checkpoint.best_blocks is not None
            else None
        )
        for key, value in checkpoint.memo:
            memo.store(key, value)
        frames = model.load(checkpoint)
        chosen = [fr[0][fr[1] - 1] for fr in frames[:-1]]
    else:
        st.nodes += 1
        root = model.root(best[0])
        if root is not None:
            frames.append(root)

    nodes = st.nodes
    next_poll = (nodes | DEADLINE_POLL_MASK) + 1
    next_flush = None
    if checkpoint_every and on_checkpoint is not None:
        next_flush = nodes + checkpoint_every

    def slow_threshold() -> int:
        at = min(node_limit + 1, next_poll)
        return at if next_flush is None else min(at, next_flush)

    slow_at = slow_threshold()
    child = model.child
    while frames:
        if nodes >= slow_at:
            st.nodes = nodes
            if nodes > node_limit:
                raise overrun(SolverError, model.limit_message(node_limit))
            if nodes >= next_poll:
                next_poll = (nodes | DEADLINE_POLL_MASK) + 1
                if deadline is not None and time.time() > deadline:
                    raise overrun(
                        SolverPreempted, f"solver exceeded its time budget for n={n}"
                    )
                if preempt is not None and preempt(st):
                    raise overrun(
                        SolverPreempted, f"solver preempted at {nodes} nodes for n={n}"
                    )
            if next_flush is not None and nodes >= next_flush:
                on_checkpoint(capture())
                next_flush = nodes + checkpoint_every
            slow_at = slow_threshold()
        fr = frames[-1]
        bpu = fr[2]
        cursor = k = fr[1]
        m = len(bpu)
        threshold = best[0]
        while k < m and bpu[k] >= threshold:
            k += 1
        if k != cursor:
            if nodes + (k - cursor) > node_limit:
                # Count only up to the limit, so the raise fires at
                # exactly node_limit + 1 with the cursor just past the
                # child that crossed it.
                fr[1] = cursor + node_limit + 1 - nodes
                nodes = node_limit + 1
                continue
            nodes += k - cursor
        if k == m:
            frames.pop()
            model.pop(fr)
            if frames:
                chosen.pop()
            continue
        nodes += 1
        fr[1] = k + 1
        outcome = child(fr, k)
        if outcome is None:
            continue
        i = fr[0][k]
        if outcome is _LEAF:
            best[0] = bpu[k]
            best[1] = [blocks[j] for j in chosen] + [blocks[i]]
        else:
            frames.append(outcome)
            chosen.append(i)
    st.nodes = nodes
    return best[0], best[1]


class _ChildEntries(dict):
    """One candidate block's child evaluations, filled on demand: key
    ``positive_residual_mask & block_mask`` → ``(−mass, ΔW, newly
    covered, parity toggle)``.  A block covering ``s`` chords has at most
    ``2**s`` distinct keys, so each is computed once per search and then
    only looked up."""

    __slots__ = ("bits", "dist", "weights", "ends")

    def __init__(self, bits: tuple[int, ...], dist, weights, ends) -> None:
        super().__init__()
        self.bits = bits
        self.dist = dist
        self.weights = weights
        self.ends = ends

    def __missing__(self, key: int) -> tuple[int, int, int, int]:
        dist, weights, ends = self.dist, self.weights, self.ends
        neg_mass = dW = count = toggle = 0
        for b in self.bits:
            if (key >> b) & 1:
                neg_mass -= dist[b]
                dW += weights[b]
                count += 1
                toggle ^= ends[b]
        entry = self[key] = (neg_mass, dW, count, toggle)
        return entry


class _ResidualModel:
    """What both residual models share: the candidate table, objective
    costs and bound, the transposition memo, and the per-node child
    evaluation (:meth:`_score`)."""

    def __init__(
        self,
        engine: "SolverEngine",
        obj: Objective,
        table: BlockTable,
        usable,
        weights,
        denom: int,
        max_cover: int,
        allowed_sizes: tuple[int, ...] | None,
        config: dict,
    ) -> None:
        space = engine.space
        self.n = engine.n
        self.max_size = engine.max_size
        self.objective = obj.name
        # The search configuration a checkpoint records and a resume
        # must match (beyond kind, n, max_size and objective).
        self.config = dict(
            config,
            allowed_sizes=tuple(allowed_sizes) if allowed_sizes is not None else None,
        )
        self.blocks = table.blocks
        self.masks = table.masks
        self.bit_lists = table.bit_lists
        self.weights = weights
        ends = (
            [(1 << a) | (1 << c) for a, c in space.edges]
            if obj.track_parity
            else [0] * len(space.edges)
        )
        costs = [obj.block_cost(blk) for blk in table.blocks]
        self.costs = costs
        min_cost = min((costs[i] for i in usable), default=1)
        node_bound = obj.node_bound

        def bound(frac_units: int, residual: int, odd: int) -> int:
            value = node_bound(
                frac_units=frac_units,
                frac_denom=denom,
                residual_requests=residual,
                max_cover=max_cover,
                min_cost=min_cost,
                odd_vertices=odd.bit_count(),
            )
            return value if value > min_cost else min_cost

        self.bound = bound
        # The bound is a function of (W, residual requests, odd mask)
        # alone and a search meets few distinct triples (about 360 in
        # the n = 10 proof), so each is computed once and then looked up.
        self.bound_cache: dict[tuple[int, int, int], int] = {}
        self.entries = [
            _ChildEntries(bits, space.dist, weights, ends) for bits in table.bit_lists
        ]
        self.memo = CappedMemo(memo_cap())

    def _score(
        self, cands, pos: int, used: int, W: int, odd: int, remaining: int, *,
        ordered: bool,
    ) -> list:
        """Evaluate every child of a node once: its entry (keyed by the
        node's positive-residual mask ``pos``) and its bound plus cost.
        Unless ``ordered`` (a resumed frame), the candidates are first
        sorted by descending residual mass — stable, so the candidate
        list's own order breaks ties."""
        entries = self.entries
        masks = self.masks
        ents = [entries[i][pos & masks[i]] for i in cands]
        if not ordered and len(cands) > 1:
            rank = sorted(range(len(cands)), key=[e[0] for e in ents].__getitem__)
            cands = [cands[j] for j in rank]
            ents = [ents[j] for j in rank]
        else:
            cands = list(cands)
        costs = self.costs
        bound = self.bound
        cache = self.bound_cache
        bpu = []
        for (_, dW, count, toggle), i in zip(ents, cands):
            cost = used + costs[i]
            if count == remaining:
                bpu.append(cost)
            else:
                key = (W - dW, remaining - count, odd ^ toggle)
                b = cache.get(key)
                if b is None:
                    b = cache[key] = bound(*key)
                bpu.append(cost + b)
        return [cands, 0, bpu, ents]

    def _enter(self, key, used: int) -> bool:
        """Transposition memo: False when ``key`` was already reached at
        no greater cost, otherwise record it."""
        prev = self.memo.get(key)
        if prev is not None and prev <= used:
            return False
        self.memo.store(key, used)
        return True

    def pop(self, fr: list) -> None:
        pass

    def residual_counts(self) -> list[int] | None:
        return None


class _KnModel(_ResidualModel):
    """All-to-All demand on ``K_n`` over the (possibly size-restricted)
    convex pool: a node's residual is its covered-chord bitmask, the
    memo key the uncovered mask's dihedral canonical form.

    Frame: ``[scored, cursor, bpu, entries, covered, used, W, odd]``.
    """

    kind = KIND_KN

    def __init__(
        self,
        engine: "SolverEngine",
        obj: Objective,
        *,
        root_cands: list[int],
        branching: str,
        use_memo: bool,
        allowed_sizes: tuple[int, ...] | None,
    ) -> None:
        table = engine._table("convex", allowed_sizes)
        super().__init__(
            engine,
            obj,
            table,
            range(len(table.blocks)),
            table.chord_weights,
            table.weight_denom,
            min(engine.max_size, max((blk.size for blk in table.blocks), default=1)),
            allowed_sizes,
            dict(branching=branching, use_memo=use_memo),
        )
        self.full = engine.space.full_mask
        self.per_edge = table.per_edge
        self.root_cands = root_cands
        order = engine._branch_order(table, branching)
        self.order = None if order == list(range(len(order))) else order
        self.canonical = _mask_canonicalizer(engine.n) if use_memo else None
        self.W_root = sum(table.chord_weights)
        # Residual demand-degree parity per vertex: All-to-All leaves
        # every vertex at degree n − 1.
        self.odd_root = (
            ((1 << engine.n) - 1) if obj.track_parity and (engine.n - 1) % 2 else 0
        )

    def _frame(self, covered: int, used: int, W: int, odd: int, scored=None) -> list:
        unc = self.full & ~covered
        if scored is None:
            if covered == 0:
                cands = self.root_cands
            elif self.order is None:
                cands = self.per_edge[(unc & -unc).bit_length() - 1]
            else:
                cands = self.per_edge[next(e for e in self.order if (unc >> e) & 1)]
        else:
            cands = scored
        fr = self._score(
            cands, unc, used, W, odd, unc.bit_count(), ordered=scored is not None
        )
        fr += (covered, used, W, odd)
        return fr

    def root(self, best_value: int) -> list | None:
        full = self.full
        if self.bound(self.W_root, full.bit_count(), self.odd_root) >= best_value:
            return None
        if self.canonical is not None and not self._enter(self.canonical(full), 0):
            return None
        return self._frame(0, 0, self.W_root, self.odd_root)

    def child(self, fr: list, k: int):
        i = fr[0][k]
        covered = fr[4] | self.masks[i]
        if covered == self.full:
            return _LEAF
        used = fr[5] + self.costs[i]
        if self.canonical is not None and not self._enter(
            self.canonical(self.full & ~covered), used
        ):
            return None
        _, dW, _, toggle = fr[3][k]
        return self._frame(covered, used, fr[6] - dW, fr[7] ^ toggle)

    def dump(self, fr: list) -> list:
        return [fr[4], fr[5], fr[6], fr[7], list(fr[0]), fr[1]]

    def load(self, checkpoint: SearchCheckpoint) -> list[list]:
        frames = []
        for covered, used, W, odd, scored, cursor in checkpoint.frames:
            fr = self._frame(covered, used, W, odd, scored=list(scored))
            fr[1] = cursor
            frames.append(fr)
        return frames

    def limit_message(self, node_limit: int) -> str:
        return f"solver exceeded node limit {node_limit} for n={self.n}"


class _InstanceModel(_ResidualModel):
    """Arbitrary demand (multiplicities allowed): a node's residual is
    the mutable per-chord count vector, the memo key its tuple.  The
    count of a chord drops by one for each chosen block covering it
    while it is still positive; each frame records those decrements so
    popping it (or resuming from a checkpoint) restores the vector.

    Frame: ``[scored, cursor, bpu, entries, used, remaining, W, odd,
    decremented, pos]`` where ``pos`` marks the chords still demanded.
    """

    kind = KIND_INSTANCE

    def __init__(
        self,
        engine: "SolverEngine",
        obj: Objective,
        *,
        residual_counts: list[int],
        keep: list[int],
        weights,
        denom: int,
        max_cover: int,
        per_bit: dict[int, list[int]],
        root_cands: list[int] | None,
        dominance: bool,
        allowed_sizes: tuple[int, ...] | None,
        demand: list[list[int]],
    ) -> None:
        super().__init__(
            engine,
            obj,
            engine.convex_table,
            keep,
            weights,
            denom,
            max_cover,
            allowed_sizes,
            dict(dominance=dominance, demand=demand),
        )
        self.counts = residual_counts
        self.per_bit = per_bit
        self.root_cands = root_cands
        self.root_bit = min(per_bit)
        edges = engine.space.edges
        odd_root = 0
        if obj.track_parity:
            degree = [0] * engine.n
            for b, m in enumerate(residual_counts):
                a, c = edges[b]
                degree[a] += m
                degree[c] += m
            for v, d in enumerate(degree):
                if d % 2:
                    odd_root |= 1 << v
        self.odd_root = odd_root

    @staticmethod
    def _positive(counts: list[int]) -> int:
        pos = 0
        for b, m in enumerate(counts):
            if m:
                pos |= 1 << b
        return pos

    def _frame(
        self, used: int, remaining: int, W: int, odd: int, dec: list[int], pos: int,
        scored=None,
    ) -> list:
        if scored is None:
            target = (pos & -pos).bit_length() - 1
            cands = self.per_bit[target]
            if used == 0 and self.root_cands is not None and target == self.root_bit:
                cands = self.root_cands
        else:
            cands = scored
        fr = self._score(
            cands, pos, used, W, odd, remaining, ordered=scored is not None
        )
        fr += (used, remaining, W, odd, dec, pos)
        return fr

    def root(self, best_value: int) -> list | None:
        counts = self.counts
        remaining = sum(counts)
        W_root = sum(m * w for m, w in zip(counts, self.weights))
        if self.bound(W_root, remaining, self.odd_root) >= best_value:
            return None
        if not self._enter(tuple(counts), 0):
            return None
        return self._frame(
            0, remaining, W_root, self.odd_root, [], self._positive(counts)
        )

    def child(self, fr: list, k: int):
        _, dW, count, toggle = fr[3][k]
        remaining = fr[5] - count
        if remaining == 0:
            return _LEAF
        i = fr[0][k]
        counts = self.counts
        pos = fr[9]
        dec: list[int] = []
        for b in self.bit_lists[i]:
            m = counts[b]
            if m > 0:
                counts[b] = m - 1
                dec.append(b)
                if m == 1:
                    pos ^= 1 << b
        used = fr[4] + self.costs[i]
        if not self._enter(tuple(counts), used):
            for b in dec:
                counts[b] += 1
            return None
        return self._frame(used, remaining, fr[6] - dW, fr[7] ^ toggle, dec, pos)

    def pop(self, fr: list) -> None:
        counts = self.counts
        for b in fr[8]:
            counts[b] += 1

    def residual_counts(self) -> list[int]:
        return list(self.counts)

    def dump(self, fr: list) -> list:
        return [fr[4], fr[5], fr[6], fr[7], list(fr[0]), fr[1], list(fr[8])]

    def load(self, checkpoint: SearchCheckpoint) -> list[list]:
        counts = self.counts
        if checkpoint.residual_counts is not None:
            counts[:] = checkpoint.residual_counts
        # The live counts are the top frame's node; each frame below it
        # sits before the decrements of every frame above it.
        replay = list(counts)
        positives = []
        for *_, dec in reversed(checkpoint.frames):
            positives.append(self._positive(replay))
            for b in dec:
                replay[b] += 1
        frames = []
        for (used, remaining, W, odd, scored, cursor, dec), pos in zip(
            checkpoint.frames, reversed(positives)
        ):
            fr = self._frame(
                used, remaining, W, odd, list(dec), pos, scored=list(scored)
            )
            fr[1] = cursor
            frames.append(fr)
        return frames

    @staticmethod
    def limit_message(node_limit: int) -> str:
        return f"instance solver exceeded node limit {node_limit}"


# ---------------------------------------------------------------------------
# Exact decomposition (the pole completion of Theorem 2)
# ---------------------------------------------------------------------------


def exact_decomposition(
    n: int,
    edges: frozenset[tuple[int, int]],
    *,
    max_triangles: int | None = None,
    node_limit: int = 5_000_000,
    stats: SolverStats | None = None,
) -> list[CycleBlock] | None:
    """Partition ``edges`` into tight convex blocks, each edge exactly
    once; returns ``None`` when no partition exists.

    Algorithm X over :func:`enumerate_tight_blocks` (in pool order,
    blocks with every edge in ``edges``): a block is *live* while it
    shares no edge with a chosen one.  Each node branches on the first
    uncovered chord (sorted order) with the fewest live blocks and
    tries them in pool order; triangles beyond ``max_triangles`` are
    skipped but stay live.  No dominance filtering: a strict superset
    would change the partition.  Past ``node_limit`` nodes it raises
    :class:`SolverError`; ``stats`` follows
    :meth:`SolverEngine.min_covering`'s contract.
    """
    if n < 3:
        raise SolverError(f"n ≥ 3 required, got {n}")
    st = stats if stats is not None else SolverStats()
    index = {e: i for i, e in enumerate(sorted(edges))}
    if not index:
        st.best_value = 0
        st.proven_optimal = True
        return []
    pool: list[CycleBlock] = []
    block_edges: list[list[int]] = []
    per_edge: list[list[int]] = [[] for _ in index]
    for blk in enumerate_tight_blocks(n):
        ids = [index.get(e) for e in blk.edges()]
        if None not in ids:
            for i in ids:
                per_edge[i].append(len(pool))
            pool.append(blk)
            block_edges.append(ids)
    live = [len(cands) for cands in per_edge]
    if 0 in live:
        # An edge without any candidate block: non-existence is
        # certified without search.
        st.proven_optimal = True
        return None
    alive = [True] * len(pool)
    covered = [False] * len(index)

    def node() -> list[int] | None:
        """Count one node; return its branch chord's candidates (empty
        at a dead end, ``None`` once every chord is covered)."""
        st.nodes += 1
        if st.nodes > node_limit:
            raise SolverError(
                f"exact_decomposition exceeded node limit {node_limit} for n={n}"
            )
        branch, fewest = -1, len(pool) + 1
        for e, count in enumerate(live):
            if count < fewest and not covered[e]:
                if count == 0:
                    return []
                branch, fewest = e, count
        return per_edge[branch] if branch >= 0 else None

    # An explicit stack of candidate iterators, one per open node, and a
    # trail of the blocks chosen on the way down with the blocks each
    # killed: recursion would need a Python frame per chosen block.
    stack: list[tuple[Iterator[int], int]] = []
    trail: list[tuple[int, list[int]]] = []
    cands = node()
    if cands is not None:
        stack.append((iter(cands), 0))
    while stack:
        candidates, triangles = stack[-1]
        for b in candidates:
            tri = triangles + (pool[b].size == 3)
            if alive[b] and (max_triangles is None or tri <= max_triangles):
                break
        else:
            # Node exhausted: undo the choice that led to it.
            stack.pop()
            if trail:
                b, killed = trail.pop()
                for c in killed:
                    alive[c] = True
                    for f in block_edges[c]:
                        live[f] += 1
                for e in block_edges[b]:
                    covered[e] = False
            continue
        killed = []
        for e in block_edges[b]:
            covered[e] = True
            for c in per_edge[e]:
                if alive[c]:
                    alive[c] = False
                    killed.append(c)
                    for f in block_edges[c]:
                        live[f] -= 1
        trail.append((b, killed))
        cands = node()
        if cands is None:
            break
        stack.append((iter(cands), tri))

    st.proven_optimal = True  # success, or exhaustion certifies non-existence
    if cands is not None:
        return None
    st.best_value = len(trail)
    return [pool[b] for b, _ in trail]


# ---------------------------------------------------------------------------
# Sharded certification worker
# ---------------------------------------------------------------------------


def _sharded_root_worker(
    payload: tuple[
        int, int, tuple[int, ...], int, int, str, bool, float | None,
        str, tuple[int, ...] | None,
    ],
) -> tuple[int | None, list[tuple[int, ...]] | None, int]:
    """One shard of a root-orbit-partitioned certification: search the
    given root candidates only, starting from the broadcast incumbent
    value (exclusive threshold, objective units).  The objective
    crosses the process boundary by registry name.  Returns a
    strictly-better covering's vertex lists or ``None``, plus the
    shard's node count."""
    (
        n, max_size, root_cands, best_count, node_limit, branching, use_memo,
        deadline, objective_name, allowed_sizes,
    ) = payload
    engine = SolverEngine(n, max_size=max_size)
    st = SolverStats()
    model = _KnModel(
        engine,
        resolve_objective(objective_name),
        root_cands=list(root_cands),
        branching=branching,
        use_memo=use_memo,
        allowed_sizes=allowed_sizes,
    )
    count, blocks = _branch_and_bound(
        model,
        best_value=best_count,
        best_blocks=None,
        node_limit=node_limit,
        st=st,
        deadline=deadline,
        preempt=None,
        checkpoint=None,
        checkpoint_every=None,
        on_checkpoint=None,
    )
    if blocks is None:
        return None, None, st.nodes
    return count, [blk.vertices for blk in blocks], st.nodes
