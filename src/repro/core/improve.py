"""Local-search improvement of DRC coverings.

The exact solver certifies ρ(n) for small n; beyond its reach the repo
previously had only the one-shot greedy baseline.  This module closes
the gap with a deterministic local-search *improver* built on the
O(block) delta machinery of :class:`~repro.core.ledger.CoverageLedger`
(via :meth:`~repro.core.covering.Covering.replace_block` and friends):

* **eject** — drop any block whose removal leaves every demand
  satisfied.
* **merge (2 → 1)** — replace two blocks by one candidate block that
  restores every chord the pair's removal would leave short.
* **replace (1 → 1)** — swap a block for a strictly smaller candidate
  that still covers its binding chords (those at slack 0), shrinking
  total slots (excess) and unlocking future ejects/merges.
* **ruin & recreate** — deterministically remove a small window of
  blocks, re-cover the violated demand greedily (most residual demand
  first, ties toward lower wasted coverage mass), re-run the cheap
  moves, and keep the result only if it is strictly smaller.

The moves read the covering's ledger and the candidate table's chord
bitmasks directly.  A chord's *slack* is its multiplicity minus its
demand (0 for unrequested chords), and it is never negative, because
every covering the moves see is feasible.  The merge pass builds two
masks once per pass: ``S0``, the covered chords at slack 0, and ``S1``,
those at slack 1.  Removing blocks with chord masks ``ma`` and ``mb``
leaves a chord short by the copies the pair holds minus its slack, and
one replacement block restores at most one copy.  So the pair is
unmergeable iff ``ma & mb & S0`` is non-zero, and otherwise the
replacement must cover ``((ma ^ mb) & S0) | (ma & mb & S1)``.  This
holds for any demand: λ-fold, partial, or with unrequested chords
covered.

Every accepted move strictly decreases ``(num_blocks, total_slots)``
lexicographically, so the search terminates; all scans run in a fixed
order, so the result is deterministic.  The engine seeds its
branch-and-bound incumbents from :func:`improve_covering` (better
incumbents mean earlier pruning), and for large n (~40) the improver is
the practical tier: it tightens greedy coverings long after exact
certification stops being tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..traffic.instances import Instance, all_to_all
from ..util.errors import SolverError
from .covering import Covering
from .engine import BlockTable, SolverEngine, edge_space
from .objective import Objective, resolve_objective

__all__ = ["ImproveStats", "improve_covering", "improved_greedy_covering"]

# Beyond this ring size the full convex pool (Θ(n⁴) blocks) stops paying
# for itself; the tight pool reaches every chord and stays Θ(n³).
AUTO_CONVEX_LIMIT = 12


@dataclass
class ImproveStats:
    """Move counts reported by :func:`improve_covering`."""

    rounds: int = 0
    ejects: int = 0
    merges: int = 0
    replaces: int = 0
    repairs_tried: int = 0
    repairs_accepted: int = 0
    start_blocks: int = 0
    end_blocks: int = 0


def _resolve_pool(n: int, pool: str) -> str:
    if pool == "auto":
        return "convex" if n <= AUTO_CONVEX_LIMIT else "tight"
    if pool not in ("convex", "tight"):
        raise SolverError(f"unknown candidate pool {pool!r}")
    return pool


class _BlockChords:
    """Each block's chords as a bitmask, as chord bits and as chord
    tuples (all in ``blk.edges()`` order), computed once per block per
    :func:`improve_covering` call."""

    __slots__ = ("index", "memo")

    def __init__(self, n: int) -> None:
        self.index = edge_space(n).index
        self.memo: dict[tuple[int, ...], tuple[int, tuple[int, ...], tuple]] = {}

    def __call__(self, blk) -> tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]]:
        got = self.memo.get(blk.vertices)
        if got is None:
            edges = blk.edges()
            bits = tuple(self.index[e] for e in edges)
            mask = 0
            for b in bits:
                mask |= 1 << b
            got = self.memo[blk.vertices] = (mask, bits, edges)
        return got


def _find_covering_candidate(
    table: BlockTable, need: int, need_bits: list[int]
) -> int | None:
    """Smallest candidate block covering every chord of the mask
    ``need`` (ties toward enumeration order); ``None`` when no candidate
    does.  ``need_bits`` lists the same chords in scan order."""
    if not need:
        return None
    # Scan the candidate list of the scarcest needed chord only (the
    # first such chord in scan order).
    per_edge = table.per_edge
    rare = min(need_bits, key=lambda b: len(per_edge[b]))
    masks = table.masks
    blocks = table.blocks
    best: int | None = None
    for i in per_edge[rare]:
        if need & masks[i] == need:
            if best is None or blocks[i].size < blocks[best].size:
                best = i
    return best


def _eject_pass(
    cov: Covering, demand: dict, chords: _BlockChords, st: ImproveStats
) -> Covering:
    k = len(cov.blocks) - 1
    while k >= 0:
        counts = cov._ledger.counts
        if all(counts[e] > demand.get(e, 0) for e in chords(cov.blocks[k])[2]):
            cov = cov.without_block(k)
            st.ejects += 1
        k -= 1
    return cov


def _mergeable_pairs(
    cov: Covering, demand: dict, chords: _BlockChords, pool_max: int
):
    """Yield ``(a, b, need, need_bits)`` for every block pair ``a < b``,
    in index order, that one block of at most ``pool_max`` chords could
    replace: ``need`` is the mask of chords the replacement must cover
    and ``need_bits`` lists them in the pair's edge order (a's, then
    b's).  Pairs with an empty need are skipped."""
    # The slack-mask rule of the module docstring.
    index = chords.index
    s0 = s1 = 0
    for e, c in cov._ledger.counts.items():
        slack = c - demand.get(e, 0)
        if slack == 0:
            s0 |= 1 << index[e]
        elif slack == 1:
            s1 |= 1 << index[e]
    info = [chords(blk) for blk in cov.blocks]
    masks = [mask for mask, _, _ in info]
    nblocks = len(masks)
    for a in range(nblocks):
        ma = masks[a]
        # Block a's binding chords alone already fill the largest block.
        if (ma & s0).bit_count() >= pool_max:
            continue
        for b in range(a + 1, nblocks):
            mb = masks[b]
            both = ma & mb
            if both & s0:
                continue
            need = ((ma ^ mb) & s0) | (both & s1)
            if not need or need.bit_count() > pool_max:
                continue
            need_bits = [x for x in info[a][1] if need >> x & 1]
            need_bits += [x for x in info[b][1] if need >> x & 1 and not ma >> x & 1]
            yield a, b, need, need_bits


def _merge_pass(
    cov: Covering,
    demand: dict,
    table: BlockTable,
    chords: _BlockChords,
    pool_max: int,
    st: ImproveStats,
) -> tuple[Covering, bool]:
    """First applicable 2 → 1 merge, scanning pairs in index order."""
    for a, b, need, need_bits in _mergeable_pairs(cov, demand, chords, pool_max):
        cand = _find_covering_candidate(table, need, need_bits)
        if cand is not None:
            merged = cov.replace_block(a, table.blocks[cand]).without_block(b)
            st.merges += 1
            return merged, True
    return cov, False


def _replace_pass(
    cov: Covering,
    demand: dict,
    table: BlockTable,
    chords: _BlockChords,
    st: ImproveStats,
) -> tuple[Covering, bool]:
    """First slot-shrinking 1 → 1 replacement, in index order."""
    counts = cov._ledger.counts
    for k, blk in enumerate(cov.blocks):
        _, bits, edges = chords(blk)
        need = 0
        need_bits = []
        for b, e in zip(bits, edges):
            if counts[e] <= demand.get(e, 0):
                need |= 1 << b
                need_bits.append(b)
        cand = _find_covering_candidate(table, need, need_bits)
        if cand is not None and table.blocks[cand].size < blk.size:
            cov = cov.replace_block(k, table.blocks[cand])
            st.replaces += 1
            return cov, True
    return cov, False


def _greedy_repair(
    cov: Covering,
    inst: Instance,
    engine: SolverEngine,
    pool: str,
    allowed_sizes: tuple[int, ...] | None = None,
) -> Covering | None:
    """Extend ``cov`` until it covers ``inst`` again, reusing the
    engine's shared max-coverage greedy kernel on the residual demand.
    ``None`` if the (possibly size-restricted) pool cannot finish the
    repair."""
    counts = cov._ledger.counts
    residual: dict[tuple[int, int], int] = {}
    for e, m in inst.demand.items():
        short = m - counts.get(e, 0)
        if short > 0:
            residual[e] = short
    chosen, leftover = engine.greedy_cover_indices(
        residual, pool=pool, allowed_sizes=allowed_sizes
    )
    if leftover:
        return None
    table = engine._table(pool, allowed_sizes)
    return cov.with_blocks(table.blocks[i] for i in chosen)


def improve_covering(
    covering: Covering,
    instance: Instance | None = None,
    *,
    pool: str = "auto",
    max_size: int = 4,
    max_rounds: int = 4,
    ruin_width: int = 2,
    stats: ImproveStats | None = None,
    objective: Objective | str | None = None,
    allowed_sizes: tuple[int, ...] | None = None,
) -> Covering:
    """Tighten ``covering`` for ``instance`` (default All-to-All) by
    deterministic local search; never returns a worse covering (under
    the objective's move-scoring key) and never breaks feasibility.

    ``objective`` supplies the lexicographic acceptance key the search
    minimises (default ``min_blocks``: fewer blocks first, then fewer
    slots — the historical rule); ``allowed_sizes`` restricts every
    candidate the moves may introduce, so a restricted covering stays
    restricted.  ``max_rounds`` bounds the outer ruin-&-recreate rounds
    (the cheap eject/merge/replace moves always run to their fixpoint);
    ``ruin_width`` is the number of consecutive blocks each ruin window
    removes.  Move counts are reported through ``stats``.
    """
    inst = instance if instance is not None else all_to_all(covering.n)
    if inst.n != covering.n:
        raise SolverError(f"instance order {inst.n} ≠ covering order {covering.n}")
    if not covering.covers(inst):
        raise SolverError("improve_covering needs a feasible covering to start from")
    obj = resolve_objective(objective)
    st = stats if stats is not None else ImproveStats()
    st.start_blocks = covering.num_blocks
    pool_name = _resolve_pool(covering.n, pool)
    engine = SolverEngine(covering.n, max_size=max_size)
    table = engine._table(pool_name, allowed_sizes)
    pool_max = max((blk.size for blk in table.blocks), default=0)
    chords = _BlockChords(covering.n)
    demand = inst.demand

    def fixpoint(cov: Covering) -> Covering:
        while True:
            cov = _eject_pass(cov, demand, chords, st)
            cov, merged = _merge_pass(cov, demand, table, chords, pool_max, st)
            if merged:
                continue
            cov, replaced = _replace_pass(cov, demand, table, chords, st)
            if not replaced:
                return cov

    best = fixpoint(covering)
    for _ in range(max_rounds):
        st.rounds += 1
        improved = False
        width = min(ruin_width, max(1, best.num_blocks - 1))
        for start in range(best.num_blocks - width + 1):
            st.repairs_tried += 1
            ruined = best
            for _k in range(width):
                ruined = ruined.without_block(start)
            repaired = _greedy_repair(ruined, inst, engine, pool_name, allowed_sizes)
            if repaired is None:
                continue
            repaired = fixpoint(repaired)
            # Lexicographic acceptance under the objective's key (for
            # min_blocks: fewer blocks, or the same count with less
            # excess — slot-shaving plateau walks are what later merges
            # feed on); the strict decrease guarantees termination.
            if obj.improvement_key(repaired) < obj.improvement_key(best):
                best = repaired
                st.repairs_accepted += 1
                improved = True
                break
        if not improved:
            break
    st.end_blocks = best.num_blocks
    return best


def improved_greedy_covering(
    n: int,
    instance: Instance | None = None,
    *,
    pool: str = "auto",
    max_size: int = 4,
    max_rounds: int = 4,
    stats: ImproveStats | None = None,
    objective: Objective | str | None = None,
    allowed_sizes: tuple[int, ...] | None = None,
) -> Covering:
    """Greedy covering tightened by :func:`improve_covering` — the
    large-n heuristic tier (greedy is within a few blocks of ρ(n) for
    small n but drifts; local search claws most of that back).
    Objective-generic; a size restriction raises
    :class:`SolverError` when no admitted pool reaches every request."""
    inst = instance if instance is not None else all_to_all(n)
    engine = SolverEngine(n, max_size=max_size)
    pool_name = _resolve_pool(n, pool)
    # Start from the tight-pool greedy (the stronger baseline: tight
    # blocks waste no coverage mass) whenever it reaches every request;
    # the improver may still swap in non-tight pool blocks afterwards.
    # The convex pool is the fallback — it can reach any demand.
    try:
        cov = engine.greedy_cover(inst, pool="tight", allowed_sizes=allowed_sizes)
    except SolverError:
        cov = engine.greedy_cover(inst, pool="convex", allowed_sizes=allowed_sizes)
        pool_name = "convex"
    return improve_covering(
        cov,
        inst,
        pool=pool_name,
        max_size=max_size,
        max_rounds=max_rounds,
        stats=stats,
        objective=objective,
        allowed_sizes=allowed_sizes,
    )
