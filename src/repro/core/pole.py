"""Pole decompositions of ``K_{n'}``, ``n' ≡ 3 (mod 4)`` — the odd-side
scaffold of the Theorem 2 construction for ``n ≡ 2 (mod 4)`` — and the
exact cover that completes them.

For ``n = 4q+2`` we build an optimal decomposition of ``K_{n+1}``
(``n' = 4q+3``, ``p = 2q+1``) in which the *pole* vertex 0 lies in
``2q`` triangles and exactly one quad, arranged so that deleting the
pole leaves mergeable fragments:

* triangles, for ``k = 1..q``::

      inner_k = (0, 2k+1, 2k+2q)      outer_k = (0, 2k, 2k+2q+1)

  Each is tight, and the leftover chords ``{2k+1, 2k+2q}`` ⊂
  ``{2k, 2k+2q+1}`` are *nested*, so after deleting the pole each pair
  merges into the convex quad ``(2k, 2k+1, 2k+2q, 2k+2q+1)``.
* the pole quad ``(0, 1, w, n'-1)`` with ``w ∈ {2q+1, 2q+2}`` — its
  fragment is the 2-edge path ``1 – w – (n'-1)``, closed into one
  triangle.

These forced blocks cover the pole's star plus ``2q+2`` other chords;
the *completion* — partitioning the remaining chords into one tight
triangle and ``2q²+q−1`` tight quads — is found by
:func:`exact_decomposition`, an exact cover over the tight blocks of
``C_{n'}``.  The candidates come from
:func:`~repro.core.blocks.tight_vertex_tuples`, which lists each tight
block once, at its first listing: the lexicographically least rotation
of its gap sequence, at the least start (below the sum ``P`` of the
sequence's smallest period).  Only the candidates inside the
remaining chords are kept, as chord-id lists, and a
:class:`~repro.core.blocks.CycleBlock` is built only for the blocks
the cover chooses.

The two pole quads are tried in turn, ``w = 2q+2`` first, under a node
budget that starts at four times the completion's block count plus one
(a backtrack-free search takes that count plus one nodes) and doubles
each round up to 5 M nodes, so a quad whose search wanders does not
hold up the other one.  The result is cached per ``n'``.  The
decomposition lists the forced blocks first, then the completion; it
is an optimal ``K_{n'}`` decomposition (same count/mix as the
ladder's), just with a differently-structured neighbourhood of
vertex 0.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from ..util import circular
from ..util.errors import ConstructionError, SolverError
from ..util.validation import as_int
from .blocks import CycleBlock, tight_vertex_tuples
from .covering import Covering
from .formulas import rho
from .stats import SolverStats

__all__ = ["exact_decomposition", "pole_decomposition", "pole_forced_blocks", "POLE"]

POLE = 0  # The vertex deleted when deriving the even covering.

# The largest node budget a pole completion gets (the last round).
COMPLETION_NODE_CAP = 5_000_000


def pole_forced_blocks(n_prime: int, w: int) -> list[CycleBlock]:
    """The forced blocks through the pole for ``K_{n'}`` (see module
    docstring); ``w`` is the pole quad's interior vertex."""
    q = (n_prime - 3) // 4
    blocks: list[CycleBlock] = []
    for k in range(1, q + 1):
        blocks.append(CycleBlock((0, 2 * k + 1, 2 * k + 2 * q)))      # inner_k
        blocks.append(CycleBlock((0, 2 * k, 2 * k + 2 * q + 1)))      # outer_k
    blocks.append(CycleBlock((0, 1, w, n_prime - 1)))
    return blocks


@lru_cache(maxsize=128)
def pole_decomposition(n_prime: int) -> Covering:
    """Optimal decomposition of ``K_{n'}`` (``n' ≡ 3 mod 4``, ``n' ≥ 7``)
    with the pole structure at vertex 0.  Cached per ``n'``.
    """
    n_prime = as_int(n_prime, "n_prime")
    if n_prime < 7 or n_prime % 4 != 3:
        raise ConstructionError(
            f"pole decomposition needs n' ≡ 3 (mod 4), n' ≥ 7; got {n_prime}"
        )
    q = (n_prime - 3) // 4

    quads: dict[int, tuple[list[CycleBlock], frozenset[tuple[int, int]]]] = {}
    for w in (2 * q + 2, 2 * q + 1):
        forced = pole_forced_blocks(n_prime, w)
        covered = {e for blk in forced for e in blk.edges()}
        quads[w] = forced, frozenset(
            e
            for e in circular.all_chords(n_prime)
            if 0 not in e and e not in covered
        )
    # A backtrack-free completion of 2q² + q blocks takes one node per
    # block plus one; the first round allows four times that.
    budget = 4 * (2 * q * q + q + 1)
    last_error: Exception | None = None
    while quads:
        budget = min(budget, COMPLETION_NODE_CAP)
        for w, (forced, remaining) in list(quads.items()):
            try:
                completion = exact_decomposition(
                    n_prime, remaining, max_triangles=1, node_limit=budget
                )
            except SolverError as exc:  # over budget: next quad, or next round
                last_error = exc
                continue
            if completion is None:  # no completion through this quad
                del quads[w]
                continue
            covering = Covering(n_prime, tuple(forced) + tuple(completion))
            if covering.num_blocks != rho(n_prime):
                raise ConstructionError(
                    f"pole decomposition of K_{n_prime} has {covering.num_blocks} "
                    f"blocks, expected ρ = {rho(n_prime)}"
                )
            return covering
        if budget == COMPLETION_NODE_CAP:
            break
        budget *= 2

    raise ConstructionError(
        f"no pole completion found for n' = {n_prime}"
        + (f" (last error: {last_error})" if last_error else "")
    )


# ---------------------------------------------------------------------------
# Exact decomposition (the pole completion)
# ---------------------------------------------------------------------------


def exact_decomposition(
    n: int,
    edges: frozenset[tuple[int, int]],
    *,
    max_triangles: int | None = None,
    node_limit: int = COMPLETION_NODE_CAP,
    stats: SolverStats | None = None,
) -> list[CycleBlock] | None:
    """Partition ``edges`` into tight convex blocks, each edge exactly
    once; returns ``None`` when no partition exists.

    Algorithm X over :func:`~repro.core.blocks.tight_vertex_tuples` (in
    listing order, blocks with every edge in ``edges``): a block is
    *live* while it shares no edge with a chosen one.  Each node
    branches on the first uncovered chord (sorted order) with the
    fewest live blocks and tries them in listing order; triangles
    beyond ``max_triangles`` are skipped but stay live.  No dominance
    filtering: a strict superset would change the partition.  Past
    ``node_limit`` nodes it raises :class:`SolverError`; ``stats``
    follows :meth:`~repro.core.engine.SolverEngine.min_covering`'s
    contract.
    """
    if n < 3:
        raise SolverError(f"n ≥ 3 required, got {n}")
    st = stats if stats is not None else SolverStats()
    chords = sorted(edges)
    if not chords:
        st.best_value = 0
        st.proven_optimal = True
        return []
    if any(not 0 <= a < b < n for a, b in chords):
        # Not a chord of K_n, so no block covers it: non-existence is
        # certified without search.
        st.proven_optimal = True
        return None
    # ids[a][b]: the id of chord {a, b} in sorted order, -1 outside edges.
    ids = [[-1] * n for _ in range(n)]
    for i, (a, b) in enumerate(chords):
        ids[a][b] = ids[b][a] = i
    pool: list[tuple[int, ...]] = []
    block_edges: list[list[int]] = []
    per_edge: list[list[int]] = [[] for _ in chords]
    for vs in tight_vertex_tuples(n):
        block = [ids[a][b] for a, b in zip(vs, vs[1:] + vs[:1])]
        if -1 not in block:
            b = len(pool)
            for i in block:
                per_edge[i].append(b)
            pool.append(vs)
            block_edges.append(block)
    live = [len(cands) for cands in per_edge]
    if 0 in live:
        # An edge without any candidate block: non-existence is
        # certified without search.
        st.proven_optimal = True
        return None
    alive = [True] * len(pool)
    covered = [False] * len(chords)

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
            if alive[b]:
                tri = triangles + (len(pool[b]) == 3)
                if max_triangles is None or tri <= max_triangles:
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
    return [CycleBlock(pool[b]) for b, _ in trail]
