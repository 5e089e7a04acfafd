"""Top-level construction API.

``optimal_covering(n)`` returns a DRC-covering of ``K_n`` over ``C_n``
with exactly ``ρ(n)`` cycles and the theorems' C3/C4 mix — the paper's
Theorem 1/2 objects.  ``fast_covering(n)`` is the always-polynomial
variant: identical for odd ``n``, and for even ``n`` a simple
pole-style deletion from the ladder that needs no completion search at
the cost of ``⌈(n/2 − 1)/2⌉`` extra cycles (useful for very large even
rings; the optimality gap is reported, never hidden).
"""

from __future__ import annotations

from ..util import circular
from ..util.errors import ConstructionError
from ..util.validation import as_int
from .blocks import CycleBlock, convex_block
from .covering import Covering
from .formulas import rho
from .ladder import ladder_decomposition

__all__ = ["optimal_covering", "fast_covering", "optimality_gap"]


def optimal_covering(n: int) -> Covering:
    """The Theorem 1/2 optimal DRC-covering of ``K_n`` over ``C_n``.

    * odd ``n ≥ 3``: exact decomposition with ``p(p+1)/2`` cycles;
    * even ``n ≥ 4``: covering with ``⌈(p²+1)/2⌉`` cycles, excess ``p``
      (3 for ``n = 4``).
    """
    n = as_int(n, "n")
    if n < 3:
        raise ConstructionError(f"coverings need n ≥ 3, got {n}")
    if n % 2 == 1:
        return ladder_decomposition(n)
    # Imported here: the even construction (with its pole completion)
    # stays unloaded on odd-n paths.
    from .even import even_covering

    return even_covering(n)


def fast_covering(n: int) -> Covering:
    """A guaranteed-polynomial DRC-covering: optimal for odd ``n``;
    for even ``n`` at most ``⌈(p−1)/2⌉`` cycles above ``ρ(n)``
    (``p = n/2``), built by deleting one vertex from the odd ladder of
    ``K_{n+1}`` and closing each fragment individually."""
    n = as_int(n, "n")
    if n < 3:
        raise ConstructionError(f"coverings need n ≥ 3, got {n}")
    if n % 2 == 1:
        return ladder_decomposition(n)
    if n == 4:
        from .even import even_covering

        return even_covering(4)

    odd = ladder_decomposition(n + 1)
    pole = n  # delete the largest label: survivors keep labels 0..n-1
    blocks: list[CycleBlock] = []
    for blk in odd.blocks:
        if pole not in blk.vertices:
            blocks.append(blk)
            continue
        vs = list(blk.vertices)
        i = vs.index(pole)
        path = vs[i + 1 :] + vs[:i]
        if len(path) == 2:
            # Leftover chord {a, b}: close through any third vertex.
            a, b = path
            c = next(v for v in range(n) if v not in (a, b))
            blocks.append(convex_block((a, b, c)))
        else:
            blocks.append(convex_block(tuple(path)))
    return Covering(n, tuple(blocks))


def optimality_gap(covering: Covering) -> int:
    """Number of cycles above the proven optimum ``ρ(n)`` (≥ 0 for any
    valid covering of All-to-All)."""
    return covering.num_blocks - rho(covering.n)
