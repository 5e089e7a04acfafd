"""Theorem 2 constructions: optimal DRC-coverings of ``K_n``, n even.

Two complementary mechanisms (derived here; the note omits proofs):

* ``n ≡ 2 (mod 4)`` — **pole deletion**.  Take the pole decomposition
  of ``K_{n+1}`` (:mod:`repro.core.pole`), delete the pole: each block
  through the pole loses its two pole edges and leaves a fragment —
  a single chord (from a triangle) or a 2-edge path (from the quad).
  The fragments were engineered nested, so chord pairs merge into
  convex quads (two closing chords each = excess 2) and the path closes
  into a triangle (excess 1), both in closed form.  Counting: ``ρ(n+1)
  − p + (q+1) = ⌈(p²+1)/2⌉`` blocks with mix 2×C3 + (2q²+2q−1)×C4 and
  total excess ``p`` — exactly Theorem 2's statement for ``n = 4q+2``.

* ``n ≡ 0 (mod 4)`` — **clean insertion**.  From the optimal covering
  of ``n−2 ≡ 2 (mod 4)``, insert two antipodal nodes ``x, y``; cover all
  new requests with 2 triangles ``(x, c_i, y)`` and ``p−2`` quads
  ``(x, a, y, b)`` pairing the two arcs.  Only ``{x,y}`` is covered
  twice (once per triangle), so excess grows by exactly 1, giving mix
  4×C3 + (2q²−3)×C4 and excess ``p`` for ``n = 4q`` — again Theorem 2.

* ``n = 4`` — the paper's own example covering
  ``{C4(1,2,3,4), C3(1,2,4), C3(1,3,4)}`` (0-based here).
"""

from __future__ import annotations

from functools import lru_cache

from ..util.errors import ConstructionError
from ..util.validation import as_int, check_even
from .blocks import CycleBlock, convex_block
from .covering import Covering
from .formulas import rho
from .pole import pole_decomposition

__all__ = ["even_covering"]


def even_covering(n: int) -> Covering:
    """Optimal DRC-covering of ``K_n`` over ``C_n`` for even ``n ≥ 4``."""
    n = check_even(as_int(n, "n"), "n")
    if n < 4:
        raise ConstructionError(f"even construction needs n ≥ 4, got {n}")
    if n == 4:
        return Covering(
            4,
            (
                CycleBlock((0, 1, 2, 3)),
                CycleBlock((0, 1, 3)),
                CycleBlock((0, 2, 3)),
            ),
        )
    if n % 4 == 2:
        return _pole_deletion(n)
    return _clean_insertion(n)


# ---------------------------------------------------------------------------
# n ≡ 2 (mod 4): pole deletion
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _pole_deletion(n: int) -> Covering:
    """Theorem 2 covering for ``n = 4q+2`` via pole deletion."""
    q = (n - 2) // 4
    # pole_decomposition lists the 2q pole triangles, the pole quad
    # (0, 1, w, n'-1), then the completion, which avoids the pole.  Each
    # nested pair of pole-triangle chords {2k+1, 2k+2q} ⊂ {2k, 2k+2q+1}
    # merges into one convex quad, and the pole quad's path 1 – w – (n'-1)
    # closes into a triangle.
    pole_blocks = pole_decomposition(n + 1).blocks
    blocks = list(pole_blocks[2 * q + 1 :])
    for k in range(1, q + 1):
        a, b = 2 * k, 2 * k + 2 * q
        blocks.append(convex_block((a, a + 1, b, b + 1)))
    blocks.append(convex_block(pole_blocks[2 * q].vertices[1:]))
    # Delete the pole label (0) and shift everything down by one; the
    # relabelling preserves circular order, hence convexity.
    return Covering(
        n, tuple(CycleBlock(tuple(v - 1 for v in blk.vertices)) for blk in blocks)
    )


# ---------------------------------------------------------------------------
# n ≡ 0 (mod 4): clean insertion
# ---------------------------------------------------------------------------


def _clean_insertion(n: int) -> Covering:
    """Theorem 2 covering for ``n = 4q`` by inserting two antipodal
    nodes into the optimal covering of ``n−2``."""
    m = n - 2
    base = even_covering(m)
    half = m // 2

    def relabel(v: int) -> int:
        # x takes label 0; old 0..half-1 shift to 1..half (arc A);
        # y takes label half+1; old half..m-1 shift to half+2..n-1.
        return v + 1 if v < half else v + 2

    old_blocks = tuple(
        CycleBlock(tuple(relabel(v) for v in blk.vertices)) for blk in base.blocks
    )

    x, y = 0, half + 1
    side_a = list(range(1, half + 1))          # relabelled old arc A
    side_b = list(range(half + 2, n))          # relabelled old arc B
    c1, c2 = side_a[-1], side_b[-1]
    new_blocks: list[CycleBlock] = [
        CycleBlock((x, c1, y)),
        CycleBlock((x, c2, y)),
    ]
    for a, b in zip(side_a[:-1], side_b[:-1]):
        new_blocks.append(CycleBlock((x, a, y, b)))

    covering = Covering(n, old_blocks + tuple(new_blocks))
    if covering.num_blocks != rho(n):
        raise ConstructionError(
            f"clean insertion produced {covering.num_blocks} blocks for n={n}, "
            f"expected ρ = {rho(n)}"
        )
    return covering
