"""Tests for CycleBlock."""

from __future__ import annotations

from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import (
    CycleBlock,
    convex_block,
    enumerate_tight_blocks,
    quad,
    tight_vertex_tuples,
    triangle,
)
from repro.util.errors import InvalidBlockError


class TestConstruction:
    def test_triangle_and_quad_helpers(self):
        assert triangle(0, 1, 2).size == 3
        assert quad(0, 1, 2, 3).size == 4

    def test_rejects_short(self):
        with pytest.raises(InvalidBlockError):
            CycleBlock((0, 1))

    def test_rejects_repeats(self):
        with pytest.raises(InvalidBlockError):
            CycleBlock((0, 1, 1))

    def test_rejects_negative(self):
        with pytest.raises(InvalidBlockError):
            CycleBlock((0, -1, 2))

    def test_len(self):
        assert len(CycleBlock((0, 1, 2, 3))) == 4


class TestEquality:
    def test_rotation_reflection_equal(self):
        a = CycleBlock((0, 2, 5, 7))
        b = CycleBlock((5, 7, 0, 2))
        c = CycleBlock((7, 5, 2, 0))
        assert a == b == c
        assert len({a, b, c}) == 1

    def test_different_cycles_unequal(self):
        assert CycleBlock((0, 1, 2, 3)) != CycleBlock((0, 2, 1, 3))

    def test_eq_other_type(self):
        assert CycleBlock((0, 1, 2)) != "block"


class TestEdges:
    def test_triangle_edges(self):
        assert set(triangle(0, 4, 2).edges()) == {(0, 4), (2, 4), (0, 2)}

    def test_quad_edges_follow_cycle_order(self):
        blk = CycleBlock((0, 2, 1, 3))
        assert set(blk.edges()) == {(0, 2), (1, 2), (1, 3), (0, 3)}

    def test_contains_edge(self):
        blk = CycleBlock((0, 1, 2, 3))
        assert blk.contains_edge((1, 0))
        assert not blk.contains_edge((0, 2))


class TestRingGeometry:
    def test_gaps(self):
        assert CycleBlock((0, 2, 5)).gaps(7) == [2, 3, 2]

    def test_is_convex(self):
        assert CycleBlock((0, 2, 5, 6)).is_convex(8)
        assert not CycleBlock((0, 2, 3, 1)).is_convex(4)  # paper's bad cycle

    def test_any_triangle_is_convex(self):
        for vs in [(0, 1, 2), (0, 2, 1), (5, 1, 3)]:
            assert CycleBlock(vs).is_convex(7)

    def test_vertices_outside_ring_rejected(self):
        blk = CycleBlock((0, 2, 9))
        with pytest.raises(InvalidBlockError):
            blk.is_convex(8)

    def test_distance_sum_convex_at_most_n(self):
        blk = CycleBlock((0, 3, 4, 6))
        assert blk.distance_sum(9) <= 9

    def test_tightness(self):
        # Gaps (2,3,2) on C7: all ≤ 3 → tight.
        assert CycleBlock((0, 2, 5)).is_tight(7)
        # Gaps (1,1,5) on C7: 5 > 3 → convex but not tight.
        assert CycleBlock((0, 1, 2)).is_convex(7)
        assert not CycleBlock((0, 1, 2)).is_tight(7)

    def test_tight_reflected_listing(self):
        assert CycleBlock((5, 2, 0)).is_tight(7)

    def test_oriented(self):
        assert CycleBlock((5, 0, 2)).oriented(7).vertices == (0, 2, 5)
        with pytest.raises(InvalidBlockError):
            CycleBlock((0, 2, 3, 1)).oriented(4)

    def test_convex_block_builder(self):
        assert convex_block([6, 1, 4]).vertices == (1, 4, 6)


@given(st.integers(5, 24), st.data())
@settings(max_examples=200)
def test_convex_block_distance_sum_equals_n_iff_tight(n, data):
    """distance_sum == n exactly for tight blocks (all gaps ≤ n/2)."""
    k = data.draw(st.integers(3, min(n, 6)))
    verts = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    blk = convex_block(tuple(verts))
    assert blk.is_convex(n)
    if blk.is_tight(n):
        assert blk.distance_sum(n) == n
    else:
        assert blk.distance_sum(n) < n


@given(st.integers(4, 20), st.data())
@settings(max_examples=150)
def test_edges_invariant_under_rotation(n, data):
    k = data.draw(st.integers(3, min(n, 6)))
    verts = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    r = data.draw(st.integers(0, k - 1))
    rotated = tuple(verts[r:] + verts[:r])
    assert set(CycleBlock(tuple(verts)).edges()) == set(CycleBlock(rotated).edges())


def _first_listings(n: int, max_size: int) -> list[tuple[int, ...]]:
    """Reference for the tight listing: every (gaps, start) listing in
    order, each block kept at its first one, deduplicated on its
    vertex set."""
    half = n // 2
    seen: set[frozenset[int]] = set()
    out: list[tuple[int, ...]] = []
    for size in range(3, max_size + 1):
        for head in product(range(1, half + 1), repeat=size - 1):
            if not 1 <= n - sum(head) <= half:
                continue
            offsets = (0, *accumulate(head))
            for start in range(n):
                vs = [(start + o) % n for o in offsets]
                key = frozenset(vs)
                if key not in seen:
                    seen.add(key)
                    out.append(tuple(vs))
    return out


class TestTightListing:
    @pytest.mark.parametrize("n", range(3, 71))
    def test_first_listings_match_the_dedupe_reference(self, n):
        for max_size in (3, 4):
            assert list(tight_vertex_tuples(n, max_size)) == _first_listings(n, max_size)

    @pytest.mark.parametrize("n", (3, 4, 9, 12, 20))
    def test_blocks_wrap_the_listing(self, n):
        blocks = enumerate_tight_blocks(n)
        assert [blk.vertices for blk in blocks] == list(tight_vertex_tuples(n))
        assert all(blk.is_tight(n) for blk in blocks)
