"""Unit and property tests for the circular geometry kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import circular as C


# ---------------------------------------------------------------------------
# gap / distance
# ---------------------------------------------------------------------------


class TestGapAndDistance:
    def test_gap_basic(self):
        assert C.gap(10, 2, 5) == 3
        assert C.gap(10, 5, 2) == 7
        assert C.gap(10, 9, 0) == 1
        assert C.gap(10, 4, 4) == 0

    def test_ring_distance_symmetric_pairs(self):
        assert C.ring_distance(10, 2, 5) == 3
        assert C.ring_distance(10, 5, 2) == 3
        assert C.ring_distance(10, 0, 5) == 5
        assert C.ring_distance(7, 0, 4) == 3

    def test_distance_at_most_half(self):
        for n in (5, 6, 9, 12):
            for a in range(n):
                for b in range(n):
                    assert C.ring_distance(n, a, b) <= n // 2

    @given(st.integers(3, 60), st.integers(0, 200), st.integers(0, 200))
    def test_gap_antisymmetry(self, n, a, b):
        a, b = a % n, b % n
        if a != b:
            assert C.gap(n, a, b) + C.gap(n, b, a) == n

    @given(st.integers(3, 60), st.integers(0, 200), st.integers(0, 200))
    def test_distance_symmetry(self, n, a, b):
        a, b = a % n, b % n
        assert C.ring_distance(n, a, b) == C.ring_distance(n, b, a)


class TestChords:
    def test_chord_normalises(self):
        assert C.chord(5, 2) == (2, 5)
        assert C.chord(2, 5) == (2, 5)

    def test_chord_rejects_loop(self):
        with pytest.raises(ValueError):
            C.chord(3, 3)

    def test_all_chords_count(self):
        for n in (3, 4, 7, 10):
            chords = list(C.all_chords(n))
            assert len(chords) == C.n_chords(n) == n * (n - 1) // 2
            assert len(set(chords)) == len(chords)
            assert all(a < b for a, b in chords)

    def test_total_chord_distance_matches_bruteforce(self):
        for n in range(3, 30):
            brute = sum(C.chord_distance(n, e) for e in C.all_chords(n))
            assert C.total_chord_distance(n) == brute


# ---------------------------------------------------------------------------
# circular order / winding
# ---------------------------------------------------------------------------


class TestCircularOrder:
    def test_sorted_is_circular(self):
        assert C.is_circular_order(8, [0, 2, 5, 7])

    def test_rotation_is_circular(self):
        assert C.is_circular_order(8, [5, 7, 0, 2])

    def test_reversal_is_circular(self):
        assert C.is_circular_order(8, [7, 5, 2, 0])
        assert C.is_circular_order(8, [2, 0, 7, 5])

    def test_paper_bad_cycle_is_not_circular(self):
        # The paper's (1,3,4,2) on C4 → 0-based (0,2,3,1).
        assert not C.is_circular_order(4, [0, 2, 3, 1])

    def test_interleaved_not_circular(self):
        assert not C.is_circular_order(6, [0, 3, 1, 4])

    def test_short_or_repeated_rejected(self):
        assert not C.is_circular_order(6, [0, 1])
        assert not C.is_circular_order(6, [0, 1, 1])

    def test_winding_number(self):
        assert C.winding_number(4, [0, 1, 2, 3]) == 1
        assert C.winding_number(4, [0, 2, 3, 1]) == 2

    @given(st.integers(4, 20), st.data())
    @settings(max_examples=200)
    def test_circular_iff_winding_one_either_direction(self, n, data):
        k = data.draw(st.integers(3, min(n, 7)))
        verts = data.draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
        )
        expected = C.winding_number(n, verts) == 1 or C.winding_number(
            n, list(reversed(verts))
        ) == 1
        assert C.is_circular_order(n, verts) == expected

    @given(st.integers(4, 25), st.data())
    @settings(max_examples=200)
    def test_sorted_subsets_always_circular(self, n, data):
        verts = data.draw(
            st.lists(st.integers(0, n - 1), min_size=3, max_size=min(n, 8), unique=True)
        )
        assert C.is_circular_order(n, sorted(verts))


class TestSortAndConvex:
    def test_sort_circular_default(self):
        assert C.sort_circular(9, [7, 2, 5]) == [2, 5, 7]

    def test_sort_circular_with_start(self):
        assert C.sort_circular(9, [7, 2, 5], start=5) == [5, 7, 2]

    def test_sort_circular_bad_start(self):
        with pytest.raises(ValueError):
            C.sort_circular(9, [7, 2, 5], start=3)

    def test_convex_cycle(self):
        assert C.convex_cycle([5, 1, 3]) == (1, 3, 5)

    def test_convex_cycle_too_small(self):
        with pytest.raises(ValueError):
            C.convex_cycle([1, 2])


# ---------------------------------------------------------------------------
# crossing / nesting predicates
# ---------------------------------------------------------------------------


class TestCrossing:
    def test_crossing_pair(self):
        assert C.chords_cross(6, (0, 3), (1, 4))

    def test_nested_pair(self):
        assert not C.chords_cross(8, (0, 5), (1, 4))
        assert C.chords_nested(8, (0, 5), (1, 4))

    def test_disjoint_pair(self):
        assert not C.chords_cross(8, (0, 1), (3, 4))
        assert C.chords_compatible(8, (0, 1), (3, 4))

    def test_shared_endpoint_not_crossing(self):
        assert not C.chords_cross(8, (0, 3), (3, 6))
        assert not C.chords_compatible(8, (0, 3), (3, 6))

    @given(st.integers(5, 30), st.data())
    @settings(max_examples=200)
    def test_crossing_symmetry(self, n, data):
        verts = data.draw(
            st.lists(st.integers(0, n - 1), min_size=4, max_size=4, unique=True)
        )
        a, b, c, d = verts
        e, f = (min(a, b), max(a, b)), (min(c, d), max(c, d))
        assert C.chords_cross(n, e, f) == C.chords_cross(n, f, e)

    @given(st.integers(5, 30), st.data())
    @settings(max_examples=200)
    def test_cross_nested_disjoint_trichotomy(self, n, data):
        verts = data.draw(
            st.lists(st.integers(0, n - 1), min_size=4, max_size=4, unique=True)
        )
        a, b, c, d = verts
        e, f = (min(a, b), max(a, b)), (min(c, d), max(c, d))
        cross = C.chords_cross(n, e, f)
        nested = C.chords_nested(n, e, f)
        # Endpoint-disjoint chords are exactly one of crossing / non-crossing,
        # and nesting implies non-crossing.
        if nested:
            assert not cross

    @given(st.integers(5, 20), st.data())
    @settings(max_examples=150)
    def test_compatible_chords_share_convex_quad(self, n, data):
        """Non-crossing endpoint-disjoint chords are both edges of the
        convex quadrilateral on their endpoints (the merge lemma used
        by the even construction)."""
        verts = data.draw(
            st.lists(st.integers(0, n - 1), min_size=4, max_size=4, unique=True)
        )
        a, b, c, d = verts
        e, f = (min(a, b), max(a, b)), (min(c, d), max(c, d))
        quad_edges = set()
        vs = sorted(verts)
        for i in range(4):
            u, v = vs[i], vs[(i + 1) % 4]
            quad_edges.add((min(u, v), max(u, v)))
        both_in = e in quad_edges and f in quad_edges
        assert both_in == C.chords_compatible(n, e, f)


class TestArcs:
    def test_arc_between(self):
        assert C.arc_between(8, 6, 1) == [7, 0]
        assert C.arc_between(8, 2, 3) == []

    def test_vertices_in_arc(self):
        assert C.vertices_in_arc(10, 7, 2, [8, 9, 1, 4]) == [8, 9, 1]

    def test_canonical_rotation_invariance(self):
        base = (1, 4, 6, 2)
        variants = [(4, 6, 2, 1), (2, 6, 4, 1), (6, 2, 1, 4)]
        for var in variants:
            assert C.canonical_rotation(var) == C.canonical_rotation(base)

    def test_canonical_rotation_distinguishes(self):
        assert C.canonical_rotation((0, 1, 2, 3)) != C.canonical_rotation((0, 2, 1, 3))
