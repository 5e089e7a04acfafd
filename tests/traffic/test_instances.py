"""Tests for traffic instances."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.traffic.instances import (
    Instance,
    all_to_all,
    from_requests,
    lambda_all_to_all,
    ring_instance,
)
from repro.util import circular


class TestAllToAll:
    def test_counts(self):
        inst = all_to_all(7)
        assert inst.total_requests == 21
        assert inst.is_all_to_all()
        assert inst.required((2, 5)) == 1
        assert inst.required((5, 2)) == 1

    def test_degree(self):
        inst = all_to_all(6)
        assert all(inst.degree(v) == 5 for v in range(6))

    def test_total_distance_matches_kernel(self):
        for n in (4, 7, 10):
            assert all_to_all(n).total_distance == circular.total_chord_distance(n)

    @given(st.integers(3, 25))
    def test_all_to_all_edge_count(self, n):
        assert len(list(all_to_all(n).requests())) == n * (n - 1) // 2


class TestLambda:
    def test_multiplicities(self):
        inst = lambda_all_to_all(5, 3)
        assert inst.max_multiplicity == 3
        assert inst.total_requests == 30
        assert inst.is_all_to_all()

    def test_scaled(self):
        inst = all_to_all(5).scaled(2)
        assert inst.required((0, 1)) == 2
        assert inst.total_distance == 2 * all_to_all(5).total_distance

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            lambda_all_to_all(5, 0)


class TestCustom:
    def test_from_requests_accumulates(self):
        inst = from_requests(6, [(0, 3), (3, 0), (1, 2)])
        assert inst.required((0, 3)) == 2
        assert inst.required((1, 2)) == 1
        assert inst.total_requests == 3

    def test_ring_instance(self):
        inst = ring_instance(5)
        assert inst.total_requests == 5
        assert inst.required((4, 0)) == 1
        assert not inst.is_all_to_all()

    def test_validation(self):
        with pytest.raises(ValueError):
            Instance(4, {(0, 9): 1})
        with pytest.raises(ValueError):
            Instance(4, {(0, 1): 0})
        with pytest.raises(ValueError):
            Instance(4, {(2, 2): 1})

    def test_normalisation_merges_orientations(self):
        inst = Instance(5, {(0, 3): 1, (3, 0): 2})
        assert inst.required((0, 3)) == 3

    def test_empty_instance(self):
        inst = Instance(4, {})
        assert inst.total_requests == 0
        assert inst.max_multiplicity == 0
        assert inst.total_distance == 0
