"""Tests for the instance-level exact solver (λK_n and sparse demands)."""

from __future__ import annotations

import pytest

from repro.core.formulas import rho
from repro.core.engine import SolverEngine, SolverStats
from repro.extensions.lambda_fold import lambda_lower_bound
from repro.traffic.instances import Instance, all_to_all, from_requests, lambda_all_to_all
from repro.util.errors import SolverError


class TestAgainstKnownOptima:
    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_matches_rho_for_lambda_one(self, n):
        cov = SolverEngine(n).min_covering_instance(all_to_all(n))
        assert cov.num_blocks == rho(n)
        assert cov.covers(all_to_all(n))

    def test_odd_lambda_two_doubles(self):
        cov = SolverEngine(5).min_covering_instance(lambda_all_to_all(5, 2))
        assert cov.num_blocks == 2 * rho(5)  # counting bound, certified

    def test_even_lambda_two_beats_repetition(self):
        """The reproduction's sharpest λ finding: ρ_2(6) = 9 < 2ρ(6)."""
        cov = SolverEngine(6).min_covering_instance(lambda_all_to_all(6, 2))
        assert cov.num_blocks == 9
        assert cov.num_blocks == lambda_lower_bound(6, 2).value
        assert cov.covers(lambda_all_to_all(6, 2))
        assert cov.is_drc_feasible()


class TestSparseInstances:
    def test_three_diameters_three_blocks(self):
        # Pairwise crossing diameters can never share a block.
        inst = from_requests(8, [(0, 4), (1, 5), (2, 6)])
        cov = SolverEngine(inst.n).min_covering_instance(inst)
        assert cov.num_blocks == 3

    def test_compatible_chords_share_block(self):
        inst = from_requests(8, [(0, 1), (2, 3), (4, 5)])
        # With the paper's C3/C4 budget: one quad takes two chords, a
        # triangle the third.
        cov = SolverEngine(inst.n).min_covering_instance(inst)
        assert cov.num_blocks == 2
        # Allowing hexagons, a single convex C6 covers all three.
        cov6 = SolverEngine(inst.n, max_size=6).min_covering_instance(inst)
        assert cov6.num_blocks == 1

    def test_single_request(self):
        inst = from_requests(6, [(0, 3)])
        cov = SolverEngine(inst.n).min_covering_instance(inst)
        assert cov.num_blocks == 1
        assert cov.covers(inst)

    def test_empty_instance(self):
        assert SolverEngine(5).min_covering_instance(Instance(5, {})).num_blocks == 0

    def test_repeated_request(self):
        inst = from_requests(5, [(0, 2), (0, 2)])
        cov = SolverEngine(inst.n).min_covering_instance(inst)
        assert cov.num_blocks == 2  # one block covers a chord only once


class TestGuards:
    def test_rejects_large_n(self):
        with pytest.raises(SolverError):
            SolverEngine(12).min_covering_instance(all_to_all(12))

    def test_rejects_non_instance(self):
        with pytest.raises(SolverError):
            SolverEngine(5).min_covering_instance({"not": "an instance"})  # type: ignore[arg-type]

    def test_node_limit(self):
        with pytest.raises(SolverError):
            SolverEngine(6).min_covering_instance(all_to_all(6), node_limit=2)

    def test_stats_filled(self):
        stats = SolverStats()
        SolverEngine(5).min_covering_instance(all_to_all(5), stats=stats)
        assert stats.proven_optimal
        assert stats.best_value == rho(5)
        assert stats.nodes > 0
