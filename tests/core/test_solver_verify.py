"""Tests for the exact solvers and the independent verifier."""

from __future__ import annotations

import pytest

from repro.core.blocks import CycleBlock
from repro.core.covering import Covering
from repro.core.formulas import rho
from repro.core.ladder import ladder_decomposition
from repro.core.engine import (
    SolverEngine,
    SolverStats,
    enumerate_convex_blocks,
    enumerate_tight_blocks,
    exact_decomposition,
)
from repro.core.verify import assert_valid_covering, routing_for_block, verify_covering
from repro.util import circular
from repro.util.errors import InvalidCoveringError, RoutingError, SolverError


class TestEnumeration:
    def test_tight_blocks_are_tight_and_unique(self):
        for n in (5, 8, 11):
            blocks = enumerate_tight_blocks(n)
            assert len({b.canonical for b in blocks}) == len(blocks)
            assert all(b.is_tight(n) for b in blocks)

    def test_convex_blocks_count(self):
        # One convex block per vertex subset of size 3 or 4.
        from math import comb

        for n in (5, 7):
            assert len(enumerate_convex_blocks(n)) == comb(n, 3) + comb(n, 4)

    def test_tight_subset_of_convex(self):
        n = 9
        convex = {b.canonical for b in enumerate_convex_blocks(n)}
        for b in enumerate_tight_blocks(n):
            assert b.canonical in convex

    def test_rejects_tiny(self):
        with pytest.raises(SolverError):
            enumerate_tight_blocks(2)


class TestExactDecomposition:
    def test_empty_edge_set(self):
        assert exact_decomposition(7, frozenset()) == []

    def test_k5_decomposition_found(self):
        edges = frozenset(circular.all_chords(5))
        blocks = exact_decomposition(5, edges)
        assert blocks is not None
        counts: dict[tuple[int, int], int] = {}
        for blk in blocks:
            for e in blk.edges():
                counts[e] = counts.get(e, 0) + 1
        assert all(c == 1 for c in counts.values())
        assert set(counts) == set(edges)

    def test_k4_has_no_exact_decomposition(self):
        # Odd degrees: K_4 cannot decompose into cycles.
        edges = frozenset(circular.all_chords(4))
        assert exact_decomposition(4, edges) is None

    def test_triangle_budget_respected(self):
        edges = frozenset(circular.all_chords(5))
        blocks = exact_decomposition(5, edges, max_triangles=2)
        assert blocks is not None
        assert sum(1 for b in blocks if b.size == 3) <= 2

    def test_infeasible_budget(self):
        # K_5 decomposition needs exactly 2 triangles (10 = 3a+4b ⇒ a=2).
        edges = frozenset(circular.all_chords(5))
        assert exact_decomposition(5, edges, max_triangles=0) is None


class TestMinCoveringSolver:
    @pytest.mark.parametrize("n", (4, 5, 6, 7))
    def test_certifies_rho(self, n):
        stats = SolverStats()
        cov = SolverEngine(n).min_covering(upper_bound=rho(n) + 1, stats=stats)
        assert cov.num_blocks == rho(n)
        assert cov.covers()
        assert cov.is_drc_feasible()
        assert stats.proven_optimal

    def test_no_better_than_formula(self):
        # The solver explores strictly below the formula and fails to
        # improve — the certification direction of the theorems.
        cov = SolverEngine(6).min_covering()
        assert cov.num_blocks == rho(6)

    def test_rejects_large_n(self):
        with pytest.raises(SolverError):
            SolverEngine(20).min_covering()

    def test_node_limit_enforced(self):
        with pytest.raises(SolverError):
            SolverEngine(8).min_covering(node_limit=3)


class TestVerifier:
    def test_routing_for_block_convex(self):
        routing = routing_for_block(9, (0, 3, 7))
        assert routing.uses_all_links()

    def test_routing_for_block_reflected(self):
        routing = routing_for_block(9, (7, 3, 0))
        assert routing.uses_all_links()

    def test_routing_for_block_nonconvex_raises(self):
        with pytest.raises(RoutingError):
            routing_for_block(6, (0, 3, 1, 4))

    def test_valid_covering_report(self, covering9):
        report = verify_covering(covering9, expect_optimal=True, expect_exact=True)
        assert report.valid and report.optimal
        assert report.lower_bound_value == rho(9)
        assert "VALID" in report.summary()

    def test_uncovered_detected(self):
        cov = Covering(5, (CycleBlock((0, 1, 2)),))
        report = verify_covering(cov)
        assert not report.valid and not report.coverage_ok
        assert any("uncovered" in p for p in report.problems)

    def test_non_drc_detected(self):
        cov = Covering(4, (CycleBlock((0, 2, 3, 1)), CycleBlock((0, 1, 2, 3)),
                           CycleBlock((0, 1, 3)), CycleBlock((0, 2, 3))))
        report = verify_covering(cov)
        assert not report.drc_ok
        assert any("edge-disjoint" in p for p in report.problems)

    def test_assert_raises_with_diagnosis(self):
        cov = Covering(5, (CycleBlock((0, 1, 2)),))
        with pytest.raises(InvalidCoveringError, match="uncovered"):
            assert_valid_covering(cov)

    def test_expect_optimal_mismatch(self, covering9):
        bigger = covering9.with_blocks([CycleBlock((0, 1, 2))])
        report = verify_covering(bigger, expect_optimal=True)
        assert not report.valid

    def test_expect_exact_mismatch(self, covering10):
        report = verify_covering(covering10, expect_exact=True)
        assert not report.valid  # even coverings have excess p

    def test_mix_expectation(self, covering10):
        report = verify_covering(covering10, expect_theorem_mix=True)
        assert report.valid

    def test_ladder_matches_solver_optimum(self):
        # Cross-validation: two independent optimal engines agree.
        assert ladder_decomposition(7).num_blocks == SolverEngine(7).min_covering(
            upper_bound=rho(7) + 1
        ).num_blocks
