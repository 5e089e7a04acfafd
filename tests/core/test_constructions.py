"""Tests for the Theorem 1/2 constructions (ladder, pole, even, fast).

Every construction output is validated through the independent verifier,
and its count / mix / excess compared against the paper's statements.
"""

from __future__ import annotations

import pytest

from repro.core.construction import fast_covering, optimal_covering, optimality_gap
from repro.core.even import even_covering
from repro.core.formulas import optimal_excess, rho, theorem_cycle_mix
from repro.core.ladder import ladder_decomposition, ladder_step_blocks
from repro.core.pole import POLE, pole_decomposition, pole_forced_blocks
from repro.core.verify import assert_valid_covering
from repro.util.errors import ConstructionError

ODD_NS = (3, 5, 7, 9, 11, 13, 17, 23, 33, 51)
EVEN_NS = (4, 6, 8, 10, 12, 14, 16, 18, 22, 24, 30)


class TestLadder:
    @pytest.mark.parametrize("n", ODD_NS)
    def test_theorem1_reproduced(self, n):
        cov = ladder_decomposition(n)
        report = assert_valid_covering(
            cov, expect_optimal=True, expect_exact=True, expect_theorem_mix=True
        )
        assert report.num_blocks == rho(n)
        assert report.excess == 0

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            ladder_decomposition(8)

    def test_rejects_too_small(self):
        with pytest.raises((ValueError, ConstructionError)):
            ladder_decomposition(1)

    def test_every_vertex_in_p_blocks(self):
        n = 11
        cov = ladder_decomposition(n)
        count = {v: 0 for v in range(n)}
        for blk in cov.blocks:
            for v in blk.vertices:
                count[v] += 1
        assert all(c == n // 2 for c in count.values())

    def test_all_blocks_tight(self):
        """Optimal exact decompositions are forced tight (each block's
        distance budget is exactly n)."""
        n = 13
        for blk in ladder_decomposition(n).blocks:
            assert blk.is_tight(n)

    def test_step_block_counts(self):
        assert ladder_step_blocks(1) == 2
        assert ladder_step_blocks(4) == 5
        with pytest.raises(ValueError):
            ladder_step_blocks(0)


class TestPole:
    @pytest.mark.parametrize("n_prime", (7, 11, 15, 19, 23))
    def test_pole_is_optimal_decomposition(self, n_prime):
        cov = pole_decomposition(n_prime)
        assert_valid_covering(
            cov, expect_optimal=True, expect_exact=True, expect_theorem_mix=True
        )

    @pytest.mark.parametrize("n_prime", (7, 11, 15))
    def test_pole_vertex_structure(self, n_prime):
        """The pole lies in exactly (p−1) triangles and one quad."""
        q = (n_prime - 3) // 4
        cov = pole_decomposition(n_prime)
        at_pole = [blk for blk in cov.blocks if POLE in blk.vertices]
        assert len(at_pole) == n_prime // 2
        sizes = sorted(blk.size for blk in at_pole)
        assert sizes == [3] * (2 * q) + [4]

    def test_forced_blocks_shape(self):
        forced = pole_forced_blocks(11, 6)
        assert len(forced) == 5
        assert sorted(b.size for b in forced) == [3, 3, 3, 3, 4]

    def test_rejects_wrong_residue(self):
        with pytest.raises(ConstructionError):
            pole_decomposition(9)
        with pytest.raises(ConstructionError):
            pole_decomposition(13)


class TestEven:
    @pytest.mark.parametrize("n", EVEN_NS)
    def test_theorem2_reproduced(self, n):
        cov = even_covering(n)
        expectations = dict(expect_optimal=True)
        if n >= 6:
            expectations["expect_theorem_mix"] = True
        report = assert_valid_covering(cov, **expectations)
        assert report.num_blocks == rho(n)
        assert report.excess == optimal_excess(n)

    def test_mix_matches_paper_exactly(self):
        for n in (6, 8, 10, 12, 16, 18):
            cov = even_covering(n)
            mix = theorem_cycle_mix(n)
            assert cov.num_triangles == mix[3]
            assert cov.num_quads == mix[4]
            assert cov.num_blocks == mix[3] + mix[4]

    def test_paper_k4_covering(self):
        cov = even_covering(4)
        assert cov.num_blocks == 3
        assert {blk.size for blk in cov.blocks} == {3, 4}
        assert cov.covers()

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            even_covering(9)


class TestDispatch:
    @pytest.mark.parametrize("n", ODD_NS + EVEN_NS)
    def test_optimal_covering_everywhere(self, n):
        cov = optimal_covering(n)
        assert cov.num_blocks == rho(n)
        assert optimality_gap(cov) == 0
        assert_valid_covering(cov, expect_optimal=True)

    @pytest.mark.parametrize("n", (3, 7, 15))
    def test_fast_equals_optimal_for_odd(self, n):
        assert fast_covering(n).num_blocks == rho(n)

    @pytest.mark.parametrize("n", (6, 8, 10, 14, 20, 50, 100))
    def test_fast_even_valid_with_bounded_gap(self, n):
        cov = fast_covering(n)
        assert_valid_covering(cov)
        p = n // 2
        gap = optimality_gap(cov)
        assert 0 <= gap <= (p - 1) // 2 + 1

    def test_rejects_tiny(self):
        with pytest.raises(ConstructionError):
            optimal_covering(2)
        with pytest.raises(ConstructionError):
            fast_covering(2)
