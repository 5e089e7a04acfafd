"""End-to-end integration tests: the full paper workflow, across layers."""

from __future__ import annotations

import pytest

from repro import (
    all_to_all,
    assert_valid_covering,
    lower_bound,
    optimal_covering,
    rho,
    theorem_cycle_mix,
)
from repro.core.pole import pole_decomposition
from repro.core.engine import SolverEngine
from repro.survivability.failures import LinkFailure
from repro.survivability.protection import ProtectionSimulator
from repro.wdm.adm import evaluate_cost
from repro.wdm.design import design_ring_network


class TestPaperPipeline:
    """The complete story of the paper, as one executable narrative."""

    @pytest.mark.parametrize("n", (9, 14))
    def test_design_protect_and_cost(self, n):
        # 1. The operator designs a survivable WDM layer for an n-node ring.
        design = design_ring_network(n)

        # 2. The covering achieves the paper's optimum with the paper's mix.
        assert design.covering.num_blocks == rho(n)
        mix = theorem_cycle_mix(n)
        assert design.covering.num_triangles == mix[3]
        assert design.covering.num_quads == mix[4]

        # 3. The lower-bound certificate matches: optimality is *proven*,
        #    not assumed.
        assert lower_bound(n).value == design.covering.num_blocks

        # 4. Every request gets a working route inside its subnetwork.
        assert len(design.request_routes) == n * (n - 1) // 2

        # 5. Any single fiber cut is healed by in-cycle protection.
        sim = ProtectionSimulator(design)
        for link in range(n):
            outcome = sim.simulate_link_failure(LinkFailure(n, link))
            assert outcome.fully_recovered

        # 6. The cost model rates this design no worse than alternatives
        #    with more subnetworks (the paper's ring cost claim).
        richer = design.covering.with_blocks([design.covering.blocks[0]])
        assert evaluate_cost(design.covering).total < evaluate_cost(richer).total

    def test_three_way_agreement_small_n(self):
        """Formula == construction == exhaustive solver, for every n the
        solver can exhaust — the strongest optimality statement the
        reproduction makes."""
        for n in range(4, 8):
            formula = rho(n)
            constructed = optimal_covering(n).num_blocks
            solved = SolverEngine(n).min_covering(upper_bound=formula + 1).num_blocks
            assert formula == constructed == solved

    def test_odd_even_interplay(self):
        """The even covering of K_{n} is derived from the pole
        decomposition of K_{n+1}; deleting the pole must preserve
        validity and drop exactly p − (q+1) blocks."""
        n = 14  # 4q+2 with q = 3
        q = 3
        odd = pole_decomposition(n + 1)
        even = optimal_covering(n)
        assert odd.num_blocks - even.num_blocks == (2 * q + 1) - (q + 1)
        assert_valid_covering(even, all_to_all(n), expect_optimal=True)

    def test_instance_api_flow(self):
        inst = all_to_all(10)
        cov = optimal_covering(10)
        assert cov.covers(inst)
        assert cov.excess(inst) == 5
        report = assert_valid_covering(cov, inst, expect_optimal=True)
        assert report.optimal


class TestDocumentedClaims:
    """Quantitative sentences from the paper, as assertions."""

    def test_minimum_number_of_3cycles_formula(self):
        # "the minimum number of 3-cycles required to cover the edges of
        #  K_n is ⌈n/3⌈(n−1)/2⌉⌉"
        from repro.core.formulas import triangle_covering_number

        assert triangle_covering_number(6) == 6
        assert triangle_covering_number(12) == 24

    def test_theorem1_statement(self):
        # "When n = 2p+1, ρ(n) = p(p+1)/2 ... p C3 and p(p−1)/2 C4."
        for p in (2, 3, 4, 5, 6):
            n = 2 * p + 1
            cov = optimal_covering(n)
            assert cov.num_blocks == p * (p + 1) // 2
            assert cov.num_triangles == p
            assert cov.num_quads == p * (p - 1) // 2

    def test_theorem2_statement(self):
        # "When n = 2p, p ≥ 3, ρ(n) = ⌈(p²+1)/2⌉; n = 4q: 4 C3 and
        #  2q²−3 C4; n = 4q+2: 2 C3 and 2q²+2q−1 C4."
        for p in (3, 4, 5, 6, 7, 8):
            n = 2 * p
            cov = optimal_covering(n)
            assert cov.num_blocks == (p * p + 1 + 1) // 2
            if n % 4 == 0:
                q = n // 4
                assert cov.num_triangles == 4
                assert cov.num_quads == 2 * q * q - 3
            else:
                q = (n - 2) // 4
                assert cov.num_triangles == 2
                assert cov.num_quads == 2 * q * q + 2 * q - 1

    def test_half_capacity_design(self):
        # "on the cycle we use half of the capacity for the demands" —
        # working wavelength fully used, equal protection reserved.
        design = design_ring_network(9)
        assert design.plan.fiber_utilisation == 1.0
        assert design.plan.num_wavelengths == 2 * design.plan.num_working_wavelengths
