"""repro — reproduction of "A Note on Cycle Covering" (SPAA 2001).

Survivable WDM ring design via DRC cycle coverings: cover the All-to-All
logical graph ``K_n`` by small cycles, each independently routable with
edge-disjoint paths on the physical ring ``C_n``.

Quickstart::

    from repro.api import CoverSpec, solve

    result = solve(CoverSpec.for_ring(11))   # routed: closed_form, ρ(11)=15
    result.status, result.num_blocks

    from repro import optimal_covering, rho, verify_covering

    cov = optimal_covering(11)          # Theorem 1 object: 15 cycles
    assert cov.num_blocks == rho(11)
    print(verify_covering(cov, expect_optimal=True).summary())

Package map
-----------
``repro.api``            declarative front door: CoverSpec → backend → Result
``repro.core``           the paper's contribution (coverings, bounds, theorems)
``repro.rings``          physical ring substrate (topology, arcs, capacities)
``repro.traffic``        logical instances (All-to-All, λK_n, custom)
``repro.wdm``            optical layer: wavelengths, ADMs, cost model
``repro.survivability``  failure simulation & automatic protection switching
``repro.baselines``      non-DRC covers, greedy coverings (count and ADM flavours)
``repro.extensions``     the paper's future work: λK_n, trees of rings, grid, torus
``repro.analysis``       experiment harness regenerating every paper table

Every name below loads its module on first use, so ``import repro``
costs next to nothing and a solve imports only the tiers it routes to.
"""

from .util.lazy import lazy_exports

__version__ = "1.1.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".api": ("api", "CoverSpec", "Result", "solve", "solve_batch"),
        ".core.blocks": ("CycleBlock",),
        ".core.construction": ("fast_covering", "optimal_covering", "optimality_gap"),
        ".core.covering": ("Covering",),
        ".core.drc": ("is_drc_routable", "route_block"),
        ".core.engine": ("SolverEngine",),
        ".core.even": ("even_covering",),
        ".core.formulas": (
            "counting_bound",
            "optimal_excess",
            "rho",
            "theorem_cycle_mix",
            "triangle_covering_number",
        ),
        ".core.bounds": ("lower_bound",),
        ".core.improve": ("improve_covering", "improved_greedy_covering"),
        ".core.ladder": ("ladder_decomposition",),
        ".core.verify": ("assert_valid_covering", "verify_covering"),
        ".traffic.instances": ("Instance", "all_to_all", "lambda_all_to_all"),
    },
)
__all__.append("__version__")
