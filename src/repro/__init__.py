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
"""

from .core import (
    Covering,
    CycleBlock,
    SolverEngine,
    assert_valid_covering,
    counting_bound,
    even_covering,
    fast_covering,
    is_drc_routable,
    ladder_decomposition,
    lower_bound,
    optimal_covering,
    optimal_excess,
    optimality_gap,
    improve_covering,
    improved_greedy_covering,
    rho,
    route_block,
    theorem_cycle_mix,
    triangle_covering_number,
    verify_covering,
)
from .traffic import Instance, all_to_all, lambda_all_to_all

__version__ = "1.1.0"

from . import api
from .api import CoverSpec, Result, solve, solve_batch

__all__ = [
    "CoverSpec",
    "Result",
    "api",
    "solve",
    "solve_batch",
    "Covering",
    "CycleBlock",
    "Instance",
    "SolverEngine",
    "improve_covering",
    "improved_greedy_covering",
    "all_to_all",
    "assert_valid_covering",
    "counting_bound",
    "even_covering",
    "fast_covering",
    "is_drc_routable",
    "ladder_decomposition",
    "lambda_all_to_all",
    "lower_bound",
    "optimal_covering",
    "optimal_excess",
    "optimality_gap",
    "rho",
    "route_block",
    "theorem_cycle_mix",
    "triangle_covering_number",
    "verify_covering",
    "__version__",
]
