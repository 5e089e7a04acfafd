"""The paper's contribution: DRC cycle coverings of ``K_n`` over ``C_n``."""

from .blocks import CycleBlock, convex_block, quad, triangle
from .bounds import (
    LowerBoundCertificate,
    instance_lower_bound,
    lower_bound,
    total_size_lower_bound,
)
from .construction import fast_covering, optimal_covering, optimality_gap
from .covering import Covering
from .drc import brute_force_routing, is_drc_routable, paper_example_blocks, route_block
from .even import even_covering
from .formulas import (
    counting_bound,
    cycle_cover_lower_bound,
    optimal_excess,
    rho,
    rho_lambda_lower_bound,
    theorem_cycle_mix,
    triangle_covering_number,
)
from .checkpoint import CappedMemo, SearchCheckpoint
from .engine import (
    SolverEngine,
    SolverStats,
    dihedral_canonical,
    dominated_candidates,
    enumerate_convex_blocks,
    enumerate_tight_blocks,
    exact_decomposition,
)
from .improve import ImproveStats, improve_covering, improved_greedy_covering
from .ladder import ladder_decomposition
from .ledger import CoverageLedger
from .objective import (
    Objective,
    available_objectives,
    get_objective,
    register_objective,
)
from .pole import pole_decomposition
from .transforms import (
    canonical_covering_key,
    coverings_equivalent,
    dihedral_orbit,
    reflect_covering,
    rotate_covering,
)
from .verify import VerificationReport, assert_valid_covering, verify_covering

__all__ = [
    "canonical_covering_key",
    "coverings_equivalent",
    "dihedral_orbit",
    "reflect_covering",
    "rotate_covering",
    "CappedMemo",
    "CoverageLedger",
    "CycleBlock",
    "Covering",
    "SearchCheckpoint",
    "LowerBoundCertificate",
    "ImproveStats",
    "Objective",
    "available_objectives",
    "get_objective",
    "register_objective",
    "total_size_lower_bound",
    "SolverEngine",
    "SolverStats",
    "dihedral_canonical",
    "dominated_candidates",
    "improve_covering",
    "improved_greedy_covering",
    "VerificationReport",
    "assert_valid_covering",
    "brute_force_routing",
    "convex_block",
    "counting_bound",
    "cycle_cover_lower_bound",
    "enumerate_convex_blocks",
    "enumerate_tight_blocks",
    "even_covering",
    "exact_decomposition",
    "fast_covering",
    "instance_lower_bound",
    "is_drc_routable",
    "ladder_decomposition",
    "lower_bound",
    "optimal_covering",
    "optimal_excess",
    "optimality_gap",
    "paper_example_blocks",
    "pole_decomposition",
    "quad",
    "rho",
    "rho_lambda_lower_bound",
    "route_block",
    "theorem_cycle_mix",
    "triangle",
    "triangle_covering_number",
    "verify_covering",
]
