"""The paper's contribution: DRC cycle coverings of ``K_n`` over ``C_n``.

Every public name loads its submodule on first use, so a closed-form
solve never imports the branch-and-bound engine.
"""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".blocks": (
            "CycleBlock",
            "convex_block",
            "enumerate_tight_blocks",
            "quad",
            "triangle",
        ),
        ".bounds": (
            "LowerBoundCertificate",
            "instance_lower_bound",
            "lower_bound",
            "total_size_lower_bound",
        ),
        ".checkpoint": ("CappedMemo", "SearchCheckpoint"),
        ".construction": ("fast_covering", "optimal_covering", "optimality_gap"),
        ".covering": ("Covering",),
        ".drc": (
            "brute_force_routing",
            "is_drc_routable",
            "paper_example_blocks",
            "route_block",
        ),
        ".engine": (
            "SolverEngine",
            "dihedral_canonical",
            "dominated_candidates",
            "enumerate_convex_blocks",
        ),
        ".even": ("even_covering",),
        ".formulas": (
            "counting_bound",
            "cycle_cover_lower_bound",
            "optimal_excess",
            "rho",
            "rho_lambda_lower_bound",
            "theorem_cycle_mix",
            "triangle_covering_number",
        ),
        ".improve": ("ImproveStats", "improve_covering", "improved_greedy_covering"),
        ".ladder": ("ladder_decomposition",),
        ".ledger": ("CoverageLedger",),
        ".objective": (
            "Objective",
            "available_objectives",
            "get_objective",
            "register_objective",
        ),
        ".pole": ("exact_decomposition", "pole_decomposition"),
        ".stats": ("SolverStats",),
        ".transforms": (
            "canonical_covering_key",
            "coverings_equivalent",
            "dihedral_orbit",
            "reflect_covering",
            "rotate_covering",
        ),
        ".verify": ("VerificationReport", "assert_valid_covering", "verify_covering"),
    },
)
