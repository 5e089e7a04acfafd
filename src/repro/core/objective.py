"""First-class covering objectives: the :class:`Objective` protocol and
registry.

``CoverSpec.objective`` used to be a string validated against a frozen
one-element set while the engine, the packing bounds, the improver, and
every backend hard-coded block cardinality.  This module makes the
objective a real axis: an :class:`Objective` supplies

* the **cost model** — the additive cost of using a candidate block
  (:meth:`Objective.block_cost`) and the value of a complete covering
  (:meth:`Objective.covering_value`);
* the **engine pruning hook** — an admissible lower bound on the
  remaining cost of a partial covering
  (:meth:`Objective.node_bound`), generalising the
  fractional/cardinality packing bounds (which are exactly the
  ``min_blocks`` instance of the hook);
* **candidate admissibility** — whether a block may appear at all
  under a Manthey-style size restriction
  (:meth:`Objective.admits`, driven by ``CoverSpec.allowed_sizes``);
  the engine filters block tables with it the way dominance filtering
  prunes restricted instances;
* **improver move scoring** — the lexicographic acceptance key the
  :mod:`repro.core.improve` local search minimises
  (:meth:`Objective.improvement_key`);
* **certificates** — the human-readable lower-bound certificate each
  backend tier attaches to its envelopes
  (:meth:`Objective.certificate`, :meth:`Objective.instance_certificate`).

Two objectives ship by default:

``min_blocks``
    The paper's ρ(n): fewest cycles.  Every cost is 1, the node bound
    is the engine's historical fractional/cardinality packing maximum,
    and the certificates are the counting/diameter/parity arguments of
    :mod:`repro.core.bounds` (λ-repetition bound for the formula tier).

``min_total_size``
    The ring-size-sum (total ADM count) objective of the paper's
    refs [3]/[4] (Eilam–Moran–Zaks; Gerstel–Lin–Sasaki): minimise
    ``Σ_k |I_k|``.  A block of size ``s`` costs ``s``; the node bound
    counts residual request slots plus the end-parity surplus (every
    block contributes an even number of edge-ends per vertex, so
    odd-residual-degree vertices force extra slots); the certificate is
    the exact All-to-All bound ``|E| + p·[n even]`` generalised to any
    instance (:func:`repro.core.bounds.total_size_lower_bound`).

Out-of-tree objectives register with :func:`register_objective`;
``CoverSpec`` validation, the router, the backends, and the CLI all
consult :func:`available_objectives` — nothing else needs touching for
the in-process tiers.  **Cross-process caveat:** objectives travel by
registry *name* over every process boundary (sharded shard workers,
``python -m repro worker`` subprocess/spool fleets), so a custom
objective must be registered in the worker process too — i.e. its
defining module must be imported there (fork-based sharding inherits
the parent's registry; spawn-based sharding and remote workers do
not).  The built-in objectives are registered at import time and are
immune.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from typing import TYPE_CHECKING

from ..util.errors import SolverError

if TYPE_CHECKING:  # pragma: no cover
    from ..traffic.instances import Instance
    from .blocks import CycleBlock
    from .bounds import LowerBoundCertificate
    from .covering import Covering

__all__ = [
    "Objective",
    "MinBlocksObjective",
    "MinTotalSizeObjective",
    "available_objectives",
    "get_objective",
    "register_objective",
    "resolve_objective",
]

#: Backend tiers an objective issues certificates for (the spelling the
#: :mod:`repro.api` backends pass to :meth:`Objective.certificate`).
CERTIFICATE_TIERS = ("closed_form", "exact", "heuristic")


class Objective(ABC):
    """One way of scoring a covering — see the module docstring.

    Costs are additive over blocks: the engine's branch-and-bound
    accumulates :meth:`block_cost` along a branch and prunes with
    :meth:`node_bound`, so both must agree that
    ``covering_value == Σ block_cost(blk)``.  ``track_parity`` opts the
    search into maintaining per-vertex residual-degree parity (an
    ``O(block)`` increment) for bounds that need it.
    """

    #: Registry key, ``CoverSpec.objective`` value, and CLI spelling.
    name: str = ""
    #: One-line human description (the CLI ``objectives`` listing).
    description: str = ""
    #: Ask the engine to maintain the residual odd-degree vertex count
    #: (``odd_vertices`` in :meth:`node_bound`).
    track_parity: bool = False

    # -- cost model ------------------------------------------------------

    @abstractmethod
    def block_cost(self, block: "CycleBlock") -> int:
        """Additive cost of using ``block`` in a covering."""

    def covering_value(self, covering: "Covering") -> int:
        """Objective value of a complete covering (Σ block costs)."""
        return sum(self.block_cost(blk) for blk in covering.blocks)

    # -- engine hooks ----------------------------------------------------

    @abstractmethod
    def node_bound(
        self,
        *,
        frac_units: int,
        frac_denom: int,
        residual_requests: int,
        max_cover: int,
        min_cost: int,
        odd_vertices: int,
    ) -> int:
        """Admissible lower bound on the *remaining* cost of a partial
        covering.

        ``frac_units``/``frac_denom`` are the engine's running
        fractional packing totals (``⌈frac_units/frac_denom⌉`` blocks
        are still needed); ``residual_requests`` the number of
        still-unmet requests; ``max_cover`` the most requests any
        candidate retires; ``min_cost`` the cheapest candidate's block
        cost; ``odd_vertices`` the number of vertices with odd residual
        demand degree (0 unless ``track_parity``).  Never overestimate —
        the branch-and-bound prunes with this.  Must depend on its
        arguments alone: the engine caches the value per search.
        """

    # -- candidate admissibility ----------------------------------------

    def admits(
        self, block: "CycleBlock", allowed_sizes: tuple[int, ...] | None
    ) -> bool:
        """May ``block`` appear in a covering under the spec's size
        restriction?  The default is the Manthey-style rule — the cycle
        length must lie in ``allowed_sizes`` (``None`` admits all)."""
        return allowed_sizes is None or block.size in allowed_sizes

    # -- certificates ----------------------------------------------------

    @abstractmethod
    def instance_certificate(self, instance: "Instance") -> "LowerBoundCertificate":
        """Admissible lower bound on this objective's optimum for an
        arbitrary instance (the verifier's oracle)."""

    def certificate(self, spec, tier: str) -> "LowerBoundCertificate":
        """Certificate a backend tier attaches to its envelope.

        ``spec`` is duck-typed (anything with ``n``, ``lam``,
        ``is_all_to_all`` and ``instance()`` — a
        :class:`repro.api.spec.CoverSpec` in practice); ``tier`` is one
        of :data:`CERTIFICATE_TIERS`.  The default ignores the tier and
        bounds the materialised instance; objectives with stronger
        uniform-demand arguments override per tier.
        """
        return self.instance_certificate(spec.instance())

    # -- improver --------------------------------------------------------

    def improvement_key(self, covering: "Covering") -> tuple[int, int]:
        """Lexicographic quantity the local-search improver minimises.
        Every accepted move must strictly decrease it (termination)."""
        return (self.covering_value(covering), covering.num_blocks)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Objective {self.name}>"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


_REGISTRY: dict[str, Objective] = {}


def register_objective(objective: Objective, *, replace: bool = False) -> Objective:
    """Register ``objective`` under ``objective.name``; refuses to
    shadow an existing name unless ``replace=True``."""
    name = objective.name
    if not name or not isinstance(name, str):
        raise SolverError(f"objective must carry a non-empty string name, got {name!r}")
    if not replace and name in _REGISTRY:
        raise SolverError(f"objective {name!r} is already registered")
    _REGISTRY[name] = objective
    return objective


def get_objective(name: str) -> Objective:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SolverError(
            f"unknown objective {name!r} (registered: "
            f"{', '.join(available_objectives())})"
        ) from None


def available_objectives() -> tuple[str, ...]:
    """Registered objective names, in registration order."""
    return tuple(_REGISTRY)


def resolve_objective(objective: "Objective | str | None") -> Objective:
    """Coerce an engine-level objective argument: ``None`` means the
    historical ``min_blocks`` behaviour, a string is looked up in the
    registry, an :class:`Objective` passes through."""
    if objective is None:
        return MIN_BLOCKS
    if isinstance(objective, str):
        return get_objective(objective)
    return objective


# ---------------------------------------------------------------------------
# min_blocks — the paper's ρ(n)
# ---------------------------------------------------------------------------


class MinBlocksObjective(Objective):
    """Fewest cycles (the paper's ρ).  Every block costs 1; the node
    bound is the engine's historical fractional/cardinality packing
    maximum, byte-for-byte."""

    name = "min_blocks"
    description = "fewest cycles (the paper's rho(n))"

    def block_cost(self, block: "CycleBlock") -> int:
        return 1

    def covering_value(self, covering: "Covering") -> int:
        return covering.num_blocks

    def node_bound(
        self,
        *,
        frac_units: int,
        frac_denom: int,
        residual_requests: int,
        max_cover: int,
        min_cost: int,
        odd_vertices: int,
    ) -> int:
        bound = -(-frac_units // frac_denom)
        card = -(-residual_requests // max_cover)
        return card if card > bound else bound

    def instance_certificate(self, instance: "Instance") -> "LowerBoundCertificate":
        from .bounds import instance_lower_bound

        return instance_lower_bound(instance)

    def certificate(self, spec, tier: str) -> "LowerBoundCertificate":
        """The historical per-tier certificates: the formula tier uses
        the full counting/diameter/parity arguments (λ-repetition bound
        for λ > 1), the exact tier those same arguments for uniform
        ``K_n`` and the counting bound otherwise, the heuristic tier
        always the instance counting bound."""
        from .bounds import instance_lower_bound, lower_bound

        if tier == "closed_form":
            if spec.lam == 1:
                return lower_bound(spec.n)
            from ..extensions.lambda_fold import lambda_lower_bound

            return lambda_lower_bound(spec.n, spec.lam)
        if tier == "exact" and spec.is_all_to_all and spec.lam == 1:
            return lower_bound(spec.n)
        return instance_lower_bound(spec.instance())

    def improvement_key(self, covering: "Covering") -> tuple[int, int]:
        # Fewer blocks first; slot-shaving plateau walks feed later
        # merges (the improver's historical acceptance rule).
        return (covering.num_blocks, covering.total_slots)


# ---------------------------------------------------------------------------
# min_total_size — refs [3]/[4], Σ|I_k|
# ---------------------------------------------------------------------------


class MinTotalSizeObjective(Objective):
    """Minimum total ring size ``Σ_k |I_k|`` (total ADM count).

    A block of size ``s`` provides exactly ``s`` request slots, so the
    objective equals total covered slots; the remaining cost of a
    partial covering is at least the number of unmet requests, plus one
    extra slot per two odd-residual-degree vertices (every block
    contributes an even number of edge-ends at each vertex), plus the
    packing bound's block count times the cheapest block.
    """

    name = "min_total_size"
    description = "smallest total ring size sum |I_k| (ADM count, refs [3]/[4])"
    track_parity = True

    def block_cost(self, block: "CycleBlock") -> int:
        return block.size

    def covering_value(self, covering: "Covering") -> int:
        return covering.total_slots

    def node_bound(
        self,
        *,
        frac_units: int,
        frac_denom: int,
        residual_requests: int,
        max_cover: int,
        min_cost: int,
        odd_vertices: int,
    ) -> int:
        slots = residual_requests + odd_vertices // 2
        blocks_needed = -(-frac_units // frac_denom)
        card = -(-residual_requests // max_cover)
        if card > blocks_needed:
            blocks_needed = card
        packed = min_cost * blocks_needed
        return packed if packed > slots else slots

    def instance_certificate(self, instance: "Instance") -> "LowerBoundCertificate":
        from .bounds import total_size_lower_bound

        return total_size_lower_bound(instance)


MIN_BLOCKS = register_objective(MinBlocksObjective())
MIN_TOTAL_SIZE = register_objective(MinTotalSizeObjective())
