"""Backend implementations behind the declarative API.

A :class:`Backend` turns a :class:`~repro.api.spec.CoverSpec` into a
:class:`~repro.api.result.Result`.  Four ship by default:

``closed_form``
    The paper's Theorem 1/2 constructions (and, for odd ``n``, their
    λ-fold repetition).  Applies only where a formula certificate proves
    optimality — the lower-bound certificate is recomputed and attached,
    never trusted.  Odd ``n`` is O(n²) with no search; even ``n`` runs
    a near backtrack-free exact cover (Theorem 2's pole completion)
    over the Θ(n⁴) tight block pool.
``exact``
    The branch-and-bound certifier: :meth:`SolverEngine.min_covering`
    for uniform ``K_n`` demand, :meth:`SolverEngine.min_covering_instance`
    for everything else (``λK_n``, restricted variants).  Exhaustive —
    status ``proven_optimal``.
``exact_sharded``
    The same certification scaled out across processes by root-orbit
    partitioning (uniform ``K_n`` only — the shard seam lives in the
    root branch of the All-to-All search).
``heuristic``
    Deterministic max-coverage greedy tightened by the
    :mod:`repro.core.improve` local search.  Status ``feasible`` —
    valid, never claimed optimal.

Every backend is **objective-generic**: the spec's ``objective`` names
a registered :class:`repro.core.objective.Objective`, which supplies
the cost model, the engine's pruning bound, the per-tier lower-bound
certificate, and the improver's move scoring.  ``closed_form`` claims
only the objectives its constructions certify (the Theorem 1/2
coverings are simultaneously ρ-optimal and ring-size-sum-optimal for
every ``n`` except the ``n = 4`` ADM case); ``exact`` /
``exact_sharded`` / ``heuristic`` take any registered objective, and
Manthey-style restricted covers (``CoverSpec.allowed_sizes``) flow
through the exact and heuristic tiers' filtered block tables.

Custom backends register through :func:`register_backend`; the router
and CLI discover them via :func:`available_backends`.  The registry
stays light to import: the search tiers load
:mod:`repro.core.engine` when they run, and the ``sat`` entry imports
:mod:`repro.sat` the first time :func:`get_backend` fetches it.

Warm-start hints flow *between* tiers at this layer: a uniform-``K_n``
exact solve with ``use_hints=True`` first asks the closed-form tier
for an inclusive upper bound (exactly ρ-sized where its certificate
applies), so the search opens with the strongest possible incumbent.
The greedy+improve pass is *not* re-run here — every exact engine path
already seeds its own greedy/improver incumbent internally, and the
instance solver accepts no external bound at all.  Certification runs
(``use_hints=False``) get no cross-tier hint — that is what makes
their node counts comparable with ``BENCH_solver.json``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from ..core.construction import optimal_covering
from ..core.covering import Covering
from ..core.formulas import optimal_excess, rho
from ..core.objective import Objective as CoverObjective
from ..core.objective import get_objective
from ..core.stats import DEFAULT_NODE_LIMIT, SolverStats
from ..util.errors import SolverError
from .checkpoints import CheckpointStore
from .result import Result
from .spec import CoverSpec, SpecError

if TYPE_CHECKING:
    from ..core.engine import SolverEngine

__all__ = [
    "Backend",
    "register_backend",
    "get_backend",
    "available_backends",
    "EXACT_KN_MAX_N",
    "EXACT_INSTANCE_MAX_N",
]

# The exact solvers' size ceilings (mirrored from the engine's own
# guards so the router can refuse *before* dispatch, with a routing
# error instead of a deep solver failure).
EXACT_KN_MAX_N = 12
EXACT_INSTANCE_MAX_N = 10


@runtime_checkable
class Backend(Protocol):
    """A registered solving strategy."""

    name: str

    def supports(self, spec: CoverSpec) -> bool:
        """Can this backend honour the spec's guarantees?  Must be cheap
        (formula-level work only) — the router calls it while choosing."""
        ...

    def run(
        self,
        spec: CoverSpec,
        *,
        checkpoints=None,
        checkpoint_every: int | None = None,
        preempt=None,
    ) -> Result:
        """Solve the job.  Only called when :meth:`supports` is true.

        ``checkpoints`` is an optional
        :class:`~repro.api.checkpoints.CheckpointStore`: resumable
        backends load the spec's checkpoint from it before searching,
        flush snapshots into it every ``checkpoint_every`` nodes (and
        on preemption), and delete the entry on success.  ``preempt``
        is polled with the live engine stats; returning truthy raises
        :class:`~repro.util.errors.SolverPreempted` with the flushed
        checkpoint.  Backends without resumable state accept and
        ignore the keywords.  The service only passes them when the
        caller opted in, so ``run(spec)`` remains a valid minimal
        implementation for custom backends.
        """
        ...


# ``None`` marks the ``sat`` entry until its first fetch imports it.
_REGISTRY: dict[str, Backend | None] = {}


def register_backend(backend: Backend, *, replace: bool = False) -> Backend:
    """Register a backend under ``backend.name``; refuses to shadow an
    existing name unless ``replace=True``."""
    name = backend.name
    if not replace and name in _REGISTRY:
        raise SpecError(f"backend {name!r} is already registered")
    _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> Backend:
    try:
        backend = _REGISTRY[name]
    except KeyError:
        raise SpecError(
            f"unknown backend {name!r} (available: {', '.join(available_backends())})"
        ) from None
    if backend is None:
        from ..sat.backend import SatBackend

        backend = _REGISTRY[name] = SatBackend()
    return backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _deadline_of(spec: CoverSpec) -> float | None:
    if spec.time_budget is None:
        return None
    return time.time() + spec.time_budget


def _node_limit_of(spec: CoverSpec) -> int:
    return spec.node_limit if spec.node_limit is not None else DEFAULT_NODE_LIMIT


def _objective_of(spec: CoverSpec) -> CoverObjective:
    return get_objective(spec.objective)


def warm_start_bound(spec: CoverSpec) -> int | None:
    """An inclusive upper bound (in the spec's objective units) from
    the closed-form tier, or ``None``.

    Only the formula tier is consulted: its bound is exactly
    optimum-sized where the certificate applies, and the exact engine
    paths already seed their own greedy+improve incumbent internally,
    so re-running the heuristic here would duplicate work for no
    tighter bound.  Never consulted when the spec disables hints.
    """
    if not spec.use_hints:
        return None
    closed = get_backend("closed_form")
    if closed.supports(spec):
        return _objective_of(spec).covering_value(closed.run(spec).covering)
    return None


# ---------------------------------------------------------------------------
# closed_form
# ---------------------------------------------------------------------------


class ClosedFormBackend:
    """Theorem 1/2 constructions (λ-fold repetition for odd ``n``).

    Claims only the objectives its constructions *certify* — i.e. where
    a formula-level argument proves the construction's value equals the
    objective's lower bound:

    ``min_blocks``
        λ = 1 always; λ > 1 for odd ``n`` whenever the λ-repetition
        bound meets ``λ·ρ(n)``.
    ``min_total_size``
        The same coverings are simultaneously ring-size-sum optimal
        wherever their excess matches the end-parity bound: every odd
        ``n`` (exact decompositions, any λ — degrees stay even), and
        even ``n`` at λ = 1 whose theorem excess is exactly ``n/2``
        (all even ``n ≥ 6``; the ``n = 4`` example covering is not ADM
        optimal, so that job routes to the exact tier).
    """

    name = "closed_form"

    def supports(self, spec: CoverSpec) -> bool:
        if not spec.is_all_to_all or spec.allowed_sizes is not None:
            return False
        # The theorems build C3/C4 coverings: the spec must admit
        # 4-cycles and must not restrict the pool below them.
        if spec.max_size != 4:
            return False
        if spec.objective == "min_blocks":
            if spec.lam == 1:
                return True
            # λ-fold repetition is certified optimal exactly when the λ
            # lower bound meets λ·ρ(n) — always for odd n, never useful
            # for even n (the doubled-copy constructions beat it, so
            # the exact tier must decide).
            cert = _objective_of(spec).certificate(spec, "closed_form")
            return spec.n % 2 == 1 and cert.value == spec.lam * rho(spec.n)
        if spec.objective == "min_total_size":
            if spec.n % 2 == 1:
                return True  # exact decompositions: λ·|E| slots meet the bound
            return spec.lam == 1 and optimal_excess(spec.n) == spec.n // 2
        return False

    def run(
        self,
        spec: CoverSpec,
        *,
        checkpoints=None,
        checkpoint_every: int | None = None,
        preempt=None,
    ) -> Result:
        # No search state to checkpoint: even n's pole completion (see
        # the module docstring) runs to the end in one go.
        if not self.supports(spec):
            raise SpecError("closed_form backend does not support this spec")
        obj = _objective_of(spec)
        base = optimal_covering(spec.n)
        covering = base if spec.lam == 1 else Covering(spec.n, base.blocks * spec.lam)
        cert = obj.certificate(spec, "closed_form")
        value = obj.covering_value(covering)
        if value != cert.value:
            raise SolverError(
                f"closed-form covering has {spec.objective} value {value} but the "
                f"lower bound certifies {cert.value} — formula/construction mismatch"
            )
        theorem = "theorem1_odd" if spec.n % 2 == 1 else "theorem2_even"
        stats = SolverStats(nodes=0, best_value=value, proven_optimal=True)
        return Result(
            spec=spec,
            covering=covering,
            status="closed_form",
            backend=self.name,
            stats=stats,
            lower_bound=cert.value,
            certificates=(theorem,) + tuple(a.name for a in cert.arguments),
        )


# ---------------------------------------------------------------------------
# exact / exact_sharded
# ---------------------------------------------------------------------------


class ExactBackend:
    """Serial branch-and-bound certification (``K_n`` or instance),
    generic over every registered objective and over Manthey-style
    size restrictions."""

    name = "exact"

    def supports(self, spec: CoverSpec) -> bool:
        # Objective-generic: CoverSpec validation already guarantees the
        # objective is registered, so only the size ceilings gate here.
        if spec.is_all_to_all and spec.lam == 1:
            return spec.n <= EXACT_KN_MAX_N
        return spec.n <= EXACT_INSTANCE_MAX_N

    def run(
        self,
        spec: CoverSpec,
        *,
        checkpoints=None,
        checkpoint_every: int | None = None,
        preempt=None,
    ) -> Result:
        from ..core.engine import SolverEngine

        kn_search = spec.is_all_to_all and spec.lam == 1
        if not kn_search and (spec.branching != "lex" or not spec.use_memo):
            # Refuse rather than record (and cache) a regime that never runs.
            raise SpecError(
                "branching and use_memo apply only to the K_n search "
                "(All-to-All, lam = 1), not to the instance search"
            )
        engine = SolverEngine(spec.n, max_size=spec.max_size)
        obj = _objective_of(spec)
        stats = SolverStats()
        deadline = _deadline_of(spec)
        node_limit = _node_limit_of(spec)
        store = CheckpointStore.open(checkpoints)
        resume = store.load(spec.spec_hash) if store is not None else None
        on_checkpoint = None
        if store is not None:
            on_checkpoint = lambda ckpt: store.save(spec.spec_hash, ckpt)  # noqa: E731
        try:
            if kn_search:
                covering = engine.min_covering(
                    upper_bound=warm_start_bound(spec),
                    node_limit=node_limit,
                    stats=stats,
                    branching=spec.branching,
                    use_memo=spec.use_memo,
                    deadline=deadline,
                    objective=obj,
                    allowed_sizes=spec.allowed_sizes,
                    checkpoint=resume,
                    checkpoint_every=checkpoint_every,
                    on_checkpoint=on_checkpoint,
                    preempt=preempt,
                )
            else:
                # The instance solver has no external-bound seam — it seeds
                # its own greedy incumbent — so use_hints cannot thread a
                # cross-tier bound into this path (see the module docstring).
                inst = spec.instance()
                covering = engine.min_covering_instance(
                    inst,
                    node_limit=node_limit,
                    stats=stats,
                    deadline=deadline,
                    objective=obj,
                    allowed_sizes=spec.allowed_sizes,
                    checkpoint=resume,
                    checkpoint_every=checkpoint_every,
                    on_checkpoint=on_checkpoint,
                    preempt=preempt,
                )
        except SolverError as exc:
            # Budget overruns and preemptions flush their resumable
            # state before propagating, so the next run picks up here.
            if store is not None and exc.checkpoint is not None:
                store.save(spec.spec_hash, exc.checkpoint)
            raise
        if store is not None:
            store.delete(spec.spec_hash)
        cert = obj.certificate(spec, "exact")
        result = Result(
            spec=spec,
            covering=covering,
            status="proven_optimal",
            backend=self.name,
            stats=stats,
            lower_bound=cert.value,
            certificates=("branch_and_bound_exhaustive",)
            + tuple(a.name for a in cert.arguments),
        )
        if resume is not None:
            # Runtime-only resume lineage: visible to callers, stripped
            # from the serialized envelope (byte-identity guarantee).
            result = result.annotate_resume(
                {
                    "resumed": True,
                    "resumes": resume.resumes + 1,
                    "checkpoint_nodes": resume.nodes,
                }
            )
        return result


class ExactShardedBackend:
    """Root-orbit-sharded certification across worker processes."""

    name = "exact_sharded"

    def supports(self, spec: CoverSpec) -> bool:
        # Objective-generic (any registered objective); the shard seam
        # constrains the demand shape, not the objective.
        return spec.is_all_to_all and spec.lam == 1 and spec.n <= EXACT_KN_MAX_N

    def run(
        self,
        spec: CoverSpec,
        *,
        checkpoints=None,
        checkpoint_every: int | None = None,
        preempt=None,
    ) -> Result:
        # Checkpoint keywords are accepted and ignored: shard workers
        # run in separate processes and their interleaved frontiers have
        # no single serializable stack — resumable sharded certification
        # would need per-shard checkpoints (future work; the serial
        # `exact` backend is the resumable path).
        from ..core.engine import SolverEngine

        if not self.supports(spec):
            raise SpecError(
                "exact_sharded certifies uniform K_n demand only "
                "(the shard seam is the All-to-All root orbit)"
            )
        engine = SolverEngine(spec.n, max_size=spec.max_size)
        obj = _objective_of(spec)
        stats = SolverStats()
        covering = engine.min_covering_sharded(
            workers=spec.workers,
            upper_bound=warm_start_bound(spec),
            node_limit=_node_limit_of(spec),
            stats=stats,
            branching=spec.branching,
            use_memo=spec.use_memo,
            deadline=_deadline_of(spec),
            objective=obj,
            allowed_sizes=spec.allowed_sizes,
        )
        cert = obj.certificate(spec, "exact")
        return Result(
            spec=spec,
            covering=covering,
            status="proven_optimal",
            backend=self.name,
            stats=stats,
            lower_bound=cert.value,
            certificates=("branch_and_bound_exhaustive",)
            + tuple(a.name for a in cert.arguments),
        )


# ---------------------------------------------------------------------------
# heuristic
# ---------------------------------------------------------------------------


class HeuristicBackend:
    """Greedy + local-search tier: always feasible, never certified.
    Objective-generic — the improver accepts moves under the spec
    objective's scoring key, and size restrictions filter every pool
    the greedy and the moves may draw from."""

    name = "heuristic"

    def supports(self, spec: CoverSpec) -> bool:
        # Objective-generic and size-unlimited: every validated spec
        # (whose objective is registered by construction) is accepted.
        return True

    def run(
        self,
        spec: CoverSpec,
        *,
        checkpoints=None,
        checkpoint_every: int | None = None,
        preempt=None,
    ) -> Result:
        # No search tree to checkpoint: greedy + improver is polynomial.
        from ..core.engine import SolverEngine
        from ..core.improve import ImproveStats, improve_covering

        inst = spec.instance()
        engine = SolverEngine(spec.n, max_size=spec.max_size)
        obj = _objective_of(spec)
        covering = self._greedy(engine, inst, spec)
        if spec.improve:
            covering = improve_covering(
                covering,
                inst,
                pool=spec.pool,
                max_size=spec.max_size,
                stats=ImproveStats(),
                objective=obj,
                allowed_sizes=spec.allowed_sizes,
            )
        stats = SolverStats(
            nodes=0, best_value=obj.covering_value(covering), proven_optimal=False
        )
        cert = obj.certificate(spec, "heuristic")
        return Result(
            spec=spec,
            covering=covering,
            status="feasible",
            backend=self.name,
            stats=stats,
            lower_bound=cert.value,
            certificates=tuple(a.name for a in cert.arguments),
        )

    @staticmethod
    def _greedy(engine: SolverEngine, inst, spec: CoverSpec) -> Covering:
        """Pool resolution mirrors :func:`improved_greedy_covering`:
        ``auto`` prefers the tight pool (zero-waste blocks) and falls
        back to convex; an explicit pool is honoured strictly (the
        greedy baseline's historical error contract relies on a tight
        pool that cannot reach some demand *raising*)."""
        if spec.pool == "auto":
            try:
                return engine.greedy_cover(
                    inst, pool="tight", allowed_sizes=spec.allowed_sizes
                )
            except SolverError:
                return engine.greedy_cover(
                    inst, pool="convex", allowed_sizes=spec.allowed_sizes
                )
        return engine.greedy_cover(inst, pool=spec.pool, allowed_sizes=spec.allowed_sizes)


register_backend(ClosedFormBackend())
register_backend(ExactBackend())
register_backend(ExactShardedBackend())
register_backend(HeuristicBackend())

# The SAT certification backend lives in its own subsystem
# (:mod:`repro.sat`, which imports this module's helpers); get_backend
# imports it on the first fetch of "sat".
_REGISTRY["sat"] = None
