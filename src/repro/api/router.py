"""Spec → backend routing.

The router is the policy layer the free-function era forced every
caller to reimplement: which solver regime fits which job.  The rules,
in order:

1. a pinned ``spec.backend`` wins (validated against the registry and
   the backend's own :meth:`supports` check);
2. ``require_optimal=False`` routes to the heuristic tier — the caller
   asked for *a* covering, not a certificate;
3. a formula certificate (Theorem 1/2, λ-repetition for odd n) sends
   the job to ``closed_form``: no search for odd n, and for even n a
   near backtrack-free exact cover over the Θ(n⁴) tight block pool;
4. otherwise an exact tier must prove optimality: ``exact_sharded``
   when the spec's shard policy says the ring is big enough to scale
   out (uniform ``K_n`` only — that is where the shard seam lives),
   else serial ``exact``;
5. past the branch-and-bound size ceilings the ``sat`` tier takes over
   (``min_blocks`` only): the same ``proven_optimal`` guarantee from a
   cardinality-SAT UNSAT core instead of exhaustion;
6. a job no certifying tier can take fails with a
   :class:`RoutingError` naming the way out (``require_optimal=False``).

Warm-start hints thread between tiers inside the backends (see
:func:`repro.api.backends.warm_start_bound`): the router's choice of an
exact tier still consults closed-form/heuristic for an opening
incumbent unless the spec forbids hints.
"""

from __future__ import annotations

from ..util.errors import RoutingError as _BaseRoutingError
from .backends import Backend, available_backends, get_backend
from .spec import CoverSpec

__all__ = ["route_backend", "route", "RoutingError"]


class RoutingError(_BaseRoutingError):
    """No registered backend can honour the spec's guarantees.

    Subclasses :class:`repro.util.errors.RoutingError` so the
    library-wide ``except RoutingError`` spelling catches backend
    routing failures too.
    """


def route_backend(spec: CoverSpec) -> str:
    """The name of the backend the router would run for ``spec``.

    Pure and deterministic — the golden routing tests pin this mapping.
    """
    if spec.backend is not None:
        backend = get_backend(spec.backend)
        if not backend.supports(spec):
            raise RoutingError(
                f"pinned backend {spec.backend!r} does not support this spec "
                f"(n={spec.n}, λ={spec.lam}, uniform={spec.is_all_to_all})"
            )
        return spec.backend

    if not spec.require_optimal:
        return "heuristic"

    if get_backend("closed_form").supports(spec):
        return "closed_form"

    if (
        spec.shard_threshold is not None
        and spec.n >= spec.shard_threshold
        and get_backend("exact_sharded").supports(spec)
    ):
        return "exact_sharded"

    if get_backend("exact").supports(spec):
        return "exact"

    # Beyond the B&B ceilings the SAT certification tier takes over:
    # same proven_optimal guarantee by a different argument (UNSAT-core
    # lower bounds over the block-table CNF).
    if get_backend("sat").supports(spec):
        return "sat"

    raise RoutingError(
        f"no backend can certify this spec (n={spec.n}, λ={spec.lam}, "
        f"uniform={spec.is_all_to_all}; registered: "
        f"{', '.join(available_backends())}) — the exact and sat tiers "
        "are size-limited; pass require_optimal=False for the heuristic tier"
    )


def route(spec: CoverSpec) -> Backend:
    """The backend instance the router chose for ``spec``."""
    return get_backend(route_backend(spec))
