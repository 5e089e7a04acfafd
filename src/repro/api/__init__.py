"""repro.api — the declarative front door to the covering machinery.

One call path for every workload::

    from repro.api import CoverSpec, solve

    result = solve(CoverSpec.for_ring(11))          # routed automatically
    result.status                                    # "closed_form"
    result.num_blocks                                # ρ(11) = 15

    # Certification mode: force the branch-and-bound prover, no hints.
    result = solve(CoverSpec.for_ring(10, backend="exact", use_hints=False))
    result.status, result.stats.nodes                # ("proven_optimal", …)

    # Heuristic tier for sizes past the exact ceiling.
    result = solve(CoverSpec.for_ring(30, require_optimal=False))

    # Repeated sweeps skip solves via the content-addressed cache.
    result = solve(spec, cache="~/.cache/repro")

Layers (each its own module):

* :mod:`~repro.api.spec` — :class:`CoverSpec`, the frozen, hashable,
  JSON-round-trippable job description (and wire format);
* :mod:`~repro.api.router` — spec → backend policy;
* :mod:`~repro.api.backends` — the :class:`Backend` protocol, the
  registry, and the four stock tiers (``closed_form``, ``exact``,
  ``exact_sharded``, ``heuristic``) with warm-start hint threading;
* :mod:`~repro.api.result` — the uniform :class:`Result` envelope
  (status, stats, bound certificates, provenance, deterministic JSON);
* :mod:`~repro.api.cache` — the content-addressed on-disk
  :class:`ResultCache` keyed by canonical spec hash;
* :mod:`~repro.api.checkpoints` — the :class:`CheckpointStore` of
  resumable search checkpoints living next to the cache;
* :mod:`~repro.api.service` — :func:`solve` / :func:`solve_batch`.
"""

from __future__ import annotations

from ..core.objective import (
    Objective,
    available_objectives,
    get_objective,
    register_objective,
)
from .backends import (
    Backend,
    available_backends,
    get_backend,
    register_backend,
)
from .cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from .checkpoints import CheckpointStore, MemoryCheckpointStore
from .result import RESULT_FORMAT, Result, STATUSES
from .router import RoutingError, route, route_backend
from .service import solve, solve_batch
from .spec import SPEC_FORMAT, CoverSpec, SpecError

__all__ = [
    "Backend",
    "CACHE_DIR_ENV",
    "CheckpointStore",
    "CoverSpec",
    "MemoryCheckpointStore",
    "Objective",
    "RESULT_FORMAT",
    "Result",
    "ResultCache",
    "RoutingError",
    "SPEC_FORMAT",
    "STATUSES",
    "SpecError",
    "available_backends",
    "available_objectives",
    "default_cache_dir",
    "get_backend",
    "get_objective",
    "register_backend",
    "register_objective",
    "route",
    "route_backend",
    "solve",
    "solve_batch",
]
