"""The service front door: :func:`solve` and :func:`solve_batch`.

``solve(spec)`` is the repo's single call path into the covering
machinery: route the spec to a backend (or honour its pin), serve from
the content-addressed cache when one is supplied, run, validate, store.
``solve_batch`` is the sweep shape — one call, many specs, shared
cache — and the serializable :class:`~repro.api.spec.CoverSpec` is the
wire format :mod:`repro.dispatch` ships to subprocess and spool
workers.

Every result is re-checked against the spec's demand before it is
returned or cached — no backend, present or future, can hand back a
non-covering without tripping :class:`InvalidCoveringError` here.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace

from ..util.errors import InvalidCoveringError
from .cache import ResultCache
from .result import Result
from .router import route_backend
from .spec import CoverSpec
from .backends import get_backend

__all__ = ["solve", "solve_batch"]


def solve(
    spec: CoverSpec,
    *,
    cache: ResultCache | str | None = None,
    checkpoints: "CheckpointStore | str | None" = None,
    checkpoint_every: int | None = None,
    preempt=None,
    on_progress=None,
) -> Result:
    """Solve one covering job.

    ``cache`` may be a :class:`~repro.api.cache.ResultCache`, a
    directory path (opened as one), or ``None`` (no caching).  Cache
    hits come back with ``from_cache=True`` and byte-identical
    :meth:`~repro.api.result.Result.to_json` output.

    ``checkpoints`` (a :class:`~repro.api.checkpoints.CheckpointStore`
    or a directory path) makes the solve *resumable*: an existing
    checkpoint for this spec hash is resumed, a snapshot is flushed
    every ``checkpoint_every`` nodes, and a preempted/overrun run
    leaves its state in the store before raising
    :class:`~repro.util.errors.SolverPreempted` (node-limit overruns
    leave one too).  ``preempt`` is a callable polled with the live
    engine stats; returning truthy triggers exactly that preemption.
    Resume history never changes the envelope: the final result is
    byte-identical to an uninterrupted solve.

    ``on_progress`` is an observation-only sibling of ``preempt``: it
    is called with the same live engine stats at the same poll cadence
    (every 256 nodes past the poll floor), but its return value is
    ignored — it can never preempt.  The :mod:`repro.serve` SSE stream
    rides this hook.  It shares ``preempt``'s engine seam, so passing
    it routes the backend through the checkpoint-capable call shape.
    """
    from .checkpoints import CheckpointStore

    store = ResultCache.open(cache)
    if store is not None:
        hit = store.get(spec)
        if hit is not None:
            # The service-level invariant holds for hits too: a
            # structurally-valid envelope whose covering no longer
            # meets the demand (hand-edited, bit-rotted) is evicted
            # and the job re-solved, never served.
            try:
                _validate(hit)
            except InvalidCoveringError:
                store.evict(spec)
            else:
                return replace(hit, from_cache=True)

    backend = get_backend(route_backend(spec))
    ckpt_store = CheckpointStore.open(checkpoints)
    if on_progress is not None:
        # Fold the observer into the preempt callback: one engine poll
        # site serves both, and an observer alone can never preempt.
        inner = preempt

        def preempt(stats, _inner=inner, _observe=on_progress):
            _observe(stats)
            return bool(_inner(stats)) if _inner is not None else False

    if ckpt_store is None and checkpoint_every is None and preempt is None:
        # Keep the historical single-argument call shape so minimal
        # custom backends (``run(self, spec)``) stay compatible.
        result = backend.run(spec)
    else:
        result = backend.run(
            spec,
            checkpoints=ckpt_store,
            checkpoint_every=checkpoint_every,
            preempt=preempt,
        )
    _validate(result)
    if store is not None:
        store.put(result)
    return result


def solve_batch(
    specs: Iterable[CoverSpec],
    *,
    cache: ResultCache | str | None = None,
    transport: str | object | None = None,
    workers: int | None = None,
    job_timeout: float | None = None,
    max_retries: int = 2,
    degrade: str | None = None,
) -> list[Result]:
    """Solve many jobs with one shared cache handle; result order
    matches spec order.

    ``transport=None`` (the default) solves in-line, serially, in this
    process.  Anything else — a transport name (``"inproc"``,
    ``"subprocess"``, ``"spool"``) or a
    :class:`~repro.dispatch.base.Transport` instance — routes the batch
    through the distributed dispatcher
    (:func:`repro.dispatch.dispatch_batch`): cost-weighted scheduling
    over ``workers`` workers, per-job ``job_timeout`` deadlines,
    retry-with-exclusion on worker death, and cache write-through, with
    envelopes byte-identical to the in-line path's.  ``degrade``
    (``"heuristic"``; dispatcher path only) re-routes jobs that exhaust
    their retries through the heuristic backend instead of failing the
    batch — the fallback envelopes carry runtime-only ``degraded``
    provenance and are never cached.
    """
    specs = list(specs)
    if transport is None:
        if degrade is not None:
            raise ValueError(
                "degrade requires a dispatcher transport (inproc/subprocess/spool)"
            )
        store = ResultCache.open(cache)
        return [solve(spec, cache=store) for spec in specs]
    from ..dispatch import dispatch_batch

    report = dispatch_batch(
        specs,
        transport=transport,
        workers=workers,
        cache=cache,
        job_timeout=job_timeout,
        max_retries=max_retries,
        degrade=degrade,
    )
    return report.results


def _validate(result: Result) -> None:
    """Reject any backend output that fails the spec's demand or its
    size restriction (the service-level invariant the Result envelope
    promises — cache hits re-pass through here too)."""
    spec = result.spec
    if not result.covering.covers(spec.instance()):
        raise InvalidCoveringError(
            f"backend {result.backend!r} returned a non-covering for "
            f"spec {spec.spec_hash[:12]}"
        )
    if spec.allowed_sizes is not None:
        allowed = set(spec.allowed_sizes)
        bad = sorted({blk.size for blk in result.covering.blocks} - allowed)
        if bad:
            raise InvalidCoveringError(
                f"backend {result.backend!r} used cycle length(s) {bad} outside "
                f"the spec's allowed sizes {tuple(sorted(allowed))} "
                f"(spec {spec.spec_hash[:12]})"
            )
