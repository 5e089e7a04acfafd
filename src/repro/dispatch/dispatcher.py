"""The work-queue dispatcher: ``dispatch_batch`` and its report.

``dispatch_batch(specs, transport=...)`` is the fleet-scale sweep
shape.  The dispatcher:

* deduplicates specs by canonical hash (one solve per unique job, every
  duplicate position sharing the envelope);
* resumes from the content-addressed
  :class:`~repro.api.cache.ResultCache` — already-solved jobs are
  served (validated) from disk and never dispatched, so a crashed sweep
  restarts from where it died;
* orders the remaining jobs by exponential cost weight
  (:func:`cost_weight`, the same ``4**n`` scale the engine's batched
  sweeps chunk by) in LPT order via
  :func:`repro.util.parallel.lpt_order` — the heavy jobs start first so
  they cannot straggle behind a drained queue;
* hands them to a pluggable :class:`~repro.dispatch.base.Transport`
  with per-job deadlines and retry-with-exclusion;
* validates every returned envelope against its spec's demand before
  accepting it (a worker cannot hand back a non-covering), writes it
  through to the cache, and
* merges deterministically: results return in the caller's spec order,
  and the batch-level :class:`~repro.core.stats.SolverStats` are
  merged over envelopes in stable spec-hash order.

Graceful degradation is opt-in: ``degrade="heuristic"`` re-routes a job
that deterministically fails or exhausts its retries through the
heuristic backend instead of failing the whole batch.  The fallback
envelope is validated against the *original* demand, carries a
runtime-only ``degraded`` provenance block naming the original backend
and the failure it papered over, and is **never** written to the result
cache — cached certified envelopes stay byte-identical whether or not
degradation was armed.  Without ``degrade`` the batch fails fast,
exactly as before.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from ..api.cache import ResultCache
from ..api.result import Result
from ..api.spec import CoverSpec
from ..core.stats import SolverStats
from ..util.errors import DegradationError
from ..util.parallel import lpt_order, resolve_workers
from .base import (
    DispatchError,
    EnvelopeError,
    Job,
    RetryPolicy,
    Transport,
    TransportOutcome,
)
from .inprocess import InProcessTransport
from .spool import SpoolTransport
from .subproc import SubprocessTransport

__all__ = [
    "DEGRADE_POLICIES",
    "DispatchReport",
    "TRANSPORTS",
    "cost_weight",
    "dispatch_batch",
    "make_transport",
]

TRANSPORTS = {
    "inproc": InProcessTransport,
    "subprocess": SubprocessTransport,
    "spool": SpoolTransport,
}


def make_transport(
    transport: Transport | str,
    *,
    spool_dir: Path | str | None = None,
    extra_env: dict[str, str] | None = None,
    lease_timeout: float | None = None,
) -> Transport:
    """Coerce the user-facing ``transport`` argument: an instance passes
    through, a registered name is constructed (``spool`` honouring
    ``spool_dir`` and ``lease_timeout``; worker-spawning transports
    honouring ``extra_env``)."""
    if isinstance(transport, Transport):
        if extra_env is not None or lease_timeout is not None:
            raise DispatchError(
                "extra_env/lease_timeout cannot be applied to a transport "
                "instance — configure the instance directly"
            )
        return transport
    try:
        cls = TRANSPORTS[transport]
    except (KeyError, TypeError):
        raise DispatchError(
            f"unknown transport {transport!r} "
            f"(available: {', '.join(TRANSPORTS)})"
        ) from None
    if cls is SpoolTransport:
        kwargs: dict = {"extra_env": extra_env}
        if lease_timeout is not None:
            kwargs["lease_timeout"] = lease_timeout
        return SpoolTransport(spool_dir, **kwargs)
    if lease_timeout is not None:
        raise DispatchError(
            f"lease_timeout only applies to the spool transport, not {transport!r}"
        )
    if cls is SubprocessTransport:
        return SubprocessTransport(extra_env=extra_env)
    if extra_env is not None:
        raise DispatchError(
            f"extra_env only applies to worker-spawning transports, not {transport!r}"
        )
    return cls()


def cost_weight(spec: CoverSpec) -> float:
    """Estimated relative cost of one job — exponential in the ring
    order, scaled by demand multiplicity (the engine's batched sweeps
    chunk by the same ``4**n`` growth law).  Only the *order* matters:
    LPT scheduling and :func:`~repro.util.parallel.weighted_chunks`
    both consume ratios, not seconds."""
    return (4.0 ** spec.n) * max(1, spec.lam)


@dataclass
class DispatchReport:
    """Everything a sweep owner wants to know beyond the envelopes."""

    results: list[Result]  # one per *non-skipped* input spec, input order
    seconds: dict[str, float]  # spec hash -> wall-clock (0.0 for cache hits)
    merged_stats: SolverStats  # SolverStats.merge in stable spec-hash order
    transport: str
    workers: int
    cached: int  # served from the ResultCache without dispatching
    resumed: int  # spool results accepted from a previous run
    retries: int
    worker_deaths: int
    quarantined: int
    skipped: list[CoverSpec] = field(default_factory=list)  # budget ran out
    preempts: int = 0  # checkpointed preempt/resume handoffs
    degraded: int = 0  # jobs re-routed through the heuristic fallback
    quarantined_workers: int = 0  # worker slots retired by the circuit breaker

    def summary(self) -> str:
        parts = [
            f"transport={self.transport}",
            f"workers={self.workers}",
            f"jobs={len(self.results)}",
            f"cached={self.cached}",
        ]
        if self.resumed:
            parts.append(f"resumed={self.resumed}")
        if self.retries or self.worker_deaths:
            parts.append(f"retries={self.retries}")
            parts.append(f"deaths={self.worker_deaths}")
        if self.quarantined:
            parts.append(f"quarantined={self.quarantined}")
        if self.quarantined_workers:
            parts.append(f"quarantined_workers={self.quarantined_workers}")
        if self.preempts:
            parts.append(f"preempts={self.preempts}")
        if self.degraded:
            parts.append(f"degraded={self.degraded}")
        if self.skipped:
            parts.append(f"skipped={len(self.skipped)}")
        return " ".join(parts)


DEGRADE_POLICIES = ("heuristic",)


def _degraded_solve(job: Job, failure: Exception) -> Result:
    """The graceful-degradation fallback: re-solve the exhausted job's
    spec through the heuristic backend (uncached, no optimality demand,
    no budgets), validate the covering against the *original* demand,
    and stamp runtime-only degradation provenance on the envelope."""
    from ..api.service import solve

    fallback_spec = replace(
        job.spec,
        backend="heuristic",
        require_optimal=False,
        node_limit=None,
        time_budget=None,
    )
    try:
        fallback = solve(fallback_spec, cache=None)
    except Exception as exc:
        raise DegradationError(
            f"heuristic fallback for job {job.spec_hash[:12]} (n={job.spec.n}) "
            f"itself failed: {exc}"
        ) from exc
    if not fallback.covering.covers(job.spec.instance()):
        raise DegradationError(
            f"heuristic fallback for job {job.spec_hash[:12]} (n={job.spec.n}) "
            "returned a non-covering"
        )
    return fallback.annotate_degraded(
        {
            "policy": "heuristic",
            "original_backend": job.spec.backend or "auto",
            "original_spec_hash": job.spec_hash,
            "reason": type(failure).__name__,
            "detail": str(failure),
        }
    )


def _check_envelope(job: Job, result: Result) -> None:
    """The dispatcher-level invariant: the envelope answers *this* spec
    and its covering meets the demand.  Failures raise
    :class:`EnvelopeError`, which queue transports convert into a retry
    on a different worker."""
    if result.spec != job.spec:
        raise EnvelopeError(
            f"worker answered spec {result.spec.spec_hash[:12]} for job "
            f"{job.spec_hash[:12]}"
        )
    if not result.covering.covers(job.spec.instance()):
        raise EnvelopeError(
            f"worker returned a non-covering for job {job.spec_hash[:12]} "
            f"(n={job.spec.n})"
        )


def dispatch_batch(
    specs: Iterable[CoverSpec],
    *,
    transport: Transport | str = "inproc",
    workers: int | None = None,
    cache: ResultCache | str | Path | None = None,
    job_timeout: float | None = None,
    max_retries: int = 2,
    order: str = "lpt",
    time_budget: float | None = None,
    spool_dir: Path | str | None = None,
    policy: RetryPolicy | None = None,
    degrade: str | None = None,
    lease_timeout: float | None = None,
    on_progress=None,
) -> DispatchReport:
    """Solve a batch of specs over a transport; see the module docstring
    for the contract.  ``order`` is ``"lpt"`` (heaviest first — minimum
    makespan) or ``"fifo"`` (caller order — what a budget-gated sweep
    that reports "skipped the tail" wants).  ``time_budget`` caps the
    batch's wall-clock: jobs not yet started when it runs out are
    returned in ``report.skipped`` instead of ``report.results``.
    ``policy`` overrides the deterministic retry/backoff/quarantine
    schedule (``max_retries`` is ignored when given).  ``degrade``
    (``None`` or ``"heuristic"``) arms the graceful-degradation fallback
    described in the module docstring.  ``lease_timeout`` tunes the
    spool transport's heartbeat-staleness reclaim window.
    ``on_progress(event, spec_hash)`` — when given — is invoked at job
    lifecycle milestones (``"cached"``, ``"solved"``, ``"degraded"``)
    so long-lived callers (the :mod:`repro.serve` job handles) can
    stream coarse progress without touching transport internals; it is
    called under the dispatcher's result lock and must not block.
    """
    specs = list(specs)
    if order not in ("lpt", "fifo"):
        raise DispatchError(f"unknown dispatch order {order!r} (lpt or fifo)")
    if degrade is not None and degrade not in DEGRADE_POLICIES:
        raise DispatchError(
            f"unknown degrade policy {degrade!r} "
            f"(available: {', '.join(DEGRADE_POLICIES)})"
        )
    start = perf_counter()
    tr = make_transport(transport, spool_dir=spool_dir, lease_timeout=lease_timeout)
    nworkers = resolve_workers(workers)
    store = ResultCache.open(cache)

    unique: dict[str, CoverSpec] = {}
    for spec in specs:
        unique.setdefault(spec.spec_hash, spec)
    if store is not None:
        # Batch-level coalescing: duplicate positions share one solve.
        store.note_coalesced(len(specs) - len(unique))

    def _progress(event: str, spec_hash: str) -> None:
        if on_progress is not None:
            on_progress(event, spec_hash)

    results: dict[str, Result] = {}
    seconds: dict[str, float] = {}
    cached = 0
    jobs: list[Job] = []
    for index, (spec_hash, spec) in enumerate(unique.items()):
        if store is not None:
            hit = store.get(spec)
            if hit is not None:
                if hit.covering.covers(spec.instance()):
                    results[spec_hash] = replace(hit, from_cache=True)
                    seconds[spec_hash] = 0.0
                    cached += 1
                    _progress("cached", spec_hash)
                    continue
                store.evict(spec)  # structurally fine, demand-invalid
        jobs.append(Job(spec=spec, weight=cost_weight(spec), index=index))

    if order == "lpt":
        jobs = [jobs[i] for i in lpt_order([job.weight for job in jobs])]

    lock = threading.Lock()

    def on_result(job: Job, result: Result, elapsed: float, worker_id: str) -> None:
        _check_envelope(job, result)
        with lock:
            results[job.spec_hash] = result
            seconds[job.spec_hash] = elapsed
            if store is not None:
                store.put(result)
            _progress("solved", job.spec_hash)

    admit = None
    if time_budget is not None:
        deadline = start + time_budget
        admit = lambda: perf_counter() < deadline  # noqa: E731

    exhausted: list[tuple[Job, Exception]] = []
    on_exhausted = None
    if degrade is not None:
        def on_exhausted(job: Job, failure: Exception) -> bool:
            with lock:
                exhausted.append((job, failure))
            return True

    if jobs:
        outcome = tr.run(
            jobs,
            workers=nworkers,
            job_timeout=job_timeout,
            max_retries=max_retries,
            on_result=on_result,
            admit=admit,
            policy=policy,
            on_exhausted=on_exhausted,
        )
    else:
        outcome = TransportOutcome()

    for job, failure in exhausted:
        t0 = perf_counter()
        fallback = _degraded_solve(job, failure)
        with lock:
            # Stored under the ORIGINAL spec hash (the caller asked for
            # that spec) and never written to the certified cache.
            results[job.spec_hash] = fallback
            seconds[job.spec_hash] = perf_counter() - t0
            _progress("degraded", job.spec_hash)

    skipped_jobs = sorted(outcome.skipped, key=lambda job: job.index)
    skipped_hashes = {job.spec_hash for job in skipped_jobs}
    ordered: list[Result] = []
    for spec in specs:
        if spec.spec_hash in results:
            ordered.append(results[spec.spec_hash])
        elif spec.spec_hash not in skipped_hashes:
            raise DispatchError(
                f"transport {tr.name!r} returned no envelope for spec "
                f"{spec.spec_hash[:12]} (n={spec.n})"
            )
    merged = SolverStats.merge(
        [results[spec_hash].stats for spec_hash in sorted(results)]
    )
    return DispatchReport(
        results=ordered,
        seconds=seconds,
        merged_stats=merged,
        transport=tr.name,
        workers=nworkers,
        cached=cached,
        resumed=outcome.resumed,
        retries=outcome.retries,
        worker_deaths=outcome.worker_deaths,
        quarantined=outcome.quarantined,
        preempts=outcome.preempts,
        degraded=len(outcome.degraded),
        quarantined_workers=outcome.quarantined_workers,
        skipped=[job.spec for job in skipped_jobs],
    )
