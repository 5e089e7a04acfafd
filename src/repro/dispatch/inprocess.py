"""In-process transport: a thin wrapper over :mod:`repro.util.parallel`.

With one worker the jobs run serially in schedule order — this is the
only transport that honours the sweep-budget ``admit`` gate *between*
jobs, which is what E10's ``time_budget`` semantics need.  With more
workers the batch fans out through
:func:`~repro.util.parallel.parallel_map` in weight-balanced LPT bins
(:func:`~repro.util.parallel.weighted_chunks`), exactly like the
engine's own batched sweeps.

No retries and no per-job deadlines here: the pool is this process's
children and :class:`ProcessPoolExecutor` already surfaces their
failures as exceptions.  The ``on_exhausted`` degradation hook *is*
honoured — a deterministically failing job (routing error, oversized
exact instance) is offered to it instead of aborting the batch, so
``degrade="heuristic"`` works identically on every transport.  Per-job
seconds are exact on the serial path; on the pooled path every job
reports the batch's wall-clock (the pool does not expose per-item
timings).
"""

from __future__ import annotations

from collections.abc import Sequence
from time import perf_counter

from ..api.result import Result
from ..api.spec import CoverSpec
from ..util.errors import ReproError
from ..util.parallel import parallel_map, resolve_workers
from .base import (
    Admit,
    Job,
    OnExhausted,
    OnResult,
    RetryPolicy,
    Transport,
    TransportOutcome,
)

__all__ = ["InProcessTransport"]


def _solve_in_process(spec: CoverSpec) -> Result:
    """Module-level (picklable) worker body: one uncached solve."""
    from ..api.service import solve

    return solve(spec, cache=None)


def _solve_capturing(spec: CoverSpec):
    """Picklable pooled-path body: solver failures come back as values
    instead of poisoning the pool."""
    try:
        return ("ok", _solve_in_process(spec))
    except ReproError as exc:
        return ("err", exc)


class InProcessTransport(Transport):
    name = "inproc"

    def run(
        self,
        jobs: Sequence[Job],
        *,
        workers: int,
        job_timeout: float | None,
        max_retries: int,
        on_result: OnResult,
        admit: Admit | None = None,
        policy: RetryPolicy | None = None,
        on_exhausted: OnExhausted | None = None,
    ) -> TransportOutcome:
        outcome = TransportOutcome()
        nworkers = resolve_workers(workers)
        if nworkers == 1:
            for pos, job in enumerate(jobs):
                if admit is not None and not admit():
                    outcome.skipped.extend(jobs[pos:])
                    break
                t0 = perf_counter()
                try:
                    result = _solve_in_process(job.spec)
                except ReproError as exc:
                    if on_exhausted is not None and on_exhausted(job, exc):
                        outcome.degraded.append(job)
                        continue
                    raise
                on_result(job, result, perf_counter() - t0, "local")
            return outcome
        if admit is not None and not admit():
            outcome.skipped.extend(jobs)
            return outcome
        t0 = perf_counter()
        captured = parallel_map(
            _solve_capturing,
            [job.spec for job in jobs],
            workers=nworkers,
            weights=[job.weight for job in jobs],
        )
        elapsed = perf_counter() - t0
        for job, (tag, value) in zip(jobs, captured):
            if tag == "ok":
                on_result(job, value, elapsed, "pool")
            elif on_exhausted is not None and on_exhausted(job, value):
                outcome.degraded.append(job)
            else:
                raise value  # the first failure in job order
        return outcome
