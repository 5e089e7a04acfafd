"""Transport contract for the distributed CoverSpec dispatcher.

A :class:`Transport` executes a batch of :class:`Job`\\ s — each one a
serialized :class:`~repro.api.spec.CoverSpec` — and reports every
completed :class:`~repro.api.result.Result` envelope back through a
callback.  The *dispatcher* (:mod:`repro.dispatch.dispatcher`) owns
everything above that line: cost-weighted scheduling order, cache
resume and write-through, envelope validation, deterministic merge.
The transport owns everything below it: where the worker runs and how
the canonical spec JSON reaches it.

Three transports ship (each in its own module):

``inproc``
    A thin wrapper over :func:`repro.util.parallel.parallel_map` —
    the jobs fan out across a local process pool in weight-balanced
    bins, exactly like an in-process sharded sweep.
``subprocess``
    A pool of ``python -m repro worker`` processes fed spec-JSON jobs
    over stdin and read line-delimited ``Result`` envelopes back —
    the single-machine fleet shape, and the one the chaos tests kill
    mid-job.
``spool``
    A shared spool directory of ``<spec-hash>.json`` job files and
    ``<spec-hash>.result.json`` answers, claimed by atomic rename —
    suitable for many machines sharing a filesystem.

The ``subprocess`` transport runs on :class:`QueueRunner`: a deque
drained in the dispatcher's order, per-job wall-clock deadlines, and
*retry-with-exclusion* — a job whose worker dies is re-queued with the
dead worker's id excluded, so the retry lands elsewhere, and a job that
outlives the retry budget fails the whole dispatch loudly instead of
spinning.  ``spool`` keeps its queue in files but charges retries
through the same :func:`give_up_or_back_off`.

Retry *timing* is governed by :class:`RetryPolicy` — a seed-free,
fully deterministic capped exponential backoff shared by every
transport: the k-th retry of a job becomes eligible only
``policy.delay(k)`` seconds after the failure, so a flaky fleet stops
hammering itself.  The policy also carries the circuit breaker: a
worker *slot* whose workers crash ``quarantine_after`` times in a row
is quarantined (stops being refilled) while other slots remain,
instead of respawning a doomed worker forever.

``on_exhausted`` is the graceful-degradation hook: when a job fails
deterministically or runs out of retries, the transport first offers
it to this callback — the dispatcher uses it to re-route exact jobs
through the heuristic backend under ``degrade="heuristic"`` — and only
fails the batch if the callback declines.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from time import perf_counter

from ..api.result import Result
from ..api.spec import CoverSpec
from ..util.errors import ReproError

__all__ = [
    "DispatchError",
    "EnvelopeError",
    "Job",
    "JobError",
    "QueueRunner",
    "QueueWorker",
    "RetryPolicy",
    "Transport",
    "TransportOutcome",
    "WorkerDeath",
    "WorkerPreempted",
    "give_up_or_back_off",
]


class DispatchError(ReproError, RuntimeError):
    """The dispatcher could not complete the batch."""


class JobError(DispatchError):
    """A job failed *deterministically* on a healthy worker (solver or
    routing error) — retrying elsewhere cannot help, so the dispatch
    fails fast instead of burning retries."""


class EnvelopeError(DispatchError):
    """A worker returned an envelope that fails validation (wrong spec,
    non-covering blocks).  Raised by the dispatcher's result callback;
    queue transports treat it like a worker death and retry the job on
    a different worker."""


class WorkerDeath(ReproError, RuntimeError):
    """A worker stopped responding mid-job (crash, kill, or deadline).

    Not a :class:`DispatchError`: death is *retryable* — the runner
    re-queues the job with this worker excluded.
    """

    def __init__(self, message: str, *, timed_out: bool = False) -> None:
        super().__init__(message)
        self.timed_out = timed_out


class WorkerPreempted(ReproError, RuntimeError):
    """A worker hit its preemption deadline mid-proof and flushed a
    resumable checkpoint before exiting.

    Neither a death nor a failure: the runner re-queues the job at the
    front *with its checkpoint attached* and no exclusion or retry
    charge — the next worker resumes the proof where this one left off.
    """

    def __init__(
        self,
        message: str,
        *,
        spec_hash: str | None = None,
        checkpoint: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.spec_hash = spec_hash
        self.checkpoint = checkpoint


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry timing plus the worker circuit breaker.

    The backoff schedule is seed-free and pure: retry ``k`` of any job
    waits exactly ``min(max_delay, base_delay * factor**(k-1))``
    seconds — the same numbers on every machine, every run — so chaos
    tests and CI byte-identity never depend on retry timing randomness.
    ``quarantine_after`` is the circuit breaker: a worker slot whose
    workers crash that many times consecutively stops being refilled
    (while at least one other slot remains to drain the queue).
    """

    max_retries: int = 2
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    quarantine_after: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise DispatchError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise DispatchError("retry delays must be non-negative")
        if self.factor < 1.0:
            raise DispatchError(
                f"backoff factor must be >= 1 (monotone schedule), got {self.factor}"
            )
        if self.quarantine_after < 1:
            raise DispatchError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based);
        attempt 0 — the first dispatch — never waits."""
        if attempt <= 0:
            return 0.0
        return min(self.max_delay, self.base_delay * self.factor ** (attempt - 1))

    def schedule(self, attempts: int | None = None) -> tuple[float, ...]:
        """The full backoff schedule for ``attempts`` retries (default:
        ``max_retries``) — deterministic, monotone non-decreasing,
        capped at ``max_delay``."""
        count = self.max_retries if attempts is None else attempts
        return tuple(self.delay(k) for k in range(1, count + 1))


@dataclass
class Job:
    """One unit of dispatch: a spec, its cost weight, and its retry
    history (the worker ids it must not run on again)."""

    spec: CoverSpec
    weight: float
    index: int  # position among the batch's unique specs (FIFO order)
    attempts: int = 0
    excluded: tuple[str, ...] = ()
    # Serialized SearchCheckpoint payload carried from a preempted
    # worker to whichever worker resumes the job.
    checkpoint: dict | None = None
    preempts: int = 0
    # Backoff gate (a perf_counter timestamp): the job is not eligible
    # for claiming before this moment.  Set by the retry machinery from
    # the RetryPolicy schedule.
    not_before: float = 0.0

    @property
    def spec_hash(self) -> str:
        return self.spec.spec_hash


# on_result(job, result, elapsed_seconds, worker_id); raises
# EnvelopeError when the envelope fails validation.
OnResult = Callable[[Job, Result, float, str], None]
# admit() -> False once the sweep budget is exhausted: jobs not yet
# started are reported as skipped instead of run.
Admit = Callable[[], bool]
# on_exhausted(job, failure) -> True to absorb a job that failed
# deterministically or ran out of retries (graceful degradation);
# False lets the transport fail the batch as before.
OnExhausted = Callable[[Job, Exception], bool]


@dataclass
class TransportOutcome:
    """What a transport reports back beside the per-job callbacks."""

    skipped: list[Job] = field(default_factory=list)
    retries: int = 0
    worker_deaths: int = 0
    quarantined: int = 0  # corrupt spool results deleted and re-dispatched
    resumed: int = 0  # valid spool results accepted without re-solving
    preempts: int = 0  # checkpointed preempt/resume handoffs
    quarantined_workers: int = 0  # slots tripped by the crash circuit breaker
    degraded: list[Job] = field(default_factory=list)  # absorbed by on_exhausted


def give_up_or_back_off(
    job: Job,
    policy: RetryPolicy,
    outcome: TransportOutcome,
    exhausted: Callable[[], DispatchError],
    absorb: Callable[[Job, Exception], bool],
) -> float | None:
    """The retry rule every queue transport shares: charge ``job`` one
    attempt.  Past ``policy.max_retries`` the ``exhausted()`` failure is
    offered to ``absorb`` (the transport's ``on_exhausted`` wrapper):
    ``None`` when absorbed, raised when not.  Otherwise the retry is
    counted and its backoff delay returned — the job must sit out that
    many seconds before any worker may take it."""
    job.attempts += 1
    if job.attempts > policy.max_retries:
        failure = exhausted()
        if absorb(job, failure):
            return None
        raise failure
    outcome.retries += 1
    return policy.delay(job.attempts)


class Transport(ABC):
    """Executes jobs somewhere and reports envelopes back."""

    name: str = "?"

    @abstractmethod
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
        """Execute ``jobs`` (already in schedule order) on ``workers``
        workers, calling ``on_result`` as each envelope arrives.
        ``policy`` overrides the default ``RetryPolicy`` built from
        ``max_retries``; ``on_exhausted`` may absorb jobs that fail
        deterministically or exhaust their retries."""


class QueueWorker(ABC):
    """One executor usable by :class:`QueueRunner` — owns a single
    remote worker and turns one spec into one envelope at a time."""

    id: str

    @abstractmethod
    def solve(
        self,
        spec: CoverSpec,
        timeout: float | None,
        checkpoint: dict | None = None,
    ) -> Result:
        """Run one job, optionally resuming from a serialized search
        ``checkpoint``.  Raises :class:`WorkerDeath` when the worker
        stops responding (retryable), :class:`WorkerPreempted` when it
        flushed a checkpoint and bowed out (resumable), and
        :class:`JobError` when the job itself fails deterministically
        (fatal)."""

    @abstractmethod
    def close(self) -> None:
        """Release the worker (reap the process)."""


class QueueRunner:
    """The shared scheduling core for worker-pool transports.

    One thread per worker slot drains a shared deque (kept in the
    dispatcher's schedule order).  A worker death re-queues the job at
    the *front* (it was the heaviest eligible job) with the dead worker
    excluded and a :class:`RetryPolicy` backoff gate, replaces the
    worker, and keeps going; the job fails the dispatch only after
    dying on ``policy.max_retries + 1`` distinct workers.  A slot whose
    workers crash ``policy.quarantine_after`` times consecutively is
    quarantined (the thread exits without a replacement) while other
    slots remain; a global death cap backstops crash-on-start loops.
    """

    def __init__(
        self,
        make_worker: Callable[[], QueueWorker],
        jobs: Sequence[Job],
        *,
        workers: int,
        job_timeout: float | None,
        max_retries: int = 2,
        on_result: OnResult,
        admit: Admit | None = None,
        policy: RetryPolicy | None = None,
        on_exhausted: OnExhausted | None = None,
    ) -> None:
        self.make_worker = make_worker
        self.pending: deque[Job] = deque(jobs)
        self.workers = max(1, min(workers, max(1, len(jobs))))
        self.job_timeout = job_timeout
        self.policy = policy if policy is not None else RetryPolicy(max_retries=max_retries)
        self.on_result = on_result
        self.admit = admit
        self.on_exhausted = on_exhausted
        self.outcome = TransportOutcome()
        self.in_flight = 0
        self.live_slots = self.workers
        self.failure: Exception | None = None
        self.cond = threading.Condition()
        self.death_cap = max(4, 2 * len(jobs))
        self.preempt_cap = 100  # per job; engine guarantees progress per cycle

    # -- driving ---------------------------------------------------------

    def run(self) -> TransportOutcome:
        threads = [
            threading.Thread(target=self._drive, daemon=True, name=f"dispatch-{i}")
            for i in range(self.workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if self.failure is not None:
            raise self.failure
        return self.outcome

    def _drive(self) -> None:
        worker: QueueWorker | None = None
        crashes = 0  # consecutive worker deaths on THIS slot
        quarantined = False  # this slot already left live_slots
        try:
            worker = self.make_worker()
            while True:
                job = self._claim(worker.id)
                if job is None:
                    return
                t0 = perf_counter()
                try:
                    result = worker.solve(
                        job.spec, self.job_timeout, checkpoint=job.checkpoint
                    )
                    self.on_result(job, result, perf_counter() - t0, worker.id)
                except WorkerPreempted as pre:
                    # Not a death: the worker flushed a resumable
                    # checkpoint and exited cleanly.  Hand the proof to
                    # a fresh worker — no exclusion, no retry charge.
                    self._close_quietly(worker)
                    self._repreempt(job, pre)
                    worker = self.make_worker()
                    continue
                except JobError as exc:
                    # Deterministic failure on a healthy worker: offer
                    # the job to the degradation hook; without one (or
                    # if it declines) the batch fails fast, as ever.
                    if not self._absorb_exhausted(job, exc):
                        raise
                    self._done()
                    continue
                except (WorkerDeath, EnvelopeError) as death:
                    # Both mean "this worker cannot be trusted with this
                    # job": retry elsewhere, replace the worker.
                    self._close_quietly(worker)
                    self._requeue(job, worker.id, death)
                    crashes += 1
                    if crashes >= self.policy.quarantine_after and self._quarantine_slot():
                        quarantined = True
                        worker = None
                        return
                    worker = self.make_worker()
                    continue
                crashes = 0
                self._done()
        except Exception as exc:  # JobError, spawn failure, callback bugs
            self._fail(exc)
        finally:
            if not quarantined:
                with self.cond:
                    self.live_slots -= 1
                    self.cond.notify_all()
            if worker is not None:
                self._close_quietly(worker)

    # -- queue bookkeeping (all under self.cond) -------------------------

    def _claim(self, worker_id: str) -> Job | None:
        with self.cond:
            while True:
                if self.failure is not None:
                    return None
                if self.admit is not None and self.pending and not self.admit():
                    self.outcome.skipped.extend(self.pending)
                    self.pending.clear()
                    self.cond.notify_all()
                now = perf_counter()
                for i, job in enumerate(self.pending):
                    if worker_id not in job.excluded and job.not_before <= now:
                        del self.pending[i]
                        self.in_flight += 1
                        return job
                if not self.pending and self.in_flight == 0:
                    return None
                # Pending jobs exist but all exclude this worker or are
                # still inside their backoff window, or retries may yet
                # arrive from in-flight jobs.
                self.cond.wait(0.05)

    def _repreempt(self, job: Job, pre: WorkerPreempted) -> None:
        with self.cond:
            self.in_flight -= 1
            self.outcome.preempts += 1
            job.preempts += 1
            if pre.checkpoint is not None:
                job.checkpoint = pre.checkpoint
            if job.preempts > self.preempt_cap:
                # The engine guarantees forward progress per resume
                # cycle, so this only trips on a misconfigured
                # (absurdly short) preemption deadline.
                self.failure = DispatchError(
                    f"job {job.spec_hash[:12]} (n={job.spec.n}) preempted "
                    f"{job.preempts} times without completing — preemption "
                    f"deadline too short to make progress"
                )
            else:
                self.pending.appendleft(job)
            self.cond.notify_all()

    def _requeue(self, job: Job, worker_id: str, death: Exception) -> None:
        """Retry a dead worker's job; raises if it is exhausted and not absorbed."""
        with self.cond:
            self.in_flight -= 1
            self.outcome.worker_deaths += 1
            job.excluded = job.excluded + (worker_id,)
            # Waiters wake only once this block releases the lock, so
            # one notify covers every exit below.
            self.cond.notify_all()
            delay = give_up_or_back_off(
                job,
                self.policy,
                self.outcome,
                lambda: DispatchError(
                    f"job {job.spec_hash[:12]} (n={job.spec.n}) died on "
                    f"{job.attempts} distinct workers; last: {death}"
                ),
                self._absorb_locked,
            )
            if delay is None:
                return
            if self.outcome.worker_deaths > self.death_cap:
                raise DispatchError(
                    f"{self.outcome.worker_deaths} worker deaths across the "
                    f"batch — transport looks unhealthy; last: {death}"
                )
            # The retry sits out its backoff window before any slot may
            # claim it.
            job.not_before = perf_counter() + delay
            self.pending.appendleft(job)

    def _quarantine_slot(self) -> bool:
        """The circuit breaker: retire this slot (its workers keep
        crashing) when at least one other slot stays live to drain the
        queue.  Returns False — keep respawning — for the last slot.
        Atomically leaves ``live_slots`` on success, so two slots
        racing here can never both retire past the floor."""
        with self.cond:
            if self.live_slots <= 1:
                return False
            self.live_slots -= 1
            self.outcome.quarantined_workers += 1
            self.cond.notify_all()
            return True

    def _absorb_exhausted(self, job: Job, failure: Exception) -> bool:
        with self.cond:
            return self._absorb_locked(job, failure)

    def _absorb_locked(self, job: Job, failure: Exception) -> bool:
        """Offer a dead-end job to the degradation hook (caller holds
        ``self.cond``).  True when the hook absorbed it — the batch
        continues without an envelope for this job."""
        if self.on_exhausted is None or not self.on_exhausted(job, failure):
            return False
        self.outcome.degraded.append(job)
        return True

    def _done(self) -> None:
        with self.cond:
            self.in_flight -= 1
            self.cond.notify_all()

    def _fail(self, exc: Exception) -> None:
        with self.cond:
            if self.failure is None:
                self.failure = exc
            self.cond.notify_all()

    @staticmethod
    def _close_quietly(worker: QueueWorker) -> None:
        try:
            worker.close()
        except Exception:
            pass
