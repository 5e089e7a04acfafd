"""The HTTP-free heart of ``repro.serve``: :class:`SolverService`.

Everything the HTTP layer does — submit, poll, stream, report — is a
thin translation onto this object, so the whole serving story (request
coalescing, admission, the persistent ledger, checkpoint resume,
progress fan-out) is testable without opening a socket.

The flow of one submission::

    payload ──► CoverSpec.from_payload ──► spec hash
        │
        ├── ResultCache hit ───────────────► the exact cached envelope
        ├── terminal ledger row ───────────► the exact recorded envelope
        ├── pending/running ledger row ────► coalesce onto the job handle
        ├── admission refuses ─────────────► busy + Retry-After
        └── otherwise ─────────────────────► new pending row, queued

Solves run on worker threads through the very same
:func:`repro.api.solve` path the CLI uses — same cache handle, same
:class:`~repro.api.checkpoints.CheckpointStore`, same validation — so
served envelopes are byte-identical to offline ones by construction.
A preempted proof (drain request, ``preempt_after`` budget, or the test
``poll_hook``) flushes its checkpoint, goes back to ``pending`` in the
ledger, and the *next* service pointed at the same directories resumes
it mid-proof via :meth:`recover`.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from pathlib import Path

from ..api.cache import ResultCache
from ..api.checkpoints import CheckpointStore, budget_preempt
from ..api.result import (
    DEGRADE_PROVENANCE_KEY,
    RESUME_PROVENANCE_KEY,
    Result,
)
from ..api.service import _validate, solve
from ..api.spec import CoverSpec
from ..util.errors import InvalidCoveringError, SolverPreempted
from .admission import AdmissionController
from .coalesce import Coalescer, ProgressBroker
from .ledger import JobLedger, JobRow

__all__ = ["SolverService"]


class SolverService:
    """A long-lived solver with a job queue, shared by many clients.

    ``ledger_dir`` anchors the persistent state: ``jobs.sqlite3`` (the
    :class:`~repro.serve.ledger.JobLedger`) and ``checkpoints/`` (the
    :class:`~repro.api.checkpoints.CheckpointStore`).  Point a new
    service at an old directory and :meth:`start` resumes whatever the
    previous life left unfinished.

    ``transport``/``degrade`` route execution: the default (``None``)
    solves in-process through :func:`repro.api.solve` with live
    progress and checkpoint resume; naming a dispatcher transport (or
    arming ``degrade``) rides :func:`repro.dispatch.dispatch_batch`
    instead — job-milestone progress only, but subprocess isolation and
    the heuristic fallback.

    ``preempt_after`` (``("nodes", x)`` or ``("seconds", x)``) arms a
    self-drain budget *per proof slice*, continuing from the resumed
    checkpoint's node floor exactly like the CLI's ``--preempt-after``;
    ``poll_hook(spec_hash, stats)`` is a synchronous test seam polled
    with live engine stats — returning truthy preempts, deterministic
    to the node.
    """

    def __init__(
        self,
        ledger_dir: Path | str,
        *,
        cache: ResultCache | Path | str | None = None,
        workers: int = 1,
        transport: str | None = None,
        degrade: str | None = None,
        max_inflight_weight: float | None = None,
        checkpoint_every: int | None = 256,
        preempt_after: tuple[str, float] | None = None,
        poll_hook=None,
    ) -> None:
        self.ledger_dir = Path(ledger_dir)
        self.ledger = JobLedger(self.ledger_dir / "jobs.sqlite3")
        self.checkpoints = CheckpointStore(self.ledger_dir / "checkpoints")
        self.cache = ResultCache.open(cache)
        self.workers = max(1, workers)
        self.transport = transport if transport != "inproc" else None
        self.degrade = degrade
        self.checkpoint_every = checkpoint_every
        self.preempt_after = preempt_after
        self.poll_hook = poll_hook

        self.coalescer = Coalescer()
        self.broker = ProgressBroker()
        self.admission = AdmissionController(max_inflight_weight)

        self._queue: "queue.Queue[str]" = queue.Queue()
        self._submit_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._drain = threading.Event()
        self.stopped = threading.Event()  # all workers exited

        self.started_at = time.time()
        self.solves = 0  # engine runs (cache hits and coalesces excluded)
        self.resumed = 0  # solves that continued a prior checkpoint
        self.preempted = False  # a proof was checkpoint-requeued this life

    # -- lifecycle -------------------------------------------------------

    def start(self) -> int:
        """Recover unfinished ledger rows into the queue, then spawn the
        worker threads.  Returns how many jobs were recovered."""
        recovered = self.recover()
        for i in range(self.workers):
            t = threading.Thread(
                target=self._worker, name=f"serve-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)
        return recovered

    def recover(self) -> int:
        """Re-queue every non-terminal ledger row (flipping stale
        ``running`` rows — a dead server's — back to ``pending``).
        Idempotent: rows already claimed in this life are skipped."""
        self.ledger.recover()
        requeued = 0
        for row in self.ledger.unfinished():
            if not self.coalescer.claim(row.spec_hash):
                continue  # already queued in this life
            spec = CoverSpec.from_payload(json.loads(row.spec_json))
            self.admission.force_admit(spec)
            self._queue.put(row.spec_hash)
            requeued += 1
        return requeued

    def request_drain(self) -> None:
        """Graceful stop: active proofs preempt at their next engine
        poll (flushing checkpoints and returning to ``pending``), idle
        workers exit.  Non-blocking; wait on :attr:`stopped`."""
        self._drain.set()
        self._stop.set()

    def shutdown(self, timeout: float = 30.0) -> None:
        """Drain, join the workers, close the ledger."""
        self.request_drain()
        for t in self._threads:
            t.join(timeout=timeout)
        self.stopped.set()
        self.ledger.close()

    # -- submission ------------------------------------------------------

    def submit(self, payload) -> tuple[str, object]:
        """One client submission.  Returns a tagged disposition:

        * ``("result", envelope_json)`` — answered immediately, the
          exact byte-identical envelope (cache or ledger replay);
        * ``("job", job_doc)`` — accepted (or coalesced onto an
          in-flight job); poll/stream the handle;
        * ``("busy", retry_after_seconds)`` — admission refused.

        Spec validation errors propagate (:class:`SpecError` etc.) for
        the transport layer to turn into a 400.
        """
        spec = (
            payload
            if isinstance(payload, CoverSpec)
            else CoverSpec.from_payload(payload)
        )
        spec_hash = spec.spec_hash

        if self.cache is not None:
            hit = self.cache.get(spec)
            if hit is not None:
                try:
                    _validate(hit)
                except InvalidCoveringError:
                    self.cache.evict(spec)
                else:
                    return ("result", hit.to_json())

        with self._submit_lock:
            row = self.ledger.get(spec_hash)
            if row is not None and row.state in ("done", "degraded"):
                return ("result", row.result_json)
            if row is not None and row.state in ("pending", "running"):
                # Coalesce: the in-flight solve answers this client too.
                self.coalescer.note()
                if self.cache is not None:
                    self.cache.note_coalesced()
                return ("job", self._job_doc(row))

            admitted, retry_after = self.admission.try_admit(spec)
            if not admitted:
                return ("busy", retry_after)
            if row is not None:  # failed → explicit resubmit
                row = self.ledger.requeue(spec_hash)
            else:
                row = self.ledger.submit(spec_hash, spec.to_json())
            self.coalescer.claim(spec_hash)
            self._queue.put(spec_hash)
            return ("job", self._job_doc(row))

    # -- introspection ---------------------------------------------------

    def job(self, spec_hash: str) -> JobRow | None:
        return self.ledger.get(spec_hash)

    def job_doc(self, spec_hash: str) -> dict | None:
        row = self.ledger.get(spec_hash)
        return self._job_doc(row) if row is not None else None

    def _job_doc(self, row: JobRow) -> dict:
        doc = {
            "format": "repro-serve-job",
            "job": row.spec_hash,
            "state": row.state,
            "attempts": row.attempts,
            "created_at": row.created_at,
            "started_at": row.started_at,
            "finished_at": row.finished_at,
            "links": {
                "self": f"/v1/jobs/{row.spec_hash}",
                "events": f"/v1/jobs/{row.spec_hash}/events",
                "result": f"/v1/jobs/{row.spec_hash}/result",
            },
        }
        if row.error:
            doc["error"] = row.error
        return doc

    def stats(self) -> dict:
        doc = {
            "format": "repro-serve-stats",
            "uptime_s": time.time() - self.started_at,
            "queue_depth": self._queue.qsize(),
            "inflight": self.coalescer.inflight(),
            "coalesced": self.coalescer.coalesced,
            "solves": self.solves,
            "resumed": self.resumed,
            "admission": self.admission.snapshot(),
            "jobs": self.ledger.counts(),
        }
        doc["cache"] = self.cache.stats() if self.cache is not None else None
        return doc

    # -- the solve loop --------------------------------------------------

    def _worker(self) -> None:
        try:
            while not self._stop.is_set():
                try:
                    spec_hash = self._queue.get(timeout=0.1)
                except queue.Empty:
                    continue
                self._run_job(spec_hash)
        finally:
            if all(
                not t.is_alive() for t in self._threads if t is not threading.current_thread()
            ):
                self.stopped.set()

    def _run_job(self, spec_hash: str) -> None:
        row = self.ledger.get(spec_hash)
        if row is None or row.state != "pending":
            return  # stale queue entry (already served or resubmitted)
        spec = CoverSpec.from_payload(json.loads(row.spec_json))
        self.ledger.mark_running(spec_hash)
        self.broker.publish(spec_hash, {"event": "state", "state": "running"})
        try:
            result = self._solve_one(spec_hash, spec)
        except SolverPreempted:
            # Checkpoint already flushed by the backend; back to pending
            # for the next life (or a later drain-free restart).
            self.ledger.requeue(spec_hash)
            ckpt = self.checkpoints.load(spec_hash)
            self.broker.publish_terminal(
                spec_hash,
                {
                    "event": "state",
                    "state": "pending",
                    "preempted": True,
                    "checkpoint_nodes": ckpt.nodes if ckpt else None,
                },
            )
            with self._counter_lock:
                self.preempted = True
            # A served preemption is always a drain: budget exhausted
            # (--preempt-after) or an explicit stop — either way this
            # life is done with the proof.
            self.request_drain()
        except Exception as exc:  # noqa: BLE001 — any failure -> failed row
            self.ledger.mark_failed(spec_hash, f"{type(exc).__name__}: {exc}")
            self.broker.publish_terminal(
                spec_hash,
                {"event": "state", "state": "failed", "error": str(exc)},
            )
        else:
            provenance = result.provenance or {}
            degraded = DEGRADE_PROVENANCE_KEY in provenance
            with self._counter_lock:
                if not result.from_cache:
                    self.solves += 1
                if RESUME_PROVENANCE_KEY in provenance:
                    self.resumed += 1
            self.ledger.mark_done(spec_hash, result.to_json(), degraded=degraded)
            self.broker.publish_terminal(
                spec_hash,
                {"event": "state", "state": "degraded" if degraded else "done"},
            )
        finally:
            self.coalescer.release(spec_hash)
            self.admission.release(spec)

    def _solve_one(self, spec_hash: str, spec: CoverSpec) -> Result:
        budget = budget_preempt(self.preempt_after, self.checkpoints.load(spec_hash))

        def preempt(stats) -> bool:
            if self._drain.is_set():
                return True
            if budget is not None and budget(stats):
                return True
            if self.poll_hook is not None and self.poll_hook(spec_hash, stats):
                return True
            return False

        def on_progress(stats) -> None:
            self.broker.publish(
                spec_hash,
                {
                    "event": "progress",
                    "nodes": stats.nodes,
                    "best_value": stats.best_value,
                },
            )

        if self.transport is None and self.degrade is None:
            return solve(
                spec,
                cache=self.cache,
                checkpoints=self.checkpoints,
                checkpoint_every=self.checkpoint_every,
                preempt=preempt,
                on_progress=on_progress,
            )

        # Dispatcher path: subprocess isolation and/or graceful
        # degradation.  Progress is job-milestone granular (workers
        # own their engines); preemption applies between jobs only.
        from ..dispatch import dispatch_batch

        report = dispatch_batch(
            [spec],
            transport=self.transport or "inproc",
            workers=1,
            cache=self.cache,
            degrade=self.degrade,
            on_progress=lambda event, h: self.broker.publish(
                h, {"event": "progress", "milestone": event}
            ),
        )
        return report.results[0]
