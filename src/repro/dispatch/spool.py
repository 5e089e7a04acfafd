"""File-queue transport: a spool directory shared by many machines.

Layout (everything under one ``root`` on a shared filesystem)::

    root/jobs/<seq>-<spec-hash>.json     job documents (spec + retry state)
    root/claims/<spec-hash>.<wid>.json   a worker's in-progress claim
    root/leases/<spec-hash>.<wid>.json   the claim's heartbeat lease
    root/results/<spec-hash>.result.json finished Result envelopes
    root/checkpoints/<spec-hash>.ckpt.json  resumable mid-proof state
    root/STOP                            shuts polling workers down

The dispatcher writes every job document up front — the ``<seq>``
filename prefix is its schedule position, so workers draining the
directory in sorted order execute the dispatcher's LPT heaviest-first
plan — optionally spawns local ``python -m repro worker --spool root``
processes, and then polls ``results/``.  Workers claim jobs by atomic
rename (``jobs/ → claims/``), so exactly one worker owns a job at a
time, and write results atomically (temp + rename), so a result file
that *exists* is complete — any unparsable result is therefore
corruption (a worker crashed around the rename, a disk hiccup, a hand
edit) and is quarantined: deleted, counted, and the job re-dispatched,
mirroring the result cache's recovery contract.

Reclaim is driven by **heartbeat leases**, not deadlines.  A worker
writes ``leases/<hash>.<wid>.json`` just before its claim rename (so a
claim is never visible without its lease) and renews it (a
monotone ``beat`` counter, bumped at most every ``heartbeat_every``
seconds, piggybacked on the engine's preempt polls) for as long as the
proof advances.  The dispatcher tracks each claim's beat against its
*local* clock — only beat changes cross the filesystem, so clock skew
between machines is irrelevant — and :func:`watch_claim` reopens a
claim in exactly two cases:

* the claimer is a locally-spawned process that has exited (immediate);
* the claimer's beat has not moved for ``lease_timeout`` seconds,
  counted from when the dispatcher first saw that claimer (crash on a
  remote machine, stall, SIGSTOP past the lease window, dropped
  heartbeats).  A claim with no readable lease is a beat that never
  moved.

A slow worker whose lease keeps renewing is **never** reclaimed, however
long it runs; ``job_timeout`` is the ``subprocess`` transport's
deadline and plays no part here.  A reclaimed job's still-running
straggler may yet write its (identical, atomic) envelope; that is
benign.

Retry timing follows the shared :class:`~repro.dispatch.base.RetryPolicy`:
a failed job sits out its deterministic capped-exponential backoff
window before its document is re-written (retry-with-exclusion through
the document's ``excluded`` list, as ever).  Spawned workers that keep
dying are respawned with a per-slot circuit breaker — a slot that
crashes ``policy.quarantine_after`` times is retired while other slots
remain — and workers that die *before* claiming anything trip a global
respawn cap instead of respawning forever.  ``on_exhausted`` offers
deterministic failures and retry-exhausted jobs to the dispatcher's
degradation hook before failing the batch.

Each poll tick does O(jobs + procs) work: the results, claims and
leases directories are listed/read once per tick and the dead-process
set computed once, then every pending job is matched in memory — the
metadata traffic a shared NFS spool actually cares about.  An idle
tick backs the poll interval off toward a cap (reset on any progress),
so a drained-but-waiting dispatcher stops spinning.

Resume comes free: a valid ``results/`` entry present before dispatch
(from a crashed earlier sweep, or from workers on other machines) is
accepted without re-solving.  Mid-proof resume comes almost as free:
workers checkpoint their search into ``checkpoints/`` as they go, so
when a stale claim is reclaimed after a worker death the retry *resumes
the proof from the dead worker's last flush* instead of restarting —
the reclaim machinery itself is unchanged, because the replacement
worker finds the checkpoint under the same spec hash.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import tempfile
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from ..api.result import Result
from .base import (
    Admit,
    DispatchError,
    EnvelopeError,
    Job,
    JobError,
    OnExhausted,
    OnResult,
    RetryPolicy,
    Transport,
    TransportOutcome,
    give_up_or_back_off,
)
from .subproc import worker_command, worker_env
from .worker import (
    HEARTBEAT_EVERY_DEFAULT,
    SPOOL_ERROR_FORMAT,
    SPOOL_JOB_FORMAT,
    _atomic_write,
)

__all__ = ["LEASE_TIMEOUT_DEFAULT", "ClaimWatch", "SpoolTransport", "watch_claim"]

# A lease whose beat hasn't moved for this long marks its worker dead.
# Generous relative to the 0.5 s default heartbeat cadence: renewals
# ride the engine's preempt polls, which a healthy proof hits many
# times per second, so ten missed windows is a worker that is gone.
LEASE_TIMEOUT_DEFAULT = 5.0
# Idle drain ticks back off toward this ceiling (reset on progress).
_DRAIN_IDLE_CAP = 0.25


class ClaimWatch(NamedTuple):
    """The dispatcher's view of one claim, on its local clock."""

    claimer: str
    beat: int | None  # last lease beat read (None: none readable yet)
    moved: float  # when the beat last moved, or the claimer was first seen


def watch_claim(
    watch: ClaimWatch | None,
    claimer: str | None,
    beat: int | None,
    dead: set[str],
    now: float,
    lease_timeout: float,
) -> tuple[ClaimWatch | None, bool]:
    """One poll of a pending job's claim: the updated watch and whether
    to reopen the claim.  ``claimer`` is ``None`` when unclaimed,
    ``beat`` ``None`` when no lease is readable; ``dead`` holds exited
    local worker ids.  A new claimer restarts the window."""
    if claimer is None:
        return None, False
    if watch is None or watch.claimer != claimer:
        watch = ClaimWatch(claimer, None, now)
    if beat is not None and beat != watch.beat:
        watch = ClaimWatch(claimer, beat, now)
    return watch, claimer in dead or now - watch.moved > lease_timeout


@dataclass
class _PendingJob:
    """Dispatcher-side state for one job still owed a result."""

    job: Job
    seq: int
    since: float  # dispatch/re-queue time (for the reported job seconds)
    queued: bool = True  # document written (False inside a backoff window)
    not_before: float = 0.0  # backoff gate for the next re-queue
    watch: ClaimWatch | None = None  # the current claim, if any


_Pending = dict[str, _PendingJob]


class SpoolTransport(Transport):
    name = "spool"

    def __init__(
        self,
        root: Path | str | None = None,
        *,
        poll: float = 0.05,
        spawn_workers: bool = True,
        python: str | None = None,
        extra_env: dict[str, str] | None = None,
        extra_args: Sequence[str] = (),
        heartbeat_every: float = HEARTBEAT_EVERY_DEFAULT,
        lease_timeout: float = LEASE_TIMEOUT_DEFAULT,
    ) -> None:
        """``root=None`` spools into a fresh temp directory, created
        lazily when :meth:`run` starts and removed when it finishes.
        ``spawn_workers=False`` writes jobs and waits for *external*
        workers (other machines) to drain them.  ``extra_args`` rides
        along on every spawned worker command line (e.g.
        ``--checkpoint-every 512`` or ``--preempt-after 5``).
        ``heartbeat_every`` is the lease renewal cadence handed to
        spawned workers; ``lease_timeout`` is how long a claim's beat
        may freeze before the claim is reclaimed."""
        self._owns_root = root is None
        self.root: Path | None = Path(root) if root is not None else None
        self.poll = poll
        self.spawn_workers = spawn_workers
        self.python = python
        self.extra_env = extra_env
        self.extra_args = tuple(extra_args)
        self.heartbeat_every = heartbeat_every
        self.lease_timeout = lease_timeout

    # -- paths -----------------------------------------------------------

    def _job_path(self, job: Job, seq: int) -> Path:
        # The sequence prefix is the schedule position: workers drain
        # jobs/ in sorted order, so the LPT plan survives the filesystem.
        assert self.root is not None
        return self.root / "jobs" / f"{seq:06d}-{job.spec_hash}.json"

    def _result_name(self, spec_hash: str) -> str:
        return f"{spec_hash}.result.json"

    def _result_path(self, spec_hash: str) -> Path:
        assert self.root is not None
        return self.root / "results" / self._result_name(spec_hash)

    def _lease_path(self, spec_hash: str, wid: str) -> Path:
        assert self.root is not None
        return self.root / "leases" / f"{spec_hash}.{wid}.json"

    def _checkpoint_path(self, spec_hash: str) -> Path:
        assert self.root is not None
        return self.root / "checkpoints" / f"{spec_hash}.ckpt.json"

    # -- job documents ---------------------------------------------------

    def _write_job(self, job: Job, seq: int) -> None:
        doc = {
            "format": SPOOL_JOB_FORMAT,
            "spec": job.spec.to_payload(),
            "attempts": job.attempts,
            "excluded": list(job.excluded),
            # A self-preempting worker restores the job file itself and
            # needs the schedule position to reconstruct the filename.
            "seq": seq,
        }
        _atomic_write(self._job_path(job, seq), json.dumps(doc, sort_keys=True))

    def _read_result(self, spec_hash: str) -> Result:
        """Parse a finished result file.  Raises :class:`JobError` for a
        worker-reported deterministic failure and ``ValueError``-family
        errors for corruption (the caller quarantines)."""
        text = self._result_path(spec_hash).read_text(encoding="utf-8")
        payload = json.loads(text)
        if isinstance(payload, dict) and payload.get("format") == SPOOL_ERROR_FORMAT:
            raise JobError(
                f"job {spec_hash[:12]} failed on a spool worker: "
                f"[{payload.get('kind', '?')}] {payload.get('error', '?')}"
            )
        return Result.from_payload(payload)

    def _lease_beat(self, spec_hash: str, wid: str) -> int | None:
        """The claimer's current lease beat, or ``None`` when no lease
        exists (never written, already cleared, or unreadable — lease
        writes are atomic, so unreadable means absent)."""
        try:
            doc = json.loads(self._lease_path(spec_hash, wid).read_text())
            return int(doc["beat"])
        except (OSError, ValueError, TypeError, KeyError):
            return None

    # -- the run loop ----------------------------------------------------

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
        if policy is None:
            policy = RetryPolicy(max_retries=max_retries)
        if self.root is None:
            self.root = Path(tempfile.mkdtemp(prefix="repro-spool-"))
        for sub in ("jobs", "claims", "leases", "results", "checkpoints"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        stop = self.root / "STOP"
        stop.unlink(missing_ok=True)

        procs: list[subprocess.Popen | None] = []
        try:
            pending = self._enqueue(jobs, outcome, on_result, admit, on_exhausted)
            if pending and self.spawn_workers:
                procs = [self._spawn_worker() for _ in range(max(1, workers))]
            self._drain(pending, outcome, on_result, policy, procs, on_exhausted)
        finally:
            _atomic_write(stop, "")
            for proc in procs:
                if proc is not None:
                    self._reap(proc)
            if self._owns_root:
                shutil.rmtree(self.root, ignore_errors=True)
                self.root = None  # recreated lazily on the next run
        return outcome

    def _enqueue(
        self,
        jobs: Sequence[Job],
        outcome: TransportOutcome,
        on_result: OnResult,
        admit: Admit | None,
        on_exhausted: OnExhausted | None,
    ) -> _Pending:
        """Write job files (resume semantics: an existing valid result is
        accepted, an existing corrupt one quarantined).  Returns the
        jobs still owed a result, keyed by hash."""
        pending: _Pending = {}
        for seq, job in enumerate(jobs):
            if admit is not None and not admit():
                outcome.skipped.extend(jobs[seq:])
                break
            if self._result_path(job.spec_hash).exists():
                try:
                    result = self._read_result(job.spec_hash)
                    on_result(job, result, 0.0, "spool-resume")
                    outcome.resumed += 1
                    continue
                except JobError as exc:
                    if self._absorb(job, exc, outcome, on_exhausted):
                        continue
                    raise
                except (EnvelopeError, ValueError, KeyError, TypeError, OSError):
                    self._quarantine(job.spec_hash, outcome)
            self._write_job(job, seq)
            pending[job.spec_hash] = _PendingJob(job, seq, since=time.monotonic())
        return pending

    def _drain(
        self,
        pending: _Pending,
        outcome: TransportOutcome,
        on_result: OnResult,
        policy: RetryPolicy,
        procs: "list[subprocess.Popen | None]",
        on_exhausted: OnExhausted | None,
    ) -> None:
        assert self.root is not None
        results_dir = self.root / "results"
        claims_dir = self.root / "claims"
        respawns = 0
        respawn_cap = max(4, 2 * len(pending) + len(procs))
        slot_deaths = [0] * len(procs)
        # Accumulated across the run: respawning replaces a dead proc in
        # ``procs``, but its id must keep matching claims it left behind.
        dead_ids: set[str] = set()
        idle = RetryPolicy(
            base_delay=max(0.001, self.poll),
            factor=1.5,
            max_delay=max(self.poll, _DRAIN_IDLE_CAP),
            max_retries=0,
        )
        idle_ticks = 0
        while pending:
            progressed = False
            # One directory listing per tick, not one stat per job.
            finished = self._listdir(results_dir)
            claims = self._claim_map(claims_dir)
            dead_ids.update(
                f"w{proc.pid}"
                for proc in procs
                if proc is not None and proc.poll() is not None
            )
            now = time.monotonic()
            for spec_hash in list(pending):
                entry = pending[spec_hash]
                job = entry.job
                if self._result_name(spec_hash) in finished:
                    progressed = True
                    try:
                        result = self._read_result(spec_hash)
                        on_result(job, result, now - entry.since, "spool")
                        del pending[spec_hash]
                        # A straggler may have answered a job we already
                        # re-queued: retire the orphan document so no
                        # idle worker re-solves it.
                        self._job_path(job, entry.seq).unlink(missing_ok=True)
                    except JobError as exc:
                        if self._absorb(job, exc, outcome, on_exhausted):
                            del pending[spec_hash]
                            continue
                        raise
                    except (EnvelopeError, ValueError, KeyError, TypeError, OSError):
                        self._quarantine(spec_hash, outcome)
                        self._retry(entry, pending, outcome, policy, on_exhausted)
                    continue
                if not entry.queued:
                    # Sitting out its backoff window; re-queue when due.
                    if now >= entry.not_before:
                        self._write_job(job, entry.seq)
                        entry.queued = True
                        entry.since = now
                        progressed = True
                    continue
                claimer = claims.get(spec_hash)
                beat = self._lease_beat(spec_hash, claimer) if claimer else None
                entry.watch, reopen = watch_claim(
                    entry.watch, claimer, beat, dead_ids, now, self.lease_timeout
                )
                if reopen:
                    (claims_dir / f"{spec_hash}.{claimer}.json").unlink(missing_ok=True)
                    self._lease_path(spec_hash, claimer).unlink(missing_ok=True)
                    job.excluded = job.excluded + (claimer,)
                    outcome.worker_deaths += 1
                    self._retry(entry, pending, outcome, policy, on_exhausted)
                    progressed = True
            if pending:
                respawns += self._respawn_dead(
                    procs, slot_deaths, dead_ids, outcome, policy
                )
                if respawns > respawn_cap:
                    raise DispatchError(
                        f"spool workers died {respawns} times without "
                        "claiming a job — the worker command looks broken"
                    )
                if progressed:
                    idle_ticks = 0
                else:
                    idle_ticks += 1
                    delay = idle.delay(idle_ticks)
                    # Wake in time for the earliest deferred re-queue.
                    due = min(
                        (e.not_before for e in pending.values() if not e.queued),
                        default=None,
                    )
                    if due is not None:
                        delay = min(delay, max(0.0, due - time.monotonic()))
                    if delay > 0:
                        time.sleep(delay)

    @staticmethod
    def _listdir(directory: Path) -> set[str]:
        try:
            return {entry.name for entry in directory.iterdir()}
        except OSError:
            return set()

    def _claim_map(self, claims_dir: Path) -> dict[str, str]:
        """spec_hash -> worker id for every current claim (hashes are
        hex, so the first dot splits hash from worker id)."""
        claims: dict[str, str] = {}
        for name in self._listdir(claims_dir):
            if not name.endswith(".json"):
                continue
            stem = name[: -len(".json")]
            spec_hash, _, wid = stem.partition(".")
            if wid:
                claims[spec_hash] = wid
        return claims

    # -- failure handling ------------------------------------------------

    def _quarantine(self, spec_hash: str, outcome: TransportOutcome) -> None:
        self._result_path(spec_hash).unlink(missing_ok=True)
        outcome.quarantined += 1

    def _absorb(
        self,
        job: Job,
        failure: Exception,
        outcome: TransportOutcome,
        on_exhausted: OnExhausted | None,
    ) -> bool:
        """Offer a dead-end job to the degradation hook; on absorption,
        scrub its error document and checkpoint so nothing half-done
        lingers in the spool."""
        if on_exhausted is None or not on_exhausted(job, failure):
            return False
        outcome.degraded.append(job)
        self._result_path(job.spec_hash).unlink(missing_ok=True)
        self._checkpoint_path(job.spec_hash).unlink(missing_ok=True)
        return True

    def _retry(
        self,
        entry: _PendingJob,
        pending: _Pending,
        outcome: TransportOutcome,
        policy: RetryPolicy,
        on_exhausted: OnExhausted | None,
    ) -> None:
        job = entry.job
        delay = give_up_or_back_off(
            job,
            policy,
            outcome,
            lambda: DispatchError(
                f"spool job {job.spec_hash[:12]} (n={job.spec.n}) failed "
                f"{job.attempts} times — giving up"
            ),
            lambda j, exc: self._absorb(j, exc, outcome, on_exhausted),
        )
        if delay is None:
            del pending[job.spec_hash]
            return
        # The document is re-written only once the deterministic backoff
        # window has passed — the drain loop wakes for it.
        entry.queued = False
        entry.not_before = time.monotonic() + delay
        entry.watch = None

    # -- local worker processes ------------------------------------------

    def _spawn_worker(self) -> subprocess.Popen:
        cmd = worker_command(self.python) + [
            "--spool",
            str(self.root),
            "--poll",
            str(self.poll),
            "--heartbeat-every",
            str(self.heartbeat_every),
            *self.extra_args,
        ]
        return subprocess.Popen(cmd, env=worker_env(self.extra_env))

    def _respawn_dead(
        self,
        procs: "list[subprocess.Popen | None]",
        slot_deaths: list[int],
        dead_ids: set[str],
        outcome: TransportOutcome,
        policy: RetryPolicy,
    ) -> int:
        """Replace exited local workers; returns how many were replaced
        so the drain loop can cap crash-on-start churn.  A slot whose
        workers have died ``policy.quarantine_after`` times is retired
        (circuit breaker) while at least one live slot remains."""
        replaced = 0
        for i, proc in enumerate(procs):
            if proc is None or proc.poll() is None:
                continue
            dead_ids.add(f"w{proc.pid}")
            slot_deaths[i] += 1
            live = sum(1 for p in procs if p is not None)
            if slot_deaths[i] >= policy.quarantine_after and live > 1:
                procs[i] = None
                outcome.quarantined_workers += 1
            else:
                procs[i] = self._spawn_worker()
                replaced += 1
        return replaced

    @staticmethod
    def _reap(proc: subprocess.Popen) -> None:
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
