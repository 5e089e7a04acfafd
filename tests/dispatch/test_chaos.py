"""Crash/chaos tests: the dispatcher must survive worker death.

Faults are injected with the structured harness in
:mod:`repro.dispatch.faults`: an armed :class:`FaultPlan` rides an
environment variable into every worker, and the *first* worker to win
a fault's token (atomic unlink) dies abruptly mid-job — or stalls,
drops its heartbeat, corrupts its result.  Exactly one worker per
token triggers, so the retry necessarily lands on a healthy worker:
precisely the retry-with-exclusion path under test.

``TestLeases`` is the heartbeat-lease story: a slow worker whose lease
keeps renewing is *never* reclaimed (the double-solve regression), a
stalled worker's frozen lease is reclaimed promptly, and a dropped
heartbeat causes a benign reclaim whose straggler write changes
nothing.

The spool corruption test mirrors ``test_cache.py``'s pattern: a
truncated ``.result.json`` must be quarantined (deleted) and the job
re-dispatched, never parsed into a half-envelope.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import threading
import time

import pytest

from repro.api import CoverSpec, solve
from repro.dispatch import (
    FAULT_EXIT_CODE,
    DispatchError,
    Fault,
    FaultPlan,
    JobError,
    SpoolTransport,
    SubprocessTransport,
    WorkerPreempted,
    dispatch_batch,
)
from repro.dispatch.subproc import _SubprocessWorker, worker_command, worker_env

SPECS = [CoverSpec.for_ring(n, backend="exact", use_hints=False) for n in (4, 5, 6, 7)]

# The mid-proof chaos tests need a search long enough to checkpoint
# *inside*: n=8 certification runs a few thousand nodes.
N8 = CoverSpec.for_ring(8, backend="exact", use_hints=False)


@pytest.fixture(scope="module")
def oracle():
    return [solve(spec, cache=None).to_json() for spec in SPECS]


@pytest.fixture(scope="module")
def n8_oracle():
    return solve(N8, cache=None)


def _armed(tmp_path, *faults, seed=2001):
    """Arm a FaultPlan in tmp_path and return (plan, its worker env)."""
    plan = FaultPlan(faults=tuple(faults), seed=seed).arm(tmp_path)
    return plan, plan.env()


class TestSubprocessChaos:
    def test_worker_killed_mid_job_retries_with_exclusion(self, tmp_path, oracle):
        plan, env = _armed(tmp_path, Fault(kind="crash"))
        transport = SubprocessTransport(extra_env=env)
        report = dispatch_batch(SPECS, transport=transport, workers=2)
        assert not any(
            f.token and os.path.exists(f.token) for f in plan.faults
        )  # the fault actually fired
        assert report.worker_deaths == 1
        assert report.retries == 1
        # the sweep still converged, byte-identically
        assert [r.to_json() for r in report.results] == oracle

    def test_stalled_worker_is_killed_by_the_job_deadline(self, tmp_path, oracle):
        plan, env = _armed(tmp_path, Fault(kind="stall"))
        transport = SubprocessTransport(extra_env=env)
        report = dispatch_batch(
            SPECS, transport=transport, workers=2, job_timeout=10.0
        )
        assert report.worker_deaths == 1
        assert [r.to_json() for r in report.results] == oracle

    def test_deterministic_job_failure_fails_fast_not_forever(self):
        # n=13 exceeds every exact ceiling: the worker reports a routing
        # error, and retrying elsewhere cannot help — the dispatch must
        # raise immediately instead of burning workers.
        bad = CoverSpec.for_ring(13, backend="exact")
        with pytest.raises((JobError, DispatchError), match="exact"):
            dispatch_batch([bad], transport="subprocess", workers=1)


class TestSpoolChaos:
    def test_truncated_result_is_quarantined_and_redispatched(self, tmp_path, oracle):
        root = tmp_path / "spool"
        (root / "results").mkdir(parents=True)
        victim = root / "results" / f"{SPECS[2].spec_hash}.result.json"
        victim.write_text(oracle[2][: len(oracle[2]) // 3])  # torn write
        report = dispatch_batch(SPECS, transport=SpoolTransport(root), workers=2)
        assert report.quarantined == 1
        assert report.resumed == 0
        assert [r.to_json() for r in report.results] == oracle
        # the quarantined entry was replaced by a full, valid envelope
        assert json.loads(victim.read_text())["spec_hash"] == SPECS[2].spec_hash

    def test_crash_on_start_workers_trip_the_respawn_cap(self, tmp_path):
        # Workers that die before claiming anything (broken interpreter
        # environment) must fail the dispatch loudly, not respawn forever.
        transport = SpoolTransport(
            tmp_path / "spool", extra_env={"PYTHONHOME": "/nonexistent"}
        )
        with pytest.raises(DispatchError, match="without claiming"):
            dispatch_batch(SPECS[:2], transport=transport, workers=2)

    def test_spool_worker_crash_is_reclaimed_and_completed(self, tmp_path, oracle):
        plan, env = _armed(tmp_path, Fault(kind="crash"))
        transport = SpoolTransport(tmp_path / "spool", extra_env=env)
        report = dispatch_batch(
            SPECS, transport=transport, workers=2, job_timeout=30.0
        )
        assert not any(
            f.token and os.path.exists(f.token) for f in plan.faults
        )  # the fault actually fired
        assert report.worker_deaths >= 1
        assert [r.to_json() for r in report.results] == oracle

    def test_spool_worker_killed_mid_proof_resumes_from_checkpoint(
        self, tmp_path, n8_oracle
    ):
        """The real work-migration story: a worker SIGKILLed *inside* a
        proof leaves a checkpoint in ``checkpoints/``; whoever reclaims
        the job resumes from it (the backend loads any checkpoint under
        the spec hash unconditionally), so nodes-after-resume is the
        remainder of the proof, not a restart — and the final envelope
        is still byte-identical to a serial solve."""
        root = tmp_path / "spool"
        plan, fault_env = _armed(tmp_path, Fault(kind="crash_at_node", at_node=2500))
        ckpt_file = root / "checkpoints" / f"{N8.spec_hash}.ckpt.json"

        report_box: dict = {}

        def _dispatch():
            report_box["report"] = dispatch_batch(
                [N8],
                transport=SpoolTransport(root, spawn_workers=False),
                workers=1,
                job_timeout=8.0,
            )

        dispatcher = threading.Thread(target=_dispatch, daemon=True)
        dispatcher.start()

        # Phase 1: a chaos worker that dies abruptly (os._exit, claim
        # left dangling) once the search passes 2500 nodes — after the
        # 512-node periodic flushes below that mark.
        chaos = subprocess.Popen(
            worker_command()
            + ["--spool", str(root), "--poll", "0.01", "--checkpoint-every", "512"],
            env=worker_env(fault_env),
        )
        assert chaos.wait(timeout=60) == FAULT_EXIT_CODE
        assert not any(
            f.token and os.path.exists(f.token) for f in plan.faults
        )  # the fault actually fired

        # The dead worker's last flush is on disk and strictly mid-proof:
        # resuming from it costs (total - nodes) < total nodes.
        ckpt = json.loads(ckpt_file.read_text())
        assert 0 < ckpt["nodes"] < n8_oracle.stats.nodes

        # Phase 2: a healthy worker picks up the reclaimed job.
        healthy = subprocess.Popen(
            worker_command() + ["--spool", str(root), "--poll", "0.01"],
            env=worker_env(),
        )
        try:
            dispatcher.join(timeout=120)
            assert not dispatcher.is_alive()
        finally:
            healthy.terminate()
            healthy.wait(timeout=10)
        report = report_box["report"]
        assert report.worker_deaths >= 1
        assert [r.to_json() for r in report.results] == [n8_oracle.to_json()]
        assert not ckpt_file.exists()  # completed proofs clean up


class TestLeases:
    """Heartbeat-lease reclaim: slow-but-alive is sacred, frozen is dead."""

    def test_slow_heartbeating_worker_is_never_reclaimed(self, tmp_path, oracle):
        """THE double-solve regression: a worker that is merely slow —
        lease renewing the whole time — must keep its claim no matter
        how far past ``job_timeout`` it runs.  Before leases, the
        deadline reclaimed it mid-solve and a second worker solved the
        same job again."""
        plan, env = _armed(tmp_path, Fault(kind="slow", seconds=3.0))
        transport = SpoolTransport(
            tmp_path / "spool", extra_env=env, lease_timeout=1.0
        )
        report = dispatch_batch(
            SPECS, transport=transport, workers=2, job_timeout=1.0
        )
        assert report.worker_deaths == 0
        assert report.retries == 0
        assert [r.to_json() for r in report.results] == oracle

    def test_sigstopped_worker_keeps_its_claim_within_the_lease_window(
        self, tmp_path, n8_oracle
    ):
        """A worker SIGSTOPped past the old job deadline but within the
        lease window resumes and finishes its own claim — no reclaim,
        no double solve."""
        root = tmp_path / "spool"
        report_box: dict = {}

        def _dispatch():
            report_box["report"] = dispatch_batch(
                [N8],
                transport=SpoolTransport(
                    root, spawn_workers=False, lease_timeout=30.0
                ),
                workers=1,
                job_timeout=0.5,
            )

        dispatcher = threading.Thread(target=_dispatch, daemon=True)
        dispatcher.start()
        worker = subprocess.Popen(
            worker_command() + ["--spool", str(root), "--poll", "0.01"],
            env=worker_env(),
        )
        claims = root / "claims"
        try:
            deadline = time.monotonic() + 30
            claimed = False
            while time.monotonic() < deadline:
                if claims.is_dir() and any(claims.iterdir()):
                    claimed = True
                    break
                time.sleep(0.005)
            assert claimed, "worker never claimed the job"
            os.kill(worker.pid, signal.SIGSTOP)
            time.sleep(1.5)  # blows the 0.5 s deadline, not the lease
            os.kill(worker.pid, signal.SIGCONT)
            dispatcher.join(timeout=120)
            assert not dispatcher.is_alive()
        finally:
            worker.terminate()
            worker.wait(timeout=10)
        report = report_box["report"]
        assert report.worker_deaths == 0
        assert report.retries == 0
        assert [r.to_json() for r in report.results] == [n8_oracle.to_json()]

    def test_stalled_worker_lease_goes_stale_and_job_is_reclaimed(
        self, tmp_path, oracle
    ):
        """No job deadline at all: a stalled worker is reclaimed purely
        because its lease beat froze for lease_timeout."""
        plan, env = _armed(tmp_path, Fault(kind="stall", seconds=6.0))
        transport = SpoolTransport(
            tmp_path / "spool", extra_env=env, lease_timeout=1.0
        )
        report = dispatch_batch(SPECS, transport=transport, workers=2)
        assert report.worker_deaths >= 1
        assert [r.to_json() for r in report.results] == oracle

    def test_dropped_heartbeat_reclaim_is_benign(self, tmp_path, n8_oracle):
        """A worker that keeps working but whose heartbeats stop landing
        on disk looks dead from outside and is reclaimed; its straggler
        result write is atomic and byte-identical, so whichever envelope
        lands first is accepted unchanged.  (The ``slow`` fault keeps
        the worker alive long enough for the frozen lease to go stale —
        its renewal attempts fire but ``drop_heartbeat`` eats them.)"""
        plan, env = _armed(
            tmp_path, Fault(kind="drop_heartbeat"), Fault(kind="slow", seconds=3.0)
        )
        transport = SpoolTransport(
            tmp_path / "spool", extra_env=env, lease_timeout=1.0
        )
        report = dispatch_batch([N8], transport=transport, workers=2)
        assert report.worker_deaths >= 1
        assert [r.to_json() for r in report.results] == [n8_oracle.to_json()]

    def test_corrupt_result_fault_is_quarantined_and_resolved(
        self, tmp_path, oracle
    ):
        """The worker-side torn-write fault: the winning worker truncates
        the one result it writes; the dispatcher quarantines the garbage
        and re-dispatches, converging byte-identically."""
        plan, env = _armed(tmp_path, Fault(kind="corrupt_result"))
        transport = SpoolTransport(tmp_path / "spool", extra_env=env)
        report = dispatch_batch(SPECS, transport=transport, workers=2)
        assert report.quarantined == 1
        assert report.retries == 1
        assert [r.to_json() for r in report.results] == oracle


class _PreemptBehindJobLine:
    """A worker's stdin that writes a preempt control line right behind
    the first job line.  The stdio protocol binds a preempt to the job
    line it follows, even before the solve starts, so the worker answers
    that job with a checkpoint at its first preempt poll, however fast
    or slow it starts up."""

    def __init__(self, pipe) -> None:
        self._pipe = pipe
        self._sent = False

    def write(self, text: str) -> int:
        written = self._pipe.write(text)
        if not self._sent and '"spec"' in text:
            self._pipe.write('{"preempt": true}\n')
            self._sent = True
        return written

    def __getattr__(self, name):
        return getattr(self._pipe, name)


class TestPreemption:
    def test_stdio_preempt_hands_checkpoint_to_replacement_worker(self, n8_oracle):
        """Protocol-level migration, fully deterministic: worker 1 gets
        the job followed by a preempt request, answers with a
        checkpoint, and exits; worker 2 resumes from that wire
        checkpoint and finishes byte-identically."""
        w1 = _SubprocessWorker("pre1")
        w1.proc.stdin = _PreemptBehindJobLine(w1.proc.stdin)
        try:
            with pytest.raises(WorkerPreempted) as err:
                w1.solve(N8, None)
        finally:
            w1.close()
        checkpoint = err.value.checkpoint
        assert checkpoint is not None
        assert 0 < checkpoint["nodes"] < n8_oracle.stats.nodes

        w2 = _SubprocessWorker("pre2")
        try:
            result = w2.solve(N8, None, checkpoint=checkpoint)
        finally:
            w2.close()
        assert result.to_json() == n8_oracle.to_json()

    def test_stdio_deadline_before_worker_startup_preempts_not_kills(
        self, n8_oracle
    ):
        """A zero ``job_timeout`` is shorter than worker start-up: the
        transport writes the job line and then the preempt request, and
        both are buffered before the worker reads either.  The worker
        binds the preempt to the job it follows and answers with a
        checkpoint inside the default ``preempt_grace`` — a migration,
        not a grace kill."""
        w1 = _SubprocessWorker("dl1")
        try:
            with pytest.raises(WorkerPreempted) as err:
                w1.solve(N8, 0.0)
        finally:
            w1.close()
        checkpoint = err.value.checkpoint
        assert checkpoint is not None
        assert 0 < checkpoint["nodes"] < n8_oracle.stats.nodes

    def test_spool_preempt_after_migrates_in_budgeted_slices(
        self, tmp_path, n8_oracle
    ):
        """A --preempt-after node budget makes spool workers bow out,
        checkpoint, and hand the job back; the proof still converges
        (each claim advances one full budget) with an identical
        envelope."""
        transport = SpoolTransport(
            tmp_path / "spool",
            extra_args=["--preempt-after", "800n", "--checkpoint-every", "512"],
        )
        report = dispatch_batch([N8], transport=transport, workers=1)
        assert [r.to_json() for r in report.results] == [n8_oracle.to_json()]
