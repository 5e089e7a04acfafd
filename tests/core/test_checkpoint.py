"""Checkpoint/resume machinery (:mod:`repro.core.checkpoint`).

The contract under test is the tentpole guarantee: a branch-and-bound
search preempted at any point, serialized through JSON, and resumed —
possibly many times — must finish with *exactly* the same covering and
node count as an uninterrupted run.  The explicit-stack searches make
this possible (the whole search state is data, not Python frames);
these tests pin that the state survives the round trip byte-for-byte.

Also here: the size-capped transposition memo (``REPRO_MEMO_CAP``) and
the richer :class:`SolverError` payload (in-flight best + stats +
checkpoint attached at the node-limit raise).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.core.checkpoint import (
    DEFAULT_MEMO_CAP,
    MEMO_CAP_ENV,
    CappedMemo,
    SearchCheckpoint,
    memo_cap,
)
from repro.core.engine import SolverEngine, SolverStats
from repro.traffic.instances import all_to_all
from repro.util.errors import SolverError, SolverPreempted


def _preempt_at(threshold: int):
    return lambda st: st.nodes >= threshold


def _run_with_preempts(n: int, step: int, **engine_kwargs):
    """Drive min_covering to completion through JSON-round-tripped
    checkpoints, preempting every ``step`` nodes.  Returns (covering,
    stats, cycles)."""
    engine = SolverEngine(n, **engine_kwargs)
    ckpt = None
    cycles = 0
    while True:
        stats = SolverStats()
        base = ckpt.nodes if ckpt is not None else 0
        try:
            covering = engine.min_covering(
                stats=stats,
                checkpoint=ckpt,
                preempt=_preempt_at(base + step),
            )
            return covering, stats, cycles
        except SolverPreempted as exc:
            cycles += 1
            assert cycles < 200, "preemption is not making progress"
            assert exc.checkpoint is not None
            # The full wire trip: payload -> JSON -> payload -> state.
            ckpt = SearchCheckpoint.from_json(exc.checkpoint.to_json())


class TestCappedMemo:
    def test_unbounded_by_default(self):
        memo = CappedMemo()
        for i in range(100):
            memo.store(i, i)
        assert len(memo) == 100

    def test_fifo_eviction_is_deterministic(self):
        memo = CappedMemo(3)
        for key in "abcd":
            memo.store(key, key.upper())
        assert list(memo) == ["b", "c", "d"]
        memo.store("e", "E")
        assert list(memo) == ["c", "d", "e"]

    def test_updating_existing_key_does_not_evict(self):
        memo = CappedMemo(2, [("a", 1), ("b", 2)])
        memo.store("a", 3)
        assert dict(memo) == {"a": 3, "b": 2}

    def test_memo_cap_env(self, monkeypatch):
        monkeypatch.delenv(MEMO_CAP_ENV, raising=False)
        assert memo_cap() == DEFAULT_MEMO_CAP
        monkeypatch.setenv(MEMO_CAP_ENV, "123")
        assert memo_cap() == 123
        monkeypatch.setenv(MEMO_CAP_ENV, "0")
        assert memo_cap() == 0  # unbounded
        monkeypatch.setenv(MEMO_CAP_ENV, "")
        assert memo_cap() == DEFAULT_MEMO_CAP

    @pytest.mark.parametrize("bad", ["-1", "lots", "1.5"])
    def test_memo_cap_env_rejects_garbage(self, monkeypatch, bad):
        monkeypatch.setenv(MEMO_CAP_ENV, bad)
        with pytest.raises(SolverError):
            memo_cap()

    def test_capped_search_still_exact(self, monkeypatch):
        """A tiny memo cap costs nodes, never correctness."""
        engine = SolverEngine(8)
        baseline = engine.min_covering(stats=(full := SolverStats()))
        monkeypatch.setenv(MEMO_CAP_ENV, "16")
        capped = engine.min_covering(stats=(small := SolverStats()))
        assert capped.num_blocks == baseline.num_blocks
        assert small.nodes >= full.nodes


class TestSerialization:
    def _checkpoint(self, n=8, threshold=512) -> SearchCheckpoint:
        engine = SolverEngine(n)
        with pytest.raises(SolverPreempted) as err:
            engine.min_covering(stats=SolverStats(), preempt=_preempt_at(threshold))
        assert err.value.checkpoint is not None
        return err.value.checkpoint

    def test_json_round_trip_is_stable(self):
        ckpt = self._checkpoint()
        text = ckpt.to_json()
        again = SearchCheckpoint.from_json(text)
        assert again.to_json() == text
        assert again == ckpt

    def test_payload_is_pure_json(self):
        payload = self._checkpoint().to_payload()
        assert payload == json.loads(json.dumps(payload))

    def test_bad_payloads_raise_solver_error(self):
        ckpt = self._checkpoint()
        for mangle in (
            lambda p: {**p, "format": "something-else"},
            lambda p: {**p, "kind": "martian"},
            lambda p: {k: v for k, v in p.items() if k != "frames"},
            lambda p: "not a dict",
        ):
            with pytest.raises(SolverError):
                SearchCheckpoint.from_payload(mangle(ckpt.to_payload()))

    def test_check_compatible_rejects_mismatches(self):
        ckpt = self._checkpoint(n=8)
        with pytest.raises(SolverError, match="not resumable"):
            ckpt.check_compatible(n=9)
        engine = SolverEngine(9)
        with pytest.raises(SolverError, match="not resumable"):
            engine.min_covering(stats=SolverStats(), checkpoint=ckpt)


class TestResumeIdentity:
    def test_kn_resume_matches_uninterrupted(self):
        engine = SolverEngine(8)
        oracle = engine.min_covering(stats=(base := SolverStats()))
        covering, stats, cycles = _run_with_preempts(8, 800)
        assert cycles >= 2
        assert stats.nodes == base.nodes
        assert covering.blocks == oracle.blocks

    @settings(max_examples=8, deadline=None)
    @given(
        n=hst.integers(min_value=6, max_value=8),
        step=hst.integers(min_value=260, max_value=1500),
    )
    def test_kn_resume_matches_uninterrupted_hypothesis(self, n, step):
        engine = SolverEngine(n)
        oracle = engine.min_covering(stats=(base := SolverStats()))
        covering, stats, _cycles = _run_with_preempts(n, step)
        assert stats.nodes == base.nodes
        assert covering.blocks == oracle.blocks

    def test_instance_resume_matches_uninterrupted(self):
        engine = SolverEngine(8)
        oracle = engine.min_covering_instance(
            all_to_all(8), stats=(base := SolverStats())
        )
        ckpt = None
        cycles = 0
        while True:
            stats = SolverStats()
            floor = ckpt.nodes if ckpt is not None else 0
            try:
                covering = engine.min_covering_instance(
                    all_to_all(8),
                    stats=stats,
                    checkpoint=ckpt,
                    preempt=_preempt_at(floor + 1000),
                )
                break
            except SolverPreempted as exc:
                cycles += 1
                assert cycles < 100
                ckpt = SearchCheckpoint.from_json(exc.checkpoint.to_json())
        assert cycles >= 2
        assert stats.nodes == base.nodes
        assert covering.blocks == oracle.blocks

    def test_deadline_raise_is_resumable(self):
        engine = SolverEngine(8)
        with pytest.raises(SolverPreempted) as err:
            engine.min_covering(stats=SolverStats(), deadline=0.0)
        ckpt = err.value.checkpoint
        assert ckpt is not None and ckpt.nodes > 0
        oracle = engine.min_covering(stats=(base := SolverStats()))
        stats = SolverStats()
        covering = engine.min_covering(stats=stats, checkpoint=ckpt)
        assert stats.nodes == base.nodes
        assert covering.blocks == oracle.blocks


class TestNodeLimitPayload:
    def test_node_limit_error_carries_state(self):
        engine = SolverEngine(8)
        with pytest.raises(SolverError) as err:
            engine.min_covering(stats=SolverStats(), node_limit=500)
        exc = err.value
        assert not isinstance(exc, SolverPreempted)  # overrun, not preemption
        assert exc.checkpoint is not None
        assert exc.stats is not None and exc.stats.nodes > 500
        # The improver seeds an incumbent before the search starts, so
        # an in-flight best is always available at the raise.
        assert exc.best_value is not None
        assert exc.best_blocks

    def test_node_limit_checkpoint_resumes(self):
        engine = SolverEngine(8)
        oracle = engine.min_covering(stats=(base := SolverStats()))
        with pytest.raises(SolverError) as err:
            engine.min_covering(stats=SolverStats(), node_limit=1000)
        stats = SolverStats()
        covering = engine.min_covering(
            stats=stats, checkpoint=err.value.checkpoint
        )
        assert stats.nodes == base.nodes
        assert covering.blocks == oracle.blocks
