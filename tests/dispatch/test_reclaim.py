"""The spool dispatcher's reclaim rule, on a fake clock.

:func:`repro.dispatch.spool.watch_claim` is the whole per-claim
decision: a claim reopens when its claimer is a dead local worker, or
when its lease beat has not moved for ``lease_timeout`` seconds since
the dispatcher first saw that claimer.  No processes, files or sleeps.
"""

from __future__ import annotations

from repro.dispatch.spool import watch_claim

TIMEOUT = 5.0


def _poll(ticks, *, dead=frozenset(), watch=None):
    """Feed ``(now, claimer, beat)`` polls through ``watch_claim``;
    returns the reopen decision of each poll and the final watch."""
    decisions = []
    for now, claimer, beat in ticks:
        watch, reopen = watch_claim(watch, claimer, beat, set(dead), now, TIMEOUT)
        decisions.append(reopen)
    return decisions, watch


def test_unclaimed_job_has_no_watch_and_never_reopens():
    assert watch_claim(None, None, None, set(), 100.0, TIMEOUT) == (None, False)


def test_a_moving_beat_is_never_reopened_however_long_the_claim_runs():
    # One beat every 4.9 s for about three hours of fake time.
    ticks = []
    for k in range(2000):
        ticks.append((k * 4.9, "w1", k))
        ticks.append((k * 4.9 + 4.8, "w1", k))  # polled again before it moves
    decisions, watch = _poll(ticks)
    assert not any(decisions)
    assert watch.beat == 1999


def test_a_frozen_beat_reopens_once_the_timeout_passes_and_not_before():
    decisions, _ = _poll(
        [(10.0, "w1", 3), (12.0, "w1", 3), (15.0, "w1", 3), (15.01, "w1", 3)]
    )
    assert decisions == [False, False, False, True]


def test_the_window_counts_from_the_last_move_of_the_beat():
    decisions, _ = _poll(
        [(0.0, "w1", 0), (4.0, "w1", 1), (8.9, "w1", 1), (9.1, "w1", 1)]
    )
    assert decisions == [False, False, False, True]


def test_an_absent_lease_counts_as_a_beat_that_never_moved():
    decisions, watch = _poll(
        [(20.0, "w1", None), (24.0, "w1", None), (25.5, "w1", None)]
    )
    assert decisions == [False, False, True]
    assert watch.beat is None and watch.moved == 20.0


def test_a_lease_that_vanishes_keeps_its_last_beat_frozen():
    decisions, _ = _poll([(0.0, "w1", 7), (3.0, "w1", None), (5.5, "w1", 7)])
    assert decisions == [False, False, True]


def test_a_dead_local_claimer_is_reopened_at_once():
    decisions, _ = _poll([(0.0, "w9", 0)], dead={"w9"})
    assert decisions == [True]
    # Even with a beat that is still moving.
    decisions, _ = _poll([(0.0, "w9", 0), (0.1, "w9", 1)], dead={"w9"})
    assert decisions == [True, True]


def test_a_new_claimer_restarts_the_window():
    # w1 froze at beat 0 from t = 0; at t = 4 the claim belongs to w2,
    # whose fresh lease also reads beat 0.
    decisions, watch = _poll(
        [(0.0, "w1", 0), (4.0, "w2", 0), (8.0, "w2", 0), (9.5, "w2", 0)]
    )
    assert decisions == [False, False, False, True]
    assert watch.claimer == "w2" and watch.moved == 4.0


def test_release_then_reclaim_by_the_same_worker_restarts_the_window():
    decisions, _ = _poll(
        [(0.0, "w1", 4), (4.0, None, None), (4.5, "w1", 4), (9.0, "w1", 4)]
    )
    assert decisions == [False, False, False, False]
