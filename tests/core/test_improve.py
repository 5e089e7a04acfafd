"""Tests for the local-search improver (:mod:`repro.core.improve`).

The improver's contract: never return a larger covering, never break
feasibility, stay deterministic, and do all its bookkeeping through the
O(block) ledger deltas (so a final recount must agree).  The padded
coverings below (optimum + junk) are where the eject/merge moves must
fire; the hypothesis chains check the contract on arbitrary feasible
starting points.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.baselines.greedy import greedy_drc_covering
from repro.core.construction import optimal_covering
from repro.core.covering import Covering
from repro.core.engine import SolverEngine, edge_space, enumerate_convex_blocks
from repro.core.formulas import rho
from repro.core.improve import (
    ImproveStats,
    _BlockChords,
    _mergeable_pairs,
    improve_covering,
    improved_greedy_covering,
)
from repro.core.ledger import CoverageLedger
from repro.traffic.instances import Instance, all_to_all
from repro.util.errors import SolverError


def _assert_ledger_consistent(cov: Covering) -> None:
    recount = CoverageLedger.from_blocks(cov.blocks)
    assert cov.coverage == recount.counts
    assert cov.total_slots == recount.total_slots


class TestImproveCovering:
    @pytest.mark.parametrize("n", (6, 8, 9, 11))
    def test_never_larger_and_stays_feasible(self, n):
        start = SolverEngine(n).greedy_cover()
        out = improve_covering(start)
        assert out.num_blocks <= start.num_blocks
        assert out.covers() and out.is_drc_feasible()
        _assert_ledger_consistent(out)

    @pytest.mark.parametrize("n", (6, 8, 10))
    def test_strips_padded_covering(self, n):
        # Optimal covering plus junk duplicates: the eject pass must
        # remove every redundant block and land back at the optimum.
        base = optimal_covering(n)
        padded = base.with_blocks(base.blocks[:3])
        st = ImproveStats()
        out = improve_covering(padded, stats=st)
        assert out.num_blocks == base.num_blocks
        assert out.covers()
        assert st.ejects >= 3
        assert st.start_blocks == padded.num_blocks
        assert st.end_blocks == out.num_blocks

    def test_deterministic(self):
        a = improve_covering(SolverEngine(9).greedy_cover())
        b = improve_covering(SolverEngine(9).greedy_cover())
        assert a.blocks == b.blocks

    def test_merge_shared_edge_pair_stays_feasible(self):
        # Regression: chord (0, 2) is covered exactly twice — once by
        # each triangle — so it is binding for neither, yet a merge
        # removing both must not orphan it.  The quad (0, 1, 2, 3)
        # covers both triangles' *binding* edges, so a merge scanning
        # only binding edges would take it and lose (0, 2).
        inst = Instance(6, {(0, 1): 1, (1, 2): 1, (0, 2): 1, (2, 3): 1, (0, 3): 1})
        cov = Covering.from_vertex_lists(6, [(0, 1, 2), (0, 2, 3)])
        assert cov.covers(inst)
        out = improve_covering(cov, inst)
        assert out.covers(inst)
        assert out.num_blocks <= cov.num_blocks

    def test_merge_respects_multiplicity_demand(self):
        # Regression: chord (0, 1) demands two copies, supplied once by
        # each triangle.  A merge into one block can restore only one
        # copy, so the pair must be left alone.
        inst = Instance(6, {(0, 1): 2})
        cov = Covering.from_vertex_lists(6, [(0, 1, 2), (0, 1, 3)])
        assert cov.covers(inst)
        out = improve_covering(cov, inst)
        assert out.covers(inst)

    def test_infeasible_start_rejected(self):
        with pytest.raises(SolverError, match="feasible"):
            improve_covering(Covering(6, ()))

    def test_instance_mismatch_rejected(self):
        with pytest.raises(SolverError, match="order"):
            improve_covering(SolverEngine(6).greedy_cover(), all_to_all(7))

    def test_restricted_instance_respected(self):
        inst = Instance(7, {(0, 2): 1, (2, 4): 1, (0, 4): 1})
        start = Covering.from_vertex_lists(7, [(0, 1, 2), (2, 3, 4), (0, 4, 5)])
        assert start.covers(inst)
        out = improve_covering(start, inst)
        assert out.covers(inst)
        assert out.num_blocks == 1  # triangle (0, 2, 4) covers everything

    @given(
        n=hst.integers(min_value=5, max_value=8),
        picks=hst.lists(hst.integers(min_value=0, max_value=1_000), min_size=0, max_size=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_contract_on_arbitrary_feasible_starts(self, n, picks):
        pool = enumerate_convex_blocks(n)
        base = SolverEngine(n).greedy_cover()
        extra = tuple(pool[p % len(pool)] for p in picks)
        start = base.with_blocks(extra)
        out = improve_covering(start)
        assert out.covers() and out.is_drc_feasible()
        assert out.num_blocks <= start.num_blocks
        _assert_ledger_consistent(out)


class TestImprovedGreedy:
    @pytest.mark.parametrize("n", (8, 10, 13))
    def test_no_worse_than_greedy_baseline(self, n):
        greedy = greedy_drc_covering(n)
        improved = improved_greedy_covering(n)
        assert improved.num_blocks <= greedy.num_blocks
        assert improved.num_blocks >= rho(n)  # never beats the optimum
        assert improved.covers() and improved.is_drc_feasible()

    def test_large_n_tier_runs_on_tight_pool(self):
        # Past the convex-pool cutoff the improver must stay tractable.
        cov = improved_greedy_covering(16, max_rounds=1)
        assert cov.covers() and cov.is_drc_feasible()
        assert cov.num_blocks <= greedy_drc_covering(16).num_blocks

    def test_stats_reported(self):
        st = ImproveStats()
        improved_greedy_covering(10, stats=st)
        assert st.start_blocks >= st.end_blocks > 0


def _reference_need(cov: Covering, inst: Instance, a: int, b: int):
    """The merge rule as a tuple scan over the pair's edges: ``None``
    when some chord would fall two copies short with both blocks gone,
    else the chords one copy short, in the pair's edge order."""
    blk_a, blk_b = cov.blocks[a], cov.blocks[b]
    need: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for e in blk_a.edges() + blk_b.edges():
        if e in seen:
            continue
        seen.add(e)
        contrib = blk_a.edges().count(e) + blk_b.edges().count(e)
        shortfall = inst.required(e) - (cov.multiplicity(e) - contrib)
        if shortfall >= 2:
            return None
        if shortfall == 1:
            need.append(e)
    return need


@hst.composite
def _feasible_starts(draw):
    """A shuffled feasible covering of a random demand (λ ≤ 3, partial,
    possibly with unrequested chords covered by padding blocks)."""
    n = draw(hst.integers(min_value=4, max_value=9))
    lam = draw(hst.integers(min_value=1, max_value=3))
    chords = [(a, b) for a in range(n) for b in range(a + 1, n)]
    mults = draw(hst.lists(hst.integers(0, lam), min_size=len(chords), max_size=len(chords)))
    demand = {e: m for e, m in zip(chords, mults) if m}
    inst = Instance(n, demand or {(0, 1): 1})
    pool = enumerate_convex_blocks(n)
    base = SolverEngine(n).greedy_cover(inst, pool="convex")
    picks = draw(hst.lists(hst.integers(0, len(pool) - 1), max_size=8))
    blocks = draw(hst.permutations(list(base.blocks) + [pool[p] for p in picks]))
    return Covering(n, tuple(blocks)), inst


def _reference_greedy(table, demand):
    """The greedy kernel as a tuple scan: the block with the most live
    requests, ties toward less waste, then the lowest index."""
    residual = {e: m for e, m in demand.items() if m > 0}
    chosen = []
    while residual:
        best_key, best_i = None, -1
        for i, blk in enumerate(table.blocks):
            edges = blk.edges()
            gain = sum(1 for e in edges if residual.get(e, 0) > 0)
            if gain and (best_key is None or (gain, gain - len(edges)) > best_key):
                best_key, best_i = (gain, gain - len(edges)), i
        if best_key is None:
            break
        chosen.append(best_i)
        for e in table.blocks[best_i].edges():
            if residual.get(e, 0) > 1:
                residual[e] -= 1
            else:
                residual.pop(e, None)
    return chosen, sum(residual.values())


class TestMasksMatchTupleScans:
    """The merge pair test on slack masks and the greedy pick on chord
    masks agree with the tuple scans they replaced: same mergeable
    pairs with the same ordered need lists, same greedy picks."""

    @given(start=_feasible_starts(), pool_max=hst.sampled_from((3, 4, 99)))
    @settings(max_examples=150, deadline=None)
    def test_merge_pairs_match_tuple_scan(self, start, pool_max):
        cov, inst = start
        space = edge_space(cov.n)
        got = [
            (a, b, [space.edges[x] for x in bits])
            for a, b, need, bits in _mergeable_pairs(
                cov, inst.demand, _BlockChords(cov.n), pool_max
            )
        ]
        want = []
        for a in range(cov.num_blocks):
            blk = cov.blocks[a]
            binding = [e for e in blk.edges() if cov.multiplicity(e) <= inst.required(e)]
            if len(binding) >= pool_max:
                continue
            for b in range(a + 1, cov.num_blocks):
                need = _reference_need(cov, inst, a, b)
                if need and len(need) <= pool_max:
                    want.append((a, b, need))
        assert got == want

    @given(
        start=_feasible_starts(),
        pool=hst.sampled_from(("convex", "tight")),
        sizes=hst.sampled_from((None, (3,), (4,))),
    )
    @settings(max_examples=60, deadline=None)
    def test_greedy_matches_tuple_scan(self, start, pool, sizes):
        cov, inst = start
        engine = SolverEngine(cov.n)
        table = engine._table(pool, sizes)
        got = engine.greedy_cover_indices(dict(inst.demand), pool=pool, allowed_sizes=sizes)
        assert got == _reference_greedy(table, inst.demand)

    @given(start=_feasible_starts())
    @settings(max_examples=40, deadline=None)
    def test_input_ledger_unchanged(self, start):
        cov, inst = start
        counts = dict(cov.coverage)
        slots = cov.total_slots
        out = improve_covering(cov, inst)
        assert cov.coverage == counts and cov.total_slots == slots
        assert out.covers(inst)
        _assert_ledger_consistent(cov)
        _assert_ledger_consistent(out)
