"""Cross-backend differential property suite — the dispatcher's oracle.

The restricted-cover approximation literature (Manthey; Tang & Diao)
is blunt that heuristic tiers in this regime must be checked
*differentially* against exact solvers, not just on hand-certified
cases.  This suite is that oracle: hypothesis-generated ``CoverSpec``s
(small n, random restricted demands, λ ∈ {1, 2, 3}) asserting that

* ``closed_form`` / ``exact`` / ``exact_sharded`` agree on the optimal
  size wherever more than one of them applies;
* ``heuristic`` never beats the exact optimum and always returns a
  *verified* covering;
* every envelope re-validates from its own JSON via the independent
  :mod:`repro.core.verify` path (DRC routing re-exhibited, coverage
  recounted).

The transports are then tested against this same oracle in
``tests/dispatch/``: each must return envelopes byte-identical to the
in-process solves these properties vouch for.

Ring-size / multiplicity bounds are calibrated so a single example
stays well under a second (λ = 3 instances above n = 7 blow the
instance solver's node budget — that ceiling is itself pinned here).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import CoverSpec, Result, get_backend, solve
from repro.core.verify import verify_covering
from repro.sat.engines import SAT_ENGINE_ENV, available_engines
from repro.util import circular

_GOLDEN_DIR = Path(__file__).parent / "goldens"

# λ → largest ring size the exact instance solver certifies fast enough
# for a property suite (calibrated; λ=1 routes to the K_n solver).
_MAX_N = {1: 9, 2: 9, 3: 7}


def _uniform_specs() -> st.SearchStrategy[CoverSpec]:
    return st.sampled_from([1, 2, 3]).flatmap(
        lambda lam: st.integers(4, _MAX_N[lam]).map(
            lambda n: CoverSpec.for_ring(n, lam=lam)
        )
    )


@st.composite
def _restricted_specs(draw) -> CoverSpec:
    """A random restricted (non-uniform) demand: a subset of chords of
    C_n with multiplicities in {1, 2}."""
    n = draw(st.integers(5, 9))
    all_chords = sorted(
        {circular.chord(a, b) for a in range(n) for b in range(n) if a != b}
    )
    chords = draw(
        st.lists(st.sampled_from(all_chords), min_size=1, max_size=6, unique=True)
    )
    mults = draw(
        st.lists(
            st.integers(1, 2), min_size=len(chords), max_size=len(chords)
        )
    )
    return CoverSpec(
        n=n, demand=tuple((a, b, m) for (a, b), m in zip(chords, mults))
    )


def _exact(spec: CoverSpec) -> Result:
    return solve(
        CoverSpec.from_payload({**spec.to_payload(), "backend": "exact"}),
        cache=None,
    )


def _assert_envelope_valid(result: Result) -> None:
    """Every envelope must survive the independent verifier — *under
    its own objective and size restriction* — and a JSON round-trip
    with verification enabled."""
    spec = result.spec
    report = verify_covering(
        result.covering,
        spec.instance(),
        objective=spec.objective,
        allowed_sizes=spec.allowed_sizes,
    )
    assert report.valid, f"{result.backend} envelope failed verify: {report.problems}"
    assert report.objective == spec.objective
    if result.objective_value is not None:
        assert report.objective_value == result.objective_value
    if result.lower_bound is not None and result.objective_value is not None:
        assert result.lower_bound <= result.objective_value
    roundtrip = Result.from_json(result.to_json(), verify=True)
    assert roundtrip == result
    assert roundtrip.to_json() == result.to_json()


class TestUniformBackendsAgree:
    @settings(max_examples=25, deadline=None)
    @given(spec=_uniform_specs())
    def test_exact_matches_closed_form_and_is_verified(self, spec: CoverSpec):
        exact = _exact(spec)
        assert exact.status == "proven_optimal"
        _assert_envelope_valid(exact)
        closed = get_backend("closed_form")
        if closed.supports(spec):
            formula = closed.run(spec)
            assert formula.num_blocks == exact.num_blocks, (
                f"closed_form={formula.num_blocks} != exact={exact.num_blocks} "
                f"for n={spec.n} λ={spec.lam}"
            )
            _assert_envelope_valid(formula)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(5, 9))
    def test_exact_sharded_matches_exact(self, n: int):
        spec = CoverSpec.for_ring(n, use_hints=False)
        exact = _exact(spec)
        sharded = solve(
            CoverSpec.for_ring(n, backend="exact_sharded", use_hints=False, workers=2),
            cache=None,
        )
        assert sharded.status == "proven_optimal"
        assert sharded.num_blocks == exact.num_blocks
        _assert_envelope_valid(sharded)

    @settings(max_examples=25, deadline=None)
    @given(spec=_uniform_specs())
    def test_heuristic_never_beats_exact(self, spec: CoverSpec):
        exact = _exact(spec)
        heur = solve(
            CoverSpec.for_ring(spec.n, lam=spec.lam, require_optimal=False),
            cache=None,
        )
        assert heur.status == "feasible"
        assert heur.num_blocks >= exact.num_blocks, (
            f"heuristic {heur.num_blocks} beat the certified optimum "
            f"{exact.num_blocks} at n={spec.n} λ={spec.lam}"
        )
        _assert_envelope_valid(heur)


class TestRestrictedDemand:
    @settings(max_examples=25, deadline=None)
    @given(spec=_restricted_specs())
    def test_exact_vs_heuristic_on_restricted_covers(self, spec: CoverSpec):
        exact = _exact(spec)
        assert exact.status == "proven_optimal"
        _assert_envelope_valid(exact)
        heur = solve(
            CoverSpec.from_payload(
                {**spec.to_payload(), "backend": "heuristic", "require_optimal": False}
            ),
            cache=None,
        )
        assert heur.num_blocks >= exact.num_blocks
        _assert_envelope_valid(heur)

    @settings(max_examples=25, deadline=None)
    @given(spec=_restricted_specs())
    def test_lower_bound_certificate_holds(self, spec: CoverSpec):
        exact = _exact(spec)
        assert exact.lower_bound is not None
        assert exact.lower_bound <= exact.num_blocks


class TestEnvelopeDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(spec=_uniform_specs())
    def test_same_spec_same_bytes(self, spec: CoverSpec):
        first = solve(spec, cache=None)
        second = solve(spec, cache=None)
        assert first.to_json() == second.to_json()


class TestCrossObjective:
    """The objective axis, checked differentially: for every objective
    the heuristic value dominates the exact optimum, every envelope
    re-verifies under its own objective, and the two objectives relate
    the way the theory says they must."""

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(4, 8))
    def test_mts_heuristic_never_beats_exact(self, n: int):
        exact = solve(
            CoverSpec.for_ring(n, objective="min_total_size", backend="exact"),
            cache=None,
        )
        assert exact.status == "proven_optimal"
        _assert_envelope_valid(exact)
        heur = solve(
            CoverSpec.for_ring(
                n, objective="min_total_size", require_optimal=False
            ),
            cache=None,
        )
        assert heur.status == "feasible"
        assert heur.objective_value >= exact.objective_value
        _assert_envelope_valid(heur)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(5, 8))
    def test_mts_closed_form_matches_exact(self, n: int):
        spec = CoverSpec.for_ring(n, objective="min_total_size")
        closed = get_backend("closed_form")
        assert closed.supports(spec), "closed_form certifies ADM optima for n ≥ 5"
        formula = closed.run(spec)
        exact = solve(
            CoverSpec.for_ring(
                n, objective="min_total_size", backend="exact", use_hints=False
            ),
            cache=None,
        )
        assert formula.objective_value == exact.objective_value
        assert formula.objective_value == formula.lower_bound
        _assert_envelope_valid(formula)
        _assert_envelope_valid(exact)

    def test_mts_n4_exceeds_parity_bound(self):
        """The one All-to-All case where the end-parity bound is not
        attained: 8 slots would need two DRC quads, which cannot reach
        the diagonals of C4, so the certified optimum is 9."""
        result = solve(
            CoverSpec.for_ring(4, objective="min_total_size"), cache=None
        )
        assert result.backend == "exact"
        assert result.status == "proven_optimal"
        assert result.objective_value == 9
        assert result.lower_bound == 8

    @settings(max_examples=15, deadline=None)
    @given(spec=_restricted_specs())
    def test_mts_on_restricted_demand(self, spec: CoverSpec):
        mts = CoverSpec.from_payload(
            {**spec.to_payload(), "objective": "min_total_size", "backend": "exact"}
        )
        exact = solve(mts, cache=None)
        assert exact.status == "proven_optimal"
        _assert_envelope_valid(exact)
        heur = solve(
            CoverSpec.from_payload(
                {
                    **spec.to_payload(),
                    "objective": "min_total_size",
                    "backend": "heuristic",
                    "require_optimal": False,
                }
            ),
            cache=None,
        )
        assert heur.objective_value >= exact.objective_value
        _assert_envelope_valid(heur)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(5, 8))
    def test_restricted_cover_triangles_only(self, n: int):
        """min_blocks under allowed_sizes = {3}: certified, admissible,
        and never cheaper than the unrestricted optimum."""
        restricted = solve(
            CoverSpec.for_ring(n, allowed_sizes=(3,)), cache=None
        )
        assert restricted.status == "proven_optimal"
        assert all(blk.size == 3 for blk in restricted.covering.blocks)
        _assert_envelope_valid(restricted)
        free = solve(CoverSpec.for_ring(n, use_hints=False, backend="exact"), cache=None)
        assert restricted.num_blocks >= free.num_blocks

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(5, 8))
    def test_sharded_matches_serial_across_objectives(self, n: int):
        serial = solve(
            CoverSpec.for_ring(
                n, objective="min_total_size", backend="exact", use_hints=False
            ),
            cache=None,
        )
        sharded = solve(
            CoverSpec.for_ring(
                n,
                objective="min_total_size",
                backend="exact_sharded",
                use_hints=False,
                workers=2,
            ),
            cache=None,
        )
        assert sharded.status == "proven_optimal"
        assert sharded.objective_value == serial.objective_value
        _assert_envelope_valid(sharded)


@pytest.fixture(params=("internal", "pysat"))
def sat_engine(request, monkeypatch):
    """Parametrize a test over both SAT engines via ``REPRO_SAT`` (the
    pysat leg skips cleanly when python-sat is not installed — the
    internal CDCL is the contractual fallback CI always runs)."""
    name = request.param
    if name not in available_engines():
        pytest.skip("python-sat not installed — internal CDCL is the fallback")
    monkeypatch.setenv(SAT_ENGINE_ENV, name)
    return name


def _sat(spec: CoverSpec) -> Result:
    return solve(
        CoverSpec.from_payload(
            {**spec.to_payload(), "backend": "sat", "use_hints": False}
        ),
        cache=None,
    )


class TestSatDifferential:
    """The SAT tier against the exact oracle: same optima, verified
    coverings, replayable certificates — under *both* engines, so the
    internal CDCL can never silently drift from the pysat answer."""

    @pytest.mark.parametrize("n", range(4, 11))
    def test_uniform_matches_certified_optimum(self, n: int, sat_engine):
        sat = _sat(CoverSpec.for_ring(n))
        oracle = solve(CoverSpec.for_ring(n), cache=None)
        assert sat.status == "proven_optimal"
        assert sat.backend == "sat"
        assert sat.num_blocks == oracle.num_blocks, (
            f"sat[{sat_engine}]={sat.num_blocks} != "
            f"{oracle.backend}={oracle.num_blocks} at n={n}"
        )
        assert sat.sat_certificate is not None
        assert sat.sat_certificate["engine"] == sat_engine
        _assert_envelope_valid(sat)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_lambda_fold_matches_exact(self, n: int, sat_engine):
        spec = CoverSpec.for_ring(n, lam=2)
        sat = _sat(spec)
        exact = _exact(spec)
        assert sat.status == "proven_optimal"
        assert sat.num_blocks == exact.num_blocks
        _assert_envelope_valid(sat)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(5, 7),
        sizes=st.sampled_from([(3,), (4,), (3, 4)]),
    )
    def test_restricted_pools_match_exact(self, n: int, sizes, sat_engine):
        # Small n only: weak packing bounds make triangle-only pools
        # expensive for B&B and SAT alike beyond n = 7.
        spec = CoverSpec.for_ring(n, allowed_sizes=sizes)
        sat = _sat(spec)
        exact = _exact(spec)
        assert sat.status == "proven_optimal"
        assert sat.num_blocks == exact.num_blocks
        assert all(blk.size in sizes for blk in sat.covering.blocks)
        _assert_envelope_valid(sat)

    def test_certificate_replays(self, sat_engine):
        from repro.sat.backend import replay_unsat_core

        spec = CoverSpec.from_payload(
            {**CoverSpec.for_ring(8).to_payload(), "backend": "sat", "use_hints": False}
        )
        res = solve(spec, cache=None)
        replay_unsat_core(spec, res.sat_certificate, engine=sat_engine)

    def test_engines_agree_on_the_envelope_value(self):
        # Both engines must land the same optimum and the same
        # certificate arithmetic (models may differ; values may not).
        results = {}
        for engine in available_engines():
            import os

            prior = os.environ.get(SAT_ENGINE_ENV)
            os.environ[SAT_ENGINE_ENV] = engine
            try:
                results[engine] = _sat(CoverSpec.for_ring(7))
            finally:
                if prior is None:
                    os.environ.pop(SAT_ENGINE_ENV, None)
                else:
                    os.environ[SAT_ENGINE_ENV] = prior
        values = {r.num_blocks for r in results.values()}
        assert len(values) == 1
        unsat_ks = {r.sat_certificate["unsat_k"] for r in results.values()}
        assert len(unsat_ks) == 1


class TestMinBlocksGoldens:
    """The no-regression anchor of the objective redesign: every
    pre-objective ``min_blocks`` envelope (certification runs, routed
    closed forms, heuristic, λ-fold, restricted demand) must come back
    byte-identical — same spec hashes, same statuses, same node counts,
    same JSON.  BENCH_solver.json's statuses/node counts ride on the
    exact-certification entries."""

    @pytest.fixture(scope="class")
    def goldens(self) -> dict:
        with open(_GOLDEN_DIR / "min_blocks_envelopes.json", encoding="utf-8") as f:
            return json.load(f)

    def test_envelopes_byte_identical(self, goldens):
        for spec_hash, doc in sorted(goldens.items(), key=lambda kv: kv[1]["label"]):
            payload = json.loads(doc["json"])
            spec = CoverSpec.from_payload(payload["spec"])
            assert spec.spec_hash == spec_hash, f"{doc['label']}: spec hash drifted"
            result = solve(spec, cache=None)
            assert result.to_json() == doc["json"], (
                f"{doc['label']}: envelope bytes drifted from the pre-objective golden"
            )

    def test_bench_solver_node_counts_reproduced(self, goldens):
        """Rebuild ``BENCH_solver.json``'s certification rows with the
        sweep the benchmark itself runs (in-process, one worker, FIFO)
        over every ring size that has a golden exact entry, so the
        cross-check needs no bench artifact on disk.  No shard threshold
        is passed: the goldens pin the unsharded ``exact`` backend, which
        is what the benchmark runs below its own threshold."""
        from repro.analysis.experiments import experiment_solver_certification

        exact = {}
        for doc in goldens.values():
            payload = json.loads(doc["json"])
            if payload["backend"] == "exact" and not payload["spec"]["use_hints"]:
                exact[payload["spec"]["n"]] = payload
        assert exact, "no golden exact-certification entries"
        rows = experiment_solver_certification(tuple(sorted(exact))).rows
        by_n = {row["n"]: row for row in rows}
        for n, payload in sorted(exact.items()):
            assert payload["stats"]["nodes"] == by_n[n]["nodes"], (
                f"n={n}: golden node count diverged from the benchmark sweep"
            )
            assert payload["status"] == "proven_optimal"
            assert by_n[n]["proven"]


class TestCheckpointResume:
    """Envelope byte-identity across checkpoint/resume histories — the
    differential suite is the oracle the checkpoint subsystem answers
    to.  However a proof is sliced (deadline preemptions, voluntary
    preempt budgets, node-limit overruns), the reassembled envelope
    must be the bytes an uninterrupted solve produces: same covering,
    same node count, same provenance, same JSON."""

    def test_n8_certification_resumes_byte_identical(self, tmp_path):
        from repro.api import CheckpointStore
        from repro.util.errors import SolverPreempted

        spec = CoverSpec.for_ring(8, backend="exact", use_hints=False)
        oracle = solve(spec, cache=None)
        store = CheckpointStore(tmp_path / "ckpts")
        cycles = 0
        while True:
            prior = store.load(spec.spec_hash)
            floor = prior.nodes if prior is not None else 0
            try:
                result = solve(
                    spec,
                    cache=None,
                    checkpoints=store,
                    preempt=lambda st, _f=floor: st.nodes >= _f + 800,
                )
                break
            except SolverPreempted:
                cycles += 1
                assert cycles < 50
                assert store.load(spec.spec_hash) is not None
        assert cycles >= 2  # the proof really was sliced up
        assert result.to_json() == oracle.to_json()
        assert result.stats.nodes == oracle.stats.nodes
        # Runtime lineage is visible in-process but never serialized.
        assert result.provenance["resume"]["resumes"] == cycles
        assert "resume" not in json.loads(result.to_json())["provenance"]
        assert store.load(spec.spec_hash) is None  # success cleans up

    @settings(max_examples=6, deadline=None)
    @given(n=st.integers(5, 8), step=st.integers(280, 1200))
    def test_resume_history_never_changes_bytes(self, n: int, step: int):
        from repro.api import MemoryCheckpointStore
        from repro.util.errors import SolverPreempted

        spec = CoverSpec.for_ring(n, backend="exact", use_hints=False)
        oracle = solve(spec, cache=None)
        store = MemoryCheckpointStore()
        for _ in range(60):
            prior = store.load(spec.spec_hash)
            floor = prior.nodes if prior is not None else 0
            try:
                result = solve(
                    spec,
                    cache=None,
                    checkpoints=store,
                    preempt=lambda st, _f=floor: st.nodes >= _f + step,
                )
                break
            except SolverPreempted:
                continue
        else:
            pytest.fail("preemption never converged")
        assert result.to_json() == oracle.to_json()
        _assert_envelope_valid(result)
