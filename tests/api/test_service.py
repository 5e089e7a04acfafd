"""Service-level behaviour: solve/solve_batch, statuses, envelopes.

These tests check the acceptance contract end to end: one call path
(``api.solve``) reproduces the certified ρ(n) values with the right
status per tier, every result validates against its spec's demand, and
the ``Result`` envelope round-trips through deterministic JSON.
"""

from __future__ import annotations

import pytest

from repro.api import (
    Backend,
    CoverSpec,
    Result,
    SpecError,
    available_backends,
    get_backend,
    solve,
    solve_batch,
)
from repro.core.formulas import rho
from repro.core.verify import verify_covering


class TestTiers:
    def test_closed_form_tier(self):
        result = solve(CoverSpec.for_ring(11))
        assert result.status == "closed_form"
        assert result.backend == "closed_form"
        assert result.num_blocks == rho(11) == result.lower_bound
        assert result.proven_optimal
        assert result.stats.nodes == 0
        assert "theorem1_odd" in result.certificates

    def test_exact_tier_certifies_rho(self):
        result = solve(CoverSpec.for_ring(7, backend="exact", use_hints=False))
        assert result.status == "proven_optimal"
        assert result.num_blocks == rho(7)
        assert result.stats.proven_optimal
        assert "branch_and_bound_exhaustive" in result.certificates

    def test_heuristic_tier_is_feasible_only(self):
        result = solve(CoverSpec.for_ring(14, require_optimal=False))
        assert result.status == "feasible"
        assert not result.proven_optimal
        assert result.lower_bound <= result.num_blocks
        assert verify_covering(result.covering).valid

    def test_every_result_covers_its_demand(self):
        for spec in (
            CoverSpec.for_ring(8),
            CoverSpec.for_ring(6, backend="exact"),
            CoverSpec(n=7, demand=((0, 2, 2), (1, 4, 1))),
        ):
            result = solve(spec)
            assert result.covering.covers(spec.instance())

    @pytest.mark.parametrize(
        "regime",
        ({"branching": "scarcest"}, {"use_memo": False}),
        ids=("scarcest", "nomemo"),
    )
    @pytest.mark.parametrize(
        "shape",
        ({"lam": 2}, {"demand": ((0, 2, 2), (1, 4, 1))}),
        ids=("lambda", "demand"),
    )
    def test_instance_search_rejects_kn_regime(self, shape, regime):
        # The instance search has no branching order or memo switch: a
        # spec naming one would record (and cache) a regime that never ran.
        if "demand" in shape:
            spec = CoverSpec(n=6, backend="exact", **shape, **regime)
        else:
            spec = CoverSpec.for_ring(6, backend="exact", **shape, **regime)
        with pytest.raises(SpecError, match="instance search"):
            solve(spec)

    def test_kn_search_honours_regime(self):
        result = solve(
            CoverSpec.for_ring(6, backend="exact", use_hints=False, use_memo=False)
        )
        assert result.num_blocks == rho(6)

    def test_exact_matches_closed_form_value(self):
        for n in (6, 7, 8):
            exact = solve(CoverSpec.for_ring(n, backend="exact", use_hints=False))
            closed = solve(CoverSpec.for_ring(n))
            assert exact.num_blocks == closed.num_blocks == rho(n)


class TestBatch:
    def test_order_matches_specs_and_cache_is_shared(self, tmp_path):
        specs = [CoverSpec.for_ring(n) for n in (5, 6, 7)]
        results = solve_batch(specs, cache=tmp_path / "c")
        assert [r.spec.n for r in results] == [5, 6, 7]
        again = solve_batch(specs, cache=tmp_path / "c")
        assert all(r.from_cache for r in again)
        assert [a.to_json() for a in again] == [r.to_json() for r in results]


class TestEnvelope:
    def test_json_round_trip(self):
        result = solve(CoverSpec.for_ring(6, backend="exact", use_hints=False))
        again = Result.from_json(result.to_json(), verify=True)
        assert again == result
        assert again.to_json() == result.to_json()

    def test_repeated_solves_are_byte_identical(self):
        spec = CoverSpec.for_ring(8, backend="exact", use_hints=False)
        assert solve(spec).to_json() == solve(spec).to_json()

    def test_unknown_status_rejected(self):
        result = solve(CoverSpec.for_ring(5))
        with pytest.raises(SpecError, match="status"):
            Result(
                spec=result.spec,
                covering=result.covering,
                status="maybe",
                backend="exact",
                stats=result.stats,
            )

    def test_spec_hash_stamped_into_payload(self):
        result = solve(CoverSpec.for_ring(5))
        payload = result.to_payload()
        assert payload["spec_hash"] == result.spec.spec_hash
        assert payload["provenance"]["library"] == "repro"


class TestRegistry:
    def test_stock_backends_registered(self):
        assert set(available_backends()) >= {
            "closed_form",
            "exact",
            "exact_sharded",
            "heuristic",
        }

    def test_backends_satisfy_the_protocol(self):
        for name in available_backends():
            assert isinstance(get_backend(name), Backend)

    def test_unknown_backend_raises(self):
        with pytest.raises(SpecError, match="unknown backend"):
            get_backend("quantum")


class TestProvenance:
    def test_provenance_round_trips_verbatim(self):
        # A cached envelope keeps the *producing* library's stamp, so
        # reruns stay byte-identical across upgrades.
        result = solve(CoverSpec.for_ring(5))
        payload = result.to_payload()
        payload["provenance"]["library_version"] = "0.0.1"
        import json

        again = Result.from_json(json.dumps(payload))
        assert again.to_payload()["provenance"]["library_version"] == "0.0.1"
        assert again == result  # provenance is metadata, not identity


class TestRoutingErrorHierarchy:
    def test_api_routing_error_is_a_util_routing_error(self):
        from repro.api import RoutingError as ApiRoutingError
        from repro.util.errors import ReproError, RoutingError

        assert issubclass(ApiRoutingError, RoutingError)
        assert issubclass(ApiRoutingError, ReproError)

    def test_catchable_via_the_library_wide_spelling(self):
        from repro.util.errors import RoutingError

        with pytest.raises(RoutingError):
            solve(CoverSpec.for_ring(18, lam=2))
