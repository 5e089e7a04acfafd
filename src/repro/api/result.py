"""The uniform :class:`Result` envelope every backend returns.

One shape for every tier: the covering itself, a three-valued status
(``proven_optimal`` — exhaustive branch-and-bound; ``closed_form`` —
a Theorem 1/2 construction whose optimality the formula certificates
prove; ``feasible`` — heuristic, valid but unproven), the solver
statistics, the lower-bound certificates backing any optimality claim,
and provenance (backend, spec, canonical spec hash, library version).

Serialisation is deterministic — sorted keys, no timestamps — so a
result round-trips to *byte-identical* JSON, which is what lets the
content-addressed cache serve reruns verbatim and lets CI diff two
sweep outputs with ``cmp``.  The covering payload inside the envelope
is the standard :mod:`repro.io` document, version checks included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any

from ..core.covering import Covering
from ..core.stats import SolverStats
from ..util.errors import InvalidCoveringError
from .spec import CoverSpec, SpecError

__all__ = [
    "Result",
    "DEGRADE_PROVENANCE_KEY",
    "RESULT_FORMAT",
    "RESULT_SCHEMA_MAJOR",
    "RESUME_PROVENANCE_KEY",
    "STATUSES",
]

RESULT_FORMAT = "repro-result"

# Runtime-only provenance key carrying resume lineage; stripped from
# every serialized envelope so checkpoint/resume history can never
# change result bytes.
RESUME_PROVENANCE_KEY = "resume"
# Runtime-only provenance key recording a graceful degradation: an
# exact job that exhausted its retries/deadline and was re-routed
# through the heuristic backend by the dispatcher.  Stripped from every
# serialized envelope like resume lineage — cached *certified*
# envelopes stay byte-identical, and a degraded envelope serialises
# exactly like a native heuristic solve of the fallback spec.
DEGRADE_PROVENANCE_KEY = "degraded"
RESULT_SCHEMA_MAJOR = 1
# Minor 1 added the optional ``objective_value`` field.  Envelopes for
# legacy-shaped jobs (objective ``min_blocks``, no size restriction)
# keep the minor-0 spelling — no new key, byte-identical JSON — so
# cached results and the BENCH goldens survive the bump; envelopes for
# the new objective axis stamp minor 1 and carry their value.  Readers
# accept both (minor revisions add optional fields only).
# Minor 2 added the optional ``sat_certificate`` field: only envelopes
# produced by the ``sat`` backend carry it (and the minor-2 stamp), so
# every other backend's envelope stays byte-identical.
_RESULT_SCHEMA_MINOR = 2

STATUSES = ("proven_optimal", "closed_form", "feasible")


def _extended_spec(spec: CoverSpec) -> bool:
    """True when the spec exercises the objective axis (anything beyond
    unrestricted ``min_blocks``) — the envelope then carries
    ``objective_value`` and the minor-1 schema stamp."""
    return spec.objective != "min_blocks" or spec.allowed_sizes is not None


@dataclass(frozen=True)
class Result:
    """Outcome of one :func:`repro.api.solve` call.

    ``from_cache`` is runtime-only bookkeeping (did this envelope come
    off disk?) and deliberately excluded from equality and JSON — a
    cached result must serialise byte-identically to the original.
    """

    spec: CoverSpec
    covering: Covering
    status: str
    backend: str
    stats: SolverStats
    lower_bound: int | None = None
    certificates: tuple[str, ...] = ()
    # The covering's value under the spec's objective.  Normalised in
    # __post_init__: recomputed for objective-axis specs (so cache
    # round-trips and worker envelopes always agree), forced to None
    # for legacy-shaped min_blocks jobs (whose envelopes must stay
    # byte-identical to the pre-objective schema).
    objective_value: int | None = None
    # The SAT backend's replayable optimality certificate: the UNSAT
    # assumption core at ``optimum − 1`` plus the encoding provenance
    # (CNF SHA-256, engine, per-k statistics) an auditor needs to
    # rebuild the CNF and re-refute the core.  ``None`` for every other
    # backend — the key is then absent from the serialized envelope.
    sat_certificate: dict[str, Any] | None = None
    from_cache: bool = field(default=False, compare=False)
    # Stamped at first serialisation and round-tripped verbatim after
    # that, so a cache hit keeps the *producing* library's version (and
    # stays byte-identical across upgrades).  Metadata, not identity —
    # excluded from equality like from_cache.
    provenance: dict[str, Any] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise SpecError(
                f"unknown result status {self.status!r} (expected one of {STATUSES})"
            )
        if not isinstance(self.backend, str) or not self.backend:
            raise SpecError(f"result backend must be a non-empty string, got {self.backend!r}")
        if self.covering.n != self.spec.n:
            raise SpecError(
                f"covering order {self.covering.n} ≠ spec order {self.spec.n}"
            )
        if _extended_spec(self.spec):
            from ..core.objective import get_objective

            value = get_objective(self.spec.objective).covering_value(self.covering)
            if self.objective_value is not None and self.objective_value != value:
                raise SpecError(
                    f"declared objective_value {self.objective_value} ≠ recomputed "
                    f"{self.spec.objective} value {value}"
                )
            object.__setattr__(self, "objective_value", value)
        else:
            object.__setattr__(self, "objective_value", None)

    # -- convenience -----------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return self.covering.num_blocks

    @property
    def proven_optimal(self) -> bool:
        """True when optimality is certified (by exhaustion or formula)."""
        return self.status in ("proven_optimal", "closed_form")

    @property
    def spec_hash(self) -> str:
        return self.spec.spec_hash

    def summary(self) -> str:
        origin = " [cache]" if self.from_cache else ""
        value = (
            f" {self.spec.objective}={self.objective_value}"
            if self.objective_value is not None
            else ""
        )
        return (
            f"n={self.spec.n} λ={self.spec.lam} backend={self.backend} "
            f"status={self.status} blocks={self.num_blocks}{value} "
            f"nodes={self.stats.nodes}{origin}"
        )

    # -- serialisation ---------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        from ..io import covering_to_payload, schema_version_field

        if self.sat_certificate is not None:
            minor = _RESULT_SCHEMA_MINOR
        elif _extended_spec(self.spec):
            minor = 1
        else:
            minor = 0
        payload = {
            "format": RESULT_FORMAT,
            "version": schema_version_field(RESULT_SCHEMA_MAJOR, minor),
            "spec": self.spec.to_payload(),
            "spec_hash": self.spec.spec_hash,
            "status": self.status,
            "backend": self.backend,
            "covering": covering_to_payload(self.covering),
            "stats": {
                "nodes": self.stats.nodes,
                "best_value": self.stats.best_value,
                "proven_optimal": self.stats.proven_optimal,
                "shards": self.stats.shards,
            },
            "lower_bound": self.lower_bound,
            "certificates": list(self.certificates),
            "provenance": self._serialized_provenance(),
        }
        if _extended_spec(self.spec):
            payload["objective_value"] = self.objective_value
        if self.sat_certificate is not None:
            payload["sat_certificate"] = self.sat_certificate
        return payload

    def _provenance(self) -> dict[str, Any]:
        from .. import __version__

        return {"library": "repro", "library_version": __version__}

    def _serialized_provenance(self) -> dict[str, Any]:
        """The provenance dict that enters the envelope: the stamped
        (or round-tripped) metadata *minus* the runtime-only resume
        lineage — envelopes must stay byte-identical regardless of how
        many preempt/resume cycles produced them."""
        prov = (
            dict(self.provenance)
            if self.provenance is not None
            else self._provenance()
        )
        prov.pop(RESUME_PROVENANCE_KEY, None)
        prov.pop(DEGRADE_PROVENANCE_KEY, None)
        return prov

    def annotate_resume(self, lineage: dict[str, Any]) -> "Result":
        """A copy carrying runtime-only resume lineage under
        ``provenance["resume"]`` (how many cycles, the checkpoint's
        node floor).  Callers can inspect it in-process; serialization
        strips it so the envelope is byte-identical to an uninterrupted
        run's."""
        base = (
            dict(self.provenance)
            if self.provenance is not None
            else self._provenance()
        )
        base[RESUME_PROVENANCE_KEY] = dict(lineage)
        return replace(self, provenance=base)

    def annotate_degraded(self, info: dict[str, Any]) -> "Result":
        """A copy carrying runtime-only degradation provenance under
        ``provenance["degraded"]`` (the original spec hash and backend,
        the failure that triggered the fallback).  Callers inspect it
        in-process; serialization strips it, like resume lineage."""
        base = (
            dict(self.provenance)
            if self.provenance is not None
            else self._provenance()
        )
        base[DEGRADE_PROVENANCE_KEY] = dict(info)
        return replace(self, provenance=base)

    @classmethod
    def from_payload(cls, payload: Any, *, verify: bool = False) -> "Result":
        """Rebuild a result from :meth:`to_payload` output.

        Raises :class:`SpecError` / :class:`InvalidCoveringError` on any
        structural problem — the cache treats every failure here as a
        corrupt entry.  ``verify=True`` additionally re-runs the DRC and
        coverage verifier on the embedded covering.
        """
        from ..io import covering_from_payload, require_schema

        require_schema(payload, RESULT_FORMAT, RESULT_SCHEMA_MAJOR)
        spec = CoverSpec.from_payload(payload.get("spec"))
        declared = payload.get("spec_hash")
        if declared != spec.spec_hash:
            raise SpecError(
                f"result envelope spec_hash {declared!r} does not match "
                f"its spec (expected {spec.spec_hash})"
            )
        covering = covering_from_payload(payload.get("covering"))
        if verify and not covering.covers(spec.instance()):
            raise InvalidCoveringError(
                "cached covering does not cover its spec's demand"
            )
        raw_stats = payload.get("stats")
        if not isinstance(raw_stats, dict):
            raise SpecError(f"malformed stats payload: {raw_stats!r}")
        stats = SolverStats(
            nodes=int(raw_stats.get("nodes", 0)),
            best_value=raw_stats.get("best_value"),
            proven_optimal=bool(raw_stats.get("proven_optimal", False)),
            shards=int(raw_stats.get("shards", 0)),
        )
        certificates = payload.get("certificates") or ()
        if not isinstance(certificates, (list, tuple)) or not all(
            isinstance(c, str) for c in certificates
        ):
            raise SpecError(f"malformed certificates payload: {certificates!r}")
        provenance = payload.get("provenance")
        if provenance is not None and not isinstance(provenance, dict):
            raise SpecError(f"malformed provenance payload: {provenance!r}")
        sat_certificate = payload.get("sat_certificate")
        if sat_certificate is not None and not isinstance(sat_certificate, dict):
            raise SpecError(f"malformed sat_certificate payload: {sat_certificate!r}")
        return cls(
            spec=spec,
            covering=covering,
            status=payload.get("status"),
            backend=payload.get("backend"),
            stats=stats,
            lower_bound=payload.get("lower_bound"),
            certificates=tuple(certificates),
            objective_value=payload.get("objective_value"),
            sat_certificate=sat_certificate,
            provenance=provenance,
        )

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, stable field set) — two
        results with the same content are byte-identical."""
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, *, verify: bool = False) -> "Result":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"not valid JSON: {exc}") from exc
        return cls.from_payload(payload, verify=verify)
