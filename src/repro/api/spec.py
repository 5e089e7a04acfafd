"""Declarative job specs: :class:`CoverSpec`, the API's wire format.

A :class:`CoverSpec` is a frozen, hashable, JSON-round-trippable
description of one covering job — *what* to cover (a ring's All-to-All
``λK_n`` demand or an arbitrary chord multiset), *what counts as done*
(objective, optimality requirement), *how hard to try* (node and time
budgets), and *which machinery may run* (backend pin, block pool,
worker/shard policy, solver-regime knobs).  Everything downstream —
the router, the backends, the result cache — keys off the spec alone,
so the same spec always means the same job.

Canonicalisation matters for the content-addressed cache: explicit
demand that turns out to be uniform All-to-All is normalised to the
``(n, λ)`` spelling at construction, so ``CoverSpec.from_instance(
lambda_all_to_all(7, 2))`` and ``CoverSpec.for_ring(7, lam=2)`` are
*equal*, hash identically, and share a cache entry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any

from ..core.objective import available_objectives
from ..core.stats import BRANCHING_ORDERS
from ..traffic.instances import Instance, all_to_all, lambda_all_to_all
from ..util import circular
from ..util.errors import ReproError

__all__ = ["CoverSpec", "SpecError", "SPEC_FORMAT", "SPEC_SCHEMA_MAJOR"]

SPEC_FORMAT = "repro-coverspec"
SPEC_SCHEMA_MAJOR = 1
# Minor 1 added the optional ``allowed_sizes`` field (restricted
# covers).  Specs without a restriction serialise in the minor-0
# spelling — no new key, same canonical JSON — so every pre-existing
# spec hash (and with it every cache entry and envelope byte) is
# untouched, while restricted specs self-describe as the newer minor.
_SPEC_SCHEMA_MINOR = 1

_POOLS = ("auto", "convex", "tight")


class SpecError(ReproError, ValueError):
    """A cover spec is malformed or internally inconsistent."""


@dataclass(frozen=True)
class CoverSpec:
    """One covering job, declaratively.

    Demand
        ``n`` is the ring order.  ``demand=None`` means the uniform
        ``λK_n`` instance with multiplicity ``lam`` (the paper's
        headline case at ``lam=1``); otherwise ``demand`` is a tuple of
        ``(a, b, multiplicity)`` chords and ``lam`` must stay 1.
    Objective & guarantees
        ``objective`` names a registered :class:`repro.core.objective.
        Objective` — the quantity minimised.  ``min_blocks`` (the
        paper's ρ) and ``min_total_size`` (ring-size sum / ADM count,
        refs [3]/[4]) ship by default; out-of-tree objectives join via
        :func:`repro.core.objective.register_objective` with no wire-
        format break.  ``allowed_sizes`` restricts candidate cycle
        lengths to a set ``L`` (Manthey-style restricted cycle covers);
        ``None`` admits every length up to ``max_size``, and a
        restriction naming all of ``3..max_size`` canonicalises back to
        ``None`` so equivalent specs share a hash.
        ``require_optimal=False`` admits the heuristic tier (greedy +
        local search).
    Budgets
        ``node_limit`` caps branch-and-bound nodes; ``time_budget`` is
        wall-clock seconds for the exact tiers.  Both raise on overrun
        rather than silently degrade.
    Machinery
        ``backend`` pins a registered backend by name (``None`` lets the
        router choose).  ``use_hints=False`` forbids warm-start upper
        bounds from other tiers — certification mode, where the solver
        must prove optimality knowing nothing.  (Cross-tier hints thread
        into the uniform ``K_n`` searches only; the instance solver
        seeds its own incumbent and takes no external bound.)
        ``pool``, ``max_size``,
        ``branching``, ``use_memo`` select the candidate-block pool and
        solver regime; ``workers``/``shard_threshold`` the scale-out
        policy.
    """

    n: int
    demand: tuple[tuple[int, int, int], ...] | None = None
    lam: int = 1
    max_size: int = 4
    pool: str = "auto"
    objective: str = "min_blocks"
    require_optimal: bool = True
    use_hints: bool = True
    improve: bool = True
    node_limit: int | None = None
    time_budget: float | None = None
    workers: int | None = None
    shard_threshold: int | None = None
    backend: str | None = None
    branching: str = "lex"
    use_memo: bool = True
    allowed_sizes: tuple[int, ...] | None = None

    # -- construction ----------------------------------------------------

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 3:
            raise SpecError(f"ring order n must be an int ≥ 3, got {self.n!r}")
        if not isinstance(self.lam, int) or isinstance(self.lam, bool) or self.lam < 1:
            raise SpecError(f"multiplicity λ must be an int ≥ 1, got {self.lam!r}")
        if self.max_size < 3:
            raise SpecError(f"max block size must be ≥ 3, got {self.max_size}")
        registered = available_objectives()
        if self.objective not in registered:
            raise SpecError(
                f"unknown objective {self.objective!r} — registered objectives: "
                f"{', '.join(registered)} (extend the set with "
                "repro.core.objective.register_objective)"
            )
        if self.pool not in _POOLS:
            raise SpecError(f"unknown pool {self.pool!r} (expected one of {_POOLS})")
        if self.branching not in BRANCHING_ORDERS:
            raise SpecError(
                f"unknown branching {self.branching!r} "
                f"(expected one of {BRANCHING_ORDERS})"
            )
        if self.node_limit is not None and self.node_limit < 1:
            raise SpecError(f"node_limit must be ≥ 1, got {self.node_limit}")
        if self.time_budget is not None and not self.time_budget > 0:
            raise SpecError(f"time_budget must be > 0, got {self.time_budget}")
        if self.workers is not None and self.workers < 1:
            raise SpecError(f"workers must be ≥ 1, got {self.workers}")
        if self.shard_threshold is not None and self.shard_threshold < 3:
            raise SpecError(f"shard_threshold must be ≥ 3, got {self.shard_threshold}")
        if self.allowed_sizes is not None:
            object.__setattr__(
                self, "allowed_sizes", self._normalise_allowed_sizes(self.allowed_sizes)
            )
        if self.demand is not None:
            if self.lam != 1:
                raise SpecError(
                    "explicit demand and λ > 1 are mutually exclusive — "
                    "fold the multiplicity into the demand entries"
                )
            object.__setattr__(self, "demand", self._normalise_demand(self.demand))
            self._canonicalise_uniform()

    def _normalise_allowed_sizes(self, raw) -> tuple[int, ...] | None:
        """Sorted, deduplicated, range-checked size restriction; a
        restriction naming every length in ``3..max_size`` is no
        restriction at all and canonicalises to ``None`` (one hash per
        equivalent job)."""
        try:
            entries = tuple(raw)
        except TypeError as exc:
            raise SpecError(f"allowed_sizes must be a sequence, got {raw!r}") from exc
        if not entries:
            raise SpecError("allowed_sizes must name at least one cycle length")
        for s in entries:
            if not isinstance(s, int) or isinstance(s, bool):
                raise SpecError(f"allowed cycle length {s!r} is not an int")
            if not 3 <= s <= self.max_size:
                raise SpecError(
                    f"allowed cycle length {s} is outside 3..max_size={self.max_size}"
                )
        sizes = tuple(sorted(set(entries)))
        if sizes == tuple(range(3, self.max_size + 1)):
            return None
        return sizes

    def _normalise_demand(
        self, raw: tuple[tuple[int, int, int], ...]
    ) -> tuple[tuple[int, int, int], ...]:
        merged: dict[tuple[int, int], int] = {}
        for entry in raw:
            try:
                a, b, m = entry
            except (TypeError, ValueError) as exc:
                raise SpecError(f"demand entry {entry!r} is not (a, b, m)") from exc
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in (a, b, m)):
                raise SpecError(f"demand entry {entry!r} must be integers")
            if not (0 <= a < self.n and 0 <= b < self.n) or a == b:
                raise SpecError(f"demand chord ({a}, {b}) is not a chord of C_{self.n}")
            if m < 1:
                raise SpecError(f"demand multiplicity must be ≥ 1, got {m} for ({a}, {b})")
            e = circular.chord(a, b)
            merged[e] = merged.get(e, 0) + m
        if not merged:
            raise SpecError("explicit demand must request at least one chord")
        return tuple((a, b, m) for (a, b), m in sorted(merged.items()))

    def _canonicalise_uniform(self) -> None:
        """Fold a demand that is exactly uniform All-to-All back into the
        ``(n, λ)`` spelling so equivalent specs are equal (and cache to
        the same key)."""
        assert self.demand is not None
        if len(self.demand) != circular.n_chords(self.n):
            return
        mults = {m for (_, _, m) in self.demand}
        if len(mults) != 1:
            return
        object.__setattr__(self, "lam", mults.pop())
        object.__setattr__(self, "demand", None)

    @classmethod
    def for_ring(cls, n: int, *, lam: int = 1, **kwargs: Any) -> "CoverSpec":
        """The uniform ``λK_n`` job (the paper's All-to-All at λ=1)."""
        return cls(n=n, lam=lam, **kwargs)

    @classmethod
    def from_instance(cls, instance: Instance, **kwargs: Any) -> "CoverSpec":
        """A job for an arbitrary :class:`~repro.traffic.instances.Instance`
        (uniform instances canonicalise to the ``(n, λ)`` spelling)."""
        demand = tuple((a, b, m) for (a, b), m in sorted(instance.demand.items()))
        return cls(n=instance.n, demand=demand, **kwargs)

    # -- queries ---------------------------------------------------------

    @property
    def is_all_to_all(self) -> bool:
        """True for uniform ``λK_n`` demand (closed forms / the K_n
        solver apply); explicit non-uniform demand goes through the
        instance solver."""
        return self.demand is None

    def instance(self) -> Instance:
        """Materialise the traffic instance this spec describes."""
        if self.demand is None:
            if self.lam == 1:
                return all_to_all(self.n)
            return lambda_all_to_all(self.n, self.lam)
        return Instance(
            self.n, {(a, b): m for (a, b, m) in self.demand}, name="coverspec"
        )

    # -- serialisation & hashing ----------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """The spec as a canonical JSON-ready dict (sorted demand, every
        schema-0 field explicit — the content-address preimage).

        Minor-1 fields (``allowed_sizes``) appear *only when set*, and
        the ``version`` stamp is the lowest minor that captures the
        content: an unrestricted spec keeps its historical minor-0
        bytes, hash, and cache entry.
        """
        minor = _SPEC_SCHEMA_MINOR if self.allowed_sizes is not None else 0
        payload: dict[str, Any] = {
            "format": SPEC_FORMAT,
            "version": f"{SPEC_SCHEMA_MAJOR}.{minor}",
        }
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "allowed_sizes":
                if value is None:
                    continue
                value = list(value)
            if f.name == "demand" and value is not None:
                value = [list(entry) for entry in value]
            payload[f.name] = value
        return payload

    @classmethod
    def from_payload(cls, payload: Any) -> "CoverSpec":
        """Rebuild a spec from :meth:`to_payload` output; unknown majors
        and unknown fields are rejected (the wire format is closed)."""
        from ..io import require_schema
        from ..util.errors import InvalidCoveringError

        try:
            require_schema(payload, SPEC_FORMAT, SPEC_SCHEMA_MAJOR)
        except InvalidCoveringError as exc:
            raise SpecError(str(exc)) from exc
        known = {f.name for f in fields(cls)}
        data = {k: v for k, v in payload.items() if k not in ("format", "version")}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"unknown CoverSpec field(s): {', '.join(unknown)}")
        if data.get("demand") is not None:
            try:
                data["demand"] = tuple(tuple(entry) for entry in data["demand"])
            except TypeError as exc:
                raise SpecError(f"malformed demand: {data['demand']!r}") from exc
        if data.get("allowed_sizes") is not None:
            try:
                data["allowed_sizes"] = tuple(data["allowed_sizes"])
            except TypeError as exc:
                raise SpecError(
                    f"malformed allowed_sizes: {data['allowed_sizes']!r}"
                ) from exc
        try:
            return cls(**data)
        except TypeError as exc:
            raise SpecError(f"malformed CoverSpec payload: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CoverSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"not valid JSON: {exc}") from exc
        return cls.from_payload(payload)

    @cached_property
    def spec_hash(self) -> str:
        """SHA-256 of the canonical compact JSON — the cache key and the
        provenance tag stamped into every result envelope."""
        canonical = json.dumps(
            self.to_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
