"""Serializable branch-and-bound search state: :class:`SearchCheckpoint`.

The engine's two exact searches (:meth:`SolverEngine.min_covering` over
``K_n`` and :meth:`SolverEngine.min_covering_instance` over arbitrary
demand) run on one explicit-stack loop whose entire mutable state — the
incumbent, the accumulated objective cost per frame, each frame's
candidate cursor, the transposition memo, and the unexplored root-orbit
frontier (the root frame's remaining candidates) — fits in one
:class:`SearchCheckpoint`.  A checkpoint captured at any loop boundary
and resumed later continues the *same* deterministic node sequence, so
the final covering, node count, and serialized envelope are
byte-identical to an uninterrupted run.

Serialization is JSON (schema-versioned through :mod:`repro.io`'s
``format``/``version`` convention, format tag ``repro-checkpoint``).
Chord bitmasks exceed 64 bits from ``n = 12`` on, so masks are encoded
as hex strings; everything else is plain JSON scalars.  Payloads are
deterministic: ``to_json`` sorts keys and preserves memo insertion
order (which the capped memo's FIFO eviction depends on).

:class:`CappedMemo` is the size-capped transposition memo (satellite of
the same PR): a ``dict`` in insertion order whose :meth:`~CappedMemo.store`
evicts the *oldest* entry when a new key would exceed the cap — a
deterministic, count-based policy controlled by the ``REPRO_MEMO_CAP``
environment variable (``0`` disables the cap).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any

from ..util.errors import SolverError

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_SCHEMA_MAJOR",
    "CappedMemo",
    "DEFAULT_MEMO_CAP",
    "KIND_INSTANCE",
    "KIND_KN",
    "KIND_SAT",
    "MEMO_CAP_ENV",
    "SearchCheckpoint",
    "memo_cap",
]

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_SCHEMA_MAJOR = 1
# Minor 1 added the ``sat`` kind: the SAT certification backend's walk
# state (no frames/memo — its resumable unit is the per-k boundary).
_CHECKPOINT_SCHEMA_MINOR = 1

KIND_KN = "kn"
KIND_INSTANCE = "instance"
KIND_SAT = "sat"

MEMO_CAP_ENV = "REPRO_MEMO_CAP"
DEFAULT_MEMO_CAP = 2_000_000


def memo_cap() -> int:
    """The transposition-memo entry cap from ``REPRO_MEMO_CAP``.

    Unset/empty means :data:`DEFAULT_MEMO_CAP`; ``0`` means unbounded.
    Read per search call, so tests (and long-running workers) can
    adjust it without re-importing the engine.
    """
    raw = os.environ.get(MEMO_CAP_ENV)
    if raw is None or not raw.strip():
        return DEFAULT_MEMO_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise SolverError(
            f"{MEMO_CAP_ENV} must be a non-negative integer, got {raw!r}"
        ) from None
    if cap < 0:
        raise SolverError(
            f"{MEMO_CAP_ENV} must be a non-negative integer, got {raw!r}"
        )
    return cap


class CappedMemo(dict):
    """Insertion-ordered transposition memo with deterministic FIFO
    eviction: storing a *new* key at capacity evicts the oldest entry
    first.  Updating an existing key keeps its insertion slot, so the
    eviction order — and therefore the serialized checkpoint — depends
    only on the search's visit sequence, never on hashing or timing.

    A cap of ``0`` (or any falsy value) disables eviction entirely.
    """

    def __init__(self, cap: int = 0, items: Any = ()) -> None:
        super().__init__(items)
        self.cap = cap

    def store(self, key: Any, value: Any) -> None:
        if self.cap and len(self) >= self.cap and key not in self:
            del self[next(iter(self))]
        self[key] = value


def _frames_payload(kind: str, frames: list[list[Any]]) -> list[list[Any]]:
    if kind == KIND_KN:
        # [covered, used, W, odd, scored, cursor] with masks as hex
        return [
            [hex(covered), used, w, odd, list(scored), cursor]
            for covered, used, w, odd, scored, cursor in frames
        ]
    # [used, remaining, W, odd, scored, cursor, decremented]
    return [
        [used, remaining, w, odd, list(scored), cursor, list(dec)]
        for used, remaining, w, odd, scored, cursor, dec in frames
    ]


def _frames_from_payload(kind: str, raw: Any) -> list[list[Any]]:
    frames: list[list[Any]] = []
    for entry in raw:
        if kind == KIND_KN:
            covered, used, w, odd, scored, cursor = entry
            frames.append(
                [int(covered, 16), int(used), int(w), int(odd),
                 [int(i) for i in scored], int(cursor)]
            )
        else:
            used, remaining, w, odd, scored, cursor, dec = entry
            frames.append(
                [int(used), int(remaining), int(w), int(odd),
                 [int(i) for i in scored], int(cursor), [int(b) for b in dec]]
            )
    return frames


@dataclass
class SearchCheckpoint:
    """A resumable snapshot of one branch-and-bound search.

    ``kind`` selects the search family (:data:`KIND_KN` for the
    all-to-all ``K_n`` covering search, :data:`KIND_INSTANCE` for the
    demand-instance search) and fixes the frame layout:

    * ``kn`` frames are ``[covered_mask, used_cost, W, odd_mask,
      scored_candidates, cursor]``;
    * ``instance`` frames are ``[used_cost, remaining_requests, W,
      odd_mask, scored_candidates, cursor, decremented_bits]`` and the
      snapshot additionally carries the mutable ``residual_counts``
      vector plus a ``demand`` fingerprint validated on resume;
    * ``sat`` checkpoints carry no frames or memo at all — the SAT
      backend's resumable unit is the boundary between ``k`` steps of
      its downward cardinality walk, and everything it needs (the
      engine name, ``k_start``, the next ``k``, per-``k`` statistics)
      lives in the ``sat_state`` dict.  Each ``k`` step runs on a
      fresh solver, so a resume reproduces the identical per-``k``
      statistics and final envelope.

    The chosen-block path is *not* stored: frame ``k``'s active child
    is always ``scored[cursor - 1]``, so the path is reconstructed from
    the frames on resume.  ``memo`` preserves insertion order (the
    capped memo's eviction order).  ``resumes`` counts how many times
    this lineage has been resumed — runtime provenance only, never part
    of a result envelope.
    """

    kind: str
    n: int
    max_size: int
    objective: str
    nodes: int
    best_value: int
    best_blocks: tuple[tuple[int, ...], ...] | None
    frames: list[list[Any]]
    memo: list[tuple[Any, int]]
    branching: str = "lex"  # kn only
    use_memo: bool = True  # kn only (the instance search always memoizes)
    dominance: bool = True  # instance only
    allowed_sizes: tuple[int, ...] | None = None
    residual_counts: list[int] | None = None  # instance only
    demand: list[list[int]] | None = None  # instance fingerprint [[a, b, m], ...]
    sat_state: dict[str, Any] | None = None  # sat only (walk progress)
    resumes: int = 0

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        from ..io import schema_version_field

        payload: dict[str, Any] = {
            "format": CHECKPOINT_FORMAT,
            "version": schema_version_field(
                CHECKPOINT_SCHEMA_MAJOR, _CHECKPOINT_SCHEMA_MINOR
            ),
            "kind": self.kind,
            "n": self.n,
            "max_size": self.max_size,
            "objective": self.objective,
            "branching": self.branching,
            "use_memo": self.use_memo,
            "dominance": self.dominance,
            "allowed_sizes": (
                list(self.allowed_sizes) if self.allowed_sizes is not None else None
            ),
            "nodes": self.nodes,
            "best_value": self.best_value,
            "best_blocks": (
                [list(vs) for vs in self.best_blocks]
                if self.best_blocks is not None
                else None
            ),
            "frames": _frames_payload(self.kind, self.frames),
            "resumes": self.resumes,
        }
        if self.kind == KIND_SAT:
            payload["memo"] = []
            payload["sat_state"] = self.sat_state
        elif self.kind == KIND_KN:
            payload["memo"] = [[hex(key), used] for key, used in self.memo]
        else:
            payload["memo"] = [[list(key), used] for key, used in self.memo]
            payload["residual_counts"] = (
                list(self.residual_counts)
                if self.residual_counts is not None
                else None
            )
            payload["demand"] = (
                [list(entry) for entry in self.demand]
                if self.demand is not None
                else None
            )
        return payload

    @classmethod
    def from_payload(cls, payload: Any) -> "SearchCheckpoint":
        from ..io import require_schema
        from ..util.errors import InvalidCoveringError

        try:
            require_schema(payload, CHECKPOINT_FORMAT, CHECKPOINT_SCHEMA_MAJOR)
        except InvalidCoveringError as exc:
            raise SolverError(f"bad checkpoint payload: {exc}") from None
        kind = payload.get("kind")
        if kind not in (KIND_KN, KIND_INSTANCE, KIND_SAT):
            raise SolverError(f"bad checkpoint payload: unknown kind {kind!r}")
        try:
            sat_state = None
            if kind == KIND_SAT:
                memo = []
                residual_counts = None
                demand = None
                sat_state = payload.get("sat_state")
                if not isinstance(sat_state, dict):
                    raise SolverError(
                        "bad checkpoint payload: sat checkpoint without sat_state"
                    )
            elif kind == KIND_KN:
                memo = [(int(key, 16), int(used)) for key, used in payload["memo"]]
                residual_counts = None
                demand = None
            else:
                memo = [
                    (tuple(int(c) for c in key), int(used))
                    for key, used in payload["memo"]
                ]
                raw_residual = payload.get("residual_counts")
                residual_counts = (
                    [int(c) for c in raw_residual]
                    if raw_residual is not None
                    else None
                )
                raw_demand = payload.get("demand")
                demand = (
                    [[int(x) for x in entry] for entry in raw_demand]
                    if raw_demand is not None
                    else None
                )
            raw_sizes = payload.get("allowed_sizes")
            raw_best = payload.get("best_blocks")
            return cls(
                kind=kind,
                n=int(payload["n"]),
                max_size=int(payload["max_size"]),
                objective=str(payload["objective"]),
                branching=str(payload.get("branching", "lex")),
                use_memo=bool(payload.get("use_memo", True)),
                dominance=bool(payload.get("dominance", True)),
                allowed_sizes=(
                    tuple(int(s) for s in raw_sizes)
                    if raw_sizes is not None
                    else None
                ),
                nodes=int(payload["nodes"]),
                best_value=int(payload["best_value"]),
                best_blocks=(
                    tuple(tuple(int(v) for v in vs) for vs in raw_best)
                    if raw_best is not None
                    else None
                ),
                frames=_frames_from_payload(kind, payload["frames"]),
                memo=memo,
                residual_counts=residual_counts,
                demand=demand,
                sat_state=sat_state,
                resumes=int(payload.get("resumes", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SolverError(f"bad checkpoint payload: {exc!r}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SearchCheckpoint":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SolverError(f"bad checkpoint payload: {exc}") from None
        return cls.from_payload(payload)

    # -- resume validation ----------------------------------------------

    def check_compatible(self, **expected: Any) -> None:
        """Refuse to resume into a differently-configured search: every
        keyword is compared against the corresponding checkpoint field
        and all mismatches are reported at once."""
        mismatches = [
            f"{name}: checkpoint has {getattr(self, name)!r}, search has {want!r}"
            for name, want in sorted(expected.items())
            if getattr(self, name) != want
        ]
        if mismatches:
            raise SolverError(
                "checkpoint is not resumable under this search configuration "
                f"({'; '.join(mismatches)})"
            )
