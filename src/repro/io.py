"""Persistence: versioned JSON (de)serialisation for coverings and results.

Coverings are the expensive artifacts (the even-case completion search
takes seconds to minutes at large n), so downstream users cache them.
The format is deliberately boring JSON::

    {
      "format": "repro-covering",
      "version": "1.1",
      "n": 10,
      "blocks": [[0, 1, 5, 6], ...],
      "meta": {...}            # optional, caller-owned
    }

Schema versioning
-----------------
Every document this module reads or writes carries a ``"version"``
field in ``"<major>.<minor>"`` form (legacy integer versions parse as
``(major, 0)``).  Readers accept any minor revision of a known major —
minor bumps add optional fields only — and reject unknown majors, so a
cached artifact written by a newer incompatible schema fails loudly
instead of being half-parsed.  The :mod:`repro.api` result envelopes
build their own documents on the same helpers
(:func:`schema_version_field`, :func:`require_schema`,
:func:`covering_to_payload`, :func:`covering_from_payload`).

``save_covering``/``load_covering`` round-trip exactly;
``load_covering`` re-validates structure (and optionally full DRC
validity) so a corrupted or hand-edited file cannot sneak an invalid
covering into a design.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .core.covering import Covering
from .util.errors import InvalidCoveringError

__all__ = [
    "save_covering",
    "load_covering",
    "covering_to_json",
    "covering_from_json",
    "covering_to_payload",
    "covering_from_payload",
    "schema_version_field",
    "require_schema",
    "COVERING_FORMAT",
    "COVERING_SCHEMA_MAJOR",
]

COVERING_FORMAT = "repro-covering"
COVERING_SCHEMA_MAJOR = 1
_COVERING_SCHEMA_MINOR = 1


def schema_version_field(major: int, minor: int) -> str:
    """The canonical ``"version"`` value for a schema revision."""
    return f"{major}.{minor}"


def _parse_version(value: Any) -> tuple[int, int]:
    """Parse a document's ``version`` field into ``(major, minor)``.

    Integers are the legacy spelling of ``(major, 0)``; strings must be
    ``"<major>.<minor>"``.  Anything else is malformed.
    """
    if isinstance(value, bool):
        raise InvalidCoveringError(f"malformed schema version {value!r}")
    if isinstance(value, int):
        return value, 0
    if isinstance(value, str):
        major_s, sep, minor_s = value.partition(".")
        if major_s.isdigit() and (not sep or minor_s.isdigit()):
            return int(major_s), int(minor_s) if sep else 0
    raise InvalidCoveringError(f"malformed schema version {value!r}")


def require_schema(payload: Any, fmt: str, major: int) -> tuple[int, int]:
    """Check a parsed document's ``format`` tag and schema version.

    Returns the parsed ``(major, minor)``.  Raises
    :class:`InvalidCoveringError` when the payload is not a dict, the
    format tag differs, or the major version is unknown — a *newer
    minor* of the same major is accepted (minor revisions only add
    optional fields).
    """
    if not isinstance(payload, dict):
        raise InvalidCoveringError(f"not a {fmt} document")
    if payload.get("format") != fmt:
        raise InvalidCoveringError(
            f"not a {fmt} document (format={payload.get('format')!r})"
        )
    if "version" not in payload:
        raise InvalidCoveringError(f"{fmt} document has no schema version")
    got_major, got_minor = _parse_version(payload["version"])
    if got_major != major:
        raise InvalidCoveringError(
            f"unsupported {fmt} schema version "
            f"{payload['version']!r} (supported major: {major})"
        )
    return got_major, got_minor


def covering_to_payload(
    covering: Covering, meta: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The covering document as a plain dict (embeddable in larger
    envelopes — the :mod:`repro.api` result cache stores these)."""
    payload: dict[str, Any] = {
        "format": COVERING_FORMAT,
        "version": schema_version_field(COVERING_SCHEMA_MAJOR, _COVERING_SCHEMA_MINOR),
        "n": covering.n,
        "blocks": [list(blk.vertices) for blk in covering.blocks],
    }
    if meta:
        payload["meta"] = meta
    return payload


def covering_from_payload(payload: Any, *, verify: bool = False) -> Covering:
    """Rebuild a covering from a parsed document dict; see
    :func:`covering_from_json` for the verification contract."""
    require_schema(payload, COVERING_FORMAT, COVERING_SCHEMA_MAJOR)
    try:
        covering = Covering.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidCoveringError(f"malformed covering payload: {exc}") from exc
    if verify:
        from .core.verify import assert_valid_covering

        assert_valid_covering(covering)
    return covering


def covering_to_json(covering: Covering, meta: dict[str, Any] | None = None) -> str:
    """Serialise a covering (and optional caller metadata) to JSON."""
    return json.dumps(covering_to_payload(covering, meta), indent=2, sort_keys=True)


def covering_from_json(text: str, *, verify: bool = False) -> Covering:
    """Parse a covering from JSON produced by :func:`covering_to_json`.

    ``verify=True`` additionally runs the full DRC/coverage verifier
    against All-to-All traffic.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidCoveringError(f"not valid JSON: {exc}") from exc
    return covering_from_payload(payload, verify=verify)


def save_covering(
    covering: Covering, path: str | Path, meta: dict[str, Any] | None = None
) -> Path:
    """Write a covering to ``path`` (creating parent directories)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(covering_to_json(covering, meta), encoding="utf-8")
    return out


def load_covering(path: str | Path, *, verify: bool = False) -> Covering:
    """Read a covering from ``path``; see :func:`covering_from_json`."""
    return covering_from_json(Path(path).read_text(encoding="utf-8"), verify=verify)
