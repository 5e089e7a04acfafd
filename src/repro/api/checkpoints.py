"""Checkpoint persistence for the api layer.

:class:`CheckpointStore` sits next to the
:class:`~repro.api.cache.ResultCache` and addresses search checkpoints
by the same canonical spec hash, one file per in-flight job at
``<root>/<hash>.ckpt.json``.  The spool transport mounts one at
``<spool>/checkpoints/`` so a worker killed mid-proof leaves resumable
state for whichever worker reclaims the job; the CLI mounts one at
``--checkpoint-dir``.

Contract (mirrors the result cache):

* writes are atomic (temp file + ``os.replace``) — a crashed flush
  never leaves a torn checkpoint, and concurrent writers cannot
  interleave partial JSON;
* loads re-parse and re-validate the schema-versioned payload; corrupt
  entries are quarantined (deleted) and reported as absent — a bad
  checkpoint degrades to solving from scratch, never to a bad result;
* completed jobs delete their checkpoint (:meth:`CheckpointStore.delete`),
  so the directory only ever holds in-flight proofs.

:class:`MemoryCheckpointStore` is the same interface over a dict — the
stdio worker protocol uses it to resume from a checkpoint that arrived
over the wire rather than from disk.

:func:`budget_preempt` is the one ``--preempt-after`` rule shared by
the CLI, spool workers and ``repro serve``.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

from ..core.checkpoint import SearchCheckpoint
from ..util.errors import ReproError
from .spec import SpecError

__all__ = ["CHECKPOINT_SUFFIX", "CheckpointStore", "MemoryCheckpointStore",
           "budget_preempt", "parse_preempt_after"]

CHECKPOINT_SUFFIX = ".ckpt.json"


class CheckpointStore:
    """Spec-hash-addressed search checkpoints under ``root``."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    @classmethod
    def open(
        cls, where: "CheckpointStore | str | Path | None"
    ) -> "CheckpointStore | None":
        """Coerce a user-facing checkpoint-store argument: an existing
        store passes through, a path opens one, ``None`` stays ``None``
        (checkpointing disabled)."""
        if where is None or isinstance(where, CheckpointStore):
            return where
        return cls(Path(where))

    def path_for(self, spec_hash: str) -> Path:
        return self.root / f"{spec_hash}{CHECKPOINT_SUFFIX}"

    def load(self, spec_hash: str) -> SearchCheckpoint | None:
        """The persisted checkpoint for ``spec_hash``, or ``None``.
        Corrupt entries are quarantined (deleted) and reported absent —
        the job simply restarts from scratch."""
        path = self.path_for(spec_hash)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            return SearchCheckpoint.from_json(text)
        except (ReproError, ValueError, KeyError, TypeError):
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def save(self, spec_hash: str, checkpoint: SearchCheckpoint) -> Path:
        """Persist ``checkpoint`` under ``spec_hash`` (atomic write)."""
        path = self.path_for(spec_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = checkpoint.to_json()
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def delete(self, spec_hash: str) -> None:
        """Drop the checkpoint for ``spec_hash`` (job completed)."""
        try:
            self.path_for(spec_hash).unlink()
        except OSError:
            pass


class MemoryCheckpointStore(CheckpointStore):
    """The :class:`CheckpointStore` interface over an in-process dict —
    nothing touches disk.  Used by the stdio worker protocol, where the
    resume checkpoint arrives in the job message and the flushed one
    leaves in the preempt reply."""

    def __init__(self) -> None:
        self.entries: dict[str, SearchCheckpoint] = {}

    def load(self, spec_hash: str) -> SearchCheckpoint | None:
        return self.entries.get(spec_hash)

    def save(self, spec_hash: str, checkpoint: SearchCheckpoint) -> str:
        self.entries[spec_hash] = checkpoint
        return spec_hash

    def delete(self, spec_hash: str) -> None:
        self.entries.pop(spec_hash, None)


def parse_preempt_after(text: str) -> "tuple[str, float]":
    """Parse a ``--preempt-after`` budget: ``"800n"`` means 800 search
    nodes (deterministic — what the CI smoke uses), a bare number means
    that many wall-clock seconds.  Returns ``("nodes", 800.0)`` or
    ``("seconds", 2.5)``."""
    raw = str(text).strip().lower()
    try:
        if raw.endswith("n"):
            nodes = int(raw[:-1])
            if nodes <= 0:
                raise ValueError(raw)
            return ("nodes", float(nodes))
        seconds = float(raw)
        if seconds <= 0:
            raise ValueError(raw)
        return ("seconds", seconds)
    except ValueError:
        raise SpecError(
            f"bad preempt-after value {text!r} "
            "(expected a node count like '800n' or seconds like '2.5')"
        ) from None


def budget_preempt(budget: tuple[str, float] | None, prior: SearchCheckpoint | None):
    """The preempt callback for a parsed ``budget``, or ``None`` without
    one.  A node budget counts from ``prior``'s node floor, so every
    resumed slice advances the proof by the full budget; a seconds
    budget counts from now."""
    if budget is None:
        return None
    unit, amount = budget
    if unit == "nodes":
        ceiling = (prior.nodes if prior is not None else 0) + int(amount)
        return lambda st: st.nodes >= ceiling
    deadline = time.monotonic() + amount
    return lambda st: time.monotonic() >= deadline
