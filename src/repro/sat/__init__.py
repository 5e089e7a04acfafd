"""``repro.sat`` — incremental cardinality-SAT certification.

The subsystem that breaks the ``n = 12`` wall: where the exact
branch-and-bound tiers face even ``n``'s counting/packing gap with pure
exhaustion, this backend encodes min-covering over the memoized block
table as CNF, walks "at most ``k`` blocks" downward MARCO-style under
reusable assumption literals, and returns ``proven_optimal`` envelopes
whose lower bound is a *replayable* UNSAT assumption core.

Modules:

* :mod:`repro.sat.cnf` — the deterministic CNF encoding (selectors
  over the block table, λ-fold coverage, dihedral symmetry breaking,
  counting-budget strengthening) with SHA-256 provenance;
* :mod:`repro.sat.card` — incremental cardinality layer (clamped
  weighted totalizers, sequential at-least chains);
* :mod:`repro.sat.cdcl` — the dependency-free CDCL solver (watched
  literals, 1UIP learning, assumptions, deterministic VSIDS), the
  contractual fallback engine;
* :mod:`repro.sat.engines` — ``REPRO_SAT={internal,pysat}`` engine
  selection;
* :mod:`repro.sat.backend` — the registered ``sat`` backend and the
  :func:`~repro.sat.backend.replay_unsat_core` certificate audit.
"""

from .backend import SAT_MAX_N, SatBackend, replay_unsat_core
from .card import CardinalityBound, Totalizer, at_least
from .cdcl import Cdcl
from .cnf import Cnf, CoveringEncoding, attach_walk_layers, build_covering_cnf
from .engines import (
    NO_PYSAT_ENV,
    SAT_ENGINE_ENV,
    SAT_ENGINES,
    available_engines,
    new_solver,
    pysat_available,
    resolve_engine,
)

__all__ = [
    "Cdcl",
    "Cnf",
    "CoveringEncoding",
    "CardinalityBound",
    "Totalizer",
    "at_least",
    "attach_walk_layers",
    "build_covering_cnf",
    "SatBackend",
    "SAT_MAX_N",
    "replay_unsat_core",
    "SAT_ENGINE_ENV",
    "SAT_ENGINES",
    "NO_PYSAT_ENV",
    "available_engines",
    "new_solver",
    "pysat_available",
    "resolve_engine",
]
