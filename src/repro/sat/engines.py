"""SAT engine selection: the ``REPRO_SAT`` probe contract.

The internal CDCL (:class:`repro.sat.cdcl.Cdcl`) is the contractual
fallback engine that is always present, and `python-sat`_ is an
optional fast path.  ``REPRO_SAT=internal|pysat`` (or the explicit
``engine=`` argument) picks one; unset or ``auto`` means
pysat-when-importable.  An explicit ``pysat`` without the package
installed silently falls back to ``internal``.  Anything else raises a :class:`~repro.util.errors.SolverError` listing
the runnable engines.  ``REPRO_NO_PYSAT`` (any non-empty value) makes
the probe report pysat as absent, so CI can pin the fallback path
without uninstalling anything.

Both engines present the same face to the walk
(:func:`new_solver` → object with ``solve(assumptions)`` /
``.model`` / ``.core`` / conflict statistics), and both refute the
same deterministic CNF — the recorded certificate names its engine, and
the replay audit accepts either.

.. _python-sat: https://pysathq.github.io/
"""

from __future__ import annotations

import os

from ..util.errors import SolverError
from .cdcl import Cdcl

__all__ = [
    "SAT_ENGINE_ENV",
    "SAT_ENGINES",
    "NO_PYSAT_ENV",
    "available_engines",
    "pysat_available",
    "resolve_engine",
    "new_solver",
    "PysatSolver",
]

#: Environment variable selecting the engine (``internal``/``pysat``;
#: unset or ``auto`` picks pysat when importable).
SAT_ENGINE_ENV = "REPRO_SAT"

#: Engines the backend can resolve to.
SAT_ENGINES = ("internal", "pysat")

#: Set (to any non-empty value) to make the probe report python-sat as
#: absent — CI's sat-smoke job uses it to pin the internal-CDCL path.
NO_PYSAT_ENV = "REPRO_NO_PYSAT"

_UNRESOLVED = object()
_pysat_module = _UNRESOLVED


def _pysat():
    """The ``pysat.solvers`` module, or ``None`` when not installed
    (cached); ``REPRO_NO_PYSAT`` forces ``None``."""
    if os.environ.get(NO_PYSAT_ENV):
        return None
    global _pysat_module
    if _pysat_module is _UNRESOLVED:
        try:
            from pysat import solvers as pysat_solvers  # type: ignore[import-not-found]

            _pysat_module = pysat_solvers
        except ImportError:
            _pysat_module = None
    return _pysat_module


def pysat_available() -> bool:
    return _pysat() is not None


def available_engines() -> tuple[str, ...]:
    """The engines runnable in this process (``internal`` always is)."""
    return SAT_ENGINES if pysat_available() else ("internal",)


def resolve_engine(engine: str | None = None) -> str:
    """Resolve an engine request to a runnable engine name.

    ``engine`` wins over ``REPRO_SAT``; ``None``/``"auto"``/empty mean
    pysat-when-available.  An explicit ``"pysat"`` without python-sat
    installed falls back to ``"internal"`` (the reference path is the
    fallback by contract); anything else raises a friendly
    :class:`SolverError` naming the runnable engines.
    """
    raw = engine if engine is not None else os.environ.get(SAT_ENGINE_ENV, "auto")
    name = str(raw).strip().lower() or "auto"
    if name not in SAT_ENGINES and name != "auto":
        raise SolverError(
            f"unknown SAT engine {raw!r} (expected one of "
            f"{SAT_ENGINES + ('auto',)}; runnable here: "
            f"{', '.join(available_engines())})"
        )
    if name == "internal":
        return "internal"
    return "pysat" if pysat_available() else "internal"


class PysatSolver:
    """python-sat adapter presenting the internal CDCL's face.

    ``solve`` returns a bool and fills ``model`` (var → bool) or
    ``core`` (sorted tuple of failed assumption literals).  Conflict
    statistics come from the underlying solver's accumulated stats so
    the backend records comparable numbers for either engine.
    """

    def __init__(self) -> None:
        self._solver = _pysat().Solver(name="minicard", incr=False)
        self.num_vars = 0
        self.model: dict[int, bool] = {}
        self.core: tuple[int, ...] = ()
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def ensure_vars(self, n: int) -> None:
        if n > self.num_vars:
            self.num_vars = n

    def add_clause(self, lits) -> bool:
        self._solver.add_clause([int(l) for l in lits])
        return True

    def solve(self, assumptions=(), *, on_tick=None, tick_every: int = 512) -> bool:
        # python-sat has no conflict-tick callback; deadline handling
        # for this engine happens between k steps in the backend.
        ok = self._solver.solve(assumptions=[int(a) for a in assumptions])
        stats = self._solver.accum_stats() or {}
        self.decisions = int(stats.get("decisions", 0))
        self.conflicts = int(stats.get("conflicts", 0))
        self.propagations = int(stats.get("propagations", 0))
        if ok:
            self.model = {abs(l): l > 0 for l in (self._solver.get_model() or ())}
            return True
        core = self._solver.get_core() or ()
        self.core = tuple(sorted(int(l) for l in core))
        return False

    def delete(self) -> None:
        self._solver.delete()


def new_solver(engine: str):
    """A fresh solver for a *resolved* engine name."""
    if engine == "internal":
        return Cdcl()
    if engine == "pysat":
        if not pysat_available():
            raise SolverError(
                "python-sat is not importable in this process "
                "(runnable engines: internal)"
            )
        return PysatSolver()
    raise SolverError(
        f"unknown SAT engine {engine!r} (expected one of {SAT_ENGINES})"
    )


def load_encoding(solver, enc) -> bool:
    """Replay an encoding's recorded clauses into a live solver.
    Returns ``False`` when the clause database is already root-UNSAT."""
    solver.ensure_vars(enc.cnf.num_vars)
    ok = True
    for clause in enc.cnf.clauses:
        ok = solver.add_clause(clause) and ok
    return ok
