"""The ``REPRO_SAT`` engine contract.

The env var must behave identically whether or not python-sat is
installed: unknown names fail loudly with the runnable list, an
explicit ``pysat`` request degrades silently to the internal CDCL when
the package is absent, and ``REPRO_NO_PYSAT`` forces the fallback leg
for CI parity runs.
"""

from __future__ import annotations

import pytest

from repro.sat.engines import (
    NO_PYSAT_ENV,
    SAT_ENGINE_ENV,
    SAT_ENGINES,
    available_engines,
    new_solver,
    pysat_available,
    resolve_engine,
)
from repro.util.errors import SolverError


class TestResolveEngine:
    def test_default_is_a_runnable_engine(self, monkeypatch):
        monkeypatch.delenv(SAT_ENGINE_ENV, raising=False)
        assert resolve_engine() in available_engines()

    def test_internal_always_runnable(self, monkeypatch):
        monkeypatch.setenv(SAT_ENGINE_ENV, "internal")
        assert resolve_engine() == "internal"
        assert "internal" in available_engines()

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(SAT_ENGINE_ENV, "internal")
        assert resolve_engine("internal") == "internal"

    def test_unknown_engine_names_the_runnable_set(self, monkeypatch):
        monkeypatch.setenv(SAT_ENGINE_ENV, "chaff")
        with pytest.raises(SolverError) as excinfo:
            resolve_engine()
        msg = str(excinfo.value)
        assert "chaff" in msg
        assert "internal" in msg

    def test_no_pysat_override_forces_internal(self, monkeypatch):
        monkeypatch.setenv(NO_PYSAT_ENV, "1")
        assert pysat_available() is False
        assert available_engines() == ("internal",)
        monkeypatch.setenv(SAT_ENGINE_ENV, "pysat")
        # Explicit pysat without the package degrades to the fallback.
        assert resolve_engine() == "internal"

    def test_auto_resolves(self, monkeypatch):
        monkeypatch.setenv(SAT_ENGINE_ENV, "auto")
        assert resolve_engine() in SAT_ENGINES


class TestNewSolver:
    def test_internal_solver_round_trip(self):
        s = new_solver("internal")
        s.ensure_vars(2)
        s.add_clause([1, 2])
        s.add_clause([-1])
        assert s.solve() is True
        assert s.model[2] is True

    def test_pysat_leg_when_available(self):
        if not pysat_available():
            pytest.skip("python-sat not installed — internal is the fallback")
        s = new_solver("pysat")
        s.ensure_vars(2)
        s.add_clause([1, 2])
        s.add_clause([-1])
        assert s.solve() is True
        assert s.model[2] is True

    def test_unknown_solver_name_raises(self):
        with pytest.raises(SolverError):
            new_solver("chaff")
