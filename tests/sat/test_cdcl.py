"""Unit tests for the dependency-free CDCL solver.

The internal engine is the contractual fallback for ``REPRO_SAT`` — it
must be correct on its own, not just "agree with pysat when pysat
happens to be installed".  These tests exercise the solver against
brute-force truth-table enumeration on random small formulas plus the
classic structured families (pigeonhole, ordering chains).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.sat.cdcl import Cdcl, luby
from repro.util.errors import SolverError


def brute_force_sat(num_vars: int, clauses) -> bool:
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def check_model(model, clauses) -> bool:
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


class TestLuby:
    def test_prefix(self):
        # The canonical Luby sequence (Luby–Sinclair–Zuckerman 1993).
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_powers_of_two_at_boundaries(self):
        for k in range(1, 10):
            assert luby(2**k - 1) == 2 ** (k - 1)


class TestBasics:
    def test_empty_formula_is_sat(self):
        s = Cdcl()
        assert s.solve() is True

    def test_unit_propagation(self):
        s = Cdcl()
        s.ensure_vars(2)
        s.add_clause([1])
        s.add_clause([-1, 2])
        assert s.solve() is True
        assert s.model[1] is True and s.model[2] is True

    def test_trivially_unsat(self):
        s = Cdcl()
        s.ensure_vars(1)
        s.add_clause([1])
        assert s.add_clause([-1]) is False or s.solve() is False

    def test_empty_clause_rejected(self):
        s = Cdcl()
        assert s.add_clause([]) is False
        assert s.solve() is False

    def test_tautological_clause_ignored(self):
        s = Cdcl()
        s.ensure_vars(1)
        assert s.add_clause([1, -1]) is True
        assert s.solve() is True


class TestGrowth:
    def test_growing_between_solves_keeps_root_state(self):
        # The literal-indexed value and watch arrays are relocated when
        # the variable count outgrows their capacity: root assignments
        # and watches made before the move must survive it.
        s = Cdcl()
        s.ensure_vars(3)
        s.add_clause([-2])  # root unit
        s.add_clause([1, 3])
        s.add_clause([-1, -3])
        assert s.solve() is True
        assert s.model[2] is False and s.model[1] != s.model[3]
        assert (s.value(2), s.value(-2)) == (-1, 1)

        assert s._cap < 40
        s.ensure_vars(40)
        assert s.num_vars == 40
        assert (s.value(2), s.value(-2)) == (-1, 1)
        assert (s.value(40), s.value(-40)) == (0, 0)
        # x4 → x5 → … → x40 → x2, and x2 is root-false: every new
        # variable becomes root-false, and (x4 ∨ x1) then forces x1.
        for v in range(4, 40):
            assert s.add_clause([-v, v + 1])
        assert s.add_clause([-40, 2])
        assert s.add_clause([4, 1])
        assert s.solve() is True
        assert all(s.model[v] is False for v in range(4, 41))
        assert (s.model[1], s.model[2], s.model[3]) == (True, False, False)
        assert (s.value(-2), s.value(-40), s.value(4)) == (1, 1, -1)
        assert s.solve(assumptions=[5]) is False
        assert s.core == (5,)

    def test_new_var_numbers_densely_across_growth(self):
        s = Cdcl()
        assert [s.new_var() for _ in range(9)] == list(range(1, 10))
        s.add_clause([-9])
        s.ensure_vars(30)
        assert s.new_var() == 31
        assert s.value(-9) == 1

    def test_value_rejects_literals_outside_the_range(self):
        s = Cdcl()
        s.ensure_vars(3)
        for lit in (0, 4, -4):
            with pytest.raises(SolverError):
                s.value(lit)


class TestPigeonhole:
    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_php_is_unsat(self, holes):
        # holes+1 pigeons into `holes` holes: the canonical hard UNSAT
        # family for resolution-based solvers.
        pigeons = holes + 1
        s = Cdcl()
        var = {}
        for p in range(pigeons):
            for h in range(holes):
                var[p, h] = s.new_var()
        for p in range(pigeons):
            s.add_clause([var[p, h] for h in range(holes)])
        for h in range(holes):
            for p1, p2 in itertools.combinations(range(pigeons), 2):
                s.add_clause([-var[p1, h], -var[p2, h]])
        assert s.solve() is False
        assert s.conflicts > 0


class TestRandomFormulas:
    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(4, 9)
        num_clauses = rng.randint(num_vars, 4 * num_vars)
        clauses = []
        for _ in range(num_clauses):
            width = rng.randint(1, 3)
            lits = rng.sample(range(1, num_vars + 1), width)
            clauses.append([l if rng.random() < 0.5 else -l for l in lits])
        expected = brute_force_sat(num_vars, clauses)

        s = Cdcl()
        s.ensure_vars(num_vars)
        ok = True
        for c in clauses:
            ok = s.add_clause(c) and ok
        got = ok and s.solve()
        assert got == expected
        if got:
            assert check_model(s.model, clauses)

    def test_deterministic_across_runs(self):
        def run():
            rng = random.Random(99)
            s = Cdcl()
            s.ensure_vars(12)
            for _ in range(50):
                lits = rng.sample(range(1, 13), 3)
                s.add_clause([l if rng.random() < 0.5 else -l for l in lits])
            sat = s.solve()
            return sat, dict(s.model) if sat else None, s.conflicts, s.decisions

        assert run() == run()


class TestAssumptions:
    def test_assumption_forces_polarity(self):
        s = Cdcl()
        s.ensure_vars(2)
        s.add_clause([-1, 2])
        assert s.solve(assumptions=[1]) is True
        assert s.model[1] is True and s.model[2] is True
        assert s.solve(assumptions=[-1]) is True
        assert s.model[1] is False

    def test_unsat_core_names_the_culprit(self):
        s = Cdcl()
        s.ensure_vars(3)
        s.add_clause([-1, -2])  # 1 and 2 can't both hold
        assert s.solve(assumptions=[1, 2, 3]) is False
        core = set(s.core)
        # 3 is irrelevant; the core must implicate 1 and/or 2 only.
        assert core and core <= {1, 2}

    def test_solver_reusable_after_assumption_unsat(self):
        s = Cdcl()
        s.ensure_vars(2)
        s.add_clause([-1, -2])
        assert s.solve(assumptions=[1, 2]) is False
        # Same solver, relaxed assumptions: SAT again.
        assert s.solve(assumptions=[1]) is True
        assert s.model[2] is False

    def test_contradictory_assumptions(self):
        s = Cdcl()
        s.ensure_vars(1)
        assert s.solve(assumptions=[1, -1]) is False
        assert set(s.core) <= {1, -1}


class TestOnTick:
    def test_on_tick_fires_during_search(self):
        rng = random.Random(7)
        s = Cdcl()
        s.ensure_vars(20)
        for _ in range(90):
            lits = rng.sample(range(1, 21), 3)
            s.add_clause([l if rng.random() < 0.5 else -l for l in lits])
        ticks = []
        s.solve(on_tick=lambda: ticks.append(s.conflicts), tick_every=1)
        assert ticks, "tick callback never fired"
