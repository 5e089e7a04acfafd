"""A dependency-free CDCL SAT solver: the ``sat`` backend's contractual
fallback engine.

The solver is deliberately small but real: two-watched-literal unit
propagation, first-UIP conflict analysis with clause learning, VSIDS
branching with deterministic index tie-breaking, Luby restarts, phase
saving, activity-based learned-clause reduction, and the MiniSat-style
assumption interface the incremental cardinality walk relies on —
``solve(assumptions)`` returns ``False`` with :attr:`Cdcl.core` holding
the subset of assumption literals whose conjunction is refuted (the
replayable UNSAT certificate the backend records in its envelope).

Everything is deterministic: no randomness, no timing dependence, no
hash-order iteration over sets.  Two runs over the same clause sequence
with the same assumptions perform the identical decision/conflict
sequence, which is what lets the backend's per-``k`` statistics enter a
deterministic result envelope and lets a preempted walk resume to
byte-identical bytes.

Literals are non-zero Python ints in DIMACS convention (``v`` /
``-v``); variables are allocated densely from 1 via :meth:`Cdcl.new_var`
or :meth:`Cdcl.ensure_vars`.  Literal values and watch lists are
indexed by the literal itself: ``_lv[lit]`` is +1 / -1 / 0 for both
signs, because Python's negative indexing puts ``-v`` at
``len(_lv) - v``, past every positive slot.

The hot loops are written for speed, and the search sequence they
produce (and so every counter and certificate byte) rests on these
invariants:

- *Watch visit order.*  The literals of each trail entry are dequeued in
  trail order.  Each one's watch list is walked from index 0; the
  falsified watch is normalised to position 1, the clause is skipped if
  position 0 is true, and a replacement watch is searched from
  position 2 upwards.  No cached blocker literal is consulted: a stale
  true blocker would skip a visit that moves the watch.
- *Swap-remove.*  A clause whose watch moves is removed from the list by
  moving the list's last clause into its slot, which is then visited
  next.
- *Branch rule.*  The branch variable is the minimum of
  ``(-activity[v], v)`` over unassigned ``v``.  The heap holds at most
  one entry per variable at its current activity (``_in_heap``) plus
  stale entries that are skipped when popped.
- *Propagation count.*  :attr:`Cdcl.propagations` grows by one per
  dequeued trail literal, the one that meets a conflict included.
"""

from __future__ import annotations

import heapq

from ..util.errors import SolverError

__all__ = ["Cdcl", "luby"]


def luby(i: int) -> int:
    """The Luby restart sequence (1-indexed): 1 1 2 1 1 2 4 …"""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


_RESCALE = 1e100
_DECAY = 1.0 / 0.95


class _Clause:
    __slots__ = ("lits", "learnt", "activity")

    def __init__(self, lits: list[int], learnt: bool) -> None:
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0


class Cdcl:
    """Conflict-driven clause learning over integer literals."""

    def __init__(self) -> None:
        self.num_vars = 0
        # Literal-indexed state, sized for ``_cap`` variables: slot
        # ``v`` holds literal ``v`` and slot ``len - v`` literal ``-v``.
        self._cap = 0
        self._lv: list[int] = [0]  # +1 true, -1 false, 0 unassigned
        # watches[lit] = clauses watching ``-lit`` (visited when ``lit``
        # becomes true).
        self._watches: list[list[_Clause]] = [[]]
        # Variable-indexed state (slot 0 unused).
        self._level: list[int] = [0]
        self._reason: list[_Clause | None] = [None]
        self._phase: list[bool] = [False]
        self._activity: list[float] = [0.0]
        self._seen: list[bool] = [False]
        self._in_heap: list[bool] = [False]  # has an entry at current activity
        self._clauses: list[_Clause] = []
        self._learnts: list[_Clause] = []
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._heap: list[tuple[float, int]] = []  # (-activity, var), lazy
        self._ok = True
        # Assumption-interface outputs.
        self.core: tuple[int, ...] = ()
        self.model: dict[int, bool] = {}
        # Statistics (deterministic; surfaced in the result envelope).
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0
        self.learned = 0
        self.restarts = 0

    # -- variables -----------------------------------------------------

    def new_var(self) -> int:
        self.ensure_vars(self.num_vars + 1)
        return self.num_vars

    def ensure_vars(self, n: int) -> None:
        grow = n - self.num_vars
        if grow <= 0:
            return
        if n > self._cap:
            self._reserve(max(n, 2 * self._cap))
        self._level += [0] * grow
        self._reason += [None] * grow
        self._phase += [False] * grow
        self._activity += [0.0] * grow
        self._seen += [False] * grow
        self._in_heap += [False] * grow
        self.num_vars = n

    def _reserve(self, cap: int) -> None:
        """Resize the literal-indexed arrays for ``cap`` variables,
        moving the negative literals' slots to the new end."""
        old = self._cap
        lv = [0] * (2 * cap + 1)
        lv[: old + 1] = self._lv[: old + 1]
        lv[len(lv) - old :] = self._lv[len(self._lv) - old :]
        watches: list[list[_Clause]] = [[] for _ in range(2 * cap + 1)]
        watches[: old + 1] = self._watches[: old + 1]
        watches[len(watches) - old :] = self._watches[len(self._watches) - old :]
        self._lv = lv
        self._watches = watches
        self._cap = cap

    def value(self, lit: int) -> int:
        """+1 true, -1 false, 0 unassigned under the current trail."""
        if lit == 0 or abs(lit) > self.num_vars:
            raise SolverError(f"literal {lit} outside variable range")
        return self._lv[lit]

    # -- clauses -------------------------------------------------------

    def add_clause(self, lits) -> bool:
        """Add a clause (at decision level 0).  Returns ``False`` when
        the clause database became unsatisfiable outright."""
        if not self._ok:
            return False
        if self._trail_lim:
            raise SolverError("clauses may only be added at decision level 0")
        lv = self._lv
        n = self.num_vars
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            lit = int(lit)
            if lit == 0 or lit > n or lit < -n:
                raise SolverError(f"literal {lit} outside variable range")
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            val = lv[lit]
            if val == 1:
                return True  # already satisfied at root
            if val == -1:
                continue  # root-false literal dropped
            seen.add(lit)
            out.append(lit)
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], None)
            self._ok = self._propagate() is None
            return self._ok
        clause = _Clause(out, False)
        self._clauses.append(clause)
        self._watches[-out[0]].append(clause)
        self._watches[-out[1]].append(clause)
        return True

    # -- assignment ----------------------------------------------------

    def _enqueue(self, lit: int, reason: _Clause | None) -> None:
        v = lit if lit > 0 else -lit
        self._lv[lit] = 1
        self._lv[-lit] = -1
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _propagate(self) -> _Clause | None:
        trail = self._trail
        lv = self._lv
        watches = self._watches
        level = self._level
        reasons = self._reason
        lvl = len(self._trail_lim)
        head = start = self._qhead
        while head < len(trail):
            lit = trail[head]
            head += 1
            false_lit = -lit
            watchers = watches[lit]
            i = 0
            end = len(watchers)
            while i < end:
                clause = watchers[i]
                lits = clause.lits
                # Normalise: the falsified literal at position 1.
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_lit
                val = lv[first]
                if val == 1:
                    i += 1
                    continue
                j = 2
                size = len(lits)
                while j < size:
                    q = lits[j]
                    if lv[q] != -1:
                        # Move the watch to q; the last watcher takes slot i.
                        lits[1] = q
                        lits[j] = false_lit
                        watches[-q].append(clause)
                        end -= 1
                        watchers[i] = watchers[end]
                        del watchers[end]
                        break
                    j += 1
                else:
                    if val == -1:
                        self.propagations += head - start
                        self._qhead = len(trail)
                        return clause  # conflict
                    lv[first] = 1
                    lv[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = lvl
                    reasons[v] = clause
                    trail.append(first)
                    i += 1
        self.propagations += head - start
        self._qhead = head
        return None

    def _cancel_until(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        bound = trail_lim[level]
        trail = self._trail
        lv = self._lv
        phase = self._phase
        reasons = self._reason
        activity = self._activity
        in_heap = self._in_heap
        heap = self._heap
        push = heapq.heappush
        for i in range(len(trail) - 1, bound - 1, -1):
            lit = trail[i]
            lv[lit] = 0
            lv[-lit] = 0
            if lit > 0:
                v = lit
                phase[v] = True
            else:
                v = -lit
                phase[v] = False
            reasons[v] = None
            if not in_heap[v]:
                in_heap[v] = True
                push(heap, (-activity[v], v))
        del trail[bound:]
        del trail_lim[level:]
        self._qhead = len(trail)
        # Stale entries (bumped since their push) accumulate; rebuild
        # once they dominate so pops stay cheap.
        if len(heap) > 4 * self.num_vars + 16:
            self._rebuild_heap()

    # -- VSIDS ---------------------------------------------------------

    def _rebuild_heap(self) -> None:
        lv = self._lv
        activity = self._activity
        in_heap = self._in_heap
        heap = []
        for v in range(1, self.num_vars + 1):
            free = lv[v] == 0
            in_heap[v] = free
            if free:
                heap.append((-activity[v], v))
        heapq.heapify(heap)
        self._heap = heap

    def _rescale(self) -> None:
        activity = self._activity
        for v in range(1, self.num_vars + 1):
            activity[v] *= 1e-100
        self._var_inc *= 1e-100
        self._rebuild_heap()

    def _pick_branch_var(self) -> int:
        heap = self._heap
        lv = self._lv
        activity = self._activity
        in_heap = self._in_heap
        pop = heapq.heappop
        while heap:
            act, v = pop(heap)
            if act == -activity[v]:
                in_heap[v] = False
                if lv[v] == 0:
                    return v
        for v in range(1, self.num_vars + 1):
            if lv[v] == 0:
                return v
        return 0

    # -- conflict analysis --------------------------------------------

    def _analyze(self, conflict: _Clause) -> tuple[list[int], int]:
        seen = self._seen
        levels = self._level
        reasons = self._reason
        trail = self._trail
        activity = self._activity
        in_heap = self._in_heap
        var_inc = self._var_inc
        learnt: list[int] = [0]  # slot 0 = asserting literal (filled last)
        counter = 0
        lit = 0
        reason: _Clause | None = conflict
        idx = len(trail) - 1
        cur_level = len(self._trail_lim)
        while True:
            assert reason is not None
            reason.activity += var_inc
            lits = reason.lits
            for k in range(0 if lit == 0 else 1, len(lits)):
                q = lits[k]
                v = q if q > 0 else -q
                if not seen[v]:
                    lvl = levels[v]
                    if lvl > 0:
                        seen[v] = True
                        # VSIDS bump: the heap entry at the old activity
                        # goes stale.
                        act = activity[v] + var_inc
                        activity[v] = act
                        in_heap[v] = False
                        if act > _RESCALE:
                            self._rescale()
                            var_inc = self._var_inc
                        if lvl >= cur_level:
                            counter += 1
                        else:
                            learnt.append(q)
            while True:
                lit = trail[idx]
                v = lit if lit > 0 else -lit
                if seen[v]:
                    break
                idx -= 1
            seen[v] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            reason = reasons[v]
        learnt[0] = -lit
        # Conflict-clause minimisation (local): drop literals implied by
        # the rest of the clause through their reason.  ``seen`` marks
        # exactly the variables of learnt[1:] here.
        orig = learnt[1:]
        kept = [learnt[0]]
        for q in orig:
            r = reasons[q if q > 0 else -q]
            if r is not None:
                lits = r.lits
                for k in range(1, len(lits)):
                    p = lits[k]
                    u = p if p > 0 else -p
                    if not seen[u] and levels[u] != 0:
                        break
                else:
                    continue
            kept.append(q)
        learnt = kept
        for q in orig:
            seen[q if q > 0 else -q] = False
        if len(learnt) == 1:
            bt = 0
        else:
            # Second-highest decision level among the learnt literals.
            max_i = 1
            q = learnt[1]
            max_lvl = levels[q if q > 0 else -q]
            for i in range(2, len(learnt)):
                q = learnt[i]
                lvl = levels[q if q > 0 else -q]
                if lvl > max_lvl:
                    max_i = i
                    max_lvl = lvl
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt = max_lvl
        self._var_inc = var_inc * _DECAY
        return learnt, bt

    def _analyze_final(self, lit: int) -> tuple[int, ...]:
        """Assumption core: the subset of assumption literals implying
        ``-lit`` (computed by walking the implication graph)."""
        core = {lit}
        if not self._trail_lim:
            return tuple(sorted(core))
        seen = self._seen
        levels = self._level
        reasons = self._reason
        trail = self._trail
        top = lit if lit > 0 else -lit
        seen[top] = True
        for i in range(len(trail) - 1, self._trail_lim[0] - 1, -1):
            p = trail[i]
            v = p if p > 0 else -p
            if not seen[v]:
                continue
            reason = reasons[v]
            if reason is None:
                core.add(p)  # an assumption decision
            else:
                for q in reason.lits[1:]:
                    u = q if q > 0 else -q
                    if levels[u] > 0:
                        seen[u] = True
            seen[v] = False
        seen[top] = False
        return tuple(sorted(core))

    # -- learned-clause housekeeping ----------------------------------

    def _reduce_db(self) -> None:
        learnts = sorted(
            (c for c in self._learnts if len(c.lits) > 2),
            key=lambda c: (c.activity, -len(c.lits)),
        )
        reasons = self._reason
        locked = {id(reasons[abs(l)]) for l in self._trail if reasons[abs(l)]}
        drop = set()
        for c in learnts[: len(learnts) // 2]:
            if id(c) not in locked:
                drop.add(id(c))
        if not drop:
            return
        self._learnts = [c for c in self._learnts if id(c) not in drop]
        self._watches = [
            [c for c in ws if id(c) not in drop] for ws in self._watches
        ]

    # -- search --------------------------------------------------------

    def solve(
        self,
        assumptions=(),
        *,
        on_tick=None,
        tick_every: int = 512,
    ) -> bool:
        """Solve under ``assumptions``.  ``True`` fills :attr:`model`
        (a variable → bool map); ``False`` fills :attr:`core` with the
        refuted subset of the assumptions.  ``on_tick`` is called every
        ``tick_every`` conflicts — raise from it to abort (the solver's
        root state stays valid, so the caller can retry later)."""
        if not self._ok:
            self.core = ()
            return False
        assumptions = [int(a) for a in assumptions]
        self._cancel_until(0)
        confl = self._propagate()
        if confl is not None:
            self._ok = False
            self.core = ()
            return False
        self._rebuild_heap()
        conflicts_this_call = 0
        restart_num = 0
        restart_budget = 32 * luby(1)
        learnt_cap = max(4000, len(self._clauses) // 2)
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                conflicts_this_call += 1
                if on_tick is not None and self.conflicts % tick_every == 0:
                    on_tick()
                if not self._trail_lim:
                    self._ok = False
                    self.core = ()
                    return False
                learnt, bt = self._analyze(confl)
                self._cancel_until(bt)
                self._attach_learnt(learnt)
                if len(self._learnts) > learnt_cap:
                    self._reduce_db()
                    learnt_cap += learnt_cap // 2
                if conflicts_this_call >= restart_budget:
                    restart_num += 1
                    self.restarts += 1
                    restart_budget = conflicts_this_call + 32 * luby(restart_num + 1)
                    self._cancel_until(len(assumptions))
                continue
            # Decision: assumptions first, then VSIDS.
            if len(self._trail_lim) < len(assumptions):
                a = assumptions[len(self._trail_lim)]
                val = self.value(a)
                if val == -1:
                    self.core = self._analyze_final(a)
                    self._cancel_until(0)
                    return False
                self._trail_lim.append(len(self._trail))
                if val == 0:
                    self._enqueue(a, None)
                continue
            var = self._pick_branch_var()
            if var == 0:
                lv = self._lv
                self.model = {v: lv[v] > 0 for v in range(1, self.num_vars + 1)}
                self._cancel_until(0)
                return True
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(var if self._phase[var] else -var, None)

    def _attach_learnt(self, learnt: list[int]) -> None:
        self.learned += 1
        if len(learnt) == 1:
            if self._lv[learnt[0]] == 0:
                self._enqueue(learnt[0], None)
            return
        clause = _Clause(learnt, True)
        clause.activity = self._var_inc
        self._learnts.append(clause)
        self._watches[-learnt[0]].append(clause)
        self._watches[-learnt[1]].append(clause)
        self._enqueue(learnt[0], clause)
