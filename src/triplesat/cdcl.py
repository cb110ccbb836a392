"""Conflict-driven clause learning solver.

Two-watched-literal propagation, first-UIP learning with local clause
minimization, activity-based decisions with decay, Luby restarts, and
phase saving (initial polarity negative).  Supports incremental solving
under cube assumptions with the learned-clause database retained across
cubes, DRAT proof emission, and backbone computation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .cnf import is_tautology, lit_value, make_clause, propagate_clauses

SAT = "SAT"
UNSAT = "UNSAT"
INDETERMINATE = "indeterminate"

LUBY_UNIT = 100   # conflicts per unit of the Luby restart sequence


@dataclass
class SolveResult:
    verdict: str
    model: dict | None = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0


def luby(i):
    """i-th term of the Luby restart sequence (1-based): 1 1 2 1 1 2 4 ..."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class Solver:
    """One instance is strictly single-threaded; share nothing across threads."""

    def __init__(self, formula=None, proof=None, conflict_budget=None,
                 var_decay=0.95):
        self.clauses = []          # list of lists; watched at positions 0 and 1
        self.watches = {}          # literal -> clause indices watching it
        self.assign = {}           # var -> bool
        self.level = {}
        self.reason = {}           # var -> clause index, None for decisions
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.activity = {}
        self.var_inc = 1.0
        self.var_decay = var_decay
        self.phase = {}            # saved polarity; default False
        self.heap = []
        self.ok = True
        self.proof = proof         # list sink of ("a"|"d", clause) lines
        self.proof_extension = ()  # literals appended to every emitted lemma
        self._empty_emitted = False
        self.conflict_budget = conflict_budget
        self.taut_vars = set()
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        if formula is not None:
            for clause in formula.clauses:
                self.add_clause(clause)

    # ------------------------------------------------------------------ basics

    def value(self, lit):
        return lit_value(self.assign, lit)

    def decision_level(self):
        return len(self.trail_lim)

    def _touch_var(self, var):
        if var not in self.activity:
            self.activity[var] = 0.0
            heapq.heappush(self.heap, (0.0, var))

    def _bump(self, var):
        self.activity[var] = act = self.activity.get(var, 0.0) + self.var_inc
        heapq.heappush(self.heap, (-act, var))
        if act > 1e100:
            for v in self.activity:
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self.heap = [(-self.activity[v], v) for v in self.activity
                         if v not in self.assign]
            heapq.heapify(self.heap)

    def _enqueue(self, lit, reason):
        var = abs(lit)
        self.assign[var] = lit > 0
        self.level[var] = self.decision_level()
        self.reason[var] = reason
        self.trail.append(lit)

    def _new_level(self):
        self.trail_lim.append(len(self.trail))

    def _backtrack(self, target):
        if self.decision_level() <= target:
            return
        keep = self.trail_lim[target]
        for lit in reversed(self.trail[keep:]):
            var = abs(lit)
            self.phase[var] = self.assign.pop(var)
            del self.level[var]
            self.reason.pop(var, None)
            heapq.heappush(self.heap, (-self.activity.get(var, 0.0), var))
        del self.trail[keep:]
        del self.trail_lim[target:]
        self.qhead = len(self.trail)

    # ------------------------------------------------------------ clause store

    def add_clause(self, lits):
        """Add an input (or derived) clause at decision level 0."""
        assert self.decision_level() == 0
        clause = make_clause(lits)
        for lit in clause:
            self._touch_var(abs(lit))
        if is_tautology(clause):
            self.taut_vars.update(abs(l) for l in clause)
            return
        if not self.ok:
            return
        self._attach(list(clause))

    def add_refuted(self, assumptions):
        """Add the clause negating `assumptions` after solve(assumptions) found
        them UNSAT: emitted to the proof, then attached.  A no-op once the
        solver is unsatisfiable outright.
        """
        if not self.ok:
            return
        negation = [-l for l in assumptions]
        self._emit(negation)
        self._attach(negation)

    def _attach(self, clause):
        if not clause:
            self.ok = False
            return None
        sat_already = any(self.value(l) is True for l in clause)
        idx = len(self.clauses)
        self.clauses.append(clause)
        if len(clause) == 1:
            if not sat_already:
                if self.value(clause[0]) is False:
                    self.ok = False
                else:
                    self._enqueue(clause[0], None)
            return idx
        # watch two non-false literals when possible
        clause.sort(key=lambda l: (self.value(l) is False, ))
        self.watches.setdefault(clause[0], []).append(idx)
        self.watches.setdefault(clause[1], []).append(idx)
        if not sat_already:
            if self.value(clause[0]) is False:
                self.ok = False
            elif self.value(clause[1]) is False and self.value(clause[0]) is None:
                self._enqueue(clause[0], idx)
        return idx

    # -------------------------------------------------------------- propagation

    def _propagate(self):
        """Propagate pending assignments; returns a conflicting clause index."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            neg = -lit
            watchers = self.watches.get(neg, [])
            kept = []
            for pos, ci in enumerate(watchers):
                clause = self.clauses[ci]
                if clause[0] == neg:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self.value(first) is True:
                    kept.append(ci)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self.value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(clause[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if self.value(first) is False:
                    kept.extend(watchers[pos + 1:])
                    self.watches[neg] = kept
                    return ci
                self._enqueue(first, ci)
            self.watches[neg] = kept
        return None

    # ----------------------------------------------------------------- learning

    def _analyze(self, confl):
        cur = self.decision_level()
        seen = set()
        tail = []              # literals from lower decision levels
        pathc = 0
        p = None
        reason_clause = self.clauses[confl]
        idx = len(self.trail) - 1
        while True:
            for q in reason_clause:
                if p is not None and q == p:
                    continue
                var = abs(q)
                if var in seen or self.level[var] == 0:
                    continue
                seen.add(var)
                self._bump(var)
                if self.level[var] >= cur:
                    pathc += 1
                else:
                    tail.append(q)
            while abs(self.trail[idx]) not in seen:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            pathc -= 1
            if pathc == 0:
                break
            reason_clause = self.clauses[self.reason[abs(p)]]
        # local minimization: drop tail literals whose reason is subsumed
        learnt = [-p]
        for q in tail:
            r = self.reason.get(abs(q))
            if r is not None and all(
                    abs(m) in seen or self.level[abs(m)] == 0
                    for m in self.clauses[r] if m != -q):
                continue
            learnt.append(q)
        if len(learnt) == 1:
            bt_level = 0
        else:
            bt_level = max(self.level[abs(q)] for q in learnt[1:])
        return learnt, bt_level

    def _emit(self, lits):
        if self.proof is None:
            return
        clause = list(lits)
        present = set(clause)
        for lit in self.proof_extension:
            if lit not in present:
                clause.append(lit)
                present.add(lit)
        self.proof.append(("a", tuple(clause)))

    def _emit_empty(self):
        if not self._empty_emitted:
            self._empty_emitted = True
            self._emit(())

    def _learn(self, learnt, bt_level):
        self._emit(learnt)
        if len(learnt) > 1:
            # watch a max-level literal at position 1 so the watch pair is
            # exactly the pair that un-assigns last on backtracking
            k = max(range(1, len(learnt)), key=lambda i: self.level[abs(learnt[i])])
            learnt[1], learnt[k] = learnt[k], learnt[1]
        self._backtrack(bt_level)
        if len(learnt) == 1:
            self.clauses.append(list(learnt))
            self._enqueue(learnt[0], None)
        else:
            idx = len(self.clauses)
            self.clauses.append(list(learnt))
            self.watches.setdefault(learnt[0], []).append(idx)
            self.watches.setdefault(learnt[1], []).append(idx)
            self._enqueue(learnt[0], idx)
        self.var_inc /= self.var_decay

    # ------------------------------------------------------------------ solving

    def _pick_branch(self):
        while self.heap:
            _, var = heapq.heappop(self.heap)
            if var not in self.assign:
                return var if self.phase.get(var, False) else -var
        return None

    def _model(self):
        model = dict(self.assign)
        for var in self.taut_vars:
            model.setdefault(var, False)
        return model

    def _result(self, verdict, model=None):
        return SolveResult(verdict, model, self.conflicts, self.decisions,
                           self.propagations)

    def solve(self, assumptions=()):
        """Solve under the given assumption literals.

        UNSAT with no assumptions (or once the empty clause is derived)
        is global; with assumptions it only refutes the cube.
        """
        assumptions = list(assumptions)
        self._backtrack(0)
        if not self.ok:
            self._emit_empty()
            return self._result(UNSAT)
        conflicts_here = 0
        budget = self.conflict_budget
        restart_idx = 1
        next_restart = luby(restart_idx) * LUBY_UNIT
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                conflicts_here += 1
                if self.decision_level() == 0:
                    self.ok = False
                    self._emit_empty()
                    return self._result(UNSAT)
                learnt, bt_level = self._analyze(confl)
                self._learn(learnt, bt_level)
                if budget is not None and conflicts_here >= budget:
                    self._backtrack(0)
                    return self._result(INDETERMINATE)
                if conflicts_here >= next_restart:
                    restart_idx += 1
                    next_restart = conflicts_here + luby(restart_idx) * LUBY_UNIT
                    self._backtrack(0)
                continue
            lit = None
            while self.decision_level() < len(assumptions):
                cand = assumptions[self.decision_level()]
                val = self.value(cand)
                if val is True:
                    self._new_level()
                    continue
                if val is False:
                    self._backtrack(0)
                    return self._result(UNSAT)
                lit = cand
                break
            if lit is None:
                lit = self._pick_branch()
                if lit is None:
                    model = self._model()
                    self._backtrack(0)
                    return self._result(SAT, model)
                self.decisions += 1
            self._new_level()
            self._enqueue(lit, None)


def solve(formula, proof=None, conflict_budget=None, **kwargs):
    """One-shot solve; an UNSAT verdict leaves a DRAT refutation in `proof`."""
    solver = Solver(formula, proof=proof, conflict_budget=conflict_budget, **kwargs)
    return solver.solve()


def solve_incremental(formula, cube_list, proof=None, conflict_budget=None,
                      **kwargs):
    """Solve the formula under each cube in order with one incremental solver.

    Learned clauses and heuristic state persist across cubes.  Each
    refuted cube contributes the clause negating it, both to the proof
    and to the clause database.
    """
    solver = Solver(formula, proof=proof, conflict_budget=conflict_budget,
                    **kwargs)
    results = []
    for cube in cube_list:
        result = solver.solve(assumptions=cube)
        if result.verdict == UNSAT:
            solver.add_refuted(cube)
        results.append(result)
    return results


def backbone(formula, **kwargs):
    """Literals forced to the same value in every model of a satisfiable formula.

    Seeds candidates with a first model, then tests each literal l by
    solving under the assumption of its complement; SAT answers prune the
    candidate set, UNSAT answers confirm backbone membership.
    """
    solver = Solver(formula, **kwargs)
    first = solver.solve()
    if first.verdict != SAT:
        raise ValueError("backbone undefined: formula is not satisfiable (%s)"
                         % first.verdict)
    occurring = {abs(l) for c in formula.clauses for l in c}
    candidates = {(v if val else -v) for v, val in first.model.items()
                  if v in occurring}
    confirmed = set()
    while True:
        todo = sorted(candidates - confirmed, key=abs)
        if not todo:
            break
        lit = todo[0]
        result = solver.solve(assumptions=[-lit])
        if result.verdict == UNSAT:
            confirmed.add(lit)
            solver.add_refuted([-lit])
        elif result.verdict == SAT:
            candidates = {l for l in candidates
                          if lit_value(result.model, l) is True}
            candidates |= confirmed
        else:
            raise RuntimeError("conflict budget exhausted during backbone search")
    return confirmed


def is_pythagorean(a, b, c):
    return a * a + b * b == c * c


def arithmetic_witness_check():
    """Verify the two triples pinning variable 7825 and their joint conflict.

    (5180, 5865, 7825) forces 7825 into the negative part once 5180 and
    5865 are positive; (625, 7800, 7825) forces it positive once 625 and
    7800 are negative.  Unit propagation on the two constraints under
    those four facts must conflict.
    """
    if not (is_pythagorean(5180, 5865, 7825) and is_pythagorean(625, 7800, 7825)):
        return False
    constraints = [(-5180, -5865, -7825), (625, 7800, 7825)]
    _, conflict = propagate_clauses(constraints, [5180, 5865, -625, -7800])
    return conflict
