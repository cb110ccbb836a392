"""Conflict-driven clause learning solver.

Two-watched-literal propagation, first-UIP learning with local clause
minimization, activity-based decisions with decay, Luby restarts, and
phase saving (initial polarity negative).  Supports incremental solving
under cube assumptions with the learned-clause database retained across
cubes, DRAT proof emission, and backbone computation.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass

from .cnf import lit_value, propagate_clauses

SAT = "SAT"
UNSAT = "UNSAT"
INDETERMINATE = "indeterminate"

LUBY_UNIT = 100   # conflicts per unit of the Luby restart sequence
VAR_DECAY = 0.95  # activity decay per conflict, as in MiniSat


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
    """One instance is strictly single-threaded; share nothing across threads.

    State is flat, as in MiniSat (Een, Sorensson, SAT 2003).  `vals` is
    indexed by literal: it holds 2*cap+1 slots, so `vals[lit]` and
    `vals[-lit]` both work through Python's negative indexing.  `level`,
    `reason`, `activity` and `phase` are indexed by variable.  Slots grow
    when a variable beyond `cap` arrives.
    """

    def __init__(self, formula=None, proof=None, conflict_budget=None):
        self.clauses = []          # list of lists; watched at positions 0 and 1
        self.cap = 0               # variables 1..cap have slots below
        self.vals = [None]         # literal -> True/False, None if unassigned
        self.watches = defaultdict(list)  # literal -> clause indices watching it
        self.level = [0]           # var -> decision level while assigned
        self.reason = [None]       # var -> clause index, None for decisions
        self.activity = [None]     # var -> activity, None until touched
        self.phase = [False]       # var -> saved polarity; default False
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.var_inc = 1.0
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
            self._grow(formula.num_vars)
            self._load(formula.clauses)

    # ------------------------------------------------------------------ basics

    def _grow(self, top):
        """Give every variable up to `top` its slots."""
        cap = self.cap
        if top <= cap:
            return
        extra = top - cap
        # negative literals index from the end, so they keep the tail
        self.vals = self.vals[:cap + 1] + [None] * (2 * extra) + self.vals[cap + 1:]
        self.level += [0] * extra
        self.reason += [None] * extra
        self.activity += [None] * extra
        self.phase += [False] * extra
        self.cap = top

    def _rescale(self):
        """Scale every activity down by 1e-100 and rebuild the heap from
        the unassigned variables that have one."""
        activity, vals = self.activity, self.vals
        for var, act in enumerate(activity):
            if act is not None:
                activity[var] = act * 1e-100
        self.var_inc *= 1e-100
        self.heap = [(-act, var) for var, act in enumerate(activity)
                     if act is not None and vals[var] is None]
        heapq.heapify(self.heap)

    def _enqueue(self, lit, reason):
        var = abs(lit)
        self.vals[lit] = True
        self.vals[-lit] = False
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _new_level(self):
        self.trail_lim.append(len(self.trail))

    def _backtrack(self, target):
        trail_lim = self.trail_lim
        if len(trail_lim) <= target:
            return
        keep = trail_lim[target]
        trail, vals, phase = self.trail, self.vals, self.phase
        activity, heap, push = self.activity, self.heap, heapq.heappush
        for lit in trail[keep:]:
            vals[lit] = vals[-lit] = None
            var = abs(lit)
            phase[var] = lit > 0
            push(heap, (-(activity[var] or 0.0), var))
        del trail[keep:]
        del trail_lim[target:]
        self.qhead = len(trail)

    # ------------------------------------------------------------ clause store

    def add_clause(self, lits):
        """Add an input (or derived) clause at decision level 0."""
        self._load((lits,))

    def _load(self, clauses):
        """Add clauses at decision level 0, each as `add_clause` defines it:
        literals deduplicated in first-occurrence order, literal 0
        rejected, every variable touched, tautologies skipped, the rest
        attached.  Touched variables enter the decision heap together."""
        assert not self.trail_lim
        touched = set()
        kept = []
        for lits in clauses:
            clause = list(lits)
            occurring = set(map(abs, clause))
            if 0 in occurring:
                raise ValueError("literal 0 is reserved")
            touched |= occurring
            if len(occurring) < len(clause):   # a repeat or a tautology
                clause = list(dict.fromkeys(clause))
                if len(occurring) < len(clause):
                    self.taut_vars |= occurring
                    continue
            kept.append(clause)
        self._grow(max(touched, default=0))
        activity = self.activity
        fresh = [(0.0, var) for var in touched if activity[var] is None]
        if fresh:
            for _, var in fresh:
                activity[var] = 0.0
            self.heap += fresh
            heapq.heapify(self.heap)
        for clause in kept:
            if not self.ok:
                break
            self._attach(clause)

    def add_refuted(self, assumptions):
        """Add the clause negating `assumptions` after solve(assumptions) found
        them UNSAT: emitted to the proof, then attached.  A no-op once the
        solver is unsatisfiable outright.
        """
        if not self.ok:
            return
        negation = [-l for l in assumptions]
        self._grow(max(map(abs, negation), default=0))
        self._emit(negation)
        self._attach(negation)

    def _attach(self, clause):
        """Store a clause at level 0 and watch its first two literals.  With
        literals already assigned, non-false ones move to the front, and a
        clause left unit or false is acted on; on an empty trail nothing is
        assigned, so the clause goes in as it is."""
        if not clause:
            self.ok = False
            return
        vals = self.vals
        idx = len(self.clauses)
        self.clauses.append(clause)
        if len(clause) == 1:
            val = vals[clause[0]]
            if val is None:
                self._enqueue(clause[0], None)
            elif val is False:
                self.ok = False
            return
        assigned = bool(self.trail)
        if assigned:
            clause.sort(key=lambda l: vals[l] is False)
        self.watches[clause[0]].append(idx)
        self.watches[clause[1]].append(idx)
        if assigned and not any(vals[l] is True for l in clause):
            if vals[clause[0]] is False:
                self.ok = False
            elif vals[clause[1]] is False and vals[clause[0]] is None:
                self._enqueue(clause[0], idx)

    # -------------------------------------------------------------- propagation

    def _propagate(self):
        """Propagate pending assignments; returns a conflicting clause index."""
        trail, clauses, watches = self.trail, self.clauses, self.watches
        vals, level, reason = self.vals, self.level, self.reason
        lvl = len(self.trail_lim)
        qhead = self.qhead
        start = qhead
        confl = None
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            watchers = watches[neg]
            kept = 0               # watchers[:kept] stay on neg, in order
            for pos, ci in enumerate(watchers):
                clause = clauses[ci]
                first = clause[0]
                if first == neg:
                    first = clause[0] = clause[1]
                    clause[1] = neg
                val = vals[first]
                if val:
                    watchers[kept] = ci
                    kept += 1
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if vals[other] is not False:
                        clause[1] = other
                        clause[k] = neg
                        watches[other].append(ci)
                        break
                else:
                    watchers[kept] = ci
                    kept += 1
                    if val is False:
                        confl = ci
                        del watchers[kept:pos + 1]   # the unvisited ones stay
                        break
                    vals[first] = True
                    vals[-first] = False
                    var = abs(first)
                    level[var] = lvl
                    reason[var] = ci
                    trail.append(first)
            if confl is not None:
                break
            del watchers[kept:]
        self.qhead = qhead
        self.propagations += qhead - start
        return confl

    # ----------------------------------------------------------------- learning

    def _analyze(self, confl):
        trail, level, reason, clauses = self.trail, self.level, self.reason, self.clauses
        activity, heap, var_inc = self.activity, self.heap, self.var_inc
        push = heapq.heappush
        cur = len(self.trail_lim)
        seen = set()
        tail = []              # literals from lower decision levels
        pathc = 0
        p = 0                  # no literal yet
        reason_clause = clauses[confl]
        idx = len(trail) - 1
        while True:
            for q in reason_clause:
                if q == p:
                    continue
                var = abs(q)
                if var in seen or level[var] == 0:
                    continue
                seen.add(var)
                activity[var] = act = (activity[var] or 0.0) + var_inc
                push(heap, (-act, var))
                if act > 1e100:
                    self._rescale()
                    heap, var_inc = self.heap, self.var_inc
                if level[var] >= cur:
                    pathc += 1
                else:
                    tail.append(q)
            while abs(trail[idx]) not in seen:
                idx -= 1
            p = trail[idx]
            idx -= 1
            pathc -= 1
            if pathc == 0:
                break
            reason_clause = clauses[reason[abs(p)]]
        # local minimization: drop tail literals whose reason is subsumed
        learnt = [-p]
        for q in tail:
            r = reason[abs(q)]
            if r is not None and all(
                    abs(m) in seen or level[abs(m)] == 0
                    for m in clauses[r] if m != -q):
                continue
            learnt.append(q)
        if len(learnt) == 1:
            bt_level = 0
        else:
            bt_level = max(level[abs(q)] for q in learnt[1:])
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
        level = self.level
        if len(learnt) > 1:
            # watch a max-level literal at position 1 so the watch pair is
            # exactly the pair that un-assigns last on backtracking
            k = max(range(1, len(learnt)), key=lambda i: level[abs(learnt[i])])
            learnt[1], learnt[k] = learnt[k], learnt[1]
        self._backtrack(bt_level)
        idx = len(self.clauses)
        self.clauses.append(list(learnt))
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
        else:
            self.watches[learnt[0]].append(idx)
            self.watches[learnt[1]].append(idx)
            self._enqueue(learnt[0], idx)
        self.var_inc /= VAR_DECAY

    # ------------------------------------------------------------------ solving

    def _pick_branch(self):
        heap, vals = self.heap, self.vals
        while heap:
            _, var = heapq.heappop(heap)
            if vals[var] is None:
                return var if self.phase[var] else -var
        return None

    def _model(self):
        model = {abs(lit): lit > 0 for lit in self.trail}
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
        self._grow(max(map(abs, assumptions), default=0))
        self._backtrack(0)
        if not self.ok:
            self._emit_empty()
            return self._result(UNSAT)
        vals = self.vals
        conflicts_here = 0
        budget = self.conflict_budget
        restart_idx = 1
        next_restart = luby(restart_idx) * LUBY_UNIT
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not self.trail_lim:
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
            while len(self.trail_lim) < len(assumptions):
                cand = assumptions[len(self.trail_lim)]
                val = vals[cand]
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


def solve(formula, proof=None, conflict_budget=None):
    """One-shot solve; an UNSAT verdict leaves a DRAT refutation in `proof`."""
    solver = Solver(formula, proof=proof, conflict_budget=conflict_budget)
    return solver.solve()


def solve_incremental(formula, cube_list, proof=None, conflict_budget=None):
    """Solve the formula under each cube in order with one incremental solver.

    Learned clauses and heuristic state persist across cubes.  Each
    refuted cube contributes the clause negating it, both to the proof
    and to the clause database.
    """
    solver = Solver(formula, proof=proof, conflict_budget=conflict_budget)
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
