"""Conflict-driven clause learning solver.

Two-watched-literal propagation, first-UIP learning with local clause
minimization, activity-based decisions with decay, Luby restarts, and
phase saving (initial polarity negative).  Supports incremental solving
under cube assumptions with the learned-clause database retained across
cubes, DRAT proof emission, and backbone computation.

With a `hints` sink beside the proof, every emitted line also gets its
antecedents, in LRAT style (Cruz-Filipe, Heule, Hunt, Kaufmann,
Schneider-Kamp, CADE 2017): the clauses conflict analysis used, numbered
as `drat.check_proof` numbers clauses.  Input clause `i` is `i`, and the
solver's k-th emitted line is `len(formula.clauses) + k`; the formula is
the only way clauses enter, so every clause has a number.  Every solve
with a hints sink gets one hint per proof line, whatever its verdict, and
recording them changes no step of the search.
"""

from __future__ import annotations

import heapq
from array import array
from collections import defaultdict
from dataclasses import dataclass

from .cnf import lit_value

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


def check_budget(budget):
    """Raise ValueError unless `budget` is None or a conflict count: an
    int, not a bool, of at least 1."""
    if budget is None:
        return
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise ValueError("conflict budget must be an int, got %r" % (budget,))
    if budget < 1:
        raise ValueError("conflict budget must be >= 1, got %r" % (budget,))


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
    `reason`, `activity`, `queued` and `phase` are indexed by variable.
    Slots grow when a variable beyond `cap` arrives.

    Clauses are lists, stored once in `self.clauses` in the order they
    arrive; the watch lists and `reason` hold those same list objects.

    A variable gets an activity, 0.0, when a clause holding it arrives;
    one that only ever occurs in assumptions has none and is never
    decided.  The decision heap holds `(-activity, var)` entries.
    `queued[var]` is true when the heap holds an entry at the variable's
    current activity, and then it holds exactly one.  Every free variable
    with an activity is queued.  An activity changes only while its
    variable is assigned (a bump, which clears the flag) or in
    `_rescale`, which rebuilds the heap; `_backtrack` queues a freed
    variable that has an activity and whose flag is clear.  Entries at
    older activities stay in the heap and are dropped when popped.  The
    keys are a total order and a free variable's current entry precedes
    its older ones, so the first free variable popped is the arg-max of
    activity over free variables, ties to the smaller variable.

    With a `proof` sink, learned clauses and refuted cubes' negations
    are emitted as they are: each is RUP against what precedes it.  A
    `hints` sink, which needs the proof sink, gets one entry per emitted
    line: for a learned clause an `array('i')` of its antecedents' numbers
    (see the module docstring), in an order that propagates: the reasons
    local minimization used, the reasons resolved in trail order, then
    the conflict clause.  Refuted cubes' negations and the empty clause
    get `()`.
    """

    def __init__(self, formula, proof=None, conflict_budget=None, hints=None):
        self.clauses = []          # list of lists; watched at positions 0 and 1
        self.cap = 0               # variables 1..cap have slots below
        self.vals = [None]         # literal -> True/False, None if unassigned
        self.watches = defaultdict(list)  # literal -> clauses watching it
        self.level = [0]           # var -> decision level while assigned
        self.reason = [None]       # var -> implying clause, None for decisions
        self.activity = [None]     # var -> activity, None until touched
        self.queued = [False]      # var -> heap holds its current activity
        self.phase = [False]       # var -> saved polarity; default False
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.var_inc = 1.0
        self.heap = []
        self.ok = True
        self.proof = proof         # list sink of ("a"|"d", clause) lines
        if hints is not None and proof is None:
            raise ValueError("a hints sink needs a proof sink")
        self.hints = hints         # list sink of each line's antecedents
        # id() of a held clause list -> its number: safe, as the solver never
        # drops a clause list it holds (a clause reduction must drop the id)
        self._numbers = {} if hints is not None else None
        self._next_line = len(formula.clauses)
        self._empty_emitted = False
        check_budget(conflict_budget)
        self.conflict_budget = conflict_budget
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
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
        self.queued += [False] * extra
        self.phase += [False] * extra
        self.cap = top

    def _rescale(self):
        """Scale every activity down by 1e-100 and rebuild the heap from
        the unassigned variables that have one; exactly those are queued."""
        activity, vals, queued = self.activity, self.vals, self.queued
        for var, act in enumerate(activity):
            if act is not None:
                activity[var] = act * 1e-100
        self.var_inc *= 1e-100
        self.heap = [(-act, var) for var, act in enumerate(activity)
                     if act is not None and vals[var] is None]
        heapq.heapify(self.heap)
        queued[:] = [False] * len(queued)   # in place: _analyze holds it
        for _, var in self.heap:
            queued[var] = True

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
        activity, queued, heap = self.activity, self.queued, self.heap
        push = heapq.heappush
        for lit in trail[keep:]:
            vals[lit] = vals[-lit] = None
            var = abs(lit)
            phase[var] = lit > 0
            if not queued[var]:
                act = activity[var]
                if act is not None:
                    queued[var] = True
                    push(heap, (-act, var))
        del trail[keep:]
        del trail_lim[target:]
        self.qhead = len(trail)

    # ------------------------------------------------------------ clause store

    def _load(self, clauses):
        """Add the input clauses at decision level 0: literals deduplicated
        in first-occurrence order, literal 0 rejected, every variable
        touched, tautologies skipped, the rest attached.  Touched variables
        enter the decision heap together.  When hints are kept, clause `i`
        gets number `i`."""
        touched = set()
        kept = []
        numbers = self._numbers
        for num, lits in enumerate(clauses):
            clause = list(lits)
            occurring = set(map(abs, clause))
            if 0 in occurring:
                raise ValueError("literal 0 is reserved")
            touched |= occurring
            if len(occurring) < len(clause):   # a repeat or a tautology
                clause = list(dict.fromkeys(clause))
                if len(occurring) < len(clause):
                    continue
            kept.append(clause)
            if numbers is not None:
                numbers[id(clause)] = num
        self._grow(max(touched, default=0))
        self._touch(touched)
        for clause in kept:
            if not self.ok:
                break
            self._attach(clause)

    def add_refuted(self, assumptions):
        """Add the clause negating `assumptions` after solve(assumptions) found
        them UNSAT: emitted to the proof, then attached.  A no-op once the
        solver is unsatisfiable outright.
        """
        negation = [-l for l in assumptions]
        if 0 in negation:
            raise ValueError("literal 0 is reserved")
        if not self.ok:
            return
        self._grow(max(map(abs, negation), default=0))
        self._touch(set(map(abs, negation)))
        self._emit(negation)
        self._attach(negation)

    def _touch(self, variables):
        """Give the variables without an activity 0.0, and queue them."""
        activity, queued, heap = self.activity, self.queued, self.heap
        fresh = [var for var in variables if activity[var] is None]
        for var in fresh:
            activity[var] = 0.0
            queued[var] = True
            heap.append((0.0, var))
        if fresh:
            heapq.heapify(heap)

    def _attach(self, clause):
        """Store a clause at level 0 and watch its first two literals.  With
        literals already assigned, non-false ones move to the front, and a
        clause left unit or false is acted on; on an empty trail nothing is
        assigned, so the clause goes in as it is."""
        if not clause:
            self.ok = False
            return
        vals = self.vals
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
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)
        if assigned and not any(vals[l] is True for l in clause):
            if vals[clause[0]] is False:
                self.ok = False
            elif vals[clause[1]] is False and vals[clause[0]] is None:
                self._enqueue(clause[0], clause)

    # -------------------------------------------------------------- propagation

    def _propagate(self):
        """Propagate pending assignments; returns a conflicting clause.

        A visited clause whose other watch is not true looks for a new
        watch among its literals from position 2 on.  Most clauses of the
        paper's instances have three literals, so a 3-literal clause tests
        `clause[2]` alone, with no loop; a 2-literal one has nothing to
        look at.  Visited clauses either stay on `neg` (compacted into
        `watchers[:kept]`, in order) or moved to another list, so at a
        conflict the visited part ends at `kept + moved` and the unvisited
        clauses after it stay where they are."""
        trail, watches = self.trail, self.watches
        vals, level, reason = self.vals, self.level, self.reason
        push = trail.append
        lvl = len(self.trail_lim)
        qhead = self.qhead
        start = qhead
        confl = None
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            watchers = watches[neg]
            kept = 0               # watchers[:kept] stay on neg, in order
            moved = 0              # visited watchers that left neg
            for clause in watchers:
                first = clause[0]
                if first == neg:
                    first = clause[0] = clause[1]
                    clause[1] = neg
                val = vals[first]
                if val:
                    watchers[kept] = clause
                    kept += 1
                    continue
                if len(clause) == 3:
                    other = clause[2]
                    if vals[other] is not False:
                        clause[1] = other
                        clause[2] = neg
                        watches[other].append(clause)
                        moved += 1
                        continue
                elif len(clause) > 3:
                    for k in range(2, len(clause)):
                        other = clause[k]
                        if vals[other] is not False:
                            clause[1] = other
                            clause[k] = neg
                            watches[other].append(clause)
                            moved += 1
                            break
                    if clause[1] != neg:
                        continue
                watchers[kept] = clause
                kept += 1
                if val is False:
                    confl = clause
                    del watchers[kept:kept + moved]   # the unvisited ones stay
                    break
                vals[first] = True
                vals[-first] = False
                var = abs(first)
                level[var] = lvl
                reason[var] = clause
                push(first)
            if confl is not None:
                break
            del watchers[kept:]
        self.qhead = qhead
        self.propagations += qhead - start
        return confl

    # ----------------------------------------------------------------- learning

    def _analyze(self, confl):
        """First-UIP learning from the conflicting clause `confl`.  Every
        variable met is bumped while assigned, so it leaves the queue and
        `_backtrack` queues it again at its new activity.  Returns the
        learned clause, the backtrack level (0 for a unit), the position
        in it of the first literal at that level (0 for a unit) and, when
        hints are kept, the clauses used, in the order the `hints` sink
        takes them."""
        trail, level, reason = self.trail, self.level, self.reason
        activity, queued, var_inc = self.activity, self.queued, self.var_inc
        cur = len(self.trail_lim)
        seen = set()
        tail = []              # literals from lower decision levels
        pathc = 0
        p = 0                  # no literal yet
        reason_clause = confl
        idx = len(trail) - 1
        resolved = [] if self.hints is not None else None
        while True:
            if resolved is not None:
                resolved.append(reason_clause)
            for q in reason_clause:
                if q == p:
                    continue
                var = abs(q)
                if var in seen or level[var] == 0:
                    continue
                seen.add(var)
                activity[var] = act = activity[var] + var_inc
                queued[var] = False
                if act > 1e100:
                    self._rescale()
                    var_inc = self.var_inc
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
            reason_clause = reason[abs(p)]
        # local minimization: drop tail literals whose reason is subsumed
        learnt = [-p]
        bt_level = 0           # the highest level in learnt[1:], and
        watch = 0              # the position of its first literal there
        used = [] if resolved is not None else None
        for q in tail:
            var = abs(q)
            r = reason[var]
            if r is not None:
                for m in r:
                    if m != -q and abs(m) not in seen and level[abs(m)] != 0:
                        break
                else:
                    if used is not None:
                        used.append(r)
                    continue
            if level[var] > bt_level:
                bt_level = level[var]
                watch = len(learnt)
            learnt.append(q)
        if used is not None:
            used += reversed(resolved)
        return learnt, bt_level, watch, used

    def _emit(self, lits, used=()):
        """Append an addition to the proof sink; with hints, append the
        numbers of its antecedents `used` and number the clause list `lits`."""
        if self.proof is not None:
            self.proof.append(("a", tuple(lits)))
            numbers = self._numbers
            if numbers is not None:
                self.hints.append(array("i", map(numbers.__getitem__, map(id, used)))
                                  or ())
                numbers[id(lits)] = self._next_line
                self._next_line += 1

    def _emit_empty(self):
        if not self._empty_emitted:
            self._empty_emitted = True
            self._emit(())

    def _learn(self, learnt, bt_level, watch, used):
        self._emit(learnt, used)
        if watch > 1:
            # watch a max-level literal at position 1 so the watch pair is
            # exactly the pair that un-assigns last on backtracking
            learnt[1], learnt[watch] = learnt[watch], learnt[1]
        self._backtrack(bt_level)
        self.clauses.append(learnt)
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
        else:
            self.watches[learnt[0]].append(learnt)
            self.watches[learnt[1]].append(learnt)
            self._enqueue(learnt[0], learnt)
        self.var_inc /= VAR_DECAY

    # ------------------------------------------------------------------ solving

    def _pick_branch(self):
        """The free variable of highest activity, in its saved phase."""
        heap, vals = self.heap, self.vals
        activity, queued, pop = self.activity, self.queued, heapq.heappop
        while heap:
            key, var = pop(heap)
            if vals[var] is None:
                queued[var] = False
                return var if self.phase[var] else -var
            if key == -activity[var]:
                queued[var] = False
        return None

    def _model(self):
        """The trail as a dict; at SAT, every touched variable is on it."""
        return {abs(lit): lit > 0 for lit in self.trail}

    def _result(self, verdict, model=None):
        return SolveResult(verdict, model, self.conflicts, self.decisions,
                           self.propagations)

    def solve(self, assumptions=()):
        """Solve under the given assumption literals.

        UNSAT with no assumptions (or once the empty clause is derived)
        is global; with assumptions it only refutes the cube.
        """
        assumptions = list(assumptions)
        if 0 in assumptions:
            raise ValueError("literal 0 is reserved")
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
                self._learn(*self._analyze(confl))
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


def solve(formula, **settings):
    """One-shot solve: `solve_incremental` on the one empty cube, whose
    result it returns.  An UNSAT verdict leaves a DRAT refutation in the
    `proof` sink."""
    return solve_incremental(formula, [()], **settings)[-1]


def solve_incremental(formula, cube_list, **settings):
    """Solve the formula under each cube in order with one incremental solver.

    Learned clauses and heuristic state persist across cubes.  Each
    refuted cube contributes the clause negating it, both to the proof
    and to the clause database.  A model decides the formula, so solving
    stops after the first SAT cube: there is one result per cube solved.
    The keyword settings (proof and hints sinks, conflict budget) go to
    `Solver`, which gives a hints sink one hint per proof line.
    """
    solver = Solver(formula, **settings)
    results = []
    for cube in cube_list:
        result = solver.solve(assumptions=cube)
        results.append(result)
        if result.verdict == SAT:
            break
        if result.verdict == UNSAT:
            solver.add_refuted(cube)
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
    candidates = {(v if val else -v) for v, val in first.model.items()}
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
