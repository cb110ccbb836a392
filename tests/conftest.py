"""Shared fixtures and independent oracles for the test suite.

The brute-force routines here are deliberately primitive (plain
recursive enumeration with clause-falsification pruning) so they share
no machinery with the solver under test.
"""

import heapq
import math
import os
import random
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import pytest

from triplesat import cdcl
from triplesat.cdcl import INDETERMINATE, SAT, UNSAT, SolveResult, luby
from triplesat.cnf import (Formula, Propagator, is_flip_symmetric, lit_value,
                           propagate_clauses)
from triplesat.drat import CheckResult, _Checker
from triplesat.lookahead import (CUTOFF, MODE_BIN, MODE_PTN, MODE_RND,
                                 MODE_VAR, REFUTED, Leaf, LookaheadError, Node,
                                 build_preorder, check_mode, cubes,
                                 params_for_mode, parse_cutoff, split)
from triplesat.transform import EliminationRecord


REPO = Path(__file__).resolve().parents[1]


def run_python(args, cwd, timeout=120):
    """Run this interpreter in a subprocess that imports triplesat from this
    checkout; returns the CompletedProcess with text output."""
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


# ------------------------------------------------------------------- oracles


def brute_force(formula):
    """Return a satisfying total assignment over occurring variables, or None."""
    clauses = [tuple(c) for c in formula.clauses]
    if any(len(c) == 0 for c in clauses):
        return None
    variables = sorted({abs(l) for c in clauses for l in c})
    assign = {}

    def falsified(clause):
        for lit in clause:
            value = assign.get(abs(lit))
            if value is None or value == (lit > 0):
                return False
        return True

    def recurse(i):
        if any(falsified(c) for c in clauses):
            return False
        if i == len(variables):
            return True
        var = variables[i]
        for value in (False, True):
            assign[var] = value
            if recurse(i + 1):
                return True
        del assign[var]
        return False

    if recurse(0):
        return dict(assign)
    return None


def brute_sat(formula):
    return brute_force(formula) is not None


def negate_cubes(cube_list):
    """One clause per cube: the complements of its literals."""
    if not cube_list:
        raise ValueError("empty cube list")
    return Formula([tuple(-l for l in cube) for cube in cube_list])


def cubes_cover_all(cube_list):
    """True iff every assignment of the cubes' variables extends some cube,
    i.e. iff negate_cubes(cube_list) is UNSAT.

    Each assignment is a bitmask over the sorted variables; a cube without
    a complementary pair marks every assignment that agrees with it.
    """
    variables = sorted({abs(l) for cube in cube_list for l in cube})
    bit = {var: 1 << i for i, var in enumerate(variables)}
    covered = bytearray(1 << len(variables))
    everything = len(covered) - 1
    for cube in cube_list:
        lits = set(cube)
        if any(-l in lits for l in lits):
            continue
        ones = sum(bit[l] for l in lits if l > 0)
        free = everything & ~sum(bit[abs(l)] for l in lits)
        sub = free
        while True:
            covered[ones | sub] = 1
            if not sub:
                break
            sub = (sub - 1) & free
    return all(covered)


def random_formula(rng, max_vars=8, max_clauses=None, allow_units=True):
    """A random non-tautological CNF; clause lengths 1..3 over 1..max_vars."""
    num_vars = rng.randint(2, max_vars)
    if max_clauses is None:
        max_clauses = 4 * num_vars
    num_clauses = rng.randint(1, max_clauses)
    clauses = []
    low = 1 if allow_units else 2
    for _ in range(num_clauses):
        width = rng.randint(low, min(3, num_vars))
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return Formula(clauses, num_vars)


def random_tree(rng, max_depth=8, max_var=50):
    if max_depth == 0 or rng.random() < 0.3:
        return Leaf(rng.choice(["cutoff", "refuted"]))
    var = rng.randint(1, max_var)
    literal = var if rng.random() < 0.5 else -var
    return Node(literal,
                random_tree(rng, max_depth - 1, max_var),
                random_tree(rng, max_depth - 1, max_var))


def ap3_formula(n):
    """2-coloring of 1..n with no monochromatic 3-term arithmetic progression."""
    clauses = []
    for d in range(1, n):
        for a in range(1, n + 1 - 2 * d):
            progression = (a, a + d, a + 2 * d)
            clauses.append(progression)
            clauses.append(tuple(-x for x in progression))
    return Formula(clauses, n)


def is_tautology(clause):
    lits = set(clause)
    return any(-l in lits for l in lits)


def resolve(c1, c2, var):
    """Resolvent of c1 (containing var) and c2 (containing -var)."""
    if var <= 0:
        raise ValueError("resolution variable must be positive")
    if var not in c1:
        raise ValueError("variable %d does not occur positively in %s" % (var, (c1,)))
    if -var not in c2:
        raise ValueError("variable %d does not occur negatively in %s" % (var, (c2,)))
    return tuple(dict.fromkeys([l for l in c1 if l != var] +
                               [l for l in c2 if l != -var]))


def check_rup(formula, clause):
    """True iff propagating the negated literals of `clause` in F conflicts:
    one RUP query of the checker that `drat.check_proof` runs."""
    return _Checker(formula).is_rup(clause)


def check_rat(formula, clause, pivot):
    """Resolution-asymmetric-tautology check with an explicit pivot, by the
    checker that `drat.check_proof` runs.

    Every resolvent of `clause` with a partner containing the pivot's
    complement must be an asymmetric tautology; vacuously true without
    partners, and any RUP clause passes outright.
    """
    if pivot not in clause:
        raise ValueError("pivot %d not in clause %s" % (pivot, (clause,)))
    return _Checker(formula).is_rat(clause, pivot)


def extension_clauses(x, a, b):
    """Clauses defining x := a AND b, for a fresh variable x and literals
    a, b of distinct variables.  Added in this order, each has RAT with
    its x-literal as pivot."""
    return [(x, -a, -b), (-x, a), (-x, b)]


def reference_bce(formula):
    """Blocked clause elimination by re-checking every re-queued clause in
    full: the oracle of `transform.bce`, which must return the same
    reduced formula and the same elimination stack.

    Candidates are examined in clause-index order; neighbours of an
    eliminated clause are re-queued.
    """
    clauses = [tuple(c) for c in formula.clauses]
    lit_sets = [frozenset(c) for c in clauses]
    occ = defaultdict(set)
    for idx, lits in enumerate(lit_sets):
        for lit in lits:
            occ[lit].add(idx)
    alive = [True] * len(clauses)
    heap = list(range(len(clauses)))
    heapq.heapify(heap)
    pending = set(heap)
    stack = []

    while heap:
        idx = heapq.heappop(heap)
        if idx not in pending:
            continue
        pending.discard(idx)
        if not alive[idx]:
            continue
        clause = clauses[idx]
        blocking = None
        for lit in clause:
            rest = [m for m in clause if m != lit]
            for j in occ[-lit]:
                if j == idx:
                    continue
                partner = lit_sets[j]
                if not any(-m in partner for m in rest):
                    break
            else:
                blocking = lit
                break
        if blocking is None:
            continue
        alive[idx] = False
        for lit in lit_sets[idx]:
            occ[lit].discard(idx)
        stack.append(EliminationRecord(clause, blocking))
        for lit in lit_sets[idx]:
            for j in occ[-lit]:
                if alive[j] and j not in pending:
                    pending.add(j)
                    heapq.heappush(heap, j)

    reduced = [c for i, c in enumerate(clauses) if alive[i]]
    return Formula(reduced, formula.num_vars), stack


def reference_propagate(clauses, assumptions=(), order_rng=None):
    """Unit propagation by rescanning every clause until nothing is unit,
    setting one pending unit per scan (a random one when `order_rng` is
    given).  Returns (assignment, conflict) like cnf.propagate_clauses."""
    assign = {}
    for lit in assumptions:
        if assign.get(abs(lit), lit > 0) != (lit > 0):
            return {}, True
        assign[abs(lit)] = lit > 0
    while True:
        pending = []
        for clause in clauses:
            unassigned = [l for l in clause if assign.get(abs(l)) is None]
            satisfied = any(assign.get(abs(l)) == (l > 0) for l in clause)
            if satisfied:
                continue
            if not unassigned:
                return assign, True
            if len(unassigned) == 1:
                pending.append(unassigned[0])
        if not pending:
            return assign, False
        if order_rng is not None:
            order_rng.shuffle(pending)
        lit = pending[0]
        assign[abs(lit)] = lit > 0


# The h-table and the per-node engine as split used them before each node
# derived its free variables and h-table once, verbatim except for the
# `reference_`/`Reference` names: the oracle of the h-table and split
# differential tests, so the live code is compared with a fixed copy.


@dataclass
class ReferenceHTable:
    values: dict            # literal -> heuristic value
    means: list             # per-round mean, means[i] is the round-i average

    def product(self, var):
        return self.values.get(var, 0.0) * self.values.get(-var, 0.0)


def reference_check_3cnf(residual):
    for clause in residual:
        if len(clause) > 3:
            raise LookaheadError("residual clause %r longer than 3" % (clause,))


def reference_compute_h(residual, params):
    reference_check_3cnf(residual)
    occurring = {abs(l) for c in residual for l in c}
    h = {}
    for var in occurring:
        h[var] = 1.0
        h[-var] = 1.0
    n = len(occurring)
    means = []
    for _ in range(params.iterations):
        total = 0.0
        for v in occurring:    # left to right, as sum() was before 3.12
            total += h[v] + h[-v]
        mu = total / (2 * n) if n else 1.0
        means.append(mu)
        raw = dict.fromkeys(h, 0.0)
        for clause in residual:
            if len(clause) == 3:
                x, y, z = clause
                hy, hz, hx = h[-y] / mu, h[-z] / mu, h[-x] / mu
                raw[x] += hy * hz
                raw[y] += hx * hz
                raw[z] += hx * hy
            elif len(clause) == 2:
                x, y = clause
                raw[x] += params.gamma * h[-y] / mu
                raw[y] += params.gamma * h[-x] / mu
        for lit in h:
            h[lit] = max(params.alpha, min(params.beta, raw[lit]))
    return ReferenceHTable(h, means)


class ReferenceLookaheadEngine(Propagator):
    """The look-aheads of one split node, over the node's residual.

    Built once per node, so the occurrence lists and the residual's unit
    clauses (which a non-fixpoint assignment can leave, and every
    look-ahead must assert too) are shared by all of its look-aheads.
    """

    def __init__(self, residual, table):
        super().__init__(residual)
        self.table = table
        self.h = table.values

    def look_ahead(self, lit):
        """(weight, assigned count, new binary count, refuted) of `lit`.

        The weight sums h(~y) * h(~z) over the newly created binaries
        (y | z); refuted means propagation conflicts, forcing the
        complement.  A ternary clause turns binary only through a false
        literal, so only the clauses in the occurrence lists of the
        negated true literals are weighed, in ascending index: the weight
        is the same float sum a scan of the whole residual in clause order
        would give.
        """
        true, conflict = self.fixpoint([lit])
        if conflict:
            return 0.0, len(true), 0, True
        clauses, occ, h = self.clauses, self.occ, self.h
        touched = set()
        for assigned in true:
            touched.update(occ.get(-assigned, ()))
        weight = 0.0
        new_binaries = 0
        for idx in sorted(touched):
            clause = clauses[idx]
            if len(clause) != 3:
                continue
            unassigned = []
            for other in clause:
                if other in true:
                    break
                if -other not in true:
                    unassigned.append(other)
            else:
                if len(unassigned) == 2:
                    y, z = unassigned
                    weight += h.get(-y, 0.0) * h.get(-z, 0.0)
                    new_binaries += 1
        return weight, len(true), new_binaries, False


def reference_candidates(residual, table, preselect):
    occurring = sorted({abs(l) for c in residual for l in c})
    if preselect >= 1.0 or len(occurring) <= 1:
        return occurring
    keep = max(1, math.ceil(preselect * len(occurring)))
    ranked = sorted(occurring, key=lambda v: (-table.product(v), v))
    return sorted(ranked[:keep])


def reference_score(mode, pos, neg):
    if mode in (MODE_PTN, MODE_RND):
        return pos[0] * neg[0]
    if mode == MODE_BIN:
        return pos[2] * neg[2]
    if mode == MODE_VAR:
        return pos[1] * neg[1]
    raise ValueError("unknown mode %r" % mode)


def reference_measure(engine, mode, preselect=1.0):
    """Look ahead on both polarities of every candidate variable.

    Returns (best variable, failed literals, scores).  The best is the
    smallest of the top-scoring variables that neither polarity refutes,
    or None.  Every refuted literal is failed and its variable unscored.
    """
    best_var = None
    best_score = -1.0
    failed = []
    scores = {}
    for var in reference_candidates(engine.clauses, engine.table, preselect):
        pos = engine.look_ahead(var)
        neg = engine.look_ahead(-var)
        if pos[3]:
            failed.append(var)
        if neg[3]:
            failed.append(-var)
        if pos[3] or neg[3]:
            continue
        score = reference_score(mode, pos, neg)
        scores[var] = score
        if score > best_score:
            best_score = score
            best_var = var
    return best_var, failed, scores


def reference_look_ahead(residual, lit, h):
    """The look-ahead before the per-node engine: full propagation over the
    residual, then a rescan of every ternary clause in clause order.  `h`
    is an h-table {literal: weight}."""
    assign, conflict = reference_propagate(residual, [lit])
    if conflict:
        return 0.0, len(assign), 0, True
    weight = 0.0
    new_binaries = 0
    for clause in residual:
        if len(clause) != 3:
            continue
        unassigned = []
        satisfied = False
        for other in clause:
            val = lit_value(assign, other)
            if val is True:
                satisfied = True
                break
            if val is None:
                unassigned.append(other)
        if satisfied or len(unassigned) != 2:
            continue
        y, z = unassigned
        weight += h.get(-y, 0.0) * h.get(-z, 0.0)
        new_binaries += 1
    return weight, len(assign), new_binaries, False


def true_literals(assignment):
    """The set of true literals of a partial assignment {variable: bool}."""
    return {var if value else -var for var, value in assignment.items()}


def reference_residual(clauses, assignment):
    """The residual before it took a set of true literals: reduce clauses
    under a partial assignment {variable: bool}."""
    residual = []
    for clause in clauses:
        reduced = []
        satisfied = False
        for lit in clause:
            val = lit_value(assignment, lit)
            if val is True:
                satisfied = True
                break
            if val is None:
                reduced.append(lit)
        if not satisfied:
            residual.append(tuple(reduced))
    return residual


def reference_split(formula, cutoff, mode="ptn3sat", params=None, preselect=1.0,
                    stats=None):
    """`lookahead.split` before children settled on their parent's engine:
    every node and every failed-literal round propagates its full
    assumption list over the whole formula and reduces the whole formula
    again.  `stats`, a Counter if given, counts failed-literal rounds."""
    check_mode(mode)
    params = params or params_for_mode(mode)
    clauses = formula.clauses

    def settle(assumed, depth):
        """A Leaf, or (branch variable, assumptions after failed literals)."""
        assign, conflict = propagate_clauses(clauses, assumed)
        if conflict:
            return Leaf(REFUTED)
        if depth >= cutoff.depth_limit:
            return Leaf(CUTOFF)
        residual = reference_residual(clauses, assign)
        while True:
            if not residual:
                return Leaf(CUTOFF)
            n_bin = sum(1 for c in residual if len(c) == 2)
            n_free = len({abs(l) for c in residual for l in c})
            if cutoff.triggers(n_bin, n_free):
                return Leaf(CUTOFF)
            table = reference_compute_h(residual, params)
            best, failed, _ = reference_measure(
                ReferenceLookaheadEngine(residual, table), mode, preselect)
            if any(-lit in failed for lit in failed):
                return Leaf(REFUTED)
            if not failed:
                return Leaf(CUTOFF) if best is None else (best, assumed)
            if stats is not None:
                stats["failed_rounds"] += 1
            assumed = assumed + [-lit for lit in failed]
            assign, conflict = propagate_clauses(clauses, assumed)
            if conflict:
                return Leaf(REFUTED)
            residual = reference_residual(clauses, assign)

    pending = [([], 0)]   # (assumptions, depth) of nodes still to settle

    def next_node():
        assumed, depth = pending.pop()
        settled = settle(assumed, depth)
        if isinstance(settled, Leaf):
            return settled
        best, assumed = settled
        pending.append((assumed + [-best], depth + 1))
        pending.append((assumed + [best], depth + 1))
        return Node(best, None, None)

    return build_preorder(next_node)


class ReferenceChecker:
    """The checker before the watched-literal rewrite: every query re-enqueues
    every unit clause and walks full literal -> clause occurrence sets."""

    def __init__(self, formula):
        self.clauses = []
        self.alive = []
        self.occ = defaultdict(set)
        self.units = set()
        self.empty = set()
        self.by_key = defaultdict(list)
        for clause in formula.clauses:
            self.add(clause)

    def add(self, clause):
        idx = len(self.clauses)
        self.clauses.append(clause)
        self.alive.append(True)
        for lit in set(clause):
            self.occ[lit].add(idx)
        if len(clause) == 1:
            self.units.add(idx)
        elif not clause:
            self.empty.add(idx)
        self.by_key[frozenset(clause)].append(idx)

    def delete(self, clause):
        """Remove one clause matching by literal-set; False if absent."""
        ids = self.by_key.get(frozenset(clause), [])
        while ids and not self.alive[ids[-1]]:
            ids.pop()
        if not ids:
            return False
        idx = ids.pop()
        self.alive[idx] = False
        for lit in set(self.clauses[idx]):
            self.occ[lit].discard(idx)
        self.units.discard(idx)
        self.empty.discard(idx)
        return True

    def current_formula(self):
        return Formula([c for i, c in enumerate(self.clauses) if self.alive[i]])

    def propagates_to_conflict(self, extra_units):
        if self.empty:
            return True
        assign = {}
        queue = []

        def enqueue(lit):
            var, val = abs(lit), lit > 0
            if var in assign:
                return assign[var] == val
            assign[var] = val
            queue.append(lit)
            return True

        for lit in extra_units:
            if not enqueue(lit):
                return True
        for idx in self.units:
            if not enqueue(self.clauses[idx][0]):
                return True
        head = 0
        while head < len(queue):
            lit = queue[head]
            head += 1
            for idx in list(self.occ[-lit]):
                clause = self.clauses[idx]
                unit = None
                satisfied = False
                for other in clause:
                    val = lit_value(assign, other)
                    if val is True:
                        satisfied = True
                        break
                    if val is None:
                        if unit is not None:
                            unit = False
                            break
                        unit = other
                if satisfied or unit is False:
                    continue
                if unit is None:
                    return True
                if not enqueue(unit):
                    return True
        return False

    def is_rup(self, clause):
        return self.propagates_to_conflict([-l for l in clause])

    def is_rat(self, clause, pivot):
        if self.is_rup(clause):
            return True
        base = [-l for l in clause]
        for idx in list(self.occ[-pivot]):
            partner = self.clauses[idx]
            units = base + [-m for m in partner if m != -pivot]
            if not self.propagates_to_conflict(units):
                return False
        return True


def reference_check_proof(formula, proof, refutation=False, symmetry_pivots=(),
                          any_pivot=False):
    """`drat.check_proof` over `ReferenceChecker`: the oracle of the
    differential checker tests.

    Forward-check a DRAT proof against a formula.

    Additions must have RAT on the first literal (all pivots are tried
    when any_pivot is set); the empty clause needs a propagation
    conflict.  Deleting an absent clause is a warning, not a rejection.
    A unit on a literal in `symmetry_pivots` that fails the RAT check is
    accepted iff the current formula is flip-symmetric at that point.
    With refutation=True the proof must add the empty clause.
    """
    state = ReferenceChecker(formula)
    warnings = []
    empty_added = bool(state.empty)
    for index, (kind, clause) in enumerate(proof):
        if kind == "d":
            if not state.delete(clause):
                warnings.append((index, "deleted clause %s not present" % (clause,)))
            continue
        if kind != "a":
            return CheckResult(False, index, "unknown line kind %r" % kind, warnings)
        if not clause:
            if not state.propagates_to_conflict(()):
                return CheckResult(False, index,
                                   "empty clause is not a propagation conflict",
                                   warnings)
            empty_added = True
        else:
            pivots = clause if any_pivot else clause[:1]
            ok = any(state.is_rat(clause, pivot) for pivot in pivots)
            if not ok and len(clause) == 1 and clause[0] in symmetry_pivots:
                if is_flip_symmetric(state.current_formula()):
                    warnings.append(
                        (index, "unit %d accepted by flip-symmetry" % clause[0]))
                    ok = True
            if not ok:
                return CheckResult(False, index,
                                   "clause %s is not RAT on pivot %d"
                                   % (clause, clause[0]), warnings)
        state.add(clause)
    if refutation and not empty_added:
        return CheckResult(False, None, "refutation does not add the empty clause",
                           warnings)
    return CheckResult(True, warnings=warnings)


class ReferenceSolver:
    """`cdcl.Solver` before its kernel took clause objects in watches and
    reasons and one heap entry per free variable: the oracle of the
    differential solver tests, which must see the same decisions,
    counters, proofs and models from both.

    The body is the earlier solver's, verbatim except that VAR_DECAY and
    LUBY_UNIT are read from `cdcl`, so a test that patches them there
    changes both solvers, and that, as in `cdcl.Solver`, a variable that
    occurs only in assumptions gets no activity and is never decided:
    `_backtrack` queues only variables with an activity, and
    `add_refuted` gives its clause's new variables one.  Watch lists and reasons hold clause indices;
    the heap takes a new entry at every bump and every unassignment.
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
            if activity[var] is not None:
                push(heap, (-activity[var], var))
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
        activity = self.activity
        fresh = [(0.0, var) for var in set(map(abs, negation))
                 if activity[var] is None]
        if fresh:
            for _, var in fresh:
                activity[var] = 0.0
            self.heap += fresh
            heapq.heapify(self.heap)
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
        self.var_inc /= cdcl.VAR_DECAY

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
        next_restart = luby(restart_idx) * cdcl.LUBY_UNIT
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
                    next_restart = conflicts_here + luby(restart_idx) * cdcl.LUBY_UNIT
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


def reference_solve_one_cube(formula, cube, config):
    """`pipeline.solve_one_cube` before every cube went through
    `cdcl.solve_incremental`: the oracle of the conquer differential test.

    The body is the earlier function's, verbatim except that it runs on
    `ReferenceSolver`.  The cube goes in as unit clauses, every lemma is
    extended with the cube's negation (`proof_extension`), and two-level
    mode stops at the first sub-cube that is not refuted.
    """
    start = time.perf_counter()
    subcubes = []
    if config.two_level:
        restricted = Formula(list(formula.clauses) + [(l,) for l in cube],
                             formula.num_vars)
        subcubes = cubes(split(restricted, parse_cutoff(config.second_cutoff),
                               config.mode, config.params, config.preselect))
    split_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    proof = []
    solver = ReferenceSolver(formula, proof=proof,
                             conflict_budget=config.conflict_budget)
    negation = tuple(-l for l in cube)
    solver.proof_extension = negation
    for lit in cube:
        solver.add_clause([lit])
    for subcube in subcubes + [()]:
        result = solver.solve(assumptions=subcube)
        if result.verdict != cdcl.UNSAT:
            break
        solver.add_refuted(subcube)
    if result.verdict == cdcl.UNSAT and (not proof or proof[-1] != ("a", negation)):
        proof.append(("a", negation))
    return result, proof, split_elapsed, time.perf_counter() - start


# ------------------------------------------------------------------ fixtures


FIG1_CLAUSES = [(1, 2, -3), (-1, -2, 3), (2, 3, -4), (-2, -3, 4),
                (-1, -3, -4), (1, 3, 4), (-1, 2, 4), (1, -2, -4)]

FIG1_PROOF = [("a", (-1,)), ("d", (-1, 2, 4)), ("a", (2,)), ("a", ())]


@pytest.fixture
def fig1_formula():
    return Formula(list(FIG1_CLAUSES), 4)


@pytest.fixture
def fig1_proof():
    return list(FIG1_PROOF)


def build_fig3_tree():
    L = lambda: Leaf(CUTOFF)
    return Node(5,
                Node(-3, L(), Node(7, L(), L())),
                Node(2, L(), Node(3, Node(-6, L(), L()), L())))


FIG3_CUBES = [(5, -3), (5, 3, 7), (5, 3, -7),
              (-5, 2), (-5, -2, 3, -6), (-5, -2, 3, 6), (-5, -2, -3)]


@pytest.fixture
def fig3_tree():
    return build_fig3_tree()


@pytest.fixture
def rng():
    return random.Random(20260823)
