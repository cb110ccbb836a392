"""Shared fixtures and independent oracles for the test suite.

The brute-force routines here are deliberately primitive (plain
recursive enumeration with clause-falsification pruning) so they share
no machinery with the solver under test.
"""

import heapq
import os
import random
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from triplesat.cnf import Formula, is_flip_symmetric, lit_value
from triplesat.drat import CheckResult
from triplesat.lookahead import CUTOFF, Leaf, Node
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
        stack.append(EliminationRecord(clause, blocking, len(stack)))
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


def reference_look_ahead(residual, lit, table):
    """The look-ahead before the per-node engine: full propagation over the
    residual, then a rescan of every ternary clause in clause order."""
    assign, conflict = reference_propagate(residual, [lit])
    if conflict:
        return 0.0, len(assign), 0, True
    weight = 0.0
    new_binaries = 0
    h = table.values
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
