"""Satisfiability-preserving preprocessing: blocked clause elimination and
symmetry breaking, with transformation-proof emission and model repair.

A clause C is blocked on a literal l in C if every resolvent of C on l
with the current formula is tautological.  Removing blocked clauses
preserves satisfiability; a model of the reduced formula is repaired by
re-adding the eliminated clauses in reverse order and flipping the
blocking literal wherever a clause is left unsatisfied.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass

from .cnf import (DimacsError, Formula, clause_status, evaluate, is_flip_symmetric,
                  parse_clause_line, SATISFIED)
from .encoder import occurrence_stats


@dataclass
class EliminationRecord:
    clause: tuple
    blocking_literal: int
    order_index: int


def bce(formula):
    """Eliminate blocked clauses to fixpoint.

    Returns (reduced Formula, elimination stack in removal order).
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


def reconstruct(assignment, stack, formula=None):
    """Repair a model of the BCE-reduced formula into a model of the original.

    Walks the elimination stack in reverse; whenever an eliminated clause
    is not satisfied, its blocking literal is set to true.  Variables of
    eliminated clauses that are still unassigned are defaulted to false
    first, which cannot unsatisfy the reduced formula.  If `formula` (the
    reduced formula) is given, the input model is validated against it.
    """
    if formula is not None and evaluate(formula, assignment) != SATISFIED:
        raise ValueError("assignment does not satisfy the reduced formula")
    repaired = dict(assignment)
    for record in stack:
        for lit in record.clause:
            repaired.setdefault(abs(lit), False)
    for record in reversed(stack):
        if clause_status(record.clause, repaired) != SATISFIED:
            lit = record.blocking_literal
            repaired[abs(lit)] = lit > 0
    return repaired


def symmetry_break(formula):
    """Add a unit clause on the most frequent variable of a flip-symmetric formula.

    The formula's clause multiset must be invariant under complementing
    all literals (verified; a ValueError is raised otherwise), which makes
    the unit addition satisfiability-equivalent.  Ties on occurrence
    counts go to the smallest variable index.
    """
    if not is_flip_symmetric(formula):
        raise ValueError("formula is not flip-symmetric; refusing to break symmetry")
    occurring, _, pivot = occurrence_stats(formula)
    if not occurring:
        raise ValueError("formula has no occurring variables")
    broken = Formula(list(formula.clauses) + [(pivot,)], formula.num_vars)
    return broken, pivot


def emit_transform_proof(original, stack, pivot=None):
    """DRAT lines for the transformation: one deletion per eliminated clause,
    then the symmetry-breaking unit addition (if any).

    The deletions are sat-preserving on their own; the unit addition is
    justified by the separately verified flip symmetry, not by a RAT
    derivation, and the checker must be told about the pivot.
    """
    proof = [("d", record.clause) for record in stack]
    if pivot is not None:
        proof.append(("a", (pivot,)))
    return proof


def write_stack(stack):
    """Stack file: one `<blocking-literal> <clause literals> 0` line per record."""
    lines = []
    for record in stack:
        lines.append(" ".join(
            [str(record.blocking_literal)] + [str(l) for l in record.clause] + ["0"]))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_stack(text):
    """Inverse of write_stack; malformed lines raise cnf.DimacsError."""
    stack = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        lits = parse_clause_line(line, lineno)
        if not lits:
            raise DimacsError("stack line has no blocking literal", lineno)
        stack.append(EliminationRecord(lits[1:], lits[0], len(stack)))
    return stack
