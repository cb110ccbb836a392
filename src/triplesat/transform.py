"""Satisfiability-preserving preprocessing: blocked clause elimination and
symmetry breaking, with transformation-proof emission and model repair.

A clause C is blocked on a literal l in C if every resolvent of C on l
with the current formula is tautological.  Removing blocked clauses
preserves satisfiability; a model of the reduced formula is repaired by
re-adding the eliminated clauses in reverse order and flipping the
blocking literal wherever a clause is left unsatisfied.

`bce` eliminates the lowest-index blocked clause first, on its first
blocking literal.  It caches, per literal of each clause, a witness
partner whose resolvent is not tautological: a clause is re-checked only
when one of its witnesses is eliminated, and then only on the literals
that lost theirs.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass

from .cnf import (DimacsError, Formula, clause_line, clause_status, evaluate,
                  is_flip_symmetric, numbered_lines, parse_clause_line, SATISFIED)
from .encoder import occurrence_stats


@dataclass(slots=True)
class EliminationRecord:
    clause: tuple
    blocking_literal: int


def bce(formula):
    """Eliminate blocked clauses to fixpoint.

    Returns (reduced Formula, elimination stack in removal order).  The
    next clause eliminated is always the lowest-index clause that is
    blocked at that moment, on its first blocking literal in clause order.

    Each literal position of each clause keeps a witness: a live partner
    clause whose resolvent on that literal is not tautological.  Clauses
    never change, so a live witness stays valid, and a popped clause
    re-scans only the positions whose witness has been eliminated.  A
    clause whose witnesses all live cannot be blocked; so when a clause D
    is eliminated, only the live neighbours of D that hold D as a witness
    are re-queued.

    Occurrence lists are keyed by literal, never sized by the largest
    variable, and keep eliminated clauses, which `alive` skips.  A cursor
    walks the clauses in index order; a heap holds only re-queued clauses,
    which are all below the cursor, so popping them first keeps the order.
    A clause of three distinct literals tests a partner with two `in`
    checks on the partner's tuple; any other clause builds a clash set.
    """
    clauses = formula.clauses
    occ = defaultdict(list)
    offsets = [0]    # witness[offsets[idx]:offsets[idx + 1]] are clause idx's
    for idx, clause in enumerate(clauses):
        for lit in clause:
            occ[lit].append(idx)
        offsets.append(offsets[-1] + len(clause))
    witness = [-1] * offsets[-1]
    alive = [True] * len(clauses) + [False]   # alive[-1] is False: no witness yet
    pending = [True] * len(clauses)           # not popped since it was queued
    requeued = []                             # a heap, all below the cursor
    cursor = 0
    stack = []

    def find_witness(slot, lit, idx, p, q):
        """Store in witness[slot] the first live clause other than idx that
        holds -lit but neither p nor q; False if there is none."""
        for j in occ[-lit]:
            if alive[j] and j != idx:
                partner = clauses[j]
                if p not in partner and q not in partner:
                    witness[slot] = j
                    return True
        return False

    while True:
        if requeued:
            idx = heapq.heappop(requeued)
        elif cursor < len(clauses):
            idx = cursor
            cursor += 1
        else:
            break
        pending[idx] = False
        clause = clauses[idx]
        slot = offsets[idx]
        blocking = None
        if len(clause) == 3 and clause[0] != clause[1] != clause[2] != clause[0]:
            x, y, z = clause
            if not (alive[witness[slot]] or find_witness(slot, x, idx, -y, -z)):
                blocking = x
            elif not (alive[witness[slot + 1]]
                      or find_witness(slot + 1, y, idx, -x, -z)):
                blocking = y
            elif not (alive[witness[slot + 2]]
                      or find_witness(slot + 2, z, idx, -x, -y)):
                blocking = z
        else:
            for lit in clause:
                if not alive[witness[slot]]:
                    clash = {-m for m in clause if m != lit}
                    for j in occ[-lit]:
                        if alive[j] and j != idx and clash.isdisjoint(clauses[j]):
                            witness[slot] = j
                            break
                    else:
                        blocking = lit
                        break
                slot += 1
        if blocking is None:
            continue
        alive[idx] = False
        stack.append(EliminationRecord(clause, blocking))
        for lit in clause:
            for j in occ[-lit]:
                if (alive[j] and not pending[j]
                        and idx in witness[offsets[j]:offsets[j + 1]]):
                    pending[j] = True
                    heapq.heappush(requeued, j)

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

    Returns (broken formula, pivot).  The formula's clause multiset must be
    invariant under complementing all literals (verified; a ValueError is
    raised otherwise), which makes the unit addition satisfiability-
    equivalent.  Ties on occurrence counts go to the smallest variable
    index.  With no variable occurring there is nothing to break: the
    result is (formula, None).
    """
    if not is_flip_symmetric(formula):
        raise ValueError("formula is not flip-symmetric; refusing to break symmetry")
    pivot = occurrence_stats(formula)[2]
    if pivot is None:
        return formula, None
    broken = Formula(list(formula.clauses) + [(pivot,)], formula.num_vars)
    return broken, pivot


def emit_transform_proof(stack, pivot=None):
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
    lines = [clause_line((record.blocking_literal, *record.clause))
             for record in stack]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_stack(text):
    """Inverse of write_stack; malformed lines raise cnf.DimacsError."""
    stack = []
    for lineno, line in numbered_lines(text):
        if not line.strip():
            continue
        lits = parse_clause_line(line, lineno)
        if not lits:
            raise DimacsError("stack line has no blocking literal", lineno)
        stack.append(EliminationRecord(lits[1:], lits[0]))
    return stack
