"""DRAT proof checking and assembly.

A proof is a sequence of ("a", clause) additions and ("d", clause)
deletions.  Forward checking maintains the current formula: every
addition must be a RAT clause with the first written literal as pivot
(the empty clause instead needs a plain propagation conflict), deletions
are unrestricted and match clauses by literal-set equality.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .cnf import (Formula, is_flip_symmetric, lit_value, make_clause,
                  parse_clause_line)


@dataclass
class CheckResult:
    accepted: bool
    line: int | None = None
    reason: str | None = None
    warnings: list = field(default_factory=list)

    def __bool__(self):
        return self.accepted


def parse_drat(text):
    """Parse ASCII DRAT: 0-terminated integer clauses, `d` prefix for deletions.

    Malformed lines raise cnf.DimacsError carrying the line number.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("ascii")
    proof = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        kind = "a"
        if stripped.startswith("d"):
            kind = "d"
            stripped = stripped[1:]
        proof.append((kind, parse_clause_line(stripped, lineno)))
    return proof


def write_drat(proof):
    lines = []
    for kind, clause in proof:
        body = " ".join(str(l) for l in clause) + (" 0" if clause else "0")
        lines.append(body if kind == "a" else "d " + body)
    return "\n".join(lines) + ("\n" if lines else "")


def check_rup(formula, clause):
    """True iff propagating the negated literals of `clause` in F conflicts."""
    return _Checker(formula).is_rup(clause)


def check_rat(formula, clause, pivot):
    """Resolution-asymmetric-tautology check with an explicit pivot.

    Every resolvent of `clause` with a partner containing the pivot's
    complement must be an asymmetric tautology; vacuously true without
    partners, and any RUP clause passes outright.
    """
    if pivot not in clause:
        raise ValueError("pivot %d not in clause %s" % (pivot, (clause,)))
    return _Checker(formula).is_rat(clause, pivot)


class _Checker:
    """Incremental current-formula state for forward proof checking."""

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


def check_proof(formula, proof, refutation=False, symmetry_pivots=(),
                any_pivot=False):
    """Forward-check a DRAT proof against a formula.

    Additions must have RAT on the first literal (all pivots are tried
    when any_pivot is set); the empty clause needs a propagation
    conflict.  Deleting an absent clause is a warning, not a rejection.
    A unit on a literal in `symmetry_pivots` that fails the RAT check is
    accepted iff the current formula is flip-symmetric at that point.
    With refutation=True the proof must add the empty clause.
    """
    state = _Checker(formula)
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


def extension_clauses(x, a, b, formula=None):
    """Clauses defining x := a AND b over fresh variable x.

    Added in this order, each has RAT with its x-literal as pivot.
    Duplicate literals collapse, so a degenerate a == b definition yields
    two clauses.
    """
    if x <= 0:
        raise ValueError("extension variable must be positive")
    if formula is not None:
        occurring = {abs(l) for c in formula.clauses for l in c}
        if x in occurring:
            raise ValueError("extension variable %d is not fresh" % x)
        for lit in (a, b):
            if abs(lit) not in occurring:
                raise ValueError("literal %d does not occur in the formula" % lit)
    clauses = [make_clause([x, -a, -b]), make_clause([-x, a]), make_clause([-x, b])]
    out = []
    for clause in clauses:
        if clause not in out:
            out.append(clause)
    return out


def merge_proofs(transform_proof, cube_proofs, tautology_proof):
    """Concatenate in the mandated order: transform, cubes (by index), tautology."""
    merged = list(transform_proof)
    for index, cube_proof in enumerate(cube_proofs):
        if cube_proof is None:
            raise ValueError("missing cube proof at index %d" % index)
        merged.extend(cube_proof)
    merged.extend(tautology_proof)
    return merged
