"""DRAT proof checking and assembly.

A proof is a sequence of ("a", clause) additions and ("d", clause)
deletions.  Forward checking maintains the current formula: every
addition must be a RAT clause with the first written literal as pivot
(the empty clause instead needs a plain propagation conflict), deletions
are unrestricted and match clauses by literal-set equality.

The checker is the forward core of DRAT-trim (Wetzler, Heule, Hunt, SAT
2014).  Clauses are deduplicated and watched on two literals, and the
unit-propagation fixpoint of the current formula is kept as a level-0
trail that additions extend.  A RUP query pushes the negated clause on
top of that trail, propagates through the watches, and truncates back.
A deletion rebuilds level 0 only when the clause is the reason of a
level-0 literal or level 0 is in conflict.  `check_proof` returns
counters in `CheckResult.stats`: lemmas checked, RUP calls, RAT partner
checks, level-0 rebuilds and propagations (literals put on the trail).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .cnf import Formula, is_flip_symmetric, numbered_lines, parse_clause_line


@dataclass
class CheckResult:
    accepted: bool
    line: int | None = None
    reason: str | None = None
    warnings: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def __bool__(self):
        return self.accepted


def parse_drat(text):
    """Parse ASCII DRAT: 0-terminated integer clauses, `d` prefix for deletions.

    Malformed lines raise cnf.DimacsError carrying the line number.
    """
    proof = []
    for lineno, line in numbered_lines(text):
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
    """Incremental current-formula state for forward proof checking.

    Clauses are stored deduplicated and, from two literals up, watched on
    their first two positions.  Level 0 is the unit-propagation fixpoint
    of the live clauses: `trail` in assignment order, `value` mapping each
    assigned literal to True and its complement to False, and `reason`
    the clause that assigned a literal.  `conflict` is set once level 0
    propagates to a conflict (or holds an empty clause) and stays set
    until a deletion rebuilds level 0.  A query pushes its literals on top
    of the trail, propagates, and truncates back; deleted clauses leave
    the watch lists lazily.
    """

    def __init__(self, formula):
        self.clauses = []
        self.alive = []
        self.occ = defaultdict(list)      # literal -> clause ids, append-only
        self.by_key = defaultdict(list)
        self.stats = dict.fromkeys(("lemmas", "rup_calls", "rat_partner_checks",
                                    "rebuilds", "propagations"), 0)
        for clause in formula.clauses:
            self._store(clause)
        self._rebuild()

    def _store(self, clause):
        idx = len(self.clauses)
        lits = list(dict.fromkeys(clause))
        self.clauses.append(lits)
        self.alive.append(True)
        for lit in lits:
            self.occ[lit].append(idx)
        self.by_key[frozenset(lits)].append(idx)
        return idx

    def _rebuild(self):
        """Level 0 from scratch: watch every live clause, assert the units."""
        self.watches = defaultdict(list)
        self.value = {}
        self.reason = {}
        self.trail = []
        self.conflict = False
        for idx, lits in enumerate(self.clauses):
            if not self.alive[idx]:
                continue
            if len(lits) > 1:
                self.watches[lits[0]].append(idx)
                self.watches[lits[1]].append(idx)
            elif not lits or not self._assign(lits[0], idx):
                self.conflict = True
        if not self.conflict:
            self.conflict = self._propagate(0)
        self.stats["propagations"] += len(self.trail)

    def _assign(self, lit, idx):
        """Make `lit` true at level 0 with reason `idx`; False on a clash."""
        val = self.value.get(lit)
        if val is None:
            self.value[lit] = True
            self.value[-lit] = False
            self.reason[lit] = idx
            self.trail.append(lit)
        return val is not False

    def add(self, clause):
        idx = self._store(clause)
        if self.conflict:
            return  # every query refutes; a rebuild watches the clause
        lits = self.clauses[idx]
        value = self.value
        # non-false literals first: the clause watches two of them where it
        # has two, and a clause unit at level 0 its free literal and a false one
        lits.sort(key=lambda lit: value.get(lit) is False)
        if len(lits) > 1:
            self.watches[lits[0]].append(idx)
            self.watches[lits[1]].append(idx)
        if not lits or value.get(lits[0]) is False:
            self.conflict = True
        elif len(lits) == 1 or value.get(lits[1]) is False:
            head = len(self.trail)
            self._assign(lits[0], idx)
            self.conflict = self._propagate(head)
            self.stats["propagations"] += len(self.trail) - head

    def delete(self, clause):
        """Remove one clause matching by literal-set; False if absent."""
        ids = self.by_key.get(frozenset(clause))
        if not ids:
            return False
        idx = ids.pop()
        self.alive[idx] = False
        value, reason = self.value, self.reason
        # queries leave stale reasons behind, but only on unassigned literals
        if self.conflict or any(value.get(lit) is True and reason.get(lit) == idx
                                for lit in self.clauses[idx]):
            self.stats["rebuilds"] += 1
            self._rebuild()
        return True

    def current_formula(self):
        return Formula([c for i, c in enumerate(self.clauses) if self.alive[i]])

    def _propagate(self, head):
        """Propagate the trail from `head` through the watches; True on conflict."""
        trail, value, reason = self.trail, self.value, self.reason
        watches, clauses, alive = self.watches, self.clauses, self.alive
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            watching = watches.get(false_lit)
            if not watching:
                continue
            kept = []
            for pos, idx in enumerate(watching):
                if not alive[idx]:
                    continue
                lits = clauses[idx]
                if lits[0] == false_lit:
                    lits[0] = lits[1]
                    lits[1] = false_lit
                first = lits[0]
                val = value.get(first)
                if val is True:
                    kept.append(idx)
                    continue
                for k in range(2, len(lits)):
                    lit = lits[k]
                    if value.get(lit) is not False:
                        lits[1] = lit
                        lits[k] = false_lit
                        watches[lit].append(idx)
                        break
                else:
                    if val is False:
                        kept.extend(watching[pos:])
                        watches[false_lit] = kept
                        return True
                    kept.append(idx)
                    value[first] = True
                    value[-first] = False
                    reason[first] = idx
                    trail.append(first)
            watches[false_lit] = kept
        return False

    def propagates_to_conflict(self, extra_units):
        """True iff the current formula plus `extra_units` propagates to a
        conflict; level 0 is left as it was."""
        if self.conflict:
            return True
        trail, value = self.trail, self.value
        mark = len(trail)
        conflict = False
        for lit in extra_units:
            val = value.get(lit)
            if val is None:
                value[lit] = True
                value[-lit] = False
                trail.append(lit)
            elif val is False:
                conflict = True
                break
        if not conflict:
            conflict = self._propagate(mark)
        self.stats["propagations"] += len(trail) - mark
        for lit in trail[mark:]:
            del value[lit]
            del value[-lit]
        del trail[mark:]
        return conflict

    def is_rup(self, clause):
        self.stats["rup_calls"] += 1
        return self.propagates_to_conflict([-l for l in clause])

    def is_rat(self, clause, pivot):
        if self.is_rup(clause):
            return True
        base = [-l for l in clause]
        alive, clauses = self.alive, self.clauses
        for idx in self.occ.get(-pivot, ()):
            if not alive[idx]:
                continue
            self.stats["rat_partner_checks"] += 1
            units = base + [-m for m in clauses[idx] if m != -pivot]
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
    stats = state.stats
    warnings = []
    empty_added = any(not clause for clause in formula.clauses)
    for index, (kind, clause) in enumerate(proof):
        if kind == "d":
            if not state.delete(clause):
                warnings.append((index, "deleted clause %s not present" % (clause,)))
            continue
        if kind != "a":
            return CheckResult(False, index, "unknown line kind %r" % kind, warnings,
                               stats)
        stats["lemmas"] += 1
        if not clause:
            if not state.is_rup(()):
                return CheckResult(False, index,
                                   "empty clause is not a propagation conflict",
                                   warnings, stats)
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
                                   % (clause, clause[0]), warnings, stats)
        state.add(clause)
    if refutation and not empty_added:
        return CheckResult(False, None, "refutation does not add the empty clause",
                           warnings, stats)
    return CheckResult(True, warnings=warnings, stats=stats)


def merge_proofs(transform_proof, cube_proofs, tautology_proof):
    """Concatenate in the mandated order: transform, cubes (by index), tautology."""
    merged = list(transform_proof)
    for index, cube_proof in enumerate(cube_proofs):
        if cube_proof is None:
            raise ValueError("missing cube proof at index %d" % index)
        merged.extend(cube_proof)
    merged.extend(tautology_proof)
    return merged
