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

Hints.  `check_proof` may be given, per proof line, the numbers of the
clauses a lemma was derived from, as LRAT does (Cruz-Filipe, Heule, Hunt,
Kaufmann, Schneider-Kamp, CADE 2017).  A number is the checker's clause
id: input clause `i` is `i`, the k-th clause the proof adds is
`len(formula.clauses) + k`, and deletions take no number.  The checker
first propagates the negated lemma over the named live clauses only, and
accepts when one of them becomes false under its own level-0 assignment.
Any other result (a number that names a deleted clause, a later one, or
nothing; no conflict) falls back to the watched search and the RAT and
symmetry-pivot path.  Hints can therefore only skip work: outcomes,
lines, reasons and warnings are the same with or without them.  They are
data, checked like everything else, so this module still shares no code
with the solver that wrote them.  `merge_hints` carries each cube's hints
into the merged proof's numbering.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field

from .cnf import (Formula, clause_line, is_flip_symmetric, numbered_lines,
                  parse_clause_line)


@dataclass
class CheckResult:
    accepted: bool
    line: int | None = None
    reason: str | None = None
    warnings: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def __bool__(self):
        return self.accepted


def parse_drat(text, linenos=None):
    """Parse ASCII DRAT: 0-terminated integer clauses; a line is a deletion
    when its first whitespace-separated token is `d`.

    Malformed lines raise cnf.DimacsError carrying the line number.  With
    a `linenos` list, the 1-based file line of each step is appended to it,
    so a step index (`CheckResult.line`, a warning's index) can be shown
    as the line a user sees.
    """
    proof = []
    for lineno, line in numbered_lines(text):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        kind = "d" if stripped.split(None, 1)[0] == "d" else "a"
        body = stripped[1:] if kind == "d" else stripped
        proof.append((kind, parse_clause_line(body, lineno)))
        if linenos is not None:
            linenos.append(lineno)
    return proof


def write_drat(proof):
    lines = [("" if kind == "a" else "d ") + clause_line(clause)
             for kind, clause in proof]
    return "\n".join(lines) + ("\n" if lines else "")


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

    The occurrence lists (`occ`, literal -> clause ids) and the live ids
    per literal set (`by_key`) serve only RAT partner checks and
    deletions, so they are built on first use and kept up from then on.
    """

    def __init__(self, formula):
        self.clauses = []
        self.alive = []
        self._occ = None
        self._by_key = None
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
        if self._occ is not None:
            for lit in lits:
                self._occ[lit].append(idx)
        if self._by_key is not None:
            self._by_key[frozenset(lits)].append(idx)
        return idx

    @property
    def occ(self):
        """Literal -> ids of every clause stored with it, dead ones too."""
        if self._occ is None:
            self._occ = defaultdict(list)
            for idx, lits in enumerate(self.clauses):
                for lit in lits:
                    self._occ[lit].append(idx)
        return self._occ

    @property
    def by_key(self):
        """Literal set -> ids of its live clauses, in storing order."""
        if self._by_key is None:
            self._by_key = defaultdict(list)
            for idx, lits in enumerate(self.clauses):
                if self.alive[idx]:
                    self._by_key[frozenset(lits)].append(idx)
        return self._by_key

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

    def hinted_conflict(self, clause, hint):
        """True iff the negated `clause`, propagated over only the clauses
        that `hint` names by id, makes one of them false.

        Passes over the named clauses repeat while one of them turns unit.
        A number not below `len(self.clauses)` or naming a dead clause, or
        a literal of `clause` true at level 0, gives False.  Level 0 is
        left as it was.  When level 0 is in conflict, its assignment is
        still implied by the live clauses, so the passes start from it.
        """
        clauses, alive = self.clauses, self.alive
        top = len(clauses)
        pending = []
        for num in hint:
            if not (0 <= num < top and alive[num]):
                return False
            pending.append(clauses[num])
        value = self.value
        assigned = []
        try:
            for lit in clause:
                val = value.get(lit)
                if val is None:
                    value[lit] = False
                    value[-lit] = True
                    assigned.append(lit)
                elif val:
                    return False
            progress = True
            while progress and pending:
                progress = False
                waiting = []
                for lits in pending:
                    free = 0
                    for lit in lits:
                        val = value.get(lit)
                        if val is None:
                            if free:
                                waiting.append(lits)
                                break
                            free = lit
                        elif val:
                            break          # satisfied: it can do nothing more
                    else:
                        if not free:
                            return True
                        value[free] = True
                        value[-free] = False
                        assigned.append(free)
                        progress = True
                pending = waiting
            return False
        finally:
            for lit in assigned:
                del value[lit]
                del value[-lit]

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
                hints=None):
    """Forward-check a DRAT proof against a formula.

    Additions must have RAT on the first literal, as in DRAT; the empty
    clause needs a propagation conflict.  Deleting an absent clause is a
    warning, not a rejection.
    A unit on a literal in `symmetry_pivots` that fails the RAT check is
    accepted iff the current formula is flip-symmetric at that point.
    With refutation=True the proof must add the empty clause.

    `hints`, when given, holds per proof step the ids of the clauses its
    addition was derived from: input clause `i` is `i` and the k-th added
    clause `len(formula.clauses) + k` (see the module docstring; a missing
    or empty entry means none).  They are tried before the search and only
    change `stats`, which then also counts `hinted` and `searched`
    additions.  `CheckResult.line` and warnings carry 0-based step indices.
    """
    state = _Checker(formula)
    stats = state.stats
    warnings = []
    empty_added = any(not clause for clause in formula.clauses)
    if hints is not None:
        stats["hinted"] = stats["searched"] = 0
    for index, (kind, clause) in enumerate(proof):
        if kind == "d":
            if not state.delete(clause):
                warnings.append((index, "deleted clause %s not present" % (clause,)))
            continue
        if kind != "a":
            return CheckResult(False, index, "unknown line kind %r" % kind, warnings,
                               stats)
        stats["lemmas"] += 1
        hint = hints[index] if hints is not None and index < len(hints) else ()
        if hint and state.hinted_conflict(clause, hint):
            stats["hinted"] += 1
        elif not clause:
            if hints is not None:
                stats["searched"] += 1
            if not state.is_rup(()):
                return CheckResult(False, index,
                                   "empty clause is not a propagation conflict",
                                   warnings, stats)
        else:
            if hints is not None:
                stats["searched"] += 1
            ok = state.is_rat(clause, clause[0])
            if not ok and len(clause) == 1 and clause[0] in symmetry_pivots:
                if is_flip_symmetric(state.current_formula()):
                    warnings.append(
                        (index, "unit %d accepted by flip-symmetry" % clause[0]))
                    ok = True
            if not ok:
                return CheckResult(False, index,
                                   "clause %s is not RAT on pivot %d"
                                   % (clause, clause[0]), warnings, stats)
        if not clause:
            empty_added = True
        state.add(clause)
    if refutation and not empty_added:
        return CheckResult(False, None, "refutation does not add the empty clause",
                           warnings, stats)
    return CheckResult(True, warnings=warnings, stats=stats)


def merge_proofs(transform_proof, cube_proofs, tautology_proof):
    """Concatenate in the mandated order: transform, cubes (by index), tautology.

    `merge_hints` gives the merged proof's hints."""
    merged = list(transform_proof)
    for index, cube_proof in enumerate(cube_proofs):
        if cube_proof is None:
            raise ValueError("missing cube proof at index %d" % index)
        merged.extend(cube_proof)
    merged.extend(tautology_proof)
    return merged


def merge_hints(original, work, transform_proof, cube_proofs, cube_hints):
    """Hints for `merge_proofs(transform_proof, cube_proofs, ...)` against
    `original`, one entry per line; the tautology lines that follow get none.

    Each cube's hints number clauses as a solver run on `work`, the
    formula left by the transformation, does (see `cdcl`): `i <
    len(work.clauses)` is work clause `i`, and `len(work.clauses) + k` the
    cube proof's line `k`.  They are renumbered into `check_proof`'s clause
    ids over `original`, where only additions take numbers: a work clause
    becomes the original clause with its literals, or the transformation
    line that added it (the symmetry pivot's unit); a cube line comes after
    the transformation's additions and the earlier cubes' lines.  A clause
    present more than once maps to its first copy, which the checker's
    deletions, taking the last live copy, keep alive longest; a hint that
    still names a dead clause fails, and its lemma is searched.  Every work
    clause must be an original clause or a transformation addition.
    """
    stored = (*original.clauses, *(clause for kind, clause in transform_proof
                                   if kind == "a"))
    number = {}          # clause -> the id of its first copy
    for num, clause in enumerate(stored):
        number.setdefault(clause, num)
    work_nums = [number[clause] for clause in work.clauses]
    merged = [()] * len(transform_proof)
    start = len(stored)
    for proof, hints in zip(cube_proofs, cube_hints, strict=True):
        if len(hints) != len(proof):
            raise ValueError("%d hints for a cube proof of %d lines"
                             % (len(hints), len(proof)))
        lookup = (work_nums + list(range(start, start + len(proof)))).__getitem__
        merged.extend(array("i", map(lookup, hint)) if hint else ()
                      for hint in hints)
        start += len(proof)
    return merged
