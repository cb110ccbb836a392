"""Core CNF data model: clauses, formulas, unit propagation, DIMACS I/O.

Literals are nonzero signed integers as in DIMACS: +v is the positive
literal of variable v, -v its negation.  A clause is a duplicate-free
tuple of literals; a formula is an ordered list of clauses plus a
declared variable bound (clauses may repeat).  Partial assignments are
dicts mapping a variable to True/False.

`Propagator` is the package's one occurrence-list unit propagator: the
fixpoint of every split node, and of every look-ahead that can propagate
more than its own literal, runs through it (see
`lookahead.LookaheadEngine.look_ahead` for those that cannot).  Only a
split's root is built from the formula's clauses; every node's
propagator is derived from its parent's by `Propagator.of_residual`.
The CDCL solver and the DRAT checker each keep a watched-literal
propagator of their own, so the checker shares no propagation code with
the solver whose proofs it checks.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain
from operator import neg

SATISFIED = "satisfied"
FALSIFIED = "falsified"
UNDETERMINED = "undetermined"


class DimacsError(ValueError):
    """Malformed DIMACS input, annotated with the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass
class Formula:
    clauses: list = field(default_factory=list)
    num_vars: int = 0

    def __post_init__(self):
        self.clauses = tuple(map(tuple, self.clauses))
        top = max(map(abs, chain.from_iterable(self.clauses)), default=0)
        if self.num_vars < top:
            self.num_vars = top


def lit_value(assignment, lit):
    """Value of a literal under a partial assignment, or None if unassigned."""
    val = assignment.get(abs(lit))
    if val is None:
        return None
    return val if lit > 0 else not val


def clause_status(clause, assignment):
    unassigned = 0
    for lit in clause:
        val = lit_value(assignment, lit)
        if val is True:
            return SATISFIED
        if val is None:
            unassigned += 1
    return UNDETERMINED if unassigned else FALSIFIED


def evaluate(formula, assignment):
    """Classify a formula under a partial assignment.

    Satisfied iff every clause has a true literal; falsified iff some
    clause has all literals false; undetermined otherwise.
    """
    verdict = SATISFIED
    for clause in formula.clauses:
        status = clause_status(clause, assignment)
        if status == FALSIFIED:
            return FALSIFIED
        if status != SATISFIED:
            verdict = UNDETERMINED
    return verdict


class Propagator:
    """Unit propagation over a fixed clause list.

    Built once per clause list, or derived from a parent's
    (`of_residual`): literal -> clause-index occurrence lists, plus the
    unit clauses (those of one distinct literal), which every fixpoint
    asserts after its seeds.
    Each `fixpoint` call propagates on a trail of its own, so nothing is
    undone or rebuilt between calls.
    """

    def __init__(self, clauses):
        self.clauses = clauses
        self.units = []
        self.has_empty = False
        occ = defaultdict(list)
        for idx, clause in enumerate(clauses):
            lits = set(clause)
            if len(lits) < 2:   # (a, a) is the unit a
                if lits:
                    self.units.append(clause[0])
                else:
                    self.has_empty = True
            for lit in lits:
                occ[lit].append(idx)
        self.occ = occ

    @classmethod
    def of_residual(cls, parent, true):
        """The propagator of `parent`'s clauses reduced under `true`, the
        literals of a fixpoint of `parent` without conflict: satisfied
        clauses dropped, false literals stripped, clause and literal order
        kept.  It holds the clauses, units and occurrence lists that
        `Propagator(residual)` would, but for empty lists of literals that
        no longer occur.

        Only the clauses in the occurrence lists of `true` and of its
        complements are read.  Every other clause is kept as the same
        tuple, and the occurrence lists are `parent`'s, renumbered.  Such
        a clause has no assigned literal, so it is no unit: every unit of
        `parent` is true at its fixpoint.
        """
        clauses, occ = parent.clauses, parent.occ
        touched = set()
        for lit in true:
            touched.update(occ.get(lit, ()))
            touched.update(occ.get(-lit, ()))
        residual = []
        index = []          # `parent` clause index -> residual index, or -1
        dropped = set()     # literals of clauses that `true` satisfies
        units = []
        has_empty = False
        start = 0
        for idx in sorted(touched):
            base = len(residual)
            residual += clauses[start:idx]
            index += range(base, len(residual))
            start = idx + 1
            clause = clauses[idx]
            reduced = []
            for lit in clause:
                if lit in true:
                    index.append(-1)
                    dropped.update(clause)
                    break
                if -lit not in true:
                    reduced.append(lit)
            else:
                index.append(len(residual))
                residual.append(tuple(reduced))
                if not reduced:
                    has_empty = True
                elif reduced.count(reduced[0]) == len(reduced):
                    units.append(reduced[0])
        base = len(residual)
        residual += clauses[start:]
        index += range(base, len(residual))
        renumber = index.__getitem__
        reduced_occ = {}
        for lit, idxs in occ.items():
            if lit in true or -lit in true:
                continue
            if lit in dropped:
                reduced_occ[lit] = [i for i in map(renumber, idxs) if i >= 0]
            else:
                reduced_occ[lit] = list(map(renumber, idxs))
        self = cls.__new__(cls)
        self.clauses = residual
        self.units = units
        self.has_empty = has_empty
        self.occ = reduced_occ
        return self

    def fixpoint(self, seeds, reduced=None):
        """(true literals, conflict) after asserting `seeds` and the unit
        clauses, then propagating to fixpoint.  On a conflict the literal
        set is whatever was derived before it, which depends on the queue
        order.

        A list `reduced` receives the index of each clause visited through
        a false literal while two of its other literals were unassigned,
        once per such visit, in visiting order.  At a fixpoint without
        conflict it holds every ternary clause with one false literal and
        no true one, and perhaps clauses satisfied after their visit."""
        true = set()
        if self.has_empty:
            return true, True
        trail = []
        for lit in seeds + self.units:
            if -lit in true:
                return true, True
            if lit not in true:
                true.add(lit)
                trail.append(lit)
        clauses, occ = self.clauses, self.occ
        head = 0
        while head < len(trail):
            occurrences = occ.get(-trail[head], ())
            head += 1
            for idx in occurrences:
                unit = None
                for other in clauses[idx]:
                    if other in true:
                        break
                    if -other not in true:
                        if unit is not None and other != unit:
                            if reduced is not None:
                                reduced.append(idx)
                            break  # two unassigned: not a unit
                        unit = other
                else:
                    if unit is None:
                        return true, True
                    true.add(unit)
                    trail.append(unit)
        return true, False


def propagate_clauses(clauses, assumptions=()):
    """Unit propagation to fixpoint over a clause list.

    Returns (assignment, conflict).  Contradictory assumptions yield an
    empty assignment with conflict=True.  The fixpoint is unique, so the
    queue order used here is an implementation detail.
    """
    assumed = set(assumptions)
    if any(-lit in assumed for lit in assumed):
        return {}, True
    true, conflict = Propagator(clauses).fixpoint(list(assumptions))
    return {abs(lit): lit > 0 for lit in true}, conflict


def is_flip_symmetric(formula):
    """True iff complementing every literal permutes the clause multiset.

    Clause tuples are counted first: when each tuple occurs as often as its
    literal-wise negation, the formula is flip-symmetric.  Otherwise a
    flipped clause may list its literals in another order, or repeat one,
    and the count of literal sets decides.
    """
    counts = Counter(formula.clauses)
    if all(counts[tuple(map(neg, lits))] == k for lits, k in counts.items()):
        return True
    counts = Counter(map(frozenset, formula.clauses))
    return all(counts[frozenset(map(neg, lits))] == k
               for lits, k in counts.items())


def numbered_lines(text):
    """(line number, line) pairs of a str, or of bytes read as ASCII; a
    non-ASCII byte raises DimacsError carrying its line number.  Lines end
    at `\n` only: a form feed stays in its line, a `\r` is stripped later."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise DimacsError("non-ASCII byte 0x%02x" % text[exc.start],
                              text.count(b"\n", 0, exc.start) + 1) from None
    return enumerate(text.split("\n"), start=1)


# ASCII digits after an optional minus; `int` also takes "+2", "1_0", "٣".
# Every integer of an input file, a cutoff or a setting passes it first.
is_dimacs_integer = re.compile(r"-?[0-9]+").fullmatch
# A real setting is in ASCII decimal notation (`8`, `.5`, `1e-3`): `float`
# also takes "1_5", "+2", "inf", "nan" and non-ASCII digits.
is_decimal = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?").fullmatch


def _integer(token, lineno):
    if not is_dimacs_integer(token):
        raise DimacsError("non-integer token %r" % token, lineno)
    return int(token)


def parse_dimacs(text):
    """Parse DIMACS CNF (str or bytes) into a Formula.

    The header clause count is re-verified; mismatches, out-of-range
    literals and unterminated clauses are reported with line numbers.  A
    literal repeated in a clause is kept once, where it first occurs.
    """
    num_vars = None
    num_clauses = None
    clauses = []
    current = []
    last_line = 0
    for lineno, line in numbered_lines(text):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        last_line = lineno
        if stripped.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate header", lineno)
            parts = stripped.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError("malformed header %r" % stripped, lineno)
            if not (is_dimacs_integer(parts[2]) and is_dimacs_integer(parts[3])):
                raise DimacsError("non-integer header counts %r" % stripped, lineno)
            num_vars, num_clauses = int(parts[2]), int(parts[3])
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError("negative header counts", lineno)
            continue
        if num_vars is None:
            raise DimacsError("clause before header", lineno)
        for token in stripped.split():
            lit = _integer(token, lineno)
            if lit == 0:
                clauses.append(tuple(dict.fromkeys(current)))
                current = []
                continue
            if abs(lit) > num_vars:
                raise DimacsError(
                    "literal %d exceeds declared bound %d" % (lit, num_vars), lineno)
            current.append(lit)
    if num_vars is None:
        raise DimacsError("missing header", last_line or 1)
    if current:
        raise DimacsError("clause missing 0 terminator", last_line)
    if len(clauses) != num_clauses:
        raise DimacsError(
            "header declares %d clauses, found %d" % (num_clauses, len(clauses)),
            last_line or 1)
    return Formula(clauses, num_vars)


def parse_clause_line(text, lineno):
    """Literals of one `... 0` line; 0 may only appear as the terminator."""
    lits = [_integer(token, lineno) for token in text.split()]
    if not lits or lits[-1] != 0:
        raise DimacsError("missing 0 terminator", lineno)
    if 0 in lits[:-1]:
        raise DimacsError("literal 0 before the end of the line", lineno)
    return tuple(lits[:-1])


def clause_line(lits):
    """`lits` as one `... 0` line; inverse of parse_clause_line."""
    return " ".join(map(str, (*lits, 0)))


def write_dimacs(formula):
    """Render a Formula as DIMACS text; inverse of parse_dimacs."""
    header = "p cnf %d %d" % (formula.num_vars, len(formula.clauses))
    return "\n".join([header, *map(clause_line, formula.clauses)]) + "\n"
