"""Core CNF data model: clauses, formulas, unit propagation, DIMACS I/O.

Literals are nonzero signed integers as in DIMACS: +v is the positive
literal of variable v, -v its negation.  A clause is a duplicate-free
tuple of literals; a formula is an ordered list of clauses plus a
declared variable bound (clauses may repeat).  Partial assignments are
dicts mapping a variable to True/False.

`Propagator` is the package's one occurrence-list unit propagator: the
fixpoint of every split node and every look-ahead run through it.  The
CDCL solver and the DRAT checker each keep a watched-literal propagator
of their own, so the checker shares no propagation code with the solver
whose proofs it checks.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

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


def make_clause(literals):
    """Build a clause: deduplicate literals, keep first-occurrence order."""
    seen = set()
    out = []
    for lit in literals:
        lit = int(lit)
        if lit == 0:
            raise ValueError("literal 0 is reserved")
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return tuple(out)


def is_tautology(clause):
    lits = set(clause)
    return any(-l in lits for l in lits)


@dataclass
class Formula:
    clauses: list = field(default_factory=list)
    num_vars: int = 0

    def __post_init__(self):
        self.clauses = tuple(tuple(c) for c in self.clauses)
        top = max((abs(l) for c in self.clauses for l in c), default=0)
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

    Built once per clause list: literal -> clause-index occurrence lists,
    plus the unit clauses, which every fixpoint asserts after its seeds.
    Each `fixpoint` call propagates on a trail of its own, so nothing is
    undone or rebuilt between calls.
    """

    def __init__(self, clauses):
        self.clauses = clauses
        self.units = []
        self.has_empty = False
        occ = defaultdict(list)
        for idx, clause in enumerate(clauses):
            if len(clause) < 2:
                if clause:
                    self.units.append(clause[0])
                else:
                    self.has_empty = True
            for lit in set(clause):
                occ[lit].append(idx)
        self.occ = occ

    def fixpoint(self, seeds):
        """(true literals, conflict) after asserting `seeds` and the unit
        clauses, then propagating to fixpoint.  On a conflict the literal
        set is whatever was derived before it, which depends on the queue
        order."""
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


def resolve(c1, c2, var):
    """Resolvent of c1 (containing var) and c2 (containing -var)."""
    if var <= 0:
        raise ValueError("resolution variable must be positive")
    if var not in c1:
        raise ValueError("variable %d does not occur positively in %s" % (var, (c1,)))
    if -var not in c2:
        raise ValueError("variable %d does not occur negatively in %s" % (var, (c2,)))
    return make_clause([l for l in c1 if l != var] + [l for l in c2 if l != -var])


def is_flip_symmetric(formula):
    """True iff complementing every literal permutes the clause multiset."""
    counts = Counter(map(frozenset, formula.clauses))
    return all(counts[frozenset(-l for l in lits)] == k
               for lits, k in counts.items())


def parse_dimacs(text):
    """Parse DIMACS CNF (str or bytes) into a Formula.

    The header clause count is re-verified; mismatches, out-of-range
    literals and unterminated clauses are reported with line numbers.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("ascii")
    num_vars = None
    num_clauses = None
    clauses = []
    current = []
    last_line = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
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
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError("non-integer header counts %r" % stripped, lineno)
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError("negative header counts", lineno)
            continue
        if num_vars is None:
            raise DimacsError("clause before header", lineno)
        for token in stripped.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError("non-integer token %r" % token, lineno)
            if lit == 0:
                clauses.append(make_clause(current))
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
    lits = []
    for token in text.split():
        try:
            lits.append(int(token))
        except ValueError:
            raise DimacsError("non-integer token %r" % token, lineno) from None
    if not lits or lits[-1] != 0:
        raise DimacsError("missing 0 terminator", lineno)
    if 0 in lits[:-1]:
        raise DimacsError("literal 0 before the end of the line", lineno)
    return tuple(lits[:-1])


def write_dimacs(formula):
    """Render a Formula as DIMACS text; inverse of parse_dimacs."""
    lines = ["p cnf %d %d" % (formula.num_vars, len(formula.clauses))]
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause) + (" 0" if clause else "0"))
    return "\n".join(lines) + "\n"
