"""Core CNF data model: clauses, formulas, unit propagation, DIMACS I/O.

Literals are nonzero signed integers as in DIMACS: +v is the positive
literal of variable v, -v its negation.  A clause is a duplicate-free
tuple of literals; a formula is an ordered list of clauses plus a
declared variable bound (clauses may repeat).  Partial assignments are
dicts mapping a variable to True/False.
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

    def copy(self):
        return Formula(list(self.clauses), self.num_vars)


def variables(clauses):
    """Set of variables occurring in an iterable of clauses."""
    return {abs(l) for c in clauses for l in c}


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


def propagate_clauses(clauses, assumptions=()):
    """Unit propagation to fixpoint over a clause list.

    Returns (assignment, conflict).  Contradictory assumptions yield an
    empty assignment with conflict=True.  The fixpoint is unique, so the
    queue order used here is an implementation detail.
    """
    assign = {}
    queue = []

    def enqueue(lit):
        var, val = abs(lit), lit > 0
        if var in assign:
            return assign[var] == val
        assign[var] = val
        queue.append(lit)
        return True

    for lit in assumptions:
        if not enqueue(lit):
            return {}, True

    occ = defaultdict(list)
    for idx, clause in enumerate(clauses):
        if not clause:
            return assign, True
        for lit in set(clause):
            occ[lit].append(idx)
        if len(clause) == 1 and not enqueue(clause[0]):
            return assign, True

    head = 0
    while head < len(queue):
        lit = queue[head]
        head += 1
        for idx in occ[-lit]:
            clause = clauses[idx]
            unit = None
            satisfied = False
            for other in clause:
                val = lit_value(assign, other)
                if val is True:
                    satisfied = True
                    break
                if val is None:
                    if unit is not None:
                        unit = False  # two unassigned: not a unit
                        break
                    unit = other
            if satisfied or unit is False:
                continue
            if unit is None:
                return assign, True
            if not enqueue(unit):
                return assign, True
    return assign, False


def unit_propagate(formula, assumptions=()):
    """Unit propagation over a Formula; see propagate_clauses."""
    return propagate_clauses(formula.clauses, assumptions)


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
    counts = Counter(frozenset(c) for c in formula.clauses)
    flipped = Counter(frozenset(-l for l in c) for c in formula.clauses)
    return counts == flipped


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
