import random

import pytest

from triplesat.cnf import (DimacsError, FALSIFIED, Formula, Propagator,
                           SATISFIED, UNDETERMINED, evaluate,
                           is_flip_symmetric, parse_clause_line, parse_dimacs,
                           propagate_clauses, write_dimacs)

from conftest import (FIG1_CLAUSES, brute_sat, is_tautology, random_formula,
                      reference_propagate, reference_residual, resolve)


FIG1_TEXT = """p cnf 4 8
1 2 -3 0
-1 -2 3 0
2 3 -4 0
-2 -3 4 0
-1 -3 -4 0
1 3 4 0
-1 2 4 0
1 -2 -4 0
"""


def test_parse_fig1():
    formula = parse_dimacs(FIG1_TEXT)
    assert formula.num_vars == 4
    assert len(formula.clauses) == 8
    assert list(formula.clauses) == FIG1_CLAUSES


def test_parse_zero_clauses():
    formula = parse_dimacs("p cnf 1 0\n")
    assert formula.num_vars == 1
    assert formula.clauses == ()


def test_parse_single_clause():
    formula = parse_dimacs("p cnf 2 1\n1 -2 0\n")
    assert formula.clauses == ((1, -2),)


def test_parse_comments_and_bytes():
    formula = parse_dimacs(b"c hello\np cnf 2 1\nc mid\n1 2 0\n")
    assert formula.clauses == ((1, 2),)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DimacsError, match="line"):
        parse_dimacs("p cnf 2 1\n1 3 0\n")  # literal exceeds bound
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 2\n")  # missing terminator
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 2\n1 0\n")  # count mismatch
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 x 0\n")  # non-integer token
    with pytest.raises(DimacsError):
        parse_dimacs("1 2 0\n")  # no header
    with pytest.raises(DimacsError, match="line 3: duplicate header"):
        parse_dimacs("p cnf 2 1\n1 2 0\np cnf 2 1\n")
    for header in ("p cnf -1 0", "p cnf 2 -1"):
        with pytest.raises(DimacsError, match="line 2: negative header counts"):
            parse_dimacs("c counts\n%s\n" % header)


@pytest.mark.parametrize("data, line", [(b"\xff", 1),
                                        (b"p cnf 2 1\n1 2 0\nc \xe9\n", 3),
                                        (b"p cnf 2 1\r\n1 \xff 0\n", 2)],
                         ids=["first-byte", "comment", "crlf"])
def test_non_ascii_bytes_carry_line_numbers(data, line):
    with pytest.raises(DimacsError, match="line %d: non-ASCII" % line) as info:
        parse_dimacs(data)
    assert info.value.line == line


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                       "\x85", "\u2028"])
def test_lines_end_at_newline_only(separator):
    """`str.splitlines` also breaks at these, which split a comment in two
    and pushed the line numbers after it one too high."""
    text = "p cnf 2 1\nc page%sbreak\n1 2 0\n" % separator
    assert parse_dimacs(text).clauses == ((1, 2),)
    with pytest.raises(DimacsError, match="line 3: non-integer token 'x'"):
        parse_dimacs(text.replace("1 2 0", "1 x 0"))
    if separator.isascii():
        assert parse_dimacs(text.encode()).clauses == ((1, 2),)


@pytest.mark.parametrize("token", ["1_0", "+2", "\u0663", "\uff11", "0x1", "--1"])
def test_tokens_must_be_dimacs_integers(token):
    """`int` alone takes the first four: "1_0 +2 0" was the clause (10, 2)."""
    with pytest.raises(DimacsError, match="line 2: non-integer token"):
        parse_dimacs("p cnf 10 1\n%s 0\n" % token)
    with pytest.raises(DimacsError, match="line 4: non-integer token"):
        parse_clause_line("1 %s 0" % token, 4)
    with pytest.raises(DimacsError, match="line 1: non-integer header counts"):
        parse_dimacs("p cnf %s 0\n" % token)


def test_write_dimacs_fig1():
    formula = Formula(list(FIG1_CLAUSES), 4)
    assert write_dimacs(formula) == FIG1_TEXT


def test_round_trip_random(rng):
    for _ in range(100):
        formula = random_formula(rng)
        again = parse_dimacs(write_dimacs(formula))
        assert again.clauses == formula.clauses
        assert again.num_vars == formula.num_vars


def test_parse_dimacs_keeps_a_repeated_literal_once():
    formula = parse_dimacs("p cnf 3 3\n1 2 1 -3 0\n1 -1 1 0\n2 2 0\n")
    assert formula.clauses == ((1, 2, -3), (1, -1), (2,))
    assert is_tautology(formula.clauses[1])
    assert not is_tautology(formula.clauses[0])


def test_unit_propagate_fig1_conflict(fig1_formula):
    _, conflict = propagate_clauses(fig1_formula.clauses, [1, -2, 3])
    assert conflict


def test_unit_propagate_single_unit():
    assignment, conflict = propagate_clauses([(1,)])
    assert not conflict
    assert assignment == {1: True}


def test_unit_propagate_binary_conflict():
    _, conflict = propagate_clauses([(1, 2), (-1,), (-2,)])
    assert conflict


def test_unit_propagate_contradictory_assumptions():
    assignment, conflict = propagate_clauses([(1, 2)], [1, -1])
    assert conflict
    assert assignment == {}


def test_unit_propagate_repeated_literal_is_one_literal():
    # Formula keeps clauses as given, so a literal may occur twice
    assert propagate_clauses([(2, 2, 1)], [-1]) == ({1: False, 2: True}, False)
    assert propagate_clauses([(2, 2, 1)], [-1, -2])[1]
    assert propagate_clauses([(2, -2, 1)], [-1]) == ({1: False}, False)
    # a clause of one distinct literal is a unit clause
    assert propagate_clauses([(2, 2), (-2, 1)]) == ({1: True, 2: True}, False)


def test_unit_propagate_fixpoint_order_independent(rng):
    """The fixpoint must not depend on propagation order: compare against a
    naive reference that processes unit clauses in random order."""
    for _ in range(300):
        formula = random_formula(rng, max_vars=8)
        num_assumed = rng.randint(0, 3)
        assumed_vars = rng.sample(range(1, formula.num_vars + 1),
                                  min(num_assumed, formula.num_vars))
        assumptions = [v if rng.random() < 0.5 else -v for v in assumed_vars]
        got_assign, got_conflict = propagate_clauses(formula.clauses,
                                                     assumptions)
        ref_assign, ref_conflict = reference_propagate(
            formula.clauses, assumptions, random.Random(rng.random()))
        assert got_conflict == ref_conflict
        if not got_conflict:
            assert got_assign == ref_assign


def test_fixpoint_records_the_clauses_it_leaves_binary(rng):
    """What the look-ahead's weighing relies on: at a fixpoint without
    conflict, `reduced` holds every ternary clause with exactly one false
    literal and no true one, and names only clauses with a false literal.
    Literals are drawn with replacement, so clauses repeat literals and
    hold both polarities of a variable."""
    checked = 0
    for _ in range(600):
        num_vars = rng.randint(2, 7)
        clauses = [tuple(rng.choice((1, -1)) * rng.randint(1, num_vars)
                         for _ in range(rng.choice((1, 2, 3, 3, 3, 4))))
                   for _ in range(rng.randint(1, 3 * num_vars))]
        seeds = [rng.choice((1, -1)) * rng.randint(1, num_vars)
                 for _ in range(rng.randint(0, 3))]
        reduced = []
        true, conflict = Propagator(clauses).fixpoint(seeds, reduced)
        if conflict:
            continue
        checked += 1
        recorded = set(reduced)
        for idx, clause in enumerate(clauses):
            false = sum(-lit in true for lit in clause)
            if len(clause) == 3 and false == 1 and \
                    not any(lit in true for lit in clause):
                assert idx in recorded, (clauses, seeds, idx)
        for idx in recorded:
            assert any(-lit in true for lit in clauses[idx]), (clauses, seeds)
    assert checked > 300


def test_of_residual_matches_a_fresh_propagator(rng):
    """A propagator derived from its parent's under a fixpoint holds the
    clauses, units and occurrence lists of one built from the residual,
    over two generations.  Literals are drawn with replacement, so clauses
    repeat literals and hold both polarities of a variable."""
    derived = 0
    for _ in range(600):
        num_vars = rng.randint(2, 7)
        parent = Propagator(
            tuple(tuple(rng.choice((1, -1)) * rng.randint(1, num_vars)
                        for _ in range(rng.choice((1, 2, 3, 3, 3, 4))))
                  for _ in range(rng.randint(1, 3 * num_vars))))
        for _ in range(2):
            seeds = [rng.choice((1, -1)) * rng.randint(1, num_vars)
                     for _ in range(rng.randint(0, 2))]
            true, conflict = parent.fixpoint(seeds)
            if conflict:
                break
            child = Propagator.of_residual(parent, true)
            fresh = Propagator(reference_residual(
                parent.clauses, {abs(lit): lit > 0 for lit in true}))
            assert child.clauses == fresh.clauses
            assert (child.units, child.has_empty) == ([], False) == \
                (fresh.units, fresh.has_empty)
            assert {lit: idxs for lit, idxs in child.occ.items() if idxs} == \
                fresh.occ
            derived += 1
            parent = child
    assert derived > 400


def test_propagation_conflict_implies_unsat(rng):
    hits = 0
    for _ in range(400):
        formula = random_formula(rng, max_vars=8)
        _, conflict = propagate_clauses(formula.clauses)
        if conflict:
            hits += 1
            assert not brute_sat(formula)
    assert hits > 0


def test_resolve():
    assert resolve((1, 5), (-1, 6), 1) == (5, 6)
    assert resolve((1,), (-1,), 1) == ()
    assert resolve((1, 5, 6), (-1, 5), 1) == (5, 6)
    with pytest.raises(ValueError):
        resolve((2, 5), (-1, 6), 1)


def test_resolvent_is_implied(rng):
    for _ in range(200):
        formula = random_formula(rng, max_vars=6, allow_units=False)
        pairs = [(c1, c2) for c1 in formula.clauses for c2 in formula.clauses
                 for _l in [None]
                 if any(l in c1 and -l in c2 for l in c1)]
        if not pairs:
            continue
        c1, c2 = rng.choice(pairs)
        var = next(abs(l) for l in c1 if -l in c2)
        pivot_lit = var if var in c1 else -var
        resolvent = resolve(c1, c2, var) if var in c1 else resolve(c2, c1, var)
        # every total assignment satisfying both parents satisfies it
        variables = sorted({abs(l) for l in c1 + c2})
        for mask in range(2 ** len(variables)):
            assign = {v: bool(mask >> i & 1) for i, v in enumerate(variables)}
            sat = lambda cl: any(assign[abs(l)] == (l > 0) for l in cl)
            if sat(c1) and sat(c2):
                assert len(resolvent) == 0 or sat(resolvent)


def test_evaluate_fig1_all_true(fig1_formula):
    assignment = {1: True, 2: True, 3: True, 4: True}
    assert evaluate(fig1_formula, assignment) == FALSIFIED


def test_evaluate_undetermined(fig1_formula):
    assert evaluate(fig1_formula, {}) == UNDETERMINED


def test_evaluate_empty_clause():
    assert evaluate(Formula([()]), {1: True}) == FALSIFIED


def test_evaluate_satisfied():
    assert evaluate(Formula([(1, 2)]), {1: True}) == SATISFIED


def test_flip_symmetry():
    assert is_flip_symmetric(Formula([(1, 2), (-1, -2)]))
    assert not is_flip_symmetric(Formula([(1, 2)]))
    assert is_flip_symmetric(Formula([]))
    # multiplicity matters
    assert not is_flip_symmetric(Formula([(1, 2), (1, 2), (-1, -2)]))


def test_flip_symmetry_matches_two_counters():
    """One Counter looked up under the flip agrees with comparing the
    clause multiset against its flipped copy."""
    from collections import Counter

    def two_counters(formula):
        counts = Counter(frozenset(c) for c in formula.clauses)
        flipped = Counter(frozenset(-l for l in c) for c in formula.clauses)
        return counts == flipped

    rng = random.Random(9)
    outcomes = Counter()
    for _ in range(2000):
        half = list(random_formula(rng, max_vars=5, max_clauses=6).clauses)
        half += rng.sample(half, rng.randint(0, len(half)))   # repeated clauses
        clauses = half + [tuple(-l for l in c) for c in half]
        # near misses: one clause dropped, doubled or with one literal flipped
        edit = rng.randrange(4)
        if edit == 1:
            clauses.pop(rng.randrange(len(clauses)))
        elif edit == 2:
            clauses.append(rng.choice(clauses))
        elif edit == 3:
            at = rng.randrange(len(clauses))
            clause = list(clauses[at])
            clause[0] = -clause[0]
            clauses[at] = tuple(clause)
        rng.shuffle(clauses)
        formula = Formula(clauses)
        expected = two_counters(formula)
        assert is_flip_symmetric(formula) == expected
        outcomes[expected] += 1
    assert min(outcomes[True], outcomes[False]) >= 400, outcomes

    # near misses of the clause-tuple count: some flipped clauses list their
    # literals in another order, so only the literal-set count can decide
    def tuples_match(formula):
        return Counter(formula.clauses) == \
            Counter(tuple(-l for l in c) for c in formula.clauses)

    decided = Counter()
    for _ in range(1500):
        half = list(random_formula(rng, max_vars=5, max_clauses=6).clauses)
        flipped = [tuple(-l for l in c) for c in half]
        for at in rng.sample(range(len(flipped)), rng.randint(1, len(flipped))):
            flipped[at] = tuple(rng.sample(flipped[at], len(flipped[at])))
        clauses = half + flipped
        if rng.randrange(2):
            at = rng.randrange(len(clauses))
            clause = list(clauses[at])
            clause[-1] = -clause[-1]
            clauses[at] = tuple(clause)
        rng.shuffle(clauses)
        formula = Formula(clauses)
        if tuples_match(formula):
            continue
        expected = two_counters(formula)
        assert is_flip_symmetric(formula) == expected
        decided[expected] += 1
    assert min(decided[True], decided[False]) >= 200, decided
