import hashlib
import random
import time
import tracemalloc

import pytest

from triplesat.cnf import DimacsError, Formula, SATISFIED, evaluate
from triplesat.drat import check_proof
from triplesat.transform import (bce, emit_transform_proof, parse_stack,
                                 reconstruct, symmetry_break, write_stack)
from triplesat.encoder import encode, occurrence_stats

from conftest import (brute_force, brute_sat, is_tautology, random_formula,
                      reference_bce, resolve)


def specialized_ptn_reduction(n):
    """The constraint-level reduction: drop NotEqual(a,b,c) whenever one of
    a, b, c occurs in no other constraint, iterated to fixpoint.  Used as an
    independent oracle for what BCE should achieve on the encoding."""
    from triplesat.encoder import enumerate_triples
    triples = set(enumerate_triples(n))
    changed = True
    while changed:
        changed = False
        for triple in sorted(triples):
            for member in triple:
                others = [t for t in triples if t != triple and member in t]
                if not others:
                    triples.discard(triple)
                    changed = True
                    break
    clauses = []
    for a, b, c in sorted(triples, key=lambda t: (t[2], t[1], t[0])):
        clauses.append((a, b, c))
        clauses.append((-a, -b, -c))
    return clauses


def test_bce_single_clause():
    reduced, stack = bce(Formula([(1, 2, 3)]))
    assert reduced.clauses == ()
    assert len(stack) == 1


def test_bce_stack_records_are_ordered():
    _, stack = bce(encode(30))
    for record in stack:
        assert record.blocking_literal in record.clause


def records(stack):
    return [(r.clause, r.blocking_literal) for r in stack]


@pytest.mark.parametrize("n", [30, 300, 1000, 7825])
def test_bce_matches_reference_on_encoding(n):
    formula = encode(n)
    reduced, stack = bce(formula)
    expected_reduced, expected_stack = reference_bce(formula)
    assert reduced.clauses == expected_reduced.clauses
    assert records(stack) == records(expected_stack)


def test_bce_does_not_size_by_variable_numbers():
    """Occurrences are keyed by literal, so a formula naming variable 10^8
    reduces in milliseconds and a few kilobytes, not per variable."""
    big = 100000000
    formula = Formula([(1, 2, big), (-1, -2, -big), (1, -2, 3), (-1, 2, -3),
                       (big, 3), (-big, -3)])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        reduced, stack = bce(formula)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected_reduced, expected_stack = reference_bce(formula)
    assert reduced.clauses == expected_reduced.clauses
    assert records(stack) == records(expected_stack)
    assert elapsed < 0.5
    assert peak < 1 << 16


def random_messy_formula(rng):
    """Clauses of width 0-4 drawn with replacement, so repeated literals,
    tautologies, units and empty clauses all occur."""
    num_vars = rng.randint(1, 6)
    clauses = []
    for _ in range(rng.randint(0, 16)):
        width = rng.choice((0, 1, 1, 2, 2, 3, 3, 3, 4))
        clauses.append(tuple(rng.choice((-1, 1)) * rng.randint(1, num_vars)
                             for _ in range(width)))
    return Formula(clauses, num_vars)


def test_bce_matches_reference_on_random_formulas():
    rng = random.Random(8)
    seen = dict.fromkeys(("repeated", "tautology", "unit", "empty", "requeued"), 0)
    for _ in range(2500):
        formula = random_messy_formula(rng)
        reduced, stack = bce(formula)
        expected_reduced, expected_stack = reference_bce(formula)
        assert reduced.clauses == expected_reduced.clauses
        assert records(stack) == records(expected_stack)
        for clause in formula.clauses:
            seen["repeated"] += len(set(clause)) < len(clause)
            seen["tautology"] += any(-lit in clause for lit in clause)
            seen["unit"] += len(clause) == 1
            seen["empty"] += not clause
        if len(set(formula.clauses)) == len(formula.clauses):
            # an elimination out of index order: a clause was re-queued
            order = [formula.clauses.index(r.clause) for r in stack]
            seen["requeued"] += order != sorted(order)
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("n, digest, count, pivot",
                         [(300, "f2ea2e47e2479484", 200, 120),
                          (7825, "08a52704e69bb2cf", 4272, 2520)])
def test_bce_stack_pinned(n, digest, count, pivot):
    """The elimination order, as the stack file records it."""
    reduced, stack = bce(encode(n))
    assert hashlib.sha256(write_stack(stack).encode()).hexdigest()[:16] == digest
    assert len(stack) == count
    assert symmetry_break(reduced)[1] == pivot


def test_bce_no_blocked_clause_remains(rng):
    """Fixpoint: nothing in the output is blocked with respect to the output."""
    def blocked(clause, clauses):
        for lit in clause:
            partners = [d for d in clauses if -lit in d and d is not clause]
            if all(is_tautology(resolve(clause, d, abs(lit)) if lit > 0
                                else resolve(d, clause, abs(lit)))
                   for d in partners):
                return True
        return False

    for _ in range(50):
        formula = random_formula(rng, max_vars=7)
        reduced, _ = bce(formula)
        for clause in reduced.clauses:
            assert not blocked(clause, list(reduced.clauses))


def test_bce_matches_specialized_reduction():
    """On the triples encoding, generic BCE reaches the same clause set as
    the member-occurs-nowhere-else constraint reduction."""
    for n in (30, 60, 120, 200):
        reduced, _ = bce(encode(n))
        assert sorted(reduced.clauses) == sorted(specialized_ptn_reduction(n))


def test_bce_sat_preserving_with_reconstruction(rng):
    checked = 0
    for _ in range(1000):
        formula = random_formula(rng, max_vars=12)
        reduced, stack = bce(formula)
        assert brute_sat(formula) == brute_sat(reduced)
        model = brute_force(reduced)
        if model is None:
            continue
        repaired = reconstruct(model, stack, formula=reduced)
        assert evaluate(formula, repaired) == SATISFIED
        checked += 1
    assert checked > 200


def test_reconstruct_empty_stack():
    assert reconstruct({1: True}, []) == {1: True}


def test_reconstruct_single_step():
    # clause (1 2) eliminated on literal 1; assignment falsifying it
    from triplesat.transform import EliminationRecord
    stack = [EliminationRecord((1, 2), 1)]
    repaired = reconstruct({1: False, 2: False}, stack)
    assert repaired == {1: True, 2: False}


def test_reconstruct_rejects_bad_model():
    with pytest.raises(ValueError):
        reconstruct({1: False}, [], formula=Formula([(1,)]))


def test_symmetry_break_pivot_small():
    reduced, pivot = symmetry_break(encode(20))
    assert pivot == 12
    assert reduced.clauses[-1] == (12,)


def test_symmetry_break_leaves_a_formula_without_variables():
    for formula in (Formula([]), Formula([()])):
        assert symmetry_break(formula) == (formula, None)


def test_symmetry_break_refuses_asymmetric():
    with pytest.raises(ValueError):
        symmetry_break(Formula([(1, 2)]))


def test_transform_proof_full_elimination():
    formula = encode(5)
    _, stack = bce(formula)
    proof = emit_transform_proof(stack)
    assert [kind for kind, _ in proof] == ["d", "d"]


def test_transform_proof_pivot_only():
    proof = emit_transform_proof([], pivot=12)
    assert proof == [("a", (12,))]


def test_transform_proof_counts_full_scale():
    formula = encode(7825)
    reduced, stack = bce(formula)
    reduced, pivot = symmetry_break(reduced)
    proof = emit_transform_proof(stack, pivot)
    deletions = [line for line in proof if line[0] == "d"]
    assert len(deletions) == 18944 - 14672 == 4272
    assert proof[-1] == ("a", (pivot,))


def test_transform_proof_checked_at_paper_size():
    """The pivot path at paper size: a `formula=` pipeline input is never
    symmetry-broken, so only here does the checker take the 4272 BCE
    deletions of encode(7825) and then the unit 2520 by flip symmetry."""
    formula = encode(7825)
    proof = emit_transform_proof(bce(formula)[1], 2520)
    check = check_proof(formula, proof, symmetry_pivots=(2520,))
    assert check.accepted
    assert sum(kind == "d" for kind, _ in proof) == 4272
    assert check.warnings == [(4272, "unit 2520 accepted by flip-symmetry")]


def test_stack_round_trip():
    _, stack = bce(encode(60))
    assert stack
    again = parse_stack(write_stack(stack))
    assert [(r.clause, r.blocking_literal) for r in again] == \
           [(r.clause, r.blocking_literal) for r in stack]


@pytest.mark.parametrize("text, line", [("1 1 2 0\n-3 -3 0 4 0\n", 2),
                                        ("1 z 0\n", 1), ("\n0\n", 2),
                                        ("1 2 0\x0c\n1 z 0\n", 2)],
                         ids=["interior-zero", "non-integer", "no-blocking-literal",
                              "form-feed"])
def test_stack_reports_bad_lines(text, line):
    with pytest.raises(DimacsError) as info:
        parse_stack(text)
    assert info.value.line == line
