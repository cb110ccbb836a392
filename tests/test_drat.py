import ast
import random
import sys
import time
from collections import Counter

import pytest

from triplesat import cdcl, drat, pipeline
from triplesat.cnf import DimacsError, Formula
from triplesat.drat import (check_proof, merge_hints, merge_proofs, parse_drat,
                            write_drat)
from triplesat.transform import bce

from conftest import (FIG1_PROOF, REPO, ap3_formula, brute_sat, check_rat,
                      check_rup, extension_clauses, random_formula,
                      reference_check_proof)


FIG1_PROOF_TEXT = "-1 0\nd -1 2 4 0\n2 0\n0\n"


def test_parse_drat():
    assert parse_drat(FIG1_PROOF_TEXT) == FIG1_PROOF
    assert parse_drat(b"1 2 0\n") == [("a", (1, 2))]
    with pytest.raises(ValueError):
        parse_drat("1 2\n")


def test_parse_drat_keeps_file_lines():
    linenos = []
    proof = parse_drat("c x\n\n1 2 0\nd 1 2 0\nc y\n0\n", linenos=linenos)
    assert proof == [("a", (1, 2)), ("d", (1, 2)), ("a", ())]
    assert linenos == [3, 4, 6]


@pytest.mark.parametrize("text, line", [("1 0 2 0\n", 1), ("-1 0\nd 1 x 0\n", 2),
                                        ("-1 0\nd1 0\n", 2)],
                         ids=["interior-zero", "non-integer", "glued-deletion"])
def test_parse_drat_reports_bad_lines(text, line):
    with pytest.raises(DimacsError) as info:
        parse_drat(text)
    assert info.value.line == line


@pytest.mark.parametrize("data, line", [(b"\xff", 1), (b"1 0\nd 2 \x80 0\n", 2)])
def test_parse_drat_rejects_non_ascii(data, line):
    with pytest.raises(DimacsError, match="line %d: non-ASCII" % line) as info:
        parse_drat(data)
    assert info.value.line == line


def test_write_drat_round_trip():
    assert write_drat(FIG1_PROOF) == FIG1_PROOF_TEXT
    assert parse_drat(write_drat(FIG1_PROOF)) == FIG1_PROOF


def test_check_rup_fig1_empty(fig1_formula):
    assert not check_rup(fig1_formula, ())


def test_check_rup_unit():
    assert check_rup(Formula([(1,)]), (1,))


def test_check_rup_after_fig1_prefix(fig1_formula):
    clauses = [c for c in fig1_formula.clauses if c != (-1, 2, 4)]
    clauses.append((-1,))
    assert check_rup(Formula(clauses), (2,))


def test_check_rat_fig1(fig1_formula):
    assert check_rat(fig1_formula, (-1,), -1)
    assert check_rat(fig1_formula, (1,), 1)


def test_check_rat_vacuous(fig1_formula):
    assert check_rat(fig1_formula, (9, 1), 9)  # fresh pivot, no partners


def test_check_rat_pivot_must_be_in_clause(fig1_formula):
    with pytest.raises(ValueError):
        check_rat(fig1_formula, (-1,), 2)


def test_rup_implies_rat_any_pivot(rng):
    hits = 0
    for _ in range(300):
        formula = random_formula(rng, max_vars=7)
        width = rng.randint(1, 3)
        clause = tuple(v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, 8), width))
        if check_rup(formula, clause):
            hits += 1
            for pivot in clause:
                assert check_rat(formula, clause, pivot)
    assert hits > 20


def test_check_proof_fig1(fig1_formula, fig1_proof):
    assert check_proof(fig1_formula, fig1_proof, refutation=True)


def test_check_proof_trivial_conflict():
    assert check_proof(Formula([(1,), (-1,)]), [("a", ())], refutation=True)


def test_check_proof_rejects_bare_empty(fig1_formula):
    result = check_proof(fig1_formula, [("a", ())])
    assert not result
    assert result.line == 0


def test_check_proof_rejects_an_unknown_line_kind(fig1_formula):
    result = check_proof(fig1_formula, [("a", (-1,)), ("x", (2,))])
    assert not result
    assert result.line == 1
    assert result.reason == "unknown line kind 'x'"


def test_check_proof_refutation_needs_empty(fig1_formula):
    assert not check_proof(fig1_formula, [("a", (-1,))], refutation=True)


def test_deleting_absent_clause_warns(fig1_formula):
    result = check_proof(fig1_formula, [("d", (9, 8))])
    assert result
    assert result.warnings


def test_deletion_matches_by_literal_set(fig1_formula):
    # deleting (4 2 -1) removes the stored (-1 2 4); a second deletion of
    # the same clause then has nothing left to match
    proof = [("d", (4, 2, -1)), ("d", (-1, 2, 4))]
    result = check_proof(fig1_formula, proof)
    assert result
    assert len(result.warnings) == 1
    assert result.warnings[0][0] == 1


def test_unit_deletions_are_honored():
    # with the unit present, (2) is RUP; once the unit is deleted the RAT
    # check over the two (-2 ...) partners fails too
    formula = Formula([(1,), (-1, 2), (-2, 3), (-2, -3)])
    assert check_proof(formula, [("a", (2,))])
    assert not check_proof(formula, [("d", (1,)), ("a", (2,))])


def test_any_pivot_switch():
    # (2 1) is RAT on 1 but not on 2 here; first-literal convention rejects
    formula = Formula([(1, 3), (-1, 3), (-2, -3)])
    assert not check_proof(formula, [("a", (2, 1))])
    assert check_proof(formula, [("a", (2, 1))], any_pivot=True)


def test_symmetry_pivot_unit():
    # (1) is not RAT here, but the formula is flip-symmetric, so the
    # symmetry-break policy may admit it (with a logged warning)
    formula = Formula([(1, 2), (-1, -2)])
    proof = [("a", (1,))]
    assert not check_proof(formula, proof)
    result = check_proof(formula, proof, symmetry_pivots=(1,))
    assert result
    assert result.warnings


def test_symmetry_pivot_requires_symmetry():
    # same unit against an asymmetric formula stays rejected
    formula = Formula([(1, 2), (-1, -2), (2, 3)])
    assert not check_proof(formula, [("a", (1,))], symmetry_pivots=(1,))


def test_checker_accepts_solver_proofs(rng):
    for _ in range(200):
        formula = random_formula(rng, max_vars=9)
        proof = []
        if cdcl.solve(formula, proof=proof).verdict == cdcl.UNSAT:
            assert check_proof(formula, proof, refutation=True)


def test_mutated_proofs_mostly_rejected(rng):
    """Flipping one literal of an accepted refutation should almost always
    break it; the rare survivors must still be genuine refutations."""
    def random_3cnf(nv, nc):
        clauses = []
        for _ in range(nc):
            vs = rng.sample(range(1, nv + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        return Formula(clauses, nv)

    trials = 0
    rejected = 0
    while trials < 200:
        formula = random_3cnf(10, rng.randint(42, 50))
        proof = []
        if cdcl.solve(formula, proof=proof).verdict != cdcl.UNSAT:
            continue
        additions = [i for i, (kind, cl) in enumerate(proof) if kind == "a" and cl]
        if not additions:
            continue
        index = rng.choice(additions)
        clause = list(proof[index][1])
        pos = rng.randrange(len(clause))
        clause[pos] = -clause[pos]
        mutated = list(proof)
        mutated[index] = ("a", tuple(clause))
        trials += 1
        result = check_proof(formula, mutated, refutation=True)
        if not result:
            rejected += 1
        else:
            # tolerated: the mutation happened to stay RAT; the verdict it
            # certifies is still correct
            assert not brute_sat(formula)
    # dense UNSAT formulas leave many mutations RAT, so the measured rate
    # sits well below 1; survivors above are individually verified sound
    assert rejected / trials >= 0.2
    print("mutation rejection rate: %.3f" % (rejected / trials))


def test_extension_clauses_shape():
    assert extension_clauses(9, 1, 2) == [(9, -1, -2), (-9, 1), (-9, 2)]


def test_extension_clauses_rat_addable():
    formula = Formula([(1, 2)])
    proof = [("a", c) for c in extension_clauses(9, 1, 2)]
    assert check_proof(formula, proof)


def test_extension_preserves_satisfiability(rng):
    for _ in range(100):
        formula = random_formula(rng, max_vars=6, allow_units=False)
        occurring = sorted({abs(l) for c in formula.clauses for l in c})
        if len(occurring) < 2:
            continue
        a, b = rng.sample(occurring, 2)
        x = formula.num_vars + 1
        extended = Formula(list(formula.clauses) +
                           extension_clauses(x, a, b))
        assert brute_sat(formula) == brute_sat(extended)


def test_merge_proofs_order():
    merged = merge_proofs([("d", (1,))], [[("a", (2,))], [("a", (3,))]],
                          [("a", ())])
    assert merged == [("d", (1,)), ("a", (2,)), ("a", (3,)), ("a", ())]
    assert len(merged) == 4


def test_merge_proofs_zero_cubes():
    assert merge_proofs([("d", (1,))], [], [("a", ())]) == \
        [("d", (1,)), ("a", ())]


def test_merge_proofs_missing_cube():
    with pytest.raises(ValueError):
        merge_proofs([], [None], [])


def test_checker_scales_politely():
    """No superpolynomial blowup: doubling a propagation-chain proof must
    not explode the runtime (cubic would be an 8x step)."""

    def chain(n):
        clauses = [(1,)] + [(-i, i + 1) for i in range(1, n)] + [(-n,)]
        proof = [("a", (i,)) for i in range(2, n + 1)] + [("a", ())]
        return Formula(clauses), proof

    timings = []
    for n in (100, 200, 400):
        formula, proof = chain(n)
        start = time.perf_counter()
        assert check_proof(formula, proof, refutation=True)
        timings.append(time.perf_counter() - start)
    floor = max(timings[0], 1e-3)
    assert timings[2] <= 64 * floor


# ------------------------------------------- watched checker vs reference


def _outcome(result):
    return result.accepted, result.line, result.reason, result.warnings


def assert_same_as_reference(formula, proof, **kwargs):
    result = check_proof(formula, proof, **kwargs)
    assert _outcome(result) == _outcome(reference_check_proof(formula, proof, **kwargs))
    return result


def _flip_one_literal(rng, proof):
    additions = [i for i, (kind, cl) in enumerate(proof) if kind == "a" and cl]
    index = rng.choice(additions)
    clause = list(proof[index][1])
    pos = rng.randrange(len(clause))
    clause[pos] = -clause[pos]
    mutated = list(proof)
    mutated[index] = ("a", tuple(clause))
    return mutated


def test_checker_matches_reference_on_solver_proofs(rng):
    """CDCL refutations of random small CNFs and of random 3-CNFs dense
    enough to need lemmas, each also with one lemma literal flipped."""
    refutations = rejected = 0
    while refutations < 300:
        if refutations % 2:
            formula = random_formula(rng, max_vars=9)
        else:
            formula = Formula([tuple(v if rng.random() < 0.5 else -v
                                     for v in rng.sample(range(1, 11), 3))
                               for _ in range(rng.randint(42, 50))])
        proof = []
        if cdcl.solve(formula, proof=proof).verdict != cdcl.UNSAT:
            continue
        refutations += 1
        assert assert_same_as_reference(formula, proof, refutation=True)
        if any(kind == "a" and cl for kind, cl in proof):
            mutated = _flip_one_literal(rng, proof)
            rejected += not assert_same_as_reference(formula, mutated,
                                                     refutation=True)
    assert rejected > 20


def test_checker_matches_reference_on_random_proofs(rng):
    """Additions, deletions of present and of absent clauses, and empty
    clauses, in random order; every pivot policy."""
    seen = set()
    for _ in range(600):
        formula = random_formula(rng, max_vars=7)
        top = formula.num_vars + 1
        present = list(formula.clauses)
        proof = []
        for _ in range(rng.randint(1, 16)):
            roll = rng.random()
            width = rng.randint(1, 3)
            clause = tuple(v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, top + 1), width))
            if roll < 0.25 and present:
                clause = present.pop(rng.randrange(len(present)))
                proof.append(("d", tuple(rng.sample(clause, len(clause)))))
            elif roll < 0.35:
                proof.append(("d", clause))
            elif roll < 0.4:
                proof.append(("a", ()))
            else:
                proof.append(("a", clause))
                present.append(clause)
        for kwargs in ({}, {"any_pivot": True}, {"refutation": True}):
            result = assert_same_as_reference(formula, proof, **kwargs)
            seen.add((result.accepted, bool(result.warnings)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_checker_matches_reference_on_merged_pipeline_proof(rng):
    formula = ap3_formula(9)
    result = pipeline.run(pipeline.PipelineConfig(formula=formula,
                                                  cutoff="depth:3"))
    pivots = (result.pivot,) if result.pivot is not None else ()
    assert assert_same_as_reference(formula, result.proof, refutation=True,
                                    symmetry_pivots=pivots)
    for _ in range(30):
        assert_same_as_reference(formula, _flip_one_literal(rng, result.proof),
                                 refutation=True, symmetry_pivots=pivots)


@pytest.mark.parametrize("clauses, proof, kwargs", [
    ([(1, 2), (-1, -2)], [("a", (1,))], {}),
    ([(1, 2), (-1, -2)], [("a", (1,))], {"symmetry_pivots": (1,)}),
    ([(1, 2), (-1, -2), (2, 3)], [("a", (1,))], {"symmetry_pivots": (1,)}),
    ([(1, 2), (-1, -2)], [("a", (2,)), ("a", (1,))], {"symmetry_pivots": (1,)}),
    ([(1, 3), (-1, 3), (-2, -3)], [("a", (2, 1))], {}),
    ([(1, 3), (-1, 3), (-2, -3)], [("a", (2, 1))], {"any_pivot": True}),
    ([(1, 3), (-1, 3), (-2, -3)], [("a", (2, -1))], {"any_pivot": True}),
], ids=["sym-no-policy", "sym-pivot", "sym-asymmetric", "sym-after-lemma",
        "first-pivot", "any-pivot", "any-pivot-fails"])
def test_checker_matches_reference_on_pivot_policies(clauses, proof, kwargs):
    assert_same_as_reference(Formula(clauses), proof, **kwargs)


# ------------------------------------------------- persistent level 0


def test_deleting_a_reason_underives_its_unit():
    # 1 -> 2 -> 3 at level 0; (3) is RUP only through the reason (-1 2)
    formula = Formula([(1,), (-1, 2), (-2, 3), (-3, 4, 5)])
    assert assert_same_as_reference(formula, [("a", (3,))])
    result = assert_same_as_reference(formula, [("d", (-1, 2)), ("a", (3,))])
    assert not result and result.line == 1
    assert result.stats["rebuilds"] == 1
    # deleting a clause that is no reason leaves level 0 alone
    result = assert_same_as_reference(formula, [("d", (-3, 4, 5)), ("a", (3,))])
    assert result and result.stats["rebuilds"] == 0


def test_lemma_with_false_literal_watches_free_ones():
    # 1 is false at level 0 when (1 2 3) is added; (3) is RUP only if the
    # lemma then propagates 2 once 3 is false
    formula = Formula([(-1,), (-2, 4), (-2, -4), (1, 2, 3, 5), (-5, 2), (-3, 6)])
    assert assert_same_as_reference(formula, [("a", (1, 2, 3)), ("a", (3,))])
    assert not assert_same_as_reference(formula, [("a", (3,))])


def test_readded_clause_is_live_again():
    # (-1 3) is implied through (-1 2), (-2 3); once (-1 2) is gone, (3) is
    # RUP only through the re-added copy
    formula = Formula([(1,), (-1, 2), (-2, 3), (-1, 3), (-3, 4, 5)])
    readd = [("d", (-1, 3)), ("a", (-1, 3)), ("d", (-1, 2)), ("a", (3,))]
    assert assert_same_as_reference(formula, readd)
    without = [("d", (-1, 3)), ("d", (-1, 2)), ("a", (3,))]
    assert not assert_same_as_reference(formula, without)
    deleted_again = readd[:2] + [("d", (3, -1))] + readd[2:]
    result = assert_same_as_reference(formula, deleted_again)
    assert not result and result.line == 4 and not result.warnings


def test_repeated_literals_are_collapsed():
    formula = Formula([(1, 2, 3), (-3,)])
    result = assert_same_as_reference(formula, [("a", (2, 2, 1)), ("d", (1, 2))])
    assert result and not result.warnings
    # a repeated literal counts once, so (2 2 1) propagates 2 once 1 is
    # false; the reference counted both copies as free and missed it
    formula = Formula([(2, 2, 1), (-1,), (-2, 3), (-2, -3)])
    assert check_proof(formula, [("a", ())], refutation=True)
    assert not reference_check_proof(formula, [("a", ())], refutation=True)


def test_tautological_lemma():
    formula = Formula([(1, 2), (-1, 2), (1, -2), (-1, -2), (3, -3, 1)])
    proof = [("a", (4, -4)), ("a", (2, -2, 1)), ("a", (2,)), ("a", ())]
    assert assert_same_as_reference(formula, proof, refutation=True)


@pytest.mark.parametrize("clauses", [[(1, 2), ()], [(1,), (2, 3), (-1,)]],
                         ids=["empty-clause", "contradictory-units"])
def test_formula_already_in_conflict(clauses):
    formula = Formula(clauses)
    assert assert_same_as_reference(formula, [("a", ())], refutation=True)
    assert assert_same_as_reference(formula, [("a", (-2,))])
    # dropping the culprit takes level 0 out of conflict
    culprit = [("d", clauses[-1])]
    assert assert_same_as_reference(formula, culprit)
    result = assert_same_as_reference(formula, culprit + [("a", ())])
    assert not result and result.line == 1


def test_clause_added_while_level_zero_in_conflict():
    # (2 3) is added under a level-0 conflict; after (1) goes, (4) is RAT
    # only through it
    formula = Formula([(1,), (-1,), (-2, 4), (-3, 4), (-4, 5)])
    result = assert_same_as_reference(formula, [("a", (2, 3)), ("d", (1,)),
                                                 ("a", (4,))])
    assert result and result.stats["rebuilds"] == 1
    assert not assert_same_as_reference(formula, [("d", (1,)), ("a", (4,))])


def test_check_counters_on_ap3():
    formula = ap3_formula(9)
    merged = pipeline.run(pipeline.PipelineConfig(formula=formula,
                                                  cutoff="depth:3")).proof
    # extension clauses need RAT partner checks; a deletion after the
    # empty clause rebuilds level 0
    extension = [("a", c) for c in extension_clauses(10, 1, 2)]
    proof = extension + merged + [("d", (1, 2, 3))]
    result = check_proof(formula, proof, refutation=True)
    assert result
    assert set(result.stats) == {"lemmas", "rup_calls", "rat_partner_checks",
                                 "rebuilds", "propagations"}
    assert all(count > 0 for count in result.stats.values()), result.stats
    assert result.stats["lemmas"] == sum(kind == "a" for kind, _ in proof)
    assert result.stats["rup_calls"] >= result.stats["lemmas"]


# ------------------------------------------------------------------ hints


def solve_with_hints(formula):
    """A CDCL refutation of `formula` and its hints, or None if it is SAT."""
    proof, hints = [], []
    if cdcl.solve(formula, proof=proof, hints=hints).verdict != cdcl.UNSAT:
        return None
    return proof, hints


def assert_hints_change_nothing(formula, proof, hints, **kwargs):
    """The hinted check has the unhinted one's outcome; every addition is
    counted as hinted or searched."""
    plain = check_proof(formula, proof, **kwargs)
    hinted = check_proof(formula, proof, hints=hints, **kwargs)
    assert _outcome(hinted) == _outcome(plain)
    stats = hinted.stats
    assert stats["hinted"] + stats["searched"] == stats["lemmas"]
    assert stats["lemmas"] == plain.stats["lemmas"]
    assert set(plain.stats) == set(stats) - {"hinted", "searched"}
    return hinted


def random_3cnf(rng, num_vars=10):
    return Formula([tuple(v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, num_vars + 1), 3))
                    for _ in range(rng.randint(42, 50))])


def spoiled_hints(rng, formula, proof, hints):
    """The same hints with one entry spoiled in each of six ways."""
    top = len(formula.clauses) + len(proof)
    lemmas = [i for i, hint in enumerate(hints) if hint]
    index = rng.choice(lemmas)
    hint = list(hints[index])
    later = len(formula.clauses) + rng.randrange(index, len(proof))
    ways = {
        "out of range": hint + [top + rng.randrange(3)],
        "negative": hint + [-1 - rng.randrange(3)],
        "later": hint + [later],
        "not unit": [rng.randrange(len(formula.clauses)) for _ in hint],
        "truncated": hint[:len(hint) // 2],
        "empty": [],
    }
    for way, spoiled in ways.items():
        yield way, hints[:index] + [spoiled] + hints[index + 1:]


def test_solver_hints_justify_every_learned_lemma(rng):
    """On a single solve's refutation every line that has hints is accepted
    from them; only the lines without (the empty clause) are searched."""
    refutations = 0
    while refutations < 150:
        formula = (random_formula(rng, max_vars=9) if refutations % 2
                   else random_3cnf(rng))
        solved = solve_with_hints(formula)
        if solved is None:
            continue
        refutations += 1
        proof, hints = solved
        assert len(hints) == len(proof)
        result = assert_hints_change_nothing(formula, proof, hints, refutation=True)
        assert result
        assert result.stats["hinted"] == sum(1 for hint in hints if hint)
        assert result.stats["rup_calls"] == result.stats["searched"]


def test_hints_change_no_outcome_on_solver_proofs(rng):
    """Real hints, each way of spoiling them, on accepted refutations and on
    ones with a lemma literal flipped."""
    refutations = rejected = 0
    spoiled_ways = Counter()
    while refutations < 120:
        formula = random_3cnf(rng)
        solved = solve_with_hints(formula)
        if solved is None or not any(solved[1]):
            continue
        refutations += 1
        proof, hints = solved
        for candidate in (proof, _flip_one_literal(rng, proof)):
            result = assert_hints_change_nothing(formula, candidate, hints,
                                                 refutation=True)
            rejected += not result
            for way, spoiled in spoiled_hints(rng, formula, candidate, hints):
                assert_hints_change_nothing(formula, candidate, spoiled,
                                            refutation=True)
                spoiled_ways[way] += 1
    assert rejected > 20
    assert len(spoiled_ways) == 6


def test_hints_naming_deleted_clauses_fail_quietly():
    # (3) is RUP through (-1 2) and (-2 3); with (-1 2) deleted the hint
    # names a dead clause, and the search rejects the lemma as before
    formula = Formula([(1,), (-1, 2), (-2, 3), (-3, 4, 5)])
    hints = [(), [1, 2]]
    result = assert_hints_change_nothing(formula, [("d", (-1, 2)), ("a", (3,))],
                                         hints)
    assert not result and result.line == 1
    assert result.stats["hinted"] == 0
    # deletions take no number: 4 names the lemma itself, not yet added
    result = assert_hints_change_nothing(
        formula, [("d", (-3, 4, 5)), ("a", (3,))], [(), [4]])
    assert result and result.stats["hinted"] == 0
    # a lemma true at level 0 is left to the search
    result = assert_hints_change_nothing(formula, [("a", (3,))], [[1, 2]])
    assert result and result.stats["hinted"] == 0


def test_hints_may_name_earlier_lemmas():
    formula = Formula([(1, 2, 5), (-1, 2, 5), (-2, 3), (-3, 4, 6)])
    proof = [("a", (2, 5)), ("a", (3, 5)), ("a", (3, 5, 6))]
    result = assert_hints_change_nothing(formula, proof, [(0, 1), (4, 2), (5,)])
    assert result and result.stats["hinted"] == 3
    # naming the lemma itself, or one not yet added, fails
    result = assert_hints_change_nothing(formula, proof, [(0, 1), (5, 2), (6,)])
    assert result and result.stats["hinted"] == 1


def test_solver_numbers_are_the_checkers_clause_ids(rng):
    """Incremental solves of formulas with units, repeated literals and
    tautologies, under cubes that name variables beyond the formula's: on
    UNSAT, proof line k's hint names only clauses below
    `len(formula.clauses) + k`, and the checker accepts every non-empty
    hint."""
    seen = Counter()
    while seen["refuted"] < 150:
        base = (random_3cnf(rng) if seen["refuted"] % 2
                else random_formula(rng, max_vars=8))
        clauses = list(base.clauses)
        for _ in range(rng.randint(0, 3)):
            clause = rng.choice(clauses)
            extra = rng.choice(clause) * rng.choice((1, -1))   # repeat or clash
            clauses.insert(rng.randrange(len(clauses) + 1), clause + (extra,))
        formula = Formula(clauses, base.num_vars)
        top = formula.num_vars + 2
        cube_list = [tuple(rng.choice((1, -1)) * v
                           for v in rng.sample(range(1, top + 1), rng.randint(0, 3)))
                     for _ in range(rng.randint(1, 4))]
        proof, hints = [], []
        results = cdcl.solve_incremental(formula, cube_list, proof=proof, hints=hints)
        if results[-1].verdict != cdcl.UNSAT:
            continue
        seen["refuted"] += 1
        seen["beyond"] += any(abs(l) > formula.num_vars
                              for cube in cube_list[:len(results)] for l in cube)
        seen["repeat"] += any(len(set(c)) < len(c) for c in clauses)
        seen["tautology"] += any(-l in c for c in clauses for l in c)
        assert len(hints) == len(proof)
        for k, hint in enumerate(hints):
            assert all(0 <= num < len(clauses) + k for num in hint)
        result = check_proof(formula, proof, hints=hints)
        assert result
        assert result.stats["hinted"] == sum(1 for hint in hints if hint)
        seen["hinted"] += result.stats["hinted"] > 0
    assert min(seen.values()) > 10, seen


def test_hints_change_no_outcome_on_random_proofs(rng):
    """Random additions and deletions with random numbers as hints, under
    every pivot policy."""
    for _ in range(400):
        formula = random_formula(rng, max_vars=7)
        top = formula.num_vars + 1
        proof = []
        for _ in range(rng.randint(1, 16)):
            width = rng.randint(0, 3)
            clause = tuple(v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, top + 1), width))
            proof.append(("d" if rng.random() < 0.2 else "a", clause))
        limit = len(formula.clauses) + len(proof) + 2
        hints = [[rng.randrange(-2, limit) for _ in range(rng.randint(0, 5))]
                 for _ in proof]
        for kwargs in ({}, {"any_pivot": True}, {"refutation": True}):
            assert_hints_change_nothing(formula, proof, hints, **kwargs)


def checked_pipeline_run(monkeypatch, config):
    """Run the pipeline and return (result, the gate check's hints)."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs.get("hints"))
        return check_proof(*args, **kwargs)

    monkeypatch.setattr(drat, "check_proof", recording)
    result = pipeline.run(config)
    monkeypatch.undo()
    assert len(calls) == 1
    return result, calls[0]


def ap3_with_blocked_and_duplicates(n):
    """ap3_formula(n) plus a blocked pair on a fresh variable, which BCE
    deletes, and a second copy of its first pair, so that those two clauses
    are present twice; the formula stays flip-symmetric."""
    formula = ap3_formula(n)
    return Formula(list(formula.clauses) + [(n + 1, 1), (-n - 1, -1)]
                   + list(formula.clauses[:2]), n + 1)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("two_level", [False, True])
def test_merged_hints_through_deletions_and_pivot(monkeypatch, rng, two_level,
                                                  workers):
    """encode() swapped for an UNSAT ap3 formula makes the pipeline run BCE
    and the symmetry break, so the merged hints cross the transformation's
    deletions, its pivot unit and duplicate clauses."""
    original = ap3_with_blocked_and_duplicates(9)
    monkeypatch.setattr(pipeline, "encode", lambda n: original)
    config = pipeline.PipelineConfig(n=9, cutoff="depth:3",
                                     second_cutoff="depth:2" if two_level else None,
                                     workers=workers)
    result, hints = checked_pipeline_run(monkeypatch, config)
    proof = result.proof
    assert result.verdict == cdcl.UNSAT and result.pivot is not None
    assert [kind for kind, _ in proof[:3]] == ["d", "d", "a"]
    # the split refutes the root, so the tree is one leaf: it adds no
    # tautology line, and every line of the proof has its hint entry
    assert len(result.cube_results) == 1
    assert len(hints) == len(proof) and proof[-1] == ("a", ())
    padded = list(hints) + [()] * (len(proof) - len(hints))
    assert not any(padded[:3])
    # a hint names clause 0 or 1, each present twice, by its first copy
    assert any(num in (0, 1) for hint in padded for num in hint)
    pivots = (result.pivot,)
    check = assert_hints_change_nothing(original, proof, padded, refutation=True,
                                        symmetry_pivots=pivots)
    assert check.stats == result.check.stats
    # every non-empty hint is accepted
    assert check.stats["hinted"] == sum(1 for hint in padded if hint)
    for _ in range(10):
        mutated = _flip_one_literal(rng, proof)
        assert_hints_change_nothing(original, mutated, padded, refutation=True,
                                    symmetry_pivots=pivots)
    for _, spoiled in spoiled_hints(rng, original, proof, padded):
        assert_hints_change_nothing(original, proof, spoiled, refutation=True,
                                    symmetry_pivots=pivots)


def test_merge_hints_renumbers_into_the_merged_frame():
    original = Formula([(1, 2), (3, 4), (1, 2), (-1, 5)])
    work = Formula([(3, 4), (1, 2), (-1, 5), (7,)])
    transform = [("d", (1, 2)), ("a", (7,))]
    cube_proofs = [[("a", (5,)), ("a", (6,))], [("a", (8,))]]
    cube_hints = [[[0, 2], [3, 4]], [(1, 3, 4)]]
    merged = merge_hints(original, work, transform, cube_proofs, cube_hints)
    # only additions take numbers: (7) is clause 4, the cube lines 5, 6, 7
    assert [list(hint) for hint in merged] == [
        [], [],
        # (3 4) is original 1; (-1 5) original 3
        [1, 3], [4, 5],
        # (1 2) occurs twice in the original: the deletion removes the last
        # copy, so it maps to the first
        [0, 4, 7]]
    assert merge_hints(original, original, [], [[("a", ())]], [[()]]) == [()]
    with pytest.raises(KeyError):      # (7) is not a clause of the merged proof
        merge_hints(original, work, [], [[("a", ())]], [[()]])
    with pytest.raises(ValueError):
        merge_hints(original, work, transform, cube_proofs, [[()], [()]])


# 2 cubes: their negations and the tautology proof's empty clause are
# searched, the 1006 learned lemmas hinted
PINNED_RND_STATS = {"lemmas": 1009, "rup_calls": 3, "rat_partner_checks": 0,
                    "rebuilds": 0, "propagations": 46, "hinted": 1006,
                    "searched": 3}


def test_rnd_unsat_merged_check_stats():
    """The benchmark's first seed-11 rnd-unsat input: all but the refuted
    cubes' negations and the empty clauses are accepted from their hints."""
    sys.path.insert(0, str(REPO / "bench"))
    try:
        from workloads import RND_BASE_SEED, WORKLOADS, random_3sat, relabel
    finally:
        sys.path.remove(str(REPO / "bench"))
    base = random_3sat(130, round(4.8 * 130), RND_BASE_SEED)
    formula = relabel(base, random.Random(11))
    # the pipeline's BCE eliminates nothing here, so the pin is its traffic
    assert bce(formula)[1] == []
    result = pipeline.run(pipeline.PipelineConfig(
        formula=formula, mode="rnd3sat", cutoff=WORKLOADS["rnd-unsat"].cutoff))
    assert result.verdict == cdcl.UNSAT
    assert result.check.stats == PINNED_RND_STATS


def test_checker_imports_only_cnf_from_the_package():
    """The trust boundary: the checker alone decides whether the cubes
    close the tree, so it shares no code with the solver or the splitter
    whose output it checks."""
    tree = ast.parse((REPO / "src" / "triplesat" / "drat.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ("triplesat." if node.level else "") + (node.module or "")
            module = module.rstrip(".")
            names = ([module + "." + alias.name for alias in node.names]
                     if module == "triplesat" else [module])
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        imported.update(name.split(".")[1] for name in names
                        if name.startswith("triplesat."))
    assert imported == {"cnf"}
