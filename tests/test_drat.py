import time

import pytest

from triplesat import cdcl, pipeline
from triplesat.cnf import DimacsError, Formula
from triplesat.drat import (check_proof, check_rat, check_rup, merge_proofs,
                            parse_drat, write_drat)

from conftest import (FIG1_PROOF, ap3_formula, brute_sat, extension_clauses,
                      random_formula, reference_check_proof)


FIG1_PROOF_TEXT = "-1 0\nd -1 2 4 0\n2 0\n0\n"


def test_parse_drat():
    assert parse_drat(FIG1_PROOF_TEXT) == FIG1_PROOF
    assert parse_drat(b"1 2 0\n") == [("a", (1, 2))]
    with pytest.raises(ValueError):
        parse_drat("1 2\n")


@pytest.mark.parametrize("text, line", [("1 0 2 0\n", 1), ("-1 0\nd 1 x 0\n", 2)],
                         ids=["interior-zero", "non-integer"])
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
