import pytest

from triplesat import drat
from triplesat.cdcl import (INDETERMINATE, SAT, UNSAT, Solver, backbone, luby,
                            solve, solve_incremental)
from triplesat.cnf import Formula, SATISFIED, evaluate, propagate_clauses
from triplesat.encoder import arithmetic_witness_check, is_pythagorean

from conftest import ap3_formula, brute_force, brute_sat, random_formula


def all_models(formula):
    """Every total assignment over occurring variables satisfying the formula."""
    variables = sorted({abs(l) for c in formula.clauses for l in c})
    models = []
    for mask in range(2 ** len(variables)):
        assign = {v: bool(mask >> i & 1) for i, v in enumerate(variables)}
        if evaluate(formula, assign) == SATISFIED:
            models.append(assign)
    return models


def test_luby_sequence():
    assert [luby(i) for i in range(1, 16)] == \
        [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_trivial_sat():
    result = solve(Formula([(1, 2)]))
    assert result.verdict == SAT
    assert evaluate(Formula([(1, 2)]), result.model) == SATISFIED


def test_fig1_unsat_with_proof(fig1_formula):
    proof = []
    result = solve(fig1_formula, proof=proof)
    assert result.verdict == UNSAT
    assert proof[-1] == ("a", ())
    assert drat.check_proof(fig1_formula, proof, refutation=True)


def test_empty_clause_input():
    assert solve(Formula([()])).verdict == UNSAT


def test_conflict_budget_indeterminate():
    formula = ap3_formula(9)
    result = solve(formula, conflict_budget=1)
    assert result.verdict == INDETERMINATE
    # and without the budget the instance resolves
    assert solve(formula).verdict == UNSAT


def test_verdicts_match_brute_force(rng):
    """Smaller companion of the acceptance-scale oracle run, with every
    emitted lemma checked for RUP as it stands in the proof."""
    for _ in range(150):
        formula = random_formula(rng, max_vars=9)
        proof = []
        result = solve(formula, proof=proof)
        # every lemma is RUP against the formula and the lemmas before it
        database = list(formula.clauses)
        for kind, lemma in proof:
            assert kind == "a"
            assert propagate_clauses(database, [-l for l in lemma])[1], lemma
            database.append(lemma)
        expected = brute_sat(formula)
        if expected:
            assert result.verdict == SAT
            assert evaluate(formula, result.model) == SATISFIED
        else:
            assert result.verdict == UNSAT
            assert drat.check_proof(formula, proof, refutation=True)


def test_solve_under_assumptions():
    formula = Formula([(1, 2), (-1, 2)])
    solver = Solver(formula)
    assert solver.solve(assumptions=[-2]).verdict == UNSAT
    assert solver.ok  # only refuted under the cube, not globally
    result = solver.solve(assumptions=[2])
    assert result.verdict == SAT
    assert result.model[2] is True


def test_assumptions_not_emitted():
    proof = []
    solver = Solver(Formula([(1, 2), (3, 4)]), proof=proof)
    assert solver.solve(assumptions=[1, 3]).verdict == SAT
    assert proof == []


def test_assumption_beyond_formula_variables():
    solver = Solver(Formula([(1, 2)]))
    result = solver.solve(assumptions=[-1, 7])
    assert result.verdict == SAT
    assert result.model[2] is True and result.model[7] is True
    assert solver.solve(assumptions=[-2, -7]).model[1] is True


def test_assumption_only_variable_is_never_decided():
    # var 5 occurs in no clause: once its assumption is gone it stays free
    solver = Solver(Formula([(1, 2)], 2))
    first = solver.solve(assumptions=[5])
    assert first.model == {1: False, 2: True, 5: True}
    second = solver.solve()
    assert second.decisions - first.decisions == 1
    assert second.model == {1: False, 2: True}


def test_add_refuted_beyond_formula_variables():
    proof = []
    solver = Solver(Formula([(1, 2)]), proof=proof)
    solver.add_refuted([7, 8])
    assert solver.solve(assumptions=[7]).model[8] is False
    solver.add_refuted([9])
    assert solver.solve().model[9] is False
    assert solver.solve(assumptions=[9]).verdict == UNSAT
    assert proof == [("a", (-7, -8)), ("a", (-9,))]


def test_repeated_literals_and_tautologies():
    formula = Formula([(2, 2, 1), (3, -3, 4), (-1,)])
    solver = Solver(formula)
    assert solver.clauses == [[2, 1], [-1]]
    result = solver.solve()
    assert result.verdict == SAT
    # the tautology's variables occur nowhere else and default to False
    assert result.model == {1: False, 2: True, 3: False, 4: False}


def test_literal_zero_rejected():
    with pytest.raises(ValueError):
        Solver(Formula([(1, 0)]))


def test_literal_zero_in_a_cube_rejected():
    # vals[0] is vals[-0]: a 0 assumption used to be solved as a variable
    formula = Formula([(1, 2), (-1, 2)])
    with pytest.raises(ValueError, match="literal 0 is reserved"):
        solve_incremental(formula, [(0,)])
    proof = []
    solver = Solver(formula, proof=proof)
    with pytest.raises(ValueError, match="literal 0 is reserved"):
        solver.solve(assumptions=[5, 0])
    with pytest.raises(ValueError, match="literal 0 is reserved"):
        solver.add_refuted([0, 9])
    # no state changed: no slots grown, nothing stored or emitted
    assert solver.cap == 2 and solver.trail == [] and proof == []
    assert solver.clauses == [[1, 2], [-1, 2]]
    assert solver.solve().model == {1: False, 2: True}


def test_incremental_fig1(fig1_formula):
    proof = []
    results = solve_incremental(fig1_formula, [(1,), (-1,)], proof=proof)
    assert [r.verdict for r in results] == [UNSAT, UNSAT]
    taut_proof = []
    assert solve(Formula([(-1,), (1,)]), proof=taut_proof).verdict == UNSAT
    merged = drat.merge_proofs([], [proof], taut_proof)
    assert drat.check_proof(fig1_formula, merged, refutation=True)


def test_incremental_empty_cube_list(fig1_formula):
    assert solve_incremental(fig1_formula, []) == []


def test_incremental_matches_fresh_solvers(rng):
    for _ in range(100):
        formula = random_formula(rng, max_vars=8, allow_units=False)
        cube_list = [(1,), (-1, 2), (-1, -2)]
        incremental = [r.verdict for r in solve_incremental(formula, cube_list)]
        fresh = []
        for cube in cube_list:
            restricted = Formula(list(formula.clauses) + [(l,) for l in cube],
                                 formula.num_vars)
            fresh.append(solve(restricted).verdict)
        # a SAT cube ends the list: the results are the prefix up to it
        assert incremental == fresh[:len(incremental)]
        end = fresh.index(SAT) + 1 if SAT in fresh else len(fresh)
        assert len(incremental) == end


def test_incremental_budget_marks_cube_and_continues():
    formula = ap3_formula(9)
    results = solve_incremental(formula, [(1,), ()], conflict_budget=1)
    assert results[0].verdict == INDETERMINATE
    assert len(results) == 2


@pytest.mark.parametrize("budget", [0, -3])
def test_conflict_budget_below_one_rejected(budget):
    # it used to act as a budget of 1: one conflict, then indeterminate
    with pytest.raises(ValueError, match="conflict budget must be >= 1"):
        solve(ap3_formula(9), conflict_budget=budget)


@pytest.mark.parametrize("budget", [True, False, 2.5, "3"])
def test_conflict_budget_of_another_type_rejected(budget):
    # True used to stop after 1 conflict, 2.5 after 3; "3" raised TypeError
    with pytest.raises(ValueError, match="conflict budget must be an int"):
        solve(ap3_formula(9), conflict_budget=budget)


def _watch_invariant_holds(solver):
    """Every stored clause of two or more literals is in the watch lists of
    its literals 0 and 1 once each, and in no other watch list."""
    watched = {}
    for lit, clauses in solver.watches.items():
        for clause in clauses:
            watched.setdefault(id(clause), []).append(lit)
    stored = [clause for clause in solver.clauses if len(clause) > 1]
    return (sum(map(len, watched.values())) == 2 * len(stored)
            and all(sorted(watched.get(id(clause), ())) == sorted(clause[:2])
                    for clause in stored))


def test_watch_invariant_after_solve_sessions(rng):
    for case in range(120):
        num_vars = rng.randint(4, 14)
        clauses = []
        for _ in range(rng.randint(num_vars, 5 * num_vars)):
            # 2, 3 and 4-6 literal clauses, the watch loop's three paths
            width = rng.choice((2, 3, 3, rng.randint(4, 6)))
            variables = rng.sample(range(1, num_vars + 1), min(width, num_vars))
            clauses.append(tuple(v if rng.random() < 0.5 else -v
                                 for v in variables))
        budget = rng.choice((None, 1, 3, 10))
        solver = Solver(Formula(clauses, num_vars), proof=[],
                        conflict_budget=budget)
        assert _watch_invariant_holds(solver)
        for _ in range(rng.randint(1, 5)):
            cube = [v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, num_vars + 1),
                                        rng.randint(0, 3))]
            result = solver.solve(assumptions=cube)
            assert _watch_invariant_holds(solver), (case, cube)
            if result.verdict == UNSAT:
                solver.add_refuted(cube)
                assert _watch_invariant_holds(solver), (case, cube)


def test_hints_leave_the_search_unchanged(rng):
    """Solving with a hints sink takes the same steps, emits the same
    proof and, whatever the verdicts, one hint entry per proof line."""
    for _ in range(150):
        formula = random_formula(rng, max_vars=9)
        top = formula.num_vars + 2
        cube_list = [tuple(v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, top + 1), rng.randint(0, 2)))
                     for _ in range(3)]
        budget = rng.choice((None, 2))
        plain, hinted, hints = [], [], []
        want = solve_incremental(formula, cube_list, proof=plain,
                                 conflict_budget=budget)
        got = solve_incremental(formula, cube_list, proof=hinted,
                                conflict_budget=budget, hints=hints)
        assert got == want and hinted == plain
        assert len(hints) == len(plain)


def test_hints_one_per_line():
    formula = ap3_formula(9)
    with pytest.raises(ValueError, match="needs a proof sink"):
        Solver(formula, hints=[])
    # a SAT solve and a budget-cut one keep a hint for each line they emit
    for target, budget, verdict in ((ap3_formula(8), None, SAT),
                                    (formula, 1, INDETERMINATE)):
        proof, hints = [], []
        result = solve(target, proof=proof, hints=hints, conflict_budget=budget)
        assert result.verdict == verdict
        assert len(hints) == len(proof) == 1 and hints[0]
        assert drat.check_proof(target, proof, hints=hints).stats["hinted"] == 1
    proof, hints = [], []
    solver = Solver(formula, proof=proof, hints=hints)
    assert solver.solve(assumptions=[1]).verdict == UNSAT
    solver.add_refuted([1])
    assert len(hints) == len(proof) and hints[-1] == ()
    first = len(hints)
    assert solver.solve().verdict == UNSAT
    assert len(hints) == len(proof) > first
    assert drat.check_proof(formula, proof, refutation=True, hints=hints)


def test_backbone_unit():
    assert backbone(Formula([(1,), (1, 2)])) == {1}


def test_backbone_derived():
    assert backbone(Formula([(1, 2), (1, -2)])) == {1}


def test_backbone_records_one_hint_per_line():
    formula = Formula([(1, 2), (1, -2), (3, 4, 5), (-3, 4)])
    proof, hints = [], []
    assert backbone(formula, proof=proof, hints=hints) == {1}
    assert len(hints) == len(proof) == 2
    assert drat.check_proof(formula, proof, hints=hints).stats["hinted"] > 0


def test_backbone_unsat_rejected(fig1_formula):
    with pytest.raises(ValueError):
        backbone(fig1_formula)


def test_backbone_matches_enumeration(rng):
    checked = 0
    for _ in range(150):
        formula = random_formula(rng, max_vars=7)
        models = all_models(formula)
        if not models:
            continue
        expected = set.intersection(
            *[{v if m[v] else -v for v in m} for m in models])
        assert backbone(formula) == expected
        checked += 1
    assert checked > 30


def test_is_pythagorean():
    assert is_pythagorean(5180, 5865, 7825)
    assert is_pythagorean(625, 7800, 7825)
    assert not is_pythagorean(3, 4, 6)


def test_arithmetic_witness():
    assert arithmetic_witness_check()


def test_statistics_populated(fig1_formula):
    result = solve(fig1_formula)
    assert result.conflicts >= 1
    assert result.propagations >= 1
