"""Differential tests: `cdcl.Solver` against `ReferenceSolver`, the solver
before its kernel rewrite, which must take the same search step for step.

Each case builds a seeded random CNF, runs one of the solver's entry
points once per solver class (both see the same operations, drawn from
the same seed), and compares the decision sequence, the rescale points,
every SolveResult (counters and models, in trail order), the proof lines
and, for a session of solves, the final clause store and heuristic
state.  After every decision of `cdcl.Solver` the decision heap is
checked: every free variable with an activity has an entry at that
activity, and no variable has two entries at one activity.
"""

import random
from collections import Counter

import pytest

from triplesat import cdcl
from triplesat.cnf import Formula

from conftest import ReferenceSolver

SOLVER = cdcl.Solver
CASES_PER_SCENARIO = 80


def random_3sat(rng, low=10, high=50):
    num_vars = rng.randint(low, high)
    clauses = []
    for _ in range(round(rng.uniform(3.8, 4.8) * num_vars)):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return Formula(clauses, num_vars)


def random_mixed(rng):
    """Clause lengths 1-6, literals drawn with replacement, so clauses
    repeat literals and some are tautologies."""
    num_vars = rng.randint(4, 20)
    clauses = []
    for _ in range(rng.randint(num_vars, 5 * num_vars)):
        width = 1 if rng.random() < 0.03 else rng.randint(2, 6)
        clauses.append(tuple(rng.choice((1, -1)) * rng.randint(1, num_vars)
                             for _ in range(width)))
    return Formula(clauses, num_vars)


def random_cube(rng, formula):
    """1-3 literals, some on variables beyond the formula's."""
    top = formula.num_vars + 3
    return tuple(rng.choice((1, -1)) * v
                 for v in rng.sample(range(1, top + 1), rng.randint(1, 3)))


def outcome(result):
    model = None if result.model is None else list(result.model.items())
    return (result.verdict, result.conflicts, result.decisions,
            result.propagations, model)


def check_heap(solver, picked):
    entries = set(solver.heap)
    if len(entries) < len(solver.heap):
        twice = [e for e, n in Counter(solver.heap).items() if n > 1]
        raise AssertionError("variables with two entries at one activity: %s"
                             % twice)
    vals, chosen = solver.vals, abs(picked or 0)
    missing = [var for var, act in enumerate(solver.activity)
               if act is not None and vals[var] is None and var != chosen
               and (-act, var) not in entries]
    assert not missing, "free variables without a current entry: %s" % missing


def recording(base, log, hits, heap_check):
    class Recorded(base):
        def _pick_branch(self):
            lit = super()._pick_branch()
            log.append(lit)
            if heap_check is not None:
                heap_check(self, lit)
            return lit

        def _rescale(self):
            log.append("rescale")
            hits["rescale"] += 1
            super()._rescale()

        def solve(self, assumptions=()):
            result = super().solve(assumptions)
            log.append(outcome(result))
            hits[result.verdict] += 1
            return result
    return Recorded


# ------------------------------------------------------------------ scenarios
# Each takes (formula, proof, rng, budget, hits) and returns a list of
# comparable events; it reaches the solver only through cdcl.Solver.


def scenario_solve(formula, proof, rng, budget, hits):
    return [outcome(cdcl.solve(formula, proof=proof, conflict_budget=budget))]


def scenario_incremental(formula, proof, rng, budget, hits):
    cube_list = [random_cube(rng, formula) for _ in range(rng.randint(1, 4))]
    if any(abs(l) > formula.num_vars for cube in cube_list for l in cube):
        hits["cube beyond num_vars"] += 1
    results = cdcl.solve_incremental(formula, cube_list, proof=proof,
                                     conflict_budget=budget)
    hits["add_refuted"] += sum(r.verdict == cdcl.UNSAT for r in results)
    return [outcome(r) for r in results]


def scenario_session(formula, proof, rng, budget, hits):
    """Solves with and without cubes, refuted cubes added between them."""
    solver = cdcl.Solver(formula, proof=proof, conflict_budget=budget)
    events = [outcome(solver.solve())]
    for _ in range(3):
        cube = random_cube(rng, formula)
        result = solver.solve(assumptions=cube)
        events.append((cube, outcome(result)))
        if result.verdict == cdcl.UNSAT:
            solver.add_refuted(cube)
            hits["add_refuted"] += 1
        events.append(outcome(solver.solve()))
    events.append((solver.clauses, solver.activity, solver.phase,
                   solver.var_inc))
    return events


def scenario_backbone(formula, proof, rng, budget, hits):
    try:
        found = cdcl.backbone(formula, proof=proof, conflict_budget=budget)
    except (ValueError, RuntimeError) as exc:
        return [repr(exc)]
    hits["backbone found"] += 1
    return [sorted(found)]


SCENARIOS = {
    "solve": scenario_solve,
    "solve_incremental": scenario_incremental,
    "session": scenario_session,
    "backbone": scenario_backbone,
}


def run_case(monkeypatch, base, scenario, formula, seed, budget, hits,
             heap_check=None):
    log = []
    monkeypatch.setattr(cdcl, "Solver", recording(base, log, hits, heap_check))
    proof = []
    events = scenario(formula, proof, random.Random(seed), budget, hits)
    return events, log, proof


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_solver_matches_reference(monkeypatch, name):
    scenario = SCENARIOS[name]
    hits = Counter()
    for case in range(CASES_PER_SCENARIO):
        rng = random.Random("%s-%d" % (name, case))
        if case % 16 == 15:
            # a decay of 0.5 doubles the bump every conflict, so the 1e100
            # rescale runs after about 330 conflicts of one solver
            monkeypatch.setattr(cdcl, "VAR_DECAY", 0.5)
            formula, budget = random_3sat(rng, 90, 100), None
        else:
            monkeypatch.setattr(cdcl, "VAR_DECAY", 0.95)
            formula = (random_3sat if case % 2 else random_mixed)(rng)
            budget = rng.choice((None, None, 1, 5, 20))
        seed = rng.random()
        want = run_case(monkeypatch, ReferenceSolver, scenario, formula, seed,
                        budget, Counter())
        got = run_case(monkeypatch, SOLVER, scenario, formula, seed, budget,
                       hits, check_heap)
        assert got == want, "case %d" % case
        events, log, proof = got
        hits["decisions"] += sum(isinstance(lit, int) for lit in log)
        hits["long lemmas"] += sum(len(clause) > 3 for _, clause in proof)
        hits["tautology"] += any(len(set(map(abs, c))) < len(set(c))
                                 for c in formula.clauses)
    expected = {"decisions", "long lemmas", "rescale", cdcl.SAT, cdcl.UNSAT,
                "tautology"}
    expected |= {
        "solve": {cdcl.INDETERMINATE},
        "solve_incremental": {"cube beyond num_vars", "add_refuted",
                              cdcl.INDETERMINATE},
        "session": {"add_refuted", cdcl.INDETERMINATE},
        "backbone": {"backbone found"},
    }[name]
    assert not {path for path in expected if not hits[path]}, hits


def test_heap_check_catches_the_reference_duplicates(monkeypatch):
    # the earlier heap pushes a variable at every bump and every
    # unassignment, so it holds duplicates the check above rejects
    formula = random_3sat(random.Random(3))
    with pytest.raises(AssertionError, match="two entries"):
        run_case(monkeypatch, ReferenceSolver, scenario_solve, formula, 0,
                 None, Counter(), check_heap)
