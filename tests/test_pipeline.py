import functools
import itertools
import multiprocessing
import random
import re
from collections import Counter

import pytest

from triplesat import cdcl, drat, pipeline
from triplesat.cnf import Formula, SATISFIED, evaluate, propagate_clauses
from triplesat.encoder import check_partition, encode
from triplesat.lookahead import MODES, cubes, parse_cutoff, split
from triplesat.transform import bce, reconstruct, symmetry_break

from conftest import (FIG1_CLAUSES, FIG3_CUBES, ap3_formula, brute_sat,
                      negate_cubes, random_formula, reference_check_proof,
                      reference_solve_one_cube)


def test_config_requires_one_source():
    with pytest.raises(ValueError):
        pipeline.PipelineConfig()
    with pytest.raises(ValueError):
        pipeline.PipelineConfig(n=5, formula_path="x.cnf")
    with pytest.raises(ValueError):
        pipeline.PipelineConfig(n=5, workers=0)


def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'nosuchmode'"):
        pipeline.PipelineConfig(n=30, mode="nosuchmode")


def test_config_rejects_bad_cutoffs():
    with pytest.raises(ValueError, match="cutoff: malformed cutoff 'nonsense'"):
        pipeline.PipelineConfig(n=60, cutoff="nonsense")
    # checked even when two-level mode, the only reader, is off
    with pytest.raises(ValueError,
                       match="second_cutoff: malformed cutoff 'garbage'"):
        pipeline.PipelineConfig(n=60, second_cutoff="garbage")
    with pytest.raises(ValueError, match="'x' is not an integer"):
        pipeline.PipelineConfig(n=60, cutoff="bin:5,depth:x")
    with pytest.raises(ValueError, match="cutoff: cutoff 'depth:-1': -1 is negative"):
        pipeline.PipelineConfig(n=60, cutoff="depth:-1")
    with pytest.raises(ValueError,
                       match="second_cutoff: cutoff 'vars:-3': -3 is negative"):
        pipeline.PipelineConfig(n=60, second_cutoff="vars:-3")
    assert pipeline.PipelineConfig(n=60, cutoff="depth:2")


@pytest.mark.parametrize("budget", [0, -3])
def test_config_rejects_conflict_budget_below_one(budget):
    # a budget of 0 or less used to run one conflict per cube
    with pytest.raises(ValueError, match="conflict budget must be >= 1"):
        pipeline.PipelineConfig(n=30, conflict_budget=budget)
    assert pipeline.PipelineConfig(n=30, conflict_budget=1)


@pytest.mark.parametrize("budget", [True, 2.5, "3"])
def test_config_rejects_conflict_budget_of_another_type(budget):
    with pytest.raises(ValueError, match="conflict budget must be an int"):
        pipeline.PipelineConfig(n=30, conflict_budget=budget)


def test_solve_one_cube_rejects_literal_zero():
    formula = Formula([(1, 2), (-1, 2)])
    config = pipeline.PipelineConfig(formula=formula)
    with pytest.raises(ValueError, match="literal 0 is reserved"):
        pipeline.solve_one_cube(formula, (0,), config)


@pytest.mark.parametrize("preselect", [0.0, -0.5, 1.01, float("nan"),
                                       float("inf")])
def test_config_rejects_preselect_outside_unit_interval(preselect):
    with pytest.raises(ValueError, match=r"preselect must be in \(0, 1\]"):
        pipeline.PipelineConfig(n=30, preselect=preselect)


def test_load_config_checks_numbers_on_their_line(tmp_path):
    path = tmp_path / "run.cfg"
    for line, key, value, kind in [("workers = 1.5", "workers", "1.5", "integer"),
                                   ("workers = 1_0", "workers", "1_0", "integer"),
                                   ("iterations = +4", "iterations", "+4",
                                    "integer"),
                                   ("iterations = four", "iterations", "four",
                                    "integer"),
                                   ("preselect = half", "preselect", "half",
                                    "real"),
                                   ("alpha = 1_5", "alpha", "1_5", "real"),
                                   ("beta = inf", "beta", "inf", "real"),
                                   ("gamma = 1e999", "gamma", "1e999", "real"),
                                   ("preselect = +.5", "preselect", "+.5",
                                    "real")]:
        path.write_text("mode = ptn3sat\n%s\n" % line)
        with pytest.raises(ValueError, match=re.escape(
                "line 2: %s %r is not a valid %s" % (key, value, kind))):
            pipeline.load_config(str(path))


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nalpha = 2.5\nmode=rnd3sat\nworkers = 3\n\n")
    assert pipeline.load_config(str(path)) == {"alpha": 2.5,
                                               "mode": "rnd3sat",
                                               "workers": 3}
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense\n")
    with pytest.raises(ValueError):
        pipeline.load_config(str(bad))
    typo = tmp_path / "typo.cfg"
    typo.write_text("# comment\nmode = ptn3sat\ncutof = depth:1\n")
    with pytest.raises(ValueError, match="line 3: unknown key 'cutof'"):
        pipeline.load_config(str(typo))
    twice = tmp_path / "twice.cfg"
    twice.write_text("mode = rnd3sat\nmode = ptn3sat\n")
    with pytest.raises(ValueError, match="line 2: key 'mode' given twice"):
        pipeline.load_config(str(twice))


def test_load_config_rejects_var_decay(tmp_path):
    # the activity decay is cdcl.VAR_DECAY, not a setting
    path = tmp_path / "decay.cfg"
    path.write_text("var_decay = 0.9\n")
    with pytest.raises(ValueError, match="line 1: unknown key 'var_decay'"):
        pipeline.load_config(str(path))


def test_default_config_carries_reference_parameters():
    values = pipeline.default_config()
    params = pipeline.config_params(values)
    assert (params.alpha, params.beta, params.gamma) == (8.0, 550.0, 25.0)
    assert params.iterations == 4
    assert values["cutoff"] == "bin:3000"
    assert values["second_cutoff"] == "vars:3450"
    assert (values["workers"], values["preselect"]) == (1, 1.0)


def test_run_n5_sat():
    result = pipeline.run(pipeline.PipelineConfig(n=5, cutoff="depth:2"))
    assert result.verdict == cdcl.SAT
    assert check_partition(5, result.model) is None


def test_run_fig1_two_cubes():
    formula = Formula(list(FIG1_CLAUSES), 4)
    result = pipeline.run(pipeline.PipelineConfig(formula=formula,
                                                  cutoff="depth:1"))
    assert result.verdict == cdcl.UNSAT
    assert len(result.report.cube_stats) == 2
    assert drat.check_proof(formula, result.proof, refutation=True)


def test_run_ap3_instances():
    unsat = pipeline.run(pipeline.PipelineConfig(formula=ap3_formula(9),
                                                 cutoff="depth:3"))
    assert unsat.verdict == cdcl.UNSAT
    assert drat.check_proof(ap3_formula(9), unsat.proof, refutation=True)
    sat = pipeline.run(pipeline.PipelineConfig(formula=ap3_formula(8),
                                               cutoff="depth:3"))
    assert sat.verdict == cdcl.SAT
    assert evaluate(ap3_formula(8), sat.model) == SATISFIED


def test_run_generic_with_bce(tmp_path):
    """A DIMACS input gets BCE too: clauses over fresh variables 10 and 11
    are blocked.  The UNSAT proof deletes them and is plain DRAT; the SAT
    model is repaired to satisfy them."""
    from triplesat.cnf import parse_dimacs, write_dimacs
    blocked = [(10, 1), (10, -1), (-10, 11, 2)]
    for n, verdict in ((9, cdcl.UNSAT), (8, cdcl.SAT)):
        path = tmp_path / ("ap3-%d.cnf" % n)
        formula = Formula(ap3_formula(n).clauses + tuple(blocked))
        path.write_text(write_dimacs(formula))
        original = parse_dimacs(path.read_bytes())
        result = pipeline.run(pipeline.PipelineConfig(formula_path=str(path),
                                                      cutoff="depth:3"))
        assert result.verdict == verdict
        assert result.pivot is None
        if verdict == cdcl.UNSAT:
            assert set(result.proof[:3]) == {("d", clause) for clause in blocked}
            assert drat.check_proof(original, result.proof, refutation=True)
        else:
            assert evaluate(original, result.model) == SATISFIED


def test_run_formula_path(tmp_path):
    from triplesat.cnf import write_dimacs
    path = tmp_path / "f.cnf"
    path.write_text(write_dimacs(ap3_formula(9)))
    result = pipeline.run(pipeline.PipelineConfig(formula_path=str(path),
                                                  cutoff="depth:2"))
    assert result.verdict == cdcl.UNSAT


def test_verdict_matches_plain_solver(rng):
    from triplesat.lookahead import LookaheadError
    checked = 0
    for _ in range(40):
        formula = random_formula(rng, max_vars=8, allow_units=False)
        try:
            result = pipeline.run(pipeline.PipelineConfig(formula=formula,
                                                          cutoff="depth:2"))
        except LookaheadError:
            continue
        assert (result.verdict == cdcl.SAT) == brute_sat(formula)
        checked += 1
    assert checked > 20


def test_two_level_mode():
    config = pipeline.PipelineConfig(formula=ap3_formula(9), cutoff="depth:2",
                                     second_cutoff="depth:4", two_level=True)
    result = pipeline.run(config)
    assert result.verdict == cdcl.UNSAT
    assert drat.check_proof(ap3_formula(9), result.proof, refutation=True)
    sat = pipeline.run(pipeline.PipelineConfig(
        formula=ap3_formula(8), cutoff="depth:2", second_cutoff="depth:4",
        two_level=True))
    assert sat.verdict == cdcl.SAT


@pytest.mark.parametrize("two_level", [False, True])
def test_workers_do_not_change_outcome(two_level):
    for formula, verdict in ((ap3_formula(9), cdcl.UNSAT),
                             (ap3_formula(8), cdcl.SAT)):
        runs = [pipeline.run(pipeline.PipelineConfig(
            formula=formula, cutoff="depth:3", second_cutoff="depth:2",
            two_level=two_level, workers=workers)) for workers in (1, 2)]
        assert [r.verdict for r in runs] == [verdict, verdict]
        assert runs[0].cube_results == runs[1].cube_results
        assert runs[0].proof == runs[1].proof  # deterministic per-cube solvers
        assert runs[0].model == runs[1].model


def test_deterministic_repeat_runs():
    one = pipeline.run(pipeline.PipelineConfig(n=60, cutoff="depth:3"))
    two = pipeline.run(pipeline.PipelineConfig(n=60, cutoff="depth:3"))
    assert one.verdict == two.verdict
    assert one.model == two.model
    assert [r["size"] for r in one.report.cube_stats] == \
        [r["size"] for r in two.report.cube_stats]


def test_indeterminate_propagates():
    result = pipeline.run(pipeline.PipelineConfig(formula=ap3_formula(9),
                                                  cutoff="depth:1",
                                                  conflict_budget=1))
    assert result.verdict == cdcl.INDETERMINATE
    assert result.proof is None


def test_stats_csv():
    result = pipeline.run(pipeline.PipelineConfig(formula=ap3_formula(9),
                                                  cutoff="depth:3"))
    csv = pipeline.per_cube_csv(result.report)
    lines = csv.strip().splitlines()
    assert lines[0] == ("index,size,split_time,solve_time,"
                        "conflicts,decisions,propagations")
    assert len(lines) == len(result.report.cube_stats) + 1
    row = result.report.cube_stats[0]
    assert lines[1].split(",")[4:] == [str(row["conflicts"]), str(row["decisions"]),
                                       str(row["propagations"])]
    hist = pipeline.histogram_csv(result.report)
    assert hist.splitlines()[0] == "size,count"


def test_histogram_of_fig3_sizes():
    report = pipeline.PhaseReport(cube_sizes=[len(c) for c in FIG3_CUBES])
    assert report.histogram() == {2: 2, 3: 3, 4: 2}
    assert sum(report.histogram().values()) == len(FIG3_CUBES)


def test_per_cube_solver_counters():
    formula = ap3_formula(9)
    config = pipeline.PipelineConfig(formula=formula, cutoff="depth:3")
    result = pipeline.run(config)
    cube_list = cubes(split(formula, parse_cutoff("depth:3")))
    assert len(cube_list) == len(result.report.cube_stats)
    for cube, row in zip(cube_list, result.report.cube_stats):
        alone = pipeline.solve_one_cube(formula, cube, config)[0]
        assert (row["conflicts"], row["decisions"], row["propagations"]) == \
            (alone.conflicts, alone.decisions, alone.propagations)
    assert sum(row["propagations"] for row in result.report.cube_stats) > 0


def random_partition(rng, variables, depth):
    """The cubes of a random decision tree: no variable repeats on a path,
    so the cubes are consistent and cover every assignment."""
    if depth == 0 or not variables or rng.random() < 0.25:
        return [()]
    var = rng.choice(variables)
    rest = [v for v in variables if v != var]
    lit = var if rng.random() < 0.5 else -var
    return [(sign * lit,) + cube for sign in (1, -1)
            for cube in random_partition(rng, rest, depth - 1)]


def merged_proof_accepted(formula, cube_list, outcomes):
    """check_proof of the cube proofs against the formula alone; when
    every cube is refuted, with the partition's tautology proof closing
    the refutation."""
    refuted = all(o[0].verdict == cdcl.UNSAT for o in outcomes)
    taut_proof = []
    if refuted:
        assert cdcl.solve(negate_cubes(cube_list),
                          proof=taut_proof).verdict == cdcl.UNSAT
    merged = drat.merge_proofs([], [o[1] for o in outcomes], taut_proof)
    return bool(drat.check_proof(formula, merged, refutation=refuted))


@pytest.mark.parametrize("budget", [None, 3])
@pytest.mark.parametrize("two_level", [False, True])
def test_solve_one_cube_matches_reference(two_level, budget):
    # the parent's conquer path (cube as units, lemmas extended with the
    # cube's negation) against cubes under assumptions: searches and
    # proofs differ, verdicts may not, and both proofs must check
    rng = random.Random("conquer-%s-%s" % (two_level, budget))
    hits = Counter()
    for _ in range(60):
        num_vars = rng.randint(6, 24)
        formula = Formula([tuple(v if rng.random() < 0.5 else -v
                                 for v in rng.sample(range(1, num_vars + 1), 3))
                           for _ in range(int(num_vars * rng.uniform(4, 6)))],
                          num_vars)
        cube_list = random_partition(rng, list(range(1, num_vars + 1)), 3)
        config = pipeline.PipelineConfig(
            formula=formula, second_cutoff="depth:2", two_level=two_level,
            conflict_budget=budget)
        new = [pipeline.solve_one_cube(formula, cube, config)
               for cube in cube_list]
        old = [reference_solve_one_cube(formula, cube, config)
               for cube in cube_list]
        for cube, (got, *_), (want, *_) in zip(cube_list, new, old):
            hits[got.verdict] += 1
            if got.verdict == cdcl.SAT:
                restricted = list(formula.clauses) + [(l,) for l in cube]
                assert evaluate(Formula(restricted), got.model) == SATISFIED
            if cdcl.INDETERMINATE not in (got.verdict, want.verdict):
                assert got.verdict == want.verdict
                hits["compared"] += 1
        # an all-UNSAT cube list makes these two full refutations
        assert merged_proof_accepted(formula, cube_list, new)
        assert merged_proof_accepted(formula, cube_list, old)
        hits["refuted formula"] += all(o[0].verdict == cdcl.UNSAT for o in new)
    expected = {cdcl.SAT, cdcl.UNSAT, "compared"}
    expected.add("refuted formula" if budget is None else cdcl.INDETERMINATE)
    assert not {name for name in expected if not hits[name]}, hits


def test_two_level_sat_subcube_decides_its_cube(monkeypatch):
    # the cube (-1,) re-splits on 2: the sub-cube (-1, 2) is refuted, the
    # sub-cube (-1, -2) is SAT, and the closing call on (-1,) never runs
    formula = Formula([(1, -5, 3), (4, -3, 2), (2, -4, -1), (-1, 5, 3),
                       (-1, -4, 3), (-2, 5, 6), (-6, -3, -2), (-5, -4, 6),
                       (-5, 6, -3), (-5, -3, -2), (-4, 3, 2), (5, -6, 1)], 6)
    config = pipeline.PipelineConfig(formula=formula, second_cutoff="depth:1",
                                     two_level=True)
    calls = []
    solve_incremental = cdcl.solve_incremental

    def record(formula, cube_list, **kwargs):
        results = solve_incremental(formula, cube_list, **kwargs)
        calls.append((cube_list, [r.verdict for r in results]))
        return results

    monkeypatch.setattr(cdcl, "solve_incremental", record)
    result = pipeline.solve_one_cube(formula, (-1,), config)[0]
    assert calls == [([(-1, 2), (-1, -2), (-1,)], [cdcl.UNSAT, cdcl.SAT])]
    assert result.verdict == cdcl.SAT
    assert evaluate(formula, result.model) == SATISFIED
    assert result.model[1] is False and result.model[2] is False
    assert reference_solve_one_cube(formula, (-1,), config)[0].verdict == cdcl.SAT


def test_two_level_drops_the_empty_subcube():
    # ap3(9)'s cube (5,) re-splits to the one empty sub-cube: the cube is
    # solved once, as in plain mode, not a second time as (5,) + ()
    formula = ap3_formula(9)
    plain = pipeline.PipelineConfig(formula=formula)
    two_level = pipeline.PipelineConfig(formula=formula, two_level=True,
                                        second_cutoff="depth:4")
    assert cubes(split(Formula(list(formula.clauses) + [(5,)]),
                       parse_cutoff("depth:4"))) == [()]
    got = pipeline.solve_one_cube(formula, (5,), two_level)
    want = pipeline.solve_one_cube(formula, (5,), plain)
    assert got[0] == want[0]
    assert got[1] == want[1]


def every_cube_until_sat(config):
    """(cube list, verdicts up to the first SAT cube, that cube's model as
    the run reports it) from solving every cube of the run's split on its
    own with `solve_one_cube`."""
    work, stack = bce(config.formula if config.n is None else encode(config.n))
    if config.n is not None:
        work, _ = symmetry_break(work)
    cube_list = cubes(split(work, parse_cutoff(config.cutoff), config.mode,
                            config.params, config.preselect))
    outcomes = [pipeline.solve_one_cube(work, cube, config) for cube in cube_list]
    verdicts = [o[0].verdict for o in outcomes]
    first = verdicts.index(cdcl.SAT)
    model = reconstruct(outcomes[first][0].model, stack, formula=work)
    for var in range(1, (config.n or 0) + 1):
        model.setdefault(var, False)
    return cube_list, verdicts[:first + 1], model


def random_3sat(rng, num_vars, num_clauses):
    return Formula([tuple(v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, num_vars + 1), 3))
                    for _ in range(num_clauses)], num_vars)


def sat_formulas(rng, count):
    """Random 3-SAT near the threshold, 8 to 12 variables, that brute force
    finds satisfiable: the first SAT cube is often not the first cube."""
    found = []
    while len(found) < count:
        num_vars = rng.randint(8, 12)
        formula = random_3sat(rng, num_vars, int(num_vars * rng.uniform(3.8, 5)))
        if brute_sat(formula):
            found.append(formula)
    return found


@pytest.mark.parametrize("two_level", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
def test_sat_run_stops_at_the_first_sat_cube(workers, two_level, monkeypatch):
    rng = random.Random("first-sat-%d-%s" % (workers, two_level))
    configs = [pipeline.PipelineConfig(n=300, cutoff="depth:3",
                                       second_cutoff="depth:2")]
    configs += [pipeline.PipelineConfig(formula=formula, cutoff="depth:3",
                                        second_cutoff="depth:2")
                for formula in [ap3_formula(8)] + sat_formulas(rng, 12)]
    solve_one_cube = pipeline.solve_one_cube
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve_one_cube(*args, **kwargs)

    unsolved = later_sat = 0
    for config in configs:
        config.two_level = two_level
        config.workers = workers
        cube_list, prefix, model = every_cube_until_sat(config)
        calls.clear()
        if workers == 1:
            monkeypatch.setattr(pipeline, "solve_one_cube", counted)
        result = pipeline.run(config)
        monkeypatch.undo()
        assert result.verdict == cdcl.SAT
        if config.formula is not None:
            assert brute_sat(config.formula)
            assert evaluate(config.formula, result.model) == SATISFIED
        else:
            assert check_partition(config.n, result.model) is None
        assert result.model == model
        assert result.cube_results == \
            prefix + [None] * (len(cube_list) - len(prefix))
        assert [row["index"] for row in result.report.cube_stats] == \
            list(range(len(prefix)))
        # the size histogram still counts every cube of the split
        assert result.report.cube_sizes == [len(c) for c in cube_list]
        assert sum(result.report.histogram().values()) == \
            len(result.cube_results)
        if workers == 1:
            assert calls == cube_list[:len(prefix)]
        else:
            assert not multiprocessing.active_children()
        unsolved += len(cube_list) > len(prefix)
        later_sat += len(prefix) > 1
    assert unsolved and later_sat


def random_xor3(rng, num_vars, num_equations):
    """Random parity constraints on three variables each, 4 clauses apiece.
    With one equation fewer than variables many are UNSAT, and their
    splits go past depth 1, which those of random 3-SAT small enough for
    brute force rarely do."""
    clauses = []
    for _ in range(num_equations):
        variables = rng.sample(range(1, num_vars + 1), 3)
        odd = rng.random() < 0.5
        for signs in itertools.product((1, -1), repeat=3):
            if (signs.count(-1) % 2 == 0) == odd:
                clauses.append(tuple(s * v for s, v in zip(signs, variables)))
    return Formula(clauses, num_vars)


@functools.cache
def differential_formulas(mode):
    """(formula, brute-force verdict): three UNSAT, at most one SAT."""
    rng = random.Random("tree-proof-%s" % mode)
    found = []
    while sum(not sat for _, sat in found) < 3:
        num_vars = rng.randint(18, 21)
        formula = random_xor3(rng, num_vars, num_vars - 1)
        sat = brute_sat(formula)
        if not (sat and any(known for _, known in found)):
            found.append((formula, sat))
    return found


@pytest.mark.parametrize("two_level", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", MODES)
def test_random_runs_match_brute_force(mode, workers, two_level):
    """The verdict is brute force's, and every UNSAT run's merged proof,
    closed by the split tree's tautology lines, is accepted by the gate and
    by the reference checker."""
    deep = 0
    for formula, sat in differential_formulas(mode):
        result = pipeline.run(pipeline.PipelineConfig(
            formula=formula, mode=mode, cutoff="depth:4",
            second_cutoff="depth:2", two_level=two_level, workers=workers))
        assert (result.verdict == cdcl.SAT) == sat
        if not sat:
            assert result.check
            assert reference_check_proof(formula, result.proof, refutation=True)
            deep += len(result.cube_results) > 2
    assert deep


def test_a_cube_left_unsolved_fails_the_gate(monkeypatch):
    """Conquer skips one cube while the tautology lines still close the
    whole tree: the checker, not a solve, finds the cube missing.  Unit
    propagation alone does not refute the cube, so the line that needs its
    negation is not RUP without it."""
    formula = random_3sat(random.Random(3), 40, 192)
    config = pipeline.PipelineConfig(formula=formula, mode="rnd3sat",
                                     cutoff="depth:3")
    assert pipeline.run(config).verdict == cdcl.UNSAT
    cube_list = cubes(split(formula, parse_cutoff("depth:3"), "rnd3sat"))
    skipped = cube_list[0]
    assert len(cube_list) == 3 and len(skipped) == 2
    assert not propagate_clauses(formula.clauses, skipped)[1]
    monkeypatch.setattr(pipeline, "cubes",
                        lambda tree: [c for c in cubes(tree) if c != skipped])
    with pytest.raises(RuntimeError, match="merged proof rejected"):
        pipeline.run(config)
