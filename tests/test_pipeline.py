import pytest

from triplesat import cdcl, drat, pipeline
from triplesat.cnf import Formula, SATISFIED, evaluate
from triplesat.encoder import check_partition
from triplesat.lookahead import cubes, parse_cutoff, split

from conftest import (FIG1_CLAUSES, FIG3_CUBES, ap3_formula, brute_sat,
                      random_formula)


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
    assert pipeline.PipelineConfig(n=60, cutoff=parse_cutoff("depth:2"))


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nalpha = 2.5\nmode=rnd3sat\n\n")
    assert pipeline.load_config(str(path)) == {"alpha": "2.5",
                                               "mode": "rnd3sat"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense\n")
    with pytest.raises(ValueError):
        pipeline.load_config(str(bad))
    typo = tmp_path / "typo.cfg"
    typo.write_text("# comment\nmode = ptn3sat\ncutof = depth:1\n")
    with pytest.raises(ValueError, match="line 3: unknown key 'cutof'"):
        pipeline.load_config(str(typo))


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


def test_run_generic_with_bce():
    result = pipeline.run(pipeline.PipelineConfig(formula=ap3_formula(9),
                                                  cutoff="depth:3",
                                                  apply_bce=True))
    assert result.verdict == cdcl.UNSAT


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
    report = pipeline.PhaseReport()
    for index, cube in enumerate(FIG3_CUBES):
        report.cube_stats.append({"index": index, "size": len(cube),
                                  "split_time": 0.0, "solve_time": 0.0,
                                  "conflicts": 0, "decisions": 0,
                                  "propagations": 0})
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
