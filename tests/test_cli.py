import dataclasses

import pytest

from triplesat import cdcl, drat, pipeline
from triplesat.cli import build_parser, main
from triplesat.cnf import (FALSIFIED, SATISFIED, Formula, evaluate,
                           parse_dimacs, write_dimacs)
from triplesat.cubecodec import decode_tree, encode_tree
from triplesat.encoder import encode
from triplesat.lookahead import (CUTOFF, PTN_PARAMS, REFUTED, RND_PARAMS, Leaf,
                                 Node, parse_cutoff, parse_inccnf, split,
                                 write_inccnf)
from triplesat.transform import parse_stack

from conftest import REPO, ap3_formula, random_3sat, run_python


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


def test_encode_stdout(capsys):
    assert main(["encode", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert out == "p cnf 5 2\n3 4 5 0\n-3 -4 -5 0\n"


def test_encode_to_file(tmp_path):
    target = tmp_path / "f.cnf"
    assert main(["encode", "--n", "20", "--out", str(target)]) == 0
    formula = parse_dimacs(target.read_text())
    assert len(formula.clauses) == 12


def test_transform_pipeline_files(tmp_path):
    cnf = tmp_path / "f.cnf"
    main(["encode", "--n", "100", "--out", str(cnf)])
    out = tmp_path / "f.t.cnf"
    proof = tmp_path / "f.t.drat"
    stack = tmp_path / "f.stack"
    code = main(["transform", "--in", str(cnf), "--out", str(out),
                 "--proof", str(proof), "--stack", str(stack),
                 "--break-symmetry"])
    assert code == 0
    assert out.exists() and proof.exists() and stack.exists()
    reduced = parse_dimacs(out.read_text())
    assert len(reduced.clauses) < 2 * 52  # strictly fewer than encode(100)


def test_transform_prints_eliminated_count(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    main(["encode", "--n", "300", "--out", str(cnf)])
    stack = tmp_path / "f.stack"
    capsys.readouterr()
    assert main(["transform", "--in", str(cnf), "--out", str(tmp_path / "f.t.cnf"),
                 "--stack", str(stack), "--break-symmetry"]) == 0
    records = parse_stack(stack.read_text())
    assert len(records) == 200
    assert capsys.readouterr().out.splitlines() == [
        "c eliminated %d" % len(records), "c symmetry pivot 120"]


def test_split_solve_check_unsat(tmp_path, capsys):
    cnf = tmp_path / "w.cnf"
    cnf.write_text(write_dimacs(ap3_formula(9)))
    icnf = tmp_path / "w.icnf"
    tree = tmp_path / "w.ptct"
    assert main(["split", "--in", str(cnf), "--cutoff", "depth:3",
                 "--out", str(icnf), "--tree", str(tree)]) == 0
    proof = tmp_path / "w.drat"
    code = main(["solve", "--cubes", str(icnf), "--proof", str(proof)])
    assert code == 20
    capsys.readouterr()
    # the closing empty cube carries the proof to the empty clause
    assert main(["check", "--formula", str(cnf), "--proof", str(proof),
                 "--refutation"]) == 0


def test_solve_cubes_budget_on_a_split_file(tmp_path, capsys):
    """With a conflict budget, a cube that runs out no longer decides the
    run: the closing empty cube refutes the formula, so the verdict is
    UNSAT and its proof checks.  A budget every cube fits in stays UNSAT."""
    formula = ap3_formula(9)
    cnf = tmp_path / "w.cnf"
    cnf.write_text(write_dimacs(formula))
    icnf = tmp_path / "w.icnf"
    assert main(["split", "--in", str(cnf), "--cutoff", "depth:3",
                 "--out", str(icnf)]) == 0
    _, cube_list = parse_inccnf(icnf.read_bytes())
    verdicts = [r.verdict for r in cdcl.solve_incremental(
        formula, [*cube_list, ()], conflict_budget=4)]
    assert verdicts == [cdcl.INDETERMINATE, cdcl.UNSAT, cdcl.UNSAT]
    proof = tmp_path / "w.drat"
    assert main(["solve", "--cubes", str(icnf), "--conflict-budget", "4",
                 "--proof", str(proof)]) == 20
    assert "s UNSATISFIABLE" in capsys.readouterr().out
    assert main(["check", "--formula", str(cnf), "--proof", str(proof),
                 "--refutation"]) == 0
    assert main(["solve", "--cubes", str(icnf), "--conflict-budget", "50"]) == 20


def test_solve_cubes_budget_runs_out_on_the_closing_cube(tmp_path, capsys):
    # (1, 2, 3) colours a 3-AP alike, so the cube is refuted outright; the
    # closing call must refute ap3(9) itself, which takes more than one
    # conflict, so the run is UNKNOWN rather than UNSAT
    icnf = tmp_path / "one.icnf"
    icnf.write_text(write_inccnf(ap3_formula(9), [(1, 2, 3)]))
    assert main(["solve", "--cubes", str(icnf), "--conflict-budget", "1"]) == 30
    assert "s UNKNOWN" in capsys.readouterr().out


def test_solve_cubes_that_do_not_cover_the_formula(tmp_path, capsys):
    # the one cube (-2,) is refuted, yet x2 true satisfies the formula
    icnf = tmp_path / "part.icnf"
    icnf.write_text("p inccnf\n1 2 0\n-1 2 0\na -2 0\n")
    assert main(["solve", "--cubes", str(icnf)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "s SATISFIABLE" in out
    model = {abs(lit): lit > 0 for lit in map(int, out[-1].split()[1:-1])}
    assert evaluate(Formula([(1, 2), (-1, 2)]), model) == SATISFIED


def test_solve_sat_exit_code(tmp_path, capsys):
    cnf = tmp_path / "s.cnf"
    cnf.write_text(write_dimacs(ap3_formula(8)))
    assert main(["solve", "--in", str(cnf)]) == 0
    assert "s SATISFIABLE" in capsys.readouterr().out


def test_solve_indeterminate_exit_code(tmp_path, capsys):
    cnf = tmp_path / "w.cnf"
    cnf.write_text(write_dimacs(ap3_formula(9)))
    assert main(["solve", "--in", str(cnf), "--conflict-budget", "1"]) == 30
    assert "s UNKNOWN" in capsys.readouterr().out


def test_solve_prints_counters(tmp_path, capsys):
    formula = ap3_formula(9)
    cnf = tmp_path / "w.cnf"
    cnf.write_text(write_dimacs(formula))
    icnf = tmp_path / "w.icnf"
    assert main(["split", "--in", str(cnf), "--cutoff", "depth:3",
                 "--out", str(icnf)]) == 0
    cube_list = parse_inccnf(icnf.read_text())[1]
    capsys.readouterr()
    for argv, result in (
            (["--in", str(cnf)], cdcl.solve(formula)),
            # with cubes, the counts cover the whole incremental solve
            (["--cubes", str(icnf)], cdcl.solve_incremental(formula, cube_list)[-1])):
        assert main(["solve"] + argv) == 20
        assert capsys.readouterr().out.splitlines() == [
            "c conflicts %d" % result.conflicts,
            "c decisions %d" % result.decisions,
            "c propagations %d" % result.propagations,
            "s UNSATISFIABLE"]


def test_solve_cubes_without_cubes_solves_the_formula(tmp_path, capsys):
    # an inccnf file with no `a` lines is the one empty cube
    sat = tmp_path / "sat.icnf"
    sat.write_text("p inccnf\n1 2 0\n-1 2 0\n1 -2 0\n")
    assert main(["solve", "--cubes", str(sat)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "s SATISFIABLE" in out
    assert out[-1] == "v 1 2 0"
    unsat = tmp_path / "unsat.icnf"
    unsat.write_text("p inccnf\n" + FIG1_TEXT.split("\n", 1)[1])
    cnf = tmp_path / "fig1.cnf"
    cnf.write_text(FIG1_TEXT)
    proof = tmp_path / "fig1.drat"
    assert main(["solve", "--cubes", str(unsat), "--proof", str(proof)]) == 20
    assert "s UNSATISFIABLE" in capsys.readouterr().out
    assert main(["check", "--formula", str(cnf), "--proof", str(proof),
                 "--refutation"]) == 0
    assert "s VERIFIED" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [[], ["--break-symmetry"]])
def test_solve_stack_repairs_the_model_of_the_original(tmp_path, capsys,
                                                       flags):
    """`solve --stack` prints a model of the formula before `transform`:
    without the stack, unassigned eliminated variables read as false and
    the model falsifies clauses of f.cnf."""
    cnf, t_cnf, stack = (tmp_path / name
                         for name in ("f.cnf", "f.t.cnf", "f.stack"))
    assert main(["encode", "--n", "300", "--out", str(cnf)]) == 0
    assert main(["transform", "--in", str(cnf), "--out", str(t_cnf),
                 "--stack", str(stack), *flags]) == 0
    original = parse_dimacs(cnf.read_text())
    models = []
    for argv in ([], ["--stack", str(stack)]):
        capsys.readouterr()
        assert main(["solve", "--in", str(t_cnf), *argv]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2] == "s SATISFIABLE"
        models.append({abs(lit): lit > 0
                       for lit in map(int, out[-1].split()[1:-1])})
    unrepaired, repaired = models
    unrepaired = {**dict.fromkeys(range(1, original.num_vars + 1), False),
                  **unrepaired}
    assert evaluate(original, unrepaired) == FALSIFIED
    assert evaluate(original, repaired) == SATISFIED


def test_solve_stack_rejects_a_model_it_cannot_repair(tmp_path, capsys):
    # the record's blocking literal 1 falsifies the solved formula's (-1)
    cnf, stack = tmp_path / "f.cnf", tmp_path / "f.stack"
    cnf.write_text("p cnf 2 2\n-1 0\n-1 2 0\n")
    stack.write_text("1 1 0\n")
    assert main(["solve", "--in", str(cnf), "--stack", str(stack)]) == 1
    assert "falsifies a clause" in capsys.readouterr().err


def test_non_ascii_input_is_an_error_with_its_line(tmp_path, capsys):
    cnf = tmp_path / "bad.cnf"
    cnf.write_bytes(b"p cnf 2 1\n1 2 \xff 0\n")
    icnf = tmp_path / "bad.icnf"
    icnf.write_bytes(b"p inccnf\n1 2 0\n\na \xff 0\n")
    good = tmp_path / "fig1.cnf"
    good.write_text(FIG1_TEXT)
    drat_file = tmp_path / "bad.drat"
    drat_file.write_bytes(b"\xff 0\n")
    for argv, line in ((["solve", "--in", str(cnf)], 2),
                       (["solve", "--cubes", str(icnf)], 4),
                       (["check", "--formula", str(good), "--proof",
                         str(drat_file)], 1)):
        assert main(argv) == 1
        assert "error: line %d: non-ASCII byte 0x" % line in capsys.readouterr().err


def test_check_fig1(tmp_path, capsys):
    cnf = tmp_path / "fig1.cnf"
    cnf.write_text(FIG1_TEXT)
    proof = tmp_path / "fig1.drat"
    proof.write_text("-1 0\nd -1 2 4 0\n2 0\n0\n")
    assert main(["check", "--formula", str(cnf), "--proof", str(proof),
                 "--refutation"]) == 0
    bare = tmp_path / "bare.drat"
    bare.write_text("0\n")
    assert main(["check", "--formula", str(cnf), "--proof", str(bare)]) == 1


def test_check_accepts_a_comment_holding_a_form_feed(tmp_path, capsys):
    cnf = tmp_path / "fig1.cnf"
    cnf.write_text(FIG1_TEXT)
    proof = tmp_path / "fig1.drat"
    proof.write_text("c page\x0cbreak\n-1 0\nd -1 2 4 0\n2 0\n0\n")
    assert main(["check", "--formula", str(cnf), "--proof", str(proof),
                 "--refutation"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "s VERIFIED"
    cnf.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    proof.write_text("c page\x0cbreak\n2 3 0\n-2 0\n")
    assert main(["check", "--formula", str(cnf), "--proof", str(proof)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "s NOT VERIFIED (line 3: clause (-2,) is not RAT on pivot -2)")


def test_check_prints_counters(tmp_path, capsys):
    cnf = tmp_path / "fig1.cnf"
    cnf.write_text(FIG1_TEXT)
    proof = tmp_path / "fig1.drat"
    proof.write_text("-1 0\nd -1 2 4 0\n2 0\n0\n")
    assert main(["check", "--formula", str(cnf), "--proof", str(proof),
                 "--refutation"]) == 0
    lines = capsys.readouterr().out.splitlines()
    counters = dict(line.split()[1:] for line in lines[:-1])
    assert set(counters) == {"lemmas", "rup_calls", "rat_partner_checks",
                             "rebuilds", "propagations"}
    assert counters["lemmas"] == "3"
    assert int(counters["propagations"]) > 0
    assert lines[-1] == "s VERIFIED"


def test_check_reports_proof_file_lines(tmp_path, capsys):
    """Rejections and warnings name the line of the proof file, counting
    comment and blank lines, not the index of the proof step."""
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    rejected = tmp_path / "rejected.drat"
    rejected.write_text("c first\nc second\n2 3 0\n-2 0\n")
    assert main(["check", "--formula", str(cnf), "--proof", str(rejected)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "s NOT VERIFIED (line 4: clause (-2,) is not RAT on pivot -2)"
    absent = tmp_path / "absent.drat"
    absent.write_text("c x\n\n2 3 0\nd 7 0\n")
    assert main(["check", "--formula", str(cnf), "--proof", str(absent)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "c warning line 4: deleted clause (7,) not present"
    assert out[-1] == "s VERIFIED"
    # a refutation missing its empty clause names no line
    assert main(["check", "--formula", str(cnf), "--proof", str(absent),
                 "--refutation"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "s NOT VERIFIED (line None: refutation does not add the empty clause)")


def test_pack_unpack_round_trip(tmp_path, capsys):
    """`split --tree` writes the .ptct certificate: `unpack-cubes` gives back
    the cube file `split --out` wrote, and the file decodes to split's tree."""
    formula = encode(60)
    cnf = tmp_path / "f.cnf"
    cnf.write_text(write_dimacs(formula))
    icnf = tmp_path / "f.icnf"
    packed = tmp_path / "f.ptct"
    assert main(["split", "--in", str(cnf), "--cutoff", "depth:3",
                 "--out", str(icnf), "--tree", str(packed)]) == 0
    again = tmp_path / "f2.icnf"
    assert main(["unpack-cubes", "--in", str(packed), "--formula", str(cnf),
                 "--out", str(again)]) == 0
    assert again.read_bytes() == icnf.read_bytes()
    values = pipeline.default_config()
    tree = split(formula, parse_cutoff("depth:3"), values["mode"],
                 pipeline.config_params(values), values["preselect"])
    assert decode_tree(packed.read_bytes()) == tree


@pytest.mark.parametrize("corrupt, message", [
    (lambda data: b"XXXX" + data[4:], "bad magic"),
    (lambda data: data[:-1], "truncated stream"),
    (lambda data: data + b"\x00", "1 trailing bytes")])
def test_unpack_cubes_rejects_a_corrupt_tree(tmp_path, capsys, corrupt,
                                             message):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(FIG1_TEXT)
    packed = tmp_path / "f.ptct"
    packed.write_bytes(corrupt(encode_tree(Node(3, Leaf(CUTOFF),
                                                Leaf(REFUTED)))))
    out = tmp_path / "f.icnf"
    assert main(["unpack-cubes", "--in", str(packed), "--formula", str(cnf),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


def test_pipeline_cli(tmp_path, capsys):
    outdir = tmp_path / "run"
    code = main(["pipeline", "--n", "300", "--cutoff", "depth:3",
                 "--output-dir", str(outdir)])
    assert code == 0
    # the first cube is SAT, so the other seven go unsolved; no proof is
    # checked, so no check counters are printed
    out = capsys.readouterr().out.splitlines()
    assert "c cubes: 8, solved: 1" in out
    assert not any(line.startswith("c check ") for line in out)
    assert len((outdir / "cubes.csv").read_text().splitlines()) == 2
    assert (outdir / "cubes.csv").exists()
    # the histogram counts all eight cubes, solved or not
    rows = (outdir / "histogram.csv").read_text().splitlines()[1:]
    assert sum(int(row.split(",")[1]) for row in rows) == 8


def test_pipeline_cli_unsat(tmp_path, capsys):
    cnf = tmp_path / "w.cnf"
    cnf.write_text(write_dimacs(ap3_formula(9)))
    outdir = tmp_path / "run"
    code = main(["pipeline", "--in", str(cnf), "--cutoff", "depth:3",
                 "--output-dir", str(outdir)])
    assert code == 20
    out = capsys.readouterr().out.splitlines()
    counters = {line.split()[2]: int(line.split()[3]) for line in out
                if line.startswith("c check ")}
    # the merged check's counters; every addition is hinted or searched
    assert set(counters) == {"lemmas", "rup_calls", "rat_partner_checks",
                             "rebuilds", "propagations", "hinted", "searched"}
    assert counters["hinted"] + counters["searched"] == counters["lemmas"] > 0
    assert counters["hinted"] > counters["searched"]
    assert (outdir / "merged.drat").exists()
    assert main(["check", "--formula", str(cnf),
                 "--proof", str(outdir / "merged.drat"),
                 "--refutation"]) == 0


def test_readme_staged_walk_through_verifies(tmp_path, capsys):
    """README's staged commands on a small UNSAT formula: the solve proof
    leans on the symmetry unit, so it is rejected alone and verifies after
    the transform proof, under the pivot transform printed."""
    cnf, t_cnf = tmp_path / "f.cnf", tmp_path / "f.t.cnf"
    t_proof, icnf, proof = (tmp_path / name for name in
                            ("f.t.drat", "f.icnf", "f.drat"))
    cnf.write_text(write_dimacs(ap3_formula(9)))
    assert main(["transform", "--in", str(cnf), "--out", str(t_cnf),
                 "--proof", str(t_proof), "--break-symmetry"]) == 0
    pivot = capsys.readouterr().out.split("c symmetry pivot ")[1].split()[0]
    assert main(["split", "--in", str(t_cnf), "--cutoff", "depth:2",
                 "--out", str(icnf)]) == 0
    assert main(["solve", "--cubes", str(icnf), "--proof", str(proof)]) == 20
    assert main(["check", "--formula", str(cnf), "--proof", str(proof),
                 "--refutation"]) == 1
    both = tmp_path / "f.all.drat"
    both.write_text(t_proof.read_text() + proof.read_text())
    capsys.readouterr()
    assert main(["check", "--formula", str(cnf), "--proof", str(both),
                 "--refutation", "--symmetry-pivot", pivot]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "s VERIFIED"


def cube_rows_without_times(text):
    """The rows of a cubes.csv, without split_time and solve_time."""
    return [row[:2] + row[4:] for row in
            (line.split(",") for line in text.splitlines())]


def test_pipeline_cli_two_level(tmp_path, capsys):
    """`--second-cutoff`, or a config file's second_cutoff, runs the
    two-level conquer `pipeline.run` runs with that cutoff: the same merged
    proof, and the same cube rows but for their times."""
    formula = random_3sat(60, 288, 11)
    cnf, cfg = tmp_path / "r.cnf", tmp_path / "two.cfg"
    cnf.write_text(write_dimacs(formula))
    cfg.write_text("mode = rnd3sat\ncutoff = depth:1\nsecond_cutoff = depth:2\n")
    runs = {second_cutoff: pipeline.run(pipeline.PipelineConfig(
        formula=formula, mode="rnd3sat", cutoff="depth:1",
        second_cutoff=second_cutoff)) for second_cutoff in (None, "depth:2")}
    # the re-split changes the cubes' searches, so the outputs tell the
    # two modes apart
    assert runs[None].proof != runs["depth:2"].proof
    want = runs["depth:2"]
    want_rows = cube_rows_without_times(pipeline.per_cube_csv(want.report))
    for flags in (["--mode", "rnd3sat", "--cutoff", "depth:1",
                   "--second-cutoff", "depth:2"], ["--config", str(cfg)]):
        outdir = tmp_path / flags[0].strip("-")
        assert main(["pipeline", "--in", str(cnf), *flags,
                     "--output-dir", str(outdir)]) == 20
        assert (outdir / "merged.drat").read_text() == drat.write_drat(want.proof)
        assert cube_rows_without_times((outdir / "cubes.csv").read_text()) \
            == want_rows


def test_pipeline_cli_prints_the_symmetry_pivot(tmp_path, capsys):
    # the pivot transform prints for encode(300); a DIMACS input is not
    # symmetry-broken, so its run prints none
    assert main(["pipeline", "--n", "300", "--cutoff", "depth:3"]) == 0
    assert "c symmetry pivot 120" in capsys.readouterr().out.splitlines()
    cnf = tmp_path / "w.cnf"
    cnf.write_text(write_dimacs(ap3_formula(9)))
    assert main(["pipeline", "--in", str(cnf), "--cutoff", "depth:3"]) == 20
    assert "symmetry pivot" not in capsys.readouterr().out


def test_pipeline_cli_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cutoff = depth:2\nmode = count_bin\n")
    assert main(["pipeline", "--n", "30", "--config", str(cfg)]) == 0


def test_split_cli_config(tmp_path, capsys):
    cnf = tmp_path / "w.cnf"
    cnf.write_text(write_dimacs(ap3_formula(9)))
    cfg = tmp_path / "split.cfg"
    cfg.write_text("cutoff = depth:0\n")
    argv = ["split", "--in", str(cnf), "--out", str(tmp_path / "w.icnf")]
    assert main(argv) == 0
    assert main(argv + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines() == ["c 2 cubes", "c 1 cubes"]


def test_cli_import_leaves_numpy_out(tmp_path):
    done = run_python(["-c", "import sys, triplesat.cli; "
                             "print('numpy' in sys.modules)"], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_pipeline_import_leaves_the_worker_pool_out(tmp_path):
    # only workers > 1 needs concurrent.futures; it loads on first use
    done = run_python(["-c", "import sys, triplesat.pipeline; "
                             "print('concurrent.futures' in sys.modules)"],
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_split_cli_rejects_bad_preselect(tmp_path, capsys):
    cnf = tmp_path / "f60.cnf"
    assert main(["encode", "--n", "60", "--out", str(cnf)]) == 0
    out = tmp_path / "f60.icnf"
    # "nan" is not decimal notation: argparse rejects it (exit 2), see
    # test_cli_real_flags_are_decimal_notation
    for value in ("1.5", "0", "-1"):
        assert main(["split", "--in", str(cnf), "--cutoff", "depth:2",
                     "--preselect", value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    for shown in ("1.5", "0.0", "-1.0"):
        assert "error: preselect must be in (0, 1], got %s" % shown in err
    assert not out.exists()


def test_pipeline_cli_config_bad_number_names_key_and_line(tmp_path,
                                                           captured_config,
                                                           capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = ptn3sat\nworkers = x\n")
    assert main(["pipeline", "--n", "40", "--config", str(cfg)]) == 1
    cfg.write_text("# heuristic\nalpha = 2,5\n")
    assert main(["pipeline", "--n", "40", "--config", str(cfg)]) == 1
    assert not captured_config
    err = capsys.readouterr().err
    assert "error: line 2: workers 'x' is not a valid integer" in err
    assert "error: line 2: alpha '2,5' is not a valid real" in err


def test_pipeline_cli_config_repeated_key_is_an_error(tmp_path, captured_config,
                                                     capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = rnd3sat\nmode = ptn3sat\n")
    assert main(["pipeline", "--n", "40", "--config", str(cfg)]) == 1
    assert not captured_config
    assert "error: line 2: key 'mode' given twice" in capsys.readouterr().err


def test_pipeline_cli_config_typo_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = ptn3sat\ncutof = depth:1\n")
    assert main(["pipeline", "--n", "40", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "line 2: unknown key 'cutof'" in captured.err
    assert "SATISFIABLE" not in captured.out


def test_pipeline_cli_rejects_bad_cutoff(captured_config, capsys):
    assert main(["pipeline", "--n", "30", "--second-cutoff", "depth:x"]) == 1
    assert not captured_config
    assert ("second_cutoff: cutoff 'depth:x': 'x' is not an integer"
            in capsys.readouterr().err)


def test_split_cli_rejects_bad_cutoff(tmp_path, capsys):
    cnf = tmp_path / "w.cnf"
    cnf.write_text(write_dimacs(ap3_formula(9)))
    out = tmp_path / "w.icnf"
    assert main(["split", "--in", str(cnf), "--cutoff", "depth:x",
                 "--out", str(out)]) == 1
    assert "cutoff 'depth:x': 'x' is not an integer" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_cli_rejects_unknown_mode(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = nosuchmode\ncutoff = depth:2\n")
    assert main(["pipeline", "--n", "30", "--config", str(cfg)]) == 1
    assert main(["pipeline", "--n", "30", "--mode", "nosuchmode"]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("unknown mode 'nosuchmode'") == 2
    assert "SATISFIABLE" not in captured.out


def test_split_cli_rejects_unknown_mode(tmp_path, capsys):
    cnf = tmp_path / "w.cnf"
    cnf.write_text(write_dimacs(ap3_formula(9)))
    out = tmp_path / "w.icnf"
    assert main(["split", "--in", str(cnf), "--mode", "nosuchmode",
                 "--cutoff", "depth:0", "--out", str(out)]) == 1
    assert "unknown mode 'nosuchmode'" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def captured_config(monkeypatch):
    """Run `triplesat pipeline` up to the PipelineConfig it builds."""
    seen = []

    def fake_run(config):
        seen.append(config)
        raise RuntimeError("stopped before running")

    monkeypatch.setattr(pipeline, "run", fake_run)
    return seen


def test_pipeline_cli_mode_picks_its_parameters(captured_config, capsys):
    assert main(["pipeline", "--n", "30", "--mode", "rnd3sat"]) == 1
    assert captured_config[0].params == RND_PARAMS
    assert captured_config[0].cutoff == "bin:3000"


def test_pipeline_cli_config_overrides_one_parameter(tmp_path, captured_config,
                                                     capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 2.5\n")
    assert main(["pipeline", "--n", "30", "--config", str(cfg)]) == 1
    assert captured_config[0].params == dataclasses.replace(PTN_PARAMS, alpha=2.5)


@pytest.mark.parametrize("flags", [["pipeline", "--n", "30", "--workers", "1_0"],
                                   ["split", "--in", "f.cnf", "--iterations",
                                    "+4"],
                                   ["encode", "--n", "1_0"],
                                   ["encode", "--n", "١٠"],
                                   ["pipeline", "--n", "+5"],
                                   ["pipeline", "--n", "30", "--conflict-budget",
                                    "1_0"],
                                   ["solve", "--in", "f.cnf", "--conflict-budget",
                                    "+5"],
                                   ["backbone", "--in", "f.cnf",
                                    "--conflict-budget", "٣"],
                                   ["check", "--formula", "f.cnf", "--proof",
                                    "p.drat", "--symmetry-pivot", "1_0"]])
def test_cli_integer_flags_are_dimacs_integers(flags, captured_config, capsys):
    # argparse's `type=int` read "1_0" and "١٠" as 10, "+4" as 4
    with pytest.raises(SystemExit) as exc:
        main(flags)
    assert exc.value.code == 2
    assert not captured_config
    assert "invalid integer value: '%s'" % flags[-1] in capsys.readouterr().err


def test_solve_cli_rejects_zero_conflict_budget(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(FIG1_TEXT)
    assert main(["solve", "--in", str(cnf), "--conflict-budget", "0"]) == 1
    assert "error: conflict budget must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["split", "--in", "f.cnf", "--alpha", "1_5"],
                                   ["split", "--in", "f.cnf", "--preselect", "١"],
                                   ["split", "--in", "f.cnf", "--gamma", "nan"],
                                   ["split", "--in", "f.cnf", "--beta", "1e"]])
def test_cli_real_flags_are_decimal_notation(flags, capsys):
    # argparse's `type=float` read "1_5" as 15.0 and "١" as 1.0
    with pytest.raises(SystemExit) as exc:
        main(flags)
    assert exc.value.code == 2
    assert "invalid real value: '%s'" % flags[-1] in capsys.readouterr().err


def test_cli_real_flags_take_decimal_notation():
    parser = build_parser()
    for value, want in (("0.5", 0.5), (".5", 0.5), ("8", 8.0), ("1e-3", 0.001)):
        for flag in ("--preselect", "--alpha", "--beta", "--gamma"):
            args = parser.parse_args(["split", "--in", "f.cnf", flag, value])
            assert getattr(args, flag[2:]) == want


@pytest.mark.parametrize("flags", [["solve"],
                                   ["solve", "--in", "f.cnf", "--cubes", "f.icnf"],
                                   ["pipeline", "--n", "30", "--bce"],
                                   ["pipeline"],
                                   ["pipeline", "--n", "30", "--in", "f.cnf"],
                                   ["pipeline", "--n", "30", "--two-level"],
                                   ["check", "--formula", "f.cnf", "--proof",
                                    "f.drat", "--any-pivot"]],
                         ids=["solve-no-input", "solve-two-inputs", "pipeline-bce",
                              "pipeline-no-input", "pipeline-two-inputs",
                              "pipeline-two-level", "check-any-pivot"])
def test_cli_usage_errors_exit_2(flags, captured_config, capsys):
    """solve reads exactly one of --in and --cubes, pipeline exactly one of
    --n and --in; BCE takes no switch, and neither does two-level conquer,
    which a second cutoff turns on; a RAT pivot is the first literal."""
    with pytest.raises(SystemExit) as exc:
        main(flags)
    assert exc.value.code == 2
    assert not captured_config
    assert "usage:" in capsys.readouterr().err


def test_pipeline_cli_rejects_zero_workers(captured_config, capsys):
    assert main(["pipeline", "--n", "30", "--workers", "0"]) == 1
    assert not captured_config
    assert "worker count" in capsys.readouterr().err


def test_backbone_cli(tmp_path, capsys):
    cnf = tmp_path / "b.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n1 -2 0\n")
    assert main(["backbone", "--in", str(cnf)]) == 0
    out = capsys.readouterr().out
    assert "1" in out.splitlines()[0]
    assert "backbone size 1" in out


def test_backbone_cli_reports_a_spent_budget(tmp_path, capsys):
    cnf = tmp_path / "b.cnf"
    cnf.write_text(write_dimacs(random_3sat(60, 246, 0)))
    assert main(["backbone", "--in", str(cnf), "--conflict-budget", "3"]) == 1
    assert capsys.readouterr().err == \
        "error: conflict budget exhausted during backbone search\n"


def test_encode_cli_rejects_n_below_one(capsys):
    assert main(["encode", "--n", "0"]) == 1
    assert capsys.readouterr().err == "error: n must be positive\n"


def test_error_exit_code(tmp_path, capsys):
    assert main(["solve", "--in", str(tmp_path / "missing.cnf")]) == 1
    assert main(["transform", "--in", str(tmp_path / "missing.cnf")]) == 1


def readme_cli_commands():
    """Each `triplesat ...` line of README's CLI block, continuations joined,
    as an argument list without the program name."""
    text = (REPO / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    return [command.split()[1:] for command in commands
            if command.startswith("triplesat ")]


def test_readme_cli_examples_parse():
    commands = readme_cli_commands()
    assert {command[0] for command in commands} == {
        "encode", "transform", "split", "solve", "check", "unpack-cubes",
        "pipeline", "backbone"}
    parser = build_parser()
    for command in commands:
        args = parser.parse_args(command)
        assert args.command == command[0]
