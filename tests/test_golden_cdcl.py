"""Pinned CDCL searches: a faster solver must take exactly the same steps.

The values were recorded with the dict-based solver, and the
`solve_one_cube` pins again when every cube came to be solved under
assumptions by `cdcl.solve_incremental`.  Each pin holds a
call's (verdict, conflicts, decisions, propagations) and the first 16 hex
digits of the sha256 of `write_drat` of its proof, so any change to the
watch order, the decision order, conflict analysis or the emitted lemmas
shows up here.  `test_solve_incremental_rnd_depth3` solves the cubes of a
depth:3 split, so it was pinned again when split's trees changed.
"""

import hashlib

from triplesat import cdcl, pipeline
from triplesat.drat import write_drat
from triplesat.encoder import encode
from triplesat.lookahead import cubes, parse_cutoff, split
from triplesat.transform import bce, symmetry_break

from conftest import ap3_formula, random_3sat


def proof_digest(proof):
    return hashlib.sha256(write_drat(proof).encode()).hexdigest()[:16]


def counters(result):
    return (result.verdict, result.conflicts, result.decisions,
            result.propagations)


def solve_cubes(formula, cutoff, **settings):
    """(counters, proof digest) of `solve_one_cube` on each cube of the split."""
    config = pipeline.PipelineConfig(formula=formula, cutoff=cutoff, **settings)
    tree = split(formula, parse_cutoff(cutoff), config.mode, config.params,
                 config.preselect)
    out = []
    for cube in cubes(tree):
        result, proof, *_ = pipeline.solve_one_cube(formula, cube, config)
        out.append((counters(result), proof_digest(proof)))
    return out


def test_solve_one_cube_rnd_depth1():
    assert solve_cubes(random_3sat(130, 624, 11), "depth:1") == [
        (("UNSAT", 569, 674, 15342), "101aead87967ec10"),
        (("UNSAT", 630, 778, 15711), "7d3541cb73b6b3ad")]


def test_solve_one_cube_ap3_depth3():
    assert solve_cubes(ap3_formula(9), "depth:3") == [
        (("UNSAT", 4, 3, 21), "00593d5f0fd20f64"),
        (("UNSAT", 4, 4, 23), "db6745b59c814194")]


def test_solve_one_cube_two_level():
    # ap3(9)'s cubes re-split to the one empty sub-cube, which is dropped,
    # so each cube is solved once, as in plain mode at depth:3; the rnd
    # cubes re-split to four sub-cubes each
    assert solve_cubes(ap3_formula(9), "depth:2",
                       second_cutoff="depth:4") == [
        (("UNSAT", 4, 3, 21), "00593d5f0fd20f64"),
        (("UNSAT", 4, 4, 23), "db6745b59c814194")]
    assert solve_cubes(random_3sat(130, 624, 11), "depth:1", mode="rnd3sat",
                       second_cutoff="depth:2") == [
        (("UNSAT", 262, 318, 6736), "71ce71c3af1db404"),
        (("UNSAT", 541, 644, 14831), "198c548578351ae1")]


def test_solve_one_cube_ptn7825_budget():
    # the paper-sized formula (14673 clauses after BCE and symmetry
    # breaking) on both sides of one root split, 300 conflicts each:
    # long learned clauses and the full watch lists of the real instance
    formula, _ = bce(encode(7825))
    formula, _ = symmetry_break(formula)
    config = pipeline.PipelineConfig(formula=formula, conflict_budget=300)
    out = []
    for cube in ((3900,), (-3900,)):
        result, proof, *_ = pipeline.solve_one_cube(formula, cube, config)
        out.append((counters(result), proof_digest(proof)))
    assert out == [
        (("indeterminate", 300, 666, 53151), "729916b617a22b0b"),
        (("indeterminate", 300, 747, 51083), "3065a66e3d14f96b")]


def test_solve_incremental_rnd_depth3():
    formula = random_3sat(130, 624, 11)
    proof = []
    results = cdcl.solve_incremental(
        formula, cubes(split(formula, parse_cutoff("depth:3"))), proof=proof)
    assert [counters(r) for r in results] == [
        ("UNSAT", 184, 222, 4480), ("UNSAT", 300, 359, 7630),
        ("UNSAT", 372, 434, 9679), ("UNSAT", 430, 500, 11447),
        ("UNSAT", 612, 725, 16183), ("UNSAT", 697, 817, 18400),
        ("UNSAT", 761, 899, 20014), ("UNSAT", 831, 974, 21998)]
    assert proof_digest(proof) == "4af49dcc50a6afec"


def test_backbone_search(monkeypatch):
    calls = []
    original = cdcl.Solver.solve

    def record(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        calls.append(counters(result))
        return result

    monkeypatch.setattr(cdcl.Solver, "solve", record)
    proof = []
    found = cdcl.backbone(random_3sat(40, 160, 2), proof=proof)
    assert sorted(found, key=abs) == [
        -1, 2, 3, 4, -5, -6, -7, -8, 9, 10, 11, 12, -13, 14, 15, 16, -17, 18,
        19, 20, -21, -23, -24, -25, 26, -27, -28, 29, -30, 31, 32, 33, -34,
        -35, -36, -37, -38, 39, 40]
    assert calls == (
        [("SAT", 45, 54, 538), ("UNSAT", 80, 89, 988), ("UNSAT", 80, 89, 988),
         ("UNSAT", 84, 92, 1037), ("UNSAT", 85, 92, 1047),
         ("UNSAT", 87, 93, 1084)]
        + [("UNSAT", 90, 95, 1147)] * 16
        + [("SAT", 90, 95, 1148)]
        + [("UNSAT", 90, 95, 1148)] * 18)
    assert proof_digest(proof) == "e5918c8ac64bd5de"


def test_activity_rescale_keeps_search(monkeypatch):
    # a decay of 0.5 doubles the bump every conflict, so the 1e100 rescale
    # runs many times during this solve
    monkeypatch.setattr(cdcl, "VAR_DECAY", 0.5)
    proof = []
    solver = cdcl.Solver(random_3sat(130, 624, 11), proof=proof)
    assert counters(solver.solve()) == ("UNSAT", 2775, 3395, 70526)
    assert solver.var_inc < 1e50
    assert proof_digest(proof) == "08679c079922471f"


def test_models_in_trail_order():
    for formula, pinned, digest in (
            (ap3_formula(8), ("SAT", 1, 3, 12), "31ac4136ca7f0ad0"),
            (random_3sat(40, 160, 2), ("SAT", 45, 54, 538), "37552dbe17cf5833")):
        result = cdcl.solve(formula)
        assert counters(result) == pinned
        items = repr(list(result.model.items())).encode()
        assert hashlib.sha256(items).hexdigest()[:16] == digest
