"""Acceptance criteria, one test per criterion.

Each test enforces the stated tolerance or runtime budget; pytest's
PASSED/FAILED line per test is the per-criterion verdict.
"""

import random
import time

import pytest

from triplesat import cdcl, drat, pipeline
from triplesat.cnf import Formula, SATISFIED, evaluate
from triplesat.cubecodec import decode_tree, encode_tree
from triplesat.encoder import (arithmetic_witness_check, check_partition,
                               encode, enumerate_triples, occurrence_stats)
from triplesat.lookahead import (cubes, leaf_cubes, parse_cutoff, split,
                                 write_inccnf, MODE_BIN, MODE_PTN, MODE_RND,
                                 MODE_VAR)
from triplesat.transform import bce

from conftest import (FIG1_CLAUSES, FIG1_PROOF, FIG3_CUBES, ap3_formula,
                      brute_force, brute_sat, build_fig3_tree, check_rat,
                      cubes_cover_all, negate_cubes, random_formula,
                      random_tree)


def test_criterion_01_encoder_counts():
    start = time.perf_counter()
    f7824 = encode(7824)
    f7825 = encode(7825)
    elapsed = time.perf_counter() - start
    occ4, _, _ = occurrence_stats(f7824)
    occ5, _, _ = occurrence_stats(f7825)
    assert (occ4, len(f7824.clauses)) == (6492, 18930)
    assert (occ5, len(f7825.clauses)) == (6494, 18944)
    assert elapsed < 10.0, "encoding took %.1fs (budget 10s)" % elapsed


def test_criterion_02_bce_counts():
    start = time.perf_counter()
    r7824, _ = bce(encode(7824))
    r7825, _ = bce(encode(7825))
    elapsed = time.perf_counter() - start
    occ4, _, _ = occurrence_stats(r7824)
    occ5, _, _ = occurrence_stats(r7825)
    assert (occ4, len(r7824.clauses)) == (3740, 14652)
    assert (occ5, len(r7825.clauses)) == (3745, 14672)
    assert elapsed < 60.0, "BCE took %.1fs (budget 60s)" % elapsed


def test_criterion_03_symmetry_pivot():
    reduced, _ = bce(encode(7825))
    _, _, pivot = occurrence_stats(reduced)
    assert pivot == 2520


def test_criterion_04_fig1_fixture():
    formula = Formula(list(FIG1_CLAUSES), 4)
    assert drat.check_proof(formula, FIG1_PROOF, refutation=True)
    assert not drat.check_proof(formula, [("a", ())])


def test_criterion_05_backbone_arithmetic():
    assert 5180 ** 2 + 5865 ** 2 == 7825 ** 2
    assert 625 ** 2 + 7800 ** 2 == 7825 ** 2
    triples = set(enumerate_triples(7825))
    assert (5180, 5865, 7825) in triples
    assert (625, 7800, 7825) in triples
    assert arithmetic_witness_check()


def test_criterion_06_oracle_equivalence():
    rng = random.Random(601)
    start = time.perf_counter()
    mismatches = 0
    for i in range(1000):
        max_vars = 20 if i % 5 == 0 else 10
        formula = random_formula(rng, max_vars=max_vars)
        proof = []
        verdict = cdcl.solve(formula, proof=proof).verdict
        expected = brute_sat(formula)
        if (verdict == cdcl.SAT) != expected:
            mismatches += 1
            continue
        if verdict == cdcl.UNSAT:
            assert drat.check_proof(formula, proof, refutation=True)
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 300.0, "oracle run took %.1fs (budget 5min)" % elapsed


def test_criterion_07_rat_soundness():
    rng = random.Random(701)
    collected = 0
    while collected < 500:
        formula = random_formula(rng, max_vars=12)
        width = rng.randint(1, 3)
        clause = tuple(v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, 13), width))
        if not check_rat(formula, clause, clause[0]):
            continue
        collected += 1
        before = brute_sat(formula)
        after = brute_sat(Formula(list(formula.clauses) + [clause]))
        assert before == after, \
            "RAT addition changed satisfiability: %s + %s" % (formula, clause)
    assert collected == 500


def test_criterion_08_split_tautology():
    rng = random.Random(801)
    corpus = [encode(30), encode(60), encode(100),
              ap3_formula(8), ap3_formula(9), ap3_formula(12)]
    for _ in range(30):
        corpus.append(random_formula(rng, max_vars=10, allow_units=False))
    failures = 0
    for formula in corpus:
        for spec in ("depth:3", "depth:5", "bin:20"):
            tree = split(formula, parse_cutoff(spec))
            cube_list = cubes(tree)
            decision_vars = {abs(l) for c in cube_list for l in c}
            if len(decision_vars) <= 20:
                # exactly "negate_cubes(cube_list) is UNSAT"
                if not cubes_cover_all(cube_list):
                    failures += 1
            else:
                negated = negate_cubes(cube_list)
                proof = []
                verdict = cdcl.solve(negated, proof=proof).verdict
                if verdict != cdcl.UNSAT or \
                        not drat.check_proof(negated, proof, refutation=True):
                    failures += 1
    assert failures == 0


def test_criterion_09_end_to_end_unsat_pipeline():
    start = time.perf_counter()
    f9 = ap3_formula(9)
    f8 = ap3_formula(8)
    assert not brute_sat(f9)
    assert brute_sat(f8)
    unsat = pipeline.run(pipeline.PipelineConfig(formula=f9, cutoff="depth:3"))
    assert unsat.verdict == cdcl.UNSAT
    assert drat.check_proof(f9, unsat.proof, refutation=True)
    sat = pipeline.run(pipeline.PipelineConfig(formula=f8, cutoff="depth:3"))
    assert sat.verdict == cdcl.SAT
    assert evaluate(f8, sat.model) == SATISFIED
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, "pipeline pair took %.1fs (budget 10s)" % elapsed


def test_criterion_10_sat_at_reduced_scale():
    start = time.perf_counter()
    for n in (1000, 2000):
        result = pipeline.run(pipeline.PipelineConfig(n=n, cutoff="depth:4"))
        assert result.verdict == cdcl.SAT
        model = dict(result.model)
        for var in range(1, n + 1):
            model.setdefault(var, False)
        assert check_partition(n, model) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, "reduced-scale runs took %.1fs (budget 10min)" % elapsed


def test_criterion_11_heuristic_mode_coverage():
    corpus = [("ap3-9", ap3_formula(9)), ("ap3-8", ap3_formula(8)),
              ("ptn-100", encode(100))]
    rows = []
    for name, formula in corpus:
        verdicts = {}
        for mode in (MODE_PTN, MODE_RND, MODE_BIN, MODE_VAR):
            start = time.perf_counter()
            result = pipeline.run(pipeline.PipelineConfig(
                formula=formula, cutoff="depth:3", mode=mode))
            elapsed = time.perf_counter() - start
            verdicts[mode] = result.verdict
            rows.append((name, mode, result.verdict, elapsed,
                         len(result.cube_results)))
        assert len(set(verdicts.values())) == 1, \
            "modes disagree on %s: %s" % (name, verdicts)
    print("\ninstance     mode      verdict  seconds  cubes")
    for name, mode, verdict, elapsed, n_cubes in rows:
        print("%-12s %-9s %-8s %7.3f  %d" % (name, mode, verdict, elapsed,
                                             n_cubes))


def test_criterion_12_cube_codec():
    rng = random.Random(1201)
    for _ in range(10000):
        tree = random_tree(rng, max_depth=6)
        assert decode_tree(encode_tree(tree)) == tree
    fig3 = build_fig3_tree()
    restored = decode_tree(encode_tree(fig3))
    assert cubes(restored) == FIG3_CUBES
    lines = write_inccnf(Formula([]), cubes(restored)).splitlines()[1:]
    assert lines == ["a 5 -3 0", "a 5 3 7 0", "a 5 3 -7 0", "a -5 2 0",
                     "a -5 -2 3 -6 0", "a -5 -2 3 6 0", "a -5 -2 -3 0"]
