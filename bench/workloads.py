"""The benchmark's fixed workloads, their input generator and output checks.

Every workload runs `triplesat.pipeline.run` serially (workers=1).  Sizes
are chosen so one call takes 0.3-3 s on a 2-vCPU host, so that a 35 s run
holds 10-90 calls and some of them meet no contention from other tenants;
see bench/README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass

from triplesat import pipeline
from triplesat.cdcl import INDETERMINATE, SAT, UNSAT
from triplesat.cnf import Formula, write_dimacs
from triplesat.encoder import check_partition

# Uniform random 3-SAT at clause/variable ratio 4.8 from generator seed 11
# is UNSAT at both sizes below.  The workload seed only relabels it (see
# relabel), so every seed keeps that verdict and a comparable amount of
# work; fresh formulas per seed varied 3.4x in time (150 variables, seeds
# 1-12), more than any bound the benchmark could hold.
RND_BASE_SEED = 11
RND_COPIES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    verdict: str
    n: int | None = None
    cutoff: str = "bin:3000"
    preselect: float = 1.0
    conflict_budget: int | None = None
    rnd_vars: int = 0            # > 0: random 3-SAT read from a DIMACS file
    cube_count: int | None = None
    needs_spans: tuple = ("lookahead.split", "cdcl.Solver.solve")


WORKLOADS = {
    "ptn-split": Workload("ptn-split", SAT, n=300, cutoff="depth:3"),
    "rnd-unsat": Workload("rnd-unsat", UNSAT, cutoff="depth:1", rnd_vars=130,
                          needs_spans=("lookahead.split", "cdcl.Solver.solve",
                                       "drat.check_proof")),
    "ptn7825-budget": Workload("ptn7825-budget", INDETERMINATE, n=7825,
                               cutoff="depth:1", preselect=0.005,
                               conflict_budget=300, cube_count=2),
}

# Small versions for --smoke: same code paths and checks, well under a second each.
SMOKE = {
    "ptn-split": Workload("ptn-split", SAT, n=200, cutoff="depth:2"),
    "rnd-unsat": Workload("rnd-unsat", UNSAT, cutoff="depth:2", rnd_vars=50,
                          needs_spans=WORKLOADS["rnd-unsat"].needs_spans),
    "ptn7825-budget": Workload("ptn7825-budget", INDETERMINATE, n=7825,
                               cutoff="depth:1", preselect=0.001,
                               conflict_budget=20, cube_count=2),
}


def random_3sat(num_vars, num_clauses, seed):
    """Uniform random 3-SAT: three distinct variables, fair random signs."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return Formula(clauses, num_vars)


def relabel(formula, rng):
    """An isomorphic copy: permuted variables, flipped signs, shuffled clauses."""
    names = list(range(1, formula.num_vars + 1))
    rng.shuffle(names)
    signs = [1 if rng.random() < 0.5 else -1 for _ in names]

    def rename(lit):
        var = abs(lit) - 1
        return (names[var] if lit > 0 else -names[var]) * signs[var]

    clauses = [tuple(rename(lit) for lit in clause) for clause in formula.clauses]
    rng.shuffle(clauses)
    return Formula(clauses, formula.num_vars)


def prepare(workload, seed, out_dir):
    """Generate and write the inputs; returns the list of configs to cycle over."""
    if not workload.rnd_vars:
        return [pipeline.PipelineConfig(
            n=workload.n, cutoff=workload.cutoff, preselect=workload.preselect,
            conflict_budget=workload.conflict_budget)]
    base = random_3sat(workload.rnd_vars, round(4.8 * workload.rnd_vars),
                       RND_BASE_SEED)
    rng = random.Random(seed)
    os.makedirs(out_dir, exist_ok=True)
    configs = []
    for index in range(RND_COPIES):
        path = os.path.join(out_dir, "%s-%d.cnf" % (workload.name, index))
        with open(path, "w") as handle:
            handle.write(write_dimacs(relabel(base, rng)))
        # params stay unset so rnd3sat mode picks RND_PARAMS
        configs.append(pipeline.PipelineConfig(
            formula_path=path, mode="rnd3sat", cutoff=workload.cutoff,
            conflict_budget=workload.conflict_budget))
    return configs


def check(workload, config, result, cube_list):
    """Return None if the output is right, else a one-line reason."""
    if result.verdict != workload.verdict:
        return "verdict %s, expected %s" % (result.verdict, workload.verdict)
    if workload.cube_count is not None and len(result.cube_results) != workload.cube_count:
        return "%d cubes, expected %d" % (len(result.cube_results), workload.cube_count)
    if cube_list is None or len(cube_list) != len(result.cube_results):
        return "cube list not observed"
    if result.verdict == SAT:
        violation = check_partition(config.n, result.model)
        if violation is not None:
            return "model makes triple %s monochromatic" % (violation,)
    if result.verdict == UNSAT:
        if not result.proof or result.check is None or not result.check.accepted:
            return "merged proof was not accepted against the original formula"
    return None


def cube_digest(cube_list):
    """Short digest of a cube list, in order, so a changed tree shows."""
    text = ";".join(" ".join(map(str, cube)) for cube in cube_list)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
