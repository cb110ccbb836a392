"""End-to-end orchestration: encode, transform, split, solve, validate.

The transform phase runs blocked clause elimination on every input, then
breaks the flip symmetry of an `encode(n)` input only: a DIMACS or
in-memory formula keeps a plain DRAT proof, which a checker accepts
without symmetry pivots.

UNSAT runs produce a merged proof (transformation proof, cube proofs in
index order, tautology proof) that is checked once, against the original
formula; SAT runs produce a repaired model, checked once against the
original problem.  The tautology proof comes from the split tree alone
(`lookahead.tautology_proof`), so the check decides whether the refuted
cubes close the tree.  Every cube goes through one primitive,
`solve_one_cube`, either in this process or over share-nothing worker
processes.  It solves the cube under assumptions with
`cdcl.solve_incremental`; with a `second_cutoff` it first re-splits the
cube and hands the sub-cubes, then the cube, to the same solver (the
paper's two-level conquer).

Cubes are solved in index order until the first SAT one, whose model
decides the formula; the cubes after it are left unsolved, and the
worker pool's pending ones are cancelled.  `cube_results` holds one
entry per cube: its verdict, or None when it went unsolved.

Each cube's solver also records every lemma's antecedents (`cdcl`'s
hints), which come back with the cube's proof, from workers too.
`drat.merge_hints` renumbers them into the checker's clause ids, and the
gate check tries them before its own search; they change no verdict.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from . import cdcl, cnf, drat
from .cnf import Formula, evaluate, numbered_lines, parse_dimacs, SATISFIED
from .encoder import check_partition, encode
from .lookahead import (MODE_PTN, HeuristicParams, check_mode, check_preselect,
                        cubes, params_for_mode, parse_cutoff, split,
                        tautology_proof)
from .transform import bce, emit_transform_proof, reconstruct, symmetry_break


def _parse_settings(text):
    """{key: value} of the `key = value` lines of `text`.  A key must be one
    of `SETTING_TYPES`, so a misspelt key is an error instead of a silently
    kept default, and may appear once; its value is cast on its line to the
    key's type."""
    values = {}
    for lineno, line in numbered_lines(text):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in stripped.partition("="))
        if not sep:
            raise ValueError("line %d: expected key=value, got %r"
                             % (lineno, stripped))
        if key not in SETTING_TYPES:
            raise ValueError("line %d: unknown key %r; expected one of %s"
                             % (lineno, key, ", ".join(sorted(SETTING_TYPES))))
        if key in values:
            raise ValueError("line %d: key %r given twice" % (lineno, key))
        cast = SETTING_TYPES[key]
        try:
            values[key] = cast(value)
        except ValueError:
            raise ValueError("line %d: %s %r is not a valid %s"
                             % (lineno, key, value, cast.__name__)) from None
    return values


def load_config(path):
    """The settings of a `key = value` config file (see `_parse_settings`).
    The file is ASCII, like every input (see `cnf.numbered_lines`)."""
    with open(path, "rb") as handle:
        return _parse_settings(handle.read())


def integer(text):
    """`int`, for a DIMACS integer (`cnf.is_dimacs_integer`) only."""
    if not cnf.is_dimacs_integer(text):
        raise ValueError("invalid integer %r" % text)
    return int(text)


def real(text):
    """`float`, for finite ASCII decimal notation (`cnf.is_decimal`) only."""
    if not (cnf.is_decimal(text) and math.isfinite(float(text))):
        raise ValueError("invalid real %r" % text)
    return float(text)


# every key a config file may set, and its type, from a file or a flag alike
SETTING_TYPES = {"mode": str, "cutoff": str, "second_cutoff": str,
                 "workers": integer, "preselect": real, "alpha": real,
                 "beta": real, "gamma": real, "iterations": integer}


def config_params(values):
    """The heuristic parameters of values["mode"]; any of alpha, beta,
    gamma and iterations present in `values` overrides its own field."""
    overrides = {f.name: values[f.name]
                 for f in dataclasses.fields(HeuristicParams) if f.name in values}
    return dataclasses.replace(params_for_mode(values["mode"]), **overrides)


# the only defaults: the paper's reference run, whose first cutoff at n = 7825
# is bin:3000; its two-level conquer adds second_cutoff = "vars:3450"
@dataclass(frozen=True)
class PipelineConfig:
    n: Optional[int] = None
    formula_path: Optional[str] = None
    formula: Optional[Formula] = None
    mode: str = MODE_PTN
    cutoff: str = "bin:3000"
    second_cutoff: Optional[str] = None  # None: each cube is solved as it is
    workers: int = 1
    conflict_budget: Optional[int] = None
    params: Optional[HeuristicParams] = None  # None: the mode's parameters
    preselect: float = 1.0

    def __post_init__(self):
        sources = [s is not None for s in (self.n, self.formula_path, self.formula)]
        if sum(sources) != 1:
            raise ValueError("exactly one of n / formula_path / formula must be set")
        if self.n is not None:
            cdcl.check_count("n", self.n)
        if not isinstance(self.formula_path, (str, os.PathLike, type(None))):
            raise ValueError("formula_path must be a str or an os.PathLike, "
                             "got %r" % (self.formula_path,))
        if not isinstance(self.formula, (Formula, type(None))):
            raise ValueError("formula must be a cnf.Formula, got %r"
                             % (self.formula,))
        cdcl.check_count("worker count", self.workers)
        cdcl.check_budget(self.conflict_budget)
        check_mode(self.mode)
        check_preselect(self.preselect)
        cutoffs = [("cutoff", self.cutoff)]
        if self.second_cutoff is not None:
            cutoffs.append(("second_cutoff", self.second_cutoff))
        for name, spec in cutoffs:
            try:
                parse_cutoff(spec)
            except ValueError as exc:
                raise ValueError("%s: %s" % (name, exc)) from None


def default_config():
    """The `SETTING_TYPES` keys' `PipelineConfig` defaults other than None."""
    return {f.name: f.default for f in dataclasses.fields(PipelineConfig)
            if f.name in SETTING_TYPES and f.default is not None}


@dataclass
class PhaseReport:
    """Phase times; the size of every cube of the split; and a row of
    solver counters per cube solved, which after a SAT cube are fewer."""
    phase_times: dict = field(default_factory=dict)
    cube_sizes: list = field(default_factory=list)
    cube_stats: list = field(default_factory=list)

    def histogram(self):
        return dict(sorted(Counter(self.cube_sizes).items()))


@dataclass
class PipelineResult:
    verdict: str
    model: Optional[dict] = None
    proof: Optional[list] = None
    report: PhaseReport = field(default_factory=PhaseReport)
    cube_results: list = field(default_factory=list)
    check: Optional[drat.CheckResult] = None
    pivot: Optional[int] = None


# ----------------------------------------------------------------- solve phase


def solve_one_cube(formula, cube, config):
    """Solve formula AND cube with `cdcl.solve_incremental` on `[cube]`.

    With a `config.second_cutoff` it first re-splits the cube under it
    and puts each non-empty sub-cube, prefixed with the cube, before it, so
    the last entry closes the cube.  Returns (SolveResult of the last call,
    proof, split seconds, solve seconds, hints); the result's counters
    cover every call on the cube's solver, and the hints are the proof's,
    in a solver's numbering of `formula` (see `cdcl`).
    """
    start = time.perf_counter()
    cube_list = [cube]
    if config.second_cutoff is not None:
        restricted = Formula(list(formula.clauses) + [(l,) for l in cube],
                             formula.num_vars)
        subcubes = cubes(split(restricted, parse_cutoff(config.second_cutoff),
                               config.mode, config.params, config.preselect))
        # an empty sub-cube is the cube itself, which the last entry solves
        cube_list = [(*cube, *sub) for sub in subcubes if sub] + cube_list
    split_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    proof, hints = [], []
    results = cdcl.solve_incremental(formula, cube_list, proof=proof,
                                     conflict_budget=config.conflict_budget,
                                     hints=hints)
    return results[-1], proof, split_elapsed, time.perf_counter() - start, hints


def _until_sat(outcomes):
    """The outcomes, in cube order, up to and including the first SAT one:
    a model decides the formula, so the cubes after it go unsolved."""
    solved = []
    for outcome in outcomes:
        solved.append(outcome)
        if outcome[0].verdict == cdcl.SAT:
            break
    return solved


_WORKER = {}


def _init_worker(solve):
    _WORKER["solve"] = solve


def _run_worker(cube):
    return _WORKER["solve"](cube)


# ------------------------------------------------------------------- pipeline


def run(config):
    """Run all five phases; see the module docstring for the contract."""
    report = PhaseReport()
    is_ptn = config.n is not None

    start = time.perf_counter()
    if is_ptn:
        original = encode(config.n)
    elif config.formula is not None:
        original = config.formula
    else:
        with open(config.formula_path, "rb") as handle:
            original = parse_dimacs(handle.read())
    report.phase_times["encode"] = time.perf_counter() - start

    start = time.perf_counter()
    work, stack = bce(original)
    pivot = None
    if is_ptn:
        work, pivot = symmetry_break(work)
    transform_proof = emit_transform_proof(stack, pivot)
    report.phase_times["transform"] = time.perf_counter() - start

    start = time.perf_counter()
    tree = split(work, parse_cutoff(config.cutoff), config.mode, config.params,
                 config.preselect)
    cube_list = cubes(tree)
    report.phase_times["split"] = time.perf_counter() - start
    report.cube_sizes = [len(cube) for cube in cube_list]

    start = time.perf_counter()
    solve = functools.partial(solve_one_cube, work, config=config)
    if config.workers == 1:
        outcomes = _until_sat(map(solve, cube_list))
    else:
        # imported here, so that a serial run does not load the pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.workers, initializer=_init_worker,
                                 initargs=(solve,)) as pool:
            outcomes = _until_sat(pool.map(_run_worker, cube_list))
            pool.shutdown(cancel_futures=True)
    report.phase_times["solve"] = time.perf_counter() - start

    for index, (cube, (solved, _, split_s, solve_s, _)) in enumerate(
            zip(cube_list, outcomes)):
        report.cube_stats.append({
            "index": index, "size": len(cube), "split_time": split_s,
            "solve_time": solve_s, "conflicts": solved.conflicts,
            "decisions": solved.decisions, "propagations": solved.propagations})

    verdicts = [o[0].verdict for o in outcomes]
    unsolved = [None] * (len(cube_list) - len(outcomes))
    result = PipelineResult("", report=report, cube_results=verdicts + unsolved,
                            pivot=pivot)

    start = time.perf_counter()
    if cdcl.SAT in verdicts:
        index = verdicts.index(cdcl.SAT)
        model = reconstruct(outcomes[index][0].model, stack)
        result.verdict = cdcl.SAT
        result.model = model
        if is_ptn:
            for var in range(1, config.n + 1):
                model.setdefault(var, False)
            violation = check_partition(config.n, model)
            if violation is not None:
                raise RuntimeError("model validation failed on triple %s"
                                   % (violation,))
        elif evaluate(original, model) != SATISFIED:
            raise RuntimeError("model does not satisfy the original formula")
    elif cdcl.INDETERMINATE in verdicts:
        result.verdict = cdcl.INDETERMINATE
    else:
        cube_proofs = [o[1] for o in outcomes]
        merged = drat.merge_proofs(transform_proof, cube_proofs,
                                   tautology_proof(tree))
        hints = drat.merge_hints(original, work, transform_proof, cube_proofs,
                                 [o[4] for o in outcomes])
        pivots = (pivot,) if pivot is not None else ()
        # the one gate for UNSAT: it checks every cube lemma, and a RUP
        # lemma stays RUP when earlier cubes' lemmas precede it, and the
        # tree's lines close only if every leaf's cube was refuted
        check = drat.check_proof(original, merged, refutation=True,
                                 symmetry_pivots=pivots, hints=hints)
        if not check:
            raise RuntimeError("merged proof rejected at line %s: %s"
                               % (check.line, check.reason))
        result.verdict = cdcl.UNSAT
        result.proof = merged
        result.check = check
    report.phase_times["validate"] = time.perf_counter() - start
    return result


# ---------------------------------------------------------------------- stats


def per_cube_csv(report):
    lines = ["index,size,split_time,solve_time,conflicts,decisions,propagations"]
    for row in report.cube_stats:
        lines.append("%d,%d,%.6f,%.6f,%d,%d,%d" % (
            row["index"], row["size"], row["split_time"], row["solve_time"],
            row["conflicts"], row["decisions"], row["propagations"]))
    return "\n".join(lines) + "\n"


def histogram_csv(report):
    return "size,count\n" + "".join("%d,%d\n" % item
                                    for item in report.histogram().items())
