"""End-to-end orchestration: encode, transform, split, solve, validate.

UNSAT runs produce a merged proof (transformation proof, cube proofs in
index order, tautology proof) that is checked once, against the original
formula; SAT runs produce a repaired model validated against the
original problem.  Every cube goes through one primitive,
`solve_one_cube`, either in this process or over share-nothing worker
processes.  In two-level mode the primitive re-splits its cube and hands
the sub-cubes to one incremental solver.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.resources
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from . import cdcl, drat
from .cnf import Formula, evaluate, parse_dimacs, SATISFIED
from .encoder import check_partition, encode
from .lookahead import (CutoffPolicy, HeuristicParams, check_mode, cubes,
                        negate_cubes, params_for_mode, parse_cutoff, split)
from .transform import bce, emit_transform_proof, reconstruct, symmetry_break


def _config_lines(lines):
    """(line number, key, value) of every `key = value` line."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValueError("line %d: expected key=value, got %r"
                             % (lineno, stripped))
        yield lineno, key.strip(), value.strip()


def load_config(path):
    """Parse a simple `key=value` config file into a dict of strings.

    A key must be one of defaults.cfg or a heuristic parameter, so a
    misspelt key is an error instead of a silently kept default.
    """
    known = _shipped_defaults().keys() | _HEURISTIC_KEYS.keys()
    values = {}
    with open(path) as handle:
        for lineno, key, value in _config_lines(handle):
            if key not in known:
                raise ValueError("line %d: unknown key %r; expected one of %s"
                                 % (lineno, key, ", ".join(sorted(known))))
            values[key] = value
    return values


@functools.cache
def _shipped_defaults():
    text = importlib.resources.files("triplesat").joinpath("defaults.cfg").read_text()
    return {key: value for _, key, value in _config_lines(text.splitlines())}


def default_config():
    """The shipped `defaults.cfg`, the one source of every default setting."""
    return dict(_shipped_defaults())


def _default(key, cast=str):
    """A PipelineConfig field defaulting to `key` of defaults.cfg, read on
    first use rather than at import."""
    return field(default_factory=lambda: cast(_shipped_defaults()[key]))


_HEURISTIC_KEYS = {"alpha": float, "beta": float, "gamma": float, "iterations": int}


def config_params(values):
    """The heuristic parameters of values["mode"]; any of alpha, beta,
    gamma and iterations present in `values` overrides its own field."""
    overrides = {key: cast(values[key]) for key, cast in _HEURISTIC_KEYS.items()
                 if key in values}
    return dataclasses.replace(params_for_mode(values["mode"]), **overrides)


@dataclass
class PipelineConfig:
    n: Optional[int] = None
    formula_path: Optional[str] = None
    formula: Optional[Formula] = None
    mode: str = _default("mode")
    cutoff: str = _default("cutoff")
    second_cutoff: str = _default("second_cutoff")
    two_level: bool = False
    workers: int = _default("workers", int)
    conflict_budget: Optional[int] = None
    apply_bce: Optional[bool] = None  # None: on for encode(n), off for DIMACS
    params: Optional[HeuristicParams] = None  # None: the mode's parameters
    preselect: float = _default("preselect", float)

    def __post_init__(self):
        sources = [s is not None for s in (self.n, self.formula_path, self.formula)]
        if sum(sources) != 1:
            raise ValueError("exactly one of n / formula_path / formula must be set")
        if self.workers < 1:
            raise ValueError("worker count must be >= 1")
        check_mode(self.mode)
        for name in ("cutoff", "second_cutoff"):
            try:
                _policy(getattr(self, name))
            except ValueError as exc:
                raise ValueError("%s: %s" % (name, exc)) from None


@dataclass
class PhaseReport:
    phase_times: dict = field(default_factory=dict)
    cube_stats: list = field(default_factory=list)

    def histogram(self):
        counts = Counter(row["size"] for row in self.cube_stats)
        return dict(sorted(counts.items()))


@dataclass
class PipelineResult:
    verdict: str
    model: Optional[dict] = None
    proof: Optional[list] = None
    report: PhaseReport = field(default_factory=PhaseReport)
    cube_results: list = field(default_factory=list)
    check: Optional[drat.CheckResult] = None
    pivot: Optional[int] = None


def _policy(cutoff):
    return cutoff if isinstance(cutoff, CutoffPolicy) else parse_cutoff(cutoff)


# ----------------------------------------------------------------- solve phase


def solve_one_cube(formula, cube, config):
    """Solve formula AND cube in one fresh solver; cube literals become units.

    Emitted lemmas are extended with the cube's negation so the proof
    stands against the formula alone; an UNSAT run ends with the negated
    cube itself.  In two-level mode the cube is first re-split under
    `config.second_cutoff`, and the solver refutes the sub-cubes in turn,
    keeping what it learns, before a last call without assumptions closes
    the cube.  Solving stops at the first sub-cube that is not refuted.
    Returns (SolveResult of the last call, proof, split seconds, solve
    seconds); the result's counters cover every call on the cube's solver.
    """
    start = time.perf_counter()
    subcubes = []
    if config.two_level:
        restricted = Formula(list(formula.clauses) + [(l,) for l in cube],
                             formula.num_vars)
        subcubes = cubes(split(restricted, _policy(config.second_cutoff),
                               config.mode, config.params, config.preselect))
    split_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    proof = []
    solver = cdcl.Solver(formula, proof=proof, conflict_budget=config.conflict_budget)
    negation = tuple(-l for l in cube)
    solver.proof_extension = negation
    for lit in cube:
        solver.add_clause([lit])
    for subcube in subcubes + [()]:
        result = solver.solve(assumptions=subcube)
        if result.verdict != cdcl.UNSAT:
            break
        solver.add_refuted(subcube)
    if result.verdict == cdcl.UNSAT and (not proof or proof[-1] != ("a", negation)):
        proof.append(("a", negation))
    return result, proof, split_elapsed, time.perf_counter() - start


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
    stack = []
    pivot = None
    work = original
    do_bce = is_ptn if config.apply_bce is None else config.apply_bce
    if do_bce:
        work, stack = bce(work)
    if is_ptn and any(work.clauses):
        work, pivot = symmetry_break(work)
    transform_proof = emit_transform_proof(original, stack, pivot)
    report.phase_times["transform"] = time.perf_counter() - start

    start = time.perf_counter()
    tree = split(work, _policy(config.cutoff), config.mode, config.params,
                 config.preselect)
    cube_list = cubes(tree)
    report.phase_times["split"] = time.perf_counter() - start

    start = time.perf_counter()
    solve = functools.partial(solve_one_cube, work, config=config)
    if config.workers == 1:
        outcomes = list(map(solve, cube_list))
    else:
        with ProcessPoolExecutor(max_workers=config.workers, initializer=_init_worker,
                                 initargs=(solve,)) as pool:
            outcomes = list(pool.map(_run_worker, cube_list))
    report.phase_times["solve"] = time.perf_counter() - start

    for index, (cube, (solved, _, split_s, solve_s)) in enumerate(
            zip(cube_list, outcomes)):
        report.cube_stats.append({
            "index": index, "size": len(cube), "split_time": split_s,
            "solve_time": solve_s, "conflicts": solved.conflicts,
            "decisions": solved.decisions, "propagations": solved.propagations})

    verdicts = [o[0].verdict for o in outcomes]
    result = PipelineResult("", report=report, cube_results=verdicts, pivot=pivot)

    start = time.perf_counter()
    if cdcl.SAT in verdicts:
        index = verdicts.index(cdcl.SAT)
        model = reconstruct(outcomes[index][0].model, stack, formula=work)
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
        taut_proof = []
        taut_result = cdcl.solve(negate_cubes(cube_list), proof=taut_proof)
        if taut_result.verdict != cdcl.UNSAT:
            raise RuntimeError("cube partition is not a tautology")
        merged = drat.merge_proofs(transform_proof, [o[1] for o in outcomes],
                                   taut_proof)
        pivots = (pivot,) if pivot is not None else ()
        # the one gate for UNSAT: it checks every cube lemma, and a RUP
        # lemma stays RUP when earlier cubes' lemmas precede it
        check = drat.check_proof(original, merged, refutation=True,
                                 symmetry_pivots=pivots)
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
    lines = ["size,count"]
    for size, count in report.histogram().items():
        lines.append("%d,%d" % (size, count))
    return "\n".join(lines) + "\n"
