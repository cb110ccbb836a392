"""Command line front end.

Exit codes follow solver convention: 0 for SAT (and for plumbing
commands that succeed), 20 for UNSAT, 30 for an indeterminate verdict,
1 for any error.  `pipeline` runs the two-level conquer when a second
cutoff is set, by `--second-cutoff` or by the config file.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cdcl, cubecodec, drat, pipeline
from .cnf import parse_dimacs, write_dimacs
from .encoder import encode
from .lookahead import (MODES, cubes, parse_cutoff, parse_inccnf, split,
                        write_inccnf)
from .transform import (bce, emit_transform_proof, parse_stack, reconstruct,
                        symmetry_break, write_stack)

EXIT_SAT = 0
EXIT_UNSAT = 20
EXIT_INDETERMINATE = 30
EXIT_ERROR = 1

_VERDICT_CODES = {cdcl.SAT: EXIT_SAT, cdcl.UNSAT: EXIT_UNSAT,
                  cdcl.INDETERMINATE: EXIT_INDETERMINATE}

# checked by the library (lookahead.check_mode), like a mode from --config
_MODE_HELP = "one of " + ", ".join(MODES)


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _write(path, text):
    mode = "wb" if isinstance(text, bytes) else "w"
    with open(path, mode) as handle:
        handle.write(text)


def _emit(path, text):
    if path:
        _write(path, text)
    else:
        sys.stdout.write(text)


def _print_verdict(verdict, model=None):
    if verdict == cdcl.SAT:
        print("s SATISFIABLE")
        if model:
            lits = [v if model[v] else -v for v in sorted(model)]
            print("v " + " ".join(str(l) for l in lits) + " 0")
    elif verdict == cdcl.UNSAT:
        print("s UNSATISFIABLE")
    else:
        print("s UNKNOWN")
    return _VERDICT_CODES[verdict]


def _heuristic_args(parser):
    parser.add_argument("--mode", help=_MODE_HELP)
    parser.add_argument("--cutoff",
                        help="comma-separated bin:N / vars:N / depth:N")
    for key in ("preselect", "alpha", "beta", "gamma", "iterations"):
        parser.add_argument("--" + key, type=pipeline.SETTING_TYPES[key])


def _settings(args, keys):
    """defaults.cfg, then the --config file if one is given, then every
    flag among `keys` that is given; unset flags are None."""
    values = pipeline.default_config()
    if args.config:
        values.update(pipeline.load_config(args.config))
    values.update((key, getattr(args, key)) for key in keys
                  if getattr(args, key) is not None)
    return values


# ------------------------------------------------------------------ commands


def cmd_encode(args):
    formula = encode(args.n)
    _emit(args.out, write_dimacs(formula))
    return 0


def cmd_transform(args):
    formula = parse_dimacs(_read(getattr(args, "in")))
    reduced, stack = bce(formula)
    pivot = None
    if args.break_symmetry:
        reduced, pivot = symmetry_break(reduced)
    _emit(args.out, write_dimacs(reduced))
    if args.proof:
        _write(args.proof, drat.write_drat(emit_transform_proof(stack, pivot)))
    if args.stack:
        _write(args.stack, write_stack(stack))
    print("c eliminated %d" % len(stack))
    if pivot is not None:
        print("c symmetry pivot %d" % pivot)
    return 0


def cmd_split(args):
    formula = parse_dimacs(_read(getattr(args, "in")))
    values = _settings(args, ("mode", "cutoff", "preselect", "alpha", "beta",
                              "gamma", "iterations"))
    tree = split(formula, parse_cutoff(values["cutoff"]), values["mode"],
                 pipeline.config_params(values), values["preselect"])
    cube_list = cubes(tree)
    _emit(args.out, write_inccnf(formula, cube_list))
    if args.tree:
        _write(args.tree, cubecodec.encode_tree(tree))
    print("c %d cubes" % len(cube_list))
    return 0


def _print_counters(result):
    """The solver's counters; a result carries its solver's running totals."""
    for name in ("conflicts", "decisions", "propagations"):
        print("c %s %d" % (name, getattr(result, name)))


def cmd_solve(args):
    proof = [] if args.proof else None
    if args.cubes:
        formula, cube_list = parse_inccnf(_read(args.cubes))
    else:
        formula, cube_list = parse_dimacs(_read(getattr(args, "in"))), []
    # the closing empty cube is the whole formula, with the cubes refuted
    # before it; solving stops at a SAT cube, so the last result decides
    result = cdcl.solve_incremental(formula, [*cube_list, ()], proof=proof,
                                    conflict_budget=args.conflict_budget)[-1]
    model = result.model
    if args.stack and result.verdict == cdcl.SAT:
        model = reconstruct(model, parse_stack(_read(args.stack)),
                            formula=formula)
    _print_counters(result)
    code = _print_verdict(result.verdict, model)
    if args.proof:
        _write(args.proof, drat.write_drat(proof))
    return code


def cmd_check(args):
    formula = parse_dimacs(_read(args.formula))
    linenos = []          # step index -> 1-based line of the proof file
    proof = drat.parse_drat(_read(args.proof), linenos=linenos)
    pivots = tuple(args.symmetry_pivot or ())
    result = drat.check_proof(formula, proof, refutation=args.refutation,
                              symmetry_pivots=pivots, any_pivot=args.any_pivot)
    for index, message in result.warnings:
        print("c warning line %d: %s" % (linenos[index], message))
    _print_check_stats(result)
    if result:
        print("s VERIFIED")
        return 0
    line = linenos[result.line] if result.line is not None else None
    print("s NOT VERIFIED (line %s: %s)" % (line, result.reason))
    return 1


def _print_check_stats(result, prefix=""):
    for name, count in result.stats.items():
        print("c %s%s %d" % (prefix, name, count))


def cmd_unpack_cubes(args):
    tree = cubecodec.decode_tree(_read(getattr(args, "in")))
    formula = parse_dimacs(_read(args.formula))
    _emit(args.out, write_inccnf(formula, cubes(tree)))
    return 0


def cmd_pipeline(args):
    values = _settings(args, ("mode", "cutoff", "second_cutoff", "workers"))
    config = pipeline.PipelineConfig(
        n=args.n,
        formula_path=getattr(args, "in"),
        mode=values["mode"],
        cutoff=values["cutoff"],
        second_cutoff=values.get("second_cutoff"),
        workers=values["workers"],
        conflict_budget=args.conflict_budget,
        params=pipeline.config_params(values),
        preselect=values["preselect"])
    result = pipeline.run(config)
    for phase, seconds in result.report.phase_times.items():
        print("c %-10s %8.3fs" % (phase, seconds))
    if result.pivot is not None:
        print("c symmetry pivot %d" % result.pivot)
    # solving stops at the first SAT cube, so fewer may have been solved
    print("c cubes: %d, solved: %d" % (len(result.cube_results),
                                       len(result.report.cube_stats)))
    if result.check is not None:
        _print_check_stats(result.check, prefix="check ")
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        _write(os.path.join(args.output_dir, "cubes.csv"),
               pipeline.per_cube_csv(result.report))
        _write(os.path.join(args.output_dir, "histogram.csv"),
               pipeline.histogram_csv(result.report))
        if result.proof is not None:
            _write(os.path.join(args.output_dir, "merged.drat"),
                   drat.write_drat(result.proof))
    return _print_verdict(result.verdict, result.model)


def cmd_backbone(args):
    formula = parse_dimacs(_read(getattr(args, "in")))
    literals = cdcl.backbone(formula, conflict_budget=args.conflict_budget)
    for lit in sorted(literals, key=abs):
        print(lit)
    print("c backbone size %d" % len(literals))
    return 0


# --------------------------------------------------------------------- parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="triplesat",
        description="cube-and-conquer pipeline for the boolean Pythagorean "
                    "triples problem")
    sub = parser.add_subparsers(dest="command", required=True)
    # split and pipeline read the same settings, so they share --config
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--config", help="key = value file over defaults.cfg")

    p = sub.add_parser("encode", help="emit the DIMACS encoding for {1..n}")
    p.add_argument("--n", type=pipeline.integer, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("transform", help="blocked clause elimination and "
                                         "symmetry breaking")
    p.add_argument("--in", required=True)
    p.add_argument("--out")
    p.add_argument("--proof")
    p.add_argument("--stack")
    p.add_argument("--break-symmetry", action="store_true")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("split", help="look-ahead cube splitting",
                       parents=[settings])
    p.add_argument("--in", required=True)
    p.add_argument("--out")
    p.add_argument("--tree", help="write the split tree as .ptct")
    _heuristic_args(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("solve", help="CDCL solve, optionally over a cube file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in")
    source.add_argument("--cubes")
    p.add_argument("--proof")
    p.add_argument("--stack", help="repair and check a model with "
                                   "transform's elimination stack")
    p.add_argument("--conflict-budget", type=pipeline.integer)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="forward-check a DRAT proof")
    p.add_argument("--formula", required=True)
    p.add_argument("--proof", required=True)
    p.add_argument("--refutation", action="store_true")
    p.add_argument("--any-pivot", action="store_true")
    p.add_argument("--symmetry-pivot", type=pipeline.integer, action="append")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("unpack-cubes", help="expand a .ptct tree to inccnf")
    p.add_argument("--in", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_unpack_cubes)

    p = sub.add_parser("pipeline", help="run all phases end to end",
                       parents=[settings])
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--n", type=pipeline.integer)
    source.add_argument("--in")
    p.add_argument("--mode", help=_MODE_HELP)
    p.add_argument("--cutoff")
    p.add_argument("--second-cutoff", help="re-split each cube with this "
                                           "cutoff (two-level conquer)")
    p.add_argument("--workers", type=pipeline.SETTING_TYPES["workers"])
    p.add_argument("--conflict-budget", type=pipeline.integer)
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("backbone", help="compute the backbone of a "
                                        "satisfiable formula")
    p.add_argument("--in", required=True)
    p.add_argument("--conflict-budget", type=pipeline.integer)
    p.set_defaults(func=cmd_backbone)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
