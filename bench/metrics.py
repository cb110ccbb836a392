"""Names, units and directions of every metric the benchmark prints.

BENCHMARK.json lists the same metrics (smoke mode checks that they
agree).  Its format has no field for what a per-layer metric should move,
so that prediction lives here, as the third entry of each row: the
end-to-end metric and the workloads on which a change to the layer
should show.
"""

# name: (unit, better, bound) -- bound is the share by which the median may worsen
END_TO_END = {
    "time_to_verdict_min_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "success_rate": ("ratio", "higher", 0.01),
}

# "time to verdict" is both time_to_verdict_s (median, printed) and
# time_to_verdict_min_s; shares are of it in traced runs of the seed code
# (bench/README.md).
_SPLIT = "time to verdict on ptn-split (~94%), ptn7825-budget (~37%), rnd-unsat (~14%)"
_CDCL = "time to verdict on ptn7825-budget (~39%) and rnd-unsat (~14%)"
_FRONT = "time to verdict and peak_rss_mb on ptn7825-budget (~23%)"
_DRAT = "time to verdict on rnd-unsat (~72%); zero on both ptn workloads"

# name: (unit, better, what it should move)
PER_LAYER = {
    "pipeline.encode_s": ("s", "lower", _FRONT),
    "pipeline.transform_s": ("s", "lower", _FRONT),
    "pipeline.split_s": ("s", "lower", _SPLIT),
    "pipeline.solve_s": ("s", "lower", _CDCL),
    "pipeline.validate_s": ("s", "lower", _DRAT),
    "pipeline.cubes": ("count", "lower", "cube list digest; fixed by the cutoff on every workload"),
    "pipeline.cube_solve_s.p50": ("s", "lower", _CDCL),
    "pipeline.cube_solve_s.max": ("s", "lower", _CDCL),
    "pipeline.self_s": ("s", "lower", "time to verdict on every workload (glue, <2%)"),
    "lookahead.split_s": ("s", "lower", _SPLIT),
    "lookahead.nodes": ("count", "lower", _SPLIT),
    "lookahead.refuted_leaves": ("count", "higher", _SPLIT),
    "lookahead.node_s": ("s", "lower", _SPLIT),
    "lookahead.self_s": ("s", "lower", _SPLIT),
    "lookahead.residual_s": ("s", "lower", _SPLIT),
    "cnf.propagate_calls": ("count", "lower", _SPLIT + "; toward lookahead.nodes"),
    "cnf.propagate_s": ("s", "lower", _SPLIT),
    "cnf.propagate_ms.p50": ("ms", "lower", _SPLIT),
    "cnf.propagate_ms.p90": ("ms", "lower", _SPLIT),
    "cnf.parse_dimacs_s": ("s", "lower", "time to verdict on rnd-unsat (<1%)"),
    "cnf.self_s": ("s", "lower", _SPLIT),
    "cdcl.build_s": ("s", "lower", _CDCL),
    "cdcl.solve_s": ("s", "lower", _CDCL),
    "cdcl.self_s": ("s", "lower", _CDCL),
    "cdcl.conflicts": ("count", "lower", _CDCL + "; drat.proof_lemmas on rnd-unsat"),
    "cdcl.decisions": ("count", "lower", _CDCL),
    "cdcl.propagations": ("count", "lower", _CDCL),
    "cdcl.propagations_per_s": ("1/s", "higher", _CDCL),
    "encoder.encode_s": ("s", "lower", _FRONT),
    "encoder.self_s": ("s", "lower", _FRONT),
    "transform.bce_s": ("s", "lower", _FRONT),
    "transform.bce_eliminated": ("count", "higher", _FRONT),
    "transform.symmetry_s": ("s", "lower", _FRONT),
    "transform.self_s": ("s", "lower", _FRONT),
    "drat.cube_check_s": ("s", "lower", _DRAT),
    "drat.merged_check_s": ("s", "lower", _DRAT),
    "drat.lemmas_checked": ("count", "lower", _DRAT),
    "drat.lemmas_per_s": ("1/s", "higher", _DRAT),
    "drat.proof_lemmas": ("count", "lower", _DRAT + "; the proof a user ships"),
    "drat.self_s": ("s", "lower", _DRAT),
}
