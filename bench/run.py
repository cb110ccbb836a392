#!/usr/bin/env python3
"""Time to verdict of `triplesat.pipeline.run` on fixed workloads.

    python3 bench/run.py --workload rnd-unsat --seed 11 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # every workload, in turn
    python3 bench/run.py --smoke                 # the benchmark's own checks, in seconds

Run from any directory; the package is imported from the `src/` beside
this directory, never from an installed copy.  The run calls
`pipeline.run` (serial, workers=1) in a closed loop for `--seconds`,
checks every output, and prints a human-readable summary followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` every
other call is traced and the metrics are per layer.  Records and spans go
to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
PHASES = ("encode", "transform", "split", "solve", "validate")

sys.path.insert(0, SRC)
import triplesat  # noqa: E402

if not os.path.abspath(triplesat.__file__).startswith(SRC + os.sep):
    raise SystemExit("triplesat was imported from %s, not from %s"
                     % (triplesat.__file__, SRC))

from triplesat import pipeline  # noqa: E402
from triplesat.cdcl import UNSAT  # noqa: E402

import spans  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import SMOKE, WORKLOADS, check, cube_digest, prepare  # noqa: E402


# ------------------------------------------------------------------ one call


class CubeCapture:
    """Keeps the cube list `pipeline.run` computes, for the output check."""

    def __init__(self):
        self.original = pipeline.cubes
        self.last = None

    def __call__(self, tree):
        self.last = self.original(tree)
        return self.last


def drift_probe():
    """Fixed pure-Python work; its time shows host speed drift, nothing more."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


def one_call(workload, config, capture, tracer=None):
    """Run and check one `pipeline.run`; returns a row describing it."""
    capture.last = None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result = pipeline.run(config)
    except Exception:
        traceback.print_exc()
        return {"ok": False, "reason": "raised", "traced": tracer is not None}
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    try:
        reason = check(workload, config, result, capture.last)
    except Exception:
        traceback.print_exc()
        reason = "output check raised"
    if reason is not None:
        print("output check failed on %s: %s" % (workload.name, reason), file=sys.stderr)
    solve_times = [row["solve_time"] for row in result.report.cube_stats]
    return {
        "ok": reason is None, "reason": reason, "traced": tracer is not None,
        "time_to_verdict_s": elapsed, "verdict": result.verdict,
        "phases": dict(result.report.phase_times),
        "cubes": len(result.cube_results),
        "cube_solve_s": solve_times,
        "cube_digest": cube_digest(capture.last or []),
        "proof_lemmas": sum(1 for kind, _ in result.proof or () if kind == "a"),
        "drift_s": drift_probe(),
    }


def measure(workload, configs, seconds, traced):
    """Closed loop over `configs` until the next call would overrun `seconds`.

    When traced, each step is an untraced and a traced call on the same
    input, so the per-layer numbers come with a paired overhead.
    """
    capture = CubeCapture()
    pipeline.cubes = capture
    tracer = spans.Tracer() if traced else None
    rows = []
    steps = []
    start = time.perf_counter()
    try:
        while not steps or (time.perf_counter() - start
                            + statistics.median(steps) <= seconds):
            step_start = time.perf_counter()
            config = configs[len(steps) % len(configs)]
            # traced runs alternate which of the pair goes first, so a slow
            # first call or a drifting host does not bias the overhead
            order = (None, tracer) if len(steps) % 2 == 0 else (tracer, None)
            for probe in order if traced else (None,):
                rows.append(one_call(workload, config, capture, probe))
            steps.append(time.perf_counter() - step_start)
    finally:
        pipeline.cubes = capture.original
    return rows, tracer, time.perf_counter() - start


# --------------------------------------------------------------------- setup


def measure_setup(name, seed):
    """Median wall time from spawning a fresh interpreter to inputs written."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--prepare-only",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        ready = float(out.stdout.split()[-1])
        samples.append(ready - start)
    return statistics.median(samples), samples


# ---------------------------------------------------------------- statistics


def tail(values):
    """Highest percentile with at least ten samples above it, or None."""
    ordered = sorted(values)
    rank = len(ordered) - 10          # 1-based rank of that order statistic
    if rank <= len(ordered) / 2:
        return None
    return int(100 * rank / len(ordered)), ordered[rank - 1]


def per_layer_metrics(traced_rows, tracer):
    rows = [spans.request_metrics(request) for request in tracer.requests]
    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    for phase in PHASES:
        metrics["pipeline.%s_s" % phase] = statistics.median(
            row["phases"][phase] for row in traced_rows)
    metrics["pipeline.cubes"] = statistics.median(row["cubes"] for row in traced_rows)
    metrics["pipeline.cube_solve_s.p50"] = statistics.median(
        statistics.median(row["cube_solve_s"]) for row in traced_rows)
    metrics["pipeline.cube_solve_s.max"] = statistics.median(
        max(row["cube_solve_s"]) for row in traced_rows)
    ms = spans.propagate_ms(tracer.requests)
    if len(ms) >= 2:
        deciles = statistics.quantiles(ms, n=10)
        metrics["cnf.propagate_ms.p50"] = deciles[4]
        metrics["cnf.propagate_ms.p90"] = deciles[8]
    else:
        metrics["cnf.propagate_ms.p50"] = metrics["cnf.propagate_ms.p90"] = (
            ms[0] if ms else 0.0)
    return metrics


def require_spans(workload, tracer):
    """Fail loudly when a layer the workload is known to use left no span."""
    seen = {span[0] for request in tracer.requests for span in request}
    missing = [name for name in workload.needs_spans if name not in seen]
    if missing:
        raise SystemExit("traced run of %s recorded no %s span: a probe no longer "
                         "sits where the caller looks the callable up"
                         % (workload.name, ", ".join(missing)))


# -------------------------------------------------------------------- record


def machine_record():
    import numpy
    record = {"python": platform.python_version(), "numpy": numpy.__version__,
              "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
              "platform": platform.platform(), "git_sha": git_sha()}
    digest = hashlib.sha256()
    package = os.path.join(SRC, "triplesat")
    for name in sorted(os.listdir(package)):
        if name.endswith((".py", ".cfg")):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    record["src_sha256"] = digest.hexdigest()
    return record


def git_sha():
    """HEAD of the checkout's own .git, read as files; None if there is none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return None


def show(workload, name, value, unit, note=""):
    print("%-15s %-28s %14.6g %-6s %s" % (workload, name, value, unit, note))


# ---------------------------------------------------------------------- runs


def run_one(args):
    workload = WORKLOADS[args.workload]
    setup_s, setup_samples = measure_setup(workload.name, args.seed)
    configs = prepare(workload, args.seed, OUT)
    rows, tracer, wall = measure(workload, configs, args.seconds, args.trace)
    attempted = len(rows)
    failed = sum(not row["ok"] for row in rows)
    done = [row for row in rows if "time_to_verdict_s" in row]
    plain = [row for row in done if not row["traced"]]
    ttv = [row["time_to_verdict_s"] for row in plain]
    digests = sorted({row["cube_digest"] for row in done})
    name = workload.name

    print("%s: seed %d, %d calls in %.1f s, trace %d, cube list digest %s"
          % (name, args.seed, attempted, wall, args.trace, ",".join(digests)))
    if not ttv:
        raise SystemExit("%s: no untraced call returned, nothing to time" % name)
    summary = {"time_to_verdict_s": statistics.median(ttv),
               "time_to_verdict_min_s": min(ttv)}
    top = tail(ttv)
    note = ("median of %d untraced calls; p%d %.4f s" % (len(ttv), *top) if top
            else "median of %d untraced calls; no percentile above the median "
                 "has ten samples beyond it" % len(ttv))
    show(name, "time_to_verdict_s", summary["time_to_verdict_s"], "s", note)
    show(name, "time_to_verdict_min_s", summary["time_to_verdict_min_s"], "s",
         "fastest of the same calls")
    summary["setup_s"] = setup_s
    show(name, "setup_s", setup_s, "s", "median of %d start-ups" % SETUP_SAMPLES)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    show(name, "peak_rss_mb", summary["peak_rss_mb"], "MB")
    summary["success_rate"] = (attempted - failed) / attempted
    show(name, "success_rate", summary["success_rate"], "ratio")
    show(name, "error_rate", failed / attempted, "ratio",
         "%d failed of %d attempted" % (failed, attempted))
    if workload.verdict == UNSAT:
        show(name, "proof_lemmas", statistics.median(r["proof_lemmas"] for r in done),
             "count", "median over inputs; exact per input")
    for phase in PHASES:
        show(name, "pipeline.%s_s" % phase,
             statistics.median(row["phases"][phase] for row in plain), "s")

    machine = machine_record()
    drift = [row["drift_s"] for row in rows if "drift_s" in row]
    print("%s: python %s, numpy %s, nproc %d, git %s, src %s, drift probe median %.4f s"
          % (name, machine["python"], machine["numpy"], machine["nproc"],
             machine["git_sha"], machine["src_sha256"][:16], statistics.median(drift)))
    record = {"machine": machine,
              "run": {"workload": name, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "calls": attempted, "failed": failed,
                      "wall_s": wall, "setup_samples_s": setup_samples,
                      "drift_probe_s": drift,
                      "cube_digests": digests},
              "end_to_end": summary, "calls": rows}

    if args.trace:
        require_spans(workload, tracer)
        traced_rows = [row for row in done if row["traced"]]
        metrics = per_layer_metrics(traced_rows, tracer)
        # rows come in (untraced, traced) pairs on one input, in either order
        overhead = statistics.median(
            (b if b["traced"] else a)["time_to_verdict_s"]
            - (a if b["traced"] else b)["time_to_verdict_s"]
            for a, b in zip(rows[0::2], rows[1::2])
            if "time_to_verdict_s" in a and "time_to_verdict_s" in b)
        print("%s: tracing overhead %.4f s (median over pairs of traced minus "
              "untraced time to verdict)" % (name, overhead))
        covered = metrics["lookahead.split_s"] / metrics["pipeline.split_s"]
        print("%s: lookahead and cnf spans cover %.1f%% of pipeline.split_s"
              % (name, 100 * covered))
        if metrics["pipeline.validate_s"] > 0:
            covered = ((metrics["drat.cube_check_s"] + metrics["drat.merged_check_s"])
                       / metrics["pipeline.validate_s"])
            print("%s: drat spans cover %.1f%% of pipeline.validate_s"
                  % (name, 100 * covered))
        for key, (unit, _, _) in PER_LAYER.items():
            show(name, key, metrics[key], unit)
        record["per_layer"] = metrics
        record["tracing_overhead_s"] = overhead
        tracer.write(os.path.join(OUT, "%s-seed%d.spans.jsonl" % (name, args.seed)))
        table = PER_LAYER
    else:
        metrics, table = summary, END_TO_END
    result_metrics = {key: {"value": metrics[key], "unit": table[key][0]}
                      for key in table if key in metrics}

    with open(os.path.join(OUT, "%s-seed%d-trace%d.json"
                           % (name, args.seed, args.trace)), "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        status = status or proc.returncode
    return status


def spec_mismatches():
    """Differences between BENCHMARK.json and the benchmark's own tables."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    found = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: (m["unit"], m["better"], m["bound"])
                       for m in spec["end_to_end"]},
        "per_layer": {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
    }
    wanted = {
        "workloads": list(WORKLOADS),
        "end_to_end": END_TO_END,
        "per_layer": {name: row[:2] for name, row in PER_LAYER.items()},
    }
    return [key for key in wanted if found[key] != wanted[key]]


def smoke():
    """Every workload's small version, once untraced and once traced."""
    problems = ["BENCHMARK.json %s differ from bench/metrics.py and bench/workloads.py"
                % key for key in spec_mismatches()]
    for name, workload in SMOKE.items():
        configs = prepare(workload, 11, os.path.join(OUT, "smoke"))
        rows, tracer, wall = measure(workload, configs, 0, True)
        require_spans(workload, tracer)
        metrics = per_layer_metrics([row for row in rows if row["traced"]], tracer)
        if set(metrics) != set(PER_LAYER):
            problems.append("%s: per-layer metrics %s are not the ones listed"
                            % (name, sorted(set(metrics) ^ set(PER_LAYER))))
        bad = [row["reason"] for row in rows if not row["ok"]]
        problems += ["%s: %s" % (name, reason) for reason in bad]
        print("smoke %-15s %s in %.2f s" % (name, "; ".join(bad) or "ok", wall))
    setup_s, _ = measure_setup("rnd-unsat", 11)
    print("smoke setup probe %.3f s" % setup_s)
    for problem in problems:
        print("smoke FAILED: " + problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own checks on tiny inputs")
    parser.add_argument("--prepare-only", action="store_true",
                        help=argparse.SUPPRESS)  # child of the setup_s probe
    args = parser.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    if args.prepare_only:
        prepare(WORKLOADS[args.workload], args.seed, OUT)
        print(time.monotonic())
        return 0
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
