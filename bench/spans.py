"""Span recording around the public callables the pipeline goes through.

Each probe replaces one attribute at the place where its caller looks it
up (for example `triplesat.pipeline.split`, which `pipeline.run` reads
from its own module globals), so no file of the package changes.  A span
is [name, start, end, parent, info]; `parent` indexes the enclosing span
of the same request (one `pipeline.run` call).  Spans stay in memory
until `write` is called at the end of the run.  The layer of a span is
the package module its name starts with.
"""

from __future__ import annotations

import importlib
import json
import time

LAYERS = ("pipeline", "encoder", "transform", "lookahead", "cnf", "cdcl", "drat")


def _tree_counts(args, kwargs, tree):
    from triplesat.lookahead import REFUTED, Leaf
    nodes = refuted = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            refuted += node.status == REFUTED
        else:
            nodes += 1
            stack.extend((node.yes, node.no))
    return {"nodes": nodes, "refuted": refuted}


def _bce_counts(args, kwargs, result):
    return {"eliminated": len(result[1])}


def _solve_counts(args, kwargs, result):
    return {"conflicts": result.conflicts, "decisions": result.decisions,
            "propagations": result.propagations}


def _check_counts(args, kwargs, result):
    proof = args[1] if len(args) > 1 else kwargs["proof"]
    refutation = args[2] if len(args) > 2 else kwargs.get("refutation", False)
    return {"lemmas": sum(1 for kind, _ in proof if kind == "a"),
            "merged": bool(refutation)}


# (module, attribute path, span name, counts taken from arguments and result)
PROBES = (
    ("triplesat.pipeline", "run", "pipeline.run", None),
    ("triplesat.pipeline", "encode", "encoder.encode", None),
    ("triplesat.pipeline", "parse_dimacs", "cnf.parse_dimacs", None),
    ("triplesat.pipeline", "bce", "transform.bce", _bce_counts),
    ("triplesat.pipeline", "symmetry_break", "transform.symmetry_break", None),
    ("triplesat.pipeline", "emit_transform_proof", "transform.emit_transform_proof", None),
    ("triplesat.pipeline", "split", "lookahead.split", _tree_counts),
    ("triplesat.lookahead", "residual_clauses", "lookahead.residual_clauses", None),
    ("triplesat.lookahead", "propagate_clauses", "cnf.propagate_clauses", None),
    ("triplesat.pipeline", "solve_one_cube", "pipeline.solve_one_cube", None),
    ("triplesat.cdcl", "Solver.solve", "cdcl.Solver.solve", _solve_counts),
    ("triplesat.pipeline", "reconstruct", "transform.reconstruct", None),
    ("triplesat.pipeline", "check_partition", "encoder.check_partition", None),
    ("triplesat.drat", "check_proof", "drat.check_proof", _check_counts),
)


class Tracer:
    """Records spans while installed; `restore` puts the originals back."""

    def __init__(self):
        self.requests = []     # one span list per pipeline.run call
        self._open = []
        self._undo = []

    def install(self):
        """Wrap every probe and start a new request."""
        self.requests.append([])
        for module_name, path, name, counts in PROBES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, counts))
            self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, counts):
        spans, open_stack = self.requests[-1], self._open

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    open_stack[-1] if open_stack else None, None]
            open_stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w") as handle:
            for request, spans in enumerate(self.requests):
                for name, start, end, parent, info in spans:
                    handle.write(json.dumps(
                        {"request": request, "name": name, "start": start,
                         "end": end, "parent": parent, "info": info}) + "\n")


def request_metrics(spans):
    """Per-layer numbers of one request, derived from its spans.

    A span's self time is its duration minus that of its direct children;
    a layer's self time sums its spans' self times.  `lookahead.self_s`
    leaves out `residual_clauses`, reported on its own as
    `lookahead.residual_s`, so it is split time minus the spans under it.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    total, calls = {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    info = dict.fromkeys(("nodes", "refuted", "eliminated", "conflicts",
                          "decisions", "propagations"), 0)
    cube_check = merged_check = 0.0
    lemmas = proof_lemmas = 0
    build = 0.0
    for (name, start, end, parent, extra), self_s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if name != "lookahead.residual_clauses":
            layer_self[name.split(".", 1)[0]] += self_s
        if name == "pipeline.solve_one_cube":
            build += end - start
        elif (name == "cdcl.Solver.solve" and parent is not None
              and spans[parent][0] == "pipeline.solve_one_cube"):
            build -= end - start
        if name == "drat.check_proof":
            lemmas += extra["lemmas"]
            if extra["merged"]:
                merged_check += end - start
                proof_lemmas += extra["lemmas"]
            else:
                cube_check += end - start
        elif extra:
            for key, value in extra.items():
                info[key] += value
    split_s = total.get("lookahead.split", 0.0)
    solve_s = total.get("cdcl.Solver.solve", 0.0)
    drat_s = cube_check + merged_check
    metrics = {
        "lookahead.split_s": split_s,
        "lookahead.nodes": info["nodes"],
        "lookahead.refuted_leaves": info["refuted"],
        "lookahead.node_s": split_s / info["nodes"] if info["nodes"] else 0.0,
        "lookahead.residual_s": total.get("lookahead.residual_clauses", 0.0),
        "cnf.propagate_calls": calls.get("cnf.propagate_clauses", 0),
        "cnf.propagate_s": total.get("cnf.propagate_clauses", 0.0),
        "cnf.parse_dimacs_s": total.get("cnf.parse_dimacs", 0.0),
        "cdcl.build_s": build,
        "cdcl.solve_s": solve_s,
        "cdcl.conflicts": info["conflicts"],
        "cdcl.decisions": info["decisions"],
        "cdcl.propagations": info["propagations"],
        "cdcl.propagations_per_s": info["propagations"] / solve_s if solve_s else 0.0,
        "encoder.encode_s": total.get("encoder.encode", 0.0),
        "transform.bce_s": total.get("transform.bce", 0.0),
        "transform.bce_eliminated": info["eliminated"],
        "transform.symmetry_s": total.get("transform.symmetry_break", 0.0),
        "drat.cube_check_s": cube_check,
        "drat.merged_check_s": merged_check,
        "drat.lemmas_checked": lemmas,
        "drat.lemmas_per_s": lemmas / drat_s if drat_s else 0.0,
        "drat.proof_lemmas": proof_lemmas,
    }
    for layer in LAYERS:
        metrics[layer + ".self_s"] = layer_self[layer]
    return metrics


def propagate_ms(requests):
    """Durations of single `propagate_clauses` calls, in milliseconds."""
    return [(end - start) * 1e3 for spans in requests
            for name, start, end, _, _ in spans if name == "cnf.propagate_clauses"]
