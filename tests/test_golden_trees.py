"""Pinned cube lists: a faster look-ahead must build exactly the same trees.

The digests were recorded with the full-rescan look-ahead.  Any change to
the weights, their summation order or the tie-breaks shows up here.
"""

import hashlib
import random

import pytest

from triplesat import pipeline
from triplesat.cnf import Formula
from triplesat.encoder import encode
from triplesat.lookahead import MODES, cubes, parse_cutoff, split
from triplesat.transform import bce, symmetry_break


def cube_digest(cube_list):
    text = ";".join(" ".join(map(str, cube)) for cube in cube_list)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def random_3sat(num_vars, num_clauses, seed):
    """Uniform random 3-SAT: three distinct variables, fair random signs."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return Formula(clauses, num_vars)


@pytest.mark.parametrize("n, digest", [(300, "86e6f9d9f6711f81"),
                                       (1000, "5878773ab8689de9")])
def test_pipeline_cube_list(n, digest, monkeypatch):
    seen = []

    def capture(tree, original=pipeline.cubes):
        seen.append(original(tree))
        return seen[-1]

    monkeypatch.setattr(pipeline, "cubes", capture)
    pipeline.run(pipeline.PipelineConfig(n=n, cutoff="depth:3"))
    assert cube_digest(seen[0]) == digest


RANDOM_DIGESTS = {"ptn3sat": "a52b186c3e9bfbc8", "rnd3sat": "7ec824aa0102b7d5",
                  "count_bin": "86116ab46c8cb760", "count_var": "81d22019311c0621"}


@pytest.mark.parametrize("mode", MODES)
def test_random_3sat_split(mode):
    formula = random_3sat(130, 624, 11)
    tree = split(formula, parse_cutoff("depth:3"), mode)
    assert cube_digest(cubes(tree)) == RANDOM_DIGESTS[mode]


def test_paper_size_split():
    """The paper's n=7825 formula, transformed as the pipeline does: 15
    measured nodes whose free-variable sets are the size of the paper's."""
    formula = symmetry_break(bce(encode(7825))[0])[0]
    tree = split(formula, parse_cutoff("depth:4"), "ptn3sat", preselect=0.1)
    assert cube_digest(cubes(tree)) == "907ec38f4ae56912"
