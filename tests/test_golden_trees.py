"""Pinned cube lists: a faster look-ahead must build exactly the same trees.

The digests were recorded with the full-rescan look-ahead, and the trees
of depth 2 and more pinned again when each node below the root came to
start its h-table from its parent's, with one round.  Any change to the
weights, their summation order or the tie-breaks shows up here.
"""

import hashlib

import pytest

from triplesat import pipeline
from triplesat.encoder import encode
from triplesat.lookahead import MODES, cubes, parse_cutoff, split
from triplesat.transform import bce, symmetry_break

from conftest import random_3sat


def cube_digest(cube_list):
    text = ";".join(" ".join(map(str, cube)) for cube in cube_list)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


PIPELINE_DIGESTS = {300: "6715e60cb152a1e3", 1000: "a39ff9a87af9c968"}


@pytest.mark.parametrize("n", PIPELINE_DIGESTS)
def test_pipeline_cube_list(n, monkeypatch):
    seen = []

    def capture(tree, original=pipeline.cubes):
        seen.append(original(tree))
        return seen[-1]

    monkeypatch.setattr(pipeline, "cubes", capture)
    pipeline.run(pipeline.PipelineConfig(n=n, cutoff="depth:3"))
    assert cube_digest(seen[0]) == PIPELINE_DIGESTS[n]


RANDOM_DIGESTS = {"ptn3sat": "309aa97a334aa2ca", "rnd3sat": "7ec824aa0102b7d5",
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
    assert cube_digest(cubes(tree)) == "4283726224803a64"
