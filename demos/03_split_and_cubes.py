"""Look-ahead splitting: build a cube tree, inspect the heuristic, and
round-trip the tree through the compressed .ptct codec.
"""

from collections import Counter

from triplesat.cubecodec import decode_tree, encode_tree
from triplesat.encoder import encode
from triplesat.lookahead import (LookaheadEngine, _compute_h, _measure, cubes,
                                 leaf_cubes, params_for_mode, parse_cutoff,
                                 residual_clauses, split, write_inccnf)
from triplesat.transform import bce


def branch_scores(formula, assignment, mode):
    """Score table {variable: score} for one mode under `assignment`
    {variable: bool}, as split measures a node's candidates."""
    true = {var if value else -var for var, value in assignment.items()}
    residual = residual_clauses(formula.clauses, true)
    free = {abs(l) for c in residual for l in c}
    h = _compute_h(residual, free, params_for_mode(mode))
    return _measure(LookaheadEngine(residual), h, sorted(free), mode)[2]


formula, _ = bce(encode(300))
print("splitting the reduced n=300 encoding (%d clauses)" % len(formula.clauses))

scores = branch_scores(formula, {}, "ptn3sat")
best = sorted(scores, key=lambda v: -scores[v])[:5]
print("top root candidates by H(x)*H(-x):",
      ", ".join("x%d=%.1f" % (v, scores[v]) for v in best))

tree = split(formula, parse_cutoff("bin:40,depth:12"))
statuses = Counter(status for _, status in leaf_cubes(tree))
cube_list = cubes(tree)
sizes = Counter(len(c) for c in cube_list)
print("%d cubes (%s), size histogram: %s"
      % (len(cube_list), dict(statuses), dict(sorted(sizes.items()))))

inccnf = write_inccnf(formula, cube_list)
packed = encode_tree(tree)
print("inccnf file: %d bytes; packed tree: %d bytes (%.1fx smaller)"
      % (len(inccnf), len(packed), len(inccnf) / len(packed)))

assert decode_tree(packed) == tree
print("codec round trip: identical tree recovered")
