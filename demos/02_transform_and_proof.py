"""Preprocessing walkthrough: blocked clause elimination, symmetry
breaking, and the transformation proof that justifies both.

Reproduces the reference clause counts at full scale (n = 7825) and
shows that a model of the reduced formula can be repaired into a model
of the original one.
"""

import time

from triplesat import cdcl, drat
from triplesat.cnf import SATISFIED, evaluate
from triplesat.encoder import encode, occurrence_stats
from triplesat.transform import bce, emit_transform_proof, reconstruct, symmetry_break

formula = encode(7825)
occ, _, top = occurrence_stats(formula)
print("encode(7825): %d clauses, %d occurring variables, most frequent x%d"
      % (len(formula.clauses), occ, top))

start = time.perf_counter()
reduced, stack = bce(formula)
print("BCE: %d clauses remain, %d eliminated (%.2fs)"
      % (len(reduced.clauses), len(stack), time.perf_counter() - start))
occ, _, _ = occurrence_stats(reduced)
print("occurring variables after BCE: %d" % occ)

broken, pivot = symmetry_break(reduced)
print("flip-symmetry pivot: x%d (fixed to true)" % pivot)

proof = emit_transform_proof(stack, pivot)
print("transformation proof: %d deletions + 1 unit addition" % (len(proof) - 1))

# deletions of blocked clauses always pass the checker; the unit needs
# the symmetry-pivot policy
result = drat.check_proof(formula, proof, symmetry_pivots=(pivot,))
print("checker verdict on the transformation proof:",
      "accepted" if result else "rejected")

# model repair at a friendlier scale
small = encode(300)
small_reduced, small_stack = bce(small)
model = cdcl.solve(small_reduced).model
repaired = reconstruct(model, small_stack, formula=small_reduced)
print("n=300 repaired model satisfies the original formula:",
      evaluate(small, repaired) == SATISFIED)
