"""Backbone computation and the arithmetic behind the full-scale one.

At full scale the backbone of the transformed n = 7824 formula pins
2304 variables; the classic witness is that 5180 and 5865 in one part
force 7825 into the other, while 625 and 7800 force it back.  We verify
that arithmetic mechanically, then compute complete backbones at a
scale where every model can be enumerated.
"""

from triplesat.cdcl import backbone
from triplesat.cnf import Formula
from triplesat.encoder import arithmetic_witness_check, encode, is_pythagorean

print("(5180, 5865, 7825) is a triple:", is_pythagorean(5180, 5865, 7825))
print("(625, 7800, 7825) is a triple: ", is_pythagorean(625, 7800, 7825))
print("joint forcing on x7825 conflicts under propagation:",
      arithmetic_witness_check())
print()

examples = [
    Formula([(1,), (1, 2)]),
    Formula([(1, 2), (1, -2)]),
    Formula([(1, 2, 3), (-1, -2, -3), (1, -2), (2, -3)]),
]
for formula in examples:
    literals = backbone(formula)
    print("backbone of %s = %s"
          % (list(formula.clauses), sorted(literals, key=abs)))

# small Pythagorean instances have empty backbones: flip symmetry means
# no literal can be forced before symmetry breaking
print()
print("backbone of encode(60):", sorted(backbone(encode(60)), key=abs))
