"""CNF encoding of Pythagorean-triple-free 2-partitions of {1..n}.

Variable i is true iff the integer i is placed in the positive part.
Each triple (a, b, c) with a^2 + b^2 = c^2 and c <= n contributes the
constraint that the three members do not all land in the same part:
(a | b | c) and (-a | -b | -c).
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, repeat

from .cnf import Formula, Propagator


def enumerate_triples(n):
    """All Pythagorean triples (a, b, c) with a < b < c <= n, sorted by (c, b, a).

    Euclid's formula gives every primitive triple exactly once, as
    (m^2 - k^2, 2mk, m^2 + k^2) for coprime m > k of opposite parity;
    every other triple is a multiple of one of them.
    """
    if n < 1:
        raise ValueError("n must be positive")
    triples = []
    for m in range(2, math.isqrt(n - 1) + 1):
        for k in range(1 + m % 2, m, 2):
            c = m * m + k * k
            if c > n:
                break
            if math.gcd(m, k) != 1:
                continue
            a, b = sorted((m * m - k * k, 2 * m * k))
            for t in range(1, n // c + 1):
                triples.append((t * a, t * b, t * c))
    triples.sort(key=lambda t: (t[2], t[1], t[0]))
    return triples


def is_pythagorean(a, b, c):
    return a * a + b * b == c * c


def arithmetic_witness_check():
    """Verify the two triples pinning variable 7825 and their joint conflict.

    (5180, 5865, 7825) forces 7825 into the negative part once 5180 and
    5865 are positive; (625, 7800, 7825) forces it positive once 625 and
    7800 are negative.  Unit propagation on the two constraints under
    those four facts must conflict.
    """
    if not (is_pythagorean(5180, 5865, 7825) and is_pythagorean(625, 7800, 7825)):
        return False
    constraints = [(-5180, -5865, -7825), (625, 7800, 7825)]
    _, conflict = Propagator(constraints).fixpoint([5180, 5865, -625, -7800])
    return conflict


def encode(n):
    """Formula asserting a triple-free 2-partition of {1..n}; var bound is n.

    Every literal is taken from one table of 2n+1 ints (`lits[-v]` is -v by
    negative indexing), so all clauses, and every later copy of them, share
    one int object per literal value.
    """
    lits = [*range(n + 1), *range(-n, 0)]
    clauses = []
    for a, b, c in enumerate_triples(n):
        clauses.append((lits[a], lits[b], lits[c]))
        clauses.append((lits[-a], lits[-b], lits[-c]))
    return Formula(clauses, num_vars=n)


def check_partition(n, partition):
    """First monochromatic triple in (c, b, a) order, or None if the partition is valid.

    partition maps integers to True (positive part) / False (negative part).
    Integers occurring in some triple must be assigned; others may be absent.
    """
    for triple in enumerate_triples(n):
        values = []
        for member in triple:
            if member not in partition:
                raise ValueError("integer %d occurs in triple %s but is unassigned"
                                 % (member, triple))
            values.append(bool(partition[member]))
        if values[0] == values[1] == values[2]:
            return triple
    return None


def occurrence_stats(formula):
    """Per-variable clause-membership counts.

    Returns (occurring variable count, Counter var -> occurrences, most
    frequent variable or None).  Ties go to the smallest variable index.
    """
    counts = Counter(chain.from_iterable(
        map(set, map(map, repeat(abs), formula.clauses))))
    if not counts:
        return 0, counts, None
    best = min(counts, key=lambda v: (-counts[v], v))
    return len(counts), counts, best
