import math

import pytest

from triplesat.cnf import Formula, is_flip_symmetric
from triplesat.encoder import (check_partition, encode, enumerate_triples,
                               occurrence_stats)

from conftest import brute_force


def brute_triples(n):
    """Independent enumeration by triple loop, no square-root tricks."""
    out = []
    for c in range(1, n + 1):
        for b in range(1, c):
            for a in range(1, b):
                if a * a + b * b == c * c:
                    out.append((a, b, c))
    return sorted(out, key=lambda t: (t[2], t[1], t[0]))


def test_encode_shares_one_int_per_literal():
    """Every literal slot of the encoding holds the one int object of its
    value, so the copies made by bce, symmetry breaking and split share
    them too."""
    formula = encode(1000)
    slots = [lit for clause in formula.clauses for lit in clause]
    assert len(slots) == 6 * len(enumerate_triples(1000))
    assert len({id(lit) for lit in slots}) == len(set(slots))


def test_no_triples_below_five():
    assert enumerate_triples(4) == []
    assert enumerate_triples(1) == []


def test_triples_need_n_at_least_one():
    for n in (0, -5):
        with pytest.raises(ValueError, match="n must be positive"):
            enumerate_triples(n)


def test_first_triple():
    assert enumerate_triples(5) == [(3, 4, 5)]


def test_triples_up_to_20():
    assert enumerate_triples(20) == [(3, 4, 5), (6, 8, 10), (5, 12, 13),
                                     (9, 12, 15), (8, 15, 17), (12, 16, 20)]


def test_triples_match_brute_force():
    for n in (1, 5, 17, 60, 150):
        assert enumerate_triples(n) == brute_triples(n)


def test_triples_are_pythagorean_and_ordered():
    triples = enumerate_triples(500)
    for a, b, c in triples:
        assert a < b < c <= 500
        assert a * a + b * b == c * c
    assert triples == sorted(triples, key=lambda t: (t[2], t[1], t[0]))


def test_triples_monotone():
    prev = enumerate_triples(100)
    for n in range(101, 121):
        cur = enumerate_triples(n)
        assert set(prev) <= set(cur)
        prev = cur


def test_encode_n5():
    formula = encode(5)
    assert list(formula.clauses) == [(3, 4, 5), (-3, -4, -5)]
    assert formula.num_vars == 5


def test_encode_shape():
    formula = encode(100)
    triples = enumerate_triples(100)
    assert len(formula.clauses) == 2 * len(triples)
    for clause in formula.clauses:
        assert len(clause) == 3
        signs = {l > 0 for l in clause}
        assert len(signs) == 1  # all same polarity


def test_encode_flip_symmetric():
    for n in (5, 30, 100):
        assert is_flip_symmetric(encode(n))


def test_encode_occurring_equals_triple_members():
    formula = encode(60)
    members = {x for t in enumerate_triples(60) for x in t}
    occurring = {abs(l) for c in formula.clauses for l in c}
    assert occurring == members


def test_check_partition_valid():
    assert check_partition(5, {3: True, 4: False, 5: True}) is None


def test_check_partition_violation():
    assert check_partition(5, {3: True, 4: True, 5: True}) == (3, 4, 5)


def test_check_partition_unassigned_member():
    with pytest.raises(ValueError):
        check_partition(5, {3: True, 4: False})


def test_check_partition_agrees_with_solver_small():
    for n in (25,):
        formula = encode(n)
        model = brute_force(formula)
        assert model is not None  # satisfiable at this scale
        for var in range(1, n + 1):
            model.setdefault(var, False)
        assert check_partition(n, model) is None


def test_occurrence_stats():
    occurring, counts, top = occurrence_stats(encode(20))
    assert top == 12
    assert counts[12] == 6
    assert occurring == len(counts)


def test_occurrence_stats_empty():
    occurring, counts, top = occurrence_stats(Formula([]))
    assert occurring == 0
    assert top is None
