import inspect
import re
import sys
import tracemalloc
from collections import Counter

import pytest

from triplesat import cnf, lookahead
from triplesat.cnf import (DimacsError, Formula, Propagator, parse_dimacs,
                           propagate_clauses)
from triplesat.drat import check_proof
from triplesat.encoder import encode
from triplesat.lookahead import (CUTOFF, CutoffPolicy, HeuristicParams, Leaf,
                                 LookaheadEngine, LookaheadError, MODE_BIN,
                                 MODE_PTN, MODE_RND, MODE_VAR, MODES, Node,
                                 PTN_PARAMS, REFUTED, RND_PARAMS, _compute_h,
                                 _measure, cubes, leaf_cubes, params_for_mode,
                                 parse_cutoff, parse_inccnf, preorder,
                                 residual_clauses, split, tautology_proof,
                                 write_inccnf)
from triplesat.transform import bce, symmetry_break

from conftest import (FIG3_CUBES, brute_sat, cubes_cover_all, negate_cubes,
                      random_formula, random_tree, reference_compute_h,
                      reference_look_ahead, reference_split, true_literals)


def test_params_validation():
    with pytest.raises(ValueError):
        HeuristicParams(alpha=0)
    with pytest.raises(ValueError):
        HeuristicParams(alpha=10, beta=5)
    with pytest.raises(ValueError):
        HeuristicParams(iterations=0)


def test_params_presets():
    p = params_for_mode(MODE_PTN)
    assert (p.alpha, p.beta, p.gamma) == (8.0, 550.0, 25.0)
    r = params_for_mode(MODE_RND)
    assert (r.alpha, r.beta, r.gamma) == (0.1, 25.0, 3.3)


def test_params_for_mode_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'nosuchmode'"):
        params_for_mode("nosuchmode")
    assert [params_for_mode(mode) for mode in MODES] == [
        PTN_PARAMS, RND_PARAMS, PTN_PARAMS, PTN_PARAMS]


def test_parse_cutoff():
    policy = parse_cutoff("bin:3000,vars:3450,depth:20")
    assert policy.min_binaries == 3000
    assert policy.max_free_vars == 3450
    assert policy.depth_limit == 20
    assert parse_cutoff("bin:10").depth_limit == 64
    with pytest.raises(ValueError, match="unknown cutoff kind 'bogus'"):
        parse_cutoff("bogus:1")
    with pytest.raises(ValueError, match="malformed cutoff 'nonsense'"):
        parse_cutoff("nonsense")
    with pytest.raises(ValueError, match="cutoff 'depth:x': 'x' is not an integer"):
        parse_cutoff("bin:10,depth:x")
    for part in ("depth:-1", "bin:-5", "vars:-3"):
        with pytest.raises(ValueError, match="cutoff '%s': -[0-9] is negative" % part):
            parse_cutoff("bin:10,%s" % part)
    assert parse_cutoff("depth:0,bin:0,vars:0").depth_limit == 0
    # a repeated kind does not silently keep its last value
    for spec, kind in (("depth:3,depth:5", "depth"), ("bin:1,vars:2,bin:1", "bin")):
        with pytest.raises(ValueError, match="cutoff kind '%s' given twice" % kind):
            parse_cutoff(spec)
    # an empty spec or part is not the default policy
    for spec in ("", ",,", " ", "depth:3,", "depth:3,,bin:4"):
        with pytest.raises(ValueError, match="malformed cutoff ''"):
            parse_cutoff(spec)


def test_parse_cutoff_takes_dimacs_integers_only():
    # `int` alone reads "+3" as 3, "1_0" as 10 and "٣" as 3
    for part in ("depth:+3", "bin:1_0", "vars:٣", "depth:²", "bin:4 4"):
        message = "cutoff %r: %r is not an integer" % (
            part, part.partition(":")[2])
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_cutoff("bin:10,%s" % part)
    with pytest.raises(ValueError, match="cutoff 'depth:-1': -1 is negative"):
        parse_cutoff("depth:-1")
    # spaces around a value are not part of it, as `int` had it
    policy = parse_cutoff(" depth: 3 ,bin:\t4")
    assert (policy.depth_limit, policy.min_binaries) == (3, 4)


@pytest.mark.parametrize("preselect", [0, 0.0, -1, 1.5, float("nan"),
                                       float("inf"), -float("inf")])
def test_split_rejects_preselect_outside_unit_interval(preselect):
    with pytest.raises(ValueError, match=r"preselect must be in \(0, 1\]"):
        split(encode(30), parse_cutoff("depth:2"), preselect=preselect)


def free_vars(residual):
    """The variables of `residual`, as split builds the set."""
    return {abs(l) for c in residual for l in c}


def h_table(residual, params):
    return _compute_h(residual, free_vars(residual), params)


def test_round_zero_mean_is_one():
    # with mean 1, one round's raw weights are plain sums of products of 1.0
    table = h_table([(1, 2, 3), (-1, -2, 4)],
                    HeuristicParams(alpha=0.5, beta=10, iterations=1))
    assert table == {1: 1.0, -1: 1.0, 2: 1.0, -2: 1.0, 3: 1.0, -3: 0.5,
                     4: 1.0, -4: 0.5}


def test_h1_clamps_up_to_alpha():
    table = h_table([(1, 2, 3)],
                    HeuristicParams(alpha=8, beta=550, gamma=25, iterations=1))
    for lit in (1, 2, 3, -1, -2, -3):
        assert table[lit] == 8.0


def test_h1_small_alpha():
    table = h_table([(1, 2, 3)],
                    HeuristicParams(alpha=0.1, beta=25, gamma=3.3, iterations=1))
    for lit in (1, 2, 3):
        assert table[lit] == pytest.approx(1.0)
        assert table[-lit] == pytest.approx(0.1)


def test_h_clamp_bounds_always_hold(rng):
    for _ in range(50):
        formula = random_formula(rng, max_vars=10, allow_units=False)
        params = HeuristicParams(alpha=0.3, beta=4.0, gamma=2.0, iterations=4)
        table = h_table(formula.clauses, params)
        for value in table.values():
            assert params.alpha <= value <= params.beta


def _spread_residual(rng):
    """Binary and ternary clauses over variables spread far apart, so the
    free-variable set's slots collide and its iteration order depends on
    the order the variables were added in."""
    pool = rng.sample(range(1, 1 << rng.randint(8, 16)), rng.randint(3, 60))
    residual = []
    for _ in range(rng.randint(1, 3 * len(pool))):
        width = 2 if rng.random() < 0.4 else 3
        residual.append(tuple(v if rng.random() < 0.5 else -v
                              for v in rng.sample(pool, width)))
    return residual


def _hex_items(table):
    return [(lit, value.hex()) for lit, value in table.items()]


def test_compute_h_matches_reference(rng):
    """The h-table is bit for bit, and in key order, the one of the copy
    that built its own free-variable set and h-table object per call."""
    collided = 0
    for case in range(400):
        residual = _spread_residual(rng)
        free = free_vars(residual)
        # without slot collisions a set's order does not depend on the
        # order its elements were added in
        collided += list(free) != list(set(sorted(free)))
        params = [PTN_PARAMS, RND_PARAMS,
                  HeuristicParams(alpha=0.5, beta=80.0, gamma=7.0,
                                  iterations=6)][case % 3]
        assert _hex_items(_compute_h(residual, free, params)) == \
            _hex_items(reference_compute_h(residual, params).values)
    assert collided >= 100


def test_compute_h_matches_reference_at_paper_size():
    """The root residual of the paper's n=7825 formula."""
    formula = symmetry_break(bce(encode(7825))[0])[0]
    true, conflict = Propagator(formula.clauses).fixpoint([])
    assert not conflict
    residual = residual_clauses(formula.clauses, true)
    assert _hex_items(h_table(residual, PTN_PARAMS)) == \
        _hex_items(reference_compute_h(residual, PTN_PARAMS).values)


def test_compute_h_means_sum_left_to_right():
    """Each round's mean is a left-to-right float sum, as the reference's
    explicit loop takes it, on every Python version: on this residual the
    compensated float `sum()` of Python 3.12 and later gives another
    table.  (Before 3.12 `sum()` is the same loop, so there this test
    cannot tell the two apart.)"""
    formula = symmetry_break(bce(encode(1000))[0])[0]
    true, conflict = Propagator(formula.clauses).fixpoint([])
    assert not conflict
    residual = residual_clauses(formula.clauses, true)
    assert _hex_items(h_table(residual, PTN_PARAMS)) == \
        _hex_items(reference_compute_h(residual, PTN_PARAMS).values)


def test_compute_h_memory_does_not_grow_with_variable_numbers():
    """The h-table's lists hold a slot per free literal, not one per
    literal up to the largest variable number, so a formula naming a
    variable in the millions splits in a few kilobytes."""
    formula = parse_dimacs(b"p cnf 1000000 2\n1 2 1000000 0\n-1 -2 3 0\n")
    residual = list(formula.clauses)
    tracemalloc.start()
    try:
        table = h_table(residual, PTN_PARAMS)
        tree = split(formula, parse_cutoff("depth:2"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _hex_items(table) == \
        _hex_items(reference_compute_h(residual, PTN_PARAMS).values)
    assert leaf_cubes(tree) == \
        leaf_cubes(reference_split(formula, parse_cutoff("depth:2")))
    assert peak < 1 << 20


# (1 | 2 | 3 | 4) keeps its four literals at the root: nothing propagates
LONG_CLAUSE = Formula([(1, 2, 3, 4), (-1, -2, 5), (2, 3, -5)], 5)


def test_split_long_clause_is_cutoff_leaf_when_cutoff_fires():
    # the cutoff test comes before the h-table, which needs 3-CNF
    assert split(LONG_CLAUSE, parse_cutoff("bin:0")) == Leaf(CUTOFF)


def test_split_long_clause_raises_when_node_is_measured():
    with pytest.raises(LookaheadError, match=r"\(1, 2, 3, 4\) longer than 3"):
        split(LONG_CLAUSE, parse_cutoff("depth:1"))


def test_look_ahead_counts_new_binary():
    residual = [(1, 2, 3)]
    table = h_table(residual, HeuristicParams(alpha=0.1, beta=25, iterations=1))
    weight, assigned, new_binaries, refuted = \
        LookaheadEngine(residual).look_ahead(-1, table)
    assert not refuted
    assert new_binaries == 1
    assert weight == pytest.approx(table[-2] * table[-3])


def test_look_ahead_pure_literal():
    residual = [(1, 2, 3)]
    table = h_table(residual, HeuristicParams())
    weight, _, new_binaries, refuted = \
        LookaheadEngine(residual).look_ahead(1, table)
    assert (weight, new_binaries, refuted) == (0.0, 0, False)


def test_look_ahead_refuted():
    residual = [(1,), (-1, 2), (-2,)]
    # propagation of 1 chains to a conflict with (-2)
    _, conflict = propagate_clauses(residual, [1])
    assert conflict
    table = h_table([(2, 3)], HeuristicParams())
    assert LookaheadEngine(residual).look_ahead(1, table)[3] is True


def test_look_ahead_asserts_residual_units_and_empty_clauses():
    # under {1: False} the residual holds the unit (2,), which every
    # look-ahead asserts after its own literal
    h = h_table([(2, 3, 4)], HeuristicParams())
    clauses = [(1, 2), (-2, 3, 4), (3, 5)]
    engine = LookaheadEngine(residual_clauses(clauses, {-1}))
    assert engine.look_ahead(5, h) == (h[-3] * h[-4], 2, 1, False)
    engine = LookaheadEngine(residual_clauses(clauses, {-1, -3}))
    assert engine.look_ahead(-4, h)[3] is True
    # an empty residual clause refutes every look-ahead
    with_empty = residual_clauses([(1,), (2, 3, 4)], {-1})
    assert LookaheadEngine(with_empty).look_ahead(2, h)[3] is True


def _with_tautologies(rng, formula):
    clauses = list(formula.clauses)
    for _ in range(rng.randint(0, 2)):
        var, other = rng.sample(range(1, formula.num_vars + 1), 2)
        clauses.insert(rng.randint(0, len(clauses)),
                       (var, -var, other if rng.random() < 0.5 else -other))
    return Formula(clauses, formula.num_vars)


def test_engine_matches_reference_look_ahead(rng):
    """Differential check of the per-node engine against the full-rescan
    look-ahead, under partial assignments that need not be fixpoints, so
    residuals keep unit and empty clauses.  The reference's values cover
    a literal that propagates nothing and one that propagates, each with
    and without weight."""
    seen_units = seen_empty = seen_weights = 0
    seen_kinds = Counter()
    for case in range(400):
        formula = _with_tautologies(rng, random_formula(
            rng, max_vars=12, allow_units=case % 4 == 0))
        assignment = {var: rng.random() < 0.5
                      for var in range(1, formula.num_vars + 1)
                      if rng.random() < 0.25}
        residual = residual_clauses(formula.clauses, true_literals(assignment))
        seen_units += any(len(c) == 1 for c in residual)
        seen_empty += any(not c for c in residual)
        if rng.random() < 0.5:
            table = h_table(residual, rng.choice([PTN_PARAMS, RND_PARAMS]))
        else:
            # magnitudes far apart make the float sum depend on its order
            table = {lit: rng.random() * 10.0 ** rng.randint(-8, 8)
                     for v in range(1, formula.num_vars + 1)
                     for lit in (v, -v)}
        engine = LookaheadEngine(residual)
        free = [v for v in range(1, formula.num_vars + 1) if v not in assignment]
        for lit in [l for v in free for l in (v, -v)]:
            got = engine.look_ahead(lit, table)
            want = reference_look_ahead(residual, lit, table)
            assert got[0] == want[0]
            assert got[2:] == want[2:]
            if not want[3]:
                assert got[1] == want[1]
                seen_kinds[want[1] == 1, want[0] > 0] += 1
            seen_weights += got[0] > 0
    assert seen_units and seen_empty and seen_weights
    assert len(seen_kinds) == 4, seen_kinds


def _best(residual, mode):
    table = h_table(residual, HeuristicParams())
    engine = LookaheadEngine(residual)
    return _measure(engine, table, sorted(free_vars(residual)), mode)[0]


def test_select_branch_count_bin():
    assert _best([(1, 2, 3), (-1, 2, 3)], MODE_BIN) == 1


def test_select_branch_tie_break_smallest():
    # fully symmetric: both clauses of the sole triple of encode(5)
    assert _best(list(encode(5).clauses), MODE_PTN) == 3


def test_residual_clauses():
    clauses = [(1, 2, 3), (-1, 4), (2, 5)]
    assert residual_clauses(clauses, {1}) == [(2, 5)] or \
        residual_clauses(clauses, {1}) == [(4,), (2, 5)]
    assert residual_clauses(clauses, {-1, -2}) == [(3,), (5,)]


def test_split_depth_zero():
    tree = split(encode(20), parse_cutoff("depth:0"))
    assert isinstance(tree, Leaf)
    assert cubes(tree) == [()]


def test_split_depth_limit_builds_no_residual(monkeypatch):
    """A node at the depth limit is a cutoff leaf once its fixpoint holds."""
    built = []

    def counting(clauses, assign, original=residual_clauses):
        built.append(len(assign))
        return original(clauses, assign)

    monkeypatch.setattr(lookahead, "residual_clauses", counting)
    tree = split(encode(60), parse_cutoff("depth:1"))
    assert isinstance(tree, Node)
    assert tree.yes == tree.no == Leaf(CUTOFF)
    assert built == [0]   # one residual: the root's, under the empty assignment


def test_split_refuted_at_depth_limit():
    # the fixpoint conflicts, so the leaf is refuted even where the depth
    # limit alone would make it a cutoff leaf
    formula = Formula([(1, 2), (-1,), (-2, 3), (-3,)])
    assert split(formula, parse_cutoff("depth:0")) == Leaf(REFUTED)


def test_split_matches_reference_split(rng):
    """Children settled on their parent's engine give the trees of
    propagating every node's full assumption list over the whole formula,
    with failed-literal rounds, refuted leaves, unit clauses, tautologies
    and preselection in play."""
    rounds = Counter()
    refuted = 0
    for case in range(300):
        formula = random_formula(rng, max_vars=12, allow_units=case % 5 == 0)
        if case % 2:
            formula = _with_tautologies(rng, formula)
        cutoff = parse_cutoff("depth:%d" % (1 + case % 6))
        for mode in MODES:
            for preselect in (1.0, 0.3):
                want = leaf_cubes(reference_split(formula, cutoff, mode,
                                                  preselect=preselect,
                                                  stats=rounds))
                got = leaf_cubes(split(formula, cutoff, mode,
                                       preselect=preselect))
                assert got == want, (formula, cutoff, mode, preselect)
                refuted += sum(status == REFUTED for _, status in want)
    assert rounds["failed_rounds"] >= 50
    assert refuted >= 50


def test_vars_cutoff_matches_reference_split(rng):
    """The paper's second cutoff, alone and beside bin:N: the trees are the
    reference's, they have cutoff leaves, and in some cases each trigger
    alone gives another tree."""
    seen = Counter()
    for _ in range(20):
        n = rng.randint(12, 20)
        formula = Formula([tuple(v if rng.random() < 0.5 else -v
                                 for v in rng.sample(range(1, n + 1), 3))
                           for _ in range(int(n * rng.uniform(3, 4.2)))], n)
        most, least = rng.randint(n // 3, 2 * n // 3), rng.randint(2, 3 * n // 4)
        specs = {"depth": "depth:64", "vars": "vars:%d" % most,
                 "bin": "bin:%d" % least,
                 "bin,vars": "bin:%d,vars:%d" % (least, most)}
        for mode in MODES:
            trees = {kind: leaf_cubes(split(formula, parse_cutoff(spec), mode))
                     for kind, spec in specs.items()}
            for kind in ("vars", "bin,vars"):
                cutoff = parse_cutoff(specs[kind])
                assert trees[kind] == leaf_cubes(
                    reference_split(formula, cutoff, mode))
                seen[kind] += any(status == CUTOFF for _, status in trees[kind])
            seen.update(pair for pair in [("vars", "depth"), ("bin,vars", "vars"),
                                          ("bin,vars", "bin")]
                        if trees[pair[0]] != trees[pair[1]])
    assert len(+seen) == 5, seen


def test_split_propagates_the_whole_formula_once(monkeypatch):
    """Only the root's fixpoint runs over the whole formula; every other
    propagator is a node's look-ahead engine over its residual."""
    formula = encode(300)
    over_formula = []
    original = Propagator.__init__

    def counting(self, clauses):
        over_formula.append(clauses is formula.clauses)
        original(self, clauses)

    def forbidden(*args, **kwargs):
        raise AssertionError("split called propagate_clauses")

    monkeypatch.setattr(Propagator, "__init__", counting)
    monkeypatch.setattr(lookahead, "propagate_clauses", forbidden)
    monkeypatch.setattr(cnf, "propagate_clauses", forbidden)
    tree = split(formula, parse_cutoff("depth:3"))
    assert len(cubes(tree)) == 8
    assert over_formula.count(True) == 1
    assert len(over_formula) == 1 + 7   # the root, then one engine per node


def test_split_policy_postcondition_encode100():
    """Cutoff leaves must have at least the threshold of binary clauses and
    their parents fewer (both measured after full propagation)."""
    formula = encode(100)
    tree = split(formula, parse_cutoff("bin:30"))

    def binaries(assumed):
        assign, conflict = propagate_clauses(formula.clauses, list(assumed))
        assert not conflict
        return sum(1 for c in residual_clauses(formula.clauses,
                                               true_literals(assign))
                   if len(c) == 2)

    seen_leaves = 0
    for cube, status in leaf_cubes(tree):
        if status != CUTOFF or not cube:
            continue
        seen_leaves += 1
        assert binaries(cube) >= 30
        assert binaries(cube[:-1]) < 30
    assert seen_leaves > 0


def test_split_cube_exclusivity():
    tree = split(encode(60), parse_cutoff("depth:4"))
    cube_list = cubes(tree)
    assert len(cube_list) > 1
    for i, a in enumerate(cube_list):
        for b in cube_list[i + 1:]:
            assert any(-lit in b for lit in a)


def test_split_deterministic():
    one = split(encode(60), parse_cutoff("depth:4"))
    two = split(encode(60), parse_cutoff("depth:4"))
    assert one == two


def test_split_rejects_unknown_mode():
    # depth:0 measures no node, so only a check on entry can catch it
    for cutoff in ("depth:0", "depth:2"):
        with pytest.raises(ValueError, match="unknown mode 'nosuchmode'"):
            split(encode(60), parse_cutoff(cutoff), "nosuchmode")


def test_split_deeper_than_recursion_limit():
    # every variable of (3i+1 | 3i+2 | 3i+3) is pure, so each node branches
    # on its smallest variable: the yes-branch satisfies one clause and
    # goes on, the no-branch leaves a binary clause, a leaf under bin:1
    chain = 150
    formula = Formula([(3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(chain)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        tree = split(formula, parse_cutoff("bin:1,depth:%d" % (2 * chain)))
    finally:
        sys.setrecursionlimit(limit)
    cube_list = cubes(tree)
    decisions = tuple(3 * i + 1 for i in range(chain))
    assert len(cube_list) == chain + 1
    assert cube_list[0] == decisions
    assert cube_list[1] == decisions[:-1] + (-decisions[-1],)
    assert cube_list[-1] == (-1,)


def test_split_tautology_small(rng):
    for _ in range(30):
        formula = random_formula(rng, max_vars=8, allow_units=False)
        try:
            tree = split(formula, parse_cutoff("depth:3"))
        except LookaheadError:
            continue  # residual not 3-CNF
        assert not brute_sat(negate_cubes(cubes(tree)))


def test_split_modes_agree_on_coverage():
    formula = encode(60)
    for mode in (MODE_PTN, MODE_RND, MODE_BIN, MODE_VAR):
        tree = split(formula, parse_cutoff("depth:3"), mode)
        assert not brute_sat(negate_cubes(cubes(tree)))


def test_fig3_cube_order(fig3_tree):
    assert cubes(fig3_tree) == FIG3_CUBES


def test_preorder_paths(fig3_tree):
    walk = list(preorder(fig3_tree))
    assert [path for node, path in walk if isinstance(node, Leaf)] == FIG3_CUBES
    assert [path for node, path in walk if isinstance(node, Node)] == [
        (), (5,), (5, 3), (-5,), (-5, -2), (-5, -2, 3)]
    assert list(preorder(Leaf(CUTOFF))) == [(Leaf(CUTOFF), ())]


def test_tautology_proof_fig3(fig3_tree):
    # children before parents; the root's line is the empty clause
    assert tautology_proof(fig3_tree) == [
        ("a", (5, 2, -3)), ("a", (5, 2)), ("a", (5,)), ("a", (-5, -3)),
        ("a", (-5,)), ("a", ())]
    assert tautology_proof(Leaf(REFUTED)) == []


def test_tautology_proof_closes_exactly_the_tree(rng):
    """The tree's lines refute its cubes' negations, and no longer do once
    any one consistent cube's negation is left out: leaves partition the
    assignments, so that cube's assignments satisfy the rest.  A cube with
    a complementary pair covers nothing, so leaving it out may not matter."""
    trees = [random_tree(rng, max_depth=6, max_var=6) for _ in range(60)]
    while len(trees) < 90:
        formula = random_formula(rng, max_vars=8, allow_units=False)
        trees.append(split(formula, parse_cutoff("depth:4"),
                           rng.choice(MODES)))
    dropped = 0
    for tree in trees:
        cube_list = cubes(tree)
        proof = tautology_proof(tree)
        assert len(proof) == len(cube_list) - 1
        assert check_proof(negate_cubes(cube_list), proof, refutation=True)
        for index, cube in enumerate(cube_list):
            if any(-lit in cube for lit in cube):
                continue
            rest = cube_list[:index] + cube_list[index + 1:]
            formula = Formula([tuple(-lit for lit in c) for c in rest])
            assert not check_proof(formula, proof, refutation=True)
            dropped += 1
    assert sum(len(cubes(tree)) == 1 for tree in trees) > 5
    assert dropped > 300


def test_negate_cubes():
    formula = negate_cubes([(5, -3)])
    assert formula.clauses == ((-5, 3),)
    assert negate_cubes([()]).clauses == ((),)
    with pytest.raises(ValueError):
        negate_cubes([])


def test_cubes_cover_all_matches_brute_force(rng):
    """The bitmask coverage oracle equals "the negated cube list is UNSAT"
    on cube lists that overlap, miss assignments, repeat a literal or hold
    a complementary pair; tree cubes, some with one cube dropped, cover."""
    outcomes = []
    for trial in range(600):
        if trial % 2:
            cube_list = cubes(random_tree(rng, max_depth=4, max_var=6))
            if len(cube_list) > 1 and rng.random() < 0.5:
                del cube_list[rng.randrange(len(cube_list))]
        else:
            num_vars = rng.randint(1, 6)
            cube_list = [tuple(rng.choice((1, -1)) * rng.randint(1, num_vars)
                               for _ in range(rng.randint(0, num_vars)))
                         for _ in range(rng.randint(1, 12))]
        covers = not brute_sat(negate_cubes(cube_list))
        assert cubes_cover_all(cube_list) == covers, cube_list
        outcomes.append(covers)
    assert 100 < sum(outcomes) < 500


def test_write_inccnf_fig3(fig3_tree):
    text = write_inccnf(Formula([]), cubes(fig3_tree))
    assert text.splitlines() == [
        "p inccnf",
        "a 5 -3 0",
        "a 5 3 7 0",
        "a 5 3 -7 0",
        "a -5 2 0",
        "a -5 -2 3 -6 0",
        "a -5 -2 3 6 0",
        "a -5 -2 -3 0",
    ]


def test_inccnf_single_empty_cube():
    assert write_inccnf(Formula([]), [()]).splitlines() == ["p inccnf", "a 0"]


def test_inccnf_round_trip(rng):
    for _ in range(50):
        formula = random_formula(rng)
        cube_list = [tuple(rng.sample(range(1, 9), rng.randint(0, 3)))
                     for _ in range(rng.randint(1, 5))]
        again_formula, again_cubes = parse_inccnf(write_inccnf(formula, cube_list))
        assert again_formula.clauses == formula.clauses
        assert again_cubes == cube_list


@pytest.mark.parametrize("line, cube", [("a\t1 0", (1,)), ("a  1 0", (1,)),
                                        ("a\t0", ())])
def test_inccnf_cube_is_a_line_whose_first_token_is_a(line, cube):
    """Tokens split on any whitespace, as in every other DIMACS line."""
    formula, cube_list = parse_inccnf("p inccnf\n1 2 0\n%s\n" % line)
    assert formula.clauses == ((1, 2),)
    assert cube_list == [cube]


def test_inccnf_requires_header():
    for text in ("1 2 0\na 1 0\n", "", "c only a comment\n"):
        with pytest.raises(DimacsError) as info:
            parse_inccnf(text)
        assert info.value.line == 1


@pytest.mark.parametrize("text, line", [("p inccnf\n1 0 2 0\n", 2),
                                        ("p inccnf\n1 2 0\na 1 y 0\n", 3),
                                        ("p inccnf\na1 0\n", 2),
                                        ("1 2 0\np inccnf\na 1 0\n", 1),
                                        ("p inccnf\n1 0\np inccnf\n", 3)],
                         ids=["interior-zero", "non-integer", "a-glued-to-1",
                              "clause-before-header", "second-header"])
def test_inccnf_reports_bad_lines(text, line):
    with pytest.raises(DimacsError) as info:
        parse_inccnf(text)
    assert info.value.line == line


@pytest.mark.parametrize("data, line", [(b"\xff", 1),
                                        (b"p inccnf\n1 0\na \xff 0\n", 3)])
def test_inccnf_rejects_non_ascii(data, line):
    with pytest.raises(DimacsError, match="line %d: non-ASCII" % line) as info:
        parse_inccnf(data)
    assert info.value.line == line
