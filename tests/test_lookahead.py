import inspect
import sys
from collections import Counter

import pytest

from triplesat import cnf, lookahead
from triplesat.cnf import DimacsError, Formula, Propagator, propagate_clauses
from triplesat.encoder import encode
from triplesat.lookahead import (CUTOFF, CutoffPolicy, HeuristicParams, HTable,
                                 Leaf, LookaheadEngine, LookaheadError, MODE_BIN,
                                 MODE_PTN, MODE_RND, MODE_VAR, MODES, Node,
                                 PTN_PARAMS, REFUTED, RND_PARAMS, _compute_h,
                                 _measure, cubes, leaf_cubes, negate_cubes,
                                 params_for_mode, parse_cutoff, parse_inccnf,
                                 residual_clauses, split, write_inccnf)

from conftest import (FIG3_CUBES, brute_sat, cubes_cover_all, random_formula,
                      random_tree, reference_look_ahead, reference_split,
                      true_literals)


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


def test_round_zero_mean_is_one():
    table = _compute_h([(1, 2, 3), (-1, -2, 4)],
                       HeuristicParams(alpha=0.5, beta=10, iterations=1))
    assert table.means[0] == 1.0


def test_h1_clamps_up_to_alpha():
    table = _compute_h([(1, 2, 3)],
                       HeuristicParams(alpha=8, beta=550, gamma=25, iterations=1))
    for lit in (1, 2, 3, -1, -2, -3):
        assert table.values[lit] == 8.0


def test_h1_small_alpha():
    table = _compute_h([(1, 2, 3)],
                       HeuristicParams(alpha=0.1, beta=25, gamma=3.3,
                                       iterations=1))
    for lit in (1, 2, 3):
        assert table.values[lit] == pytest.approx(1.0)
        assert table.values[-lit] == pytest.approx(0.1)


def test_h_clamp_bounds_always_hold(rng):
    for _ in range(50):
        formula = random_formula(rng, max_vars=10, allow_units=False)
        params = HeuristicParams(alpha=0.3, beta=4.0, gamma=2.0, iterations=4)
        table = _compute_h(formula.clauses, params)
        for value in table.values.values():
            assert params.alpha <= value <= params.beta


def test_h_rejects_long_clauses():
    with pytest.raises(LookaheadError):
        _compute_h([(1, 2, 3, 4)], HeuristicParams())


def test_look_ahead_counts_new_binary():
    residual = [(1, 2, 3)]
    table = _compute_h(residual, HeuristicParams(alpha=0.1, beta=25,
                                                 iterations=1))
    engine = LookaheadEngine(residual, table)
    weight, assigned, new_binaries, refuted = engine.look_ahead(-1)
    assert not refuted
    assert new_binaries == 1
    assert weight == pytest.approx(table.values[-2] * table.values[-3])


def test_look_ahead_pure_literal():
    residual = [(1, 2, 3)]
    table = _compute_h(residual, HeuristicParams())
    weight, _, new_binaries, refuted = LookaheadEngine(residual, table).look_ahead(1)
    assert (weight, new_binaries, refuted) == (0.0, 0, False)


def test_look_ahead_refuted():
    residual = [(1,), (-1, 2), (-2,)]
    # propagation of 1 chains to a conflict with (-2)
    _, conflict = propagate_clauses(residual, [1])
    assert conflict
    table = _compute_h([(2, 3)], HeuristicParams())
    assert LookaheadEngine(residual, table).look_ahead(1)[3] is True


def test_look_ahead_asserts_residual_units_and_empty_clauses():
    # under {1: False} the residual holds the unit (2,), which every
    # look-ahead asserts after its own literal
    table = _compute_h([(2, 3, 4)], HeuristicParams())
    h = table.values
    clauses = [(1, 2), (-2, 3, 4), (3, 5)]
    engine = LookaheadEngine(residual_clauses(clauses, {-1}), table)
    assert engine.look_ahead(5) == (h[-3] * h[-4], 2, 1, False)
    engine = LookaheadEngine(residual_clauses(clauses, {-1, -3}), table)
    assert engine.look_ahead(-4)[3] is True
    # an empty residual clause refutes every look-ahead
    with_empty = residual_clauses([(1,), (2, 3, 4)], {-1})
    assert LookaheadEngine(with_empty, table).look_ahead(2)[3] is True


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
    residuals keep unit and empty clauses."""
    seen_units = seen_empty = seen_weights = 0
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
            table = _compute_h(residual, rng.choice([PTN_PARAMS, RND_PARAMS]))
        else:
            # magnitudes far apart make the float sum depend on its order
            table = HTable({lit: rng.random() * 10.0 ** rng.randint(-8, 8)
                            for v in range(1, formula.num_vars + 1)
                            for lit in (v, -v)}, [])
        engine = LookaheadEngine(residual, table)
        free = [v for v in range(1, formula.num_vars + 1) if v not in assignment]
        for lit in [l for v in free for l in (v, -v)]:
            got = engine.look_ahead(lit)
            want = reference_look_ahead(residual, lit, table)
            assert got[0] == want[0]
            assert got[2:] == want[2:]
            if not want[3]:
                assert got[1] == want[1]
            seen_weights += got[0] > 0
    assert seen_units and seen_empty and seen_weights


def test_select_branch_count_bin():
    residual = [(1, 2, 3), (-1, 2, 3)]
    table = _compute_h(residual, HeuristicParams())
    assert _measure(LookaheadEngine(residual, table), MODE_BIN)[0] == 1


def test_select_branch_tie_break_smallest():
    # fully symmetric: both clauses of the sole triple of encode(5)
    residual = list(encode(5).clauses)
    table = _compute_h(residual, HeuristicParams())
    assert _measure(LookaheadEngine(residual, table), MODE_PTN)[0] == 3


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


def test_inccnf_requires_header():
    with pytest.raises(ValueError):
        parse_inccnf("1 2 0\na 1 0\n")


@pytest.mark.parametrize("text, line", [("p inccnf\n1 0 2 0\n", 2),
                                        ("p inccnf\n1 2 0\na 1 y 0\n", 3)],
                         ids=["interior-zero", "non-integer"])
def test_inccnf_reports_bad_lines(text, line):
    with pytest.raises(DimacsError) as info:
        parse_inccnf(text)
    assert info.value.line == line
