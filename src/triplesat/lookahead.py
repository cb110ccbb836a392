"""Look-ahead based splitting: recursive weight heuristic, failed-literal
detection, branching-tree construction with cutoff policies, and cube
file (inccnf) handling.

Trees have one walk, `preorder`, which gives the leaf cubes, the `.ptct`
codec's token stream (`cubecodec.encode_tree`) and `tautology_proof`, the
tree's closing DRAT lines.

A look-ahead assigns a literal, propagates, and weighs the freshly
created binary clauses.  Literal weights h(l) are refined over a few
rounds: each round scales by the current mean and clamps into
[alpha, beta], with gamma weighting binary-clause contributions.  The
root's table runs `iterations` rounds from 1.0; every other node's
starts from the table its parent branched on and runs one round, since
a child's residual is its parent's with a few more literals assigned.

Each split node derives its residual, its set of free variables, its
binary-clause count and its h-table once.  Its residual and its
`LookaheadEngine`, the `cnf.Propagator` of the residual, come from the
propagator it settled on (`Propagator.of_residual`): only the clauses
holding a literal that the node's fixpoint assigned are reduced or
dropped, the others stay as the same tuples in clause order, and the
occurrence lists are the parent's, renumbered.  So the root's
`Propagator(formula.clauses)` is the only walk over the whole formula.
A child node settles on its parent's engine, and a pending child keeps
only its parent's residual and occurrence lists.

All look-aheads of a node go through its engine and take the h-table as
an argument.  When the residual has no unit or empty clause and the
complement of the look-ahead literal occurs only in ternary clauses whose
two other literals differ from each other and from the literal and its
complement, the literal alone is assigned: those clauses become
binary and are weighed straight from the occurrence list, with no
fixpoint.  Any other look-ahead propagates on a trail of its own, and
the fixpoint hands over the ternary clauses it left with two unassigned
literals: only those are weighed, in clause order.  Either way weights,
scores and trees are exactly those of propagating and rescanning the
whole residual per look-ahead.

The h-table's rounds run on flat lists indexed by each free variable's
position, with the same float operations in the same order as on a
dict, so each table matches a dict-based round bit for bit.  The warm
start below the root changes the tables, and with them the trees of
depth 2 and more: a depth:1 tree has only the root's table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Optional

# `propagate_clauses` is not called here: bench/spans.py wraps it where
# `lookahead` looks it up, so the name must stay importable from here.
from .cnf import (DimacsError, Formula, Propagator, clause_line,
                  is_dimacs_integer, numbered_lines, parse_clause_line,
                  propagate_clauses)

CUTOFF = "cutoff"
REFUTED = "refuted"

MODE_PTN = "ptn3sat"
MODE_RND = "rnd3sat"
MODE_BIN = "count_bin"
MODE_VAR = "count_var"


@dataclass
class HeuristicParams:
    alpha: float = 8.0
    beta: float = 550.0
    gamma: float = 25.0
    iterations: int = 4      # the root's rounds; every other node runs one

    def __post_init__(self):
        if not (0 < self.alpha <= self.beta):
            raise ValueError("need 0 < alpha <= beta")
        if self.gamma <= 0 or self.iterations < 1:
            raise ValueError("need gamma > 0 and iterations >= 1")


# Tuned for Pythagorean-triple style formulas vs. plain random 3-SAT.
PTN_PARAMS = HeuristicParams()
RND_PARAMS = HeuristicParams(alpha=0.1, beta=25.0, gamma=3.3, iterations=4)

# mode -> (the `look_ahead` field whose product over both polarities scores
# a variable: 0 weight, 1 assigned count, 2 new binaries; default params)
_MODE_TABLE = {MODE_PTN: (0, PTN_PARAMS), MODE_RND: (0, RND_PARAMS),
               MODE_BIN: (2, PTN_PARAMS), MODE_VAR: (1, PTN_PARAMS)}
MODES = tuple(_MODE_TABLE)


def check_mode(mode):
    """Raise ValueError unless `mode` is one of MODES."""
    if mode not in MODES:
        raise ValueError("unknown mode %r; expected one of %s"
                         % (mode, ", ".join(MODES)))


def params_for_mode(mode):
    check_mode(mode)
    return _MODE_TABLE[mode][1]


@dataclass
class Leaf:
    status: str


@dataclass
class Node:
    literal: int
    yes: object             # subtree where `literal` holds
    no: object              # subtree where its complement holds


@dataclass
class CutoffPolicy:
    """A node becomes a cutoff leaf at the depth limit, which the caller
    checks first, or when any enabled trigger fires."""
    min_binaries: Optional[int] = None   # binary-clause count >= threshold
    max_free_vars: Optional[int] = None  # unassigned occurring vars <= threshold
    depth_limit: int = 64                # mandatory termination bound

    def triggers(self, n_binaries, n_free_vars):
        if self.min_binaries is not None and n_binaries >= self.min_binaries:
            return True
        if self.max_free_vars is not None and n_free_vars <= self.max_free_vars:
            return True
        return False


def parse_cutoff(spec):
    """Parse 'bin:3000', 'vars:3450', 'depth:20', or comma-joined
    combinations; no part may be empty, no kind repeated and no value
    negative."""
    if not isinstance(spec, str):
        raise ValueError("cutoff spec must be a str, got %r" % (spec,))
    policy = CutoffPolicy()
    seen = set()
    for part in spec.split(","):
        part = part.strip()
        kind, _, value = part.partition(":")
        value = value.strip()
        if not value:
            raise ValueError("malformed cutoff %r" % part)
        if not is_dimacs_integer(value):
            raise ValueError("cutoff %r: %r is not an integer" % (part, value))
        value = int(value)
        if value < 0:
            raise ValueError("cutoff %r: %d is negative" % (part, value))
        if kind in seen:
            raise ValueError("cutoff kind %r given twice" % kind)
        seen.add(kind)
        if kind == "bin":
            policy.min_binaries = value
        elif kind == "vars":
            policy.max_free_vars = value
        elif kind == "depth":
            policy.depth_limit = value
        else:
            raise ValueError("unknown cutoff kind %r" % kind)
    return policy


class LookaheadError(ValueError):
    """Residual formula is not in binary/ternary form; heuristic undefined."""


def residual_clauses(clauses, true):
    """Reduce clauses under a set of true literals: drop satisfied clauses,
    strip false literals, keep clause and literal order.  This is the
    reduction `split` derives its residuals with; bench/spans.py wraps
    this name."""
    return Propagator.of_residual(Propagator(clauses), true).clauses


def _compute_h(residual, free, params, start=None):
    """The node's h-table {literal: weight}, over the variables `free`,
    the set of those occurring in `residual`.

    Without `start`, `params.iterations` rounds run from weights of 1.0.
    With `start`, the table of the node's parent, each literal's weight
    starts at `start[lit]` and one round runs: a child's free variables
    are among its parent's, so every literal has its key there.

    Each round's mean sums over `free` in its iteration order, and each
    literal's raw weight adds its clauses' terms in clause order, so the
    set must be built from the residual, clause by clause.  The rounds run
    on flat lists indexed by signed position: the i-th variable of `free`
    (from 1) is renamed i, so the lists hold 2*len(free)+1 slots however
    large the variable numbers are, and the residual is renamed once.
    The table returned has keys var, -var per variable of `free`.
    """
    order = list(free)
    position = {}
    for i, var in enumerate(order, 1):
        position[var] = i
        position[-var] = -i
    clauses = []
    for clause in residual:
        if len(clause) > 3:
            raise LookaheadError("residual clause %r longer than 3"
                                 % (clause,))
        if len(clause) > 1:
            clauses.append(tuple([position[lit] for lit in clause]))
    n = len(order)
    size = 2 * n + 1
    if start is None:
        h = [1.0] * size
        rounds = params.iterations
    else:
        # slot i holds var i, slot size - i (that is, -i) its complement
        h = [1.0, *[start[var] for var in order],
             *[start[-var] for var in reversed(order)]]
        rounds = 1
    alpha, gamma = params.alpha, params.gamma
    ceiling = max(alpha, params.beta)
    for _ in range(rounds):
        # summed left to right: float sum() is compensated from Python 3.12
        total = reduce(add, [h[i] + h[-i] for i in range(1, n + 1)], 0.0)
        mu = total / (2 * n) if n else 1.0
        ratio = [weight / mu for weight in h]
        raw = [0.0] * size
        for clause in clauses:
            if len(clause) == 3:
                x, y, z = clause
                hy, hz, hx = ratio[-y], ratio[-z], ratio[-x]
                raw[x] += hy * hz
                raw[y] += hx * hz
                raw[z] += hx * hy
            elif len(clause) == 2:
                x, y = clause
                raw[x] += gamma * h[-y] / mu
                raw[y] += gamma * h[-x] / mu
        # max(alpha, min(beta, weight)), ties and all, without the calls
        h = [(weight if weight > alpha else alpha) if weight < ceiling
             else ceiling for weight in raw]
    table = {}
    for i, var in enumerate(order, 1):
        table[var] = h[i]
        table[-var] = h[-i]
    return table


class LookaheadEngine(Propagator):
    """The look-aheads of one split node: the propagator of the node's
    residual.

    Derived once per node from the propagator the node settled on
    (`of_residual`), so the occurrence lists and the residual's unit
    clauses (which a non-fixpoint assignment can leave, and every
    look-ahead must assert too) are shared by all of its look-aheads.
    The node's h-table is passed to each look-ahead, not kept: a pending
    child holds its parent's table only as the start of its own.
    """

    def look_ahead(self, lit, h):
        """(weight, assigned count, new binary count, refuted) of `lit`.

        The weight sums h(~y) * h(~z) over the newly created binaries
        (y | z); refuted means propagation conflicts, forcing the
        complement.

        With no unit or empty clause in the residual, and every clause
        holding ~lit a ternary whose two other literals are distinct and
        neither lit nor ~lit, `lit` propagates nothing: those clauses are
        the new binaries, weighed in the ascending order of `occ[~lit]`.
        (A pair (a, ~a) is such a binary on both paths.)
        Otherwise the fixpoint hands over the ternary clauses it left with
        two unassigned literals.  Such a clause has one false literal or,
        satisfied since, a true one: two false ones would have made it
        unit.  They are weighed in ascending index, which the fixpoint's
        list already is when only `lit` holds.  Either way the weight is
        the same float sum a scan of the whole residual in clause order
        would give.
        """
        if not (self.units or self.has_empty):
            neg = -lit
            clauses = self.clauses
            occurrences = self.occ.get(neg, ())
            weight = 0.0
            for idx in occurrences:
                clause = clauses[idx]
                if len(clause) != 3:
                    break
                x, y, z = clause
                # (x, y) becomes the pair beside neg; float products commute
                if x == neg:
                    x = z
                elif y == neg:
                    y = z
                if x == y or x == lit or x == neg or y == lit or y == neg:
                    break
                weight += h[-x] * h[-y]
            else:
                return weight, 1, len(occurrences), False
        reduced = []
        true, conflict = self.fixpoint([lit], reduced)
        if conflict:
            return 0.0, len(true), 0, True
        if len(true) > 1:
            reduced = sorted(set(reduced))
        clauses = self.clauses
        weight = 0.0
        new_binaries = 0
        for idx in reduced:
            x, y, z = clauses[idx]
            if x in true or y in true or z in true:
                continue
            if -x in true:
                weight += h[-y] * h[-z]
            elif -y in true:
                weight += h[-x] * h[-z]
            else:
                weight += h[-x] * h[-y]
            new_binaries += 1
        return weight, len(true), new_binaries, False


def _candidates(free, h, preselect):
    """The variables to look ahead on, ascending: all of `free`, or its
    `preselect` share of highest h(v) * h(~v), ties to the smaller."""
    occurring = sorted(free)
    if preselect >= 1.0 or len(occurring) <= 1:
        return occurring
    keep = max(1, math.ceil(preselect * len(occurring)))
    ranked = sorted(occurring, key=lambda v: (-(h[v] * h[-v]), v))
    return sorted(ranked[:keep])


def _measure(engine, h, candidates, mode):
    """Look ahead on both polarities of every candidate variable.

    Returns (best variable, failed literals, scores).  The best is the
    smallest of the top-scoring variables that neither polarity refutes,
    or None.  Every refuted literal is failed and its variable unscored.
    """
    field = _MODE_TABLE[mode][0]
    best_var = None
    best_score = -1.0
    failed = []
    scores = {}
    for var in candidates:
        pos = engine.look_ahead(var, h)
        neg = engine.look_ahead(-var, h)
        if pos[3]:
            failed.append(var)
        if neg[3]:
            failed.append(-var)
        if pos[3] or neg[3]:
            continue
        score = pos[field] * neg[field]
        scores[var] = score
        if score > best_score:
            best_score = score
            best_var = var
    return best_var, failed, scores


def check_preselect(preselect):
    """Raise ValueError unless `preselect` is a share in (0, 1]: an int or
    a float, not a bool.  NaN and infinities fail the comparison."""
    if isinstance(preselect, bool) or not isinstance(preselect, (int, float)):
        raise ValueError("preselect must be an int or a float, got %r"
                         % (preselect,))
    if not 0 < preselect <= 1:
        raise ValueError("preselect must be in (0, 1], got %r" % (preselect,))


def split(formula, cutoff, mode=MODE_PTN, params=None, preselect=1.0):
    """Build a branching tree over `formula` by depth-first expansion.

    Decisions propagate fully between levels; failed literals force their
    complement at the same node; a node whose variable fails in both
    polarities (or whose residual is conflicting) becomes a refuted leaf.
    Only the root propagates over the whole formula.  A child's decision,
    or a round of forced complements, propagates on the look-ahead engine
    of the residual before it, which has no unit or empty clause left, so
    fixpoints and residuals are those over the whole formula.  Each
    node's engine is derived from that propagator, not rebuilt.
    Nodes are settled in preorder, yes-branch first, from an explicit
    stack, so the tree depth is bounded by the cutoff, not by the
    interpreter's recursion limit.
    """
    check_mode(mode)
    check_preselect(preselect)
    params = params or params_for_mode(mode)

    # (propagator, seed literals, depth, parent's h-table) of nodes still
    # to settle; the root's rounds start from 1.0
    pending = [(Propagator(formula.clauses), [], 0, None)]

    def next_node():
        """Settle the node on top of `pending`: a Leaf, or a Node whose
        children are pushed, on its look-ahead engine."""
        propagator, seeds, depth, start = pending.pop()
        while True:
            true, conflict = propagator.fixpoint(seeds)
            if conflict:
                return Leaf(REFUTED)
            if depth >= cutoff.depth_limit:
                return Leaf(CUTOFF)
            # the propagator settled on is freed here, unless a pending
            # sibling holds it, so it is not alive beside the h-table rounds
            propagator = LookaheadEngine.of_residual(propagator, true)
            residual = propagator.clauses
            if not residual:
                return Leaf(CUTOFF)
            n_bin = list(map(len, residual)).count(2)
            free = {abs(l) for c in residual for l in c}
            if cutoff.triggers(n_bin, len(free)):
                return Leaf(CUTOFF)
            h = _compute_h(residual, free, params, start)
            best, failed, _ = _measure(propagator, h,
                                       _candidates(free, h, preselect), mode)
            if any(-lit in failed for lit in failed):
                return Leaf(REFUTED)
            if not failed:
                break
            seeds = [-lit for lit in failed]
        if best is None:
            return Leaf(CUTOFF)
        pending.append((propagator, [-best], depth + 1, h))
        pending.append((propagator, [best], depth + 1, h))
        return Node(best, None, None)

    return build_preorder(next_node)


def build_preorder(read_node):
    """Assemble a tree from a preorder stream, yes-branch first.

    `read_node` returns the next Leaf, or a Node whose children are still
    None; an explicit stack of nodes waiting for a child replaces
    recursion, so tree depth is bounded only by memory.
    """
    root = read_node()
    waiting = [root] if isinstance(root, Node) else []
    while waiting:
        node = read_node()
        parent = waiting[-1]
        if parent.yes is None:
            parent.yes = node
        else:
            parent.no = node
            waiting.pop()
        if isinstance(node, Node):
            waiting.append(node)
    return root


def preorder(tree):
    """(node, path) of every node in preorder, yes-branch first, where
    `path` holds the decision literals from the root.  Only a Node's
    children are walked; an explicit stack bounds depth by memory alone."""
    stack = [(tree, ())]
    while stack:
        node, path = stack.pop()
        yield node, path
        if isinstance(node, Node):
            stack.append((node.no, path + (-node.literal,)))
            stack.append((node.yes, path + (node.literal,)))


def leaf_cubes(tree):
    """Depth-first list of (cube, leaf status); yes-branch first."""
    return [(path, node.status) for node, path in preorder(tree)
            if isinstance(node, Leaf)]


def cubes(tree):
    """Depth-first list of leaf cubes (decision-literal tuples)."""
    return [cube for cube, _ in leaf_cubes(tree)]


def tautology_proof(tree):
    """DRAT lines deriving the empty clause from the leaf cubes' negations:
    each internal node's negated path, children before parents (reversed
    preorder), so each line is RUP on its two children's clauses and the
    root's is the empty clause.  A one-leaf tree gives none."""
    paths = [path for node, path in preorder(tree) if isinstance(node, Node)]
    return [("a", tuple(-lit for lit in path)) for path in reversed(paths)]


def write_inccnf(formula, cube_list):
    """Incremental CNF: `p inccnf`, the clauses, then one `a ... 0` line per cube."""
    lines = ["p inccnf", *map(clause_line, formula.clauses)]
    lines += ("a " + clause_line(cube) for cube in cube_list)
    return "\n".join(lines) + "\n"


def parse_inccnf(text):
    """Inverse of write_inccnf; returns (Formula, list of cubes).

    A line is a cube when its first whitespace-separated token is `a`.
    Malformed lines raise cnf.DimacsError carrying the line number, as do
    a missing or second header and a clause or cube before the header.
    """
    clauses = []
    cube_list = []
    saw_header = False
    for lineno, line in numbered_lines(text):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if saw_header:
                raise DimacsError("duplicate header", lineno)
            if stripped.split() != ["p", "inccnf"]:
                raise DimacsError("malformed inccnf header %r" % stripped, lineno)
            saw_header = True
            continue
        if not saw_header:
            raise DimacsError("clause or cube before header", lineno)
        if stripped.split(None, 1)[0] == "a":
            cube_list.append(parse_clause_line(stripped[1:], lineno))
        else:
            clauses.append(parse_clause_line(stripped, lineno))
    if not saw_header:
        raise DimacsError("missing `p inccnf` header", 1)
    return Formula(clauses), cube_list
