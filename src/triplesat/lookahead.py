"""Look-ahead based splitting: recursive weight heuristic, failed-literal
detection, branching-tree construction with cutoff policies, and cube
file (inccnf) handling.

Trees have one walk, `preorder`, which gives the leaf cubes, the `.ptct`
codec's token stream (`cubecodec.encode_tree`) and `tautology_proof`, the
tree's closing DRAT lines.

A look-ahead assigns a literal, propagates, and weighs the freshly
created binary clauses.  Literal weights h(l) are refined over a few
rounds: each round scales by the current mean and clamps into
[alpha, beta], with gamma weighting binary-clause contributions.

Each split node derives its residual, its set of free variables, its
binary-clause count and its h-table once.  All of its look-aheads go
through one `LookaheadEngine`, the `cnf.Propagator` of the residual,
and take the h-table as an argument.  The engine propagates each
literal on a trail of its own, and the fixpoint hands over the ternary
clauses it left with two unassigned literals: only those are weighed, in
clause order, with no second walk of the occurrence lists, so weights,
scores and trees are exactly those of propagating and rescanning the
whole residual per look-ahead.  A child node settles on its parent's
engine: only the root's fixpoint runs over the whole formula, and a
pending child keeps only its parent's residual and occurrence lists.

The h-table's rounds run on flat lists indexed by each free variable's
position, with the same float operations in the same order as on a
dict, so tables match bit for bit and trees do not change.
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
    iterations: int = 4

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
    strip false literals, keep clause and literal order."""
    residual = []
    for clause in clauses:
        reduced = []
        for lit in clause:
            if lit in true:
                break
            if -lit not in true:
                reduced.append(lit)
        else:
            residual.append(tuple(reduced))
    return residual


def _compute_h(residual, free, params):
    """The node's h-table {literal: weight}, over the variables `free`,
    the set of those occurring in `residual`.

    Each round's mean sums over `free` in its iteration order, and each
    literal's raw weight adds its clauses' terms in clause order, so the
    set must be built from the residual, clause by clause.  The rounds run
    on flat lists indexed by signed position: the i-th variable of `free`
    (from 1) is renamed i, so the lists hold 2*len(free)+1 slots however
    large the variable numbers are, and the residual is renamed once.
    The table returned has keys var, -var per variable of `free`.
    """
    position = {}
    for i, var in enumerate(free, 1):
        position[var] = i
        position[-var] = -i
    clauses = []
    for clause in residual:
        if len(clause) > 3:
            raise LookaheadError("residual clause %r longer than 3"
                                 % (clause,))
        if len(clause) > 1:
            clauses.append(tuple([position[lit] for lit in clause]))
    n = len(free)
    size = 2 * n + 1
    h = [1.0] * size
    alpha, gamma = params.alpha, params.gamma
    ceiling = max(alpha, params.beta)
    for _ in range(params.iterations):
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
    for i, var in enumerate(free, 1):
        table[var] = h[i]
        table[-var] = h[-i]
    return table


class LookaheadEngine(Propagator):
    """The look-aheads of one split node: the propagator of the node's
    residual.

    Built once per node, so the occurrence lists and the residual's unit
    clauses (which a non-fixpoint assignment can leave, and every
    look-ahead must assert too) are shared by all of its look-aheads.
    The node's h-table is passed to each look-ahead, so a child that
    settles on its parent's engine keeps no h-table alive.
    """

    def look_ahead(self, lit, h):
        """(weight, assigned count, new binary count, refuted) of `lit`.

        The weight sums h(~y) * h(~z) over the newly created binaries
        (y | z); refuted means propagation conflicts, forcing the
        complement.  The fixpoint hands over the ternary clauses it left
        with two unassigned literals.  Such a clause has one false literal
        or, satisfied since, a true one: two false ones would have made it
        unit.  They are weighed in ascending index, which the fixpoint's
        list already is when only `lit` holds, so the weight is the same
        float sum a scan of the whole residual in clause order would give.
        """
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
    """Raise ValueError unless `preselect` is a share in (0, 1]; NaN and
    infinities fail the comparison."""
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
    fixpoints and residuals are those over the whole formula.
    Nodes are settled in preorder, yes-branch first, from an explicit
    stack, so the tree depth is bounded by the cutoff, not by the
    interpreter's recursion limit.
    """
    check_mode(mode)
    check_preselect(preselect)
    params = params or params_for_mode(mode)

    def settle(propagator, seeds, depth):
        """A Leaf, or (branch variable, the node's look-ahead engine)."""
        while True:
            true, conflict = propagator.fixpoint(seeds)
            if conflict:
                return Leaf(REFUTED)
            if depth >= cutoff.depth_limit:
                return Leaf(CUTOFF)
            residual = residual_clauses(propagator.clauses, true)
            if not residual:
                return Leaf(CUTOFF)
            n_bin = sum(1 for c in residual if len(c) == 2)
            free = {abs(l) for c in residual for l in c}
            if cutoff.triggers(n_bin, len(free)):
                return Leaf(CUTOFF)
            h = _compute_h(residual, free, params)
            engine = LookaheadEngine(residual)
            best, failed, _ = _measure(engine, h,
                                       _candidates(free, h, preselect), mode)
            if any(-lit in failed for lit in failed):
                return Leaf(REFUTED)
            if not failed:
                return Leaf(CUTOFF) if best is None else (best, engine)
            propagator, seeds = engine, [-lit for lit in failed]

    # (propagator, seed literals, depth) of nodes still to settle
    pending = [(Propagator(formula.clauses), [], 0)]

    def next_node():
        propagator, seeds, depth = pending.pop()
        settled = settle(propagator, seeds, depth)
        if isinstance(settled, Leaf):
            return settled
        best, engine = settled
        pending.append((engine, [-best], depth + 1))
        pending.append((engine, [best], depth + 1))
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
