"""Look-ahead based splitting: recursive weight heuristic, failed-literal
detection, branching-tree construction with cutoff policies, and cube
file (inccnf) handling.

A look-ahead assigns a literal, propagates, and weighs the freshly
created binary clauses.  Literal weights h(l) are refined over a few
rounds: each round scales by the current mean and clamps into
[alpha, beta], with gamma weighting binary-clause contributions.

All look-aheads of one split node go through one `LookaheadEngine`,
built once from the node's residual on `cnf.Propagator`.  It propagates
each literal on a trail of its own and weighs only the ternary clauses
that contain the negation of a trail literal, in clause order, so
weights, scores and trees are exactly those of propagating and
rescanning the whole residual per look-ahead.  A child node settles on
its parent's engine: only the root's fixpoint runs over the whole
formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

# `propagate_clauses` is not called here: bench/spans.py wraps it where
# `lookahead` looks it up, so the name must stay importable from here.
from .cnf import (DimacsError, Formula, Propagator, parse_clause_line,
                  propagate_clauses)

CUTOFF = "cutoff"
REFUTED = "refuted"

MODE_PTN = "ptn3sat"
MODE_RND = "rnd3sat"
MODE_BIN = "count_bin"
MODE_VAR = "count_var"
MODES = (MODE_PTN, MODE_RND, MODE_BIN, MODE_VAR)


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


def params_for_mode(mode):
    return RND_PARAMS if mode == MODE_RND else PTN_PARAMS


@dataclass
class HTable:
    values: dict            # literal -> heuristic value
    means: list             # per-round mean, means[i] is the round-i average

    def product(self, var):
        return self.values.get(var, 0.0) * self.values.get(-var, 0.0)


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
    """A node becomes a cutoff leaf when any enabled trigger fires."""
    min_binaries: Optional[int] = None   # binary-clause count >= threshold
    max_free_vars: Optional[int] = None  # unassigned occurring vars <= threshold
    depth_limit: int = 64                # mandatory termination bound

    def triggers(self, depth, n_binaries, n_free_vars):
        if depth >= self.depth_limit:
            return True
        if self.min_binaries is not None and n_binaries >= self.min_binaries:
            return True
        if self.max_free_vars is not None and n_free_vars <= self.max_free_vars:
            return True
        return False


def parse_cutoff(spec):
    """Parse 'bin:3000', 'vars:3450', 'depth:20', or comma-joined
    combinations; no value may be negative."""
    policy = CutoffPolicy()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        kind, _, value = part.partition(":")
        if not value:
            raise ValueError("malformed cutoff %r" % part)
        try:
            value = int(value)
        except ValueError:
            raise ValueError("cutoff %r: %r is not an integer"
                             % (part, value)) from None
        if value < 0:
            raise ValueError("cutoff %r: %d is negative" % (part, value))
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


def _check_3cnf(residual):
    for clause in residual:
        if len(clause) > 3:
            raise LookaheadError("residual clause %r longer than 3" % (clause,))


def _compute_h(residual, params):
    _check_3cnf(residual)
    occurring = {abs(l) for c in residual for l in c}
    h = {}
    for var in occurring:
        h[var] = 1.0
        h[-var] = 1.0
    n = len(occurring)
    means = []
    for _ in range(params.iterations):
        mu = sum(h[v] + h[-v] for v in occurring) / (2 * n) if n else 1.0
        means.append(mu)
        raw = dict.fromkeys(h, 0.0)
        for clause in residual:
            if len(clause) == 3:
                x, y, z = clause
                hy, hz, hx = h[-y] / mu, h[-z] / mu, h[-x] / mu
                raw[x] += hy * hz
                raw[y] += hx * hz
                raw[z] += hx * hy
            elif len(clause) == 2:
                x, y = clause
                raw[x] += params.gamma * h[-y] / mu
                raw[y] += params.gamma * h[-x] / mu
        for lit in h:
            h[lit] = max(params.alpha, min(params.beta, raw[lit]))
    return HTable(h, means)


class LookaheadEngine(Propagator):
    """The look-aheads of one split node, over the node's residual.

    Built once per node, so the occurrence lists and the residual's unit
    clauses (which a non-fixpoint assignment can leave, and every
    look-ahead must assert too) are shared by all of its look-aheads.
    """

    def __init__(self, residual, table):
        super().__init__(residual)
        self.table = table
        self.h = table.values

    def look_ahead(self, lit):
        """(weight, assigned count, new binary count, refuted) of `lit`.

        The weight sums h(~y) * h(~z) over the newly created binaries
        (y | z); refuted means propagation conflicts, forcing the
        complement.  A ternary clause turns binary only through a false
        literal, so only the clauses in the occurrence lists of the
        negated true literals are weighed, in ascending index: the weight
        is the same float sum a scan of the whole residual in clause order
        would give.
        """
        true, conflict = self.fixpoint([lit])
        if conflict:
            return 0.0, len(true), 0, True
        clauses, occ, h = self.clauses, self.occ, self.h
        touched = set()
        for assigned in true:
            touched.update(occ.get(-assigned, ()))
        weight = 0.0
        new_binaries = 0
        for idx in sorted(touched):
            clause = clauses[idx]
            if len(clause) != 3:
                continue
            unassigned = []
            for other in clause:
                if other in true:
                    break
                if -other not in true:
                    unassigned.append(other)
            else:
                if len(unassigned) == 2:
                    y, z = unassigned
                    weight += h.get(-y, 0.0) * h.get(-z, 0.0)
                    new_binaries += 1
        return weight, len(true), new_binaries, False


def _score(mode, pos, neg):
    if mode in (MODE_PTN, MODE_RND):
        return pos[0] * neg[0]
    if mode == MODE_BIN:
        return pos[2] * neg[2]
    if mode == MODE_VAR:
        return pos[1] * neg[1]
    raise ValueError("unknown mode %r" % mode)


def _candidates(residual, table, preselect):
    occurring = sorted({abs(l) for c in residual for l in c})
    if preselect >= 1.0 or len(occurring) <= 1:
        return occurring
    keep = max(1, math.ceil(preselect * len(occurring)))
    ranked = sorted(occurring, key=lambda v: (-table.product(v), v))
    return sorted(ranked[:keep])


def _measure(engine, mode, preselect=1.0):
    """Look ahead on both polarities of every candidate variable.

    Returns (best variable, failed literals, scores).  The best is the
    smallest of the top-scoring variables that neither polarity refutes,
    or None.  Every refuted literal is failed and its variable unscored.
    """
    best_var = None
    best_score = -1.0
    failed = []
    scores = {}
    for var in _candidates(engine.clauses, engine.table, preselect):
        pos = engine.look_ahead(var)
        neg = engine.look_ahead(-var)
        if pos[3]:
            failed.append(var)
        if neg[3]:
            failed.append(-var)
        if pos[3] or neg[3]:
            continue
        score = _score(mode, pos, neg)
        scores[var] = score
        if score > best_score:
            best_score = score
            best_var = var
    return best_var, failed, scores


def branch_scores(formula, assignment, mode, params=None):
    """Score table {variable: score} for one mode under `assignment`
    {variable: bool}; inspection helper."""
    params = params or params_for_mode(mode)
    true = {var if value else -var for var, value in assignment.items()}
    residual = residual_clauses(formula.clauses, true)
    engine = LookaheadEngine(residual, _compute_h(residual, params))
    return _measure(engine, mode)[2]


def check_mode(mode):
    """Raise ValueError unless `mode` is one of MODES."""
    if mode not in MODES:
        raise ValueError("unknown mode %r; expected one of %s"
                         % (mode, ", ".join(MODES)))


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
            n_free = len({abs(l) for c in residual for l in c})
            if cutoff.triggers(depth, n_bin, n_free):
                return Leaf(CUTOFF)
            engine = LookaheadEngine(residual, _compute_h(residual, params))
            best, failed, _ = _measure(engine, mode, preselect)
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


def leaf_cubes(tree):
    """Depth-first list of (cube, leaf status); yes-branch first."""
    out = []
    stack = [(tree, ())]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, Leaf):
            out.append((prefix, node.status))
            continue
        stack.append((node.no, prefix + (-node.literal,)))
        stack.append((node.yes, prefix + (node.literal,)))
    return out


def cubes(tree):
    """Depth-first list of leaf cubes (decision-literal tuples)."""
    return [cube for cube, _ in leaf_cubes(tree)]


def negate_cubes(cube_list):
    """One clause per cube: the complements of its literals."""
    if not cube_list:
        raise ValueError("empty cube list")
    return Formula([tuple(-l for l in cube) for cube in cube_list])


def write_inccnf(formula, cube_list):
    """Incremental CNF: `p inccnf`, the clauses, then one `a ... 0` line per cube."""
    lines = ["p inccnf"]
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause) + (" 0" if clause else "0"))
    for cube in cube_list:
        lines.append("a " + " ".join(str(l) for l in cube) + (" 0" if cube else "0"))
    return "\n".join(lines) + "\n"


def parse_inccnf(text):
    """Inverse of write_inccnf; returns (Formula, list of cubes).

    Malformed lines raise cnf.DimacsError carrying the line number.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("ascii")
    clauses = []
    cube_list = []
    saw_header = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if stripped.split() != ["p", "inccnf"]:
                raise DimacsError("malformed inccnf header %r" % stripped, lineno)
            saw_header = True
            continue
        is_cube = stripped.startswith("a ") or stripped == "a"
        body = stripped[1:] if is_cube else stripped
        lits = parse_clause_line(body, lineno)
        if is_cube:
            cube_list.append(lits)
        else:
            clauses.append(lits)
    if not saw_header:
        raise DimacsError("missing `p inccnf` header")
    return Formula(clauses), cube_list
