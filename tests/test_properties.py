"""Property tests of every parser and writer.

Derandomized, with no example database, so the suite stays deterministic:
- on arbitrary bytes, a parser raises only its documented errors, each
  naming a line where the format has lines;
- writing then parsing gives back what was written;
- comment lines of any ASCII text leave a parse, and the line numbers it
  reports, unchanged;
- an accepted DIMACS or cutoff token is an integer in the DIMACS sense;
- the DRAT checker gives the same outcome with arbitrary hints as without.
"""

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from triplesat.cnf import (DimacsError, Formula, parse_clause_line, parse_dimacs,
                           write_dimacs)
from triplesat.cubecodec import CodecError, decode_tree, encode_tree
from triplesat.drat import check_proof, parse_drat, write_drat
from triplesat.lookahead import (CUTOFF, REFUTED, Leaf, Node, parse_cutoff,
                                 parse_inccnf, write_inccnf)
from triplesat.pipeline import default_config, load_config
from triplesat.transform import EliminationRecord, parse_stack, write_stack

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# bytes that arbitrary input rarely strings together: headers, signs,
# separators that str.splitlines would break at, and non-integer tokens
FRAGMENTS = [b"p cnf ", b"p inccnf", b"c", b"d ", b"a ", b"0", b"1", b"2", b"7",
             b"-", b"+", b"_", b" ", b"\n", b"\r", b"\x0b", b"\x0c", b"\x1c",
             b"\x85", b"\xff", b"x", b"=", b"#", b"mode", b" = ", b"PTCT",
             b"\x01", b"\x80"]
INPUTS = st.one_of(st.binary(max_size=200),
                   st.lists(st.sampled_from(FRAGMENTS), max_size=40).map(b"".join))
LINE_ERROR = re.compile(r"line \d+: ")

ASCII_LINE = st.text(st.characters(max_codepoint=127, exclude_characters="\n"),
                     max_size=20)
LITERALS = st.integers(-30, 30).filter(bool)
CLAUSES = st.lists(st.lists(LITERALS, max_size=4, unique=True).map(tuple),
                   max_size=8)
TREES = st.recursive(
    st.sampled_from([CUTOFF, REFUTED]).map(Leaf),
    lambda children: st.builds(Node, LITERALS, children, children),
    max_leaves=20)


def only_documented_errors(parse, data):
    try:
        parse(data)
    except (DimacsError, CodecError):
        pass
    except ValueError as exc:
        assert LINE_ERROR.match(str(exc)), repr(exc)


@PROPERTY
@given(INPUTS)
def test_line_parsers_raise_only_documented_errors(data):
    for parse in (parse_dimacs, parse_drat, parse_inccnf, parse_stack,
                  decode_tree):
        only_documented_errors(parse, data)


@PROPERTY
@given(data=INPUTS)
def test_config_file_raises_only_documented_errors(tmp_path, data):
    path = tmp_path / "run.cfg"
    path.write_bytes(data)
    only_documented_errors(load_config, str(path))


@PROPERTY
@given(st.text(st.sampled_from("0123456789-+_x٣² \t"), min_size=1, max_size=8))
def test_accepted_tokens_are_dimacs_integers(line):
    """`int` alone takes "+2", "1_0" and non-ASCII digits."""
    for parse, error in (
            (lambda text: parse_clause_line(text + " 0", 1), DimacsError),
            (lambda text: parse_dimacs("p cnf 99 1\n%s 0" % text), DimacsError),
            (lambda text: parse_cutoff("depth:" + text), ValueError)):
        try:
            parse(line)
        except error:
            continue
        assert all(re.fullmatch(r"-?[0-9]+", token) for token in line.split())


def with_comments(text, comments, marker):
    """`text` with the comment lines (`marker` + an ASCII line) put after
    the lines that `comments` names; returns it and each old line's new
    line number."""
    out, new_numbers = [], []
    for number, line in enumerate(text.split("\n"), start=1):
        out.append(line)
        new_numbers.append(len(out))
        out += [marker + body for at, body in comments if at == number]
    return "\n".join(out), new_numbers


@PROPERTY
@given(CLAUSES, st.integers(0, 5), st.lists(st.tuples(st.integers(1, 10),
                                                       ASCII_LINE), max_size=4))
def test_dimacs_round_trip(clauses, extra_vars, comments):
    formula = Formula(clauses)
    formula = Formula(clauses, formula.num_vars + extra_vars)
    text = write_dimacs(formula)
    assert parse_dimacs(text) == formula
    commented, _ = with_comments(text, comments, "c")
    assert parse_dimacs(commented.encode()) == formula


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from("ad"),
                         st.lists(LITERALS, max_size=4).map(tuple)), max_size=8),
       st.lists(st.tuples(st.integers(1, 10), ASCII_LINE), max_size=4))
def test_drat_round_trip(proof, comments):
    text = write_drat(proof)
    assert parse_drat(text) == proof
    commented, new_numbers = with_comments(text, comments, "c")
    linenos = []
    assert parse_drat(commented.encode(), linenos=linenos) == proof
    assert linenos == new_numbers[:len(proof)]


@PROPERTY
@given(CLAUSES, CLAUSES, st.lists(st.tuples(st.integers(1, 20), ASCII_LINE),
                                  max_size=4))
def test_inccnf_round_trip(clauses, cube_list, comments):
    formula = Formula(clauses)
    text = write_inccnf(formula, cube_list)
    assert parse_inccnf(text) == (formula, cube_list)
    commented, _ = with_comments(text, comments, "c")
    assert parse_inccnf(commented.encode()) == (formula, cube_list)


@PROPERTY
@given(st.lists(st.tuples(LITERALS, st.lists(LITERALS, max_size=4).map(tuple)),
                max_size=6))
def test_stack_round_trip(records):
    stack = [EliminationRecord(clause, blocking) for blocking, clause in records]
    assert parse_stack(write_stack(stack)) == stack
    assert parse_stack(write_stack(stack).encode()) == stack


@PROPERTY
@given(TREES)
def test_tree_codecs_round_trip(tree):
    assert decode_tree(encode_tree(tree)) == tree


# a numeric setting is read as its type; the others are any text
SETTINGS = {"workers": st.integers(),
            "preselect": st.floats(allow_nan=False, allow_infinity=False)}


@PROPERTY
@given(values=st.fixed_dictionaries({}, optional={
           key: SETTINGS.get(key, st.text(st.characters(
               min_codepoint=33, max_codepoint=126, exclude_characters="="),
               min_size=1))
           for key in default_config()}),
       comments=st.lists(st.tuples(st.integers(1, 10), ASCII_LINE), max_size=4))
def test_config_round_trip(tmp_path, values, comments):
    text = "".join("%s = %s\n" % item for item in values.items())
    commented, _ = with_comments(text, comments, "#")
    path = tmp_path / "run.cfg"
    path.write_text(commented)
    assert load_config(str(path)) == values


# ------------------------------------------------------------------ hints

SMALL_LITERALS = st.integers(-4, 4).filter(bool)
SMALL_CLAUSES = st.lists(SMALL_LITERALS, max_size=3, unique=True).map(tuple)


@st.composite
def hinted_proofs(draw):
    """A small formula, a proof of additions and deletions (of formula
    clauses as well as others), and a hint list whose entries may be empty,
    out of range, negative, or name deleted or later clauses."""
    formula = Formula(draw(st.lists(SMALL_CLAUSES, min_size=1, max_size=10)))
    steps = st.one_of(SMALL_CLAUSES.map(lambda c: ("a", c)),
                      SMALL_CLAUSES.map(lambda c: ("d", c)),
                      st.sampled_from(formula.clauses).map(lambda c: ("d", c)))
    proof = draw(st.lists(steps, max_size=8))
    top = len(formula.clauses) + len(proof)
    hints = []
    for index in range(draw(st.integers(0, len(proof) + 2))):
        # the ids of the input clauses and of the clauses added before the
        # step; deletions take no number
        added = sum(kind == "a" for kind, _ in proof[:index])
        before = list(range(len(formula.clauses) + added))
        arbitrary = st.lists(st.integers(-2, top + 2), max_size=5)
        hints.append(draw(st.one_of(arbitrary, st.just(before),
                                    st.permutations(before))
                          if before else arbitrary))
    return formula, proof, hints


@PROPERTY
@given(hinted_proofs(), st.booleans(),
       st.sampled_from([{}, {"any_pivot": True},
                        {"symmetry_pivots": (1,)}, {"symmetry_pivots": (-2,)}]))
def test_hints_change_no_outcome(case, refutation, options):
    formula, proof, hints = case
    plain = check_proof(formula, proof, refutation=refutation, **options)
    hinted = check_proof(formula, proof, refutation=refutation, hints=hints,
                         **options)
    assert (hinted.accepted, hinted.line, hinted.reason, hinted.warnings) == \
        (plain.accepted, plain.line, plain.reason, plain.warnings)
