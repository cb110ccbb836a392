import pytest

from triplesat.cubecodec import (CodecError, MAGIC, VERSION, decode_tree,
                                 encode_tree)
from triplesat.lookahead import CUTOFF, REFUTED, Leaf, Node, cubes, leaf_cubes

from conftest import FIG3_CUBES, random_tree


def count_nodes(tree):
    if isinstance(tree, Leaf):
        return 0, 1
    yi, yl = count_nodes(tree.yes)
    ni, nl = count_nodes(tree.no)
    return 1 + yi + ni, yl + nl


def test_single_leaf():
    data = encode_tree(Leaf(CUTOFF))
    assert data[:4] == MAGIC
    assert data[4] == VERSION
    assert decode_tree(data) == Leaf(CUTOFF)


def test_fig3_round_trip(fig3_tree):
    data = encode_tree(fig3_tree)
    assert count_nodes(fig3_tree) == (6, 7)
    restored = decode_tree(data)
    assert restored == fig3_tree
    assert cubes(restored) == FIG3_CUBES


def test_random_round_trips(rng):
    for _ in range(500):
        tree = random_tree(rng)
        restored = decode_tree(encode_tree(tree))
        assert restored == tree
        assert leaf_cubes(restored) == leaf_cubes(tree)


def test_leaf_status_preserved(rng):
    tree = Node(3, Leaf("refuted"), Leaf("cutoff"))
    assert decode_tree(encode_tree(tree)) == tree


def test_bad_magic():
    with pytest.raises(CodecError, match="magic"):
        decode_tree(b"XXXX" + encode_tree(Leaf(CUTOFF))[4:])


def test_bad_version():
    data = bytearray(encode_tree(Leaf(CUTOFF)))
    data[4] = 99
    with pytest.raises(CodecError, match="version"):
        decode_tree(bytes(data))


def test_truncated():
    data = encode_tree(Node(3, Leaf(CUTOFF), Leaf(CUTOFF)))
    with pytest.raises(CodecError, match="truncated"):
        decode_tree(data[:-1])


def test_trailing_byte(fig3_tree):
    with pytest.raises(CodecError, match="trailing"):
        decode_tree(encode_tree(fig3_tree) + b"\x00")


def test_header_count_mismatch(fig3_tree):
    data = bytearray(encode_tree(fig3_tree))
    data[6] += 1  # leaf count varint
    with pytest.raises(CodecError, match="count"):
        decode_tree(bytes(data))


def test_size_bound(rng):
    header = len(MAGIC) + 1 + 10
    for _ in range(100):
        tree = random_tree(rng, max_var=2 ** 27)
        internal, leaves = count_nodes(tree)
        assert len(encode_tree(tree)) <= 6 * internal + leaves + header


def test_compression_beats_literal_lists(rng):
    """For reasonably deep trees the tree stream wins by at least 2x over
    spelling out every cube literal by literal."""
    wins = 0
    for _ in range(100):
        tree = random_tree(rng, max_depth=12)
        cube_list = cubes(tree)
        depths = [len(c) for c in cube_list]
        if not depths or sum(depths) / len(depths) < 4:
            continue
        literal_bytes = sum(len(" ".join(str(l) for l in c)) + 4
                            for c in cube_list)
        if len(encode_tree(tree)) < literal_bytes / 2:
            wins += 1
        else:
            assert False, "codec failed to compress a depth>=4 tree"
    assert wins > 10


def test_writers_reject_a_non_node():
    with pytest.raises(CodecError, match="not a tree node: None"):
        encode_tree(Node(1, Leaf(CUTOFF), None))
    with pytest.raises(CodecError, match="not a tree node: 7"):
        encode_tree(7)
    for status in ("open", None, ["cutoff"]):
        with pytest.raises(CodecError, match="leaf status"):
            encode_tree(Node(1, Leaf(CUTOFF), Leaf(status)))
    # zigzag(0) + 1 is the refuted-leaf token
    for literal in (0, 1.0, "1", True, None):
        with pytest.raises(CodecError, match="decision literal"):
            encode_tree(Node(literal, Leaf(CUTOFF), Leaf(CUTOFF)))


def test_deep_chain_round_trips():
    # deeper than the interpreter's recursion limit
    depth = 5000
    tree = Leaf(CUTOFF)
    for var in range(depth, 0, -1):
        tree = Node(var if var % 2 else -var, tree, Leaf(REFUTED))
    expected = leaf_cubes(tree)
    assert len(expected) == depth + 1
    assert len(expected[0][0]) == depth
    packed = decode_tree(encode_tree(tree))
    assert cubes(packed) == [cube for cube, _ in expected]
    assert leaf_cubes(packed) == expected
    assert encode_tree(packed) == encode_tree(tree)
