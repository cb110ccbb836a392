"""Compact binary serialization of branching trees (.ptct format).

Cube files grow with depth times leaf count; the tree behind them needs
only one literal per internal node.  Layout: magic `PTCT`, a version
byte, varint internal-node and leaf counts, then a preorder token
stream.  Token 0 is a cutoff leaf, token 1 a refuted leaf, and any token
t >= 2 is an internal node whose decision literal is zigzag-decoded from
t - 1; children follow in yes-then-no order.  `encode_tree` walks a tree
with `lookahead.preorder`, and `decode_tree` builds one with
`lookahead.build_preorder`.

This is the package's one tree file: `triplesat split --tree` writes it,
`triplesat unpack-cubes` expands it to the inccnf cubes, and
`lookahead.leaf_cubes` of `decode_tree` gives every leaf's status.
"""

from __future__ import annotations

from .lookahead import CUTOFF, REFUTED, Leaf, Node, build_preorder, preorder

MAGIC = b"PTCT"
VERSION = 1

_LEAF_TOKENS = {CUTOFF: 0, REFUTED: 1}
_LEAF_STATUS = {0: CUTOFF, 1: REFUTED}


class CodecError(ValueError):
    pass


def _zigzag(value):
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value):
    return (value >> 1) if value % 2 == 0 else -((value + 1) >> 1)


def _write_varint(out, value):
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def varint(self):
        shift = 0
        value = 0
        while True:
            if self.pos >= len(self.data):
                raise CodecError("truncated stream")
            byte = self.data[self.pos]
            self.pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def take(self, n):
        if self.pos + n > len(self.data):
            raise CodecError("truncated stream")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk


def encode_tree(tree):
    """Serialize a CubeTree to bytes; preorder, yes-branch first.  Anything
    in it but a Node of nonzero int literal or a cutoff or refuted Leaf
    raises CodecError (a zero literal would write the refuted-leaf token)."""
    body = bytearray()
    internal = 0
    leaves = 0
    for node, _ in preorder(tree):
        if isinstance(node, Leaf):
            if node.status not in (CUTOFF, REFUTED):
                raise CodecError("leaf status %r is neither %r nor %r"
                                 % (node.status, CUTOFF, REFUTED))
            leaves += 1
            _write_varint(body, _LEAF_TOKENS[node.status])
        elif isinstance(node, Node):
            if type(node.literal) is not int or node.literal == 0:
                raise CodecError("decision literal %r is not a nonzero int"
                                 % (node.literal,))
            internal += 1
            _write_varint(body, _zigzag(node.literal) + 1)
        else:
            raise CodecError("not a tree node: %r" % (node,))
    out = bytearray(MAGIC)
    out.append(VERSION)
    _write_varint(out, internal)
    _write_varint(out, leaves)
    out.extend(body)
    return bytes(out)


def decode_tree(data):
    """Inverse of encode_tree; rejects bad magic, versions and trailing bytes."""
    reader = _Reader(data)
    if reader.take(4) != MAGIC:
        raise CodecError("bad magic")
    version = reader.take(1)[0]
    if version != VERSION:
        raise CodecError("unsupported version %d" % version)
    internal = reader.varint()
    leaves = reader.varint()

    seen = [0, 0]  # internal, leaf

    def read_node():
        token = reader.varint()
        if token in _LEAF_STATUS:
            seen[1] += 1
            return Leaf(_LEAF_STATUS[token])
        seen[0] += 1
        # tokens 0 and 1 are leaves, so the literal is nonzero
        return Node(_unzigzag(token - 1), None, None)

    tree = build_preorder(read_node)
    if (seen[0], seen[1]) != (internal, leaves):
        raise CodecError("node counts %s do not match header (%d, %d)"
                         % (tuple(seen), internal, leaves))
    if reader.pos != len(data):
        raise CodecError("%d trailing bytes" % (len(data) - reader.pos))
    return tree
