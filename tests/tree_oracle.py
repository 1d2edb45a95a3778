"""Test oracles for the flat preorder trees of ``ordercky.trees``.

``LeafNode`` and ``InternalNode`` are the nested n-ary tree that ``Tree``
replaced, frozen here with the package's old printer, leaf walk, spans and
``debinarize``, plus a plain reader for well-formed text; ``flatten`` turns
one into the ``Tree`` it should equal.  ``NestedTree`` is the nested binary
tree that ``BinaryTree`` replaced: one object per node, its left-branching
binarization and its preorder walk.  ``assert_partition`` checks a flat
binary tree's shape.  The oracles recurse, so they are for shallow trees."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from ordercky.trees import (DUMMY, LEFT, RIGHT, UNARY_SEP, BinaryTree, LabeledSpan, Tree, escape_token,
                            strip_label_decorations)


@dataclass(frozen=True)
class LeafNode:
    """A word plus its given part-of-speech tag."""

    word: str
    pos: str


@dataclass(frozen=True)
class InternalNode:
    label: str
    children: tuple["Node", ...]

    def linearize(self) -> str:
        parts: list[str] = []
        stack: list[Union[Node, str]] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif isinstance(item, LeafNode):
                parts.append(f" ({item.pos} {escape_token(item.word)})")
            else:
                parts.append(f" ({item.label}")
                stack.append(")")
                stack.extend(reversed(item.children))
        return "".join(parts)[1:]


Node = Union[InternalNode, LeafNode]

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def nested_read_trees(text: str) -> list[Node]:
    """``read_trees`` for well-formed text: root wrappers unwrapped and
    phrase labels stripped."""
    stack: list[list] = [[]]  # per open constituent: its label, then its children
    for token in _TOKEN.findall(text):
        if token == "(":
            stack.append([])
        elif token == ")":
            label, *children = stack.pop()
            if len(children) == 1 and isinstance(children[0], str):
                stack[-1].append(LeafNode(children[0], label))
            else:
                stack[-1].append(InternalNode(strip_label_decorations(label), tuple(children)))
        else:
            stack[-1].append(token)
    return [tree.children[0] if tree.label in ("TOP", "S1", "ROOT") and len(tree.children) == 1
            and isinstance(tree.children[0], InternalNode) else tree for tree in stack[0]]


def leaves(node: Node) -> list[LeafNode]:
    if isinstance(node, LeafNode):
        return [node]
    return [leaf for child in node.children for leaf in leaves(child)]


def nested_sentence(node: Node) -> tuple[tuple[str, str], ...]:
    return tuple((leaf.word, leaf.pos) for leaf in leaves(node))


def nested_spans(node: Node, start: int = 0) -> list[LabeledSpan]:
    """Every phrase's labeled span, sorted."""
    if isinstance(node, LeafNode):
        return []
    out = [LabeledSpan(start, start + len(leaves(node)), node.label)]
    for child in node.children:
        out += nested_spans(child, start)
        start += len(leaves(child))
    return sorted(out)


def nested_debinarize(btree: BinaryTree) -> Node:
    """The package's old ``debinarize``: one loop over reversed preorder,
    where ``done`` holds per finished subtree the nodes it expands to."""
    done: list[list[Node]] = []
    for label, i, j in zip(reversed(btree.label), reversed(btree.start), reversed(btree.end)):
        if j - i == 1:
            children: list[Node] = [LeafNode(*btree.sentence[i])]
        else:
            children = done.pop()
            children += done.pop()
        if label != DUMMY:
            labels = label.split(UNARY_SEP)
            out = InternalNode(labels[-1], tuple(children))
            for lab in reversed(labels[:-1]):
                out = InternalNode(lab, (out,))
            children = [out]
        done.append(children)
    return done[0][0]


def flatten(node: Node) -> Tree:
    """The flat ``Tree`` of a nested one: labels, words and subtree ends in
    preorder."""
    label: list[str] = []
    word: list[Optional[str]] = []
    end: list[int] = []

    def walk(node: Node) -> None:
        p = len(label)
        label.append(node.pos if isinstance(node, LeafNode) else node.label)
        word.append(node.word if isinstance(node, LeafNode) else None)
        end.append(-1)
        for child in getattr(node, "children", ()):
            walk(child)
        end[p] = len(label)

    walk(node)
    return Tree(tuple(label), tuple(word), tuple(end))


@dataclass(frozen=True)
class NestedTree:
    label: str
    start: int
    end: int
    left: Optional["NestedTree"] = None
    right: Optional["NestedTree"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def nodes(self) -> Iterator[tuple["NestedTree", int]]:
        """Every node in preorder, paired with its order as a child; the root
        reads as LEFT."""
        stack = [(self, LEFT)]
        while stack:
            node, order = stack.pop()
            yield node, order
            if node.left is not None:
                stack += ((node.right, RIGHT), (node.left, LEFT))

    def node_tuples(self) -> list[tuple[str, int, int, int]]:
        """What ``BinaryTree.nodes`` yields for this tree."""
        return [(node.label, node.start, node.end, order) for node, order in self.nodes()]

    def composition_tuples(self) -> list[tuple[str, str, str, int]]:
        """What ``BinaryTree.compositions`` yields for this tree."""
        return [(node.label, node.left.label, node.right.label, order)
                for node, order in self.nodes() if not node.is_leaf]

    def spans(self) -> list[tuple[int, int, str]]:
        return [(node.start, node.end, node.label) for node, _ in self.nodes()]


def nested_binarize(tree: Node) -> NestedTree:
    """Left-branching binarization with unary collapse, building objects
    bottom-up on an explicit stack."""
    i = 0
    done: list[NestedTree] = []
    stack: list[Union[Node, tuple[str, int]]] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            top, count = node
            parts = done[len(done) - count:]
            del done[len(done) - count:]
            acc = parts[0]
            for idx, nxt in enumerate(parts[1:], start=2):
                acc = NestedTree(top if idx == len(parts) else DUMMY, acc.start, nxt.end, acc, nxt)
            done.append(acc)
            continue
        labels: list[str] = []
        while isinstance(node, InternalNode) and len(node.children) == 1 \
                and isinstance(node.children[0], InternalNode):
            labels.append(node.label)
            node = node.children[0]
        if isinstance(node, LeafNode):
            done.append(NestedTree(DUMMY, i, i + 1))
            i += 1
        elif len(node.children) == 1:
            labels.append(node.label)
            done.append(NestedTree(UNARY_SEP.join(labels), i, i + 1))
            i += 1
        else:
            labels.append(node.label)
            stack.append((UNARY_SEP.join(labels), len(node.children)))
            stack.extend(reversed(node.children))
    return done[0]


def assert_partition(btree) -> None:
    """The nodes of ``btree`` are a strictly binary tree over its sentence in
    preorder: the root covers the sentence, leaves have width 1, and each
    internal node (i, j) is followed by its left child (i, k), whose
    subtree is followed by its right child (k, j), for some i < k < j."""
    nodes = list(btree.nodes())
    pending = [(0, len(btree.sentence))]
    for p, (_, i, j, _) in enumerate(nodes):
        assert (i, j) == pending.pop()
        if j - i > 1:
            k = nodes[p + 1][2]
            assert i < k < j
            pending += ((k, j), (i, k))
    assert not pending
