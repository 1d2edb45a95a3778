"""Test oracles for ``trees.BinaryTree``, the flat preorder tree.

``NestedTree`` is the nested binary tree it replaced, frozen here: one
object per node, its left-branching binarization and its preorder walk, as
the package had them.  ``assert_partition`` checks a flat tree's shape."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from ordercky.trees import DUMMY, LEFT, RIGHT, UNARY_SEP, InternalNode, LeafNode, Node


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
