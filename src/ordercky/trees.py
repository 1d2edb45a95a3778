"""Bracketed constituency trees: reading, binarization, spans.

Label conventions shared by the whole toolkit:

* ``DUMMY`` ("∅") labels the artificial nodes introduced by left-branching
  binarization and the width-1 spans that cover a bare part-of-speech tag.
  It is a first-class member of the label vocabulary.
* Unary chains collapse into one node whose label joins the chain with
  ``UNARY_SEP`` ("|"): (S (NP ...)) becomes a single node labeled "S|NP".
  Collapsed labels are atomic symbols for scoring and evaluation.
* Part-of-speech tags are inputs carried on the leaves; they are never
  predicted and never count as brackets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Union

DUMMY = "∅"
UNARY_SEP = "|"

# a node's order as a child: every node reads the span and rule scores of its
# order, and the root reads as LEFT
LEFT, RIGHT = 0, 1

# deepest bracket nesting a treebank may use; binarize and read_trees recurse
# over the trees read from a file (read_trees spends two stack frames per
# level), so 200 levels stay well inside the default recursion limit of 1000
MAX_DEPTH = 200

_ESCAPES = [("(", "-LRB-"), (")", "-RRB-")]


class BracketError(ValueError):
    """Malformed bracketed input. ``offset`` is a byte offset into the text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnbalancedBrackets(BracketError):
    pass


class EmptyConstituent(BracketError):
    pass


class TrailingInput(BracketError):
    pass


class UnknownDummyPlacement(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


class LabeledSpan(NamedTuple):
    start: int
    end: int
    label: str


@dataclass(frozen=True)
class LeafNode:
    """A word plus its given part-of-speech tag."""

    word: str
    pos: str

    def linearize(self) -> str:
        return f"({self.pos} {escape_token(self.word)})"


@dataclass(frozen=True)
class InternalNode:
    label: str
    children: tuple["Node", ...]

    def linearize(self) -> str:
        """Bracketed text, built with an explicit stack, since a decoded tree
        may be as deep as its sentence is long: every bracket opens after a
        space, and the root's space is cut."""
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


@dataclass(frozen=True)
class BinaryTree:
    """Strictly binary tree over fencepost spans.

    ``sentence`` is the shared (word, pos) sequence; leaves are width-1 spans
    and internal nodes have exactly two children partitioning the span.
    """

    label: str
    start: int
    end: int
    sentence: tuple[tuple[str, str], ...]
    left: Optional["BinaryTree"] = None
    right: Optional["BinaryTree"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def nodes(self) -> Iterator[tuple["BinaryTree", int]]:
        """Every node in preorder, paired with its order as a child; the root
        reads as LEFT."""
        stack = [(self, LEFT)]
        while stack:
            node, order = stack.pop()
            yield node, order
            if node.left is not None:
                stack += ((node.right, RIGHT), (node.left, LEFT))


def escape_token(word: str) -> str:
    for raw, esc in _ESCAPES:
        word = word.replace(raw, esc)
    return word


def _byte_offset(text: str, i: int) -> int:
    return len(text[:i].encode("utf-8"))


# whitespace, then an atom (a label or a token; maybe empty), then whitespace:
# whitespace is what str.isspace() says, but an atom ends only at a bracket or
# at one of the four ASCII separators, so it may hold a form feed, say
_ATOM = re.compile(r"\s*([^() \t\r\n]*)\s*").match
_SPACE = re.compile(r"\s*").match


def _end_error(text: str) -> UnbalancedBrackets:
    return UnbalancedBrackets("unexpected end of input", _byte_offset(text, len(text)))


def _read_tree(text: str, i: int) -> tuple[Optional[Node], int]:
    """Read the tree whose '(' is the first non-space character at or after
    ``text[i]``; return it and the index of the first non-space character
    after it, or (None, len(text)) when only whitespace is left.

    Open constituents wait on a stack as (label, label index, children); a
    '(' that would open more than MAX_DEPTH of them is an error.
    """
    n = len(text)
    i = _SPACE(text, i).end()
    if i == n:
        return None, n
    if text[i] != "(":
        raise UnbalancedBrackets("expected '('", _byte_offset(text, i))
    stack: list[tuple[str, int, list[Node]]] = []
    while True:
        # text[i] is the '(' of a new constituent
        if len(stack) == MAX_DEPTH:
            raise BracketError(f"tree nested deeper than {MAX_DEPTH} levels", _byte_offset(text, i))
        m = _ATOM(text, i + 1)
        label, start, i = m[1], m.start(1), m.end()
        if i == n:
            raise _end_error(text)
        if text[i] == "(":
            stack.append((label, start, []))
            continue
        if text[i] == ")":
            raise EmptyConstituent("constituent without children", _byte_offset(text, i))
        # a token; its label is not empty, since an empty label ends at '(' or ')'
        m = _ATOM(text, i)
        node: Node = LeafNode(word=m[1], pos=label)
        i = m.end()
        if i == n:
            raise _end_error(text)
        if text[i] != ")":
            raise UnbalancedBrackets("expected ')' after token", _byte_offset(text, i))
        # text[i] closes ``node``
        while True:
            i = _SPACE(text, i + 1).end()
            if not stack:
                return node, i
            stack[-1][2].append(node)
            if i == n:
                raise _end_error(text)
            if text[i] == "(":
                break
            if text[i] != ")":
                raise UnbalancedBrackets("expected '(' or ')' inside constituent", _byte_offset(text, i))
            label, start, children = stack.pop()
            if label:
                node = InternalNode(label, tuple(children))
            elif len(children) == 1:
                node = children[0]  # a bare "( ... )" shell around one tree
            else:
                raise EmptyConstituent("constituent without a label", _byte_offset(text, start))


def iter_bracketed(text: str) -> Iterator[tuple[int, Node]]:
    """Yield every balanced tree in ``text``, after the index of its first '('.

    Handles both one-tree-per-line files and multi-line s-expressions; the
    reader only cares about balance, not line structure.
    """
    start = _SPACE(text, 0).end()
    tree, i = _read_tree(text, start)
    while tree is not None:
        yield start, tree
        start = i
        tree, i = _read_tree(text, start)


def parse_bracketed(text: str) -> Node:
    """Parse exactly one bracketed tree; anything after it is an error."""
    tree, i = _read_tree(text, 0)
    if tree is None:
        raise UnbalancedBrackets("no tree in input", _byte_offset(text, len(text)))
    if i < len(text):
        raise TrailingInput("trailing input after tree", _byte_offset(text, i))
    return tree


def iter_leaves(node: Node) -> Iterator[LeafNode]:
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, LeafNode):
            yield node
        else:
            stack.extend(reversed(node.children))


def sentence_of(tree: Node) -> tuple[tuple[str, str], ...]:
    return tuple((leaf.word, leaf.pos) for leaf in iter_leaves(tree))


def strip_label_decorations(label: str) -> str:
    """Drop PTB function tags and coindexation: "NP-SBJ-1" -> "NP", "NP=2" -> "NP".

    Labels that begin with '-' (e.g. -NONE-, -LRB-) are kept verbatim.
    """
    if label.startswith("-"):
        return label
    for sep in ("-", "="):
        cut = label.find(sep)
        if cut != -1:
            label = label[:cut]
    return label


def binarize(tree: Node) -> BinaryTree:
    """Left-branching binarization with unary collapse.

    Children of an n-ary node fold leftmost-first under DUMMY nodes, with the
    original label on top.  Unary chains of phrasal labels join into one
    "A|B" label.  Part-of-speech leaves become width-1 spans: DUMMY when bare,
    or the collapsed phrasal label when a unary chain sits above them.
    """
    if isinstance(tree, LeafNode):
        raise ValueError("cannot binarize a bare part-of-speech leaf")
    sentence = sentence_of(tree)

    def rec(node: Node, i: int) -> tuple[BinaryTree, int]:
        labels: list[str] = []
        while (
            isinstance(node, InternalNode)
            and len(node.children) == 1
            and isinstance(node.children[0], InternalNode)
        ):
            labels.append(node.label)
            node = node.children[0]
        if isinstance(node, LeafNode):
            return BinaryTree(DUMMY, i, i + 1, sentence), i + 1
        if len(node.children) == 1:
            # unary chain ending at a part-of-speech leaf
            labels.append(node.label)
            return BinaryTree(UNARY_SEP.join(labels), i, i + 1, sentence), i + 1
        labels.append(node.label)
        top = UNARY_SEP.join(labels)
        parts: list[BinaryTree] = []
        for child in node.children:
            bt, i = rec(child, i)
            parts.append(bt)
        acc = parts[0]
        for idx, nxt in enumerate(parts[1:], start=2):
            lab = top if idx == len(parts) else DUMMY
            acc = BinaryTree(lab, acc.start, nxt.end, sentence, acc, nxt)
        return acc, i

    root, _ = rec(tree, 0)
    return root


def _labeled(label: str, children: tuple[Node, ...]) -> Node:
    """``children`` under the collapsed chain ``label`` ("A|B" is A over B)."""
    labels = label.split(UNARY_SEP)
    out = InternalNode(labels[-1], children)
    for lab in reversed(labels[:-1]):
        out = InternalNode(lab, (out,))
    return out


def debinarize(btree: BinaryTree) -> Node:
    """Inverse of :func:`binarize`: splice DUMMY nodes, re-expand "A|B" chains.

    A postorder stack walk: a node's label on the stack marks where both its
    children are done, and ``done`` holds, per finished subtree, the nodes it
    expands to (several for a DUMMY node), so a left-branching tree as deep as
    its sentence costs no recursion."""
    if btree.label == DUMMY:
        raise UnknownDummyPlacement("dummy symbol at the root of a binary tree")
    done: list[list[Node]] = []
    stack: list[Union[BinaryTree, str]] = [btree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            right = done.pop()
            done[-1] += right
            if item != DUMMY:
                done[-1] = [_labeled(item, tuple(done[-1]))]
        elif item.left is None:
            out: Node = LeafNode(*item.sentence[item.start])
            done.append([out if item.label == DUMMY else _labeled(item.label, (out,))])
        else:
            stack += (item.label, item.right, item.left)
    return done[0][0]


def spans_of(tree: Node) -> list[LabeledSpan]:
    """Labeled spans of phrasal nodes (a multiset; unary chains may repeat a span).

    Part-of-speech leaves are never spans.  A preorder stack walk counts
    leaves; a node's (label, start) on the stack pops once its children are
    done, when the count is its end.
    """
    out: list[LabeledSpan] = []
    i = 0
    stack: list[Union[Node, tuple[str, int]]] = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, LeafNode):
            i += 1
        elif isinstance(item, InternalNode):
            stack.append((item.label, i))
            stack.extend(reversed(item.children))
        else:
            out.append(LabeledSpan(item[1], i, item[0]))
    return sorted(out)


def _unwrap_root(tree: Node) -> Node:
    if (
        isinstance(tree, InternalNode)
        and len(tree.children) == 1
        and tree.label in ("TOP", "S1", "ROOT")
        and isinstance(tree.children[0], InternalNode)
    ):
        return tree.children[0]
    return tree


def read_trees(text: str) -> list[Node]:
    """All trees in a treebank string, with root wrappers unwrapped and function
    tags stripped.  A stripped label that holds DUMMY or UNARY_SEP, or a bare
    part-of-speech leaf for a tree, is a BracketError at the tree's first '('."""

    def strip(node: Node, idx: int, start: int) -> Node:
        if isinstance(node, LeafNode):
            return node
        label = strip_label_decorations(node.label)
        if DUMMY in label or UNARY_SEP in label:
            raise BracketError(f"tree {idx}: label {label!r} uses a reserved symbol "
                               f"({DUMMY!r} or {UNARY_SEP!r})", _byte_offset(text, start))
        return InternalNode(label, tuple(strip(c, idx, start) for c in node.children))

    out = []
    for idx, (start, tree) in enumerate(iter_bracketed(text)):
        tree = _unwrap_root(tree)
        if isinstance(tree, LeafNode):
            raise BracketError(f"tree {idx} is a bare part-of-speech leaf", _byte_offset(text, start))
        out.append(strip(tree, idx, start))
    return out


def load_trees(path: str) -> list[Node]:
    with open(path, encoding="utf-8") as fh:
        return read_trees(fh.read())


@dataclass(frozen=True)
class Sentence:
    words: tuple[str, ...]
    pos: tuple[str, ...]
    tree: InternalNode
    btree: BinaryTree


class Treebank:
    """Sentences plus the closed vocabularies induced by binarization."""

    def __init__(self, sentences: list[Sentence]):
        self.sentences = sentences
        labels = {DUMMY}
        words = set()
        for sent in sentences:
            words.update(sent.words)
            for node, _ in sent.btree.nodes():
                labels.add(node.label)
        self.labels: tuple[str, ...] = tuple(sorted(labels))
        self.words: tuple[str, ...] = tuple(sorted(words))

    def __len__(self) -> int:
        return len(self.sentences)

    @classmethod
    def from_trees(cls, trees: list[Node]) -> "Treebank":
        sentences = []
        for tree in trees:
            pairs = sentence_of(tree)
            sentences.append(
                Sentence(
                    words=tuple(w for w, _ in pairs),
                    pos=tuple(p for _, p in pairs),
                    tree=tree,
                    btree=binarize(tree),
                )
            )
        return cls(sentences)

    @classmethod
    def load(cls, path: str) -> "Treebank":
        return cls.from_trees(load_trees(path))
