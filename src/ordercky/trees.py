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

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Union

DUMMY = "∅"
UNARY_SEP = "|"
UNK = "<UNK>"

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
        body = " ".join(c.linearize() for c in self.children)
        return f"({self.label} {body})"


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

    def nodes(self) -> Iterator["BinaryTree"]:
        yield self
        if self.left is not None:
            yield from self.left.nodes()
            yield from self.right.nodes()


def escape_token(word: str) -> str:
    for raw, esc in _ESCAPES:
        word = word.replace(raw, esc)
    return word


def _byte_offset(text: str, i: int) -> int:
    return len(text[:i].encode("utf-8"))


def _parse_node(text: str, i: int) -> tuple[Node, int]:
    """Parse one s-expression starting at text[i] == '('."""
    n = len(text)
    i += 1
    while i < n and text[i].isspace():
        i += 1
    start_label = i
    while i < n and text[i] not in "() \t\r\n":
        i += 1
    label = text[start_label:i]
    while i < n and text[i].isspace():
        i += 1
    if i >= n:
        raise UnbalancedBrackets("unexpected end of input", _byte_offset(text, i))

    if text[i] == "(":
        children: list[Node] = []
        while True:
            if text[i] == "(":
                child, i = _parse_node(text, i)
                children.append(child)
            elif text[i] == ")":
                break
            else:
                raise UnbalancedBrackets(
                    "expected '(' or ')' inside constituent", _byte_offset(text, i)
                )
            while i < n and text[i].isspace():
                i += 1
            if i >= n:
                raise UnbalancedBrackets("unexpected end of input", _byte_offset(text, i))
        if not label:
            # bare "( ... )" wrapper: legal only as a single-child shell,
            # resolved by the caller
            if len(children) == 1:
                return children[0], i + 1
            raise EmptyConstituent("constituent without a label", _byte_offset(text, start_label))
        return InternalNode(label, tuple(children)), i + 1

    if text[i] == ")":
        raise EmptyConstituent("constituent without children", _byte_offset(text, i))

    start_tok = i
    while i < n and text[i] not in "() \t\r\n":
        i += 1
    token = text[start_tok:i]
    while i < n and text[i].isspace():
        i += 1
    if i >= n:
        raise UnbalancedBrackets("unexpected end of input", _byte_offset(text, i))
    if text[i] != ")":
        raise UnbalancedBrackets("expected ')' after token", _byte_offset(text, i))
    if not label:
        raise EmptyConstituent("token without a part-of-speech tag", _byte_offset(text, start_tok))
    return LeafNode(word=token, pos=label), i + 1


def iter_bracketed(text: str) -> Iterator[Node]:
    """Yield every balanced tree in ``text``.

    Handles both one-tree-per-line files and multi-line s-expressions; the
    scanner only cares about balance, not line structure.
    """
    i, n = 0, len(text)
    while True:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            return
        if text[i] != "(":
            raise UnbalancedBrackets("expected '('", _byte_offset(text, i))
        tree, i = _parse_node(text, i)
        yield tree


def parse_bracketed(text: str) -> Node:
    """Parse exactly one bracketed tree; anything after it is an error."""
    it = iter_bracketed(text)
    try:
        tree = next(it)
    except StopIteration:
        raise UnbalancedBrackets("no tree in input", _byte_offset(text, len(text))) from None
    try:
        next(it)
    except StopIteration:
        return tree
    except BracketError as err:
        raise TrailingInput("trailing input after tree", err.offset) from None
    raise TrailingInput("trailing input after tree", _find_trailing_offset(text))


def _find_trailing_offset(text: str) -> int:
    # offset of the content following the first balanced tree
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                j = i + 1
                while j < len(text) and text[j].isspace():
                    j += 1
                return _byte_offset(text, j)
    return _byte_offset(text, len(text))


def iter_leaves(node: Node) -> Iterator[LeafNode]:
    if isinstance(node, LeafNode):
        yield node
    else:
        for child in node.children:
            yield from iter_leaves(child)


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


def _strip_tree(node: Node) -> Node:
    if isinstance(node, LeafNode):
        return node
    return InternalNode(
        strip_label_decorations(node.label),
        tuple(_strip_tree(c) for c in node.children),
    )


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


def debinarize(btree: BinaryTree) -> Node:
    """Inverse of :func:`binarize`: splice DUMMY nodes, re-expand "A|B" chains."""
    if btree.label == DUMMY:
        raise UnknownDummyPlacement("dummy symbol at the root of a binary tree")

    def expand(node: BinaryTree) -> list[Node]:
        if node.is_leaf:
            word, pos = node.sentence[node.start]
            out: Node = LeafNode(word, pos)
            if node.label == DUMMY:
                return [out]
            for lab in reversed(node.label.split(UNARY_SEP)):
                out = InternalNode(lab, (out,))
            return [out]
        kids = expand(node.left) + expand(node.right)
        if node.label == DUMMY:
            return kids
        labels = node.label.split(UNARY_SEP)
        out = InternalNode(labels[-1], tuple(kids))
        for lab in reversed(labels[:-1]):
            out = InternalNode(lab, (out,))
        return [out]

    return expand(btree)[0]


def spans_of(tree: Union[Node, BinaryTree]) -> list[LabeledSpan]:
    """Labeled spans of phrasal nodes (a multiset; unary chains may repeat a span).

    Part-of-speech leaves are never spans.  On a BinaryTree, DUMMY nodes are
    excluded and collapsed labels are reported as their collapsed symbol.
    """
    if isinstance(tree, BinaryTree):
        return sorted(
            LabeledSpan(n.start, n.end, n.label) for n in tree.nodes() if n.label != DUMMY
        )
    out: list[LabeledSpan] = []

    def rec(node: Node, i: int) -> int:
        if isinstance(node, LeafNode):
            return i + 1
        j = i
        for child in node.children:
            j = rec(child, j)
        out.append(LabeledSpan(i, j, node.label))
        return j

    rec(tree, 0)
    return sorted(out)


def decoded_spans(btree: BinaryTree) -> set[LabeledSpan]:
    """Every node of a binary tree as a labeled span, DUMMY included.

    Spans are unique within one binary tree, so a set is exact.
    """
    return {LabeledSpan(n.start, n.end, n.label) for n in btree.nodes()}


def _unwrap_root(tree: Node) -> Node:
    if (
        isinstance(tree, InternalNode)
        and len(tree.children) == 1
        and tree.label in ("TOP", "S1", "ROOT")
        and isinstance(tree.children[0], InternalNode)
    ):
        return tree.children[0]
    return tree


def _check_labels(node: Node, idx: int) -> None:
    if isinstance(node, LeafNode):
        return
    if DUMMY in node.label or UNARY_SEP in node.label:
        raise ValueError(
            f"tree {idx}: label {node.label!r} uses a reserved symbol ({DUMMY!r} or {UNARY_SEP!r})"
        )
    for child in node.children:
        _check_labels(child, idx)


def read_trees(text: str) -> list[Node]:
    """All trees in a treebank string, with root wrappers unwrapped and
    function tags stripped."""
    out = []
    for idx, tree in enumerate(iter_bracketed(text)):
        tree = _unwrap_root(tree)
        if isinstance(tree, LeafNode):
            raise ValueError(f"tree {idx} is a bare part-of-speech leaf")
        tree = _strip_tree(tree)
        _check_labels(tree, idx)
        out.append(tree)
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
            for node in sent.btree.nodes():
                labels.add(node.label)
        self.labels: tuple[str, ...] = tuple(sorted(labels))
        self.words: tuple[str, ...] = (UNK,) + tuple(sorted(words))

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
