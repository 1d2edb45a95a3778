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

Both tree types are flat, frozen records of tuples over their nodes in
preorder, and only this module knows the layouts.  A ``Tree`` (n-ary, as
read and printed) keeps per node its label (on a leaf, the part-of-speech
tag), its word (None on a phrase) and the preorder index one past the end
of its subtree; a ``BinaryTree`` (as decoded) keeps each node's label and
fencepost span.  Holding plain strings and ints, trees of any depth
compare, hash and print without recursion.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Optional

DUMMY = "∅"
UNARY_SEP = "|"

# a node's order as a child: every node reads the span and rule scores of its
# order, and the root reads as LEFT
LEFT, RIGHT = 0, 1

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
class Tree:
    """N-ary tree as flat tuples of its nodes in preorder: node p is a leaf
    iff ``word[p]`` is not None, when ``label[p]`` is its part-of-speech
    tag, and its subtree is the nodes ``p:end[p]``.  A phrase's first child
    is node p + 1, and each child's next sibling starts where the child's
    subtree ends."""

    label: tuple[str, ...]
    word: tuple[Optional[str], ...]
    end: tuple[int, ...]

    def linearize(self) -> str:
        """Bracketed text: every bracket opens after a space, and the root's
        space is cut; a leaf closes itself and every phrase ending with it."""
        closes = Counter(stop for stop, word in zip(self.end, self.word) if word is None)
        parts = []
        for after, (label, word) in enumerate(zip(self.label, self.word), 1):
            if word is None:
                parts.append(f" ({label}")
            else:
                parts.append(f" ({label} {escape_token(word)})" + ")" * closes[after])
        return "".join(parts)[1:]


# perfbench's tracer times ``trees.InternalNode.linearize``
InternalNode = Tree


@dataclass(frozen=True)
class BinaryTree:
    """Strictly binary tree over fencepost spans, as flat tuples of its nodes
    in preorder: node p covers ``start[p]:end[p]`` under ``label[p]``.

    ``sentence`` is the shared (word, pos) sequence; leaves are width-1 spans
    and internal nodes have exactly two children partitioning the span.  A
    node is a left child iff it is the root or starts where the node before
    it starts; an internal node's left child is the next node, and its right
    child follows the left child's 2w - 1 nodes for a left child of width w.
    """

    sentence: tuple[tuple[str, str], ...]
    label: tuple[str, ...]
    start: tuple[int, ...]
    end: tuple[int, ...]

    @classmethod
    def from_spans(cls, sentence: tuple[tuple[str, str], ...],
                   spans: Iterable[tuple[int, int, str]]) -> "BinaryTree":
        """The tree of (start, end, label) spans given in any order: a binary
        tree's spans are distinct, and by start, then widest first, they are
        in preorder."""
        start, end, label = zip(*sorted(spans, key=lambda span: (span[0], -span[1])))
        return cls(sentence, label, start, end)

    def nodes(self) -> Iterator[tuple[str, int, int, int]]:
        """(label, start, end, order as a child) of every node in preorder;
        the root, compared with itself, reads as LEFT."""
        for lab, i, j, before in zip(self.label, self.start, self.end, self.start[:1] + self.start):
            yield lab, i, j, LEFT if i == before else RIGHT

    def compositions(self) -> Iterator[tuple[str, str, str, int]]:
        """(parent, left, right, parent's order) of every internal node in
        preorder."""
        label, start, end = self.label, self.start, self.end
        for p, (lab, i, j, order) in enumerate(self.nodes()):
            if j - i > 1:
                yield lab, label[p + 1], label[p + 2 * (end[p + 1] - start[p + 1])], order


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


def _read_tree(text: str, i: int) -> tuple[Optional[Tree], int]:
    """Read the tree whose '(' is the first non-space character at or after
    ``text[i]``; return it and the index of the first non-space character
    after it, or (None, len(text)) when only whitespace is left.

    Nodes are written in preorder as they open; open constituents wait on a
    stack as (label, label index, preorder index), so a tree of any depth
    costs no recursion.  An unlabeled "( ... )" shell writes no node and
    must hold exactly one tree: its first child's subtree ends where it
    does.
    """
    n = len(text)
    i = _SPACE(text, i).end()
    if i == n:
        return None, n
    if text[i] != "(":
        raise UnbalancedBrackets("expected '('", _byte_offset(text, i))
    labels: list[str] = []
    words: list[Optional[str]] = []
    ends: list[int] = []
    stack: list[tuple[str, int, int]] = []
    while True:
        # text[i] is the '(' of a new constituent
        m = _ATOM(text, i + 1)
        label, start, i = m[1], m.start(1), m.end()
        if i == n:
            raise _end_error(text)
        if text[i] == "(":
            stack.append((label, start, len(labels)))
            if label:
                labels.append(label)
                words.append(None)
                ends.append(-1)
            continue
        if text[i] == ")":
            raise EmptyConstituent("constituent without children", _byte_offset(text, i))
        # a token; its label is not empty, since an empty label ends at '(' or ')'
        m = _ATOM(text, i)
        labels.append(label)
        words.append(m[1])
        ends.append(len(labels))
        i = m.end()
        if i == n:
            raise _end_error(text)
        if text[i] != ")":
            raise UnbalancedBrackets("expected ')' after token", _byte_offset(text, i))
        # text[i] closes the last node
        while True:
            i = _SPACE(text, i + 1).end()
            if not stack:
                return Tree(tuple(labels), tuple(words), tuple(ends)), i
            if i == n:
                raise _end_error(text)
            if text[i] == "(":
                break
            if text[i] != ")":
                raise UnbalancedBrackets("expected '(' or ')' inside constituent", _byte_offset(text, i))
            label, start, p = stack.pop()
            if label:
                ends[p] = len(labels)
            elif ends[p] != len(labels):
                raise EmptyConstituent("constituent without a label", _byte_offset(text, start))


def iter_bracketed(text: str) -> Iterator[tuple[int, Tree]]:
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


def parse_bracketed(text: str) -> Tree:
    """Parse exactly one bracketed tree; anything after it is an error."""
    tree, i = _read_tree(text, 0)
    if tree is None:
        raise UnbalancedBrackets("no tree in input", _byte_offset(text, len(text)))
    if i < len(text):
        raise TrailingInput("trailing input after tree", _byte_offset(text, i))
    return tree


def sentence_of(tree: Tree) -> tuple[tuple[str, str], ...]:
    return tuple((word, pos) for pos, word in zip(tree.label, tree.word) if word is not None)


def _leaves_before(tree: Tree) -> list[int]:
    """The number of leaves before each preorder index, and in all: node p
    covers the leaves ``before[p]:before[tree.end[p]]``."""
    return list(accumulate((word is not None for word in tree.word), initial=0))


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


def binarize(tree: Tree) -> BinaryTree:
    """Left-branching binarization with unary collapse.

    Children of an n-ary node fold leftmost-first under DUMMY nodes, with the
    original label on top.  Unary chains of phrasal labels join into one
    "A|B" label.  Part-of-speech leaves become width-1 spans: DUMMY when bare,
    or the collapsed phrasal label when a unary chain sits above them.

    One pass in preorder: a phrase with one child adds its label to the
    chain that the next node ends, and a phrase with more children folds
    them, each DUMMY fold ending where one of its children ends.
    """
    label, word, end = tree.label, tree.word, tree.end
    if word[0] is not None:
        raise ValueError("cannot binarize a bare part-of-speech leaf")
    before = _leaves_before(tree)
    spans: list[tuple[int, int, str]] = []
    chain: list[str] = []
    for p, (lab, stop) in enumerate(zip(label, end)):
        i = before[p]
        if word[p] is not None:
            spans.append((i, i + 1, UNARY_SEP.join(chain) if chain else DUMMY))
            chain = []
            continue
        chain.append(lab)
        child = end[p + 1]  # the second child, if any
        if child == stop:
            continue
        spans.append((i, before[stop], UNARY_SEP.join(chain)))
        chain = []
        while end[child] < stop:
            child = end[child]
            spans.append((i, before[child], DUMMY))
    return BinaryTree.from_spans(sentence_of(tree), spans)


def debinarize(btree: BinaryTree) -> Tree:
    """Inverse of :func:`binarize`: splice DUMMY nodes, re-expand "A|B" chains.

    Both trees are in preorder, so one pass writes each binary node's chain
    of phrases, then its word if it is a leaf: every node it writes ends
    where the binary node's 2w - 1 nodes for width w do."""
    if btree.label[0] == DUMMY:
        raise UnknownDummyPlacement("dummy symbol at the root of a binary tree")
    chains = [() if lab == DUMMY else lab.split(UNARY_SEP) for lab in btree.label]
    widths = [j - i for i, j in zip(btree.start, btree.end)]
    # the number of n-ary nodes written before each binary node
    at = list(accumulate((len(chain) + (w == 1) for chain, w in zip(chains, widths)), initial=0))
    labels: list[str] = []
    words: list[Optional[str]] = []
    ends: list[int] = []
    for p, (chain, i, w) in enumerate(zip(chains, btree.start, widths)):
        labels += chain
        words += [None] * len(chain)
        if w == 1:
            word, pos = btree.sentence[i]
            labels.append(pos)
            words.append(word)
        ends += [at[p + 2 * w - 1]] * (at[p + 1] - at[p])
    return Tree(tuple(labels), tuple(words), tuple(ends))


def spans_of(tree: Tree) -> list[LabeledSpan]:
    """Labeled spans of phrasal nodes (a multiset; unary chains may repeat a span).

    Part-of-speech leaves are never spans."""
    before = _leaves_before(tree)
    return sorted(LabeledSpan(before[p], before[stop], label)
                  for p, (label, word, stop) in enumerate(zip(tree.label, tree.word, tree.end))
                  if word is None)


def read_trees(text: str) -> list[Tree]:
    """All trees in a treebank string, with root wrappers unwrapped and function
    tags stripped.  A stripped label that holds DUMMY or UNARY_SEP, or a bare
    part-of-speech leaf for a tree, is a BracketError at the tree's first '('.
    The first such label in preorder is the one named."""
    out = []
    for idx, (start, tree) in enumerate(iter_bracketed(text)):
        label, word, end = tree.label, tree.word, tree.end
        if word[0] is not None:
            raise BracketError(f"tree {idx} is a bare part-of-speech leaf", _byte_offset(text, start))
        if label[0] in ("TOP", "S1", "ROOT") and end[1] == end[0] and word[1] is None:
            # a wrapper over one phrase: drop the root
            label, word, end = label[1:], word[1:], tuple(stop - 1 for stop in end[1:])
        label = tuple(lab if w is not None else strip_label_decorations(lab) for lab, w in zip(label, word))
        for lab, w in zip(label, word):
            if w is None and (DUMMY in lab or UNARY_SEP in lab):
                raise BracketError(f"tree {idx}: label {lab!r} uses a reserved symbol "
                                   f"({DUMMY!r} or {UNARY_SEP!r})", _byte_offset(text, start))
        out.append(Tree(label, word, end))
    return out


def load_trees(path: str) -> list[Tree]:
    with open(path, encoding="utf-8") as fh:
        return read_trees(fh.read())


@dataclass(frozen=True)
class Sentence:
    """A treebank tree as read and as binarized; its (word, tag) pairs are
    ``btree.sentence``."""

    tree: Tree
    btree: BinaryTree


class Treebank:
    """Sentences plus the closed vocabularies induced by binarization."""

    def __init__(self, sentences: list[Sentence]):
        self.sentences = sentences
        labels = {DUMMY}
        words = set()
        for sent in sentences:
            words.update(word for word, _ in sent.btree.sentence)
            labels.update(sent.btree.label)
        self.labels: tuple[str, ...] = tuple(sorted(labels))
        self.words: tuple[str, ...] = tuple(sorted(words))

    def __len__(self) -> int:
        return len(self.sentences)

    @classmethod
    def from_trees(cls, trees: list[Tree]) -> "Treebank":
        return cls([Sentence(tree, binarize(tree)) for tree in trees])

    @classmethod
    def load(cls, path: str) -> "Treebank":
        return cls.from_trees(load_trees(path))
