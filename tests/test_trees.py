import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordercky
from ordercky.decoder import hamming_costs
from ordercky.evaluate import score_trees
from ordercky.trees import (
    DUMMY,
    LEFT,
    RIGHT,
    BinaryTree,
    BracketError,
    EmptyConstituent,
    InternalNode,
    LabeledSpan,
    LeafNode,
    TrailingInput,
    Treebank,
    UnbalancedBrackets,
    UnknownDummyPlacement,
    binarize,
    iter_bracketed,
    iter_leaves,
    debinarize,
    parse_bracketed,
    read_trees,
    spans_of,
)
from tree_oracle import NestedTree, assert_partition, nested_binarize


def decoded_spans(btree):
    """Every node of a binary tree as a labeled span, DUMMY included; spans
    are unique within one binary tree, so a set is exact."""
    return {LabeledSpan(i, j, label) for label, i, j, _ in btree.nodes()}


def hamming(pred, gold):
    """What loss-augmented decoding adds for ``pred``: ``hamming_costs``
    summed over its decoded spans."""
    labels = tuple(sorted({s.label for s in decoded_spans(pred) | decoded_spans(gold)}))
    costs = hamming_costs(gold.end[0], labels, gold)
    return sum(costs[s.start, s.end, labels.index(s.label)] for s in decoded_spans(pred))


def phrasal_spans(btree):
    """A binary tree's decoded spans without the DUMMY ones."""
    return {s for s in decoded_spans(btree) if s.label != DUMMY}


def leaf(word, pos="T"):
    return LeafNode(word, pos)


def node(label, *children):
    return InternalNode(label, tuple(children))


class TestParseBracketed:
    def test_simple_sentence(self):
        tree = parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        assert isinstance(tree, InternalNode)
        assert tree.label == "S"
        assert len(tree.children) == 2
        assert [lf.word for lf in iter_leaves(tree)] == ["the", "cat", "sat"]

    def test_single_unary(self):
        tree = parse_bracketed("(X (A a))")
        assert tree.label == "X"
        assert tree.children == (LeafNode("a", "A"),)

    def test_unbalanced(self):
        with pytest.raises(UnbalancedBrackets):
            parse_bracketed("(S (NP (DT the)")

    def test_trailing_input(self):
        with pytest.raises(TrailingInput):
            parse_bracketed("(X (A a)) (Y (B b))")

    def test_empty_constituent(self):
        with pytest.raises(EmptyConstituent):
            parse_bracketed("(X (A a) ())")
        with pytest.raises(EmptyConstituent):
            parse_bracketed("(NP )")

    def test_whitespace_insensitive(self):
        one = parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        two = parse_bracketed("(S\n  (NP (DT the)\n      (NN cat))\n  (VP (VBD sat)))")
        assert one == two

    def test_error_carries_byte_offset(self):
        try:
            parse_bracketed("(S (NP (DT the)")
        except UnbalancedBrackets as err:
            assert err.offset == len("(S (NP (DT the)")
        else:
            pytest.fail("expected UnbalancedBrackets")

    def test_multi_tree_text(self):
        trees = read_trees("(X (A a))\n(Y (B b))\n")
        assert [t.label for t in trees] == ["X", "Y"]

    def test_multiline_trees(self):
        text = "(X\n (A a)\n (B b))\n\n(Y (C c))\n"
        trees = read_trees(text)
        assert [t.label for t in trees] == ["X", "Y"]


def nested(levels):
    """One tree whose brackets nest ``levels`` deep: a chain of A nodes over
    one leaf."""
    return "(A " * (levels - 1) + "(P w)" + ")" * (levels - 1)


# every message of the reader: how it is read, the input, the exception class,
# the message and the byte offset; 北 is three bytes in UTF-8 and NBSP two
MALFORMED = [
    ("iter", "(A 北) x", UnbalancedBrackets, "expected '('", 8),
    ("iter", "(S (A 北)", UnbalancedBrackets, "unexpected end of input", 10),
    ("iter", "(S (A 北) x)", UnbalancedBrackets, "expected '(' or ')' inside constituent", 11),
    ("iter", "(S (A 北 x))", UnbalancedBrackets, "expected ')' after token", 10),
    ("iter", "(S (A 北) ())", EmptyConstituent, "constituent without children", 12),
    ("iter", "(X 北)\n( (A a) (B b))", EmptyConstituent, "constituent without a label", 10),
    ("parse", "\u00a0\n", UnbalancedBrackets, "no tree in input", 3),
    ("parse", "(A 北) (B b)", TrailingInput, "trailing input after tree", 8),
    # the trailing text is itself malformed: the offset is still where it starts
    ("parse", "(A 北)  (B", TrailingInput, "trailing input after tree", 9),
]


@pytest.mark.parametrize("how, text, cls, message, offset", MALFORMED,
                         ids=[f"{row[0]}-{row[3]}" for row in MALFORMED])
def test_malformed_input(how, text, cls, message, offset):
    with pytest.raises(BracketError) as exc:
        list(iter_bracketed(text)) if how == "iter" else parse_bracketed(text)
    assert type(exc.value) is cls
    assert str(exc.value) == f"{message} (byte offset {offset})"
    assert exc.value.offset == offset


def test_a_deep_unary_nest_reads_binarizes_and_round_trips_as_text():
    # 5,000 levels, far past the default recursion limit; compared as text,
    # since the dataclass == of two such trees recurses
    levels = 5000
    assert sys.getrecursionlimit() < levels
    text = nested(levels)
    trees = read_trees(text)
    depth, tree = 1, trees[0]
    while isinstance(tree, InternalNode):
        depth, tree = depth + 1, tree.children[0]
    assert depth == levels and len(trees) == 1
    bt = binarize(trees[0])
    assert list(bt.nodes()) == [("|".join(["A"] * (levels - 1)), 0, 1, LEFT)]
    assert debinarize(bt).linearize() == trees[0].linearize() == text


def test_deep_decoded_tree_linearizes_and_scores():
    # a decoded tree may be as deep as its sentence: right-branching under
    # "S|VP" it debinarizes to two levels per token, 2,400 levels at n = 1,200
    n = 1200
    sentence = tuple((f"w{i}", "T") for i in range(n))
    spans = [(i, n, "S|VP") for i in range(n - 1)] + [(i, i + 1, DUMMY) for i in range(n - 1)]
    tree = debinarize(BinaryTree.from_spans(sentence, spans + [(n - 1, n, DUMMY)]))
    expected = "".join(f"(S (VP (T w{i}) " for i in range(n - 1)) + f"(T w{n - 1})" + "))" * (n - 1)
    assert tree.linearize() == expected
    assert [leaf.word for leaf in iter_leaves(tree)] == [w for w, _ in sentence]
    assert spans_of(tree) == sorted(LabeledSpan(i, n, lab) for i in range(n - 1) for lab in ("S", "VP"))
    report = score_trees([tree], [tree])
    assert (report.matched, report.predicted, report.f1) == (2 * (n - 1), 2 * (n - 1), 100.0)


def test_wide_tree_walks_in_preorder():
    bt = binarize(node("S", *[leaf(str(k)) for k in range(1500)]))
    nodes = list(bt.nodes())
    assert len(nodes) == 2 * 1500 - 1
    # preorder of a left-branching fold: the spine top-down, then each
    # spine node's right leaf bottom-up; the root and the spine read as LEFT
    assert [o for *_, o in nodes] == [LEFT] * 1500 + [RIGHT] * 1499
    spine = nodes[:1500]
    assert [(i, j) for _, i, j, _ in spine] == [(0, 1500 - k) for k in range(1500)]
    assert [i for _, i, _, _ in nodes[1500:]] == list(range(1, 1500))
    # each spine node composes the spine node below it with its right leaf
    assert list(bt.compositions()) == [("S", DUMMY, DUMMY, LEFT)] + [(DUMMY, DUMMY, DUMMY, LEFT)] * 1498


class TestBinarize:
    def test_ternary_folds_left(self):
        tree = node("S", leaf("a", "A"), leaf("b", "B"), leaf("c", "C"))
        bt = binarize(tree)
        assert list(bt.nodes()) == [("S", 0, 3, LEFT), (DUMMY, 0, 2, LEFT), (DUMMY, 0, 1, LEFT),
                                    (DUMMY, 1, 2, RIGHT), (DUMMY, 2, 3, RIGHT)]
        assert list(bt.compositions()) == [("S", DUMMY, DUMMY, LEFT), (DUMMY, DUMMY, DUMMY, LEFT)]

    def test_unary_chain_over_leaf_collapses(self):
        tree = node("S", node("NP", leaf("the", "DT")))
        bt = binarize(tree)
        assert list(bt.nodes()) == [("S|NP", 0, 1, LEFT)]
        assert list(bt.compositions()) == []

    def test_already_binary(self):
        tree = node("S", node("NP", leaf("x"), leaf("y")), node("VP", leaf("z")))
        bt = binarize(tree)
        assert list(bt.nodes()) == [("S", 0, 3, LEFT), ("NP", 0, 2, LEFT), (DUMMY, 0, 1, LEFT),
                                    (DUMMY, 1, 2, RIGHT), ("VP", 2, 3, RIGHT)]

    def test_phrasal_unary_chain_collapses(self):
        tree = node("S", node("VP", node("V", leaf("eat")), node("NP", leaf("it"))))
        bt = binarize(tree)
        assert list(bt.compositions()) == [("S|VP", "V", "NP", LEFT)]

    def test_partition_checked(self):
        tree = node("S", *[leaf(w) for w in "abcdef"])
        assert_partition(binarize(tree))


class TestDebinarize:
    def test_splices_dummy(self):
        tree = node("S", leaf("a", "A"), leaf("b", "B"), leaf("c", "C"))
        assert debinarize(binarize(tree)) == tree

    def test_expands_collapsed_label(self):
        tree = node("S", node("NP", leaf("the", "DT")))
        assert debinarize(binarize(tree)) == tree

    def test_flat_tree_of_1500_children_round_trips(self):
        # binarization makes it a left-branching chain 1,499 nodes deep
        tree = node("S", *[leaf(f"w{k}") for k in range(1500)])
        assert debinarize(binarize(tree)) == tree

    def test_dummy_root_rejected(self):
        sent = (("a", "A"), ("b", "B"))
        root = BinaryTree.from_spans(sent, [(0, 1, DUMMY), (1, 2, DUMMY), (0, 2, DUMMY)])
        with pytest.raises(UnknownDummyPlacement):
            debinarize(root)


class TestSpans:
    def test_nary_spans(self):
        tree = node("S", node("NP", leaf("x"), leaf("y")), node("VP", leaf("z")))
        assert set(spans_of(tree)) == {(0, 3, "S"), (0, 2, "NP"), (2, 3, "VP")}

    def test_pos_leaves_are_not_spans(self):
        assert spans_of(node("X", leaf("a"))) == [LabeledSpan(0, 1, "X")]

    def test_dummy_excluded_from_binary_spans(self):
        tree = node("S", leaf("a"), leaf("b"), leaf("c"))
        assert phrasal_spans(binarize(tree)) == {LabeledSpan(0, 3, "S")}

    def test_unary_chain_duplicates_span(self):
        tree = node("S", node("NP", leaf("x"), leaf("y")))
        spans = spans_of(tree)
        assert sorted(spans) == [(0, 2, "NP"), (0, 2, "S")]


class TestHamming:
    def test_identical_is_zero(self):
        tree = node("S", node("NP", leaf("x"), leaf("y")), node("VP", leaf("z")))
        bt = binarize(tree)
        assert hamming(bt, bt) == 0

    def test_single_relabel_is_one(self):
        gold = binarize(node("S", node("NP", leaf("x"), leaf("y")), node("VP", leaf("z"))))
        pred = binarize(node("S", node("QP", leaf("x"), leaf("y")), node("VP", leaf("z"))))
        assert hamming(pred, gold) == 1

    def test_hand_enumerated_four_token_example(self):
        # gold spans: (0,4,S) (0,2,X) (2,4,Y) (0,1,∅) (1,2,∅) (2,3,∅) (3,4,∅)
        # pred spans: (0,4,S) (0,2,Z) (2,4,W) (0,1,∅) (1,2,∅) (2,3,∅) (3,4,∅)
        # pred shares 5 of its 7 spans with gold -> distance 2
        gold = binarize(
            node("S", node("X", leaf("a"), leaf("b")), node("Y", leaf("c"), leaf("d")))
        )
        pred = binarize(
            node("S", node("Z", leaf("a"), leaf("b")), node("W", leaf("c"), leaf("d")))
        )
        assert hamming(pred, gold) == 2

    def test_bounded_by_node_count(self):
        gold = binarize(node("S", node("X", leaf("a"), leaf("b")), leaf("c")))
        pred = binarize(node("Q", node("R", leaf("a"), leaf("c")), leaf("b")))
        assert hamming(pred, gold) <= sum(1 for _ in pred.nodes())


# random n-ary trees for round-trip properties
@st.composite
def random_tree(draw, max_depth=4):
    labels = ["S", "NP", "VP", "PP", "ADJP"]
    pos_tags = ["DT", "NN", "VB", "IN"]
    words = ["the", "cat", "sat", "on", "mat", "big"]

    def build(depth):
        if depth >= max_depth or draw(st.booleans()):
            return LeafNode(draw(st.sampled_from(words)), draw(st.sampled_from(pos_tags)))
        width = draw(st.integers(min_value=1, max_value=4))
        children = tuple(build(depth + 1) for _ in range(width))
        return InternalNode(draw(st.sampled_from(labels)), children)

    width = draw(st.integers(min_value=1, max_value=4))
    children = tuple(build(1) for _ in range(width))
    return InternalNode(draw(st.sampled_from(labels)), children)


@given(random_tree())
@settings(max_examples=200, deadline=None)
def test_binarize_round_trip(tree):
    bt = binarize(tree)
    assert_partition(bt)
    assert debinarize(bt) == tree


@given(random_tree())
@settings(max_examples=200, deadline=None)
def test_binarize_preserves_phrasal_spans(tree):
    # expand collapsed labels back into individual span entries
    expanded = []
    for i, j, label in phrasal_spans(binarize(tree)):
        for part in label.split("|"):
            expanded.append((i, j, part))
    assert sorted(expanded) == sorted((i, j, l) for i, j, l in spans_of(tree))


@given(random_tree())
@settings(max_examples=100, deadline=None)
def test_walks_are_preorder(tree):
    def preorder(node, order):
        yield node, order
        if not node.is_leaf:
            yield from preorder(node.left, LEFT)
            yield from preorder(node.right, RIGHT)

    oracle = nested_binarize(tree)
    assert list(oracle.nodes()) == list(preorder(oracle, LEFT))
    bt = binarize(tree)
    assert list(bt.nodes()) == oracle.node_tuples()
    assert list(bt.compositions()) == oracle.composition_tuples()


def test_walks_equal_the_nested_oracle_on_every_bundled_gold_tree():
    data = Path(ordercky.__file__).parent / "data"
    trees = [t for path in sorted(data.glob("*.txt")) for t in read_trees(path.read_text(encoding="utf-8"))]
    assert len(trees) > 200
    for tree in trees:
        oracle, bt = nested_binarize(tree), binarize(tree)
        assert list(bt.nodes()) == oracle.node_tuples()
        assert list(bt.compositions()) == oracle.composition_tuples()


@st.composite
def random_bracketing(draw, max_n=12):
    """A random labeled binary bracketing of 1..max_n tokens, as a NestedTree."""
    n = draw(st.integers(min_value=1, max_value=max_n))

    def build(i, j):
        label = draw(st.sampled_from(["A", "B", DUMMY]))
        if j - i == 1:
            return NestedTree(label, i, j)
        k = draw(st.integers(min_value=i + 1, max_value=j - 1))
        return NestedTree(label, i, j, build(i, k), build(k, j))

    return build(0, n)


@given(random_bracketing(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_spans_in_any_order_walk_as_the_nested_oracle(oracle, rng):
    spans = oracle.spans()
    rng.shuffle(spans)
    bt = BinaryTree.from_spans(tuple((f"w{i}", "X") for i in range(oracle.end)), spans)
    assert_partition(bt)
    assert list(bt.nodes()) == oracle.node_tuples()
    assert list(bt.compositions()) == oracle.composition_tuples()


@given(random_tree())
@settings(max_examples=100, deadline=None)
def test_linearize_round_trip(tree):
    assert parse_bracketed(tree.linearize()) == tree


@given(random_tree())
@settings(max_examples=100, deadline=None)
def test_hamming_self_zero(tree):
    bt = binarize(tree)
    assert hamming(bt, bt) == 0


def test_treebank_vocabularies():
    trees = read_trees("(S (NP (DT the) (NN cat)) (VP (VBD sat)))\n(S (NP (NN cat)))\n")
    tb = Treebank.from_trees(trees)
    assert DUMMY in tb.labels
    assert "S" in tb.labels and "NP" in tb.labels
    assert "S|NP" in tb.labels  # collapsed chain from the second tree
    assert tb.words == ("cat", "sat", "the")  # the scorer adds its own <UNK> row
    assert list(tb.labels) == sorted(tb.labels)


def test_label_decoration_stripping():
    trees = read_trees("(S (NP-SBJ (DT the) (NN cat)) (VP=2 (VBD sat)))")
    assert {l for _, _, l in spans_of(trees[0])} == {"S", "NP", "VP"}


def test_top_root_unwrapped():
    trees = read_trees("(TOP (S (NP (NN cat)) (VP (VBD sat))))")
    assert trees[0].label == "S"


def test_reserved_labels_rejected():
    with pytest.raises(ValueError):
        read_trees("(S (A|B (X x)) (C (Y y)))")


def test_token_bracket_escaping():
    tree = node("S", node("NP", LeafNode("(", "-LRB-"), LeafNode("word", "NN")))
    text = tree.linearize()
    assert "-LRB-" in text and "((" not in text.replace("( ", "")
    reparsed = parse_bracketed(text)
    assert reparsed.children[0].children[0].word == "-LRB-"


def test_linearize_read_trees_round_trip():
    trees = read_trees("(S (NP (DT the) (NN cat)) (VP (VBD sat)))\n(X (A a))")
    assert read_trees("".join(tree.linearize() + "\n" for tree in trees)) == trees


def test_trailing_input_offset_points_past_tree():
    text = "(X (A a))  (Y (B b))"
    try:
        parse_bracketed(text)
    except TrailingInput as err:
        assert err.offset == text.index("(Y")
    else:
        pytest.fail("expected TrailingInput")


def test_utf8_tokens_round_trip():
    text = "(S (NP (NN 北京)) (VP (VV 欢迎) (NP (PN 你))))"
    tree = parse_bracketed(text)
    assert [lf.word for lf in iter_leaves(tree)] == ["北京", "欢迎", "你"]
    bt = binarize(tree)
    assert debinarize(bt) == tree
    assert parse_bracketed(tree.linearize()) == tree
