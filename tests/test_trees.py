import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordercky.trees import (
    DUMMY,
    BinaryTree,
    EmptyConstituent,
    InternalNode,
    LabeledSpan,
    LeafNode,
    LengthMismatch,
    TrailingInput,
    Treebank,
    UnbalancedBrackets,
    UnknownDummyPlacement,
    binarize,
    iter_leaves,
    check_partition,
    debinarize,
    hamming,
    parse_bracketed,
    read_trees,
    spans_of,
)


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


class TestBinarize:
    def test_ternary_folds_left(self):
        tree = node("S", leaf("a", "A"), leaf("b", "B"), leaf("c", "C"))
        bt = binarize(tree)
        assert bt.label == "S" and (bt.start, bt.end) == (0, 3)
        assert bt.left.label == DUMMY and (bt.left.start, bt.left.end) == (0, 2)
        assert bt.right.label == DUMMY and (bt.right.start, bt.right.end) == (2, 3)
        assert bt.left.left.label == DUMMY and bt.left.left.is_leaf

    def test_unary_chain_over_leaf_collapses(self):
        tree = node("S", node("NP", leaf("the", "DT")))
        bt = binarize(tree)
        assert bt.is_leaf
        assert bt.label == "S|NP"
        assert (bt.start, bt.end) == (0, 1)

    def test_already_binary(self):
        tree = node("S", node("NP", leaf("x"), leaf("y")), node("VP", leaf("z")))
        bt = binarize(tree)
        assert bt.label == "S"
        assert (bt.left.start, bt.left.end, bt.left.label) == (0, 2, "NP")
        assert (bt.right.start, bt.right.end, bt.right.label) == (2, 3, "VP")

    def test_phrasal_unary_chain_collapses(self):
        tree = node("S", node("VP", node("V", leaf("eat")), node("NP", leaf("it"))))
        bt = binarize(tree)
        assert bt.label == "S|VP"
        assert bt.left.label == "V" and bt.right.label == "NP"

    def test_partition_checked(self):
        tree = node("S", *[leaf(w) for w in "abcdef"])
        check_partition(binarize(tree))


class TestDebinarize:
    def test_splices_dummy(self):
        tree = node("S", leaf("a", "A"), leaf("b", "B"), leaf("c", "C"))
        assert debinarize(binarize(tree)) == tree

    def test_expands_collapsed_label(self):
        tree = node("S", node("NP", leaf("the", "DT")))
        assert debinarize(binarize(tree)) == tree

    def test_dummy_root_rejected(self):
        sent = (("a", "A"), ("b", "B"))
        left = BinaryTree(DUMMY, 0, 1, sent)
        right = BinaryTree(DUMMY, 1, 2, sent)
        root = BinaryTree(DUMMY, 0, 2, sent, left, right)
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
        assert spans_of(binarize(tree)) == [LabeledSpan(0, 3, "S")]

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

    def test_length_mismatch(self):
        a = binarize(node("S", leaf("a"), leaf("b")))
        b = binarize(node("S", leaf("a"), leaf("b"), leaf("c")))
        with pytest.raises(LengthMismatch):
            hamming(a, b)

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
    check_partition(bt)
    assert debinarize(bt) == tree


@given(random_tree())
@settings(max_examples=200, deadline=None)
def test_binarize_preserves_phrasal_spans(tree):
    # expand collapsed labels back into individual span entries
    expanded = []
    for i, j, label in spans_of(binarize(tree)):
        for part in label.split("|"):
            expanded.append((i, j, part))
    assert sorted(expanded) == sorted((i, j, l) for i, j, l in spans_of(tree))


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
    assert "<UNK>" in tb.words
    assert "S" in tb.labels and "NP" in tb.labels
    assert "S|NP" in tb.labels  # collapsed chain from the second tree
    assert set(tb.words) == {"<UNK>", "the", "cat", "sat"}
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
