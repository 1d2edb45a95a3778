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
    LabeledSpan,
    TrailingInput,
    Tree,
    Treebank,
    UnbalancedBrackets,
    UnknownDummyPlacement,
    binarize,
    debinarize,
    iter_bracketed,
    parse_bracketed,
    read_trees,
    sentence_of,
    spans_of,
)
from tree_oracle import (
    InternalNode,
    LeafNode,
    NestedTree,
    assert_partition,
    flatten,
    nested_binarize,
    nested_debinarize,
    nested_read_trees,
    nested_sentence,
    nested_spans,
)


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


def flat_tree(*words):
    """One phrase over a leaf per word, all tagged T."""
    return parse_bracketed("(S " + " ".join(f"(T {word})" for word in words) + ")")


class TestParseBracketed:
    def test_simple_sentence(self):
        # preorder: each node's label, its word (None on a phrase) and the
        # index one past its subtree
        t = parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        assert t == Tree(("S", "NP", "DT", "NN", "VP", "VBD"), (None, None, "the", "cat", None, "sat"),
                         (6, 4, 3, 4, 6, 6))
        assert sentence_of(t) == (("the", "DT"), ("cat", "NN"), ("sat", "VBD"))

    def test_single_unary(self):
        assert parse_bracketed("(X (A a))") == Tree(("X", "A"), (None, "a"), (2, 2))

    def test_a_bare_leaf_is_one_node(self):
        assert parse_bracketed("(A a)") == Tree(("A",), ("a",), (1,))

    def test_an_unlabeled_shell_around_one_tree_is_dropped(self):
        assert parse_bracketed("( (X ( (A a)) (B b)) )") == parse_bracketed("(X (A a) (B b))")

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
        assert [t.label[0] for t in trees] == ["X", "Y"]

    def test_multiline_trees(self):
        text = "(X\n (A a)\n (B b))\n\n(Y (C c))\n"
        trees = read_trees(text)
        assert [t.label[0] for t in trees] == ["X", "Y"]


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
    # 5,000 levels, far past the default recursion limit
    levels = 5000
    assert sys.getrecursionlimit() < levels
    text = nested(levels)
    trees = read_trees(text)
    assert trees == [Tree(("A",) * (levels - 1) + ("P",), (None,) * (levels - 1) + ("w",), (levels,) * levels)]
    bt = binarize(trees[0])
    assert list(bt.nodes()) == [("|".join(["A"] * (levels - 1)), 0, 1, LEFT)]
    assert debinarize(bt) == trees[0]
    assert trees[0].linearize() == text


def test_deep_decoded_tree_linearizes_and_scores():
    # a decoded tree may be as deep as its sentence: right-branching under
    # "S|VP" it debinarizes to two levels per token, 2,400 levels at n = 1,200
    n = 1200
    sentence = tuple((f"w{i}", "T") for i in range(n))
    spans = [(i, n, "S|VP") for i in range(n - 1)] + [(i, i + 1, DUMMY) for i in range(n - 1)]
    tree = debinarize(BinaryTree.from_spans(sentence, spans + [(n - 1, n, DUMMY)]))
    expected = "".join(f"(S (VP (T w{i}) " for i in range(n - 1)) + f"(T w{n - 1})" + "))" * (n - 1)
    assert tree.linearize() == expected
    assert sentence_of(tree) == sentence
    assert spans_of(tree) == sorted(LabeledSpan(i, n, lab) for i in range(n - 1) for lab in ("S", "VP"))
    report = score_trees([tree], [tree])
    assert (report.matched, report.predicted, report.f1) == (2 * (n - 1), 2 * (n - 1), 100.0)


def test_wide_tree_walks_in_preorder():
    bt = binarize(flat_tree(*range(1500)))
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
        tree = parse_bracketed("(S (A a) (B b) (C c))")
        bt = binarize(tree)
        assert list(bt.nodes()) == [("S", 0, 3, LEFT), (DUMMY, 0, 2, LEFT), (DUMMY, 0, 1, LEFT),
                                    (DUMMY, 1, 2, RIGHT), (DUMMY, 2, 3, RIGHT)]
        assert list(bt.compositions()) == [("S", DUMMY, DUMMY, LEFT), (DUMMY, DUMMY, DUMMY, LEFT)]

    def test_unary_chain_over_leaf_collapses(self):
        tree = parse_bracketed("(S (NP (DT the)))")
        bt = binarize(tree)
        assert list(bt.nodes()) == [("S|NP", 0, 1, LEFT)]
        assert list(bt.compositions()) == []

    def test_already_binary(self):
        tree = parse_bracketed("(S (NP (T x) (T y)) (VP (T z)))")
        bt = binarize(tree)
        assert list(bt.nodes()) == [("S", 0, 3, LEFT), ("NP", 0, 2, LEFT), (DUMMY, 0, 1, LEFT),
                                    (DUMMY, 1, 2, RIGHT), ("VP", 2, 3, RIGHT)]

    def test_phrasal_unary_chain_collapses(self):
        tree = parse_bracketed("(S (VP (V (T eat)) (NP (T it))))")
        bt = binarize(tree)
        assert list(bt.compositions()) == [("S|VP", "V", "NP", LEFT)]

    def test_partition_checked(self):
        tree = flat_tree(*"abcdef")
        assert_partition(binarize(tree))


class TestDebinarize:
    def test_splices_dummy(self):
        tree = parse_bracketed("(S (A a) (B b) (C c))")
        assert debinarize(binarize(tree)) == tree

    def test_expands_collapsed_label(self):
        tree = parse_bracketed("(S (NP (DT the)))")
        assert debinarize(binarize(tree)) == tree

    def test_flat_tree_of_1500_children_round_trips(self):
        # binarization makes it a left-branching chain 1,499 nodes deep
        tree = flat_tree(*(f"w{k}" for k in range(1500)))
        assert debinarize(binarize(tree)) == tree

    def test_dummy_root_rejected(self):
        sent = (("a", "A"), ("b", "B"))
        root = BinaryTree.from_spans(sent, [(0, 1, DUMMY), (1, 2, DUMMY), (0, 2, DUMMY)])
        with pytest.raises(UnknownDummyPlacement):
            debinarize(root)


class TestSpans:
    def test_nary_spans(self):
        tree = parse_bracketed("(S (NP (T x) (T y)) (VP (T z)))")
        assert set(spans_of(tree)) == {(0, 3, "S"), (0, 2, "NP"), (2, 3, "VP")}

    def test_pos_leaves_are_not_spans(self):
        assert spans_of(parse_bracketed("(X (T a))")) == [LabeledSpan(0, 1, "X")]

    def test_dummy_excluded_from_binary_spans(self):
        tree = flat_tree("a", "b", "c")
        assert phrasal_spans(binarize(tree)) == {LabeledSpan(0, 3, "S")}

    def test_unary_chain_duplicates_span(self):
        tree = parse_bracketed("(S (NP (T x) (T y)))")
        spans = spans_of(tree)
        assert sorted(spans) == [(0, 2, "NP"), (0, 2, "S")]


class TestHamming:
    def test_identical_is_zero(self):
        tree = parse_bracketed("(S (NP (T x) (T y)) (VP (T z)))")
        bt = binarize(tree)
        assert hamming(bt, bt) == 0

    def test_single_relabel_is_one(self):
        gold = binarize(parse_bracketed("(S (NP (T x) (T y)) (VP (T z)))"))
        pred = binarize(parse_bracketed("(S (QP (T x) (T y)) (VP (T z)))"))
        assert hamming(pred, gold) == 1

    def test_hand_enumerated_four_token_example(self):
        # gold spans: (0,4,S) (0,2,X) (2,4,Y) (0,1,∅) (1,2,∅) (2,3,∅) (3,4,∅)
        # pred spans: (0,4,S) (0,2,Z) (2,4,W) (0,1,∅) (1,2,∅) (2,3,∅) (3,4,∅)
        # pred shares 5 of its 7 spans with gold -> distance 2
        gold = binarize(parse_bracketed("(S (X (T a) (T b)) (Y (T c) (T d)))"))
        pred = binarize(parse_bracketed("(S (Z (T a) (T b)) (W (T c) (T d)))"))
        assert hamming(pred, gold) == 2

    def test_bounded_by_node_count(self):
        gold = binarize(parse_bracketed("(S (X (T a) (T b)) (T c))"))
        pred = binarize(parse_bracketed("(Q (R (T a) (T c)) (T b))"))
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


@given(random_tree().map(flatten))
@settings(max_examples=200, deadline=None)
def test_binarize_round_trip(tree):
    bt = binarize(tree)
    assert_partition(bt)
    assert debinarize(bt) == tree


@given(random_tree().map(flatten))
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
    bt = binarize(flatten(tree))
    assert list(bt.nodes()) == oracle.node_tuples()
    assert list(bt.compositions()) == oracle.composition_tuples()


def assert_reads_as_the_nested_oracle(text):
    """Reading ``text``, printing, the sentences, the spans, binarizing and
    debinarizing all give what the nested oracle gives."""
    trees, oracles = read_trees(text), nested_read_trees(text)
    assert trees == [flatten(oracle) for oracle in oracles]
    for tree, oracle in zip(trees, oracles):
        assert tree.linearize() == oracle.linearize()
        assert read_trees(tree.linearize()) == [tree]
        assert sentence_of(tree) == nested_sentence(oracle)
        assert spans_of(tree) == nested_spans(oracle)
        bt, nested_bt = binarize(tree), nested_binarize(oracle)
        assert bt == BinaryTree.from_spans(nested_sentence(oracle), nested_bt.spans())
        assert list(bt.nodes()) == nested_bt.node_tuples()
        assert list(bt.compositions()) == nested_bt.composition_tuples()
        assert debinarize(bt) == flatten(nested_debinarize(bt)) == tree
    return trees


DATA_FILES = sorted((Path(ordercky.__file__).parent / "data").glob("*.txt"))


def test_every_bundled_gold_file_and_golden_fixture_is_checked():
    assert {"golden_gold.txt", "golden_pred.txt", "skew_train.txt", "skew_dev.txt",
            "memorize50.txt"} <= {path.name for path in DATA_FILES}


@pytest.mark.parametrize("path", DATA_FILES, ids=[path.name for path in DATA_FILES])
def test_bundled_trees_read_as_the_nested_oracle(path):
    assert len(assert_reads_as_the_nested_oracle(path.read_text(encoding="utf-8"))) >= 20


@given(st.lists(random_tree(), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_random_bracketings_read_as_the_nested_oracle(oracles):
    assert_reads_as_the_nested_oracle("\n".join(oracle.linearize() for oracle in oracles))


def test_deep_trees_compare_hash_and_print_without_recursion():
    # nested, both trees raised RecursionError in the dataclass ==, hash and repr
    deep = [read_trees(nested(5000))[0] for _ in range(2)]
    n = 1200
    sentence = tuple((f"w{i}", "T") for i in range(n))
    spans = [(i, n, "S|VP") for i in range(n - 1)] + [(i, i + 1, DUMMY) for i in range(n)]
    decoded = [debinarize(BinaryTree.from_spans(sentence, spans)) for _ in range(2)]
    for one, two in (deep, decoded):
        assert one == two and hash(one) == hash(two)
        assert repr(one) == repr(two) and repr(one).startswith("Tree(label=(")
    assert deep[0] != decoded[0]


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


@given(random_tree().map(flatten))
@settings(max_examples=100, deadline=None)
def test_linearize_round_trip(tree):
    assert parse_bracketed(tree.linearize()) == tree


@given(random_tree().map(flatten))
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
    trees = read_trees("(S (NP-SBJ (DT the) (NN-X cat)) (VP=2 (VBD sat)))")
    assert {l for _, _, l in spans_of(trees[0])} == {"S", "NP", "VP"}
    # part-of-speech tags are kept verbatim
    assert sentence_of(trees[0]) == (("the", "DT"), ("cat", "NN-X"), ("sat", "VBD"))


def test_top_root_unwrapped():
    trees = read_trees("(TOP (S (NP (NN cat)) (VP (VBD sat))))")
    assert trees == read_trees("(S (NP (NN cat)) (VP (VBD sat)))")
    # only a wrapper over one phrase goes
    for text in ("(TOP (X (A a)) (Y (B b)))", "(ROOT (A a))"):
        assert read_trees(text)[0].linearize() == text


def test_reserved_labels_rejected():
    with pytest.raises(ValueError):
        read_trees("(S (A|B (X x)) (C (Y y)))")


def test_token_bracket_escaping():
    tree = Tree(("S", "NP", "-LRB-", "NN"), (None, None, "(", "word"), (4, 4, 3, 4))
    text = tree.linearize()
    assert text == "(S (NP (-LRB- -LRB-) (NN word)))"
    assert sentence_of(parse_bracketed(text)) == (("-LRB-", "-LRB-"), ("word", "NN"))


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
    assert [word for word, _ in sentence_of(tree)] == ["北京", "欢迎", "你"]
    bt = binarize(tree)
    assert debinarize(bt) == tree
    assert parse_bracketed(tree.linearize()) == tree
