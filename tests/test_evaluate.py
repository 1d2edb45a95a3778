from importlib import resources

import pytest

from ordercky.evaluate import EvalReport, bracket_counts, score_trees
from ordercky.trees import LengthMismatch, load_trees, read_trees
from tree_oracle import LeafNode, nested_read_trees


def trees(text):
    return read_trees(text)


def fixture_path(name):
    return str(resources.files("ordercky").joinpath("data", name))


class TestScoreTrees:
    def test_identical_corpus_is_perfect(self):
        gold = trees("(S (NP (NN a)) (VP (VB b)))\n(S (X (A a) (B b)))")
        report = score_trees(gold, gold)
        assert (report.precision, report.recall, report.f1) == (100.0, 100.0, 100.0)

    def test_subset_prediction_has_perfect_precision(self):
        gold = trees("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        pred = trees("(S (NP (DT the) (NN cat)) (VBD sat))")  # VP bracket missing
        report = score_trees(pred, gold)
        assert report.precision == 100.0
        assert report.recall < 100.0

    def test_hand_counted_pair(self):
        # pred spans {(0,3,S), (0,2,NP)}; gold spans {(0,3,S), (1,3,VP)}: 1 match
        pred = trees("(S (NP (A a) (B b)) (C c))")
        gold = trees("(S (A a) (VP (B b) (C c)))")
        report = score_trees(pred, gold)
        assert report.matched == 1 and report.predicted == 2 and report.gold == 2
        assert report.precision == pytest.approx(50.0)
        assert report.recall == pytest.approx(50.0)
        assert report.f1 == pytest.approx(50.0)

    def test_symmetry_swaps_p_and_r(self):
        pred = trees("(S (NP (A a) (B b)) (C c))\n(S (Q (A a)) (R (B b)))")
        gold = trees("(S (A a) (VP (B b) (C c)))\n(S (Q (A a)) (T (B b)))")
        fwd = score_trees(pred, gold)
        rev = score_trees(gold, pred)
        assert fwd.precision == pytest.approx(rev.recall)
        assert fwd.recall == pytest.approx(rev.precision)
        assert fwd.f1 == pytest.approx(rev.f1)

    def test_unary_duplicates_match_as_multiset(self):
        gold = trees("(A (B (C (X x) (Y y))))")
        pred_single = trees("(A (C (X x) (Y y)))")
        m, p, g = bracket_counts(pred_single[0], gold[0])
        assert (m, p, g) == (2, 2, 3)
        # duplicated identical span labels count up to gold multiplicity
        dup_pred = trees("(A (A (X x) (Y y)))")
        m, p, g = bracket_counts(dup_pred[0], gold[0])
        assert (m, p, g) == (1, 2, 3)

    def test_length_mismatch_detected(self):
        pred = trees("(S (A a))")
        gold = trees("(S (A a) (B b))")
        with pytest.raises(LengthMismatch):
            score_trees(pred, gold)
        with pytest.raises(LengthMismatch):
            score_trees(pred, [])

    def test_words_must_match_but_tags_need_not(self):
        gold = trees("(S (NP (DT the) (NN cat)) (VP (VB runs)))")
        assert score_trees(trees("(S (NP (X the) (Y cat)) (VP (Z runs)))"), gold).f1 == 100.0
        with pytest.raises(LengthMismatch, match="sentence 0: token 1 is 'dog' predicted but 'cat' in gold"):
            score_trees(trees("(S (NP (DT the) (NN dog)) (VP (VB runs)))"), gold)

    def test_zero_predictions_defined_as_zero(self):
        report = EvalReport(matched=0, predicted=0, gold=5)
        assert report.precision == 0.0 and report.f1 == 0.0

    def test_bounds(self):
        report = EvalReport(matched=3, predicted=5, gold=6)
        assert 0.0 <= report.f1 <= 100.0
        assert report.matched <= min(report.predicted, report.gold)


def independent_bracket_multiset(tree):
    """Bracket counting written separately from the evaluator, over the
    nested oracle trees: positions via an explicit stack walk, multiset as a
    sorted list."""
    out = []
    stack = [(tree, 0)]
    sizes = {}

    def size(node):
        if node not in sizes:
            sizes[node] = (
                1 if isinstance(node, LeafNode) else sum(size(c) for c in node.children)
            )
        return sizes[node]

    while stack:
        node, start = stack.pop()
        if isinstance(node, LeafNode):
            continue
        out.append((start, start + size(node), node.label))
        offset = start
        for child in node.children:
            stack.append((child, offset))
            offset += size(child)
    return sorted(out)


# per-sentence (matched, predicted, gold) counts, derived by hand from the
# bracket listings of each golden pair
GOLDEN_ROWS = [
    (3, 3, 3), (1, 1, 3), (2, 3, 3), (1, 3, 3), (2, 2, 3),
    (3, 4, 3), (2, 3, 3), (4, 4, 4), (3, 3, 4), (3, 5, 4),
    (2, 2, 3), (3, 4, 4), (2, 2, 3), (2, 2, 3), (4, 4, 4),
    (2, 3, 4), (1, 1, 2), (3, 3, 4), (2, 4, 3), (0, 3, 3),
]


class TestGoldenFixture:
    def test_golden_counts_per_sentence(self):
        pred = load_trees(fixture_path("golden_pred.txt"))
        gold = load_trees(fixture_path("golden_gold.txt"))
        assert len(pred) == len(gold) == 20
        for idx, (p, g) in enumerate(zip(pred, gold)):
            assert bracket_counts(p, g) == GOLDEN_ROWS[idx], f"sentence {idx}"

    def test_golden_counts_against_independent_walk(self):
        pred, gold = (nested_read_trees(resources.files("ordercky").joinpath("data", name).read_text("utf-8"))
                      for name in ("golden_pred.txt", "golden_gold.txt"))
        from collections import Counter

        for idx, (p, g) in enumerate(zip(pred, gold)):
            pb = Counter(independent_bracket_multiset(p))
            gb = Counter(independent_bracket_multiset(g))
            matched = sum((pb & gb).values())
            assert (matched, sum(pb.values()), sum(gb.values())) == GOLDEN_ROWS[idx]

    def test_golden_totals(self):
        pred = load_trees(fixture_path("golden_pred.txt"))
        gold = load_trees(fixture_path("golden_gold.txt"))
        report = score_trees(pred, gold)
        assert (report.matched, report.predicted, report.gold) == (45, 59, 66)
        assert report.precision == pytest.approx(76.27, abs=0.01)
        assert report.recall == pytest.approx(68.18, abs=0.01)
        assert report.f1 == pytest.approx(72.00, abs=0.01)
        assert report.summary() == "P=76.27 R=68.18 F1=72.00 matched=45 pred=59 gold=66"
