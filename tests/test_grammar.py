import random

import numpy as np
import pytest

from ordercky.grammar import (
    GoldRuleMissing,
    Grammar,
    Rule,
    RuleScoreChart,
    extract_grammar,
    grammar_tsv,
    order_statistics,
    stats_tsv,
)
from ordercky.trees import DUMMY, Treebank, read_trees


def bank(text):
    return Treebank.from_trees(read_trees(text))


def test_extract_simple_rule():
    tb = bank("(S (NP (DT x) (NN y)) (VP (VBD z)))")
    g = extract_grammar(tb)
    assert Rule("S", "NP", "VP") in g
    assert Rule("NP", DUMMY, DUMMY) in g
    assert len(g) == 2


def test_extract_empty_treebank():
    g = extract_grammar(Treebank([]))
    assert len(g) == 0


def test_extract_set_semantics():
    text = "(S (NP (DT x) (NN y)) (VP (VBD z)))"
    one = extract_grammar(bank(text))
    two = extract_grammar(bank(text + "\n" + text))
    assert one.rules == two.rules


def test_extract_order_independent():
    a = "(S (NP (DT x) (NN y)) (VP (VBD z)))"
    b = "(S (QP (CD one) (CD two)))"
    assert extract_grammar(bank(a + "\n" + b)).rules == extract_grammar(bank(b + "\n" + a)).rules


def test_grammar_indices_consistent():
    tb = bank("(S (A (X x) (Y y)) (B (Z z) (W w)))")
    g = extract_grammar(tb)
    for rule in g.rules:
        assert rule in g
        assert g.rules[g.rule_index[rule]] == rule
    assert list(g.rules) == sorted(g.rules)


def test_order_statistics_toy():
    tb = bank("(S (NP (NN x)) (VP (VBD y)))")
    stats = order_statistics(tb)
    assert stats.left["NP"] == 1 and stats.right["NP"] == 0
    assert stats.left["VP"] == 0 and stats.right["VP"] == 1


def test_order_statistics_empty():
    stats = order_statistics(Treebank([]))
    assert sum(stats.left.values()) == 0 and sum(stats.right.values()) == 0


def test_order_statistics_counts_balance():
    # L total == R total == number of binary compositions, on shuffled corpora
    rng = random.Random(0)
    texts = [
        "(S (NP (DT a) (NN b)) (VP (VBD c) (NP (DT d) (NN e))))",
        "(S (X (A a) (B b) (C c)) (Y (D d)))",
        "(S (Q (A a)))",
    ]
    for _ in range(5):
        rng.shuffle(texts)
        tb = bank("\n".join(texts))
        stats = order_statistics(tb)
        compositions = sum(1 for s in tb.sentences for _, i, j, _ in s.btree.nodes() if j - i > 1)
        assert sum(stats.left.values()) == compositions
        assert sum(stats.right.values()) == compositions


def test_stats_rows_sorted_by_total():
    tb = bank(
        "(S (NP (DT a) (NN b)) (VP (VBD c)))\n"
        "(S (NP (DT d) (NN e)) (VP (VBD f)))\n"
        "(S (QP (CD g) (CD h)))"
    )
    rows = order_statistics(tb).rows()
    totals = [l + r for _, l, r in rows]
    assert totals == sorted(totals, reverse=True)


def test_rule_score_lookup_and_missing_rule():
    tb = bank("(S (NP (NN x)) (VP (VBD y)))")
    g = extract_grammar(tb)
    chart = RuleScoreChart.init_random(g, np.random.default_rng(0))
    rule = Rule("S", "NP", "VP")
    idx = g.rule_index[rule]
    assert chart.score(rule, 0) == chart.scores[idx, 0]
    assert chart.score(rule, 1) == chart.scores[idx, 1]
    for order in (0, 1):
        with pytest.raises(GoldRuleMissing, match=r"^gold composition Rule\(parent='S', left='VP', "
                                                  r"right='NP'\) not in the extracted grammar$"):
            chart.score(Rule("S", "VP", "NP"), order)


def test_rule_scores_finite_and_small():
    tb = bank("(S (A (X x) (Y y)) (B (Z z) (W w)) (C (V v)))")
    g = extract_grammar(tb)
    chart = RuleScoreChart.init_random(g, np.random.default_rng(42))
    assert np.all(np.isfinite(chart.scores))
    assert np.all(np.abs(chart.scores) <= 0.01)


def test_init_seeded_deterministic():
    g = Grammar([Rule("S", "A", "B"), Rule("A", "C", "D")])
    a = RuleScoreChart.init_random(g, np.random.default_rng(7))
    b = RuleScoreChart.init_random(g, np.random.default_rng(7))
    assert np.array_equal(a.scores, b.scores)


def test_tsv_exports():
    tb = bank("(S (NP (NN x)) (VP (VBD y)))")
    g = extract_grammar(tb)
    assert grammar_tsv(g) == "parent\tleft\tright\nS\tNP\tVP\n"
    out = stats_tsv(order_statistics(tb))
    assert out.startswith("label\tL\tR\n")
    assert "NP\t1\t0" in out and "VP\t0\t1" in out
