import inspect
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordercky import decoder
from ordercky.decoder import (
    CompiledRules,
    InstanceTooLarge,
    NoDerivation,
    NonFiniteChart,
    augmented_chart,
    baseline_tree_score,
    brute_force_best,
    decode_ablation,
    decode_baseline,
    decode_charts_batched,
    decode_each,
    decode_ordered,
    fallback_tree,
    ordered_tree_score,
)
from ordercky.grammar import Grammar, Rule, RuleScoreChart
from ordercky.scorer import SpanScoreChart
from ordercky.selfcheck import oracle_check, random_instance
from ordercky.trees import DUMMY, LEFT, RIGHT, BinaryTree, LabeledSpan, debinarize, parse_bracketed
from tree_oracle import NestedTree, assert_partition


def make_chart(n, labels, scores):
    sentence = tuple((f"w{i}", "X") for i in range(n))
    return SpanScoreChart(sentence=sentence, labels=labels, scores=scores)


def random_chart(rng, n, labels):
    return make_chart(n, labels, rng.normal(size=(n + 1, n + 1, len(labels), 2)))


def tie(chart):
    """The chart a one-head forward writes: the LEFT slot in both orders."""
    return make_chart(chart.n, chart.labels, chart.scores[..., [LEFT, LEFT]])


def full_grammar(labels):
    return Grammar([Rule(p, l, r) for p in labels for l in labels for r in labels])


def zero_rules(grammar):
    return RuleScoreChart(grammar, np.zeros((len(grammar), 2)))


def decoded_spans(btree):
    """Every node of a binary tree as a labeled span, DUMMY included; spans
    are unique within one binary tree, so a set is exact."""
    return {LabeledSpan(i, j, label) for label, i, j, _ in btree.nodes()}


def hamming(pred, gold):
    """Labeled spans of ``pred`` (dummy nodes included) absent from ``gold``:
    the loss that loss-augmented decoding adds, counted on the trees."""
    return len(decoded_spans(pred) - decoded_spans(gold))


class TestOrderedHandExamples:
    def test_single_token(self):
        scores = np.zeros((2, 2, 1, 2))
        scores[0, 1, 0, LEFT] = 2.0
        chart = make_chart(1, ("A",), scores)
        result = decode_ordered(chart, Grammar([]), zero_rules(Grammar([])))
        assert result.score == 2.0
        assert list(result.tree.nodes()) == [("A", 0, 1, LEFT)]

    def test_two_tokens_single_rule(self):
        labels = ("A", "B")
        scores = np.zeros((3, 3, 2, 2))
        scores[0, 2, 0, LEFT] = 1.0
        scores[0, 1, 1, LEFT] = 2.0
        scores[1, 2, 1, RIGHT] = 3.0
        grammar = Grammar([Rule("A", "B", "B")])
        rules = RuleScoreChart(grammar, np.array([[0.5, 0.5]]))
        result = decode_ordered(make_chart(2, labels, scores), grammar, rules)
        assert result.score == pytest.approx(6.5, abs=1e-12)
        assert list(result.tree.compositions()) == [("A", "B", "B", LEFT)]

    def test_matches_brute_force_seed_42(self):
        rng = np.random.default_rng(42)
        labels = ("A", "B", "C")
        chart = random_chart(rng, 4, labels)
        grammar = full_grammar(labels)
        rules = RuleScoreChart(grammar, rng.uniform(-1, 1, (len(grammar), 2)))
        got = decode_ordered(chart, grammar, rules)
        want = brute_force_best(chart, "ordered", grammar=grammar, rules=rules)
        assert got.score == pytest.approx(want.score, abs=1e-9)

    def test_no_derivation_on_empty_grammar(self):
        rng = np.random.default_rng(0)
        chart = random_chart(rng, 3, ("A", "B"))
        with pytest.raises(NoDerivation):
            decode_ordered(chart, Grammar([]), zero_rules(Grammar([])))


class TestBaseline:
    """The baseline decodes a tied chart: one score per (span, label) in both
    order slots."""

    def test_single_token_argmax(self):
        scores = np.zeros((2, 2, 3, 2))
        scores[0, 1] = np.array([0.5, 2.0, 1.0])[:, None]
        result = decode_baseline(scores, (("w0", "X"),), ("A", "B", "C"))
        assert result.tree.label == ("B",)
        assert result.score == 2.0

    def test_two_tokens_sum_of_maxima(self):
        rng = np.random.default_rng(1)
        sym = rng.normal(size=(3, 3, 2))
        sentence = (("a", "X"), ("b", "X"))
        result = decode_baseline(np.stack([sym, sym], axis=3), sentence, ("A", "B"))
        expected = sym[0, 2].max() + sym[0, 1].max() + sym[1, 2].max()
        assert result.score == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_seed_7(self):
        rng = np.random.default_rng(7)
        chart = tie(random_chart(rng, 5, ("A", "B", "C")))
        got = decode_baseline(chart.scores, chart.sentence, chart.labels)
        want = brute_force_best(chart, "baseline")
        assert got.score == pytest.approx(want.score, abs=1e-9)

    def test_uniform_shift_leaves_tree_unchanged(self):
        rng = np.random.default_rng(5)
        chart = tie(random_chart(rng, 5, ("A", "B", "C")))
        base = decode_baseline(chart.scores, chart.sentence, chart.labels)
        shifted = decode_baseline(chart.scores + 3.7, chart.sentence, chart.labels)
        assert shifted.tree == base.tree


class TestAblation:
    def test_order_degenerate_chart_equals_baseline(self):
        rng = np.random.default_rng(2)
        n, labels = 4, ("A", "B")
        scores = np.zeros((n + 1, n + 1, 2, 2))
        sym = rng.normal(size=(n + 1, n + 1, 2))
        scores[:, :, :, 0] = sym
        scores[:, :, :, 1] = sym
        chart = make_chart(n, labels, scores)
        abl = decode_ablation(chart)
        # the order-free objective: every node's one score
        assert abl.score == pytest.approx(full_enumeration_best(chart, "baseline"), abs=1e-12)
        assert abl.score == pytest.approx(ordered_tree_score(abl.tree, chart), abs=1e-12)

    def test_two_tokens_decomposition(self):
        rng = np.random.default_rng(3)
        chart = random_chart(rng, 2, ("A", "B", "C"))
        result = decode_ablation(chart)
        s = chart.scores
        expected = s[0, 2, :, LEFT].max() + s[0, 1, :, LEFT].max() + s[1, 2, :, RIGHT].max()
        assert result.score == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_seed_3(self):
        rng = np.random.default_rng(3)
        chart = random_chart(rng, 4, ("A", "B", "C"))
        got = decode_ablation(chart)
        want = brute_force_best(chart, "ablation")
        assert got.score == pytest.approx(want.score, abs=1e-9)


@pytest.mark.parametrize("on_grid", [False, True])
@pytest.mark.parametrize("n", [3, 10, 11, 17, 26])
def test_span_decoders_match_ordered_under_free_grammar(n, on_grid):
    """Ablation is the ordered objective under every rule at score 0, also
    on a chart whose two orders agree, which baseline decodes; the lengths
    span both fills of the span-only core, and the grid makes splits tie."""
    rng = np.random.default_rng(n)
    labels = ("A", "B", "C")
    grammar = full_grammar(labels)
    compiled = CompiledRules(labels, grammar, zero_rules(grammar))
    if on_grid:
        chart = make_chart(n, labels, _grid(rng, (n + 1, n + 1, len(labels), 2)))
    else:
        chart = random_chart(rng, n, labels)
    want = decode_charts_batched([chart], compiled, forbid_root="A")[0]
    got = decode_ablation(chart, forbid_root="A")
    assert got.score == want.score and got.tree == want.tree
    degenerate = tie(chart)
    want = decode_charts_batched([degenerate], compiled, forbid_root="A")[0]
    base = decode_baseline(degenerate.scores, chart.sentence, labels, forbid_root="A")
    assert base.score == want.score and base.tree == want.tree


class TestLossAugmented:
    def test_gold_dominates_zero_chart(self):
        labels = ("A", "B")
        sentence = (("a", "X"), ("b", "X"))
        gold = BinaryTree.from_spans(sentence, [(0, 2, "A"), (0, 1, "B"), (1, 2, "B")])
        grammar = Grammar([Rule("A", "B", "B"), Rule("B", "B", "B")])
        rules = zero_rules(grammar)
        chart = make_chart(2, labels, np.zeros((3, 3, 2, 2)))
        result = decode_ordered(augmented_chart(chart, gold), grammar, rules)
        # gold has augmented score 0; any other labeling picks up its hamming count
        assert result.score >= 0.0
        assert result.score == pytest.approx(
            ordered_tree_score(result.tree, chart, rules) + hamming(result.tree, gold),
            abs=1e-9,
        )

    def test_matches_brute_force_seed_9(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, max_n=4, max_labels=3)
        got = decode_ordered(augmented_chart(inst.chart, inst.gold), inst.grammar, inst.rules)
        want = full_enumeration_best(
            inst.chart, "loss-augmented", grammar=inst.grammar, rules=inst.rules, gold=inst.gold
        )
        assert got.score == pytest.approx(want, abs=1e-9)

    def test_chart_adds_one_off_gold_in_both_orders(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, max_n=4, max_labels=3)
        aug = augmented_chart(inst.chart, inst.gold)
        assert (aug.sentence, aug.labels) == (inst.chart.sentence, inst.chart.labels)
        gold = {(s.start, s.end, inst.chart.labels.index(s.label)) for s in decoded_spans(inst.gold)}
        for cell in np.ndindex(aug.scores.shape[:3]):
            assert np.array_equal(aug.scores[cell], inst.chart.scores[cell] + (cell not in gold))

    def test_dominates_gold_plain_score(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            inst = random_instance(rng, max_n=5, max_labels=3)
            if not all(Rule(p, l, r) in inst.grammar for p, l, r, _ in inst.gold.compositions()):
                continue
            aug = decode_ordered(augmented_chart(inst.chart, inst.gold), inst.grammar, inst.rules)
            gold_plain = ordered_tree_score(inst.gold, inst.chart, inst.rules)
            assert aug.score >= gold_plain - 1e-9


def full_enumeration_best(chart, mode, grammar=None, rules=None, gold=None):
    """Product enumeration of every labeled binary tree, as nested objects;
    no shared code with the chart decoders, the shape-wise oracle or the
    flat tree's walks."""
    labels, n = chart.labels, chart.n

    def all_trees(i, j):
        if j - i == 1:
            return [NestedTree(lab, i, j) for lab in labels]
        out = []
        for k in range(i + 1, j):
            for lt in all_trees(i, k):
                for rt in all_trees(k, j):
                    out.extend(NestedTree(lab, i, j, lt, rt) for lab in labels)
        return out

    index = {lab: i for i, lab in enumerate(labels)}
    best = None
    for tree in all_trees(0, n):
        total = 0.0
        valid = True
        for node, order in tree.nodes():
            if mode == "baseline":  # order-free: every node reads the LEFT slot
                total += chart.scores[node.start, node.end, index[node.label], LEFT]
            else:
                total += chart.scores[node.start, node.end, index[node.label], order]
            if mode in ("ordered", "loss-augmented") and not node.is_leaf:
                rule = Rule(node.label, node.left.label, node.right.label)
                if rule not in grammar:
                    valid = False
                    break
                total += rules.score(rule, order)
        if not valid:
            continue
        if mode == "loss-augmented":
            total += len({LabeledSpan(*span) for span in tree.spans()} - decoded_spans(gold))
        if best is None or total > best:
            best = total
    return best


@pytest.mark.parametrize("mode", ["ordered", "baseline", "ablation", "loss-augmented"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_agrees_with_full_enumeration(mode, seed):
    rng = np.random.default_rng(seed + 100)
    inst = random_instance(rng, max_n=4, max_labels=3)
    want = full_enumeration_best(
        inst.chart, mode, grammar=inst.grammar, rules=inst.rules, gold=inst.gold
    )
    # loss-augmented decoding is the ordered objective over the augmented
    # chart, and baseline the span objective over the tied chart
    chart, oracle_mode = inst.chart, mode
    if mode == "loss-augmented":
        chart, oracle_mode = augmented_chart(inst.chart, inst.gold), "ordered"
    elif mode == "baseline":
        chart = tie(inst.chart)
    try:
        got = brute_force_best(chart, oracle_mode, grammar=inst.grammar, rules=inst.rules).score
    except NoDerivation:
        got = None
    if want is None:
        assert got is None
    else:
        assert got == pytest.approx(want, abs=1e-9)


def test_oracle_equivalence_sweep():
    report = oracle_check(seed=1234, trials=60, max_n=6, max_labels=4)
    assert report.passed, report.failures[:1]
    assert report.checks == 360


def test_score_recomputation_all_modes():
    rng = np.random.default_rng(21)
    for _ in range(25):
        inst = random_instance(rng, max_n=6, max_labels=4)
        try:
            res = decode_ordered(inst.chart, inst.grammar, inst.rules)
            assert_partition(res.tree)
            assert res.score == pytest.approx(
                ordered_tree_score(res.tree, inst.chart, inst.rules), abs=1e-9
            )
        except NoDerivation:
            pass
        abl = decode_ablation(inst.chart)
        assert_partition(abl.tree)
        assert abl.score == pytest.approx(
            ordered_tree_score(abl.tree, inst.chart, rules=None), abs=1e-9
        )
        tied = tie(inst.chart)
        base = decode_baseline(tied.scores, tied.sentence, tied.labels)
        assert base.score == pytest.approx(
            baseline_tree_score(base.tree, tied.scores, tied.labels), abs=1e-9
        )
        try:
            aug = decode_ordered(augmented_chart(inst.chart, inst.gold), inst.grammar, inst.rules)
            assert aug.score == pytest.approx(
                ordered_tree_score(aug.tree, inst.chart, inst.rules)
                + hamming(aug.tree, inst.gold),
                abs=1e-9,
            )
        except NoDerivation:
            pass


def test_root_monotonicity():
    rng = np.random.default_rng(31)
    labels = ("A", "B", "C")
    chart = random_chart(rng, 5, labels)
    grammar = full_grammar(labels)
    rules = RuleScoreChart(grammar, rng.uniform(-1, 1, (len(grammar), 2)))
    base = decode_ordered(chart, grammar, rules)
    shifted_scores = chart.scores.copy()
    shifted_scores[0, 5, :, LEFT] += 2.5
    shifted = decode_ordered(
        make_chart(5, labels, shifted_scores), grammar, rules
    )
    assert shifted.score == pytest.approx(base.score + 2.5, abs=1e-9)
    assert shifted.tree == base.tree


def test_forbid_root_label():
    rng = np.random.default_rng(41)
    labels = ("A", "B")
    chart = random_chart(rng, 3, labels)
    chart.scores[0, 3, 0, LEFT] += 100.0  # make A the unconstrained root winner
    grammar = full_grammar(labels)
    rules = zero_rules(grammar)
    free = decode_ordered(chart, grammar, rules)
    assert free.tree.label[0] == "A"
    constrained = decode_ordered(chart, grammar, rules, forbid_root="A")
    assert constrained.tree.label[0] == "B"
    want = brute_force_best(chart, "ordered", grammar=grammar, rules=rules, forbid_root="A")
    assert constrained.score == pytest.approx(want.score, abs=1e-9)


def test_instance_too_large():
    chart = make_chart(9, ("A",), np.zeros((10, 10, 1, 2)))
    with pytest.raises(InstanceTooLarge):
        brute_force_best(chart, "baseline")


class TestBatched:
    def _instances(self, seed, count, lengths=None):
        rng = np.random.default_rng(seed)
        labels = ("A", "B", "C")
        grammar = full_grammar(labels)
        rules = RuleScoreChart(grammar, rng.uniform(-1, 1, (len(grammar), 2)))
        charts = []
        for idx in range(count):
            n = lengths[idx] if lengths else int(rng.integers(2, 7))
            charts.append(random_chart(rng, n, labels))
        return charts, grammar, rules

    def test_batch_of_one_equals_scalar(self):
        charts, grammar, rules = self._instances(0, 1)
        compiled = CompiledRules(charts[0].labels, grammar, rules)
        batched = decode_charts_batched(charts, compiled)[0]
        scalar = decode_ordered(charts[0], grammar, rules)
        assert batched.score == scalar.score  # bit-identical
        assert batched.tree == scalar.tree

    def test_sixteen_sentences_bit_identical(self):
        charts, grammar, rules = self._instances(10, 16)
        compiled = CompiledRules(charts[0].labels, grammar, rules)
        batched = decode_charts_batched(charts, compiled)
        for chart, result in zip(charts, batched):
            scalar = decode_ordered(chart, grammar, rules)
            assert result.score == scalar.score
            assert result.tree == scalar.tree

    def test_mixed_lengths_padding_never_changes_results(self):
        lengths = list(range(2, 11)) + [10, 2, 9]
        charts, grammar, rules = self._instances(11, len(lengths), lengths)
        compiled = CompiledRules(charts[0].labels, grammar, rules)
        batched = decode_charts_batched(charts, compiled)
        for chart, result in zip(charts, batched):
            scalar = decode_ordered(chart, grammar, rules)
            assert result.score == scalar.score
            assert result.tree == scalar.tree

    def test_errors_fill_slots_without_aborting(self):
        rng = np.random.default_rng(12)
        labels = ("A", "B")
        # A -> B B derives n=2 but not n=3 (a width-2 B child has no rule)
        grammar = Grammar([Rule("A", "B", "B")])
        rules = zero_rules(grammar)
        compiled = CompiledRules(labels, grammar, rules)
        ok = random_chart(rng, 2, labels)
        bad = random_chart(rng, 3, labels)
        results = decode_charts_batched([ok, bad, ok], compiled)
        assert isinstance(results[0], type(results[2]))
        assert not isinstance(results[0], NoDerivation)
        assert isinstance(results[1], NoDerivation)
        with pytest.raises(NoDerivation):
            decode_ordered(bad, grammar, rules)


def test_brute_force_single_token_all_modes():
    rng = np.random.default_rng(55)
    chart = random_chart(rng, 1, ("A", "B", "C"))
    grammar = full_grammar(("A", "B", "C"))
    rules = zero_rules(grammar)
    gold = BinaryTree.from_spans(chart.sentence, [(0, 1, "B")])
    s = chart.scores
    assert brute_force_best(chart, "ordered", grammar=grammar, rules=rules).score == s[0, 1, :, LEFT].max()
    assert brute_force_best(chart, "baseline").score == s[0, 1, :, LEFT].max()
    assert brute_force_best(chart, "ablation").score == s[0, 1, :, LEFT].max()
    aug = brute_force_best(augmented_chart(chart, gold), "ordered", grammar=grammar, rules=rules)
    assert aug.score == (s[0, 1, :, LEFT] + (np.arange(3) != 1)).max()


def test_charts_batched_on_model_forward_with_underivable_slot():
    from ordercky.scorer import ScorerModel

    rng = np.random.default_rng(77)
    labels = ("A", "B", "C")
    model = ScorerModel.build(("x", "y"), labels, rng, dim=8, hidden=8, maxlen=8)
    # C never spans two tokens and B never more than two, so A covers at most four
    grammar = Grammar([Rule("A", "B", "B"), Rule("B", "C", "C")])
    rules = RuleScoreChart(grammar, rng.uniform(-1, 1, (len(grammar), 2)))
    compiled = CompiledRules(labels, grammar, rules)
    charts = [
        model.forward(tuple((w, "T") for w in words))[0]
        for words in (("x", "y"), ("x", "y", "x", "y", "x"), ("y", "x", "y"), ("x", "y", "y", "x"))
    ]
    results = decode_charts_batched(charts, compiled)
    assert isinstance(results[1], NoDerivation)
    with pytest.raises(NoDerivation):
        decode_ordered(charts[1], grammar, rules)
    alone = decode_charts_batched(charts[:1] + charts[2:], compiled)
    for chart, got, without in zip(charts[:1] + charts[2:], results[:1] + results[2:], alone):
        want = decode_ordered(chart, grammar, rules)
        assert got.score == want.score == without.score
        assert got.tree == want.tree == without.tree


def test_batched_tie_breaking_matches_scalar_exactly():
    # quantized scores force frequent ties; trees must still match node for node
    rng = np.random.default_rng(123)
    labels = ("A", "B", "C")
    grammar = full_grammar(labels)
    for trial in range(50):
        n = int(rng.integers(2, 7))
        scores = rng.choice([0.0, 0.5, 1.0], size=(n + 1, n + 1, 3, 2))
        chart = make_chart(n, labels, scores)
        rules = RuleScoreChart(grammar, rng.choice([0.0, 0.5], size=(len(grammar), 2)))
        compiled = CompiledRules(labels, grammar, rules)
        for forbid in (None, "A"):
            scalar = decode_ordered(chart, grammar, rules, forbid_root=forbid)
            batched = decode_charts_batched([chart], compiled, forbid_root=forbid)[0]
            assert batched.score == scalar.score, trial
            assert batched.tree == scalar.tree, trial


def test_batched_tie_breaking_across_mixed_batch():
    rng = np.random.default_rng(321)
    labels = ("A", "B")
    grammar = full_grammar(labels)
    rules = RuleScoreChart(grammar, np.zeros((len(grammar), 2)))  # all rules tie
    compiled = CompiledRules(labels, grammar, rules)
    charts = [
        make_chart(n, labels, rng.choice([0.0, 1.0], size=(n + 1, n + 1, 2, 2)))
        for n in (2, 5, 3, 6, 4, 2)
    ]
    batched = decode_charts_batched(charts, compiled)
    for chart, got in zip(charts, batched):
        want = decode_ordered(chart, grammar, rules)
        assert got.score == want.score
        assert got.tree == want.tree


def test_batched_empty_grammar_yields_no_derivation_slots():
    rng = np.random.default_rng(9)
    labels = ("A", "B")
    empty = Grammar([])
    compiled = CompiledRules(labels, empty, zero_rules(empty))
    charts = [random_chart(rng, 2, labels), random_chart(rng, 1, labels)]
    results = decode_charts_batched(charts, compiled)
    assert isinstance(results[0], NoDerivation)
    # width-1 sentences never need the grammar
    assert not isinstance(results[1], NoDerivation)


@pytest.mark.parametrize("labels", [("B", "A"), ("A", "A", "B")])
def test_compiled_rules_refuse_labels_not_sorted_and_distinct(labels):
    grammar = Grammar([Rule("A", "B", "B")])
    with pytest.raises(ValueError, match="^the chart labels are not sorted and distinct$"):
        CompiledRules(labels, grammar, zero_rules(grammar))


def test_compiled_rules_refuse_a_grammar_label_outside_the_chart():
    grammar = Grammar([Rule("A", "B", "B"), Rule("A", "B", "C")])
    with pytest.raises(ValueError, match="^grammar label 'C' is not a chart label$"):
        CompiledRules(("A", "B"), grammar, zero_rules(grammar))


# fewer child pairs than labels; A, C and E are never a left child, A and E
# never a right child
SPARSE_LABELS = ("A", "B", "C", "D", "E")
SPARSE_GRAMMAR = Grammar([Rule("A", "B", "C"), Rule("A", "D", "B"), Rule("C", "B", "C"), Rule("E", "D", "D")])


@pytest.mark.parametrize("labels, grammar", [
    (("A", "B", "C"), full_grammar(("A", "B", "C"))),
    (SPARSE_LABELS, SPARSE_GRAMMAR),
    (("A", "B"), Grammar([])),
])
def test_compiled_rules_keep_the_grammar_order_and_the_rule_chart_scores(labels, grammar):
    rules = RuleScoreChart(grammar, np.random.default_rng(0).normal(size=(len(grammar), 2)))
    compiled = CompiledRules(labels, grammar, rules)
    ids = {lab: i for i, lab in enumerate(labels)}
    assert [tuple(map(int, r)) for r in zip(compiled.parent, compiled.left, compiled.right)] == \
        [tuple(ids[lab] for lab in rule) for rule in grammar.rules]
    assert compiled.scores is rules.scores
    # the fill expands rows at every label and at the right labels to the pairs
    assert compiled.right_labels[compiled.right_inv].tolist() == compiled.pair_right.tolist()
    assert len(compiled.right_labels) <= len(compiled.pair_right)
    assert compiled.right_labels.tolist() == sorted({ids[rule.right] for rule in grammar.rules})


@pytest.mark.parametrize("mode", ["baseline", "ablation"])
def test_brute_force_span_modes_raise_no_derivation_on_an_all_minus_inf_chart(mode):
    chart = make_chart(3, ("A", "B"), np.full((4, 4, 2, 2), -np.inf))
    with pytest.raises(NoDerivation, match=r"^no in-grammar derivation covers the sentence \(n=3\)$"):
        decode_baseline(chart.scores, chart.sentence, chart.labels)
    with pytest.raises(NoDerivation, match=r"^no in-grammar derivation covers the sentence \(n=3\)$"):
        brute_force_best(chart, mode)


@pytest.mark.parametrize("value, cells, message", [
    (np.nan, (0, 1), "the chart scores are not finite (n=3)"),
    (np.inf, (0, 1), "the chart scores are not finite (n=3)"),
    # (0, 1) is a child in the root's first split, (1, 3) in a later one
    (np.nan, (1, 3), "the chart scores are not finite (n=3)"),
    (np.inf, (1, 3), "the chart scores are not finite (n=3)"),
    (-np.inf, (slice(None), slice(None)), "no in-grammar derivation covers the sentence (n=3)"),
])
def test_batched_names_a_root_that_is_not_finite(value, cells, message):
    # a NaN or +inf root is the chart's fault; a -inf root the grammar's
    rng = np.random.default_rng(13)
    labels = ("A", "B")
    grammar = full_grammar(labels)
    rules = zero_rules(grammar)
    ok = random_chart(rng, 3, labels)
    broken = random_chart(rng, 3, labels)
    broken.scores[cells] = value
    results = decode_charts_batched([ok, broken, ok], CompiledRules(labels, grammar, rules))
    assert results[0].score == results[2].score == decode_ordered(ok, grammar, rules).score
    assert isinstance(results[1], NoDerivation)
    assert isinstance(results[1], NonFiniteChart) == (value != -np.inf)
    assert str(results[1]) == message
    assert_batched_equals_scalar([ok, broken, ok], grammar, rules)  # the scalar reference raises alike


SPAN_ONLY = {
    "baseline": lambda c: decode_baseline(tie(c).scores, c.sentence, c.labels),
    "ablation": decode_ablation,
}


# both fills of the span-only core; at n = 5, span (1, 3) is a child in no
# parent's first split
@pytest.mark.parametrize("n", [3, 5, 12])
@pytest.mark.parametrize("mode", list(SPAN_ONLY))
@pytest.mark.parametrize("value, cells, message", [
    (np.nan, (0, 1), "the chart scores are not finite (n={n})"),
    (np.inf, (0, 1), "the chart scores are not finite (n={n})"),
    (np.nan, (1, 3), "the chart scores are not finite (n={n})"),
    (np.inf, (1, 3), "the chart scores are not finite (n={n})"),
    (-np.inf, (slice(None), slice(None)), "no in-grammar derivation covers the sentence (n={n})"),
])
def test_span_only_decoders_name_a_root_that_is_not_finite(mode, n, value, cells, message):
    rng = np.random.default_rng(13)
    labels = ("A", "B")
    ok = random_chart(rng, n, labels)
    broken = random_chart(rng, n, labels)
    broken.scores[cells] = value
    with pytest.raises(NoDerivation) as err:
        SPAN_ONLY[mode](broken)
    assert str(err.value) == message.format(n=n)
    assert isinstance(err.value, NonFiniteChart) == (value != -np.inf)
    results = decode_each(SPAN_ONLY[mode], [ok, broken, ok])
    assert results[0].score == results[2].score == SPAN_ONLY[mode](ok).score
    assert type(results[1]) is type(err.value) and str(results[1]) == str(err.value)


def _outcome(decode, chart):
    """(score, tree) of a decode, or (error class, message) of what it raises."""
    try:
        result = decode(chart)
    except NoDerivation as err:
        return type(err), str(err)
    return result.score, result.tree


def test_list_fill_and_numpy_fill_agree_on_every_chart(monkeypatch):
    # Python's max passes over a NaN that is not its first argument; the list
    # fill must still answer what numpy's NaN-propagating fill answers
    rng = np.random.default_rng(2024)
    labels = ("A", "B", "C")
    charts = []
    for trial in range(240):
        n = int(rng.integers(2, 13))
        chart = random_chart(rng, n, labels)
        if trial % 8 == 7:  # finite scores whose sums overflow
            chart.scores *= 1e307
        else:
            for _ in range(int(rng.integers(0, 4))):
                # one entry, or every label and order of one span
                cell = tuple(int(rng.integers(0, d)) for d in chart.scores.shape)
                value = rng.choice([np.nan, np.inf, -np.inf])
                chart.scores[cell[: 2 if rng.random() < 0.3 else 4]] = value
        charts.append(chart)
    outcomes = {}
    for max_n in (0, 64):  # numpy's fill for every chart, then the list fill wherever it runs
        monkeypatch.setattr("ordercky.decoder._LIST_FILL_MAX_N", max_n)
        outcomes[max_n] = [
            _outcome(decode, chart) for chart in charts for decode in SPAN_ONLY.values()
        ]
    for k, (numpy_fill, list_fill) in enumerate(zip(outcomes[0], outcomes[64])):
        assert list_fill == numpy_fill, (k // 2, charts[k // 2].n)
    kinds = {o[0] if isinstance(o[0], type) else float for o in outcomes[0]}
    assert kinds == {float, NoDerivation, NonFiniteChart}


# ---------------------------------------------------------------------------
# the factored batched fill against the scalar recursion


def assert_batched_equals_scalar(charts, grammar, rules, forbid_root=None):
    compiled = CompiledRules(charts[0].labels, grammar, rules)
    results = decode_charts_batched(charts, compiled, forbid_root=forbid_root)
    assert len(results) == len(charts)
    for chart, got in zip(charts, results):
        try:
            want = decode_ordered(chart, grammar, rules, forbid_root=forbid_root)
        except NoDerivation as err:
            assert type(got) is type(err) and str(got) == str(err), chart.n
            continue
        assert got.score == want.score, chart.n
        assert got.tree == want.tree, chart.n


def _grid(rng, size):
    """Quarter integers: sums stay exact, so equal candidates tie exactly."""
    return rng.integers(-4, 5, size=size) / 4.0


@given(seed=st.integers(0, 2**32 - 1), on_grid=st.booleans(), forbid=st.sampled_from([None, "A", "D"]))
@settings(max_examples=12, deadline=None)
def test_batched_equals_scalar_on_long_mixed_batches(seed, on_grid, forbid):
    rng = np.random.default_rng(seed)
    labels = ("A", "B", "C", "D", "E")
    triples = [Rule(p, l, r) for p in labels for l in labels for r in labels]
    picked = rng.choice(len(triples), size=int(rng.integers(30, 61)), replace=False)
    grammar = Grammar([triples[i] for i in picked])
    lengths = [int(rng.integers(18, 25))] + [int(n) for n in rng.integers(1, 13, size=3)]
    if on_grid:
        # an offset of 2**52 makes x + g round to even integers, so distinct
        # child sums can tie after adding a rule score
        offsets = rng.choice([0.0, 2.0**52], size=(len(grammar), 1), p=[0.8, 0.2])
        rules = RuleScoreChart(grammar, _grid(rng, (len(grammar), 2)) + offsets)
        charts = [make_chart(n, labels, _grid(rng, (n + 1, n + 1, len(labels), 2))) for n in lengths]
    else:
        rules = RuleScoreChart(grammar, rng.normal(size=(len(grammar), 2)))
        charts = [random_chart(rng, n, labels) for n in lengths]
    assert_batched_equals_scalar(charts, grammar, rules, forbid_root=forbid)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_batched_equals_scalar_with_underivable_chart_in_batch(seed):
    rng = np.random.default_rng(seed)
    labels = ("A", "B", "C")
    # A covers at most four tokens, so the length-7 chart has no derivation
    grammar = Grammar([Rule("A", "B", "B"), Rule("B", "C", "C"), Rule("B", "C", "B")])
    rules = RuleScoreChart(grammar, _grid(rng, (len(grammar), 2)))
    lengths = [2, 7, 4, 3, 1]
    charts = [make_chart(n, labels, _grid(rng, (n + 1, n + 1, len(labels), 2))) for n in lengths]
    assert_batched_equals_scalar(charts, grammar, rules)
    assert_batched_equals_scalar(charts, grammar, rules, forbid_root="A")


def _rule_candidates(t, compiled, i, j, lo, hi):
    """fl(fl(tl + tr) + g) of one cell's rules lo:hi, by (split, rule, order)."""
    tl = t[i, i + 1 : j][:, compiled.left[lo:hi], LEFT]
    tr = t[i + 1 : j, j][:, compiled.right[lo:hi], RIGHT]
    return (tl + tr)[:, :, None] + compiled.scores[lo:hi]


def _inside(chart, compiled):
    """The ordered recursion's values t[i, j, label, order], one numpy max per
    cell and parent label."""
    n, s = chart.n, chart.scores
    t = np.full(s.shape, -np.inf)
    for i in range(n):
        t[i, i + 1] = s[i, i + 1]
    for w in range(2, n + 1):
        for i in range(n - w + 1):
            for lab, (lo, hi) in enumerate(zip(compiled.bounds[:-1], compiled.bounds[1:])):
                if lo < hi:
                    t[i, i + w, lab] = s[i, i + w, lab] + _rule_candidates(t, compiled, i, i + w, lo, hi).max(axis=(0, 1))
    return t


def _split_ties(tree, chart, compiled):
    """Nodes of ``tree`` at which two rules reach the node's maximum, each
    first at a different split."""
    t = _inside(chart, compiled)
    index = {lab: x for x, lab in enumerate(chart.labels)}
    count = 0
    for label, i, j, o in tree.nodes():
        if j - i > 1:
            lab = index[label]
            lo, hi = compiled.bounds[lab], compiled.bounds[lab + 1]
            cand = _rule_candidates(t, compiled, i, j, lo, hi)[:, :, o]
            reach = cand == cand.max()
            count += len({int(np.argmax(reach[:, r])) for r in np.flatnonzero(reach.any(axis=0))}) > 1
    return count


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_breaks_ties_between_rules_at_different_splits_as_scalar(seed):
    # A has every one of its 25 child pairs; on the quarter grid with 2**52
    # offsets several of them reach a node's best, each first at its own
    # split, so the smallest split must win before the smallest rule
    rng = np.random.default_rng(seed)
    labels = ("A", "B", "C", "D", "E")
    grammar = Grammar([Rule("A", l, r) for l in labels for r in labels]
                      + [Rule("B", "A", "A"), Rule("C", "D", "E"), Rule("D", "A", "B")])
    offsets = rng.choice([0.0, 2.0**52], size=(len(grammar), 1))
    rules = RuleScoreChart(grammar, _grid(rng, (len(grammar), 2)) + offsets)
    compiled = CompiledRules(labels, grammar, rules)
    charts = [make_chart(n, labels, _grid(rng, (n + 1, n + 1, len(labels), 2)))
              for n in (1, 24, 3, 17, 2, 9, 12, 6)]
    for forbid in (None, "A"):
        ties = 0
        for chart, got in zip(charts, decode_charts_batched(charts, compiled, forbid_root=forbid)):
            want = decode_ordered(chart, grammar, rules, forbid_root=forbid)
            assert got.score == want.score, (chart.n, forbid)
            assert got.tree == want.tree, (chart.n, forbid)
            ties += _split_ties(want.tree, chart, compiled)
        assert ties > 0, forbid  # else no node tells the two tie-break orders apart


def test_batched_equals_scalar_on_empty_grammar():
    rng = np.random.default_rng(5)
    labels = ("A", "B")
    empty = Grammar([])
    charts = [make_chart(n, labels, _grid(rng, (n + 1, n + 1, 2, 2))) for n in (1, 4, 1, 2)]
    for forbid in (None, "A"):
        assert_batched_equals_scalar(charts, empty, zero_rules(empty), forbid_root=forbid)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_equals_scalar_where_labels_are_never_a_child(seed):
    # the value tables are narrower than the label set on both sides; on the
    # quarter grid with 2**52 offsets every candidate rounds to an integer,
    # so rules and root labels tie exactly
    rng = np.random.default_rng(seed)
    rules = RuleScoreChart(SPARSE_GRAMMAR, _grid(rng, (len(SPARSE_GRAMMAR), 2)) + 2.0**52)
    charts = [make_chart(n, SPARSE_LABELS, _grid(rng, (n + 1, n + 1, len(SPARSE_LABELS), 2)))
              for n in (1, 9, 2, 14, 3, 2, 6, 2, 2, 2, 2, 2, 2, 2)]
    for forbid in (None, "A"):
        assert_batched_equals_scalar(charts, SPARSE_GRAMMAR, rules, forbid_root=forbid)
    # at n = 2 each rule gives one root value, and several reach the best
    c = CompiledRules(SPARSE_LABELS, SPARSE_GRAMMAR, rules)
    ties = 0
    for s in (chart.scores for chart in charts if chart.n == 2):
        root = s[0, 2, c.parent, LEFT] + (s[0, 1, c.left, LEFT] + s[1, 2, c.right, RIGHT] + c.scores[:, LEFT])
        ties += np.count_nonzero(root == root.max()) > 1
    assert ties > 0


@given(seed=st.integers(0, 2**32 - 1), forbid=st.sampled_from([None, "A"]))
@settings(max_examples=15, deadline=None)
def test_batched_equals_scalar_with_non_finite_cells(seed, forbid):
    rng = np.random.default_rng(seed)
    labels = ("A", "B", "C")
    grammar = full_grammar(labels)
    rules = RuleScoreChart(grammar, rng.normal(size=(len(grammar), 2)))
    charts = [random_chart(rng, int(n), labels) for n in rng.integers(1, 7, size=4)]
    for chart in charts:
        for _ in range(int(rng.integers(0, 3))):
            cell = tuple(int(rng.integers(0, d)) for d in chart.scores.shape)
            chart.scores[cell] = rng.choice([np.nan, np.inf, -np.inf])
    assert_batched_equals_scalar(charts, grammar, rules, forbid_root=forbid)


def _random_gold(rng, chart):
    """A random binary tree over the chart's sentence, with random labels."""
    labels = chart.labels

    def build(i, j):
        lab = labels[int(rng.integers(len(labels)))]
        if j - i == 1:
            return [(i, j, lab)]
        k = int(rng.integers(i + 1, j))
        return [(i, j, lab), *build(i, k), *build(k, j)]

    return BinaryTree.from_spans(chart.sentence, build(0, chart.n))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_batched_equals_scalar_on_hamming_augmented_charts(seed):
    # training decodes these charts; on quarter-grid scores the +1 of every
    # span off the gold tree makes many candidates tie exactly
    rng = np.random.default_rng(seed)
    labels = ("A", "B", "C", "D", "E")
    lengths = [int(rng.integers(14, 21))] + [int(n) for n in rng.integers(1, 13, size=4)]
    charts = [make_chart(n, labels, _grid(rng, (n + 1, n + 1, len(labels), 2))) for n in lengths]
    golds = [_random_gold(rng, chart) for chart in charts]
    # the gold trees' rules, as in an extracted grammar, plus random others
    triples = [Rule(p, l, r) for p in labels for l in labels for r in labels]
    picked = rng.choice(len(triples), size=int(rng.integers(20, 41)), replace=False)
    grammar = Grammar([triples[i] for i in picked]
                      + [Rule(p, l, r) for gold in golds for p, l, r, _ in gold.compositions()])
    rules = RuleScoreChart(grammar, _grid(rng, (len(grammar), 2)))
    augmented = [augmented_chart(chart, gold) for chart, gold in zip(charts, golds)]
    for forbid in (None, "A"):
        assert_batched_equals_scalar(augmented, grammar, rules, forbid_root=forbid)


def test_batched_decode_keeps_no_cell_by_pair_table():
    # the fill keeps one float table of cells x labels and one of cells x
    # right labels, plus one width's span scores and values at a time; the
    # traced peak must stay below them, the row index and one width's working
    # set, a bound that a table of cells x distinct child pairs exceeds alone
    rng = np.random.default_rng(0)
    labels = tuple("ABCDEFGHIJKL")
    # every child pair, each under two parents: 144 pairs, 288 rules
    grammar = Grammar([Rule(labels[p], l, r) for l in labels for r in labels
                       for p in rng.choice(len(labels), size=2, replace=False)])
    compiled = CompiledRules(labels, grammar, zero_rules(grammar))
    lengths = range(20, 35, 2)
    charts = [random_chart(rng, n, labels) for n in lengths]
    cells = sum(n * (n + 1) // 2 for n in lengths)
    widest = sum(n - 1 for n in lengths)  # width 2 has the most cells above width 1
    pairs, f8 = len(compiled.pair_left), np.dtype(float).itemsize
    assert pairs == len(labels) ** 2 and len(compiled.right_labels) == len(labels)
    tables = cells * (len(labels) + len(compiled.right_labels)) * f8  # left_values, right_values
    one_width = 2 * sum(lengths) * len(labels) * 2 * f8  # a width's scores s and values t
    row = (max(lengths) + 1) * len(charts) * max(lengths) * np.dtype(np.intp).itemsize
    # a split block and its gathered right rows; the pair maxima and one
    # block's; the per-rule values and the buffer of one order's
    working = (2 * decoder._SPLIT_BLOCK + widest * 2 * (pairs + len(grammar))) * f8
    bound = tables + one_width + row + working
    assert bound < cells * pairs * f8
    tracemalloc.start()
    try:
        results = decode_charts_batched(charts, compiled)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(isinstance(res, NoDerivation) for res in results)
    assert peak < bound, (peak, bound)


A_TO_AA = Grammar([Rule("A", "A", "A")])
DEEP_DECODERS = {
    "baseline": lambda c: decode_baseline(c.scores, c.sentence, c.labels),
    "ablation": decode_ablation,
    "ordered": lambda c: decode_charts_batched([c], CompiledRules(c.labels, A_TO_AA, zero_rules(A_TO_AA)))[0],
}


@pytest.mark.parametrize("mode", list(DEEP_DECODERS))
def test_decoders_build_a_tree_as_deep_as_the_sentence_without_recursion(mode):
    # every span starting at 0 scores 1, so the best tree branches left all
    # the way down: 299 levels under a stack only 100 frames from its limit
    n = 300
    scores = np.zeros((n + 1, n + 1, 1, 2))
    scores[0, :, 0, :] = 1.0
    chart = make_chart(n, ("A",), scores)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        result = DEEP_DECODERS[mode](chart)
    finally:
        sys.setrecursionlimit(limit)
    assert result.score == n
    internal = [(i, j) for _, i, j, _ in result.tree.nodes() if j - i > 1]
    assert internal == [(0, j) for j in range(n, 1, -1)]
    # plain Python values, which compare, hash and print as they read
    tree = result.tree
    assert {type(v) for v in tree.start + tree.end} == {int} and {type(v) for v in tree.label} == {str}


@pytest.mark.parametrize("n", [1, 2, 3, 1500])
def test_fallback_tree_branches_right_under_the_first_label(n):
    # 1,500 tokens make a right-branching chain 1,499 nodes deep
    sentence = tuple((f"w{k}", "T") for k in range(n))
    tree = fallback_tree(sentence, (DUMMY, "NP", "S"))
    want = [(0, n, "NP")] if n == 1 else [(0, n, "NP"), (0, 1, DUMMY)]
    for i in range(1, n - 1):
        want += [(i, n, DUMMY), (i, i + 1, DUMMY)]
    if n > 1:
        want.append((n - 1, n, DUMMY))
    assert [(i, j, label) for label, i, j, _ in tree.nodes()] == want
    assert tree.sentence is sentence
    assert debinarize(tree) == parse_bracketed("(NP " + " ".join(f"(T {w})" for w, _ in sentence) + ")")


def test_long_trees_compare_hash_and_print_without_recursion():
    # at 1,200 tokens a nested tree was 1,199 levels deep, and the dataclass
    # ==, hash and repr of its nodes recursed past the default limit
    n = 1200
    sentence = tuple((f"w{k}", "T") for k in range(n))
    one, two = fallback_tree(sentence, ("A",)), fallback_tree(sentence, ("A",))
    scores = np.zeros((n + 1, n + 1, 1, 2))
    scores[:, n, 0, :] = 1.0  # every span ending at n scores 1: the best tree branches right
    chart = make_chart(n, ("A",), scores)
    decoded, again = decode_ablation(chart).tree, decode_ablation(chart).tree
    assert one == two and decoded == again and one != decoded
    assert hash(one) == hash(two) and hash(decoded) == hash(again)
    assert repr(one) == repr(two) != repr(decoded)
    assert [(i, j) for _, i, j, _ in decoded.nodes() if j - i > 1] == [(i, n) for i in range(n - 1)]
