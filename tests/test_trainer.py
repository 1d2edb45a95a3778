import dataclasses
import json
import math

import numpy as np
import pytest

from ordercky import trainer
from ordercky.decoder import (
    CompiledRules,
    NoDerivation,
    NonFiniteChart,
    augmented_chart,
    decode_charts_batched,
    decode_ordered,
    fallback_tree,
    ordered_tree_score,
)
from ordercky.grammar import Rule, RuleScoreChart
from ordercky.scorer import ScorerModel, param_shapes
from ordercky.trainer import (
    MODES,
    GoldRuleMissing,
    TrainConfig,
    evaluate_dev,
    fit,
    init_state,
    load_checkpoint,
    load_tensors,
    save_checkpoint,
    save_tensors,
    sentence_gradients,
    step,
)
from ordercky.evaluate import score_trees
from ordercky.trees import LEFT, Treebank, debinarize, read_trees

UNIQUE_DERIVATION = "(S (A (X x)) (B (Y y)))"

MINI_CORPUS = """\
(S (NP (DT the) (NN cat)) (VP (VB sees) (NP (DT a) (NN dog))))
(S (NP (DT a) (NN dog)) (VP (VB runs)))
(S (NP (DT the) (NN fox)) (VP (VB sees) (NP (DT the) (NN hen))))
(S (NP (DT every) (NN owl)) (VP (VB hears) (NP (DT a) (NN bee))))
(S (NP (DT the) (NN bee)) (VP (VB runs)))
(S (NP (DT a) (NN hen)) (VP (VB hears) (NP (DT every) (NN fox))))
(S (NP (DT the) (NN cat)) (VP (VB sits)) (PP (IN on) (NP (DT a) (NN mat))))
(S (NP (DT a) (NN owl) (PP (IN on) (NP (DT the) (NN mat)))) (VP (VB runs)))
(S (NP (DT the) (NN dog)) (VP (VB sees) (NP (DT a) (NN cat)) (PP (IN on) (NP (DT the) (NN mat)))))
"""


def bank(text):
    return Treebank.from_trees(read_trees(text))


def make_state(text, mode="ordered", seed=0, dim=8, hidden=8):
    tb = bank(text)
    config = TrainConfig(mode=mode, seed=seed, dim=dim, hidden=hidden, maxlen=16)
    return tb, config, init_state(tb, config)


def gradients(state, sent):
    """``sentence_gradients`` of one sentence, from its forward and the decode
    of its Hamming-augmented chart alone."""
    spec = MODES[state.mode]
    chart, cache = state.model.forward(sent.btree.sentence, orders=spec.heads)
    augmented = spec.decode([augmented_chart(chart, sent.btree)], state.compiled)[0]
    return sentence_gradients(sent, chart, cache, augmented, state)


def hinge_loss(state, sent):
    """The sentence's hinge loss from ``sentence_gradients``."""
    return gradients(state, sent)[0]


def augmented_and_gold(state, sent):
    """The Hamming-augmented decode and the gold score, through the mode table."""
    spec = MODES[state.mode]
    chart, _ = state.model.forward(sent.btree.sentence, orders=spec.heads)
    compiled = CompiledRules(state.model.labels, state.grammar, state.rules)
    augmented = spec.decode([augmented_chart(chart, sent.btree)], compiled)[0]
    return augmented, ordered_tree_score(sent.btree, chart, state.rules if spec.rules else None)


class TestHingeLoss:
    def test_unique_derivation_has_zero_loss(self):
        tb, _, state = make_state(UNIQUE_DERIVATION)
        sent = tb.sentences[0]
        augmented, gold_score = augmented_and_gold(state, sent)
        assert hinge_loss(state, sent) == 0.0
        assert augmented.tree == sent.btree
        assert augmented.score == pytest.approx(gold_score, abs=1e-12)

    def test_loss_matches_brute_force_decomposition(self):
        tb, _, state = make_state(MINI_CORPUS, seed=5)
        sent = tb.sentences[0]
        chart, _ = state.model.forward(sent.btree.sentence)
        loss = hinge_loss(state, sent)
        from ordercky.decoder import brute_force_best

        want = brute_force_best(
            augmented_chart(chart, sent.btree), "ordered", grammar=state.grammar, rules=state.rules
        )
        assert loss == pytest.approx(
            max(want.score - ordered_tree_score(sent.btree, chart, state.rules), 0.0),
            abs=1e-9,
        )

    def test_loss_nonnegative_and_zero_iff_gold_optimal(self):
        tb, _, state = make_state(MINI_CORPUS, seed=3)
        for sent in tb.sentences:
            loss = hinge_loss(state, sent)
            augmented, gold_score = augmented_and_gold(state, sent)
            assert loss == max(augmented.score - gold_score, 0.0)
            assert loss >= 0.0
            assert augmented.score >= gold_score - 1e-12
            assert (loss == 0.0) == (augmented.score <= gold_score + 1e-12)

    def test_gold_rule_missing(self):
        tb, _, state = make_state(MINI_CORPUS)
        other = bank("(S (QP (CD one) (CD two)) (VP (VB runs)))")
        sent = other.sentences[0]
        with pytest.raises(GoldRuleMissing, match=r"^gold composition Rule\(parent='S', left='QP'"):
            gradients(state, sent)


class TestStep:
    def test_zero_loss_batch_leaves_parameters_unchanged(self):
        tb, _, state = make_state(UNIQUE_DERIVATION)
        before = {k: v.copy() for k, v in state.model.params.items()}
        rules_before = state.rules.scores.copy()
        assert step(tb.sentences, state) == (0.0, 0)
        for name, value in state.model.params.items():
            assert np.array_equal(value, before[name])
        assert np.array_equal(state.rules.scores, rules_before)

    def test_gold_score_rises_after_step(self):
        tb, _, state = make_state(MINI_CORPUS, seed=11)
        sent = tb.sentences[0]
        augmented, gold_before = augmented_and_gold(state, sent)
        assert hinge_loss(state, sent) > 0.0 and augmented.tree != sent.btree
        step([sent], state)
        chart, _ = state.model.forward(sent.btree.sentence)
        gold_after = ordered_tree_score(sent.btree, chart, state.rules)
        assert gold_after > gold_before

    def test_duplicated_sentence_doubles_gradient(self):
        tb, _, state = make_state(MINI_CORPUS, seed=2)
        sent = tb.sentences[0]
        loss, grads, rule_grads = gradients(state, sent)
        assert loss > 0.0
        loss2, grads2, rule_grads2 = gradients(state, sent)
        for name in grads:
            assert np.array_equal(grads[name] + grads2[name], 2 * grads[name])
        assert np.array_equal(rule_grads, rule_grads2)

    def test_mean_aggregation_is_batch_size_invariant(self):
        tb, _, _ = make_state(MINI_CORPUS, seed=4)
        sent = tb.sentences[1]
        _, _, single = make_state(MINI_CORPUS, seed=4)
        step([sent], single)
        _, _, double = make_state(MINI_CORPUS, seed=4)
        step([sent, sent], double)
        for name in single.model.params:
            assert np.allclose(
                single.model.params[name], double.model.params[name], atol=1e-15
            )

    def test_descent_sanity_small_lr(self):
        tb, _, state = make_state(MINI_CORPUS, seed=6)
        state.learning_rate = 1e-4
        sent = tb.sentences[2]
        before = hinge_loss(state, sent)
        assert before > 0.0
        step([sent], state)
        after = hinge_loss(state, sent)
        assert after <= before + 1e-9

    def test_empty_batch_rejected(self):
        tb, _, state = make_state(MINI_CORPUS)
        with pytest.raises(ValueError):
            step([], state)


def fit_log(train, dev, config, **kwargs):
    """``fit``'s state and its epoch log, one list of columns per epoch:
    epoch, loss, P, R, F1 and learning rate."""
    lines = []
    state = fit(train, dev, config, log_fn=lines.append, **kwargs)
    return state, [line.split("\t") for line in lines]


class TestFit:
    def test_zero_epochs_returns_initial_state(self):
        tb, _, _ = make_state(MINI_CORPUS)
        config = TrainConfig(mode="ordered", epochs=0, seed=0, dim=8, hidden=8, maxlen=16)
        state, log = fit_log(tb, tb, config)
        fresh = init_state(tb, config)
        report = evaluate_dev(fresh, tb)
        assert state.epoch == 0
        assert state.best_f1 == pytest.approx(report.f1)
        assert log == [["0", "nan", f"{report.precision:.2f}", f"{report.recall:.2f}", f"{report.f1:.2f}",
                        f"{config.learning_rate:.6g}"]]

    def test_seeded_determinism(self):
        tb, _, _ = make_state(MINI_CORPUS)
        config = TrainConfig(mode="ordered", epochs=4, seed=7, dim=8, hidden=8, maxlen=16)
        a, b = [], []
        fit(tb, tb, config, log_fn=a.append)
        fit(tb, tb, config, log_fn=b.append)
        assert len(a) == 5 and a == b

    def test_memorizes_small_corpus(self):
        tb, _, _ = make_state(MINI_CORPUS)
        config = TrainConfig(mode="ordered", epochs=60, seed=0, dim=16, hidden=32,
                             maxlen=16, batch_size=4, learning_rate=0.02)
        state = fit(tb, tb, config)
        assert state.best_f1 == pytest.approx(100.0)

    def test_best_f1_non_decreasing_and_checkpointed(self, tmp_path):
        tb, _, _ = make_state(MINI_CORPUS)
        path = str(tmp_path / "ck.npz")
        config = TrainConfig(mode="ordered", epochs=8, seed=3, dim=8, hidden=8, maxlen=16)
        state, log = fit_log(tb, tb, config, checkpoint_path=path)
        f1s = [float(row[4]) for row in log]
        assert f"{state.best_f1:.2f}" == f"{max(f1s):.2f}"
        # an epoch after the best scores lower, so the state fit returns is the
        # checkpoint's only if fit restores the best epoch
        last_best = max(e for e, f1 in enumerate(f1s) if f1 == max(f1s))
        assert min(f1s[last_best:]) < max(f1s)
        model, grammar, rules, mode = load_checkpoint(path)
        restored = evaluate_dev(
            init_state(tb, config), tb
        )  # smoke: checkpoint loads and evaluates
        assert mode == "ordered"
        assert grammar.rules == state.grammar.rules
        # the file holds the best state, the one fit returns
        assert np.array_equal(rules.scores, state.rules.scores)
        for name, value in state.model.params.items():
            assert np.array_equal(model.params[name], value)

    def test_learning_rate_decays_on_plateau(self):
        # two irreconcilable label assignments for the same span keep baseline
        # loss positive and dev F1 flat, forcing the patience decay
        text = "\n".join(
            [
                "(S (P (T p)) (QR (T qa) (T qb)) (R (T r1) (T r2)))",
                "(S (P (T p)) (M (QL (T qa) (T qb)) (R (T s1) (T s2))))",
            ]
        )
        tb = bank(text)
        config = TrainConfig(
            mode="baseline", epochs=30, seed=0, dim=8, hidden=8, maxlen=16,
            decay_patience=2, max_decay=2,
        )
        state, log = fit_log(tb, tb, config)
        assert state.learning_rate < config.learning_rate
        rates = [float(row[5]) for row in log]
        assert rates[0] == config.learning_rate and min(rates) < config.learning_rate
        assert rates == sorted(rates, reverse=True)

    def test_stops_when_loss_reaches_zero(self):
        tb, _, _ = make_state(UNIQUE_DERIVATION)
        config = TrainConfig(mode="ordered", epochs=50, seed=0, dim=8, hidden=8, maxlen=16)
        state, log = fit_log(tb, tb, config)
        assert state.epoch == 1  # loss is exactly zero from the first epoch
        assert [row[1] for row in log] == ["nan", "0.000000"]
        assert state.learning_rate == config.learning_rate
        assert [row[5] for row in log] == [f"{config.learning_rate:.6g}"] * 2


class TestCheckpoint:
    @pytest.mark.parametrize("mode", list(MODES))
    def test_round_trip(self, tmp_path, mode):
        tb, config, state = make_state(MINI_CORPUS, mode=mode, seed=9)
        state.best_f1 = 37.5
        path = str(tmp_path / "model.npz")
        save_checkpoint(path, state)
        model, grammar, rules, loaded_mode = load_checkpoint(path)
        assert loaded_mode == mode
        assert grammar.rules == state.grammar.rules
        assert np.array_equal(rules.scores, state.rules.scores)
        assert (model.words, model.labels) == (state.model.words, state.model.labels)
        assert (model.dim, model.hidden, model.maxlen) == (config.dim, config.hidden, config.maxlen)
        assert list(model.params) == list(state.model.params)
        for name, value in state.model.params.items():
            assert np.array_equal(model.params[name], value)
        for sent in tb.sentences:
            sentence = sent.btree.sentence + (("unseen", "NN"),)
            assert np.array_equal(model.forward(sentence)[0].scores,
                                  state.model.forward(sentence)[0].scores)

    def test_format_is_locked(self, tmp_path):
        _, _, state = make_state(MINI_CORPUS, seed=9)
        path = str(tmp_path / "model.npz")
        save_checkpoint(path, state)
        with np.load(path) as data:
            names = list(data.files)
            meta = json.loads(str(data["__meta__"]))
        assert list(state.model.params) == list(param_shapes(len(state.model.words),
                                                             len(state.model.labels), 8, 8, 16))
        assert names == [*state.model.params, "rule_scores", "__meta__"]
        assert list(meta) == ["format_version", "words", "labels", "dim", "hidden", "maxlen",
                              "mode", "rules", "best_f1"]
        assert meta["format_version"] == trainer.FORMAT_VERSION
        tensors, read_meta = load_tensors(path)
        assert list(tensors) == [*state.model.params, "rule_scores"] and read_meta == meta

    def test_container_rejects_wrong_version(self, tmp_path):
        path = str(tmp_path / "bad.npz")
        save_tensors(path, {"x": np.zeros(2)}, {"format_version": 999})
        with pytest.raises(ValueError) as err:
            load_tensors(path)
        assert str(err.value) == f"{path}: unsupported model format: 999"


def test_compiled_rules_read_the_scores_a_step_updates():
    tb, _, state = make_state(MINI_CORPUS, seed=11)
    compiled = state.compiled
    before = state.rules.scores.copy()
    step(tb.sentences, state)
    assert not np.array_equal(state.rules.scores, before)
    assert state.compiled is compiled and compiled.scores is state.rules.scores
    charts = [state.model.forward(s.btree.sentence)[0] for s in tb.sentences]
    got = [r.score for r in decode_charts_batched(charts, state.compiled)]
    # decode_ordered compiles the grammar afresh from the rule chart
    assert got == [decode_ordered(c, state.grammar, state.rules).score for c in charts]
    stale = CompiledRules(state.model.labels, state.grammar, RuleScoreChart(state.grammar, before))
    assert got != [r.score for r in decode_charts_batched(charts, stale)]


def hinge_objective(state, sent):
    chart, _ = state.model.forward(sent.btree.sentence)
    augmented = decode_ordered(augmented_chart(chart, sent.btree), state.grammar, state.rules)
    gold = ordered_tree_score(sent.btree, chart, state.rules)
    return max(augmented.score - gold, 0.0), augmented.tree


def test_hinge_subgradient_matches_finite_differences():
    tb, _, state = make_state(MINI_CORPUS, seed=13)
    sent = tb.sentences[0]
    loss, grads, rule_grads = gradients(state, sent)
    assert loss > 0.0
    step_size = 1e-5
    checked = skipped = 0
    _, center_tree = hinge_objective(state, sent)

    def fd_for(array, analytic):
        nonlocal checked, skipped
        flat = array.reshape(-1)
        an_flat = analytic.reshape(-1)
        rng = np.random.default_rng(0)
        idx = rng.choice(flat.size, size=min(60, flat.size), replace=False)
        for k in idx:
            orig = flat[k]
            flat[k] = orig + step_size
            up, up_tree = hinge_objective(state, sent)
            flat[k] = orig - step_size
            down, down_tree = hinge_objective(state, sent)
            flat[k] = orig
            if up_tree != center_tree or down_tree != center_tree or min(up, down) <= 0:
                skipped += 1  # argmax not locally stable at this coordinate
                continue
            fd = (up - down) / (2 * step_size)
            if max(abs(fd), abs(an_flat[k])) < 1e-6:
                checked += 1  # both negligible; fd is cancellation noise here
                continue
            scale = max(abs(fd), abs(an_flat[k]))
            assert abs(fd - an_flat[k]) / scale <= 1e-3
            checked += 1

    for name in state.model.params:
        fd_for(state.model.params[name], grads[name])
    fd_for(state.rules.scores, rule_grads)
    assert checked > 200, f"too few stable coordinates checked: {checked} ({skipped} skipped)"


def test_step_skips_bad_sentences_and_logs(caplog):
    import logging

    tb, _, state = make_state(MINI_CORPUS, seed=1)
    alien = bank("(S (QP (CD one) (CD two)) (VP (VB runs)))").sentences[0]
    batch = [tb.sentences[0], alien, tb.sentences[1]]
    with caplog.at_level(logging.WARNING, logger="ordercky.trainer"):
        loss, skipped = step(batch, state)
    assert any("skipping sentence" in r.message for r in caplog.records)
    assert skipped == 1
    assert loss >= 0.0


def test_training_checkpoints_bit_identical_across_runs(tmp_path):
    tb, _, _ = make_state(MINI_CORPUS)
    blobs = []
    for run in range(2):
        config = TrainConfig(mode="ordered", epochs=3, seed=21, dim=8, hidden=8, maxlen=16)
        state = fit(tb, tb, config)
        path = tmp_path / f"run{run}.npz"
        save_checkpoint(str(path), state)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_evaluate_dev_falls_back_on_underivable_sentences():
    # dev needs a composition the train grammar lacks; the fallback tree keeps
    # evaluation total instead of crashing
    train = bank(UNIQUE_DERIVATION)
    dev = bank("(S (A (X x)) (B (Y y)) (B (Y z)))")
    config = TrainConfig(mode="ordered", seed=0, dim=8, hidden=8, maxlen=16)
    state = init_state(train, config)
    report = evaluate_dev(state, dev)
    assert report.gold > 0
    assert 0.0 <= report.f1 < 100.0


@pytest.mark.parametrize("mode", list(MODES))
def test_evaluate_dev_falls_back_on_non_finite_charts(mode):
    # every span scores 1e308, so every root sums to +inf: each sentence is
    # scored as its fallback tree, in every mode
    tb, _, state = make_state(MINI_CORPUS, mode=mode)
    for name in ("L", "R"):
        state.model.params[f"w2_{name}"][:] = 0.0
        state.model.params[f"b2_{name}"][:] = 1e308
    fallbacks = [debinarize(fallback_tree(s.btree.sentence, state.model.labels))
                 for s in tb.sentences]
    report = evaluate_dev(state, tb)
    assert report == score_trees(fallbacks, [s.tree for s in tb.sentences])


@pytest.mark.parametrize("mode", list(MODES))
def test_evaluate_dev_decodes_chunk_sentences_at_a_time(monkeypatch, mode):
    tb = bank(MINI_CORPUS)
    dev = Treebank((tb.sentences * 8)[: 2 * trainer.CHUNK + 5])
    state = init_state(tb, TrainConfig(mode=mode, seed=4, dim=8, hidden=8, maxlen=16))
    sizes = decode_sizes(monkeypatch, mode)
    chunked = evaluate_dev(state, dev)
    assert sizes == [trainer.CHUNK, trainer.CHUNK, 5]
    monkeypatch.setattr(trainer, "CHUNK", len(dev.sentences))
    assert evaluate_dev(state, dev) == chunked
    assert sizes[3:] == [len(dev.sentences)]


def test_unknown_mode_same_message_from_config_and_checkpoint(tmp_path):
    with pytest.raises(ValueError) as from_config:
        TrainConfig(mode="cubic")
    _, _, state = make_state(UNIQUE_DERIVATION)
    state.mode = "cubic"
    path = str(tmp_path / "cubic.npz")
    save_checkpoint(path, state)
    with pytest.raises(ValueError) as from_checkpoint:
        load_checkpoint(path)
    message = str(from_config.value)
    assert "'cubic'" in message and all(mode in message for mode in MODES)
    assert str(from_checkpoint.value) == f"{path}: checkpoint {message}"


@pytest.mark.parametrize("mode", list(MODES))
def test_training_computes_only_the_modes_heads(tmp_path, monkeypatch, mode):
    # in a two-head mode, a run forced to compute both heads writes the same
    # checkpoint bytes; a one-head mode's chart ties its one head instead
    tb = bank(MINI_CORPUS)
    config = TrainConfig(mode=mode, epochs=3, seed=4, dim=8, hidden=8, maxlen=16)
    real = ScorerModel.forward
    seen = set()

    def recording(self, sentence, orders=(0, 1), scratch=None):
        seen.add(tuple(orders))
        return real(self, sentence, orders, scratch=scratch)

    monkeypatch.setattr(ScorerModel, "forward", recording)
    fit(tb, tb, config, checkpoint_path=str(tmp_path / "heads.npz"))
    assert seen == {MODES[mode].heads}
    assert MODES["baseline"].heads == (0,)
    if len(MODES[mode].heads) == 1:
        return

    monkeypatch.setattr(ScorerModel, "forward",
                        lambda self, sentence, orders=(0, 1), scratch=None: real(self, sentence, scratch=scratch))
    fit(tb, tb, config, checkpoint_path=str(tmp_path / "both.npz"))
    assert (tmp_path / "heads.npz").read_bytes() == (tmp_path / "both.npz").read_bytes()


def test_fit_stops_when_an_epoch_scores_no_sentence(monkeypatch):
    tb, config, state = make_state(MINI_CORPUS)

    def underivable(*args):
        raise NoDerivation("forced")

    monkeypatch.setattr(trainer, "sentence_gradients", underivable)
    loss, skipped = step(tb.sentences[:3], state)
    assert np.isnan(loss) and skipped == 3
    logged = []
    with pytest.raises(ValueError, match=r"^epoch 1: scored none of the 9 training sentences"):
        fit(tb, tb, config, log_fn=logged.append)
    assert [line.split("\t")[0] for line in logged] == ["0"]


def test_fit_stops_when_a_parameter_overflows():
    tb = bank(MINI_CORPUS)
    config = TrainConfig(mode="ordered", epochs=3, seed=0, dim=8, hidden=8, maxlen=16,
                         batch_size=4, learning_rate=1e308)
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match="^epoch 1: the loss or a parameter is not finite"):
        fit(tb, tb, config)


@pytest.mark.parametrize("mode", ["baseline", "ablation"])
def test_span_only_step_leaves_rule_scores_untouched(mode):
    tb, _, state = make_state(MINI_CORPUS, mode=mode, seed=3)
    loss, grads, rule_grad = gradients(state, tb.sentences[0])
    assert loss > 0.0 and grads is not None and rule_grad is None
    params_before = {k: v.copy() for k, v in state.model.params.items()}
    rules_before = state.rules.scores.tobytes()
    step(tb.sentences, state)
    assert state.rules.scores.tobytes() == rules_before
    assert any(not np.array_equal(v, params_before[k]) for k, v in state.model.params.items())


@pytest.mark.parametrize("mode", list(MODES))
def test_fit_blowup_stops_quietly_with_one_error(mode, caplog):
    # non-finite charts stop the run instead of skipping every sentence, and
    # numpy's overflow warnings stay silent
    import logging
    import warnings

    tb = bank(MINI_CORPUS)
    config = TrainConfig(mode=mode, epochs=3, seed=0, dim=8, hidden=8, maxlen=16,
                         batch_size=2, learning_rate=1e300)
    with caplog.at_level(logging.WARNING, logger="ordercky.trainer"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^epoch 1: the loss or a parameter is not finite"):
            fit(tb, tb, config)
    assert not caplog.records


# ---------------------------------------------------------------------------
# the sentence-at-a-time step, frozen as the oracle of the sub-batched one


def oracle_sentence_gradients(sent, model, grammar, rules, mode, compiled):
    """One sentence's hinge subgradient with its own forward and a decode of
    its augmented chart alone."""
    spec = MODES[mode]
    if spec.rules:
        for parent, left, right, _ in sent.btree.compositions():
            rule = Rule(parent, left, right)
            if rule not in grammar:
                raise GoldRuleMissing(f"gold composition {rule} not in the extracted grammar")
    chart, cache = model.forward(sent.btree.sentence, orders=spec.heads)
    augmented = spec.decode([augmented_chart(chart, sent.btree)], compiled)[0]
    if isinstance(augmented, NoDerivation):
        raise augmented
    if len(spec.heads) > 1:
        gold_score = ordered_tree_score(sent.btree, chart, rules if spec.rules else None)
    else:  # the order-free sum: every node's LEFT slot
        index = {lab: i for i, lab in enumerate(chart.labels)}
        gold_score = float(sum(chart.scores[i, j, index[label], LEFT]
                               for label, i, j, _ in sent.btree.nodes()))
    loss = max(augmented.score - gold_score, 0.0)
    if loss <= 0.0:
        return loss, None, None
    label_index = {lab: i for i, lab in enumerate(chart.labels)}
    out_grad = np.zeros_like(chart.scores)
    rule_grad = np.zeros_like(rules.scores) if spec.rules else None
    for tree, sign in ((augmented.tree, 1.0), (sent.btree, -1.0)):
        for label, i, j, order in tree.nodes():
            slot = order if order in spec.heads else LEFT
            out_grad[i, j, label_index[label], slot] += sign
        for parent, left, right, order in tree.compositions() if spec.rules else ():
            rule_grad[grammar.rule_index[Rule(parent, left, right)], order] += sign
    return loss, model.backward(cache, out_grad), rule_grad


def oracle_step(batch, state, outcomes):
    """``step`` one sentence at a time; appends each sentence's outcome
    ("active", "zero" or the skip's exception name) to ``outcomes``."""
    comp = CompiledRules(state.model.labels, state.grammar, state.rules)
    grad_sum = rule_sum = None
    total_loss = 0.0
    skipped = 0
    for sent in batch:
        try:
            loss, grads, rule_grad = oracle_sentence_gradients(
                sent, state.model, state.grammar, state.rules, state.mode, comp
            )
        except NonFiniteChart:
            return math.nan, 0
        except (GoldRuleMissing, NoDerivation) as err:
            outcomes.append(type(err).__name__)
            skipped += 1
            continue
        outcomes.append("zero" if grads is None else "active")
        total_loss += loss
        if grads is None:
            continue
        if grad_sum is None:
            grad_sum = grads
        else:
            for name in grad_sum:
                grad_sum[name] += grads[name]
        if rule_grad is not None:
            rule_sum = rule_grad if rule_sum is None else rule_sum + rule_grad
    scale = state.learning_rate / len(batch)
    if grad_sum is not None:
        for name, grad in grad_sum.items():
            state.model.params[name] -= scale * grad
    if rule_sum is not None:
        state.rules.scores -= scale * rule_sum
    scored = len(batch) - skipped
    return (total_loss / scored if scored else float("nan")), skipped


# sentences whose charts ``doctor_charts`` alters, keyed by their first word
SENTINELS = """\
(S (NP (DT nowhere) (NN cat)) (VP (VB runs)))
(S (NP (DT surely) (NN dog)) (VP (VB sees) (NP (DT a) (NN cat))))
(S (NP (DT broken) (NN fox)) (VP (VB runs)))
"""

# in the ordered grammar of MINI_CORPUS there is no rule S -> VP NP
GOLD_RULE_MISSING = "(S (VP (VB runs)) (NP (DT a) (NN dog)))"


def doctor_charts(monkeypatch, sentences):
    """Make the forward alter the chart of a sentinel sentence: "nowhere" has
    no root score (no derivation in any mode), "surely" scores its gold nodes
    100 higher (zero loss in any mode), "broken" has an infinite root (a
    chart that is not finite)."""
    real = ScorerModel.forward
    golds = {s.btree.sentence: s.btree for s in sentences}

    def forward(self, sentence, orders=(0, 1)):
        chart, cache = real(self, sentence, orders)
        n, first = len(sentence), sentence[0][0]
        if first == "nowhere":
            chart.scores[0, n] = -np.inf
        elif first == "broken":
            chart.scores[0, n] = np.inf
        elif first == "surely":
            index = {lab: i for i, lab in enumerate(chart.labels)}
            for label, i, j, _ in golds[tuple(sentence)].nodes():
                chart.scores[i, j, index[label]] += 100.0
        return chart, cache

    monkeypatch.setattr(ScorerModel, "forward", forward)


def decode_sizes(monkeypatch, mode):
    """The number of charts in each call of the mode's decoder."""
    sizes = []

    class Counted(trainer.Mode):
        def decode(self, charts, compiled, forbid_root=None):
            sizes.append(len(charts))
            return super().decode(charts, compiled, forbid_root=forbid_root)

    monkeypatch.setitem(MODES, mode, Counted(**dataclasses.asdict(MODES[mode])))
    return sizes


def cache_floats(state, sent):
    n = len(sent.btree.sentence)
    return n * (n + 1) // 2 * state.model.hidden * 2 * len(MODES[state.mode].heads)


def snapshot(state):
    return {**{k: v.tobytes() for k, v in state.model.params.items()}, "rules": state.rules.scores.tobytes()}


@pytest.mark.parametrize("budget", ["default", "largest sentence", "one float"])
@pytest.mark.parametrize("mode", list(MODES))
def test_sub_batched_step_is_the_per_sentence_step_bit_for_bit(monkeypatch, mode, budget):
    # batches mixing scored, zero-loss, underivable and (in the ordered mode)
    # gold-rule-missing sentences; under a low budget a batch spans several
    # sub-batches, and under one float every sentence decodes alone
    tb = bank(MINI_CORPUS)
    extra = bank(SENTINELS).sentences[:2] + bank(GOLD_RULE_MISSING).sentences
    sentences = tb.sentences + extra
    doctor_charts(monkeypatch, sentences)
    config = TrainConfig(mode=mode, seed=3, dim=8, hidden=8, maxlen=16, learning_rate=0.05)
    oracle, batched = init_state(tb, config), init_state(tb, config)
    if budget != "default":
        low = max(cache_floats(batched, s) for s in sentences) if budget == "largest sentence" else 1
        monkeypatch.setattr(trainer, "_CACHE_FLOATS", low)
    sizes = decode_sizes(monkeypatch, mode)
    rng = np.random.default_rng(0)
    outcomes, calls = [], []
    for _ in range(4):
        order = rng.permutation(len(sentences))
        for lo in range(0, len(order), 6):
            batch = [sentences[i] for i in order[lo : lo + 6]]
            want = oracle_step(batch, oracle, outcomes)
            del sizes[:]
            got = step(batch, batched)
            calls.append(list(sizes))
            assert got == want
            assert snapshot(batched) == snapshot(oracle)
    assert {"active", "zero", "NoDerivation"} <= set(outcomes)
    assert ("GoldRuleMissing" in outcomes) == MODES[mode].rules
    if budget == "default":
        assert all(c == [6] for c in calls)
    elif budget == "one float":
        assert all(c == [1] * 6 for c in calls)
    else:
        assert any(len(c) > 1 for c in calls) and any(max(c) > 1 for c in calls)


@pytest.mark.parametrize("mode", list(MODES))
def test_non_finite_chart_in_a_later_sub_batch_leaves_the_state_untouched(monkeypatch, mode):
    tb, _, state = make_state(MINI_CORPUS, mode=mode, seed=1)
    broken = bank(SENTINELS).sentences[2]
    doctor_charts(monkeypatch, [broken])
    batch = tb.sentences[:3] + [broken] + tb.sentences[3:5]
    monkeypatch.setattr(trainer, "_CACHE_FLOATS", sum(cache_floats(state, s) for s in batch[:3]))
    sizes = decode_sizes(monkeypatch, mode)
    backward = ScorerModel.backward
    backward_calls = []
    monkeypatch.setattr(ScorerModel, "backward",
                        lambda self, cache, out_grad: backward_calls.append(1) or backward(self, cache, out_grad))
    before = snapshot(state)
    loss, skipped = step(batch, state)
    assert math.isnan(loss) and skipped == 0
    assert sizes == [3, 3]  # the broken chart decodes in the second sub-batch
    assert backward_calls  # after the first sub-batch's gradients were computed
    assert snapshot(state) == before
