import numpy as np
import pytest

from ordercky import trainer
from ordercky.decoder import (
    CompiledRules,
    NoDerivation,
    decode_loss_augmented,
    hamming_costs,
    ordered_tree_score,
)
from ordercky.grammar import Rule, RuleScoreChart, extract_grammar
from ordercky.scorer import ScorerModel, SpanScoreChart
from ordercky.trainer import (
    MODES,
    GoldRuleMissing,
    TrainConfig,
    check_gold_rules,
    evaluate_dev,
    fit,
    init_state,
    load_checkpoint,
    save_checkpoint,
    sentence_gradients,
    step,
)
from ordercky.trees import Treebank, read_trees

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


def hinge_loss(state, sent):
    """The sentence's hinge loss from ``sentence_gradients``."""
    compiled = CompiledRules(state.model.labels, state.grammar, state.rules)
    return sentence_gradients(sent, state.model, state.grammar, state.rules, state.mode, compiled)[0]


def augmented_and_gold(state, sent):
    """The Hamming-augmented decode and the gold score, through the mode table."""
    spec = MODES[state.mode]
    chart, _ = state.model.forward(tuple(zip(sent.words, sent.pos)), orders=spec.heads)
    costs = hamming_costs(chart.n, chart.labels, sent.btree)
    aug = SpanScoreChart(chart.sentence, chart.labels, chart.scores + costs[:, :, :, None])
    compiled = CompiledRules(state.model.labels, state.grammar, state.rules)
    return spec.decode([aug], compiled)[0], spec.gold_score(sent.btree, chart, state.rules)


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
        chart, _ = state.model.forward(tuple(zip(sent.words, sent.pos)))
        loss = hinge_loss(state, sent)
        from ordercky.decoder import brute_force_best

        want = brute_force_best(
            chart, "loss-augmented",
            grammar=state.grammar, rules=state.rules, gold=sent.btree,
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
        with pytest.raises(GoldRuleMissing):
            check_gold_rules(sent.btree, state.grammar)


class TestStep:
    def test_zero_loss_batch_leaves_parameters_unchanged(self):
        tb, config, state = make_state(UNIQUE_DERIVATION)
        before = {k: v.copy() for k, v in state.model.params.items()}
        rules_before = state.rules.scores.copy()
        assert step(tb.sentences, state, config) == (0.0, 0)
        for name, value in state.model.params.items():
            assert np.array_equal(value, before[name])
        assert np.array_equal(state.rules.scores, rules_before)

    def test_gold_score_rises_after_step(self):
        tb, config, state = make_state(MINI_CORPUS, seed=11)
        sent = tb.sentences[0]
        pair = tuple(zip(sent.words, sent.pos))
        augmented, gold_before = augmented_and_gold(state, sent)
        assert hinge_loss(state, sent) > 0.0 and augmented.tree != sent.btree
        step([sent], state, config)
        chart, _ = state.model.forward(pair)
        gold_after = ordered_tree_score(sent.btree, chart, state.rules)
        assert gold_after > gold_before

    def test_duplicated_sentence_doubles_gradient(self):
        tb, config, state = make_state(MINI_CORPUS, seed=2)
        sent = tb.sentences[0]
        compiled = CompiledRules(state.model.labels, state.grammar, state.rules)
        loss, grads, rule_grads = sentence_gradients(
            sent, state.model, state.grammar, state.rules, "ordered", compiled
        )
        assert loss > 0.0
        loss2, grads2, rule_grads2 = sentence_gradients(
            sent, state.model, state.grammar, state.rules, "ordered", compiled
        )
        for name in grads:
            assert np.array_equal(grads[name] + grads2[name], 2 * grads[name])
        assert np.array_equal(rule_grads, rule_grads2)

    def test_mean_aggregation_is_batch_size_invariant(self):
        tb, config, _ = make_state(MINI_CORPUS, seed=4)
        sent = tb.sentences[1]
        _, _, single = make_state(MINI_CORPUS, seed=4)
        step([sent], single, config)
        _, _, double = make_state(MINI_CORPUS, seed=4)
        step([sent, sent], double, config)
        for name in single.model.params:
            assert np.allclose(
                single.model.params[name], double.model.params[name], atol=1e-15
            )

    def test_descent_sanity_small_lr(self):
        tb, _, state = make_state(MINI_CORPUS, seed=6)
        config = TrainConfig(mode="ordered", seed=6, dim=8, hidden=8,
                             maxlen=16, learning_rate=1e-4)
        state.learning_rate = 1e-4
        sent = tb.sentences[2]
        before = hinge_loss(state, sent)
        assert before > 0.0
        step([sent], state, config)
        after = hinge_loss(state, sent)
        assert after <= before + 1e-9

    def test_empty_batch_rejected(self):
        tb, config, state = make_state(MINI_CORPUS)
        with pytest.raises(ValueError):
            step([], state, config)


class TestFit:
    def test_zero_epochs_returns_initial_state(self):
        tb, _, _ = make_state(MINI_CORPUS)
        config = TrainConfig(mode="ordered", epochs=0, seed=0, dim=8, hidden=8, maxlen=16)
        state = fit(tb, tb, config)
        fresh = init_state(tb, config)
        report = evaluate_dev(fresh, tb)
        assert state.epoch == 0
        assert state.best_f1 == pytest.approx(report.f1)
        assert state.loss_history == []

    def test_seeded_determinism(self):
        tb, _, _ = make_state(MINI_CORPUS)
        config = TrainConfig(mode="ordered", epochs=4, seed=7, dim=8, hidden=8, maxlen=16)
        a = fit(tb, tb, config)
        b = fit(tb, tb, config)
        assert a.loss_history == b.loss_history
        assert [r.f1 for r in a.dev_history] == [r.f1 for r in b.dev_history]

    def test_memorizes_small_corpus(self):
        tb, _, _ = make_state(MINI_CORPUS)
        config = TrainConfig(mode="ordered", epochs=60, seed=0, dim=16, hidden=32,
                             maxlen=16, batch_size=4, learning_rate=0.02)
        state = fit(tb, tb, config)
        assert state.best_f1 == pytest.approx(100.0)

    def test_best_f1_non_decreasing_and_checkpointed(self, tmp_path):
        tb, _, _ = make_state(MINI_CORPUS)
        path = str(tmp_path / "ck.npz")
        config = TrainConfig(mode="ordered", epochs=8, seed=1, dim=8, hidden=8, maxlen=16)
        state = fit(tb, tb, config, checkpoint_path=path)
        best_so_far = -1.0
        for report in state.dev_history:
            best_so_far = max(best_so_far, report.f1)
        assert state.best_f1 == pytest.approx(best_so_far)
        model, grammar, rules, mode = load_checkpoint(path)
        restored = evaluate_dev(
            init_state(tb, config), tb
        )  # smoke: checkpoint loads and evaluates
        assert mode == "ordered"
        assert grammar.rules == state.grammar.rules

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
        state = fit(tb, tb, config)
        assert state.decays_used >= 1
        assert state.learning_rate < config.learning_rate

    def test_stops_when_loss_reaches_zero(self):
        tb, _, _ = make_state(UNIQUE_DERIVATION)
        config = TrainConfig(mode="ordered", epochs=50, seed=0, dim=8, hidden=8, maxlen=16)
        state = fit(tb, tb, config)
        assert state.epoch == 1  # loss is exactly zero from the first epoch
        assert state.decays_used == 0


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        tb, config, state = make_state(MINI_CORPUS, seed=9)
        path = str(tmp_path / "model.npz")
        save_checkpoint(path, state)
        model, grammar, rules, mode = load_checkpoint(path)
        assert mode == "ordered"
        assert grammar.rules == state.grammar.rules
        assert np.array_equal(rules.scores, state.rules.scores)
        assert rules.floor == state.rules.floor
        for name, value in state.model.params.items():
            assert np.array_equal(model.params[name], value)


def hinge_objective(state, sent, compiled):
    pair = tuple(zip(sent.words, sent.pos))
    chart, _ = state.model.forward(pair)
    augmented = decode_loss_augmented(chart, state.grammar, state.rules, sent.btree,
                                      compiled=compiled)
    gold = ordered_tree_score(sent.btree, chart, state.rules)
    return max(augmented.score - gold, 0.0), augmented.tree


def test_hinge_subgradient_matches_finite_differences():
    tb, _, state = make_state(MINI_CORPUS, seed=13)
    sent = tb.sentences[0]
    compiled = CompiledRules(state.model.labels, state.grammar, state.rules)
    loss, grads, rule_grads = sentence_gradients(
        sent, state.model, state.grammar, state.rules, "ordered", compiled
    )
    assert loss > 0.0
    step_size = 1e-5
    checked = skipped = 0
    _, center_tree = hinge_objective(state, sent, compiled)

    def fd_for(array, analytic):
        nonlocal checked, skipped
        flat = array.reshape(-1)
        an_flat = analytic.reshape(-1)
        rng = np.random.default_rng(0)
        idx = rng.choice(flat.size, size=min(60, flat.size), replace=False)
        for k in idx:
            orig = flat[k]
            flat[k] = orig + step_size
            comp = CompiledRules(state.model.labels, state.grammar, state.rules)
            up, up_tree = hinge_objective(state, sent, comp)
            flat[k] = orig - step_size
            comp = CompiledRules(state.model.labels, state.grammar, state.rules)
            down, down_tree = hinge_objective(state, sent, comp)
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

    tb, config, state = make_state(MINI_CORPUS, seed=1)
    alien = bank("(S (QP (CD one) (CD two)) (VP (VB runs)))").sentences[0]
    batch = [tb.sentences[0], alien, tb.sentences[1]]
    with caplog.at_level(logging.WARNING, logger="ordercky.trainer"):
        loss, skipped = step(batch, state, config)
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
    # a run forced to compute both heads writes the same checkpoint bytes
    tb = bank(MINI_CORPUS)
    config = TrainConfig(mode=mode, epochs=3, seed=4, dim=8, hidden=8, maxlen=16)
    real = ScorerModel.forward
    seen = set()

    def recording(self, sentence, orders=(0, 1)):
        seen.add(tuple(orders))
        return real(self, sentence, orders)

    monkeypatch.setattr(ScorerModel, "forward", recording)
    fit(tb, tb, config, checkpoint_path=str(tmp_path / "heads.npz"))
    assert seen == {MODES[mode].heads}
    assert MODES["baseline"].heads == (0,)

    monkeypatch.setattr(ScorerModel, "forward", lambda self, sentence, orders=(0, 1): real(self, sentence))
    fit(tb, tb, config, checkpoint_path=str(tmp_path / "both.npz"))
    assert (tmp_path / "heads.npz").read_bytes() == (tmp_path / "both.npz").read_bytes()


def test_fit_stops_when_an_epoch_scores_no_sentence(monkeypatch):
    tb, config, state = make_state(MINI_CORPUS)

    def underivable(*args):
        raise NoDerivation("forced")

    monkeypatch.setattr(trainer, "sentence_gradients", underivable)
    loss, skipped = step(tb.sentences[:3], state, config)
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
