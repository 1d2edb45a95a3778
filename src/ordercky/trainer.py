"""Max-margin training: hinge loss against the Hamming-augmented decode,
subgradient updates through the span scorer and the rule-score chart, and a
patience-based learning-rate decay schedule.

The three decoding modes are one family of span CKY decoders, and ``MODES``
is the one table that says how they differ: which span heads a mode's
forward pass computes ("baseline" reads one order-free head, the left one;
"ablation" and "ordered" read the left and right order heads), whether the
grammar-rule term applies (only in "ordered": rule-restricted decoding, the
gold-rule check and rule gradients), how a batch of charts is decoded, and
how the gold tree is scored.  Training, dev evaluation, checkpoint loading
and the command line all read it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .decoder import (
    CompiledRules,
    DecodeResult,
    NoDerivation,
    baseline_tree_score,
    decode_ablation,
    decode_baseline,
    decode_charts_batched,
    fallback_tree,
    hamming_costs,
    nodes_with_orders,
    ordered_tree_score,
)
from .evaluate import EvalReport, score_trees
from .grammar import LEFT, RIGHT, Grammar, Rule, RuleScoreChart, extract_grammar
from .scorer import ScorerModel, SpanScoreChart, checked_tensor, meta_value
from .trees import DUMMY, BinaryTree, Sentence, Treebank, debinarize

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Mode:
    """One decoding mode: the span heads its forward computes, whether the
    rule term applies, ``decode(charts, compiled, forbid_root)`` over a batch
    of charts, and ``gold_score(gold, chart, rules)``."""

    heads: tuple[int, ...]
    rules: bool
    decode: Callable[..., list[Union[DecodeResult, NoDerivation]]]
    gold_score: Callable[[BinaryTree, SpanScoreChart, RuleScoreChart], float]


# The adapters look the decoders up by module-global name at call time, so a
# patched module attribute (the benchmark's tracer patches them) sees every call.
def _decode_baseline(charts, compiled, forbid_root=None):
    return [decode_baseline(c.collapsed(), c.sentence, c.labels, forbid_root=forbid_root)
            for c in charts]


def _decode_ablation(charts, compiled, forbid_root=None):
    return [decode_ablation(c, forbid_root=forbid_root) for c in charts]


def _decode_ordered(charts, compiled, forbid_root=None):
    return decode_charts_batched(charts, compiled, forbid_root=forbid_root)


def _gold_baseline(gold, chart, rules):
    return baseline_tree_score(gold, chart.collapsed(), chart.labels)


def _gold_ablation(gold, chart, rules):
    return ordered_tree_score(gold, chart)


def _gold_ordered(gold, chart, rules):
    return ordered_tree_score(gold, chart, rules)


MODES: dict[str, Mode] = {
    "baseline": Mode((LEFT,), False, _decode_baseline, _gold_baseline),
    "ablation": Mode((LEFT, RIGHT), False, _decode_ablation, _gold_ablation),
    "ordered": Mode((LEFT, RIGHT), True, _decode_ordered, _gold_ordered),
}


def _unknown_mode(name: str) -> str:
    return f"mode {name!r} is not one of {', '.join(MODES)}"


# distinct sub-streams of the one user seed, so initialization and batch
# shuffling reproduce independently
_INIT_STREAM = 0xC0FFEE
_SHUFFLE_STREAM = 0x5F0FF1E


class GoldRuleMissing(ValueError):
    """A gold composition is missing from the grammar: the gold tree was not
    binarized with the conventions the grammar was extracted under."""


@dataclass
class TrainConfig:
    mode: str = "ordered"
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-2
    decay_factor: float = 0.5
    max_decay: int = 3
    decay_patience: int = 5
    seed: int = 0
    dim: int = 64
    hidden: int = 250
    maxlen: int = 64
    rule_floor: float = -1e6

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(_unknown_mode(self.mode))
        if not (0.0 < self.decay_factor < 1.0):
            raise ValueError("decay factor must lie in (0, 1)")
        for name in ("batch_size", "learning_rate", "max_decay", "decay_patience", "dim", "hidden"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")


@dataclass
class TrainState:
    model: ScorerModel
    rules: RuleScoreChart
    grammar: Grammar
    mode: str
    learning_rate: float
    epoch: int = 0
    best_f1: float = -1.0
    decays_used: int = 0
    loss_history: list[float] = field(default_factory=list)
    dev_history: list[EvalReport] = field(default_factory=list)
    _best_params: Optional[dict] = None
    _best_rule_scores: Optional[np.ndarray] = None

    def snapshot_best(self) -> None:
        self._best_params = {k: v.copy() for k, v in self.model.params.items()}
        self._best_rule_scores = self.rules.scores.copy()

    def restore_best(self) -> None:
        if self._best_params is not None:
            for k in self.model.params:
                self.model.params[k][...] = self._best_params[k]
            self.rules.scores[...] = self._best_rule_scores


def check_gold_rules(gold: BinaryTree, grammar: Grammar) -> None:
    for node in gold.nodes():
        if node.is_leaf:
            continue
        rule = Rule(node.label, node.left.label, node.right.label)
        if rule not in grammar:
            raise GoldRuleMissing(f"gold composition {rule} not in the extracted grammar")


def sentence_gradients(
    sent: Sentence,
    model: ScorerModel,
    grammar: Grammar,
    rules: RuleScoreChart,
    mode: str,
    compiled: CompiledRules,
) -> tuple[float, Optional[dict[str, np.ndarray]], Optional[np.ndarray]]:
    """Subgradient of one sentence's hinge loss, max(best augmented score -
    gold score, 0); (loss, None, None) at loss 0.

    The augmented tree's chart entries (and rule scores, where the mode has
    the rule term) get +1, the gold tree's get -1; ties inherit the decoder's
    deterministic pick.  A mode that reads one head scores every node with it.
    """
    spec = MODES[mode]
    if spec.rules:
        check_gold_rules(sent.btree, grammar)
    chart, cache = model.forward(tuple(zip(sent.words, sent.pos)), orders=spec.heads)
    costs = hamming_costs(chart.n, chart.labels, sent.btree)
    aug = SpanScoreChart(chart.sentence, chart.labels, chart.scores + costs[:, :, :, None])
    augmented = spec.decode([aug], compiled)[0]
    if isinstance(augmented, NoDerivation):
        raise augmented
    loss = max(augmented.score - spec.gold_score(sent.btree, chart, rules), 0.0)
    if loss <= 0.0:
        return loss, None, None

    label_index = {lab: i for i, lab in enumerate(chart.labels)}
    out_grad = np.zeros_like(chart.scores)
    rule_grad = np.zeros_like(rules.scores)
    for tree, sign in ((augmented.tree, 1.0), (sent.btree, -1.0)):
        for node, order in nodes_with_orders(tree):
            slot = order if order in spec.heads else LEFT
            out_grad[node.start, node.end, label_index[node.label], slot] += sign
            if spec.rules and not node.is_leaf:
                rule = Rule(node.label, node.left.label, node.right.label)
                rule_grad[grammar.rule_index[rule], order] += sign
    return loss, model.backward(cache, out_grad), rule_grad


def step(batch: list[Sentence], state: TrainState, config: TrainConfig,
         compiled: Optional[CompiledRules] = None) -> tuple[float, int]:
    """One mini-batch subgradient step; returns the mean loss over the
    sentences it scored (NaN when it scored none) and the number it skipped.
    The update is scaled by the whole batch's size."""
    if not batch:
        raise ValueError("empty batch")
    comp = compiled or CompiledRules(state.model.labels, state.grammar, state.rules)
    grad_sum: Optional[dict[str, np.ndarray]] = None
    rule_sum = np.zeros_like(state.rules.scores)
    total_loss = 0.0
    skipped = 0
    for sent in batch:
        try:
            loss, grads, rule_grad = sentence_gradients(
                sent, state.model, state.grammar, state.rules, state.mode, comp
            )
        except (GoldRuleMissing, NoDerivation) as err:
            logger.warning("skipping sentence %r: %s", " ".join(sent.words[:8]), err)
            skipped += 1
            continue
        total_loss += loss
        if grads is None:
            continue
        if grad_sum is None:
            grad_sum = grads
        else:
            for name in grad_sum:
                grad_sum[name] += grads[name]
        rule_sum += rule_grad

    scale = state.learning_rate / len(batch)
    if grad_sum is not None:
        for name, grad in grad_sum.items():
            state.model.params[name] -= scale * grad
        state.rules.scores -= scale * rule_sum
    scored = len(batch) - skipped
    return (total_loss / scored if scored else float("nan")), skipped


def evaluate_dev(state: TrainState, dev: Treebank,
                 compiled: Optional[CompiledRules] = None) -> EvalReport:
    """Decode the dev set with the state's mode and score phrasal brackets."""
    spec = MODES[state.mode]
    comp = compiled or CompiledRules(state.model.labels, state.grammar, state.rules)
    sentences = [tuple(zip(s.words, s.pos)) for s in dev.sentences]
    charts = [state.model.forward(s, orders=spec.heads)[0] for s in sentences]
    pred_trees = []
    for sentence, res in zip(sentences, spec.decode(charts, comp, forbid_root=DUMMY)):
        if isinstance(res, NoDerivation):
            btree = fallback_tree(sentence, state.model.labels)
        else:
            btree = res.tree
        pred_trees.append(debinarize(btree))
    return score_trees(pred_trees, [s.tree for s in dev.sentences])


def init_state(train: Treebank, config: TrainConfig) -> TrainState:
    init_rng = np.random.default_rng(np.random.SeedSequence([config.seed, _INIT_STREAM]))
    grammar = extract_grammar(train)
    model = ScorerModel.build(
        train.words, train.labels, init_rng,
        dim=config.dim, hidden=config.hidden, maxlen=config.maxlen,
    )
    rules = RuleScoreChart.init_random(grammar, init_rng, floor=config.rule_floor)
    return TrainState(
        model=model, rules=rules, grammar=grammar,
        mode=config.mode, learning_rate=config.learning_rate,
    )


def fit(
    train: Treebank,
    dev: Treebank,
    config: TrainConfig,
    log_fn: Optional[Callable[[str], None]] = None,
    checkpoint_path: Optional[str] = None,
) -> TrainState:
    """Train with per-epoch dev evaluation, patience-based decay, and
    best-checkpoint retention."""
    state = init_state(train, config)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SHUFFLE_STREAM]))
    sentences = list(train.sentences)

    def emit(epoch, loss, report):
        if log_fn is not None:
            log_fn(
                f"{epoch}\t{loss:.6f}\t{report.precision:.2f}\t{report.recall:.2f}"
                f"\t{report.f1:.2f}\t{state.learning_rate:.6g}"
            )

    report = evaluate_dev(state, dev)
    state.dev_history.append(report)
    state.best_f1 = report.f1
    state.snapshot_best()
    if checkpoint_path:
        save_checkpoint(checkpoint_path, state)
    emit(0, float("nan"), report)

    stale = 0
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(sentences))
        losses = []
        for lo in range(0, len(order), config.batch_size):
            batch = [sentences[i] for i in order[lo : lo + config.batch_size]]
            compiled = CompiledRules(state.model.labels, state.grammar, state.rules)
            loss, skipped = step(batch, state, config, compiled=compiled)
            if skipped < len(batch):
                losses.append(loss)
        if not losses:
            raise ValueError(f"epoch {epoch}: scored none of the {len(sentences)} training sentences")
        mean_loss = sum(losses) / len(losses)
        params = [*state.model.params.values(), state.rules.scores]
        if not (math.isfinite(mean_loss) and all(np.isfinite(p).all() for p in params)):
            raise ValueError(f"epoch {epoch}: the loss or a parameter is not finite; "
                             "try a lower learning rate")
        state.epoch = epoch
        state.loss_history.append(mean_loss)
        report = evaluate_dev(state, dev)
        state.dev_history.append(report)
        emit(epoch, mean_loss, report)

        if report.f1 > state.best_f1:
            state.best_f1 = report.f1
            state.snapshot_best()
            if checkpoint_path:
                save_checkpoint(checkpoint_path, state)
            stale = 0
        elif report.f1 >= 100.0:
            stale = 0  # nothing left to improve; decaying would be noise
        else:
            stale += 1

        if mean_loss == 0.0:
            # every scored margin satisfied: subgradients are zero and nothing can change
            break
        if stale >= config.decay_patience:
            if state.decays_used >= config.max_decay:
                break
            state.learning_rate *= config.decay_factor
            state.decays_used += 1
            stale = 0

    state.restore_best()
    if checkpoint_path:
        save_checkpoint(checkpoint_path, state)
    return state


def save_checkpoint(path: str, state: TrainState) -> None:
    state.model.save(
        path,
        extra_meta={
            "mode": state.mode,
            "rules": [list(r) for r in state.grammar.rules],
            "rule_floor": state.rules.floor,
            "best_f1": state.best_f1,
        },
        extra_tensors={"rule_scores": state.rules.scores},
    )


def load_checkpoint(path: str) -> tuple[ScorerModel, Grammar, RuleScoreChart, str]:
    """Model, grammar, rule scores and mode; a missing, malformed or non-finite
    entry raises a ValueError naming the file and the entry."""
    model, meta, extra = ScorerModel.load(path)
    mode = meta_value(path, meta, "mode", str)
    if mode not in MODES:
        raise ValueError(f"{path}: checkpoint {_unknown_mode(mode)}")
    grammar = Grammar(meta_value(path, meta, "rules", lambda rules: [Rule(*r) for r in rules]))
    scores = checked_tensor(path, extra, "rule_scores", (len(grammar), 2))
    rules = RuleScoreChart(grammar, scores, floor=meta_value(path, meta, "rule_floor", float))
    return model, grammar, rules, mode
