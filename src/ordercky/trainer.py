"""Max-margin training: hinge loss against the Hamming-augmented decode,
subgradient updates through the span scorer and the rule-score chart, and a
patience-based learning-rate decay schedule.

The three decoding modes are one span CKY objective, and ``MODES`` is the
one table that says how they differ: which span heads a mode's forward pass
computes ("baseline" computes the left head alone, which fills both order
slots of its chart; "ablation" and "ordered" compute both order heads) and
whether the grammar-rule term applies (only in "ordered": rule-restricted
decoding, the gold-rule check and rule gradients).  Training, dev
evaluation, checkpoint loading and the command line all read it.
"""

from __future__ import annotations

import json
import logging
import math
import operator
import zipfile
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .decoder import (
    CompiledRules,
    DecodeResult,
    NoDerivation,
    NonFiniteChart,
    augmented_chart,
    decode_ablation,
    decode_charts_batched,
    decode_each,
    fallback_tree,
    ordered_tree_score,
)
from .evaluate import EvalReport, score_trees
from .grammar import GoldRuleMissing, Grammar, Rule, RuleScoreChart, extract_grammar
from .scorer import BOUNDARY, UNK, ForwardCache, ScorerModel, SpanScoreChart, param_shapes
from .trees import DUMMY, LEFT, RIGHT, Sentence, Treebank, debinarize

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Mode:
    """One decoding mode: the span heads its forward computes and whether
    the rule term applies."""

    heads: tuple[int, ...]
    rules: bool

    def decode(self, charts: list[SpanScoreChart], compiled: CompiledRules,
               forbid_root: Optional[str] = None) -> list[Union[DecodeResult, NoDerivation]]:
        """Each chart's best tree, or the NoDerivation in its place.  The
        decoders are module globals looked up at call time, so a patched
        attribute (the benchmark's tracer patches them) sees every call."""
        if self.rules:
            return decode_charts_batched(charts, compiled, forbid_root=forbid_root)
        return decode_each(lambda c: decode_ablation(c, forbid_root=forbid_root), charts)


MODES: dict[str, Mode] = {
    "baseline": Mode((LEFT,), False),
    "ablation": Mode((LEFT, RIGHT), False),
    "ordered": Mode((LEFT, RIGHT), True),
}


def _unknown_mode(name: str) -> str:
    return f"mode {name!r} is not one of {', '.join(MODES)}"


# distinct sub-streams of the one user seed, so initialization and batch
# shuffling reproduce independently
_INIT_STREAM = 0xC0FFEE
_SHUFFLE_STREAM = 0x5F0FF1E


@dataclass
class TrainConfig:
    """Every training setting, with its default; the ``train`` command derives
    its flags and config keys from these fields."""

    mode: str = "ordered"
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-2
    decay_factor: float = 0.5
    max_decay: int = 3
    decay_patience: int = 5
    seed: int = 0
    dim: int = 64
    hidden: int = 250
    maxlen: int = 64

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(_unknown_mode(self.mode))
        if not (0.0 < self.decay_factor < 1.0):
            raise ValueError("decay_factor must lie in (0, 1)")
        for name in ("batch_size", "learning_rate", "max_decay", "decay_patience", "dim", "hidden"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not math.isfinite(self.learning_rate):  # NaN passes the test above
            raise ValueError("learning_rate must be finite")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.maxlen < 2:  # a sentence has at least one token and fewer than maxlen
            raise ValueError("maxlen must be at least 2")


@dataclass
class TrainState:
    """The model under training: its parameters, rule scores, grammar and
    mode, the current learning rate, and the grammar compiled once, which
    reads the rule chart's scores in place, so every update in place shows
    in the next decode.  ``epoch`` is the last epoch trained and ``best_f1``
    the best dev F1 so far."""

    model: ScorerModel
    rules: RuleScoreChart
    grammar: Grammar
    mode: str
    learning_rate: float
    compiled: CompiledRules
    epoch: int = 0
    best_f1: float = -1.0


def sentence_gradients(
    sent: Sentence,
    chart: SpanScoreChart,
    cache: ForwardCache,
    augmented: Union[DecodeResult, NoDerivation],
    state: TrainState,
) -> tuple[float, Optional[dict[str, np.ndarray]], Optional[np.ndarray]]:
    """Subgradient of one sentence's hinge loss under ``state``, max(best
    augmented score - gold score, 0), from its forward ``chart`` and
    ``cache`` and the decode of its Hamming-augmented chart; (loss, None,
    None) at loss 0.  Raises the gold score's GoldRuleMissing, or else the
    decode's NoDerivation.

    The augmented tree's chart entries (and rule scores, where the mode has
    the rule term) get +1, the gold tree's get -1; ties inherit the decoder's
    deterministic pick.  Each entry is written at its node's order, which a
    one-head mode's backward folds into its head.  A mode without the rule
    term returns None for the rule gradient.
    """
    spec, rules = MODES[state.mode], state.rules
    gold_score = ordered_tree_score(sent.btree, chart, rules if spec.rules else None)
    if isinstance(augmented, NoDerivation):
        raise augmented
    loss = max(augmented.score - gold_score, 0.0)
    if loss <= 0.0:
        return loss, None, None

    label_index = {lab: i for i, lab in enumerate(chart.labels)}
    out_grad = np.zeros_like(chart.scores)
    rule_grad = np.zeros_like(rules.scores) if spec.rules else None
    for tree, sign in ((augmented.tree, 1.0), (sent.btree, -1.0)):
        for lab, i, j, order in tree.nodes():
            out_grad[i, j, label_index[lab], order] += sign
        for parent, left, right, order in tree.compositions() if spec.rules else ():
            rule_grad[state.grammar.rule_index[Rule(parent, left, right)], order] += sign
    return loss, state.model.backward(cache, out_grad), rule_grad


# floats of forward caches one training sub-batch may hold, counted as
# spans x hidden x 2 arrays x heads: 2 MB, about twenty skew-corpus sentences
# at the default size; a sentence over the budget decodes alone.  The held
# caches raise training's peak RSS by about their size
_CACHE_FLOATS = 1 << 18

CHUNK = 32  # sentences per decode batch outside training; fixed so --threads never changes results


def _sub_batches(batch: list[Sentence], floats_per_span: int) -> Iterator[list[Sentence]]:
    """Consecutive runs of ``batch`` whose forward caches fit the budget."""
    sub: list[Sentence] = []
    held = 0
    for sent in batch:
        n = len(sent.btree.sentence)
        need = n * (n + 1) // 2 * floats_per_span
        if sub and held + need > _CACHE_FLOATS:
            yield sub
            sub, held = [], 0
        sub.append(sent)
        held += need
    yield sub


def step(batch: list[Sentence], state: TrainState) -> tuple[float, int]:
    """One mini-batch subgradient step; returns the mean loss over the
    sentences it scored (NaN when it scored none) and the number it skipped,
    or (NaN, 0) without an update when a chart is not finite.  The update is
    scaled by the whole batch's size; the rule scores change only in a mode
    with the rule term.

    The batch runs in sub-batches: the forwards of a sub-batch, one decode
    of all their augmented charts, then each sentence's gradient in batch
    order.  The hinge loss decomposes per sentence and the decoders are
    exact per chart, so the update is the one a sentence-at-a-time loop
    computes, bit for bit."""
    if not batch:
        raise ValueError("empty batch")
    spec = MODES[state.mode]
    model = state.model
    grad_sum: Optional[dict[str, np.ndarray]] = None
    rule_sum: Optional[np.ndarray] = None
    total_loss = 0.0
    skipped = 0
    for sub in _sub_batches(batch, model.hidden * 2 * len(spec.heads)):
        forwards = [model.forward(s.btree.sentence, orders=spec.heads) for s in sub]
        decoded = spec.decode([augmented_chart(chart, s.btree) for s, (chart, _) in zip(sub, forwards)],
                              state.compiled)
        for sent, (chart, cache), augmented in zip(sub, forwards, decoded):
            try:
                loss, grads, rule_grad = sentence_gradients(sent, chart, cache, augmented, state)
            except NonFiniteChart:
                return math.nan, 0  # the model, not the sentence, is at fault: no update
            except (GoldRuleMissing, NoDerivation) as err:
                words = " ".join(w for w, _ in sent.btree.sentence[:8])
                logger.warning("skipping sentence %r: %s", words, err)
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
            if rule_grad is not None:
                rule_sum = rule_grad if rule_sum is None else rule_sum + rule_grad
        del forwards, decoded  # the caches go before the next sub-batch's forwards

    scale = state.learning_rate / len(batch)
    if grad_sum is not None:
        for name, grad in grad_sum.items():
            state.model.params[name] -= scale * grad
    if rule_sum is not None:
        state.rules.scores -= scale * rule_sum
    scored = len(batch) - skipped
    return (total_loss / scored if scored else float("nan")), skipped


def evaluate_dev(state: TrainState, dev: Treebank) -> EvalReport:
    """Decode the dev set with the state's mode, CHUNK sentences at a time,
    and score phrasal brackets."""
    spec = MODES[state.mode]
    pred_trees = []
    for lo in range(0, len(dev.sentences), CHUNK):
        sentences = [s.btree.sentence for s in dev.sentences[lo : lo + CHUNK]]
        # the chunk's charts go once decoded, before the next chunk's forwards
        decoded = spec.decode(state.model.charts(sentences, orders=spec.heads), state.compiled,
                              forbid_root=DUMMY)
        for sentence, res in zip(sentences, decoded):
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
    rules = RuleScoreChart.init_random(grammar, init_rng)
    return TrainState(
        model=model, rules=rules, grammar=grammar, mode=config.mode,
        learning_rate=config.learning_rate, compiled=CompiledRules(model.labels, grammar, rules),
    )


# a learning rate too high overflows the parameters; numpy stays quiet about
# it because the finiteness check at the end of each epoch stops the run with
# one error instead
@np.errstate(over="ignore", invalid="ignore")
def fit(
    train: Treebank,
    dev: Treebank,
    config: TrainConfig,
    log_fn: Optional[Callable[[str], None]] = None,
    checkpoint_path: Optional[str] = None,
) -> TrainState:
    """Train with per-epoch dev evaluation, patience-based decay, and
    best-checkpoint retention; return the state of the best dev epoch, which
    ``checkpoint_path`` holds.  Each epoch logs one line through ``log_fn``:
    epoch, mean loss, dev P, R and F1, and the learning rate.  A ValueError
    raised once a checkpoint is written names the epoch whose checkpoint
    ``checkpoint_path`` holds."""
    state = init_state(train, config)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SHUFFLE_STREAM]))
    sentences = list(train.sentences)
    trained = dict(state.model.params, rule_scores=state.rules.scores)  # updated in place

    def emit(epoch, loss, report):
        if log_fn is not None:
            log_fn(
                f"{epoch}\t{loss:.6f}\t{report.precision:.2f}\t{report.recall:.2f}"
                f"\t{report.f1:.2f}\t{state.learning_rate:.6g}"
            )

    report = evaluate_dev(state, dev)
    state.best_f1 = report.f1
    best = {k: v.copy() for k, v in trained.items()}  # the trained arrays at the best epoch
    best_epoch = decays = 0
    if checkpoint_path:
        save_checkpoint(checkpoint_path, state)
    emit(0, float("nan"), report)
    try:
        stale = 0
        for epoch in range(1, config.epochs + 1):
            order = shuffle_rng.permutation(len(sentences))
            losses = []
            for lo in range(0, len(order), config.batch_size):
                batch = [sentences[i] for i in order[lo : lo + config.batch_size]]
                loss, skipped = step(batch, state)
                if skipped < len(batch):
                    losses.append(loss)
            if not losses:
                raise ValueError(f"epoch {epoch}: scored none of the {len(sentences)} training sentences")
            mean_loss = sum(losses) / len(losses)
            if not (math.isfinite(mean_loss) and all(np.isfinite(p).all() for p in trained.values())):
                raise ValueError(f"epoch {epoch}: the loss or a parameter is not finite; "
                                 "try a lower learning rate")
            state.epoch = epoch
            report = evaluate_dev(state, dev)
            emit(epoch, mean_loss, report)

            if report.f1 > state.best_f1:
                state.best_f1, best_epoch = report.f1, epoch
                best = {k: v.copy() for k, v in trained.items()}
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
                if decays >= config.max_decay:
                    break
                state.learning_rate *= config.decay_factor
                decays += 1
                stale = 0
    except ValueError as err:
        if not checkpoint_path:
            raise
        raise ValueError(f"{err}; {checkpoint_path} holds the checkpoint of epoch "
                         f"{best_epoch}") from None

    for name, value in trained.items():  # checkpoint_path already holds this state
        value[...] = best[name]
    return state


FORMAT_VERSION = 1


def save_checkpoint(path: str, state: TrainState) -> None:
    """The one checkpoint writer: the parameters in ``param_shapes`` order,
    then ``rule_scores``, and the metadata keys in the order below."""
    model = state.model
    meta = {
        "format_version": FORMAT_VERSION, "words": list(model.words), "labels": list(model.labels),
        "dim": model.dim, "hidden": model.hidden, "maxlen": model.maxlen,
        "mode": state.mode, "rules": [list(r) for r in state.grammar.rules], "best_f1": state.best_f1,
    }
    save_tensors(path, dict(model.params, rule_scores=state.rules.scores), meta)


def load_checkpoint(path: str) -> tuple[ScorerModel, Grammar, RuleScoreChart, str]:
    """The one checkpoint reader: model, grammar, rule scores and mode.  A bad
    file or entry raises a ValueError naming them.  The labels and rules must
    be sorted and distinct, as saved, and the rules name only labels."""
    tensors, meta = load_tensors(path)
    words = meta_value(path, meta, "words", strings)
    for symbol in (UNK, BOUNDARY):
        if symbol not in words:
            raise ValueError(f"{path}: checkpoint metadata 'words' lacks {symbol!r}")
    labels = meta_value(path, meta, "labels", strings)
    # operator.index, not int, which would truncate 8.9 to 8
    dim, hidden, maxlen = (meta_value(path, meta, key, operator.index)
                           for key in ("dim", "hidden", "maxlen"))
    if dim % 2:
        raise ValueError(f"{path}: checkpoint metadata 'dim' is odd")
    mode = meta_value(path, meta, "mode", str)
    if mode not in MODES:
        raise ValueError(f"{path}: checkpoint {_unknown_mode(mode)}")
    listed = meta_value(path, meta, "rules", lambda rules: [Rule(*strings(r)) for r in rules])
    for key, entries in (("labels", list(labels)), ("rules", listed)):
        if entries != sorted(set(entries)):
            raise ValueError(f"{path}: checkpoint metadata {key!r} is not sorted and distinct")
    unknown = {lab for rule in listed for lab in rule} - set(labels)
    if unknown:
        raise ValueError(f"{path}: checkpoint metadata 'rules' names unknown labels {sorted(unknown)}")
    shapes = param_shapes(len(words), len(labels), dim, hidden, maxlen)
    params = {name: checked_tensor(path, tensors, name, shape) for name, shape in shapes.items()}
    grammar = Grammar(listed)
    rules = RuleScoreChart(grammar, checked_tensor(path, tensors, "rule_scores", (len(grammar), 2)))
    return ScorerModel(words, labels, dim, hidden, maxlen, params), grammar, rules, mode


def save_tensors(path: str, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """The container: ``tensors`` as row-major float64 arrays, in their order,
    then ``meta`` as one JSON string under ``__meta__``."""
    payload = {k: np.ascontiguousarray(v, dtype=np.float64) for k, v in tensors.items()}
    payload["__meta__"] = np.array(json.dumps(meta))
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_tensors(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """The tensors and the metadata of the container at ``path``; a file that
    is no such container, or of another format version, raises a ValueError
    naming ``path``."""
    try:
        with np.load(path, allow_pickle=False) as data:
            tensors = {k: data[k] for k in data.files}
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile):
        # np.load reads a file that is not an archive as a pickle or a .npy
        raise ValueError(f"{path}: cannot be read as an .npz archive of arrays") from None
    if "__meta__" not in tensors:
        raise ValueError(f"{path}: checkpoint lacks '__meta__'")
    try:
        meta = json.loads(str(tensors.pop("__meta__")))
    except (ValueError, RecursionError):
        meta = None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint '__meta__' is not a JSON object")
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format: {meta.get('format_version')}")
    return tensors, meta


def meta_value(path: str, meta: dict, key: str, cast):
    """``cast(meta[key])``, or a ValueError naming the file and the key."""
    if key not in meta:
        raise ValueError(f"{path}: checkpoint metadata lacks {key!r}")
    try:
        return cast(meta[key])
    except (TypeError, ValueError):
        raise ValueError(f"{path}: checkpoint metadata {key!r} is malformed") from None


def strings(value) -> tuple[str, ...]:
    """``value`` as a tuple of strings; str.__str__ raises TypeError on anything else."""
    return tuple(str.__str__(v) for v in value)


def checked_tensor(path: str, tensors: dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    """``tensors[name]`` if present, float64, of ``shape`` and finite; else a
    ValueError naming the file and the tensor."""
    if name not in tensors:
        raise ValueError(f"{path}: checkpoint lacks tensor {name!r}")
    value = tensors[name]
    if value.dtype != np.float64:
        raise ValueError(f"{path}: tensor {name!r} has dtype {value.dtype}, expected float64")
    if value.shape != shape:
        raise ValueError(f"{path}: tensor {name!r} has shape {value.shape}, expected {shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"{path}: tensor {name!r} has non-finite values")
    return value
