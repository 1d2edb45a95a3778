"""Randomized checks of the production decoders against brute force.

Each trial decodes one random instance with every mode of ``trainer.MODES``
(the decoders that ``parse`` and ``train`` run), plus the loss-augmented
decode that training runs (the ordered mode over ``augmented_chart``), and
compares each best score with exhaustive enumeration.  A one-head mode
decodes a tied chart, as its forward writes.  The two ordered decodes are
also compared with the scalar ``decode_ordered``, which they must equal bit
for bit: the same tree and score, or the same NoDerivation class.
Instances are small enough for that (n <= 8, few labels) and fully
determined by one seed, so any failure is reproducible from the replay
record alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .decoder import (CompiledRules, DecodeResult, NoDerivation, augmented_chart, brute_force_best,
                      decode_ordered)
from .grammar import Grammar, Rule, RuleScoreChart
from .scorer import SpanScoreChart
from .trainer import MODES
from .trees import LEFT, BinaryTree

# brute force sums each tree's terms in another order than the chart recursion
_TOLERANCE = 1e-9


@dataclass
class Instance:
    chart: SpanScoreChart
    grammar: Grammar
    rules: RuleScoreChart
    gold: BinaryTree

    def to_json(self) -> dict:
        return {
            "n": self.chart.n,
            "labels": list(self.chart.labels),
            "scores": self.chart.scores.tolist(),
            "rules": [list(r) for r in self.grammar.rules],
            "rule_scores": self.rules.scores.tolist(),
            "gold": {"label": list(self.gold.label), "start": list(self.gold.start),
                     "end": list(self.gold.end)},
        }


def random_instance(rng: np.random.Generator, max_n: int = 6, max_labels: int = 4) -> Instance:
    """Half the instances draw span and rule scores on a quarter grid, where
    sums are exact and candidates tie, so the tie-break rule is checked too."""
    n = int(rng.integers(2, max_n + 1))
    n_labels = int(rng.integers(2, max_labels + 1))
    on_grid = rng.random() < 0.5
    grid = lambda shape: rng.integers(-4, 5, size=shape) / 4
    labels = tuple("ABCDEF"[:n_labels])
    sentence = tuple((f"w{i}", "X") for i in range(n))
    shape = (n + 1, n + 1, n_labels, 2)
    scores = grid(shape) if on_grid else rng.normal(size=shape)
    chart = SpanScoreChart(sentence=sentence, labels=labels, scores=scores)

    all_rules = [Rule(p, l, r) for p in labels for l in labels for r in labels]
    if rng.random() < 0.2:
        picked = all_rules
    else:
        mask = rng.random(len(all_rules)) < 0.5
        picked = [r for r, keep in zip(all_rules, mask) if keep]
    grammar = Grammar(picked)
    shape = (len(grammar), 2)
    rules = RuleScoreChart(grammar, grid(shape) if on_grid else rng.uniform(-1.0, 1.0, size=shape))

    # the gold tree, drawn in preorder: each node's label, then its split
    spans = []
    stack = [(0, n)]
    while stack:
        i, j = stack.pop()
        spans.append((i, j, labels[int(rng.integers(0, n_labels))]))
        if j - i > 1:
            k = int(rng.integers(i + 1, j))
            stack += ((k, j), (i, k))
    gold = BinaryTree.from_spans(sentence, spans)
    return Instance(chart=chart, grammar=grammar, rules=rules, gold=gold)


def _outcome(decode) -> Union[DecodeResult, NoDerivation]:
    """``decode()``'s result, or the NoDerivation it raised."""
    try:
        return decode()
    except NoDerivation as err:
        return err


def _score(outcome: Union[DecodeResult, NoDerivation]) -> Optional[float]:
    return None if isinstance(outcome, NoDerivation) else outcome.score


def _score_gap(got, want) -> float:
    """How far apart two best scores are; inf when only one decode found a
    derivation."""
    a, b = _score(got), _score(want)
    if (a is None) != (b is None):
        return float("inf")
    return 0.0 if a is None else abs(a - b)


def _exact_gap(got, want) -> float:
    """0 when ``got`` is ``want`` bit for bit: the same tree and score, or the
    same NoDerivation class.  Otherwise the score gap, or inf where the
    classes or the trees differ."""
    if type(got) is not type(want) or (isinstance(got, DecodeResult) and got.tree != want.tree):
        return float("inf")
    return _score_gap(got, want)


@dataclass
class CheckReport:
    trials: int
    checks: int
    failures: list[dict]

    @property
    def passed(self) -> bool:
        return not self.failures


def oracle_check(seed: int, trials: int = 200, max_n: int = 6, max_labels: int = 4) -> CheckReport:
    rng = np.random.default_rng(seed)
    failures: list[dict] = []
    checks = 0
    for trial in range(trials):
        inst = random_instance(rng, max_n=max_n, max_labels=max_labels)
        compiled = CompiledRules(inst.chart.labels, inst.grammar, inst.rules)
        # (name, mode, chart): every mode, then the loss-augmented decode of training
        tied = SpanScoreChart(inst.chart.sentence, inst.chart.labels, inst.chart.scores[..., [LEFT, LEFT]])
        cases = [(mode, mode, inst.chart if len(spec.heads) > 1 else tied) for mode, spec in MODES.items()]
        cases.append(("loss-augmented", "ordered", augmented_chart(inst.chart, inst.gold)))
        for name, mode, chart in cases:
            got = _outcome(lambda: MODES[mode].decode([chart], compiled)[0])
            want = _outcome(lambda: brute_force_best(chart, mode, grammar=inst.grammar, rules=inst.rules))
            # (name, reference, gap, tolerance)
            comparisons = [(name, want, _score_gap(got, want), _TOLERANCE)]
            if MODES[mode].rules:
                scalar = _outcome(lambda: decode_ordered(chart, inst.grammar, inst.rules))
                comparisons.append((f"{name} (batched vs scalar)", scalar, _exact_gap(got, scalar), 0.0))
            for label, reference, gap, tolerance in comparisons:
                checks += 1
                if gap > tolerance:
                    failures.append(
                        {
                            "trial": trial,
                            "mode": label,
                            "decoder_score": _score(got),
                            "oracle_score": _score(reference),
                            "gap": gap,
                            "instance": inst.to_json(),
                        }
                    )
    return CheckReport(trials=trials, checks=checks, failures=failures)


def write_replay(report: CheckReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.failures[0], fh, indent=2)
