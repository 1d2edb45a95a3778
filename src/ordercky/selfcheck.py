"""Randomized checks of the production decoders against brute force.

Each trial decodes one random instance with every mode of ``trainer.MODES``
(the decoders that ``parse`` and ``train`` run), plus the loss-augmented
decode that training runs (the ordered mode over ``augmented_chart``), and
compares each best score with exhaustive enumeration.  A one-head mode
decodes a tied chart, as its forward writes.  Instances are small
enough for that (n <= 8, few labels) and fully determined by one seed, so
any failure is reproducible from the replay record alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decoder import CompiledRules, DecodeResult, NoDerivation, augmented_chart, brute_force_best
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
            "gold": _tree_to_json(self.gold),
        }


def _tree_to_json(node: BinaryTree) -> dict:
    out = {"label": node.label, "span": [node.start, node.end]}
    if not node.is_leaf:
        out["left"] = _tree_to_json(node.left)
        out["right"] = _tree_to_json(node.right)
    return out


def random_instance(rng: np.random.Generator, max_n: int = 6, max_labels: int = 4) -> Instance:
    n = int(rng.integers(2, max_n + 1))
    n_labels = int(rng.integers(2, max_labels + 1))
    labels = tuple("ABCDEF"[:n_labels])
    sentence = tuple((f"w{i}", "X") for i in range(n))
    scores = rng.normal(size=(n + 1, n + 1, n_labels, 2))
    chart = SpanScoreChart(sentence=sentence, labels=labels, scores=scores)

    all_rules = [Rule(p, l, r) for p in labels for l in labels for r in labels]
    if rng.random() < 0.2:
        picked = all_rules
    else:
        mask = rng.random(len(all_rules)) < 0.5
        picked = [r for r, keep in zip(all_rules, mask) if keep]
    grammar = Grammar(picked)
    rules = RuleScoreChart(grammar, rng.uniform(-1.0, 1.0, size=(len(grammar), 2)))

    def random_tree(i: int, j: int) -> BinaryTree:
        lab = labels[int(rng.integers(0, n_labels))]
        if j - i == 1:
            return BinaryTree(lab, i, j, sentence)
        k = int(rng.integers(i + 1, j))
        return BinaryTree(lab, i, j, sentence, random_tree(i, k), random_tree(k, j))

    return Instance(chart=chart, grammar=grammar, rules=rules, gold=random_tree(0, n))


def _best(decode) -> Optional[DecodeResult]:
    """``decode()``'s result; None for no derivation, raised or returned."""
    try:
        result = decode()
    except NoDerivation:
        return None
    return None if isinstance(result, NoDerivation) else result


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
            got = _best(lambda: MODES[mode].decode([chart], compiled)[0])
            want = _best(lambda: brute_force_best(chart, mode, grammar=inst.grammar, rules=inst.rules))
            checks += 1
            if (got is None) != (want is None):
                gap = float("inf")
            elif got is None:
                gap = 0.0
            else:
                gap = abs(got.score - want.score)
            if gap > _TOLERANCE:
                failures.append(
                    {
                        "trial": trial,
                        "mode": name,
                        "decoder_score": None if got is None else got.score,
                        "oracle_score": None if want is None else want.score,
                        "gap": gap,
                        "instance": inst.to_json(),
                    }
                )
    return CheckReport(trials=trials, checks=checks, failures=failures)


def write_replay(report: CheckReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.failures[0], fh, indent=2)
