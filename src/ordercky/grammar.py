"""Binary composition rules, left/right order statistics, and the learnable
order-indexed rule-score chart."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .trees import Treebank


class GoldRuleMissing(ValueError):
    """A gold composition is missing from the grammar: the gold tree was not
    binarized with the conventions the grammar was extracted under."""


class Rule(NamedTuple):
    parent: str
    left: str
    right: str


class Grammar:
    """An immutable set of binary rules with deterministic lexicographic order."""

    def __init__(self, rules: Iterable[Rule]):
        self.rules: tuple[Rule, ...] = tuple(sorted(set(rules)))
        self.rule_index = {rule: i for i, rule in enumerate(self.rules)}

    def __len__(self) -> int:
        return len(self.rules)

    def __contains__(self, rule: Rule) -> bool:
        return rule in self.rule_index


def extract_grammar(treebank: Treebank) -> Grammar:
    """Exactly the set of (parent, left, right) triples observed in the
    binarized trees; duplicates and sentence order are irrelevant."""
    return Grammar(Rule(parent, left, right)
                   for sent in treebank.sentences for parent, left, right, _ in sent.btree.compositions())


@dataclass(frozen=True)
class OrderStats:
    """Per-label counts of occurrences as a left or right child."""

    left: Counter
    right: Counter

    def labels(self) -> list[str]:
        """Labels sorted by total count descending, then alphabetically."""
        all_labels = set(self.left) | set(self.right)
        return sorted(all_labels, key=lambda l: (-(self.left[l] + self.right[l]), l))

    def rows(self) -> list[tuple[str, int, int]]:
        return [(l, self.left[l], self.right[l]) for l in self.labels()]


def order_statistics(treebank: Treebank) -> OrderStats:
    left: Counter = Counter()
    right: Counter = Counter()
    for sent in treebank.sentences:
        for _, left_label, right_label, _ in sent.btree.compositions():
            left[left_label] += 1
            right[right_label] += 1
    return OrderStats(left=left, right=right)


class RuleScoreChart:
    """Learnable per-(rule, order) scores, a row per grammar rule in grammar
    order; a rule outside the grammar has no score, and asking raises."""

    def __init__(self, grammar: Grammar, scores: np.ndarray):
        if scores.shape != (len(grammar), 2):
            raise ValueError(f"expected scores of shape ({len(grammar)}, 2)")
        self.grammar = grammar
        self.scores = scores.astype(np.float64)

    @classmethod
    def init_random(cls, grammar: Grammar, rng: np.random.Generator) -> "RuleScoreChart":
        return cls(grammar, rng.uniform(-0.01, 0.01, size=(len(grammar), 2)))

    def score(self, rule: Rule, order: int) -> float:
        idx = self.grammar.rule_index.get(rule)
        if idx is None:
            raise GoldRuleMissing(f"gold composition {rule} not in the extracted grammar")
        return float(self.scores[idx, order])


def grammar_tsv(grammar: Grammar) -> str:
    lines = ["parent\tleft\tright"]
    lines.extend(f"{p}\t{l}\t{r}" for p, l, r in grammar.rules)
    return "\n".join(lines) + "\n"


def stats_tsv(stats: OrderStats) -> str:
    lines = ["label\tL\tR"]
    lines.extend(f"{label}\t{l}\t{r}" for label, l, r in stats.rows())
    return "\n".join(lines) + "\n"
