"""Binary composition rules, left/right order statistics, and the learnable
order-indexed rule-score chart."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .trees import BinaryTree, Treebank

LEFT = 0
RIGHT = 1
ORDER_NAMES = ("L", "R")

RULE_FLOOR = -1e6


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


def _compositions(btree: BinaryTree) -> Iterable[Rule]:
    for node in btree.nodes():
        if not node.is_leaf:
            yield Rule(node.label, node.left.label, node.right.label)


def extract_grammar(treebank: Treebank) -> Grammar:
    """Exactly the set of (parent, left, right) triples observed in the
    binarized trees; duplicates and sentence order are irrelevant."""
    rules: set[Rule] = set()
    for sent in treebank.sentences:
        rules.update(_compositions(sent.btree))
    return Grammar(rules)


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
        for node in sent.btree.nodes():
            if not node.is_leaf:
                left[node.left.label] += 1
                right[node.right.label] += 1
    return OrderStats(left=left, right=right)


class RuleScoreChart:
    """Learnable per-(rule, order) scores with a hard floor for unseen rules.

    The floor is a constant, never a parameter: an out-of-grammar composition
    is effectively forbidden without introducing infinities.
    """

    def __init__(self, grammar: Grammar, scores: np.ndarray, floor: float = RULE_FLOOR):
        if scores.shape != (len(grammar), 2):
            raise ValueError(f"expected scores of shape ({len(grammar)}, 2)")
        self.grammar = grammar
        self.scores = scores.astype(np.float64)
        self.floor = float(floor)

    @classmethod
    def init_random(
        cls, grammar: Grammar, rng: np.random.Generator, scale: float = 0.01,
        floor: float = RULE_FLOOR,
    ) -> "RuleScoreChart":
        scores = rng.uniform(-scale, scale, size=(len(grammar), 2))
        return cls(grammar, scores, floor=floor)

    def score(self, rule: Rule, order: int) -> float:
        idx = self.grammar.rule_index.get(rule)
        if idx is None:
            return self.floor
        return float(self.scores[idx, order])


def grammar_tsv(grammar: Grammar) -> str:
    lines = ["parent\tleft\tright"]
    lines.extend(f"{p}\t{l}\t{r}" for p, l, r in grammar.rules)
    return "\n".join(lines) + "\n"


def stats_tsv(stats: OrderStats) -> str:
    lines = ["label\tL\tR"]
    lines.extend(f"{label}\t{l}\t{r}" for label, l, r in stats.rows())
    return "\n".join(lines) + "\n"
