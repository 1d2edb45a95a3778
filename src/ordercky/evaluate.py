"""Corpus-level labeled-bracket precision / recall / F1.

Brackets are the labeled spans of phrasal nodes (width-1 phrasal brackets and
the root included; part-of-speech tags excluded).  Duplicate spans from unary
re-expansion match as a multiset.  Counts are aggregated over the whole corpus
before computing percentages (micro-average).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .trees import LengthMismatch, Node, iter_leaves, spans_of


@dataclass(frozen=True)
class EvalReport:
    matched: int
    predicted: int
    gold: int

    @property
    def precision(self) -> float:
        return 100.0 * self.matched / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return 100.0 * self.matched / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    @classmethod
    def of_rows(cls, rows: Sequence[tuple[int, int, int, int]]) -> "EvalReport":
        """The corpus totals of ``per_sentence_rows``."""
        return cls(*(sum(row[k] for row in rows) for k in (1, 2, 3)))

    def summary(self) -> str:
        return (
            f"P={self.precision:.2f} R={self.recall:.2f} F1={self.f1:.2f} "
            f"matched={self.matched} pred={self.predicted} gold={self.gold}"
        )


def bracket_counts(pred: Node, gold: Node) -> tuple[int, int, int]:
    pred_brackets = Counter(spans_of(pred))
    gold_brackets = Counter(spans_of(gold))
    matched = sum((pred_brackets & gold_brackets).values())
    return matched, sum(pred_brackets.values()), sum(gold_brackets.values())


def score_trees(pred: Sequence[Node], gold: Sequence[Node]) -> EvalReport:
    return EvalReport.of_rows(per_sentence_rows(pred, gold))


def per_sentence_rows(pred: Sequence[Node], gold: Sequence[Node]) -> list[tuple[int, int, int, int]]:
    """(index, matched, predicted, gold) per sentence; LengthMismatch unless trees and leaves pair up."""
    if len(pred) != len(gold):
        raise LengthMismatch(f"{len(pred)} predicted trees vs {len(gold)} gold trees")
    rows = []
    for idx, (p, g) in enumerate(zip(pred, gold)):
        if sum(1 for _ in iter_leaves(p)) != sum(1 for _ in iter_leaves(g)):
            raise LengthMismatch(f"sentence {idx}: predicted and gold lengths differ")
        rows.append((idx, *bracket_counts(p, g)))
    return rows
