"""Corpus-level labeled-bracket precision / recall / F1.

Brackets are the labeled spans of phrasal nodes (width-1 phrasal brackets and
the root included; part-of-speech tags excluded).  Duplicate spans from unary
re-expansion match as a multiset.  Counts are aggregated over the whole corpus
before computing percentages (micro-average).  Trees pair up in order, and
each pair must cover the same words; their part-of-speech tags may differ.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .trees import LengthMismatch, Tree, sentence_of, spans_of


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


def bracket_counts(pred: Tree, gold: Tree) -> tuple[int, int, int]:
    pred_brackets = Counter(spans_of(pred))
    gold_brackets = Counter(spans_of(gold))
    matched = sum((pred_brackets & gold_brackets).values())
    return matched, sum(pred_brackets.values()), sum(gold_brackets.values())


def score_trees(pred: Sequence[Tree], gold: Sequence[Tree]) -> EvalReport:
    return EvalReport.of_rows(per_sentence_rows(pred, gold))


def per_sentence_rows(pred: Sequence[Tree], gold: Sequence[Tree]) -> list[tuple[int, int, int, int]]:
    """(index, matched, predicted, gold) per sentence; LengthMismatch unless
    trees pair up and each pair is over the same words (tags may differ)."""
    if len(pred) != len(gold):
        raise LengthMismatch(f"{len(pred)} predicted trees vs {len(gold)} gold trees")
    rows = []
    for idx, (p, g) in enumerate(zip(pred, gold)):
        p_words = [word for word, _ in sentence_of(p)]
        g_words = [word for word, _ in sentence_of(g)]
        if len(p_words) != len(g_words):
            raise LengthMismatch(f"sentence {idx}: predicted and gold lengths differ")
        if p_words != g_words:
            k = next(k for k, (pw, gw) in enumerate(zip(p_words, g_words)) if pw != gw)
            raise LengthMismatch(f"sentence {idx}: token {k} is {p_words[k]!r} predicted "
                                 f"but {g_words[k]!r} in gold")
        rows.append((idx, *bracket_counts(p, g)))
    return rows
