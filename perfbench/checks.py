"""Output checks on what ``ordercky parse`` printed and what its decoders
returned.  Each check returns the indices of the sentences it failed, so a
failure counts against the sentences attempted."""

from __future__ import annotations

import math
from contextlib import contextmanager

from ordercky import cli
from ordercky.decoder import (
    DecodeResult,
    baseline_tree_score,
    decode_ordered,
    ordered_tree_score,
)
from ordercky.trees import DUMMY, BracketError, debinarize, escape_token, parse_bracketed, sentence_of

# scores are sums of ~4n float64 terms of magnitude < 1e2, added in a
# different order by the decoder and by the re-summation
SCORE_TOL = 1e-9

SCALAR_SAMPLE = 8
SCALAR_MAX_LEN = 12

_DECODERS = ("decode_charts_batched", "decode_ablation", "decode_baseline")


@contextmanager
def captured_decodes(sink: list):
    """Record ``(sentence, scores, result)`` for every decode the parse
    command makes; ``scores`` is the chart (ordered, ablation) or the
    collapsed score array (baseline)."""
    originals = {name: getattr(cli, name) for name in _DECODERS}

    def batched(charts, compiled, forbid_root=None):
        results = originals["decode_charts_batched"](charts, compiled, forbid_root=forbid_root)
        sink.extend([(c.sentence, c, r) for c, r in zip(charts, results)])
        return results

    def ablation(chart, forbid_root=None):
        result = originals["decode_ablation"](chart, forbid_root=forbid_root)
        sink.append((chart.sentence, chart, result))
        return result

    def baseline(scores, sentence, labels, forbid_root=None):
        result = originals["decode_baseline"](scores, sentence, labels, forbid_root=forbid_root)
        sink.append((tuple(sentence), scores, result))
        return result

    cli.decode_charts_batched, cli.decode_ablation, cli.decode_baseline = batched, ablation, baseline
    try:
        yield sink
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


def check_lines(sentences, text: str) -> set[int]:
    """Every line is one bracketed tree over exactly the input tokens, with
    a finite score (a fallback tree prints NaN)."""
    lines = text.splitlines()
    bad = set(range(min(len(lines), len(sentences)), max(len(lines), len(sentences))))
    for idx, (sent, line) in enumerate(zip(sentences, lines)):
        tree_text, _, score_text = line.partition("\t")
        try:
            leaves = sentence_of(parse_bracketed(tree_text))
            finite = math.isfinite(float(score_text))
        except (BracketError, ValueError):
            bad.add(idx)
            continue
        if not finite or leaves != tuple((escape_token(w), p) for w, p in sent):
            bad.add(idx)
    return bad


def check_results(mode, sentences, text, captured, labels, rules) -> set[int]:
    """Each printed line is the captured decode's tree and score, and the
    score re-sums over the tree."""
    by_sentence = {sent: (scores, res) for sent, scores, res in captured}
    lines = text.splitlines()
    bad = set()
    for idx, (sent, line) in enumerate(zip(sentences, lines)):
        scores, res = by_sentence.get(sent, (None, None))
        if not isinstance(res, DecodeResult):
            bad.add(idx)
            continue
        if mode == "baseline":
            resum = baseline_tree_score(res.tree, scores, labels)
        else:
            resum = ordered_tree_score(res.tree, scores, rules if mode == "ordered" else None)
        printed = f"{debinarize(res.tree).linearize()}\t{res.score:.4f}"
        if abs(resum - res.score) > SCORE_TOL * max(1.0, abs(res.score)) or line != printed:
            bad.add(idx)
    return bad


def scalar_sample(sentences) -> list[int]:
    """Up to SCALAR_SAMPLE of the shortest sentences of at most
    SCALAR_MAX_LEN tokens; the single shortest when none is that short."""
    order = sorted(range(len(sentences)), key=lambda i: (len(sentences[i]), i))
    short = [i for i in order if len(sentences[i]) <= SCALAR_MAX_LEN][:SCALAR_SAMPLE]
    return short or order[:1]


def check_scalar(sample, sentences, captured, grammar, rules) -> set[int]:
    """Batched ordered output equals the scalar recursion's tree and score
    exactly."""
    by_sentence = {sent: (chart, res) for sent, chart, res in captured}
    bad = set()
    for idx in sample:
        chart, res = by_sentence.get(sentences[idx], (None, None))
        if not isinstance(res, DecodeResult):
            bad.add(idx)
            continue
        ref = decode_ordered(chart, grammar, rules, forbid_root=DUMMY)
        if ref.tree != res.tree or ref.score != res.score:
            bad.add(idx)
    return bad


def differing_lines(a: str, b: str) -> set[int]:
    la, lb = a.splitlines(), b.splitlines()
    bad = {i for i, (x, y) in enumerate(zip(la, lb)) if x != y}
    return bad | set(range(min(len(la), len(lb)), max(len(la), len(lb))))
