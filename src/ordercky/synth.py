"""Deterministic synthetic treebank generation for the bundled corpora.

Two corpora ship with the package:

* ``memorize50.txt``: 50 sentences a desk-scale scorer can drive to F1 = 100.
  The generator rejects any sentence whose gold spans would collide in
  feature space: the span vector of (i, j) sees only the boundary words
  (w_{i-1}, w_{j-1}) and positions, so two gold spans with identical keys and
  the same order must carry the same label.

* ``skew_train.txt`` / ``skew_dev.txt``: a corpus whose label/order statistics
  are strongly one-sided and which embeds two controlled ambiguities:

  - QL/QR pairs: the same span key is labeled QL when it is a left child and
    QR when a right child.  Separate order heads express this; a single
    order-free scorer cannot.
  - G1/G2 pairs: the same span key needs label G1 over child X1 but G2 over
    child X2, where only the rules G1 -> X1 ∅ and G2 -> X2 ∅ exist.  Only the
    grammar-restricted decoder can recover both labels; per-span argmax
    (with or without order) must fail on half the pairs.
"""

from __future__ import annotations

import random

from .grammar import extract_grammar, order_statistics
from .trees import DUMMY, Treebank, read_trees

MEMORIZE_SEED = 20240611
SKEW_SEED = 20240612


def _treebank(lines):
    return Treebank.from_trees(read_trees("\n".join(lines)))


def check_consistency(lines, allow_conflicts=()):
    """Map (key, order) -> label over all gold spans, key = (i, j, w_{i-1},
    w_{j-1}); returns conflicts whose label pair is not in ``allow_conflicts``."""
    tb = _treebank(lines)
    seen: dict = {}
    conflicts = []
    for sent in tb.sentences:
        words = [word for word, _ in sent.btree.sentence]
        for label, i, j, order in sent.btree.nodes():
            key = (i, j, words[i - 1] if i > 0 else "<s>", words[j - 1])
            prev = seen.setdefault((key, order), label)
            if prev != label and tuple(sorted((prev, label))) not in allow_conflicts:
                conflicts.append((key, order, prev, label))
    return conflicts


# ---------------------------------------------------------------------------
# memorization corpus

_DETS = ["the", "a", "each", "some", "this", "that", "no", "every"]
_NOUNS = ["cat", "dog", "bird", "fox", "cow", "hen", "pig", "rat", "owl", "bee",
          "ant", "elk", "koi", "ram", "yak"]
_VERBS = ["sees", "bites", "likes", "chases", "grabs", "hears", "lifts", "pokes"]
_PREPS = ["on", "under", "near", "behind", "beside"]
_ADJS = ["big", "red", "old", "tiny", "gray", "slow"]
_ADVS = ["often", "soon", "twice"]
_COMPS = ["that"]


def _np(rng, adjs=0, pp=False):
    parts = [f"(DT {rng.choice(_DETS)})"]
    for _ in range(adjs):
        parts.append(f"(JJ {rng.choice(_ADJS)})")
    parts.append(f"(NN {rng.choice(_NOUNS)})")
    if pp:
        parts.append(_pp(rng))
    return "(NP " + " ".join(parts) + ")"


def _pp(rng):
    return f"(PP (IN {rng.choice(_PREPS)}) {_np(rng)})"


def _memorize_templates(rng):
    def t_svo():
        return f"(S {_np(rng)} (VP (VB {rng.choice(_VERBS)}) {_np(rng)}))"

    def t_intrans():
        return f"(S {_np(rng)} (VP (VB {rng.choice(_VERBS)})))"

    def t_imperative():
        return f"(S (VP (VB {rng.choice(_VERBS)}) {_np(rng, adjs=1)}))"

    def t_svo_pp():
        return f"(S {_np(rng, adjs=1)} (VP (VB {rng.choice(_VERBS)}) {_np(rng)} {_pp(rng)}))"

    def t_adv():
        return (
            f"(S {_np(rng, adjs=2)} (VP (RB {rng.choice(_ADVS)}) "
            f"(VB {rng.choice(_VERBS)}) {_np(rng)}))"
        )

    def t_np_pp_subj():
        return f"(S {_np(rng, pp=True)} (VP (VB {rng.choice(_VERBS)}) {_np(rng, adjs=1)}))"

    def t_sbar():
        return (
            f"(S {_np(rng)} (VP (VB {rng.choice(_VERBS)}) "
            f"(SBAR (IN {rng.choice(_COMPS)}) (S {_np(rng)} (VP (VB {rng.choice(_VERBS)}) {_np(rng)})))))"
        )

    def t_obj_pp():
        return (
            f"(S {_np(rng, adjs=1)} (VP (VB {rng.choice(_VERBS)}) "
            f"{_np(rng, pp=True)}))"
        )

    def t_sbar_long():
        return (
            f"(S {_np(rng)} (VP (VB {rng.choice(_VERBS)}) "
            f"(SBAR (IN {rng.choice(_COMPS)}) (S {_np(rng)} (VP (VB {rng.choice(_VERBS)}) "
            f"{_np(rng)} {_pp(rng)})))))"
        )

    return [t_svo, t_intrans, t_imperative, t_svo_pp, t_adv, t_np_pp_subj, t_sbar,
            t_obj_pp, t_sbar_long]


def memorization_lines(count=50, seed=MEMORIZE_SEED):
    rng = random.Random(seed)
    templates = _memorize_templates(rng)
    lines: list[str] = []
    attempts = 0
    while len(lines) < count:
        attempts += 1
        if attempts > 100 * count:
            raise RuntimeError("memorization sampler failed to converge")
        line = templates[rng.randrange(len(templates))]()
        tokens = sum(1 for tok in line.split() if not tok.startswith("("))
        if not (3 <= tokens <= 12):
            continue
        if line in lines:
            continue
        if check_consistency(lines + [line]):
            continue
        lines.append(line)
    tb = _treebank(lines)
    assert len(tb.labels) <= 12, f"label vocabulary too large: {tb.labels}"
    assert not check_consistency(lines)
    return lines


# ---------------------------------------------------------------------------
# skewed corpus

_P_WORDS = ["po", "pa", "pu"]
_QA_WORDS = ["qa1", "qa2"]
_QB_WORDS = ["qb1", "qb2", "qb3"]
_TAIL_A = [("ta1", "ta2"), ("ta3", "ta4"), ("ta5", "ta6")]
_TAIL_B = [("tb1", "tb2"), ("tb3", "tb4"), ("tb5", "tb6")]
_C_WORDS = ["co1", "co2", "co3"]
_GB_WORDS = ["gb1", "gb2", "gb3"]
_M1_WORDS = ["m1a", "m1b"]
_M2_WORDS = ["m2a", "m2b"]
_F_DETS = ["fd1", "fd2", "fd3", "fd4"]
_F_NOUNS = ["fn1", "fn2", "fn3", "fn4", "fn5"]
_F_VERBS = ["fv1", "fv2", "fv3"]
_F_PREPS = ["fp1", "fp2"]


def _skew_templates(rng):
    def order_pair():
        """Same (1,3) key: QR as a right child vs QL as a left child."""
        p = rng.choice(_P_WORDS)
        qa = rng.choice(_QA_WORDS)
        qb = rng.choice(_QB_WORDS)
        r1a, r2a = rng.choice(_TAIL_A)
        r1b, r2b = rng.choice(_TAIL_B)
        right_use = (
            f"(S (P (T {p})) (QR (T {qa}) (T {qb})) (R (T {r1a}) (T {r2a})))"
        )
        left_use = (
            f"(S (P (T {p})) (M (QL (T {qa}) (T {qb})) (R (T {r1b}) (T {r2b}))))"
        )
        return [right_use, left_use]

    def rule_pair():
        """Same (1,3) key: G1 requires child X1, G2 requires child X2."""
        c = rng.choice(_C_WORDS)
        gb = rng.choice(_GB_WORDS)
        m1 = rng.choice(_M1_WORDS)
        m2 = rng.choice(_M2_WORDS)
        return [
            f"(S (C (T {c})) (G1 (X1 (T {m1})) (T {gb})))",
            f"(S (C (T {c})) (G2 (X2 (T {m2})) (T {gb})))",
        ]

    def filler():
        d, d2 = rng.choice(_F_DETS), rng.choice(_F_DETS)
        n1, n2 = rng.choice(_F_NOUNS), rng.choice(_F_NOUNS)
        v = rng.choice(_F_VERBS)
        kind = rng.randrange(3)
        if kind == 0:
            return [f"(S (NP (DT {d}) (NN {n1})) (VP (VB {v}) (NP (DT {d2}) (NN {n2}))))"]
        if kind == 1:
            return [f"(S (NP (DT {d}) (NN {n1})) (VP (VB {v})))"]
        p = rng.choice(_F_PREPS)
        return [
            f"(S (NP (DT {d}) (NN {n1})) (VP (VB {v}) "
            f"(PP (IN {p}) (NP (DT {d2}) (NN {n2})))))"
        ]

    return order_pair, rule_pair, filler


ALLOWED_SKEW_CONFLICTS = (("G1", "G2"),)


def skewed_lines(train_count=120, dev_count=40, seed=SKEW_SEED):
    rng = random.Random(seed)
    order_pair, rule_pair, filler = _skew_templates(rng)

    def sample_block():
        kind = rng.randrange(4)
        if kind == 0:
            return order_pair()
        if kind == 1:
            return rule_pair()
        return filler()

    def build(count, existing):
        lines: list[str] = []
        attempts = 0
        while len(lines) < count:
            attempts += 1
            if attempts > 200 * count:
                raise RuntimeError("skew sampler failed to converge")
            block = sample_block()
            if any(b in lines or b in existing for b in block):
                continue
            candidate = existing + lines + block
            if check_consistency(candidate, allow_conflicts=ALLOWED_SKEW_CONFLICTS):
                continue
            lines.extend(block)
        return lines[:count]

    train = build(train_count, [])
    dev = build(dev_count, train)

    # dev must be derivable under the train grammar
    grammar = extract_grammar(_treebank(train))
    unseen = [rule for rule in extract_grammar(_treebank(dev)).rules if rule not in grammar]
    assert not unseen, f"dev rules unseen in train: {unseen}"
    return train, dev


def order_skew_summary(lines):
    """Labels that occur on only one side of binary compositions."""
    stats = order_statistics(_treebank(lines))
    return {lab for lab in stats.labels()
            if lab != DUMMY and (stats.left[lab] == 0 or stats.right[lab] == 0)}


def main():
    import pathlib
    import sys

    out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(
        __file__
    ).parent / "data"
    out_dir.mkdir(parents=True, exist_ok=True)
    memo = memorization_lines()
    (out_dir / "memorize50.txt").write_text("\n".join(memo) + "\n", encoding="utf-8")
    train, dev = skewed_lines()
    (out_dir / "skew_train.txt").write_text("\n".join(train) + "\n", encoding="utf-8")
    (out_dir / "skew_dev.txt").write_text("\n".join(dev) + "\n", encoding="utf-8")
    print(f"wrote {len(memo)} memorization and {len(train)}+{len(dev)} skew sentences to {out_dir}")
    print(f"one-sided labels: {sorted(order_skew_summary(train))}")


if __name__ == "__main__":
    main()
