"""Seeded PTB-like trees for the parse-long workload.

Phrase templates over a small part-of-speech inventory, with optional
modifiers before and after, give flat n-ary constituents and unary phrases
over single tags.  Left-branching binarization of a few hundred such trees
yields 14 labels and about 170 composition rules.  Each tree is built top
down over an exact token count, so lengths are chosen, not rejected.
"""

from __future__ import annotations

import random

LONG_LENGTHS = (20, 48)

# parent -> (weight, children); a child is a phrase label or a POS tag
_TEMPLATES = {
    "S": [(6, "NP VP"), (2, "PP NP VP"), (2, "NP ADVP VP"), (2, "SBAR NP VP"),
          (1, "S CC S"), (2, "ADVP NP VP"), (1, "NP VP PRN"), (1, "S PRN NP VP"),
          (2, "VP"), (1, "UCP VP"), (1, "NP VP SBAR")],
    "SBAR": [(3, "IN S"), (2, "WHNP S"), (1, "WHADVP S"), (1, "RB IN S")],
    "VP": [(3, "VBD NP"), (2, "VBZ NP PP"), (2, "VB NP"), (2, "MD VP"), (2, "VBD PP"),
           (2, "VBZ SBAR"), (2, "TO VP"), (1, "VBD ADJP"), (1, "VB NP ADVP"),
           (1, "VBD NP NP"), (1, "VP CC VP"), (1, "ADVP VBD NP"), (1, "VBD S"),
           (1, "VB NP SBAR"), (1, "VBD PP PP"), (1, "VBZ ADJP PP"), (2, "VB"),
           (1, "VBD NP PRN"), (1, "VBZ QP")],
    "NP": [(4, "DT NN"), (3, "DT JJ NN"), (3, "NP PP"), (2, "NP SBAR"), (1, "DT NN NN"),
           (1, "NNP NNP"), (1, "NP CC NP"), (1, "CD NNS"), (1, "DT ADJP NN"), (3, "PRP"),
           (2, "NNS"), (1, "JJ NNS"), (1, "QP NNS"), (1, "NP NP"), (1, "NP PRN"),
           (1, "NP ADJP"), (1, "NP UCP"), (2, "NNP")],
    "PP": [(4, "IN NP"), (1, "TO NP"), (1, "IN S"), (1, "IN SBAR"), (1, "ADVP IN NP"),
           (1, "IN ADJP")],
    "ADJP": [(2, "RB JJ"), (1, "JJ PP"), (3, "JJ"), (1, "ADJP CC ADJP"), (1, "QP JJ")],
    "ADVP": [(3, "RB"), (1, "RB RB"), (1, "NP RB"), (1, "RB PP")],
    "WHNP": [(1, "WDT"), (1, "WP"), (1, "WDT NN")],
    "WHADVP": [(1, "WRB")],
    "QP": [(2, "CD CD"), (1, "RB CD"), (1, "IN CD")],
    "PRN": [(2, "LRB NP RRB"), (1, "LRB S RRB"), (1, "LRB PP RRB")],
    "UCP": [(1, "ADJP CC NP"), (1, "NP CC ADJP")],
}
_WORDS_PER_POS = 40

# optional modifiers placed before / after a template's children: flat
# PTB-style constituents whose sibling pairs feed the binarized rule set
_PRE = {
    "S": ["PP", "ADVP", "SBAR", "CC", "S", "NP"],
    "NP": ["ADJP", "QP", "JJ", "NNP", "CD", "NP", "PRN"],
    "VP": ["ADVP", "RB"],
    "PP": ["ADVP", "RB"],
    "ADJP": ["RB"],
}
_POST = {
    "S": ["PRN", "PP", "SBAR", "ADVP"],
    "NP": ["PP", "SBAR", "PRN", "ADJP", "VP"],
    "VP": ["PP", "ADVP", "SBAR", "NP", "PRN", "S"],
    "ADJP": ["PP", "SBAR", "ADVP"],
    "ADVP": ["PP", "SBAR", "NP"],
    "PP": ["ADVP", "PP", "SBAR"],
    "SBAR": ["PP", "ADVP"],
}
_MODIFIER_P = 0.3
_MAX_MODIFIERS = 3
_MAX_DEPTH = 7


def _choose(rng: random.Random, options):
    total = sum(w for w, _ in options)
    pick = rng.uniform(0, total)
    for weight, children in options:
        pick -= weight
        if pick <= 0:
            return children.split()
    return options[-1][1].split()


# tag under a one-token phrase, e.g. (NP (PRP it))
_HEAD_TAG = {"S": "VB", "SBAR": "IN", "VP": "VB", "NP": "PRP", "PP": "IN", "ADJP": "JJ",
             "ADVP": "RB", "WHNP": "WP", "WHADVP": "WRB", "QP": "CD", "PRN": "NNP",
             "UCP": "NN"}


def _leaf(rng: random.Random, tag: str) -> str:
    return f"({tag} {tag.lower()}{rng.randrange(_WORDS_PER_POS)})"


def _children(rng: random.Random, label: str, depth: int) -> list[str]:
    options = _TEMPLATES[label]
    if depth > _MAX_DEPTH:
        # deep constituents prefer templates without phrase children
        flat = [o for o in options if all(c not in _TEMPLATES for c in o[1].split())]
        options = flat or options
    pre = [rng.choice(_PRE[label]) for _ in range(_MAX_MODIFIERS)
           if label in _PRE and rng.random() < _MODIFIER_P]
    post = [rng.choice(_POST[label]) for _ in range(_MAX_MODIFIERS)
            if label in _POST and rng.random() < _MODIFIER_P]
    return pre + _choose(rng, options) + post


def _expand(rng: random.Random, label: str, length: int, depth: int) -> str:
    """A constituent labeled ``label`` over exactly ``length`` tokens."""
    if length == 1:
        return f"({label} {_leaf(rng, _HEAD_TAG[label])})"
    for _ in range(100):
        children = _children(rng, label, depth)
        phrases = [i for i, c in enumerate(children) if c in _TEMPLATES]
        spare = length - len(children)
        if spare == 0 or (spare > 0 and phrases):
            break
    else:
        children, phrases, spare = [_HEAD_TAG[label]] * length, [], 0
    sizes = [1] * len(children)
    for _ in range(spare):
        sizes[rng.choice(phrases)] += 1
    parts = [
        _expand(rng, c, size, depth + 1) if c in _TEMPLATES else _leaf(rng, c)
        for c, size in zip(children, sizes)
    ]
    return f"({label} {' '.join(parts)})"


def random_tree(rng: random.Random, length: int) -> str:
    """A sentence-rooted tree over exactly ``length`` tokens."""
    return _expand(rng, "S", length, 0)


def long_trees(rng: random.Random, count: int) -> list[str]:
    """``count`` trees whose lengths spread evenly over LONG_LENGTHS, so
    every seed has the same length profile (48 included), in seeded order."""
    lo, hi = LONG_LENGTHS
    lengths = [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]
    rng.shuffle(lengths)
    return [random_tree(rng, n) for n in lengths]


def grammar_trees(rng: random.Random, count: int) -> list[str]:
    """A treebank of the same generator, lengths uniform over 2..48, from
    which the parse-long checkpoint takes its vocabulary and grammar."""
    return [random_tree(rng, rng.randint(2, LONG_LENGTHS[1])) for _ in range(count)]
