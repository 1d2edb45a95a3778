"""Chart decoders over span-score charts.

Three modes share one tie-breaking policy so every path is reproducible:
among equal-scoring candidates, the smallest split point wins, then the
smallest label ids (label ids follow the chart's label tuple, which the
treebank sorts lexicographically).

* ordered: per-order span scores plus grammar-rule scores; compositions are
  restricted to extracted rules, since a rule outside the grammar has no
  score.
* ablation: per-order span scores, no grammar term and no rule restriction.
* baseline: ablation over a tied chart, whose one head fills both order
  slots: the plain span decoder, which the ordered one generalizes.

Loss-augmented decoding is not a mode but a chart transform:
``augmented_chart`` adds 1 to every labeled span absent from the gold tree,
and any mode's decoder over the result finds max_T [score(T) + hamming(T, gold)].

``decode_ordered`` is the scalar reference; ``decode_charts_batched`` gives
its values and trees for a batch of charts.  Its chart cells are rows of one
array grouped by width, then sentence, then start (stripes), holding only the
cells with i + w <= n of their own sentence, so padding costs nothing.  The
fill keeps values only, factored over distinct child-label pairs u = (l1, l2):
M[c, u] = max_k (T[i, k, l1, L] + T[k, j, l2, R]), then the best M[c, u(r)] +
g[r, o] over each parent's segment of rules.  Since x -> fl(x + g) is
monotone, max over (k, r) of fl(fl(tl + tr) + g) equals max over r of
fl(max_k fl(tl + tr) + g): the very float the scalar recursion keeps.  The
fill keeps M for one width at a time and stores no backpointers, so the
cell x pair tables it keeps are the children's values at each pair, as a
left and as a right child.  One backtrace then walks the best trees of the
whole batch a level at a time.  At each node it recomputes M from those two
tables, summing the same floats the fill maximized, so the maximum is exact.
It keeps the rules of the parent's segment whose fl(M[c, u(r)] + g[r, o]) is
the segment's maximum, since by monotonicity no other rule reaches it at any
split.  It scans the splits k = 1 .. w - 1 of those rules only, reading the
child sums the recomputation made, and takes the smallest k whose
fl(fl(tl + tr) + g) is the maximum, then the smallest rule: the scalar
tie-break, even where distinct child sums round to one candidate once g is
added.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .grammar import Grammar, RuleScoreChart, Rule
from .scorer import SpanScoreChart
from .trees import DUMMY, LEFT, RIGHT, BinaryTree

NEG_INF = -np.inf


class NoDerivation(Exception):
    """No in-grammar composition covers the sentence."""


class NonFiniteChart(NoDerivation):
    """The best root score is NaN or +inf: the chart, not the grammar, is at fault."""


class InstanceTooLarge(ValueError):
    pass


@dataclass
class DecodeResult:
    tree: BinaryTree
    score: float


class CompiledRules:
    """Grammar plus rule scores flattened to id arrays for chart decoding.

    The labels must be sorted and distinct and name every grammar label, so the
    grammar order is the (parent, left, right) id order; ``scores`` is the rule
    chart's own array."""

    def __init__(self, labels: Sequence[str], grammar: Grammar, rules: RuleScoreChart):
        self.labels = tuple(labels)
        if list(self.labels) != sorted(set(self.labels)):
            raise ValueError("the chart labels are not sorted and distinct")
        index = {lab: i for i, lab in enumerate(self.labels)}
        try:
            ids = np.array([[index[lab] for lab in rule] for rule in grammar.rules], dtype=np.intp)
        except KeyError as err:
            raise ValueError(f"grammar label {err.args[0]!r} is not a chart label") from None
        self.parent, self.left, self.right = ids.reshape(-1, 3).T.copy()
        self.scores = rules.scores
        bounds = np.searchsorted(self.parent, np.arange(len(self.labels) + 1))
        self.bounds = bounds  # parent label l's rules are bounds[l]:bounds[l + 1]
        # the batched fill maximizes over splits once per distinct child pair,
        # then reduces each parent's segment of rules
        pairs, self.rule_pair = np.unique(self.left * len(self.labels) + self.right, return_inverse=True)
        self.pair_left, self.pair_right = np.divmod(pairs, len(self.labels))
        self.seg_parents = np.flatnonzero(np.diff(bounds))
        self.seg_starts = bounds[self.seg_parents]

    def __len__(self) -> int:
        return len(self.parent)


def _leaf(labels, sentence, i, lab):
    return BinaryTree(labels[lab], i, i + 1, sentence)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite root is reported instead
def decode_ordered(
    chart: SpanScoreChart,
    grammar: Grammar,
    rules: RuleScoreChart,
    forbid_root: Optional[str] = None,
) -> DecodeResult:
    """Scalar reference implementation of the order-aware recursion.

    ``forbid_root`` excludes one label (the binarization dummy, in the parsing
    pipeline) from the root argmax so the result is always de-binarizable.
    """
    comp = CompiledRules(chart.labels, grammar, rules)
    bounds = comp.bounds.tolist()
    n = chart.n
    n_labels = len(chart.labels)
    s = chart.scores
    t = np.full((n + 1, n + 1, n_labels, 2), NEG_INF)
    back: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    for i in range(n):
        t[i, i + 1] = s[i, i + 1]
    for w in range(2, n + 1):
        for i in range(0, n - w + 1):
            j = i + w
            for lab in range(n_labels):
                lo, hi = bounds[lab], bounds[lab + 1]
                if lo == hi:
                    continue
                best = [NEG_INF, NEG_INF]
                best_bp = [None, None]
                for k in range(i + 1, j):
                    for r in range(lo, hi):
                        base = t[i, k, comp.left[r], LEFT] + t[k, j, comp.right[r], RIGHT]
                        for o in (LEFT, RIGHT):
                            cand = base + comp.scores[r, o]
                            # a NaN candidate wins and stays, as in numpy's max
                            if cand > best[o] or cand != cand:
                                best[o] = cand
                                best_bp[o] = (k, comp.left[r], comp.right[r])
                for o in (LEFT, RIGHT):
                    t[i, j, lab, o] = s[i, j, lab, o] + best[o]
                    if best_bp[o] is not None:
                        back[(i, j, lab, o)] = best_bp[o]
    return _extract(chart, t, back, n, forbid_root)


def _root_error(best: float, n: int) -> Optional[NoDerivation]:
    """What a best root score of ``best`` says is wrong, if anything: -inf is
    no derivation, NaN or +inf a chart that is not finite."""
    if best == NEG_INF:
        return NoDerivation(f"no in-grammar derivation covers the sentence (n={n})")
    if not np.isfinite(best):
        return NonFiniteChart(f"the chart scores are not finite (n={n})")
    return None


def _root_label(root_scores: np.ndarray, labels: Sequence[str],
                forbid_root: Optional[str]) -> tuple[np.ndarray, np.ndarray]:
    """The root label and its score: the argmax of one score per label along
    the last axis, with ``forbid_root`` (when it is a label) excluded.  The
    max is the score at the argmax, a NaN included."""
    if forbid_root in labels:
        root_scores = root_scores.copy()
        root_scores[..., labels.index(forbid_root)] = NEG_INF
    return root_scores.argmax(axis=-1), root_scores.max(axis=-1)


def _tree(labels, sentence, n, root_lab, split) -> BinaryTree:
    """The best tree under ``root_lab``, where split(i, j, lab, order) gives a
    node's split point and its children's labels.  An explicit stack builds it
    (a node comes back off the stack, with its split, once both children are
    built), so a tree as deep as its sentence costs no recursion."""
    done: list[BinaryTree] = []
    stack = [(0, n, root_lab, LEFT, None)]
    while stack:
        i, j, lab, o, k = stack.pop()
        if j - i == 1:
            done.append(_leaf(labels, sentence, i, lab))
        elif k is not None:
            right = done.pop()
            done[-1] = BinaryTree(labels[lab], i, j, sentence, done[-1], right)
        else:
            k, l1, l2 = split(i, j, lab, o)
            stack += ((i, j, lab, o, k), (k, j, l2, RIGHT, None), (i, k, l1, LEFT, None))
    return done[0]


def _extract(chart, t, back, n, forbid_root=None) -> DecodeResult:
    root_lab, best = _root_label(t[0, n, :, LEFT], chart.labels, forbid_root)
    error = _root_error(best, n)
    if error:
        raise error
    tree = _tree(chart.labels, chart.sentence, n, int(root_lab), lambda i, j, lab, o: back[(i, j, lab, o)])
    return DecodeResult(tree=tree, score=float(best))


# up to this length the span fill runs faster on float lists than on numpy
# slices, whose per-call cost dominates short rows
_LIST_FILL_MAX_N = 10


def _span_cky(left: np.ndarray, right: np.ndarray) -> tuple[list, list]:
    """Best-bracketing values, span (i, j) scoring left[i, j] as a left child
    or the root and right[i, j] as a right child: by_start[i][w] for span
    (i, i + w) and by_end[j][w] for (j - w, j), so a width-w span's children
    are by_start[i][1:w] and by_end[j][w-1:0:-1] in split order."""
    n = left.shape[0] - 1
    # Python's max passes over a NaN that is not its first argument, where
    # numpy's returns it.  Scores below 1e300 hold no NaN or +inf, and no sum
    # of 2n - 1 of them reaches +inf, so no NaN can arise: only such charts
    # take the list fill
    if n > _LIST_FILL_MAX_N or not (left.max() < 1e300 and right.max() < 1e300):
        by_start = np.full((n + 1, n + 1), NEG_INF)
        by_end = np.full((n + 1, n + 1), NEG_INF)
        by_start[:n, 1], by_end[1:, 1] = left.diagonal(1), right.diagonal(1)
        # overflow shows as a non-finite root, which the callers report
        with np.errstate(over="ignore", invalid="ignore"):
            for w in range(2, n + 1):
                cand = by_start[: n - w + 1, 1:w] + by_end[w:, w - 1 : 0 : -1]
                best = np.maximum.reduce(cand, axis=1)
                np.add(left.diagonal(w), best, out=by_start[: n - w + 1, w])
                np.add(right.diagonal(w), best, out=by_end[w:, w])
        return by_start.tolist(), by_end.tolist()
    lv, rv = left.tolist(), right.tolist()
    by_start = [[NEG_INF] * (n + 1) for _ in range(n + 1)]
    by_end = [[NEG_INF] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        by_start[i][1], by_end[i + 1][1] = lv[i][i + 1], rv[i][i + 1]
    for w in range(2, n + 1):
        for i in range(n - w + 1):
            best = max(map(add, by_start[i][1:w], by_end[i + w][w - 1 : 0 : -1]))
            by_start[i][w], by_end[i + w][w] = lv[i][i + w] + best, rv[i][i + w] + best
    return by_start, by_end


def _decode_spans(left: np.ndarray, right: np.ndarray, label_at, sentence, labels) -> DecodeResult:
    """The best bracketing of ``_span_cky(left, right)``, split at each node's
    smallest best split point and labeled by label_at(i, j, order).  Raises
    NoDerivation for a -inf root and NonFiniteChart for a NaN or +inf one."""
    n = len(sentence)
    by_start, by_end = _span_cky(left, right)
    error = _root_error(by_start[0][n], n)
    if error:
        raise error

    def split(i, j, lab, o):
        cand = list(map(add, by_start[i][1 : j - i], by_end[j][j - i - 1 : 0 : -1]))
        k = i + 1 + cand.index(max(cand))
        return k, label_at(i, k, LEFT), label_at(k, j, RIGHT)

    tree = _tree(labels, sentence, n, label_at(0, n, LEFT), split)
    return DecodeResult(tree=tree, score=by_start[0][n])


def decode_ablation(chart: SpanScoreChart, forbid_root: Optional[str] = None) -> DecodeResult:
    """Ordered span scores without the grammar-rule term; raises like
    ``_decode_spans``."""
    n = chart.n
    s = chart.scores
    label_choice = s.argmax(axis=2)          # (n+1, n+1, 2)
    # the chosen entries; a max over axis 2 ahead of the order axis is slow
    span = np.arange(n + 1)
    label_score = s[span[:, None, None], span[:, None], label_choice, np.arange(2)]
    root = _root_label(s[0, n, :, LEFT], chart.labels, forbid_root)
    label_choice[0, n, LEFT], label_score[0, n, LEFT] = root
    return _decode_spans(label_score[:, :, LEFT], label_score[:, :, RIGHT], label_choice.item,
                         chart.sentence, chart.labels)


def decode_baseline(scores: np.ndarray, sentence: tuple[tuple[str, str], ...], labels: tuple[str, ...],
                    forbid_root: Optional[str] = None) -> DecodeResult:
    """``decode_ablation`` of the tied chart ``scores``; this name and
    signature stay only because perfbench imports and patches them."""
    return decode_ablation(SpanScoreChart(sentence, labels, scores), forbid_root)


def decode_each(decode: Callable[[SpanScoreChart], DecodeResult],
                charts: Sequence[SpanScoreChart]) -> list[Union[DecodeResult, NoDerivation]]:
    """``decode`` of each chart, with the NoDerivation (or NonFiniteChart) it
    raises in that chart's place, as ``decode_charts_batched`` returns them."""
    results: list[Union[DecodeResult, NoDerivation]] = []
    for chart in charts:
        try:
            results.append(decode(chart))
        except NoDerivation as err:
            results.append(err)
    return results


def hamming_costs(n: int, labels: tuple[str, ...], gold: BinaryTree) -> np.ndarray:
    """cost[i, j, l] = 1 if (i, j, label_l) is not a node of gold, else 0."""
    cost = np.ones((n + 1, n + 1, len(labels)))
    index = {lab: i for i, lab in enumerate(labels)}
    for node, _ in gold.nodes():
        lab = index.get(node.label)
        if lab is not None:
            cost[node.start, node.end, lab] = 0.0
    return cost


def augmented_chart(chart: SpanScoreChart, gold: BinaryTree) -> SpanScoreChart:
    """The chart of loss-augmented decoding: every labeled span absent from
    ``gold`` scores 1 more in both orders, so a decoder's optimum over it is
    max_T [score(T) + hamming(T, gold)]."""
    costs = hamming_costs(chart.n, chart.labels, gold)
    return SpanScoreChart(chart.sentence, chart.labels, chart.scores + costs[:, :, :, None])


def ordered_tree_score(
    btree: BinaryTree,
    chart: SpanScoreChart,
    rules: Optional[RuleScoreChart] = None,
) -> float:
    """Independent bottom-up re-summation of the ordered objective, or of
    the span modes' without ``rules``."""
    index = {lab: i for i, lab in enumerate(chart.labels)}
    total = 0.0
    for node, order in btree.nodes():
        total += float(chart.scores[node.start, node.end, index[node.label], order])
        if rules is not None and not node.is_leaf:
            total += rules.score(Rule(node.label, node.left.label, node.right.label), order)
    return total


def baseline_tree_score(btree: BinaryTree, scores: np.ndarray, labels: tuple[str, ...]) -> float:
    """``ordered_tree_score`` over the tied chart ``scores``; this name and
    signature stay only because perfbench imports and patches them."""
    return ordered_tree_score(btree, SpanScoreChart(btree.sentence, labels, scores))


def fallback_tree(
    sentence: tuple[tuple[str, str], ...], labels: Sequence[str]
) -> BinaryTree:
    """Right-branching tree of dummy nodes under the first non-dummy label,
    for robustness runs where no in-grammar derivation exists; built bottom-up,
    so its depth costs no stack."""
    n = len(sentence)
    node = BinaryTree(DUMMY, n - 1, n, sentence)
    for i in range(n - 2, -1, -1):
        node = BinaryTree(DUMMY, i, n, sentence, BinaryTree(DUMMY, i, i + 1, sentence), node)
    root_label = next((lab for lab in labels if lab != DUMMY), DUMMY)
    return BinaryTree(root_label, 0, n, sentence, node.left, node.right)


# ---------------------------------------------------------------------------
# brute-force oracle


def _shapes(i: int, j: int, memo: dict) -> list:
    """All binary bracketings of (i, j) as nested (i, j, left, right) tuples."""
    if (i, j) in memo:
        return memo[(i, j)]
    if j - i == 1:
        out = [(i, j, None, None)]
    else:
        out = []
        for k in range(i + 1, j):
            for lt in _shapes(i, k, memo):
                for rt in _shapes(k, j, memo):
                    out.append((i, j, lt, rt))
    memo[(i, j)] = out
    return out


def brute_force_best(
    chart: SpanScoreChart,
    mode: str,
    grammar: Optional[Grammar] = None,
    rules: Optional[RuleScoreChart] = None,
    forbid_root: Optional[str] = None,
) -> DecodeResult:
    """Enumerate every bracketing and exhaustively maximize the labeling of
    each one by direct summation of the mode's objective; the two span modes
    share one, since a baseline chart is tied.

    Within one bracketing the label maximization runs over the fixed tree
    shape, which shares nothing with the width-ordered chart recursion.
    """
    n = chart.n
    n_labels = len(chart.labels)
    if n > 8 or n_labels > 6:
        raise InstanceTooLarge(f"brute force limited to n <= 8, labels <= 6; got {n}, {n_labels}")
    if mode not in ("ordered", "baseline", "ablation"):
        raise ValueError(f"unknown mode: {mode}")

    s = chart.scores
    shapes = _shapes(0, n, {})
    labels, sentence = chart.labels, chart.sentence
    forbidden = labels.index(forbid_root) if forbid_root in labels else None

    if mode == "ordered":
        comp = CompiledRules(chart.labels, grammar, rules)
        best_score, best_tree = NEG_INF, None
        for shape in shapes:
            table: dict[tuple, np.ndarray] = {}
            choice: dict[tuple, dict] = {}

            def fill(node):
                i, j, lt, rt = node
                if lt is None:
                    table[node] = s[i, j].copy()
                    return
                fill(lt)
                fill(rt)
                out = np.full((n_labels, 2), NEG_INF)
                picks: dict = {}
                for r in range(len(comp)):
                    base = table[lt][comp.left[r], LEFT] + table[rt][comp.right[r], RIGHT]
                    for o in (LEFT, RIGHT):
                        cand = base + comp.scores[r, o]
                        if cand > out[comp.parent[r], o]:
                            out[comp.parent[r], o] = cand
                            picks[(int(comp.parent[r]), o)] = r
                out += s[i, j]
                table[node] = out
                choice[node] = picks

            fill(shape)
            root_vals = table[shape][:, LEFT]
            if forbidden is not None:
                root_vals[forbidden] = NEG_INF
            lab = int(np.argmax(root_vals))
            val = float(root_vals[lab])
            if val > best_score:

                def build(node, lab, o):
                    i, j, lt, rt = node
                    if lt is None:
                        return _leaf(labels, sentence, i, lab)
                    r = choice[node][(lab, o)]
                    return BinaryTree(
                        labels[lab], i, j, sentence,
                        build(lt, int(comp.left[r]), LEFT),
                        build(rt, int(comp.right[r]), RIGHT),
                    )

                best_score = val
                best_tree = build(shape, lab, LEFT)
        if best_tree is None:
            raise NoDerivation(f"no in-grammar derivation covers the sentence (n={n})")
        return DecodeResult(tree=best_tree, score=best_score)

    # the span modes: a node's order is fixed by its place in the shape
    s = s.copy()
    if forbidden is not None:
        s[0, n, forbidden] = NEG_INF
    best_score, best_shape = NEG_INF, None
    for shape in shapes:
        total = sum(
            float(np.max(s[i, j, :, o])) for (i, j, _, _), o in _iter_shape_orders(shape)
        )
        if total > best_score:
            best_score, best_shape = total, shape
    if best_shape is None:
        raise NoDerivation(f"no in-grammar derivation covers the sentence (n={n})")

    def build_a(node, o):
        i, j, lt, rt = node
        lab = int(np.argmax(s[i, j, :, o]))
        if lt is None:
            return _leaf(labels, sentence, i, lab)
        return BinaryTree(
            labels[lab], i, j, sentence, build_a(lt, LEFT), build_a(rt, RIGHT)
        )

    return DecodeResult(tree=build_a(best_shape, LEFT), score=best_score)


def _iter_shape_orders(shape):
    stack = [(shape, LEFT)]
    while stack:
        node, o = stack.pop()
        yield node, o
        if node[2] is not None:
            stack.append((node[2], LEFT))
            stack.append((node[3], RIGHT))


# ---------------------------------------------------------------------------
# width-batched decoding

# elements per block of the split-axis gather; bounds the fill's temporaries,
# which at this size stay in a 2 MiB L2 cache
_SPLIT_BLOCK = 1 << 16


@np.errstate(over="ignore", invalid="ignore")  # a non-finite root is reported instead
def decode_charts_batched(
    charts: Sequence[SpanScoreChart],
    compiled: CompiledRules,
    forbid_root: Optional[str] = None,
) -> list[Union[DecodeResult, NoDerivation]]:
    """Width-synchronous decoding of many charts at once, bit-identical to
    ``decode_ordered``: one step fills every cell of one width, across all
    sentences, keeping every cell's values at the distinct child pairs and
    that width's pair maxima only; one level-synchronous backtrace, which
    recomputes its nodes' pair maxima from those values, then finds every
    node's split."""
    if not charts:
        return []
    lens = np.array([c.n for c in charts])
    big_n, batch, n_pairs = int(lens.max()), len(charts), len(compiled.pair_left)
    # rows of one width are contiguous; within a width, sentence then start
    cells = [np.nonzero(np.arange(big_n - w + 1) <= (lens - w)[:, None]) for w in range(1, big_n + 1)]
    sents = np.concatenate([b for b, _ in cells])
    starts = np.concatenate([i for _, i in cells])
    widths = np.repeat(np.arange(1, big_n + 1), [len(b) for b, _ in cells])
    bounds = np.concatenate([[0], np.cumsum([len(b) for b, _ in cells])])
    row = np.full((big_n + 1, batch, big_n), -1, dtype=np.intp)
    row[widths, sents, starts] = np.arange(len(widths))

    # every cell's scores, gathered at once from the charts laid end to end
    n_labels = len(compiled.labels)
    side = lens + 1
    offset = np.concatenate([[0], np.cumsum(side * side)[:-1]])
    flat = np.concatenate([c.scores.reshape(-1, n_labels, 2) for c in charts])
    s = flat[offset[sents] + starts * side[sents] + starts + widths]
    del flat  # before the fill allocates its arrays
    t = np.full_like(s, NEG_INF)
    t[: bounds[1]] = s[: bounds[1]]
    # each cell's values at the distinct child-label pairs, as a left / right child
    left_pairs = np.empty((len(widths), n_pairs))
    right_pairs = np.empty((len(widths), n_pairs))
    top = big_n if len(compiled) else 1  # no rules: nothing wider than one token
    for w in range(1, top + 1):
        lo, hi = bounds[w - 1], bounds[w]
        if w > 1:
            b, i = sents[lo:hi], starts[lo:hi]
            # this width's pair maxima over its splits; the backtrace
            # recomputes them at its nodes
            m = np.full((hi - lo, n_pairs), NEG_INF)
            step = max(1, _SPLIT_BLOCK // ((hi - lo) * n_pairs))
            for k0 in range(1, w, step):
                ks = np.arange(k0, min(w, k0 + step))[:, None]
                cand = left_pairs[row[ks, b, i]]
                cand += right_pairs[row[w - ks, b, i + ks]]
                np.maximum(m, cand.max(axis=0), out=m)
            per_rule = np.take(m, compiled.rule_pair, axis=1)
            for o in (LEFT, RIGHT):
                best = np.maximum.reduceat(per_rule + compiled.scores[:, o], compiled.seg_starts, axis=1)
                t[lo:hi, compiled.seg_parents, o] = s[lo:hi, compiled.seg_parents, o] + best
        left_pairs[lo:hi] = t[lo:hi, compiled.pair_left, LEFT]
        right_pairs[lo:hi] = t[lo:hi, compiled.pair_right, RIGHT]

    root_labs, bests = _root_label(t[row[lens, np.arange(batch), 0], :, LEFT], compiled.labels, forbid_root)
    errors = [_root_error(best, n) for best, n in zip(bests.tolist(), lens.tolist())]
    ok = np.array([error is None for error in errors], dtype=bool)
    splits = _backtrace(left_pairs, right_pairs, compiled, row, sents, starts, widths,
                        row[lens[ok], np.flatnonzero(ok), 0], root_labs[ok])
    results: list[Union[DecodeResult, NoDerivation]] = []
    for b, (chart, error) in enumerate(zip(charts, errors)):
        if error:
            results.append(error)
            continue
        tree = _tree(compiled.labels, chart.sentence, chart.n, int(root_labs[b]),
                     lambda i, j, lab, o: splits[b, i, j])
        results.append(DecodeResult(tree=tree, score=float(bests[b])))
    return results


def _backtrace(left_pairs, right_pairs, compiled, row, sents, starts, widths, roots, root_labs):
    """(sentence, i, j) -> (split point, left label, right label) of every
    internal node of the best trees under the cells ``roots``, found one tree
    level at a time across the batch, in the two stages the module docstring
    describes."""
    n_rules = len(compiled)
    cell, lab, order = roots, root_labs, np.full_like(roots, LEFT)
    found = []
    while True:
        inner = widths[cell] > 1  # leaves need no split
        cell, lab, order = cell[inner], lab[inner], order[inner]
        if not len(cell):
            break
        # each node's child sums at every pair, one row per split k = 1 .. w - 1
        # from row first[node]: the very floats the fill maximized, so their
        # maximum is the node's M
        b, i, w = sents[cell], starts[cell], widths[cell]
        span = w - 1
        first = np.cumsum(span) - span
        split_node = np.repeat(np.arange(len(cell)), span)
        k = np.arange(len(split_node)) - np.repeat(first - 1, span)
        bk, ik = b[split_node], i[split_node]
        sums = left_pairs[row[k, bk, ik]]
        sums += right_pairs[row[w[split_node] - k, bk, ik + k]]
        pair_max = np.maximum.reduceat(sums, first)
        # stage 1: each node's rule segment, and the rules that reach its maximum
        lo = compiled.bounds[lab]
        size = compiled.bounds[lab + 1] - lo
        seg = np.cumsum(size) - size
        node = np.repeat(np.arange(len(cell)), size)
        rule = np.arange(len(node)) + np.repeat(lo - seg, size)
        g = compiled.scores[rule, order[node]]
        value = pair_max[node, compiled.rule_pair[rule]] + g
        best = np.maximum.reduceat(value, seg)[node]
        hit = value == best
        node, rule, g, best = node[hit], rule[hit], g[hit], best[hit]
        # stage 2: the splits of every qualifying rule, node by node, read at
        # the rule's pair from the rows above
        reps = span[node]
        pick = np.repeat(np.arange(len(node)), reps)
        k = np.arange(len(pick)) - np.repeat(np.cumsum(reps) - reps - 1, reps)
        p, r = node[pick], rule[pick]
        hit = sums[first[p] + k - 1, compiled.rule_pair[r]] + g[pick] == best[pick]
        # per node, the smallest split with a hit, then the smallest rule; a
        # qualifying rule reaches the maximum at its pair-max split, so every
        # node has a hit
        key = k[hit] * n_rules + r[hit]
        key = np.minimum.reduceat(key, np.searchsorted(p[hit], np.arange(len(cell))))
        k, r = np.divmod(key, n_rules)
        left, right = compiled.left[r], compiled.right[r]
        found.append((b, i, i + w, i + k, left, right))
        # the children are the next level's nodes
        order = np.repeat(np.array([LEFT, RIGHT]), len(cell))
        cell = np.concatenate([row[k, b, i], row[w - k, b, i + k]])
        lab = np.concatenate([left, right])
    if not found:
        return {}
    b, i, j, k, left, right = (np.concatenate(col).tolist() for col in zip(*found))
    return dict(zip(zip(b, i, j), zip(k, left, right)))
