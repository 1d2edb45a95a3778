"""Spans around the package's public functions, recorded from outside it.

A ``Probe`` wraps functions at every module that holds a reference to them
(``ordercky.cli`` and ``ordercky.trainer`` import with ``from .x import y``,
so patching only the defining module would miss their calls).  With timing
on, each call records a span ``[name, start, end, parent, run_id]`` in
memory; a call whose parent span has the same name (recursion) is passed
through untimed, so only the outermost call is measured.  With timing off,
only the counting callbacks run.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from ordercky import cli, decoder, evaluate, grammar, scorer, trainer, trees

# every module on the measured paths that may hold a reference to a target
_MODULES = (cli, decoder, evaluate, grammar, trainer, trees)

ROOT = "cli.main"


class Probe:
    def __init__(self, timing: bool):
        self.timing = timing
        self.spans: list[list] = []
        self.counts_by_run: dict[str, Counter] = {}
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def counted(*args, **kwargs):
            result = err = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                err = exc
                raise
            finally:
                count(self.counts, args, kwargs, result, err)

        def timed(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            result = err = None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                err = exc
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if count:
                    count(self.counts, args, kwargs, result, err)

        return timed if self.timing else counted

    @contextmanager
    def root(self, run_id: str):
        """The span of one entry-point call; its self time is ``cli.self_s``."""
        self.run_id = run_id
        self.counts = self.counts_by_run[run_id] = Counter()
        if not self.timing:
            yield
            return
        rec = [ROOT, 0.0, 0.0, -1, run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()


# ---------------------------------------------------------------------------
# counters fed from the wrapped calls' arguments and results


def _count_forward(counts, args, kwargs, result, err):
    # args: (model, sentence[, orders]); spans scored = n(n+1)/2 per head
    n = len(args[1])
    heads = len(kwargs.get("orders", args[2] if len(args) > 2 else (0, 1)))
    counts["scorer.spans"] += n * (n + 1) // 2 * heads
    counts["scorer.forward.calls"] += 1


def _count_backward(counts, args, kwargs, result, err):
    counts["scorer.backward.calls"] += 1


def _count_batched(counts, args, kwargs, result, err):
    charts, compiled = args[0], args[1]
    counts["decoder.decode.calls"] += 1
    if err is None:
        counts["decoder.no_derivation"] += sum(isinstance(r, decoder.NoDerivation) for r in result)
    if not charts or not len(compiled):
        return
    # shape-derived: elements of the (B, I, K, R, 2) candidate tensor per
    # width step, against those each sentence needs without padding
    big_n = max(c.n for c in charts)
    cells = lambda n: sum((n - w + 1) * (w - 1) for w in range(2, n + 1))
    per_cell = len(compiled) * 2
    counts["decoder.cand_elems"] += len(charts) * cells(big_n) * per_cell
    counts["decoder.cand_useful"] += sum(cells(c.n) for c in charts) * per_cell


def _count_decode(counts, args, kwargs, result, err):
    counts["decoder.decode.calls"] += 1


def _count_compiled(counts, args, kwargs, result, err):
    counts["decoder.CompiledRules.calls"] += 1


def _count_gradients(counts, args, kwargs, result, err):
    counts["trainer.sentences"] += 1
    if isinstance(err, (trainer.GoldRuleMissing, decoder.NoDerivation)):
        counts["trainer.skipped"] += 1
    elif err is None and result[1] is not None:
        counts["trainer.active"] += 1


# (span name, owner, attribute, counter); a module owner means the function
# is patched in every package module that holds it
TARGETS = (
    ("scorer.forward", scorer.ScorerModel, "forward", _count_forward),
    ("scorer.backward", scorer.ScorerModel, "backward", _count_backward),
    ("decoder.decode", decoder, "decode_charts_batched", _count_batched),
    ("decoder.decode", decoder, "decode_ablation", _count_decode),
    ("decoder.decode", decoder, "decode_baseline", _count_decode),
    ("decoder.hamming_costs", decoder, "hamming_costs", None),
    ("decoder.tree_score", decoder, "ordered_tree_score", None),
    ("decoder.tree_score", decoder, "baseline_tree_score", None),
    ("decoder.CompiledRules", decoder, "CompiledRules", _count_compiled),
    ("trees.debinarize", trees, "debinarize", None),
    ("trees.linearize", trees.InternalNode, "linearize", None),
    ("trees.Treebank.load", trees.Treebank, "load", None),
    ("grammar.extract_grammar", grammar, "extract_grammar", None),
    ("evaluate.score_trees", evaluate, "score_trees", None),
    ("trainer.load_checkpoint", trainer, "load_checkpoint", None),
    ("trainer.init_state", trainer, "init_state", None),
    ("trainer.fit", trainer, "fit", None),
    ("trainer.step", trainer, "step", None),
    ("trainer.sentence_gradients", trainer, "sentence_gradients", _count_gradients),
    ("trainer.evaluate_dev", trainer, "evaluate_dev", None),
    ("trainer.save_checkpoint", trainer, "save_checkpoint", None),
)

# counters reported per pass or per epoch
COUNTS = ("scorer.forward.calls", "scorer.backward.calls", "scorer.spans", "decoder.decode.calls",
          "decoder.CompiledRules.calls", "decoder.no_derivation", "decoder.cand_elems")

# the untraced run keeps only the counter that sees training skips
COUNT_ONLY = tuple(t for t in TARGETS if t[0] == "trainer.sentence_gradients")


@contextmanager
def installed(probe: Probe, targets=TARGETS):
    """Patch ``targets`` with the probe's wrappers; restore them on exit."""
    saved = []
    try:
        for name, owner, attr, count in targets:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(probe.wrap(name, raw.__func__, count))
                else:
                    wrapped = probe.wrap(name, raw, count)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = probe.wrap(name, original, count)
            for module in _MODULES:
                if module.__dict__.get(attr) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapped)
        yield probe
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> dict[str, tuple[Counter, Counter, float]]:
    """Per run id: self seconds per span name, decode self seconds split by
    the nearest ``trainer.step`` / ``trainer.evaluate_dev`` ancestor, and the
    root span's duration."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, rid in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, tuple[Counter, Counter, float]] = {}
    for idx, (name, start, end, parent, rid) in enumerate(spans):
        own, decode_by, wall = out.get(rid) or (Counter(), Counter(), 0.0)
        self_s = end - start - child_time[idx]
        own[name] += self_s
        if name == ROOT:
            wall += end - start
        if name == "decoder.decode":
            up = parent
            while up >= 0 and spans[up][0] not in ("trainer.step", "trainer.evaluate_dev"):
                up = spans[up][3]
            if up >= 0:
                decode_by[spans[up][0]] += self_s
        out[rid] = (own, decode_by, wall)
    return out
