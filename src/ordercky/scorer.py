"""Trainable span scorer: token+position embeddings, fencepost span vectors,
and two order-specific MLP heads producing the chart s(i, j, label, order).

Fencepost convention (frozen):

* For an n-token sentence the encoder emits n+1 fencepost vectors h_0..h_n.
  Fencepost t is the boundary left of token t; its input is the token to its
  left (a reserved boundary symbol for t = 0) plus the position embedding t.
* Each h splits into a forward half f(h) and a backward half b(h), and the
  span vector is v(i, j) = [f(h_j) - f(h_i) ; b(h_i) - b(h_j)].

All arithmetic is float64 so finite-difference gradient checks are exact to
roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LN_EPS = 1e-5
UNK = "<UNK>"
BOUNDARY = "<START>"


class SentenceTooLong(ValueError):
    pass


@dataclass
class SpanScoreChart:
    """Dense span scores, indexed scores[i, j, label, order] for 0 <= i < j <= n."""

    sentence: tuple[tuple[str, str], ...]
    labels: tuple[str, ...]
    scores: np.ndarray

    @property
    def n(self) -> int:
        return len(self.sentence)


@lru_cache(maxsize=128)
def span_index_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Start/end indices of all spans in the canonical (i-major) order; cached
    per length, so the arrays are read-only."""
    i_idx = np.repeat(np.arange(n), np.arange(n, 0, -1))
    j_idx = np.concatenate([np.arange(i + 1, n + 1) for i in range(n)]) if n else np.empty(0, int)
    j_idx = j_idx.astype(np.intp)
    i_idx.flags.writeable = j_idx.flags.writeable = False
    return i_idx, j_idx


@dataclass
class ForwardCache:
    ids: np.ndarray
    emb: np.ndarray        # (n+1, 2d) concatenated token/position embeddings
    fence: np.ndarray      # (n+1, d) fencepost vectors; > 0 where the mixing ReLU passed
    span_vecs: np.ndarray  # (spans, d)
    head: dict[int, dict[str, np.ndarray]]  # per order: xhat, inv_std, act (> 0 where the ReLU passed)


class ScorerModel:
    """Embedding tables, one mixing layer, and two order-specific heads."""

    def __init__(
        self,
        words: tuple[str, ...],
        labels: tuple[str, ...],
        dim: int,
        hidden: int,
        maxlen: int,
        params: dict[str, np.ndarray],
    ):
        if dim % 2 != 0:
            raise ValueError("embedding dimension must be even for half-splitting")
        self.words = tuple(words)
        self.labels = tuple(labels)
        self.dim = dim
        self.hidden = hidden
        self.maxlen = maxlen
        self.params = params
        self.word_index = {w: i for i, w in enumerate(self.words)}
        self._unk = self.word_index[UNK]

    @classmethod
    def build(
        cls,
        words: tuple[str, ...],
        labels: tuple[str, ...],
        rng: np.random.Generator,
        dim: int,
        hidden: int,
        maxlen: int,
    ) -> "ScorerModel":
        """Vocabulary rows for UNK and the boundary symbol are added here.
        Embeddings draw from uniform(+-0.5) and matrices from Glorot-uniform,
        in ``param_shapes`` order; ``ln_g`` starts at ones, other vectors at zeros."""
        vocab = (UNK, BOUNDARY) + tuple(w for w in words if w not in (UNK, BOUNDARY))
        params: dict[str, np.ndarray] = {}
        for name, shape in param_shapes(len(vocab), len(labels), dim, hidden, maxlen).items():
            if name.endswith("_emb"):
                params[name] = rng.uniform(-0.5, 0.5, size=shape)
            elif len(shape) == 2:
                bound = np.sqrt(6.0 / (shape[0] + shape[1]))
                params[name] = rng.uniform(-bound, bound, size=shape)
            else:
                params[name] = np.ones(shape) if name.startswith("ln_g") else np.zeros(shape)
        return cls(vocab, tuple(labels), dim, hidden, maxlen, params)

    def word_ids(self, words: tuple[str, ...]) -> np.ndarray:
        ids = [self.word_index[BOUNDARY]]
        ids.extend(self.word_index.get(w, self._unk) for w in words)
        return np.asarray(ids, dtype=np.intp)

    def charts(
        self, sentences: list[tuple[tuple[str, str], ...]], orders: tuple[int, ...] = (0, 1)
    ) -> list[SpanScoreChart]:
        """``forward``'s chart per sentence, with no cache: every head of every
        sentence runs in one pair of (spans, hidden) buffers sized for the
        longest sentence, so their pages are touched once per call, not once
        per head.  The pair belongs to this call and dies with it, so calls
        from several threads share nothing."""
        # a longer sentence raises SentenceTooLong in forward
        longest = min(max((len(s) for s in sentences), default=0), self.maxlen - 1)
        shape = (longest * (longest + 1) // 2, self.hidden)
        pair = (np.empty(shape), np.empty(shape))
        return [self.forward(sentence, orders=orders, scratch=pair)[0] for sentence in sentences]

    def forward(
        self,
        sentence: tuple[tuple[str, str], ...],
        orders: tuple[int, ...] = (0, 1),
        scratch: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[SpanScoreChart, ForwardCache | None]:
        """Chart and cache; ``orders=(0,)`` computes the left head alone and
        writes it into both order slots (the baseline's tied chart).  The
        cache holds the fencepost vectors h_0..h_n as ``fence``.

        Each head normalizes in place, in two (spans, hidden) buffers, with
        the very float operations of ``z1.mean``, ``z1.var`` and the textbook
        LayerNorm: the row mean is summed once, and the variance is the row
        sum of the squared centred values over ``hidden``, as numpy's ``var``
        computes it.  Without ``scratch`` each head allocates its own pair
        and the cache keeps it.  With ``scratch``, a pair of arrays of at
        least (spans, hidden), every head writes into views of it and the
        cache is None."""
        words = tuple(w for w, _ in sentence)
        n = len(words)
        if n >= self.maxlen:
            raise SentenceTooLong(f"sentence length {n} >= maxlen {self.maxlen}")
        p = self.params
        ids = self.word_ids(words)
        emb = np.concatenate([p["tok_emb"][ids], p["pos_emb"][: n + 1]], axis=1)
        fence = emb @ p["mix_w"].T
        fence += p["mix_b"]
        np.maximum(fence, 0.0, out=fence)
        half = self.dim // 2
        fwd, bwd = fence[:, :half], fence[:, half:]
        i_idx, j_idx = span_index_arrays(n)
        span_vecs = np.empty((len(i_idx), self.dim))
        np.subtract(fwd[j_idx], fwd[i_idx], out=span_vecs[:, :half])
        np.subtract(bwd[i_idx], bwd[j_idx], out=span_vecs[:, half:])
        scores = np.zeros((n + 1, n + 1, len(self.labels), 2))
        head_cache: dict[int, dict[str, np.ndarray]] = {}
        for order, name in ((o, "LR"[o]) for o in orders):
            if scratch is None:
                x, act = np.empty((len(i_idx), self.hidden)), np.empty((len(i_idx), self.hidden))
            else:
                x, act = (buf[: len(i_idx)] for buf in scratch)
            np.matmul(span_vecs, p[f"w1_{name}"].T, out=x)
            x += p[f"b1_{name}"]
            x -= x.sum(axis=1, keepdims=True) / self.hidden
            np.square(x, out=act)  # first the variance's scratch, then the activation
            inv_std = act.sum(axis=1, keepdims=True) / self.hidden
            inv_std += LN_EPS
            np.sqrt(inv_std, out=inv_std)
            np.divide(1.0, inv_std, out=inv_std)
            x *= inv_std
            np.multiply(x, p[f"ln_g_{name}"], out=act)
            act += p[f"ln_b_{name}"]
            np.maximum(act, 0.0, out=act)
            out = act @ p[f"w2_{name}"].T
            out += p[f"b2_{name}"]
            scores[i_idx, j_idx, :, order] = out
            head_cache[order] = {"xhat": x, "inv_std": inv_std, "act": act}
        if len(orders) == 1:  # one head fills both order slots
            scores[..., 1 - orders[0]] = scores[..., orders[0]]
        chart = SpanScoreChart(sentence=tuple(sentence), labels=self.labels, scores=scores)
        if scratch is not None:
            return chart, None
        return chart, ForwardCache(ids=ids, emb=emb, fence=fence, span_vecs=span_vecs, head=head_cache)

    def backward(self, cache: ForwardCache, out_grad: np.ndarray) -> dict[str, np.ndarray]:
        """Exact gradients of sum(out_grad * chart) w.r.t. every parameter; a
        one-head chart holds its head in both order slots, so the head reads both.

        Each head works in two (spans, hidden) buffers and keeps the operation
        order of the textbook formulas, so every gradient is the same float."""
        if cache is None:
            raise ValueError("backward requires the cache from a forward pass")
        p = self.params
        i_idx, j_idx = span_index_arrays(len(cache.ids) - 1)
        # zeros only where nothing below assigns the whole gradient
        absent = [f"{kind}_{'LR'[o]}" for o in (0, 1) if o not in cache.head for kind in _HEAD_PARAMS]
        grads = {name: np.zeros_like(p[name]) for name in ("tok_emb", "pos_emb", *absent)}
        # the span gradient, and its negation for the fencepost scatter below
        signed = np.zeros((2, *cache.span_vecs.shape))
        d_span = signed[0]
        for order in sorted(cache.head):
            name = "LR"[order]
            xhat, inv_std, act = (cache.head[order][k] for k in ("xhat", "inv_std", "act"))
            d_out = out_grad[i_idx, j_idx, :, order]
            if len(cache.head) == 1:  # one head fills both order slots
                d_out = d_out + out_grad[i_idx, j_idx, :, 1 - order]
            grads[f"w2_{name}"] = d_out.T @ act
            grads[f"b2_{name}"] = d_out.sum(axis=0)
            d = d_out @ p[f"w2_{name}"]
            d *= act > 0
            tmp = np.multiply(d, xhat)
            grads[f"ln_g_{name}"] = tmp.sum(axis=0)
            grads[f"ln_b_{name}"] = d.sum(axis=0)
            d *= p[f"ln_g_{name}"]
            # d_z1 = inv_std / H * (H * d_xhat - sum(d_xhat) - xhat * sum(d_xhat * xhat))
            d_sum = d.sum(axis=1, keepdims=True)
            np.multiply(d, xhat, out=tmp)
            d_dot = tmp.sum(axis=1, keepdims=True)
            d *= self.hidden
            d -= d_sum
            np.multiply(xhat, d_dot, out=tmp)
            d -= tmp
            d *= inv_std / self.hidden
            grads[f"w1_{name}"] = d.T @ cache.span_vecs
            grads[f"b1_{name}"] = d.sum(axis=0)
            d_span += d @ p[f"w1_{name}"]

        # bincount adds its weights in input order, as np.add.at does: into
        # each forward-half column +d_span at j, then -d_span at i; into each
        # backward-half column the reverse
        n_fence, dim = cache.fence.shape
        half = dim // 2
        ends = np.empty((2, len(i_idx), dim), dtype=np.intp)
        ends[0, :, :half] = ends[1, :, half:] = j_idx[:, None]
        ends[0, :, half:] = ends[1, :, :half] = i_idx[:, None]
        ends *= dim
        ends += np.arange(dim)
        np.negative(d_span, out=signed[1])
        d_fence = np.bincount(ends.ravel(), signed.ravel(), minlength=n_fence * dim)
        d_pre = d_fence.reshape(n_fence, dim)
        d_pre *= cache.fence > 0
        grads["mix_w"] = d_pre.T @ cache.emb
        grads["mix_b"] = d_pre.sum(axis=0)
        d_emb = d_pre @ p["mix_w"]
        np.add.at(grads["tok_emb"], cache.ids, d_emb[:, : self.dim])
        grads["pos_emb"][: len(cache.ids)] = d_emb[:, self.dim :]
        return {name: grads[name] for name in p}


_HEAD_PARAMS = ("w1", "b1", "ln_g", "ln_b", "w2", "b2")


def param_shapes(vocab: int, n_labels: int, dim: int, hidden: int, maxlen: int) -> dict[str, tuple]:
    """Parameter shapes, in ``build``'s draw order, which a checkpoint keeps."""
    shapes = {"tok_emb": (vocab, dim), "pos_emb": (maxlen, dim), "mix_w": (dim, 2 * dim), "mix_b": (dim,)}
    head = ((hidden, dim), (hidden,), (hidden,), (hidden,), (n_labels, hidden), (n_labels,))
    for order in "LR":
        shapes.update((f"{kind}_{order}", shape) for kind, shape in zip(_HEAD_PARAMS, head))
    return shapes
