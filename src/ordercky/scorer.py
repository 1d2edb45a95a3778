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

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

LN_EPS = 1e-5
UNK = "<UNK>"
BOUNDARY = "<START>"

FORMAT_VERSION = 1


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

    def score(self, i: int, j: int, label: str, order: int) -> float:
        return float(self.scores[i, j, self.labels.index(label), order])

    def collapsed(self) -> np.ndarray:
        """Order-free scores for the plain span decoder: the left-order head."""
        return self.scores[:, :, :, 0]


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
    pre_mix: np.ndarray    # (n+1, d) before the ReLU
    fence: np.ndarray      # (n+1, d) fencepost vectors
    i_idx: np.ndarray
    j_idx: np.ndarray
    span_vecs: np.ndarray  # (spans, d)
    head: dict[int, dict[str, np.ndarray]]


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
        dim: int = 64,
        hidden: int = 250,
        maxlen: int = 64,
    ) -> "ScorerModel":
        """Vocabulary rows for UNK and the boundary symbol are added here."""
        vocab = (UNK, BOUNDARY) + tuple(w for w in words if w not in (UNK, BOUNDARY))
        n_labels = len(labels)

        def glorot(shape):
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            return rng.uniform(-bound, bound, size=shape)

        params: dict[str, np.ndarray] = {
            "tok_emb": rng.uniform(-0.5, 0.5, size=(len(vocab), dim)),
            "pos_emb": rng.uniform(-0.5, 0.5, size=(maxlen, dim)),
            "mix_w": glorot((dim, 2 * dim)),
            "mix_b": np.zeros(dim),
        }
        for order in ("L", "R"):
            params[f"w1_{order}"] = glorot((hidden, dim))
            params[f"b1_{order}"] = np.zeros(hidden)
            params[f"ln_g_{order}"] = np.ones(hidden)
            params[f"ln_b_{order}"] = np.zeros(hidden)
            params[f"w2_{order}"] = glorot((n_labels, hidden))
            params[f"b2_{order}"] = np.zeros(n_labels)
        return cls(vocab, tuple(labels), dim, hidden, maxlen, params)

    def num_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def word_ids(self, words: tuple[str, ...]) -> np.ndarray:
        ids = [self.word_index[BOUNDARY]]
        ids.extend(self.word_index.get(w, self._unk) for w in words)
        return np.asarray(ids, dtype=np.intp)

    def forward(
        self, sentence: tuple[tuple[str, str], ...], orders: tuple[int, ...] = (0, 1)
    ) -> tuple[SpanScoreChart, ForwardCache]:
        """Chart and cache; ``orders=(0,)`` skips the right-order head for
        pipelines (the plain span decoder) that never read it.  The cache
        holds the fencepost vectors h_0..h_n as ``fence``."""
        words = tuple(w for w, _ in sentence)
        n = len(words)
        if n >= self.maxlen:
            raise SentenceTooLong(f"sentence length {n} >= maxlen {self.maxlen}")
        ids = self.word_ids(words)
        emb = np.concatenate(
            [self.params["tok_emb"][ids], self.params["pos_emb"][: n + 1]], axis=1
        )
        pre = emb @ self.params["mix_w"].T + self.params["mix_b"]
        fence = np.maximum(pre, 0.0)
        half = self.dim // 2
        fwd, bwd = fence[:, :half], fence[:, half:]
        i_idx, j_idx = span_index_arrays(n)
        span_vecs = np.concatenate(
            [fwd[j_idx] - fwd[i_idx], bwd[i_idx] - bwd[j_idx]], axis=1
        )
        scores = np.zeros((n + 1, n + 1, len(self.labels), 2))
        head_cache: dict[int, dict[str, np.ndarray]] = {}
        for order, name in ((o, "LR"[o]) for o in orders):
            z1 = span_vecs @ self.params[f"w1_{name}"].T + self.params[f"b1_{name}"]
            mean = z1.mean(axis=1, keepdims=True)
            var = z1.var(axis=1, keepdims=True)
            inv_std = 1.0 / np.sqrt(var + LN_EPS)
            xhat = (z1 - mean) * inv_std
            ln_out = xhat * self.params[f"ln_g_{name}"] + self.params[f"ln_b_{name}"]
            act = np.maximum(ln_out, 0.0)
            out = act @ self.params[f"w2_{name}"].T + self.params[f"b2_{name}"]
            scores[i_idx, j_idx, :, order] = out
            head_cache[order] = {
                "xhat": xhat, "inv_std": inv_std, "ln_out": ln_out, "act": act,
            }
        chart = SpanScoreChart(sentence=tuple(sentence), labels=self.labels, scores=scores)
        cache = ForwardCache(
            ids=ids, emb=emb, pre_mix=pre, fence=fence,
            i_idx=i_idx, j_idx=j_idx, span_vecs=span_vecs, head=head_cache,
        )
        return chart, cache

    def backward(self, cache: ForwardCache, out_grad: np.ndarray) -> dict[str, np.ndarray]:
        """Exact gradients of sum(out_grad * chart) w.r.t. every parameter."""
        if cache is None:
            raise ValueError("backward requires the cache from a forward pass")
        half = self.dim // 2
        i_idx, j_idx = cache.i_idx, cache.j_idx
        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        d_span = np.zeros_like(cache.span_vecs)
        for order in sorted(cache.head):
            name = "LR"[order]
            hc = cache.head[order]
            d_out = out_grad[i_idx, j_idx, :, order]
            grads[f"w2_{name}"] = d_out.T @ hc["act"]
            grads[f"b2_{name}"] = d_out.sum(axis=0)
            d_act = d_out @ self.params[f"w2_{name}"]
            d_ln_out = d_act * (hc["ln_out"] > 0)
            grads[f"ln_g_{name}"] = (d_ln_out * hc["xhat"]).sum(axis=0)
            grads[f"ln_b_{name}"] = d_ln_out.sum(axis=0)
            d_xhat = d_ln_out * self.params[f"ln_g_{name}"]
            h_dim = d_xhat.shape[1]
            d_z1 = (
                hc["inv_std"] / h_dim
                * (
                    h_dim * d_xhat
                    - d_xhat.sum(axis=1, keepdims=True)
                    - hc["xhat"] * (d_xhat * hc["xhat"]).sum(axis=1, keepdims=True)
                )
            )
            grads[f"w1_{name}"] = d_z1.T @ cache.span_vecs
            grads[f"b1_{name}"] = d_z1.sum(axis=0)
            d_span += d_z1 @ self.params[f"w1_{name}"]

        d_fence = np.zeros_like(cache.fence)
        np.add.at(d_fence[:, :half], j_idx, d_span[:, :half])
        np.add.at(d_fence[:, :half], i_idx, -d_span[:, :half])
        np.add.at(d_fence[:, half:], i_idx, d_span[:, half:])
        np.add.at(d_fence[:, half:], j_idx, -d_span[:, half:])

        d_pre = d_fence * (cache.pre_mix > 0)
        grads["mix_w"] = d_pre.T @ cache.emb
        grads["mix_b"] = d_pre.sum(axis=0)
        d_emb = d_pre @ self.params["mix_w"]
        np.add.at(grads["tok_emb"], cache.ids, d_emb[:, : self.dim])
        grads["pos_emb"][: len(cache.ids)] = d_emb[:, self.dim :]
        return grads

    def save(self, path: str, extra_meta: Optional[dict] = None,
             extra_tensors: Optional[dict[str, np.ndarray]] = None) -> None:
        meta = {
            "format_version": FORMAT_VERSION,
            "words": list(self.words),
            "labels": list(self.labels),
            "dim": self.dim,
            "hidden": self.hidden,
            "maxlen": self.maxlen,
        }
        if extra_meta:
            meta.update(extra_meta)
        save_tensors(path, dict(self.params, **(extra_tensors or {})), meta)

    @classmethod
    def load(cls, path: str) -> tuple["ScorerModel", dict, dict[str, np.ndarray]]:
        """Model, metadata and the tensors that are not parameters; a missing,
        malformed or non-finite entry raises a ValueError naming it."""
        tensors, meta = load_tensors(path)
        words = meta_value(path, meta, "words", tuple)
        for symbol in (UNK, BOUNDARY):
            if symbol not in words:
                raise ValueError(f"{path}: checkpoint metadata 'words' lacks {symbol!r}")
        labels = meta_value(path, meta, "labels", tuple)
        dim, hidden, maxlen = (meta_value(path, meta, key, int) for key in ("dim", "hidden", "maxlen"))
        shapes = _param_shapes(len(words), len(labels), dim, hidden, maxlen)
        params = {name: checked_tensor(path, tensors, name, shape) for name, shape in shapes.items()}
        for name in shapes:
            del tensors[name]
        return cls(words, labels, dim, hidden, maxlen, params), meta, tensors


def _param_shapes(vocab: int, n_labels: int, dim: int, hidden: int, maxlen: int) -> dict[str, tuple]:
    shapes = {"tok_emb": (vocab, dim), "pos_emb": (maxlen, dim), "mix_w": (dim, 2 * dim), "mix_b": (dim,)}
    for order in ("L", "R"):
        shapes.update({
            f"w1_{order}": (hidden, dim), f"b1_{order}": (hidden,), f"ln_g_{order}": (hidden,),
            f"ln_b_{order}": (hidden,), f"w2_{order}": (n_labels, hidden), f"b2_{order}": (n_labels,),
        })
    return shapes


def span_vector(fence: np.ndarray, i: int, j: int) -> np.ndarray:
    """v(i, j) from fencepost vectors: forward half differenced at (j, i),
    backward half differenced at (i, j)."""
    n = fence.shape[0] - 1
    if not (0 <= i < j <= n):
        raise IndexError(f"span ({i}, {j}) out of range for {n} tokens")
    half = fence.shape[1] // 2
    return np.concatenate(
        [fence[j, :half] - fence[i, :half], fence[i, half:] - fence[j, half:]]
    )


def save_tensors(path: str, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Versioned key->tensor container: an uncompressed .npz whose entries are
    row-major float64 arrays plus one JSON metadata string under ``__meta__``."""
    payload = {k: np.ascontiguousarray(v, dtype=np.float64) for k, v in tensors.items()}
    payload["__meta__"] = np.array(json.dumps(meta))
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_tensors(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["__meta__"]))
        if meta.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported model format: {meta.get('format_version')}")
        tensors = {k: data[k] for k in data.files if k != "__meta__"}
    return tensors, meta


def meta_value(path: str, meta: dict, key: str, cast):
    """``cast(meta[key])``, or a ValueError naming the file and the key."""
    if key not in meta:
        raise ValueError(f"{path}: checkpoint metadata lacks {key!r}")
    try:
        return cast(meta[key])
    except (TypeError, ValueError):
        raise ValueError(f"{path}: checkpoint metadata {key!r} is malformed") from None


def checked_tensor(path: str, tensors: dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    """``tensors[name]`` if present, of ``shape`` and finite; else a ValueError
    naming the file and the tensor."""
    if name not in tensors:
        raise ValueError(f"{path}: checkpoint lacks tensor {name!r}")
    value = tensors[name]
    if value.shape != shape:
        raise ValueError(f"{path}: tensor {name!r} has shape {value.shape}, expected {shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"{path}: tensor {name!r} has non-finite values")
    return value
