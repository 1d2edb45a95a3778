import numpy as np
import pytest

from ordercky.scorer import (
    BOUNDARY,
    UNK,
    ScorerModel,
    SentenceTooLong,
    span_index_arrays,
)

WORDS = ("alpha", "beta", "gamma", "delta")
LABELS = ("A", "B", "C", "D")


def tiny_model(seed=0, dim=8, hidden=8, maxlen=8):
    rng = np.random.default_rng(seed)
    return ScorerModel.build(WORDS, LABELS, rng, dim=dim, hidden=hidden, maxlen=maxlen)


def sent(*words):
    return tuple((w, "T") for w in words)


def fence_of(model, *words):
    """Fencepost vectors h_0..h_n, from the forward cache."""
    return model.forward(sent(*words))[1].fence


class TestEncode:
    def test_fencepost_count_and_dim(self):
        model = tiny_model()
        fence = fence_of(model, "alpha")
        assert fence.shape == (2, model.dim)

    def test_position_matters(self):
        model = tiny_model()
        fence = fence_of(model, "alpha", "alpha")
        # fenceposts 1 and 2 both read "alpha" but different positions
        assert not np.allclose(fence[1], fence[2])

    def test_unknown_word_finite(self):
        model = tiny_model()
        fence = fence_of(model, "never-seen")
        assert np.all(np.isfinite(fence))
        assert np.array_equal(model.word_ids(("never-seen",)), [1, 0])  # boundary, unk

    def test_too_long(self):
        model = tiny_model(maxlen=4)
        with pytest.raises(SentenceTooLong):
            model.forward(sent(*("a",) * 4))


class TestSpanVector:
    """The span vectors ``forward`` keeps in its cache, one row per span
    (cache.i_idx[r], cache.j_idx[r])."""

    def test_minimal_span_shape(self):
        model = tiny_model()
        cache = model.forward(sent("alpha"))[1]
        assert cache.span_vecs.shape == (1, model.dim)

    def test_full_sentence_span_uses_boundaries(self):
        model = tiny_model()
        cache = model.forward(sent("alpha", "beta", "gamma"))[1]
        fence, half = cache.fence, model.dim // 2
        for v, i, j in zip(cache.span_vecs, cache.i_idx, cache.j_idx):
            assert np.array_equal(v[:half], fence[j, :half] - fence[i, :half])
            assert np.array_equal(v[half:], fence[i, half:] - fence[j, half:])

    def test_zero_fenceposts_give_zero_vector(self):
        model = tiny_model()
        model.params["mix_w"][...] = 0.0
        model.params["mix_b"][...] = 0.0
        cache = model.forward(sent("alpha", "beta", "gamma"))[1]
        assert not cache.fence.any() and not cache.span_vecs.any()

    def test_rows_are_exactly_the_spans(self):
        cache = tiny_model().forward(sent("alpha", "beta", "gamma"))[1]
        spans = list(zip(cache.i_idx.tolist(), cache.j_idx.tolist()))
        assert spans == [(i, j) for i in range(3) for j in range(i + 1, 4)]
        assert len(cache.span_vecs) == len(spans)


class TestScoreSpans:
    def test_chart_shape_and_count(self):
        model = tiny_model()
        chart = model.forward(sent("alpha", "beta"))[0]
        assert chart.scores.shape == (3, 3, 4, 2)
        i_idx, _ = span_index_arrays(2)
        assert len(i_idx) == 3  # n(n+1)/2 spans
        assert np.all(np.isfinite(chart.scores))

    def test_zero_output_layer_forces_bias(self):
        model = tiny_model()
        for name in ("L", "R"):
            model.params[f"w2_{name}"][:] = 0.0
            model.params[f"b2_{name}"][:] = np.arange(4.0)
        chart = model.forward(sent("alpha", "beta", "gamma"))[0]
        i_idx, j_idx = span_index_arrays(3)
        for i, j in zip(i_idx, j_idx):
            for o in (0, 1):
                assert np.array_equal(chart.scores[i, j, :, o], np.arange(4.0))

    def test_orders_differ_for_random_heads(self):
        model = tiny_model(seed=3)
        chart = model.forward(sent("alpha", "beta"))[0]
        assert not np.allclose(chart.scores[0, 2, :, 0], chart.scores[0, 2, :, 1])

    def test_determinism(self):
        a = tiny_model(seed=5).forward(sent("alpha", "beta", "gamma"))[0]
        b = tiny_model(seed=5).forward(sent("alpha", "beta", "gamma"))[0]
        assert np.array_equal(a.scores, b.scores)

    def test_one_head_fills_both_order_slots_with_the_left_head(self):
        model = tiny_model()
        both = model.forward(sent("alpha", "beta"))[0]
        tied = model.forward(sent("alpha", "beta"), orders=(0,))[0]
        for o in (0, 1):
            assert np.array_equal(tied.scores[:, :, :, o], both.scores[:, :, :, 0])


def test_layer_norm_statistics():
    # with pre-normalization variance >> eps, the normalized activations have
    # per-vector mean 0 and variance 1 to 1e-9
    model = tiny_model(seed=1)
    for name in ("L", "R"):
        model.params[f"w1_{name}"] *= 1e4
    _, cache = model.forward(sent("alpha", "beta", "gamma"))
    for order in (0, 1):
        xhat = cache.head[order]["xhat"]
        assert np.max(np.abs(xhat.mean(axis=1))) < 1e-9
        assert np.max(np.abs(xhat.var(axis=1) - 1.0)) < 1e-9


def scalar_objective(model, sentence, out_grad, orders=(0, 1)):
    chart, _ = model.forward(sentence, orders=orders)
    return float(np.sum(out_grad * chart.scores))


def finite_difference(model, sentence, out_grad, name, step=1e-4, orders=(0, 1)):
    param = model.params[name]
    fd = np.zeros_like(param)
    flat = param.reshape(-1)
    fd_flat = fd.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + step
        up = scalar_objective(model, sentence, out_grad, orders)
        flat[k] = orig - step
        down = scalar_objective(model, sentence, out_grad, orders)
        flat[k] = orig
        fd_flat[k] = (up - down) / (2 * step)
    return fd


def max_rel_error(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-10)
    err = np.abs(a - b) / scale
    err[(np.abs(a) < 1e-10) & (np.abs(b) < 1e-10)] = 0.0
    return float(err.max()) if err.size else 0.0


class TestBackward:
    def test_zero_out_grad_gives_zero_grads(self):
        model = tiny_model()
        chart, cache = model.forward(sent("alpha", "beta"))
        grads = model.backward(cache, np.zeros_like(chart.scores))
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_gradients_match_finite_differences(self):
        model = tiny_model(seed=11)
        sentence = sent("alpha", "beta", "gamma")
        chart, cache = model.forward(sentence)
        rng = np.random.default_rng(99)
        out_grad = np.zeros_like(chart.scores)
        i_idx, j_idx = span_index_arrays(3)
        out_grad[i_idx, j_idx] = rng.normal(size=(len(i_idx), 4, 2))
        grads = model.backward(cache, out_grad)
        assert sum(p.size for p in model.params.values()) <= 2000
        for name in model.params:
            fd = finite_difference(model, sentence, out_grad, name)
            assert max_rel_error(grads[name], fd) <= 1e-4, name

    def test_one_head_gradients_are_those_of_its_tied_chart(self):
        # the left head fills both order slots, so both slots of out_grad reach it
        model = tiny_model(seed=11)
        sentence = sent("alpha", "beta", "gamma")
        chart, cache = model.forward(sentence, orders=(0,))
        rng = np.random.default_rng(98)
        out_grad = np.zeros_like(chart.scores)
        i_idx, j_idx = span_index_arrays(3)
        out_grad[i_idx, j_idx] = rng.normal(size=(len(i_idx), 4, 2))
        grads = model.backward(cache, out_grad)
        for name in ("w2_L", "b1_L", "mix_w", "tok_emb"):
            fd = finite_difference(model, sentence, out_grad, name, orders=(0,))
            assert max_rel_error(grads[name], fd) <= 1e-4, name
        assert not any(grads[f"{kind}_R"].any() for kind in ("w1", "b1", "ln_g", "ln_b", "w2", "b2"))

    def test_single_entry_out_grad(self):
        model = tiny_model(seed=2)
        sentence = sent("beta", "delta")
        chart, cache = model.forward(sentence)
        out_grad = np.zeros_like(chart.scores)
        out_grad[0, 2, 1, 1] = 1.0
        grads = model.backward(cache, out_grad)
        for name in ("w2_R", "ln_g_R", "mix_w", "tok_emb"):
            fd = finite_difference(model, sentence, out_grad, name)
            assert max_rel_error(grads[name], fd) <= 1e-4, name

    def test_unused_unk_row_has_zero_gradient(self):
        model = tiny_model()
        chart, cache = model.forward(sent("alpha", "beta"))
        out_grad = np.ones_like(chart.scores)
        grads = model.backward(cache, out_grad)
        unk_row = model.word_index[UNK]
        assert np.all(grads["tok_emb"][unk_row] == 0.0)
        assert np.any(grads["tok_emb"][model.word_index[BOUNDARY]] != 0.0)

    def test_no_cache_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            model.backward(None, np.zeros((2, 2, 4, 2)))


# ---------------------------------------------------------------------------
# bit identity with the textbook LayerNorm formulas


def reference_forward(model, sentence, orders):
    """The forward pass written out with one new array per operation, as the
    scorer first computed it; returns the chart and what the backward needs.
    One head fills both order slots."""
    p, n = model.params, len(sentence)
    ids = model.word_ids(tuple(w for w, _ in sentence))
    emb = np.concatenate([p["tok_emb"][ids], p["pos_emb"][: n + 1]], axis=1)
    pre = emb @ p["mix_w"].T + p["mix_b"]
    fence = np.maximum(pre, 0.0)
    half = model.dim // 2
    fwd, bwd = fence[:, :half], fence[:, half:]
    i_idx, j_idx = span_index_arrays(n)
    span_vecs = np.concatenate([fwd[j_idx] - fwd[i_idx], bwd[i_idx] - bwd[j_idx]], axis=1)
    scores = np.zeros((n + 1, n + 1, len(model.labels), 2))
    heads = {}
    for order in orders:
        name = "LR"[order]
        z1 = span_vecs @ p[f"w1_{name}"].T + p[f"b1_{name}"]
        mean = z1.mean(axis=1, keepdims=True)
        var = z1.var(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        xhat = (z1 - mean) * inv_std
        ln_out = xhat * p[f"ln_g_{name}"] + p[f"ln_b_{name}"]
        act = np.maximum(ln_out, 0.0)
        scores[i_idx, j_idx, :, order] = act @ p[f"w2_{name}"].T + p[f"b2_{name}"]
        heads[order] = (xhat, inv_std, ln_out, act)
    if len(orders) == 1:
        scores[..., 1 - orders[0]] = scores[..., orders[0]]
    return scores, (ids, emb, pre, fence, span_vecs, heads)


def reference_backward(model, saved, out_grad):
    p, half = model.params, model.dim // 2
    ids, emb, pre, fence, span_vecs, heads = saved
    i_idx, j_idx = span_index_arrays(len(ids) - 1)
    grads = {name: np.zeros_like(value) for name, value in p.items()}
    d_span = np.zeros_like(span_vecs)
    for order, (xhat, inv_std, ln_out, act) in sorted(heads.items()):
        name = "LR"[order]
        d_out = out_grad[i_idx, j_idx, :, order]
        if len(heads) == 1:  # the one head's gradient reads both order slots
            d_out = out_grad[i_idx, j_idx, :, 0] + out_grad[i_idx, j_idx, :, 1]
        grads[f"w2_{name}"] = d_out.T @ act
        grads[f"b2_{name}"] = d_out.sum(axis=0)
        d_ln_out = (d_out @ p[f"w2_{name}"]) * (ln_out > 0)
        grads[f"ln_g_{name}"] = (d_ln_out * xhat).sum(axis=0)
        grads[f"ln_b_{name}"] = d_ln_out.sum(axis=0)
        d_xhat = d_ln_out * p[f"ln_g_{name}"]
        h = d_xhat.shape[1]
        d_z1 = inv_std / h * (
            h * d_xhat
            - d_xhat.sum(axis=1, keepdims=True)
            - xhat * (d_xhat * xhat).sum(axis=1, keepdims=True)
        )
        grads[f"w1_{name}"] = d_z1.T @ span_vecs
        grads[f"b1_{name}"] = d_z1.sum(axis=0)
        d_span += d_z1 @ p[f"w1_{name}"]
    d_fence = np.zeros_like(fence)
    np.add.at(d_fence[:, :half], j_idx, d_span[:, :half])
    np.add.at(d_fence[:, :half], i_idx, -d_span[:, :half])
    np.add.at(d_fence[:, half:], i_idx, d_span[:, half:])
    np.add.at(d_fence[:, half:], j_idx, -d_span[:, half:])
    d_pre = d_fence * (pre > 0)
    grads["mix_w"] = d_pre.T @ emb
    grads["mix_b"] = d_pre.sum(axis=0)
    d_emb = d_pre @ p["mix_w"]
    np.add.at(grads["tok_emb"], ids, d_emb[:, : model.dim])
    grads["pos_emb"][: len(ids)] = d_emb[:, model.dim :]
    return grads


def assert_same_floats(got, want, what):
    assert got.shape == want.shape and got.dtype == want.dtype, what
    assert np.array_equal(got, want), what
    assert got.tobytes() == want.tobytes(), what  # also the sign of every zero


@pytest.mark.parametrize("flat_head", [False, True], ids=["random", "zero-variance"])
@pytest.mark.parametrize("orders", [(0,), (0, 1)], ids=["L", "LR"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 48])
def test_forward_and_backward_are_bit_identical_to_the_formulas(n, orders, flat_head):
    rng = np.random.default_rng(n)
    labels = tuple(f"X{k}" for k in range(14))
    model = ScorerModel.build(WORDS, labels, rng, dim=64, hidden=250, maxlen=64)
    for name, value in model.params.items():
        if value.ndim == 1:  # move biases and gains off their constant starts
            value += rng.normal(scale=0.5, size=value.shape)
    if flat_head:
        # every span's pre-normalization row is b1_L: a constant row has
        # variance 0, so only eps keeps the normalization finite
        model.params["w1_L"][:] = 0.0
        model.params["b1_L"][:] = 0.25
    sentence = sent(*((WORDS + ("unseen",))[k % 5] for k in range(n)))
    chart, cache = model.forward(sentence, orders=orders)
    want_scores, saved = reference_forward(model, sentence, orders)
    assert_same_floats(chart.scores, want_scores, "chart")
    out_grad = np.zeros_like(chart.scores)
    i_idx, j_idx = span_index_arrays(n)
    out_grad[i_idx, j_idx] = rng.normal(size=(len(i_idx), len(labels), 2))
    grads = model.backward(cache, out_grad)
    want = reference_backward(model, saved, out_grad)
    assert list(grads) == list(model.params)
    for name in model.params:
        assert_same_floats(grads[name], want[name], name)
