import numpy as np
import pytest

from ordercky.scorer import (
    BOUNDARY,
    UNK,
    ScorerModel,
    SentenceTooLong,
    load_tensors,
    span_index_arrays,
    span_vector,
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
    def test_minimal_span_shape(self):
        model = tiny_model()
        fence = fence_of(model, "alpha", "beta")
        assert span_vector(fence, 0, 1).shape == (model.dim,)

    def test_full_sentence_span_uses_boundaries(self):
        model = tiny_model()
        fence = fence_of(model, "alpha", "beta", "gamma")
        half = model.dim // 2
        v = span_vector(fence, 0, 3)
        assert np.allclose(v[:half], fence[3, :half] - fence[0, :half])
        assert np.allclose(v[half:], fence[0, half:] - fence[3, half:])

    def test_zero_fenceposts_give_zero_vector(self):
        fence = np.zeros((4, 8))
        assert np.array_equal(span_vector(fence, 1, 3), np.zeros(8))

    def test_out_of_range(self):
        fence = np.zeros((3, 8))
        with pytest.raises(IndexError):
            span_vector(fence, 1, 3)
        with pytest.raises(IndexError):
            span_vector(fence, 2, 2)


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

    def test_collapsed_is_left_head(self):
        model = tiny_model()
        chart = model.forward(sent("alpha", "beta"))[0]
        assert np.array_equal(chart.collapsed(), chart.scores[:, :, :, 0])


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


def scalar_objective(model, sentence, out_grad):
    chart, _ = model.forward(sentence)
    return float(np.sum(out_grad * chart.scores))


def finite_difference(model, sentence, out_grad, name, step=1e-4):
    param = model.params[name]
    fd = np.zeros_like(param)
    flat = param.reshape(-1)
    fd_flat = fd.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + step
        up = scalar_objective(model, sentence, out_grad)
        flat[k] = orig - step
        down = scalar_objective(model, sentence, out_grad)
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
        assert model.num_params() <= 2000
        for name in model.params:
            fd = finite_difference(model, sentence, out_grad, name)
            assert max_rel_error(grads[name], fd) <= 1e-4, name

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


def test_save_load_round_trip(tmp_path):
    model = tiny_model(seed=8)
    path = str(tmp_path / "model.npz")
    model.save(path, extra_meta={"note": "test"}, extra_tensors={"rules": np.arange(6.0)})
    loaded, meta, extra = ScorerModel.load(path)
    assert meta["note"] == "test"
    assert np.array_equal(extra["rules"], np.arange(6.0))
    assert loaded.words == model.words and loaded.labels == model.labels
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name], p)
    a = model.forward(sent("alpha", "beta"))[0]
    b = loaded.forward(sent("alpha", "beta"))[0]
    assert np.array_equal(a.scores, b.scores)


def test_container_rejects_wrong_version(tmp_path):
    from ordercky.scorer import save_tensors

    path = str(tmp_path / "bad.npz")
    save_tensors(path, {"x": np.zeros(2)}, {"format_version": 999})
    with pytest.raises(ValueError):
        load_tensors(path)
