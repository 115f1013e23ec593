import numpy as np
import pytest

from gradcheck import check_input_grad, check_param_grads, relative_l2
from qat8.layers import (
    EncoderBlock,
    LayerNorm,
    MultiHeadAttention,
    Parameter,
    QuantizedEmbedding,
    QuantizedLinear,
    attention_mix,
    gelu_backward,
    gelu_forward,
    layer_norm_backward,
    layer_norm_forward,
    merge_heads,
    softmax_backward,
    softmax_forward,
    split_heads,
)
from qat8.quant import dequantize, fake_quantize, quantize, weight_scale
from qat8.tensor import ShapeError

TOL = 1e-3


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# ---------------------------------------------------------------------------
# stateless ops
# ---------------------------------------------------------------------------


def test_softmax_rows_sum_to_one(rng):
    p = softmax_forward(rng.normal(size=(4, 9)).astype(np.float32))
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-6)
    assert (p > 0).all()


def test_softmax_is_shift_invariant(rng):
    x = rng.normal(size=(3, 5)).astype(np.float32)
    np.testing.assert_allclose(softmax_forward(x), softmax_forward(x + 100.0),
                               rtol=1e-5)


def test_softmax_survives_large_logits():
    p = softmax_forward(np.array([[1e4, 0.0, -1e4]], dtype=np.float32))
    assert np.isfinite(p).all()
    assert p[0, 0] == pytest.approx(1.0)


def test_gelu_known_values():
    # tanh approximation: exact at 0, symmetric-ish tails
    assert gelu_forward(np.float32(0.0)) == 0.0
    assert gelu_forward(np.float32(100.0)) == pytest.approx(100.0)
    assert gelu_forward(np.float32(-100.0)) == pytest.approx(0.0, abs=1e-5)
    assert gelu_forward(np.float32(1.0)) == pytest.approx(0.8411920, abs=1e-6)


def test_gelu_gradient_matches_finite_differences(rng):
    x = rng.normal(size=256).astype(np.float32) * 2.0
    up = np.ones_like(x)
    ana = gelu_backward(up, x)
    h = 1e-3
    num = (gelu_forward(x + h).astype(np.float64)
           - gelu_forward(x - h).astype(np.float64)) / (2 * h)
    assert relative_l2(num, ana) < TOL


def test_softmax_gradient_matches_finite_differences(rng):
    x = rng.normal(size=(2, 6)).astype(np.float32)
    proj = rng.normal(size=(2, 6))
    probs = softmax_forward(x)
    ana = softmax_backward(proj.astype(np.float32), probs)
    h = 1e-3
    num = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(x.shape):
        old = float(x[idx])
        x[idx] = old + h
        lp = float(np.sum(softmax_forward(x).astype(np.float64) * proj))
        x[idx] = old - h
        lm = float(np.sum(softmax_forward(x).astype(np.float64) * proj))
        x[idx] = old
        num[idx] = (lp - lm) / (2 * h)
    assert relative_l2(num, ana) < TOL


def test_layer_norm_output_is_normalized(rng):
    x = rng.normal(size=(5, 8)).astype(np.float32) * 3 + 2
    y, _ = layer_norm_forward(x, np.ones(8, np.float32), np.zeros(8, np.float32))
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_gradients_match_finite_differences(rng):
    x = rng.normal(size=(3, 6)).astype(np.float32)
    gain = Parameter(rng.normal(1.0, 0.1, size=6))
    bias = Parameter(rng.normal(0.0, 0.1, size=6))
    proj = rng.normal(size=(3, 6))

    def fwd():
        return layer_norm_forward(x, gain.value, bias.value)[0]

    _, cache = layer_norm_forward(x, gain.value, bias.value)
    gx, gg, gb = layer_norm_backward(proj.astype(np.float32), gain.value, cache)

    h = 1e-3
    for arr, ana in ((x, gx), (gain.value, gg), (bias.value, gb)):
        num = np.zeros(arr.shape)
        for idx in np.ndindex(arr.shape):
            old = float(arr[idx])
            arr[idx] = old + h
            lp = float(np.sum(fwd().astype(np.float64) * proj))
            arr[idx] = old - h
            lm = float(np.sum(fwd().astype(np.float64) * proj))
            arr[idx] = old
            num[idx] = (lp - lm) / (2 * h)
        assert relative_l2(num, ana) < TOL


def test_split_merge_heads_round_trip(rng):
    x = rng.normal(size=(2, 5, 12)).astype(np.float32)
    np.testing.assert_array_equal(merge_heads(split_heads(x, 4)), x)


# ---------------------------------------------------------------------------
# QuantizedLinear
# ---------------------------------------------------------------------------


def test_linear_matches_plain_affine_when_quant_disabled(rng):
    fc = QuantizedLinear(6, 4, rng=rng)
    x = rng.normal(size=(3, 6)).astype(np.float32)
    expected = x @ fc.weight.value.T + fc.bias.value
    np.testing.assert_allclose(fc.forward(x), expected, rtol=1e-6)


def test_linear_handles_leading_batch_axes(rng):
    fc = QuantizedLinear(6, 4, rng=rng)
    x = rng.normal(size=(2, 5, 6)).astype(np.float32)
    out = fc.forward(x)
    assert out.shape == (2, 5, 4)
    np.testing.assert_allclose(out[1, 3], fc.forward(x[1, 3:4])[0], rtol=1e-6)


def test_linear_rejects_wrong_last_dim(rng):
    with pytest.raises(ShapeError):
        QuantizedLinear(6, 4, rng=rng).forward(np.zeros((2, 5), np.float32))


def test_linear_backward_requires_training_forward(rng):
    fc = QuantizedLinear(3, 2, rng=rng)
    fc.forward(np.zeros((1, 3), np.float32), training=False)
    with pytest.raises(RuntimeError):
        fc.backward(np.zeros((1, 2), np.float32))


def test_linear_fp32_gradients(rng):
    fc = QuantizedLinear(5, 4, rng=rng)
    fc.weight.value = (rng.normal(size=(4, 5)) * 0.5).astype(np.float32)
    x = rng.normal(size=(3, 5)).astype(np.float32)
    overall, errs = check_param_grads(
        lambda training: fc.forward(x, training),
        fc.backward, fc.named_params(), rng, out_shape=(3, 4))
    assert overall < TOL, errs
    err = check_input_grad(lambda training: fc.forward(x, training),
                           fc.backward, x, rng, out_shape=(3, 4))
    assert err < TOL


def test_quantized_linear_forward_uses_grid_operands(rng):
    from qat8.quant import activation_scale

    fc = QuantizedLinear(6, 4, rng=rng, m=127)
    x = rng.normal(size=(8, 6)).astype(np.float32)
    out = fc.forward(x, training=True)
    x_used, w_used, _ = fc._cache
    # grid membership: re-fake-quantizing is a no-op
    s_x = activation_scale(fc.input_tracker, 127)
    np.testing.assert_array_equal(fake_quantize(x_used, s_x), x_used)
    s_w = weight_scale(fc.weight.value)
    np.testing.assert_array_equal(fake_quantize(w_used, s_w), w_used)
    np.testing.assert_allclose(out, x_used @ w_used.T + fc.bias.value,
                               rtol=1e-5, atol=1e-6)


def test_quantized_linear_ste_backward_is_exact(rng):
    # straight-through: grads are plain matmuls against the quantized operands
    fc = QuantizedLinear(6, 4, rng=rng, m=127)
    x = rng.normal(size=(8, 6)).astype(np.float32)
    fc.forward(x, training=True)
    x_used, w_used, _ = fc._cache
    up = rng.normal(size=(8, 4)).astype(np.float32)
    grad_x = fc.backward(up)
    np.testing.assert_array_equal(grad_x, up @ w_used)
    np.testing.assert_array_equal(fc.weight.grad, up.T @ x_used)
    np.testing.assert_array_equal(fc.bias.grad, up.sum(axis=0))


def test_quantized_linear_ste_has_no_range_mask(rng):
    # inputs far beyond the tracked range still receive full gradient
    fc = QuantizedLinear(4, 3, rng=rng, m=127)
    fc.forward(np.full((2, 4), 0.1, np.float32), training=True)  # seeds EMA small
    x = np.full((2, 4), 50.0, np.float32)  # way outside the clip range
    fc.forward(x, training=True)
    grad_x = fc.backward(np.ones((2, 3), np.float32))
    assert (np.abs(grad_x) > 0).all()


def test_master_weights_stay_off_grid_fp32(rng):
    fc = QuantizedLinear(6, 4, rng=rng, m=127)
    before = fc.weight.value.copy()
    fc.forward(rng.normal(size=(2, 6)).astype(np.float32), training=True)
    assert fc.weight.value.dtype == np.float32
    np.testing.assert_array_equal(fc.weight.value, before)  # forward never edits


def test_ema_ordering_flag(rng):
    x1 = np.full((1, 4), 2.0, np.float32)
    x2 = np.full((1, 4), 4.0, np.float32)
    fc = QuantizedLinear(4, 2, rng=np.random.default_rng(0), m=127)
    fc.forward(x1, training=True)  # the first batch seeds the EMA
    fc.forward(x2, training=True)
    # the second batch folds into the EMA before it is quantized
    assert fc.input_tracker.running_max == pytest.approx(0.9 * 2.0 + 0.1 * 4.0)
    # so it saturates at the updated range, not at the seed's 2.0
    x_used, _, _ = fc._cache
    np.testing.assert_allclose(x_used, fc.input_tracker.running_max, rtol=1e-6)


# ---------------------------------------------------------------------------
# QuantizedEmbedding
# ---------------------------------------------------------------------------


def test_embedding_lookup_plain_and_quantized(rng):
    emb = QuantizedEmbedding(10, 4, rng=rng)
    ids = np.array([[0, 3], [9, 3]])
    np.testing.assert_array_equal(emb.forward(ids), emb.table.value[ids])

    emb_q = QuantizedEmbedding(10, 4, rng=rng, m=127)
    out = emb_q.forward(ids)
    scale = weight_scale(emb_q.table.value)
    expected = dequantize(quantize(emb_q.table.value, scale), scale)[ids]
    np.testing.assert_array_equal(out, expected)


def test_embedding_rejects_bad_ids(rng):
    emb = QuantizedEmbedding(10, 4, rng=rng)
    with pytest.raises(IndexError):
        emb.forward(np.array([[10]]))
    with pytest.raises(IndexError):
        emb.forward(np.array([[-1]]))
    with pytest.raises(TypeError):
        emb.forward(np.array([[1.5]]))


def test_embedding_backward_scatters_with_duplicates(rng):
    emb = QuantizedEmbedding(10, 3, rng=rng)
    ids = np.array([[2, 2, 5]])
    emb.forward(ids, training=True)
    up = np.ones((1, 3, 3), np.float32)
    emb.backward(up)
    np.testing.assert_array_equal(emb.table.grad[2], [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(emb.table.grad[5], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(emb.table.grad[0], [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# attention and blocks
# ---------------------------------------------------------------------------


def _reference_attention(x, layer):
    """Independent per-head einsum implementation used as an oracle."""
    def affine(t, fc):
        return t @ fc.weight.value.T + fc.bias.value

    q, k, v = (affine(x, p) for p in (layer.q_proj, layer.k_proj, layer.v_proj))
    head_dim = layer.dim // layer.num_heads
    outs = []
    for head in range(layer.num_heads):
        sl = slice(head * head_dim, (head + 1) * head_dim)
        scores = np.einsum("btd,bsd->bts", q[..., sl], k[..., sl]) / np.sqrt(head_dim)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        outs.append(np.einsum("bts,bsd->btd", probs, v[..., sl]))
    return affine(np.concatenate(outs, axis=-1), layer.out_proj)


def test_attention_matches_independent_reference(rng):
    layer = MultiHeadAttention(8, 2, rng=rng)
    for p in (layer.q_proj, layer.k_proj, layer.v_proj, layer.out_proj):
        p.weight.value = (rng.normal(size=p.weight.value.shape) * 0.3).astype(np.float32)
        p.bias.value = rng.normal(size=p.bias.value.shape).astype(np.float32) * 0.1
    x = rng.normal(size=(2, 5, 8)).astype(np.float32)
    np.testing.assert_allclose(layer.forward(x), _reference_attention(x, layer),
                               rtol=1e-4, atol=1e-5)


def test_attention_mix_matches_layer_internals(rng):
    q = rng.normal(size=(2, 4, 8)).astype(np.float32)
    k = rng.normal(size=(2, 4, 8)).astype(np.float32)
    v = rng.normal(size=(2, 4, 8)).astype(np.float32)
    ctx, probs = attention_mix(q, k, v, 2)
    assert ctx.shape == (2, 4, 8)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-6)


def test_attention_gradients(rng):
    layer = MultiHeadAttention(8, 2, rng=rng)
    for _, p in layer.named_params():
        p.value = (rng.normal(size=p.value.shape) * 0.3).astype(np.float32)
    x = rng.normal(size=(2, 4, 8)).astype(np.float32)
    overall, errs = check_param_grads(lambda training: layer.forward(x, training),
                                      layer.backward, layer.named_params(), rng,
                                      out_shape=(2, 4, 8))
    assert overall < TOL, errs
    err = check_input_grad(lambda training: layer.forward(x, training),
                           layer.backward, x, rng, out_shape=(2, 4, 8))
    assert err < TOL


def test_encoder_block_gradients(rng):
    block = EncoderBlock(8, 2, 16, rng=rng)
    for _, p in block.named_params():
        if p.value.ndim == 2:
            p.value = (rng.normal(size=p.value.shape) * 0.3).astype(np.float32)
    x = rng.normal(size=(2, 4, 8)).astype(np.float32)
    overall, errs = check_param_grads(lambda training: block.forward(x, training),
                                      block.backward, block.named_params(), rng,
                                      out_shape=(2, 4, 8))
    assert overall < TOL, errs
    err = check_input_grad(lambda training: block.forward(x, training),
                           block.backward, x, rng, out_shape=(2, 4, 8))
    assert err < TOL


def test_encoder_block_backward_requires_forward(rng):
    block = EncoderBlock(8, 2, 16, rng=rng)
    with pytest.raises(RuntimeError):
        block.backward(np.zeros((1, 2, 8), np.float32))
