import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qat8.model
from qat8.format import deserialize, serialize
from qat8.layers import INT32_MAX, QuantizedLinearFrozen
from qat8.model import ModelConfig, TransformerEncoderModel
from qat8.optim import Adam
from qat8.quant import EmaTracker, TrackerStateError, dequantize, quantize, weight_scale
from qat8.runtime import (
    DynamicQuantLinear,
    ExportError,
    dq_quantize,
    dynamic_linear_infer,
    export,
    int8_linear_infer,
)
from qat8.task import SyntheticTask
from qat8.tensor import ShapeError
from qat8.training import TrainConfig, softmax_cross_entropy, train

TINY = ModelConfig(vocab_size=8, max_seq_len=4, num_classes=2, dim=8,
                   num_heads=2, ffn_dim=16, num_layers=1)


def _trained_qat_model(epochs=1, seed=0, config=TINY):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 8, size=(128, 4))
    labels = (ids[:, 0] >= 4).astype(np.int64)
    model = TransformerEncoderModel(config, quant_enabled=True, seed=seed)
    train(model, ids, labels, TrainConfig(epochs=epochs, batch_size=32, seed=seed))
    return model, ids, labels


@pytest.fixture(scope="module")
def four_kinds():
    qat, _, _ = _trained_qat_model()
    fp32 = TransformerEncoderModel(TINY, quant_enabled=False, seed=0)
    return {"fp32": fp32, "qat": qat, "frozen": export(qat), "dq": dq_quantize(fp32)}


# ---------------------------------------------------------------------------
# single-layer integer pipeline
# ---------------------------------------------------------------------------


def test_scalar_pipeline_known_values():
    # x=0.1 @ S_x=127 -> 13; w=0.5 @ S_w=254 -> 127; b=0.1 @ S_b=32258 -> 3226
    layer = QuantizedLinearFrozen(
        weight_q=np.array([[127]], dtype=np.int8),
        weight_scale=np.float32(254.0),
        input_scale=np.float32(127.0),
        bias_q=np.array([3226], dtype=np.int32),
    )
    assert layer.bias_scale == np.float32(127.0 * 254.0)
    out = int8_linear_infer(layer, np.array([[0.1]], dtype=np.float32))
    # acc = 13 * 127 + 3226 = 4877; 4877 / 32258 = 0.15118730...
    assert out[0, 0] == pytest.approx(4877.0 / 32258.0, abs=1e-7)


def test_integer_linear_matches_fake_quant_reference():
    rng = np.random.default_rng(1)
    for _ in range(50):
        k = int(rng.integers(1, 64))
        n = int(rng.integers(1, 16))
        rows = int(rng.integers(1, 8))
        w = rng.uniform(-1, 1, size=(n, k)).astype(np.float32)
        x = rng.uniform(-1, 1, size=(rows, k)).astype(np.float32)
        b = rng.uniform(-1, 1, size=n).astype(np.float32)
        s_w = weight_scale(w)
        s_x = np.float32(127.0) / np.float32(np.abs(x).max())
        bias_scale = np.float32(s_x) * np.float32(s_w)
        layer = QuantizedLinearFrozen(
            weight_q=quantize(w, s_w),
            weight_scale=s_w,
            input_scale=s_x,
            bias_q=quantize(b, bias_scale, INT32_MAX).astype(np.int32),
        )
        got = int8_linear_infer(layer, x)
        ref = (dequantize(quantize(x, s_x), s_x)
               @ dequantize(layer.weight_q, s_w).T
               + dequantize(layer.bias_q, bias_scale))
        np.testing.assert_allclose(got, ref, atol=1e-4)


def test_int8_linear_rejects_wrong_width():
    layer = QuantizedLinearFrozen(
        weight_q=np.zeros((2, 3), dtype=np.int8), weight_scale=np.float32(1),
        input_scale=np.float32(1), bias_q=np.zeros(2, dtype=np.int32))
    with pytest.raises(ShapeError):
        int8_linear_infer(layer, np.zeros((1, 4), dtype=np.float32))


def test_dynamic_linear_uses_per_tensor_scale():
    rng = np.random.default_rng(2)
    w = rng.uniform(-1, 1, size=(3, 5)).astype(np.float32)
    b = rng.uniform(-1, 1, size=3).astype(np.float32)
    layer = DynamicQuantLinear(weight_q=quantize(w, weight_scale(w)),
                               weight_scale=weight_scale(w), bias=b)
    x = rng.uniform(-4, 4, size=(6, 5)).astype(np.float32)
    got = dynamic_linear_infer(layer, x)
    s_x = np.float32(127.0) / np.float32(np.abs(x).max())
    x_q = quantize(x, s_x)
    acc = x_q.astype(np.int64) @ layer.weight_q.T.astype(np.int64)
    ref = acc.astype(np.float32) / (np.float32(s_x) * layer.weight_scale) + b
    np.testing.assert_allclose(got, ref, atol=1e-6)
    # scaling the input rescales the quantization grid with it
    got_scaled = dynamic_linear_infer(layer, 10.0 * x)
    np.testing.assert_allclose(got_scaled - b, 10.0 * (got - b), rtol=1e-3, atol=1e-3)


# ---------------------------------------------------------------------------
# model export
# ---------------------------------------------------------------------------


def test_export_requires_qat_model():
    model = TransformerEncoderModel(TINY, quant_enabled=False, seed=0)
    with pytest.raises(ExportError):
        export(model)


def test_export_requires_initialized_trackers():
    model = TransformerEncoderModel(TINY, quant_enabled=True, seed=0)
    with pytest.raises(ExportError, match="q_proj"):
        export(model)


def test_export_freezes_scales_and_bias():
    model, ids, _ = _trained_qat_model()
    layers = dict(export(model).named_modules())
    for name, layer in model.named_qlinears():
        blk_fc = layers[name]
        s_w = weight_scale(layer.weight.value)
        np.testing.assert_array_equal(blk_fc.weight_q,
                                      quantize(layer.weight.value, s_w))
        assert blk_fc.weight_scale == s_w
        expected_sx = np.float32(127.0) / np.float32(layer.input_tracker.running_max)
        assert blk_fc.input_scale == expected_sx
        bias_scale = np.float32(blk_fc.input_scale) * np.float32(s_w)
        np.testing.assert_array_equal(
            blk_fc.bias_q,
            quantize(layer.bias.value, bias_scale, INT32_MAX).astype(np.int32))


def test_frozen_model_matches_fake_quant_eval_path():
    model, ids, _ = _trained_qat_model(epochs=2)
    frozen = export(model)
    rng = np.random.default_rng(3)
    probe = rng.integers(0, 8, size=(64, 4))
    # eval runs the Int8 layers export builds, so the two agree bit for bit
    np.testing.assert_array_equal(model.predict_logits(probe), frozen.predict_logits(probe))


@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulation_equals_frozen_at_any_batch_split(bits, seed):
    model, _, _ = _trained_qat_model(seed=seed, config=replace(TINY, bits=bits))
    probe = np.random.default_rng(10 + seed).integers(0, 8, size=(48, 4))
    full = model.predict_logits(probe)
    rows = np.concatenate([model.predict_logits(probe[i:i + 1]) for i in range(len(probe))])
    np.testing.assert_array_equal(rows, full)
    np.testing.assert_array_equal(full, export(model).predict_logits(probe))


# Adam's second moment can overflow on these draws (ROADMAP item 4)
@pytest.mark.filterwarnings("default:overflow encountered in multiply:RuntimeWarning:qat8.optim")
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(bits=st.integers(2, 8), num_heads=st.integers(1, 3), head_dim=st.integers(1, 4),
       ffn_dim=st.integers(1, 12), num_layers=st.integers(1, 2),
       seq_len=st.integers(1, 6), seed=st.integers(0, 3))
def test_every_config_simulates_its_export_and_round_trips(bits, num_heads, head_dim, ffn_dim,
                                                           num_layers, seq_len, seed):
    config = ModelConfig(vocab_size=8, max_seq_len=seq_len, num_classes=2,
                         dim=num_heads * head_dim, num_heads=num_heads, ffn_dim=ffn_dim,
                         num_layers=num_layers, bits=bits)
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 8, size=(64, seq_len))
    labels = (ids[:, 0] >= 4).astype(np.int64)
    models = {}
    for kind, quant_enabled in (("fp32", False), ("qat", True)):
        models[kind] = TransformerEncoderModel(config, quant_enabled=quant_enabled, seed=seed)
        train(models[kind], ids, labels, TrainConfig(epochs=1, batch_size=32, seed=seed))
    models["frozen"] = export(models["qat"])
    models["dq"] = dq_quantize(models["fp32"])

    # the simulation is the exported model, whole-batch and row by row
    probe = rng.integers(0, 8, size=(16, seq_len))
    full = models["qat"].predict_logits(probe)
    np.testing.assert_array_equal(full, models["frozen"].predict_logits(probe))
    for i in range(len(probe)):
        np.testing.assert_array_equal(models["qat"].predict_logits(probe[i:i + 1]), full[i:i + 1])
        np.testing.assert_array_equal(models["frozen"].predict_logits(probe[i:i + 1]),
                                      full[i:i + 1])
    # every kind's bytes survive a load, and the loaded model scores the same
    for kind, model in models.items():
        data = serialize(model)
        loaded = deserialize(data)
        assert serialize(loaded) == data, kind
        np.testing.assert_array_equal(loaded.predict_logits(probe), model.predict_logits(probe))


def _write(model, write):
    """Change the model the way ``write`` names; returns the model to score."""
    if write == "weight in place":
        model.blocks[0].fc_expand.weight.value *= 1.5
    elif write == "weight reassigned":
        model.classifier.weight.value = model.classifier.weight.value[::-1].copy()
    elif write == "bias":
        model.classifier.bias.value += 0.5
    elif write == "tracker changed":
        model.blocks[0].attn.v_proj.input_tracker.running_max *= 0.5
    elif write == "tracker replaced":
        old = model.classifier.input_tracker
        model.classifier.input_tracker = EmaTracker(old.decay, 8 * old.running_max, True)
    elif write == "embedding table":
        model.token_emb.table.value *= -1.0
    elif write == "Adam step":
        ids = np.random.default_rng(7).integers(0, 8, size=(16, 4))
        logits = model.forward(ids, training=True)
        _, d_logits = softmax_cross_entropy(logits, (ids[:, 0] >= 4).astype(np.int64))
        model.zero_grads()
        model.backward(d_logits)
        Adam(model.parameters(), lr=1e-2).step()
    elif write == "deserialize":
        model = deserialize(serialize(model))
    return model


WRITES = ["weight in place", "weight reassigned", "bias", "tracker changed",
          "tracker replaced", "embedding table", "Adam step", "deserialize"]


@pytest.mark.parametrize("write", WRITES)
def test_simulation_notices_every_write(write):
    model, ids, _ = _trained_qat_model()
    probe = ids[:32]
    before = model.predict_logits(probe)   # builds the cached Int8 model
    model = _write(model, write)
    after = model.predict_logits(probe)
    if write != "deserialize":
        assert not np.array_equal(after, before)
    np.testing.assert_array_equal(after, export(model).predict_logits(probe))


def test_simulation_reuses_its_int8_model_until_a_write(monkeypatch):
    model, ids, _ = _trained_qat_model()
    probe = ids[:32]
    before = model.predict_logits(probe)   # builds the Int8 model
    built = []
    for name in ("freeze_linear", "freeze_embedding"):
        freeze = getattr(qat8.model, name)
        monkeypatch.setattr(qat8.model, name,
                            lambda *args, freeze=freeze: built.append(args) or freeze(*args))
    np.testing.assert_array_equal(model.predict_logits(probe), before)
    assert built == []
    _write(model, "bias")
    model.predict_logits(probe)
    assert len(built) == len(model.named_qlinears()) + 2  # each FC and embedding


def test_simulation_needs_tracker_state():
    model = TransformerEncoderModel(TINY, quant_enabled=True, seed=0)
    with pytest.raises(TrackerStateError):
        model.predict_logits(np.zeros((1, 4), dtype=np.int64))


def test_frozen_weights_are_int8():
    model, _, _ = _trained_qat_model()
    layers = dict(export(model).named_modules())
    for name, _ in model.named_qlinears():
        assert layers[name].weight_q.dtype == np.int8
        assert layers[name].bias_q.dtype == np.int32
    assert layers["token_emb"].table_q.dtype == np.int8
    assert layers["pos_emb"].table_q.dtype == np.int8


def test_export_rejects_a_bias_that_could_wrap_int32():
    # a tiny frozen input range and a bias of 1.0 put bias_q past 2**31 - 1;
    # clipped there, `acc += bias_q` would wrap and flip the logits' sign
    model, _, _ = _trained_qat_model()
    model.classifier.input_tracker.running_max = 1e-4
    model.classifier.bias.value[:] = 1.0
    with pytest.raises(ExportError, match="classifier"):
        export(model)
    # the simulation runs the same Int8 layer, so it refuses it as well
    with pytest.raises(ExportError, match="could wrap, in classifier$"):
        model.predict_logits(np.zeros((4, 4), dtype=np.int64))


def test_simulation_names_every_layer_export_names():
    model, _, _ = _trained_qat_model()
    layers = dict(model.named_modules())
    for name in ("blocks.0.fc_reduce", "classifier"):
        layers[name].input_tracker.running_max = 1e-4
        layers[name].bias.value[:] = 1.0
    for run in (lambda: export(model),
                lambda: model.predict_logits(np.zeros((4, 4), dtype=np.int64))):
        with pytest.raises(ExportError, match="could wrap, in blocks.0.fc_reduce, classifier$"):
            run()


@pytest.mark.parametrize("name", ["blocks.0.attn.q_proj", "blocks.0.fc_expand",
                                  "blocks.0.fc_reduce", "classifier"])
@pytest.mark.parametrize("index", [0, -1])
def test_int32_accumulator_bound_is_exact(four_kinds, name, index):
    frozen = export(four_kinds["qat"])
    assert frozen.overflowing_layers() == []
    layer = dict(frozen.named_modules())[name]
    headroom = INT32_MAX - layer.weight_q.shape[1] * 127 ** 2
    for peak, flagged in ((headroom, []), (headroom + 1, [name])):
        for sign in (1, -1):
            layer.bias_q[index] = sign * peak
            assert frozen.overflowing_layers() == flagged
    layer.bias_q[index] = -INT32_MAX - 1
    assert frozen.overflowing_layers() == [name]


@pytest.mark.parametrize("convert", [export, dq_quantize], ids=["export", "dq"])
@pytest.mark.parametrize("kind", ["frozen", "dq"])
def test_an_integer_model_is_not_converted_again(four_kinds, kind, convert):
    with pytest.raises(ExportError, match="already an integer model"):
        convert(four_kinds[kind])


@pytest.mark.parametrize("kind", ["frozen", "dq"])
def test_integer_models_run_inference_only(four_kinds, kind):
    with pytest.raises(RuntimeError, match="^integer models run inference only$"):
        four_kinds[kind].forward(np.zeros((2, 4), dtype=np.int64), training=True)


def test_export_is_deterministic():
    model, ids, _ = _trained_qat_model()
    a = export(model)
    b = export(model)
    probe = ids[:16]
    np.testing.assert_array_equal(a.predict_logits(probe), b.predict_logits(probe))


# ---------------------------------------------------------------------------
# dynamic quantization of the baseline
# ---------------------------------------------------------------------------


def test_dq_weights_follow_weight_scale_grid():
    model = TransformerEncoderModel(TINY, quant_enabled=False, seed=0)
    dq = dq_quantize(model)
    fc = dict(dq.named_modules())["classifier"]
    w = model.classifier.weight.value
    np.testing.assert_array_equal(fc.weight_q, quantize(w, weight_scale(w)))
    np.testing.assert_array_equal(fc.bias, model.classifier.bias.value)  # FP32


def test_dq_model_close_to_baseline_on_easy_inputs():
    rng = np.random.default_rng(4)
    ids = rng.integers(0, 8, size=(128, 4))
    labels = (ids[:, 0] >= 4).astype(np.int64)
    model = TransformerEncoderModel(TINY, quant_enabled=False, seed=0)
    train(model, ids, labels, TrainConfig(epochs=2, batch_size=32, seed=0))
    dq = dq_quantize(model)
    base = model.predict_logits(ids)
    dqq = dq.predict_logits(ids)
    agree = (base.argmax(axis=1) == dqq.argmax(axis=1)).mean()
    assert agree > 0.95
    np.testing.assert_allclose(dqq, base, atol=0.2)  # coarse numeric proximity


def test_integer_models_hold_every_named_layer():
    model, _, _ = _trained_qat_model()
    names = [name for name, _ in model.named_modules()]
    for integer in (export(model), dq_quantize(model)):
        assert [name for name, _ in integer.named_modules()] == names


@pytest.mark.parametrize("ids,error", [
    (np.array([[1.0, 2.0]]), TypeError),
    (np.array([[True, False]]), TypeError),
    (np.array([1, 2]), ShapeError),
    (np.zeros((1, 5), dtype=np.int64), ShapeError),
    (np.array([[1, 8]]), IndexError),
    (np.array([[-1, 2]]), IndexError),
], ids=["float", "bool", "1-d", "too-long", "past-vocab", "negative"])
@pytest.mark.parametrize("kind", ["fp32", "qat", "frozen", "dq"])
def test_every_kind_rejects_bad_ids_alike(four_kinds, kind, ids, error):
    with pytest.raises(error):
        four_kinds[kind].predict_logits(ids)


def test_dq_accepts_qat_trained_weights_too():
    model, ids, _ = _trained_qat_model()
    dq = dq_quantize(model)
    out = dq.predict_logits(ids[:8])
    assert out.shape == (8, 2)
    assert np.isfinite(out).all()


# The most memory one 256-row eval batch may hold at the default config, in
# MB as tracemalloc counts NumPy's buffers: one fresh buffer per result, each
# freed once nothing reads it. FP32 read 11.0 MB before softmax and GELU
# wrote into buffers their callers own, 7.9 after. The integer kinds read
# 12.6 while quantize's int8 result and the GEMM's float copy of it were
# full-size buffers. Since the Int8 FCs take the float grid, DQ read 11.8,
# its peak on the fc_reduce input; qat and frozen, whose eval runs in chunks
# of 64 sequences, read 2.96. Since GELU and the dynamic FC run in blocks of
# ROW_BLOCK rows, fp32 reads 7.18 and dq 7.28.
EVAL_PEAK_MB = {"fp32": 7.5, "qat": 3.2, "frozen": 3.2, "dq": 7.5}


def test_eval_working_set_of_each_kind_at_the_default_config():
    config = ModelConfig()
    ids, _ = SyntheticTask(vocab_size=config.vocab_size,
                           seq_len=config.max_seq_len).generate(256, seed=0)
    fp32 = TransformerEncoderModel(config, seed=0)
    qat = TransformerEncoderModel(config, quant_enabled=True, seed=0)
    qat.forward(ids, training=True)  # calibrates its trackers
    kinds = {"fp32": fp32, "qat": qat, "frozen": export(qat), "dq": dq_quantize(fp32)}
    peaks = {}
    for kind, model in kinds.items():
        model.predict_logits(ids)  # builds the Int8 model a QAT model caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model.predict_logits(ids)
            peaks[kind] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            tracemalloc.stop()
    assert all(peaks[kind] <= limit for kind, limit in EVAL_PEAK_MB.items()), peaks
