"""Acceptance gate: eight criteria, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. Each criterion enforces its own wall-clock budget.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from gradcheck import check_input_grad, check_param_grads, relative_l2
from qat8.config import RunConfig
from qat8.format import serialize
from qat8.layers import (
    EncoderBlock,
    LayerNorm,
    MultiHeadAttention,
    QuantizedEmbedding,
    QuantizedLinear,
)
from qat8.model import ModelConfig, TransformerEncoderModel
from qat8.quant import dequantize, fake_quantize, max_quant_value, quantize, weight_scale
from qat8.runtime import INT32_MAX, QuantizedLinearFrozen, export, int8_linear_infer
from qat8.task import relative_error, run_comparison
from qat8.tensor import gemm_i8_i32
from qat8.training import TrainConfig, train


@contextmanager
def criterion(cid: str, desc: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[{cid}] FAIL — {desc}")
        raise
    elapsed = time.monotonic() - start
    print(f"\n[{cid}] PASS — {desc} ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{cid} exceeded its {budget_s}s budget: {elapsed:.1f}s"


N_VALUES = 100_000


def test_c1_quantization_math():
    with criterion("C1", "symmetric quantization math on 1e5-value tensors", 10.0):
        rng = np.random.default_rng(11)
        assert max_quant_value(8) == 127

        # symmetry: Q(-x) == -Q(x)
        x = rng.uniform(-50.0, 50.0, N_VALUES).astype(np.float32)
        np.testing.assert_array_equal(quantize(-x, 12.34), -quantize(x, 12.34))

        # saturation: clamps to [-127, 127], -128 unrepresentable
        wide = rng.uniform(-1000.0, 1000.0, N_VALUES).astype(np.float32)
        q = quantize(wide, 127.0)
        assert q.min() == -127 and q.max() == 127
        assert not (q.astype(np.int16) == -128).any()

        # round-trip bound: |x - DQ(Q(x))| <= half a grid step in range
        x = rng.uniform(-4.0, 4.0, N_VALUES).astype(np.float32)
        scale = np.float32(127.0 / 4.0)
        err = np.abs(dequantize(quantize(x, scale), scale) - x)
        assert err.max() <= 0.5 / scale * (1 + 1e-5)

        # idempotence: the grid is a fixed point
        once = fake_quantize(x, scale)
        np.testing.assert_array_equal(fake_quantize(once, scale), once)

        # ties round away from zero in both directions
        k = rng.integers(0, 100, N_VALUES)
        np.testing.assert_array_equal(quantize(k + 0.5, 1.0), k + 1)
        np.testing.assert_array_equal(quantize(-(k + 0.5), 1.0), -(k + 1))


def test_c2_relative_error_reference_values():
    with criterion("C2", "relative-error formula reproduces reference table", 5.0):
        assert round(relative_error(58.48, 56.74), 2) == 2.98
        assert round(relative_error(90.3, 90.62), 2) == -0.35


def test_c3_gradient_checks():
    with criterion("C3", "backward passes match finite differences (50 cases/layer)", 30.0):
        cases = 50
        tol = 1e-3
        worst = {}

        def record(name, err):
            worst[name] = max(worst.get(name, 0.0), err)
            assert err < tol, f"{name}: {err}"

        for case in range(cases):
            rng = np.random.default_rng(1000 + case)
            dim, heads, ffn = 8, 2, 8
            batch, seq = 2, 3
            x = rng.normal(size=(batch, seq, dim)).astype(np.float32)
            x2d = x.reshape(-1, dim)

            fc = QuantizedLinear(dim, 6, rng=rng)
            fc.weight.value = (rng.normal(size=(6, dim)) * 0.4).astype(np.float32)
            overall, _ = check_param_grads(
                lambda training: fc.forward(x2d, training), fc.backward,
                fc.named_params(), rng, out_shape=(batch * seq, 6),
                coords_per_tensor=4)
            record("linear", overall)
            record("linear.input", check_input_grad(
                lambda training: fc.forward(x2d, training), fc.backward,
                x2d, rng, out_shape=(batch * seq, 6), coords=4))

            emb = QuantizedEmbedding(7, dim, rng=rng)
            ids = rng.integers(0, 7, size=(batch, seq))
            overall, _ = check_param_grads(
                lambda training: emb.forward(ids, training), emb.backward,
                emb.named_params(), rng, out_shape=(batch, seq, dim),
                coords_per_tensor=4)
            record("embedding", overall)

            ln = LayerNorm(dim)
            ln.gain.value = rng.normal(1.0, 0.2, size=dim).astype(np.float32)
            ln.bias.value = rng.normal(0.0, 0.2, size=dim).astype(np.float32)
            overall, _ = check_param_grads(
                lambda training: ln.forward(x, training), ln.backward,
                ln.named_params(), rng, out_shape=x.shape, coords_per_tensor=4)
            record("layer_norm", overall)
            record("layer_norm.input", check_input_grad(
                lambda training: ln.forward(x, training), ln.backward,
                x, rng, out_shape=x.shape, coords=4))

            attn = MultiHeadAttention(dim, heads, rng=rng)
            for _, p in attn.named_params():
                p.value = (rng.normal(size=p.value.shape) * 0.4).astype(np.float32)
            overall, _ = check_param_grads(
                lambda training: attn.forward(x, training), attn.backward,
                attn.named_params(), rng, out_shape=x.shape, coords_per_tensor=3)
            record("attention", overall)
            record("attention.input", check_input_grad(
                lambda training: attn.forward(x, training), attn.backward,
                x, rng, out_shape=x.shape, coords=4))

            block = EncoderBlock(dim, heads, ffn, rng=rng)
            for _, p in block.named_params():
                if p.value.ndim == 2:
                    p.value = (rng.normal(size=p.value.shape) * 0.4).astype(np.float32)
            overall, _ = check_param_grads(
                lambda training: block.forward(x, training), block.backward,
                block.named_params(), rng, out_shape=x.shape, coords_per_tensor=3)
            record("encoder_block", overall)

        # whole-model check (fewer cases; it is a composition of the above)
        config = ModelConfig(vocab_size=7, max_seq_len=4, num_classes=2, dim=8,
                             num_heads=2, ffn_dim=8, num_layers=1)
        for case in range(10):
            rng = np.random.default_rng(2000 + case)
            model = TransformerEncoderModel(config, seed=case)
            # default init leaves q/k grads below the f32 finite-difference
            # noise floor; rescale so every gradient is resolvable
            for _, p in model.parameters().items():
                p.value = (rng.normal(size=p.value.shape) * 0.4).astype(np.float32)
            ids = rng.integers(0, 7, size=(2, 4))
            params = list(model.parameters().items())

            def fwd(training):
                return model.forward(ids, training)

            def bwd(proj):
                model.zero_grads()
                model.backward(proj)

            overall, _ = check_param_grads(fwd, bwd, params, rng,
                                           out_shape=(2, 2), coords_per_tensor=2)
            record("model", overall)

        print("   worst relative errors:",
              {k: f"{v:.2e}" for k, v in sorted(worst.items())})


def test_c4_integer_fake_quant_equivalence():
    with criterion("C4", "integer runtime == fake-quant math (1e-4/element; "
                   "full model 1e-3, argmax 99.9%)", 60.0):
        rng = np.random.default_rng(42)

        # (a) 1e4 random frozen FC layers, dims <= 64
        for _ in range(10_000):
            k = int(rng.integers(1, 65))
            n = int(rng.integers(1, 65))
            rows = int(rng.integers(1, 5))
            w = rng.uniform(-1.0, 1.0, size=(n, k)).astype(np.float32)
            x = rng.uniform(-1.0, 1.0, size=(rows, k)).astype(np.float32)
            b = rng.uniform(-1.0, 1.0, size=n).astype(np.float32)
            s_w = weight_scale(w)
            s_x = np.float32(127.0) / np.float32(np.abs(x).max())
            layer = QuantizedLinearFrozen(
                weight_q=quantize(w, s_w), weight_scale=s_w, input_scale=s_x,
                bias_q=quantize(b, np.float32(s_x) * np.float32(s_w),
                                INT32_MAX).astype(np.int32))
            got = int8_linear_infer(layer, x)
            fake = (fake_quantize(x, s_x) @ fake_quantize(w, s_w).T) + b
            assert np.abs(got - fake).max() <= 1e-4

        # (b) full model: frozen integer inference vs the fake-quant eval path
        run = RunConfig()
        task = run.task()
        train_x, train_y, _, _ = task.splits(512, 64)
        model = TransformerEncoderModel(run.model_config(), quant_enabled=True,
                                        seed=0)
        train(model, train_x, train_y, TrainConfig(epochs=1, seed=0))
        frozen = export(model)

        probe, _ = task.generate(10_000, seed=777)
        diffs, agree, total = 0.0, 0, 0
        for start in range(0, len(probe), 1000):
            chunk = probe[start:start + 1000]
            fake = model.predict_logits(chunk)
            integer = frozen.predict_logits(chunk)
            diffs = max(diffs, float(np.abs(fake - integer).max()))
            agree += int((fake.argmax(axis=1) == integer.argmax(axis=1)).sum())
            total += len(chunk)
        assert diffs <= 1e-3, f"max logit gap {diffs}"
        assert agree / total >= 0.999, f"argmax agreement {agree / total}"
        print(f"   max logit gap {diffs:.2e}, argmax agreement {agree / total:.4f}")


def test_c5_int_gemm_oracle():
    with criterion("C5", "int8 GEMM equals the int64 GEMM on 1e4 cases", 10.0):
        a = np.array([[127, 127]], dtype=np.int8)
        b = np.array([[127], [127]], dtype=np.int8)
        np.testing.assert_array_equal(gemm_i8_i32(a, b), [[32258]])

        rng = np.random.default_rng(9)
        for _ in range(10_000):
            m = int(rng.integers(1, 9))
            # K past 1024 takes the float64 path
            k = int(rng.integers(1, 2049))
            n = int(rng.integers(1, 9))
            a = rng.integers(-128, 128, size=(m, k)).astype(np.int8)
            b = rng.integers(-128, 128, size=(k, n)).astype(np.int8)
            got = gemm_i8_i32(a, b)
            oracle = np.matmul(a.astype(np.int64), b.astype(np.int64))
            np.testing.assert_array_equal(got, oracle)


def test_c6_compression_ratio():
    with criterion("C6", "frozen artifact ≤ 0.30× the FP32 artifact (default config)", 5.0):
        run = RunConfig()
        fp32 = TransformerEncoderModel(run.model_config(), quant_enabled=False,
                                       seed=0)
        qat = TransformerEncoderModel(run.model_config(), quant_enabled=True,
                                      seed=0)
        # one calibration batch seeds the activation trackers for export
        calib, _ = run.task().generate(64, seed=123)
        qat.forward(calib, training=True)

        fp32_bytes = len(serialize(fp32))
        frozen_bytes = len(serialize(export(qat)))
        ratio = frozen_bytes / fp32_bytes
        print(f"   fp32 {fp32_bytes} B, frozen {frozen_bytes} B, ratio {ratio:.3f}")
        assert ratio <= 0.30


def test_c7_end_to_end_comparison():
    with criterion("C7", "5-seed comparison: baseline ≥ 95%, QAT < 2% rel err, "
                   "DQ rel err > QAT rel err", 900.0):
        run = RunConfig()
        report = run_comparison(run.model_config(), run.task(),
                                run.train_config(), run.seeds, run.num_train,
                                run.num_eval, run.eval_batch)
        print()
        print(report.to_text(), end="")
        assert report.baseline.mean >= 95.0
        assert report.qat_relative_error < 2.0
        assert report.dq_relative_error > report.qat_relative_error


def test_c8_determinism():
    with criterion("C8", "identical config+seed ⇒ byte-identical artifacts and reports", 120.0):
        run = RunConfig(num_train=256, num_eval=128, epochs=1, seeds=(0, 1))
        task = run.task()
        train_x, train_y, _, _ = task.splits(run.num_train, run.num_eval)

        artifacts = []
        for _ in range(2):
            model = TransformerEncoderModel(run.model_config(),
                                            quant_enabled=True, seed=0)
            train(model, train_x, train_y, run.train_config())
            artifacts.append((serialize(model), serialize(export(model))))
        assert artifacts[0][0] == artifacts[1][0], "training checkpoint bytes differ"
        assert artifacts[0][1] == artifacts[1][1], "frozen artifact bytes differ"

        reports = [run_comparison(run.model_config(), task, run.train_config(),
                                  run.seeds, run.num_train, run.num_eval,
                                  run.eval_batch).to_json()
                   for _ in range(2)]
        assert reports[0] == reports[1], "comparison report bytes differ"
