import json

import numpy as np
import pytest

from qat8.cli import main
from qat8.format import load_artifact, save_artifact
from qat8.model import ModelConfig, TransformerEncoderModel
from qat8.quant import ema_update

FAST = ["--set", "num_train=64", "--set", "num_eval=64", "--set", "epochs=1",
        "--set", "dim=8", "--set", "num_heads=2", "--set", "ffn_dim=16",
        "--set", "num_layers=1"]


def _train(tmp_path, mode, name, extra=()):
    out = tmp_path / name
    rc = main(["train", "--mode", mode, "--out", str(out), *FAST, *extra])
    assert rc == 0
    assert out.exists()
    return out


def test_train_fp32_writes_artifact_and_metrics(tmp_path, capsys):
    metrics = tmp_path / "m.json"
    _train(tmp_path, "fp32", "base.qat", ["--metrics", str(metrics)])
    out = capsys.readouterr().out
    assert "eval accuracy" in out
    payload = json.loads(metrics.read_text())
    assert payload["mode"] == "fp32"
    assert "final_accuracy" in payload["train"]
    assert payload["artifact_bytes"] > 0


def test_quantize_export_path(tmp_path, capsys):
    model = _train(tmp_path, "qat", "qat.qat")
    frozen = tmp_path / "frozen.qat"
    rc = main(["quantize", "--model", str(model), "--method", "export",
               "--out", str(frozen)])
    assert rc == 0
    assert "size ratio" in capsys.readouterr().out
    assert frozen.stat().st_size < model.stat().st_size


def test_quantize_dq_path(tmp_path):
    model = _train(tmp_path, "fp32", "base.qat")
    dq = tmp_path / "dq.qat"
    assert main(["quantize", "--model", str(model), "--method", "dq",
                 "--out", str(dq)]) == 0
    assert dq.exists()


def test_quantize_export_rejects_fp32_checkpoint(tmp_path, capsys):
    model = _train(tmp_path, "fp32", "base.qat")
    rc = main(["quantize", "--model", str(model), "--method", "export",
               "--out", str(tmp_path / "x.qat")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_quantize_rejects_inference_artifact(tmp_path, capsys):
    sources = {"export": _train(tmp_path, "qat", "qat.qat"),
               "dq": _train(tmp_path, "fp32", "base.qat")}
    for made_by, source in sources.items():
        integer = tmp_path / f"{made_by}.qat"
        assert main(["quantize", "--model", str(source), "--method", made_by,
                     "--out", str(integer)]) == 0
        for method in ("export", "dq"):
            capsys.readouterr()
            rc = main(["quantize", "--model", str(integer), "--method", method,
                       "--out", str(tmp_path / "y.qat")])
            assert rc == 2, (made_by, method)
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and "integer model" in err
            assert "Traceback" not in err


def test_eval_runs_on_frozen_artifact(tmp_path, capsys):
    model = _train(tmp_path, "qat", "qat.qat")
    frozen = tmp_path / "frozen.qat"
    main(["quantize", "--model", str(model), "--method", "export",
          "--out", str(frozen)])
    rc = main(["eval", "--model", str(frozen), "--split", "eval", *FAST])
    assert rc == 0
    assert "accuracy" in capsys.readouterr().out


def test_compare_writes_deterministic_report(tmp_path, capsys):
    args = ["compare", *FAST, "--set", "seeds=0,1"]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main([*args, "--out", str(out_a)]) == 0
    assert main([*args, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    parsed = json.loads(out_a.read_text())
    assert [m["name"] for m in parsed["methods"]] == ["baseline", "qat", "dq"]
    assert "relative error" in capsys.readouterr().out


def test_compare_refuses_a_negative_seed_before_training(tmp_path, capsys):
    assert main(["compare", *FAST, "--set", "seeds=0,1,-1"]) == 2
    out, err = capsys.readouterr()
    assert "seed 0:" not in out and "seeds must be >= 0" in err


def test_inspect_prints_header(tmp_path, capsys):
    model = _train(tmp_path, "fp32", "base.qat")
    capsys.readouterr()  # drop the training output
    assert main(["inspect", "--model", str(model)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kind"] == "fp32"


def test_size_report(tmp_path, capsys):
    model = _train(tmp_path, "qat", "qat.qat")
    frozen = tmp_path / "frozen.qat"
    main(["quantize", "--model", str(model), "--method", "export",
          "--out", str(frozen)])
    rc = main(["size-report", "--baseline", str(model),
               "--quantized", str(frozen)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "compression" in out


@pytest.mark.parametrize("empty", ["--baseline", "--quantized"])
def test_size_report_refuses_an_empty_file(tmp_path, capsys, empty):
    model = _train(tmp_path, "fp32", "base.qat")
    (tmp_path / "empty.qat").write_bytes(b"")
    paths = {"--baseline": str(model), "--quantized": str(model),
             empty: str(tmp_path / "empty.qat")}
    capsys.readouterr()
    rc = main(["size-report", *(a for pair in paths.items() for a in pair)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "empty.qat is empty" in captured.err


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    rc = main(["train", "--mode", "fp32", "--out", str(tmp_path / "x.qat"),
               "--set", "bogus=1"])
    assert rc == 2
    capsys.readouterr()


def test_exit_code_2_on_bits_above_8(tmp_path, capsys):
    # every integer path is Int8, so a wider grid is a config error up front
    rc = main(["train", "--mode", "qat", "--out", str(tmp_path / "x.qat"),
               *FAST, "--set", "bits=12"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bits" in err and "Traceback" not in err
    assert not (tmp_path / "x.qat").exists()


@pytest.mark.parametrize("command,override", [
    (["train", "--mode", "fp32"], "num_eval=0"),
    (["train", "--mode", "fp32"], "num_train=-3"),
    (["eval", "--model", "none.qat"], "eval_batch=0"),
    (["compare"], "num_eval=0"),
])
def test_exit_code_2_on_non_positive_run_size(tmp_path, capsys, command, override):
    out = ["--out", str(tmp_path / "x.qat")] if command[0] == "train" else []
    rc = main([*command, *out, *FAST, "--set", override])
    assert rc == 2
    err = capsys.readouterr().err
    assert override.split("=")[0] in err and "Traceback" not in err
    assert not (tmp_path / "x.qat").exists()


def test_exit_code_4_on_damaged_artifact(tmp_path, capsys):
    bad = tmp_path / "bad.qat"
    bad.write_bytes(b"JUNKJUNKJUNKJUNK")
    assert main(["inspect", "--model", str(bad)]) == 4
    capsys.readouterr()


def test_exit_code_4_when_eval_loads_a_corrupt_artifact(tmp_path, capsys):
    model = _train(tmp_path, "fp32", "base.qat")
    data = model.read_bytes()
    model.write_bytes(data[:-1])  # one payload byte short
    capsys.readouterr()
    assert main(["eval", "--model", str(model), *FAST]) == 4
    err = capsys.readouterr().err
    assert "payload length" in err and "Traceback" not in err


def test_exit_code_4_on_mistyped_header(tmp_path, capsys):
    header = b'[{"kind":"fp32"}]'
    bad = tmp_path / "bad.qat"
    bad.write_bytes(b"QAT1\x01" + len(header).to_bytes(4, "little") + header)
    assert main(["inspect", "--model", str(bad)]) == 4
    assert "header" in capsys.readouterr().err


def test_exit_code_4_on_int8_minus_128(tmp_path, capsys):
    model = _train(tmp_path, "qat", "qat.qat")
    frozen = tmp_path / "frozen.qat"
    assert main(["quantize", "--model", str(model), "--method", "export",
                 "--out", str(frozen)]) == 0
    data = bytearray(frozen.read_bytes())
    header_len = int.from_bytes(data[5:9], "little")
    header = json.loads(data[9:9 + header_len])
    entry = next(e for e in header["tensors"] if e["dtype"] == "i8")
    data[9 + header_len + entry["offset"]] = 0x80
    frozen.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["eval", "--model", str(frozen), *FAST]) == 4
    assert "-128" in capsys.readouterr().err


def _write_payload(path, tensor, offset_in_tensor, raw: bytes):
    """Overwrite bytes of one tensor's payload in an artifact file."""
    data = bytearray(path.read_bytes())
    header_len = int.from_bytes(data[5:9], "little")
    header = json.loads(data[9:9 + header_len])
    entry = next(e for e in header["tensors"] if e["name"] == tensor)
    start = 9 + header_len + entry["offset"] + offset_in_tensor
    data[start:start + len(raw)] = raw
    path.write_bytes(bytes(data))


def test_exit_code_4_on_int8_off_the_grid_of_its_bits(tmp_path, capsys):
    bits4 = ["--set", "bits=4"]
    model = _train(tmp_path, "qat", "qat.qat", bits4)
    frozen = tmp_path / "frozen.qat"
    assert main(["quantize", "--model", str(model), "--method", "export",
                 "--out", str(frozen)]) == 0
    # 100 is an Int8 value, but a bits=4 grid ends at 7
    _write_payload(frozen, "classifier.weight_q", 0, bytes([100]))
    capsys.readouterr()
    assert main(["eval", "--model", str(frozen), *FAST, *bits4]) == 4
    err = capsys.readouterr().err
    assert "contains 100, off the symmetric grid [-7, 7]" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_3_on_non_finite_logits(tmp_path, capsys):
    model = _train(tmp_path, "fp32", "base.qat")
    # finite, so the artifact loads; the classifier's products overflow FP32
    _write_payload(model, "classifier.weight", 0, np.float32(3e38).tobytes())
    capsys.readouterr()
    assert main(["eval", "--model", str(model), *FAST]) == 3
    err = capsys.readouterr().err
    assert "non-finite logits" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_3_when_eval_meets_nan_inside_the_model(tmp_path, capsys):
    path = _train(tmp_path, "qat", "qat.qat")
    model = load_artifact(str(path))
    for param in model.parameters().values():
        param.value *= np.float32(1e20)
    # finite, so the checkpoint loads; its attention scores overflow, the
    # softmax makes them NaN, and the next Int8 layer's quantize refuses it
    save_artifact(model, str(path))
    capsys.readouterr()
    assert main(["eval", "--model", str(path), *FAST]) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "NaN" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_3_when_dq_eval_meets_a_non_finite_activation(tmp_path, capsys):
    base = _train(tmp_path, "fp32", "base.qat")
    path = tmp_path / "dq.qat"
    assert main(["quantize", "--model", str(base), "--method", "dq", "--out", str(path)]) == 0
    model = load_artifact(str(path))
    # finite, so the artifact loads; the embedding norm's output overflows
    # FP32, and the first FC's dynamic scale refuses it
    model.emb_norm.gain.value[:] = 3e38
    save_artifact(model, str(path))
    capsys.readouterr()
    assert main(["eval", "--model", str(path), *FAST]) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "error: tensor contains NaN or Inf\n" in err
    assert "Traceback" not in err


def test_exit_code_4_on_int32_bias_past_bound(tmp_path, capsys):
    model = _train(tmp_path, "qat", "qat.qat")
    frozen = tmp_path / "frozen.qat"
    assert main(["quantize", "--model", str(model), "--method", "export",
                 "--out", str(frozen)]) == 0
    data = bytearray(frozen.read_bytes())
    header_len = int.from_bytes(data[5:9], "little")
    header = json.loads(data[9:9 + header_len])
    entry = next(e for e in header["tensors"] if e["name"] == "classifier.bias_q")
    start = 9 + header_len + entry["offset"]
    data[start:start + 4] = (2**31 - 1).to_bytes(4, "little", signed=True)
    frozen.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["eval", "--model", str(frozen), *FAST]) == 4
    assert "Int32 bias" in capsys.readouterr().err


def _default_qat_artifact(path, edit):
    """A default-config QAT model, untrained, with every tracker fed one
    batch maximum of 1.0, then edited by ``edit`` on its layers by name."""
    model = TransformerEncoderModel(ModelConfig(), quant_enabled=True, seed=0)
    for _, fc in model.named_qlinears():
        ema_update(fc.input_tracker, 1.0)
    edit(dict(model.named_modules()))
    save_artifact(model, str(path))
    return str(path)


def _wrapping_classifier(layers):
    # a tiny frozen input range puts the bias past the Int32 headroom
    layers["classifier"].input_tracker.running_max = 1e-6
    layers["classifier"].bias.value[:] = 1.0


def _uncalibrated_fc_reduce(layers):
    layers["blocks.1.fc_reduce"].input_tracker.initialized = False


def _eval_or_export(command, model, tmp_path):
    if command == "eval":
        return main(["eval", "--model", model])
    return main(["quantize", "--model", model, "--method", "export",
                 "--out", str(tmp_path / "frozen.qat")])


@pytest.mark.parametrize("command", ["eval", "quantize"])
def test_exit_code_2_when_a_qat_model_could_wrap(tmp_path, capsys, command):
    model = _default_qat_artifact(tmp_path / "qat.qat", _wrapping_classifier)
    assert _eval_or_export(command, model, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.endswith("could wrap, in classifier\n")


@pytest.mark.parametrize("command,message", [
    ("eval", "activation tracker has not observed any batch"),
    ("quantize", "model was never trained with quantization: no activation statistics "
                 "for blocks.1.fc_reduce")])
def test_exit_code_2_when_a_qat_model_is_uncalibrated(tmp_path, capsys, command, message):
    model = _default_qat_artifact(tmp_path / "qat.qat", _uncalibrated_fc_reduce)
    assert _eval_or_export(command, model, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and message in err and "Traceback" not in err


@pytest.mark.parametrize("input_scale,weight_scale", [(1e-30, 1e-20), (1e30, 1e30)],
                         ids=["underflow", "overflow"])
def test_exit_code_4_on_a_bias_scale_past_float32(tmp_path, capsys, input_scale,
                                                  weight_scale):
    model = _train(tmp_path, "qat", "qat.qat")
    frozen = tmp_path / "frozen.qat"
    assert main(["quantize", "--model", str(model), "--method", "export",
                 "--out", str(frozen)]) == 0
    data = frozen.read_bytes()
    header_len = int.from_bytes(data[5:9], "little")
    header = json.loads(data[9:9 + header_len])
    # each scale alone is a valid float32; their product is 0 or inf in float32
    header["input_scales"]["blocks.0.fc_expand"] = input_scale
    next(e for e in header["tensors"]
         if e["name"] == "blocks.0.fc_expand.weight_q")["scale"] = weight_scale
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    frozen.write_bytes(data[:5] + len(blob).to_bytes(4, "little") + blob
                       + data[9 + header_len:])
    capsys.readouterr()
    assert main(["eval", "--model", str(frozen), *FAST]) == 4
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "blocks.0.fc_expand" in err and "Traceback" not in err


def test_exit_code_2_on_missing_file(tmp_path, capsys):
    assert main(["eval", "--model", str(tmp_path / "none.qat"), *FAST]) == 2
    capsys.readouterr()


def test_exit_code_3_on_divergence(tmp_path, capsys, monkeypatch):
    import qat8.cli
    from qat8.training import TrainingDivergedError

    def explode(*args, **kwargs):
        raise TrainingDivergedError("non-finite loss at step 1")

    monkeypatch.setattr(qat8.cli, "train", explode)
    rc = main(["train", "--mode", "fp32", "--out", str(tmp_path / "x.qat"), *FAST])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode,lr", [("fp32", "1e12"), ("qat", "1e38")])
def test_exit_code_3_when_training_blows_up(tmp_path, capsys, mode, lr):
    rc = main(["train", "--mode", mode, "--out", str(tmp_path / "x.qat"),
               *FAST, "--set", "epochs=2", "--set", f"lr={lr}"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "diverged" in err and "Traceback" not in err
    assert not (tmp_path / "x.qat").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_3_when_qat_training_ends_on_nan_weights(tmp_path, capsys):
    # one epoch of one step: no later step's EMA update can see the NaN, so
    # the accuracy pass after the step must refuse it
    rc = main(["train", "--mode", "qat", "--out", str(tmp_path / "x.qat"),
               *FAST, "--set", "lr=1e20"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "diverged" in err and "at step 1" in err and "Traceback" not in err
    assert not (tmp_path / "x.qat").exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_exit_code_2_on_non_finite_lr(tmp_path, capsys, lr):
    rc = main(["train", "--mode", "fp32", "--out", str(tmp_path / "x.qat"),
               *FAST, "--set", f"lr={lr}"])
    assert rc == 2
    assert "lr must be positive and finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_absurd_lr_never_exits_zero(tmp_path, capsys):
    rc = main(["train", "--mode", "fp32", "--out", str(tmp_path / "x.qat"),
               *FAST, "--set", "lr=1e12"])
    # blown-up numerics must surface as diverged (3) or invalid values (2)
    assert rc in (2, 3)
    capsys.readouterr()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_default_path_raises_no_runtime_warning(tmp_path, capsys):
    # an invalid cast or an overflow on the normal path would fail here
    checkpoints = {"export": _train(tmp_path, "qat", "qat.qat"),
                   "dq": _train(tmp_path, "fp32", "base.qat")}
    for method, source in checkpoints.items():
        out = tmp_path / f"{method}.qat"
        assert main(["quantize", "--model", str(source), "--method", method,
                     "--out", str(out)]) == 0
        for model in (source, out):
            assert main(["eval", "--model", str(model), *FAST]) == 0
    capsys.readouterr()


def test_config_file_plus_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("num_train = 64\nnum_eval = 64\nepochs = 1\ndim = 8\n"
                   "num_heads = 2\nffn_dim = 16\nnum_layers = 1\n")
    out = tmp_path / "m.qat"
    rc = main(["train", "--config", str(cfg), "--mode", "fp32",
               "--out", str(out), "--set", "epochs=2"])
    assert rc == 0
