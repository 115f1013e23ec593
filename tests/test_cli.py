import json

import pytest

from qat8.cli import main

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


def test_quantize_rejects_inference_artifact(tmp_path):
    model = _train(tmp_path, "fp32", "base.qat")
    dq = tmp_path / "dq.qat"
    main(["quantize", "--model", str(model), "--method", "dq", "--out", str(dq)])
    rc = main(["quantize", "--model", str(dq), "--method", "dq",
               "--out", str(tmp_path / "y.qat")])
    assert rc == 2


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


def test_exit_code_4_on_damaged_artifact(tmp_path, capsys):
    bad = tmp_path / "bad.qat"
    bad.write_bytes(b"JUNKJUNKJUNKJUNK")
    assert main(["inspect", "--model", str(bad)]) == 4
    capsys.readouterr()


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
def test_absurd_lr_never_exits_zero(tmp_path, capsys):
    rc = main(["train", "--mode", "fp32", "--out", str(tmp_path / "x.qat"),
               *FAST, "--set", "lr=1e12"])
    # blown-up numerics must surface as diverged (3) or invalid values (2)
    assert rc in (2, 3)
    capsys.readouterr()


def test_config_file_plus_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("num_train = 64\nnum_eval = 64\nepochs = 1\ndim = 8\n"
                   "num_heads = 2\nffn_dim = 16\nnum_layers = 1\n")
    out = tmp_path / "m.qat"
    rc = main(["train", "--config", str(cfg), "--mode", "fp32",
               "--out", str(out), "--set", "epochs=2"])
    assert rc == 0
