import json
import struct

import numpy as np
import pytest

from qat8.format import (
    MAGIC,
    FormatError,
    deserialize,
    inspect_header,
    load_artifact,
    save_artifact,
    serialize,
)
from qat8.model import ModelConfig, TransformerEncoderModel
from qat8.runtime import dq_quantize, export
from qat8.training import TrainConfig, train

TINY = ModelConfig(vocab_size=8, max_seq_len=4, num_classes=2, dim=8,
                   num_heads=2, ffn_dim=16, num_layers=1)


@pytest.fixture(scope="module")
def models():
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 8, size=(64, 4))
    labels = (ids[:, 0] >= 4).astype(np.int64)
    fp32 = TransformerEncoderModel(TINY, quant_enabled=False, seed=0)
    train(fp32, ids, labels, TrainConfig(epochs=1, batch_size=32, seed=0))
    qat = TransformerEncoderModel(TINY, quant_enabled=True, seed=0)
    train(qat, ids, labels, TrainConfig(epochs=1, batch_size=32, seed=0))
    return {"fp32": fp32, "qat": qat, "frozen": export(qat),
            "dq": dq_quantize(fp32), "probe": ids[:16]}


def _split(data):
    (header_len,) = struct.unpack("<I", data[5:9])
    header = json.loads(data[9:9 + header_len].decode())
    return header, data[:9], data[9 + header_len:]


def _rebuild(header, payload):
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + bytes([1]) + struct.pack("<I", len(blob)) + blob + payload


KINDS = ["fp32", "qat", "frozen", "dq"]
ITEMSIZE = {"f32": 4, "i8": 1, "i32": 4}


@pytest.mark.parametrize("kind", ["fp32", "qat", "frozen", "dq"])
def test_round_trip_is_bit_exact(models, kind):
    data = serialize(models[kind])
    back = deserialize(data)
    assert serialize(back) == data
    np.testing.assert_array_equal(back.predict_logits(models["probe"]),
                                  models[kind].predict_logits(models["probe"]))


def test_serialization_is_deterministic(models):
    assert serialize(models["qat"]) == serialize(models["qat"])


def test_header_layout(models):
    data = serialize(models["frozen"])
    assert data[:4] == MAGIC
    assert data[4] == 1
    header, _, payload = _split(data)
    assert header["kind"] == "int8-frozen"
    names = [t["name"] for t in header["tensors"]]
    assert names == sorted(names)
    total = sum(int(np.prod(t["shape"])) * {"f32": 4, "i8": 1, "i32": 4}[t["dtype"]]
                for t in header["tensors"])
    assert total == len(payload)
    assert set(header["input_scales"]) == {
        "blocks.0.attn.q_proj", "blocks.0.attn.k_proj", "blocks.0.attn.v_proj",
        "blocks.0.attn.out_proj", "blocks.0.fc_expand", "blocks.0.fc_reduce",
        "classifier"}


def test_quantized_weight_bytes_are_exactly_one_quarter(models):
    fp32_header, _, _ = _split(serialize(models["fp32"]))
    frozen_header, _, _ = _split(serialize(models["frozen"]))
    fp32_sizes = {t["name"]: int(np.prod(t["shape"])) * 4
                  for t in fp32_header["tensors"]}
    for t in frozen_header["tensors"]:
        if t["dtype"] != "i8":
            continue
        # weight_q/table_q correspond 1:1 to an fp32 master tensor
        master = (t["name"].replace(".weight_q", ".weight")
                  .replace(".table_q", ".table"))
        assert int(np.prod(t["shape"])) * 4 == fp32_sizes[master], t["name"]


def test_save_and_load_files(models, tmp_path):
    path = tmp_path / "model.qat"
    written = save_artifact(models["fp32"], path)
    assert path.read_bytes() == written
    loaded = load_artifact(path)
    np.testing.assert_array_equal(loaded.predict_logits(models["probe"]),
                                  models["fp32"].predict_logits(models["probe"]))


def test_qat_artifact_preserves_tracker_state(models):
    back = deserialize(serialize(models["qat"]))
    for (name, orig), (_, copy) in zip(models["qat"].named_qlinears(),
                                       back.named_qlinears()):
        assert copy.input_tracker.initialized
        assert copy.input_tracker.running_max == pytest.approx(
            orig.input_tracker.running_max, rel=1e-6), name


# ---------------------------------------------------------------------------
# corruption handling
# ---------------------------------------------------------------------------


def test_rejects_truncated_file():
    with pytest.raises(FormatError, match="truncated"):
        deserialize(b"QAT")


def test_rejects_bad_magic(models):
    data = bytearray(serialize(models["fp32"]))
    data[:4] = b"NOPE"
    with pytest.raises(FormatError, match="magic"):
        deserialize(bytes(data))


def test_rejects_unknown_version(models):
    data = bytearray(serialize(models["fp32"]))
    data[4] = 9
    with pytest.raises(FormatError, match="version"):
        deserialize(bytes(data))


def test_rejects_header_length_past_eof(models):
    data = bytearray(serialize(models["fp32"]))
    data[5:9] = struct.pack("<I", len(data) * 2)
    with pytest.raises(FormatError, match="header length"):
        deserialize(bytes(data))


def test_rejects_garbage_header_json(models):
    data = serialize(models["fp32"])
    _, prefix, payload = _split(data)
    blob = b"{not json"
    bad = MAGIC + bytes([1]) + struct.pack("<I", len(blob)) + blob + payload
    with pytest.raises(FormatError, match="JSON"):
        deserialize(bad)


def test_rejects_overlapping_offsets(models):
    header, _, payload = _split(serialize(models["fp32"]))
    header["tensors"][1]["offset"] = 0  # collides with tensor 0
    with pytest.raises(FormatError, match="overlap"):
        deserialize(_rebuild(header, payload))


def test_rejects_payload_size_mismatch(models):
    header, _, payload = _split(serialize(models["fp32"]))
    with pytest.raises(FormatError, match="payload length"):
        deserialize(_rebuild(header, payload + b"\x00" * 8))


def test_rejects_unknown_dtype(models):
    header, _, payload = _split(serialize(models["fp32"]))
    header["tensors"][0]["dtype"] = "f16"
    with pytest.raises(FormatError, match="dtype"):
        deserialize(_rebuild(header, payload))


@pytest.mark.parametrize("kind", KINDS)
def test_rejects_missing_tensor(models, kind):
    header, _, payload = _split(serialize(models[kind]))
    entry = header["tensors"].pop(0)
    nbytes = int(np.prod(entry["shape"])) * ITEMSIZE[entry["dtype"]]
    for t in header["tensors"]:
        t["offset"] -= nbytes
    with pytest.raises(FormatError, match="mismatch|missing"):
        deserialize(_rebuild(header, payload[nbytes:]))


@pytest.mark.parametrize("kind", KINDS)
def test_rejects_unexpected_tensor(models, kind):
    header, _, payload = _split(serialize(models[kind]))
    header["tensors"].append({"name": "blocks.0.extra", "dtype": "f32", "shape": [2],
                              "offset": len(payload)})
    with pytest.raises(FormatError, match="unexpected .*blocks.0.extra"):
        deserialize(_rebuild(header, payload + b"\x00" * 8))


def test_rejects_non_finite_weights(models):
    data = serialize(models["fp32"])
    header, _, payload = _split(data)
    entry = header["tensors"][0]
    assert entry["dtype"] == "f32"
    mutated = bytearray(payload)
    mutated[entry["offset"]:entry["offset"] + 4] = struct.pack("<f", np.nan)
    with pytest.raises(FormatError, match="non-finite"):
        deserialize(_rebuild(header, bytes(mutated)))


def test_rejects_unknown_kind(models):
    header, _, payload = _split(serialize(models["fp32"]))
    header["kind"] = "int4"
    with pytest.raises(FormatError, match="kind"):
        deserialize(_rebuild(header, payload))


@pytest.mark.parametrize("kind", KINDS)
def test_rejects_wrong_shape(models, kind):
    header, _, payload = _split(serialize(models[kind]))
    # transposing a square-ish shape keeps byte counts aligned only if square;
    # use an entry whose first two dims differ and swap them
    for entry in header["tensors"]:
        if len(entry["shape"]) == 2 and entry["shape"][0] != entry["shape"][1]:
            entry["shape"] = entry["shape"][::-1]
            break
    with pytest.raises(FormatError, match="shape"):
        deserialize(_rebuild(header, payload))


def test_rejects_missing_input_scale(models):
    header, _, payload = _split(serialize(models["frozen"]))
    del header["input_scales"]["blocks.0.fc_expand"]
    with pytest.raises(FormatError, match="input scale"):
        deserialize(_rebuild(header, payload))


def test_rejects_missing_tracker_state(models):
    header, _, payload = _split(serialize(models["qat"]))
    del header["trackers"]["classifier"]["running_max"]
    with pytest.raises(FormatError, match="tracker"):
        deserialize(_rebuild(header, payload))


def test_rejects_infinite_tracker_range(models):
    header, _, payload = _split(serialize(models["qat"]))
    header["trackers"]["classifier"]["running_max"] = 1e39  # inf in float32
    with pytest.raises(FormatError, match="tracker"):
        with np.errstate(over="ignore"):
            deserialize(_rebuild(header, payload))


def _set_entry(key, value):
    def mutate(header):
        header["tensors"][0][key] = value
        return header
    return mutate


def _set_header(key, value):
    def mutate(header):
        header[key] = value
        return header
    return mutate


# (mutation, whether inspect_header must reject it too: it reads only the
# container and the tensor directory)
@pytest.mark.parametrize("mutate,in_container", [
    pytest.param(lambda header: [header], True, id="list-header"),
    pytest.param(_set_header("tensors", {"a": 1}), True, id="dict-directory"),
    pytest.param(lambda header: {**header, "tensors": [7] + header["tensors"][1:]},
                 True, id="int-entry"),
    pytest.param(_set_entry("name", 3), True, id="int-name"),
    pytest.param(_set_entry("dtype", ["f32"]), True, id="list-dtype"),
    pytest.param(_set_entry("shape", "ab"), True, id="string-shape"),
    pytest.param(_set_entry("shape", [-1, 8]), True, id="negative-shape"),
    pytest.param(_set_entry("shape", [2.5, 8]), True, id="float-shape"),
    pytest.param(_set_entry("offset", "0"), True, id="string-offset"),
    pytest.param(_set_entry("scale", "big"), True, id="string-scale"),
    pytest.param(_set_header("kind", ["fp32"]), False, id="list-kind"),
    pytest.param(_set_header("config", [1, 2]), False, id="list-config"),
    pytest.param(_set_header("config", {"dim": "48"}), False, id="string-dim"),
    pytest.param(_set_header("input_scales", [1.0]), False, id="list-input-scales"),
])
def test_rejects_mistyped_header(models, mutate, in_container):
    header, _, payload = _split(serialize(models["frozen"]))
    data = _rebuild(mutate(header), payload)
    with pytest.raises(FormatError):
        deserialize(data)
    if in_container:
        with pytest.raises(FormatError):
            inspect_header(data)


def test_inspect_header_reports_sizes(models):
    data = serialize(models["frozen"])
    info = inspect_header(data)
    assert info["kind"] == "int8-frozen"
    assert info["total_bytes"] == len(data)
    assert info["payload_bytes"] == sum(info["payload_bytes_by_dtype"].values())
