import hashlib
import json
import math
import re
import struct
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qat8.format import (
    MAGIC,
    SCHEMA,
    FormatError,
    deserialize,
    inspect_header,
    load_artifact,
    save_artifact,
    serialize,
)
from qat8.model import EMBEDDING, LINEAR, NORM, ModelConfig, TransformerEncoderModel
from qat8.quant import ema_update, max_quant_value
from qat8.runtime import dq_quantize, export
from qat8.training import TrainConfig, train

TINY = ModelConfig(vocab_size=8, max_seq_len=4, num_classes=2, dim=8,
                   num_heads=2, ffn_dim=16, num_layers=1)


def _train_models(config):
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 8, size=(64, 4))
    labels = (ids[:, 0] >= 4).astype(np.int64)
    fp32 = TransformerEncoderModel(config, quant_enabled=False, seed=0)
    train(fp32, ids, labels, TrainConfig(epochs=1, batch_size=32, seed=0))
    qat = TransformerEncoderModel(config, quant_enabled=True, seed=0)
    train(qat, ids, labels, TrainConfig(epochs=1, batch_size=32, seed=0))
    return {"fp32": fp32, "qat": qat, "frozen": export(qat),
            "dq": dq_quantize(fp32), "probe": ids[:16]}


@pytest.fixture(scope="module")
def models():
    return _train_models(TINY)


@pytest.fixture(scope="module")
def models_bits4():
    return _train_models(replace(TINY, bits=4))


def _split(data):
    (header_len,) = struct.unpack("<I", data[5:9])
    header = json.loads(data[9:9 + header_len].decode())
    return header, data[:9], data[9 + header_len:]


def _rebuild(header, payload):
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + bytes([1]) + struct.pack("<I", len(blob)) + blob + payload


KINDS = ["fp32", "qat", "frozen", "dq"]
ITEMSIZE = {"f32": 4, "i8": 1, "i32": 4}


@pytest.fixture(scope="module")
def artifacts(models, models_bits4):
    """Every kind's artifact at bits 8 and 4, keyed by (bits, kind)."""
    return {(bits, kind): serialize(source[kind])
            for bits, source in ((8, models), (4, models_bits4)) for kind in KINDS}


@pytest.mark.parametrize("kind", ["fp32", "qat", "frozen", "dq"])
def test_round_trip_is_bit_exact(models, kind):
    data = serialize(models[kind])
    back = deserialize(data)
    assert serialize(back) == data
    np.testing.assert_array_equal(back.predict_logits(models["probe"]),
                                  models[kind].predict_logits(models["probe"]))


def test_serialization_is_deterministic(models):
    assert serialize(models["qat"]) == serialize(models["qat"])


def _golden_models():
    """The four kinds built with no GEMM, so their bytes do not depend on the
    BLAS build: seeded untrained models whose biases and norm parameters are
    drawn too, fixed batch maxima fed to each QAT tracker, then export and dq."""
    rng = np.random.default_rng(7)
    models = {}
    for kind, quant_enabled in (("fp32", False), ("qat", True)):
        model = TransformerEncoderModel(ModelConfig(), quant_enabled=quant_enabled, seed=1)
        for name, param in model.parameters().items():
            if not name.endswith((".weight", ".table")):
                param.value += rng.normal(0.0, 0.1, param.value.shape).astype(np.float32)
        models[kind] = model
    for i, (_, fc) in enumerate(models["qat"].named_qlinears()):
        for batch_max in (1.0 + i, 2.5 + i / 4):
            ema_update(fc.input_tracker, batch_max)
    models["frozen"] = export(models["qat"])
    models["dq"] = dq_quantize(models["fp32"])
    return models


# the sha256 of each kind's artifact from _golden_models: any change to the
# bytes a model serializes to shows here
GOLDEN_SHA256 = {
    "fp32": "c556baa857f0ac386bac91ed9f394fdcd883b3c7873cf6b2947ae555f5e49e6d",
    "qat": "493bec6d7cc0c1313e4e2ad7106ec80f2f8e925aed3584a21361ee6afdd681f4",
    "frozen": "926b2aa744e056c2ded67b06bb9552982b7f8a357ebf67c5d0af5ac252b8f242",
    "dq": "ef5bbaef7344ff27c9b8cc3205d1d66329433e9422969e998aceaeb18f955b9a",
}


def test_artifact_bytes_match_their_golden_hashes():
    blobs = {kind: serialize(model) for kind, model in _golden_models().items()}
    assert {kind: hashlib.sha256(data).hexdigest() for kind, data in blobs.items()} == GOLDEN_SHA256
    for kind, data in blobs.items():
        assert serialize(deserialize(data)) == data, kind


def _doc_schema():
    """The tensor-schema table of docs/format.md, as {artifact kind: {layer
    kind: [(suffix, dtype, whether it has a scale)]}}."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "format.md").read_text()
    section = text.split("## Tensor schema", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip().strip("|").split("|") for line in section.splitlines()
            if line.startswith("| ") and not line.startswith("| ---")]
    header, body = rows[0], rows[1:]
    layer_kinds = {"embedding": EMBEDDING, "layer norm": NORM, "linear": LINEAR}
    schema = {}
    for column, cell in enumerate(header[2:], start=2):
        for kind in re.findall(r"`([\w-]+)`", cell):
            schema[kind] = {layer_kinds[row[0].strip()]: [
                (suffix, dtype, bool(scale)) for suffix, dtype, scale in re.findall(
                    r"`(\w+)` (f32|i8|i32)(?: `\[[^\]]*\]`)?(, scale)?", row[column])]
                for row in body}
    return schema


def test_doc_table_matches_the_schema():
    from_code = {kind: {layer_kind: [(suffix, dtype, scale_field is not None)
                                     for suffix, dtype, _, scale_field in stored]
                        for layer_kind, (_, _, stored, _) in leaves.items()}
                 for kind, (_, _, leaves) in SCHEMA.items()}
    assert _doc_schema() == from_code


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


@pytest.mark.parametrize("kind", KINDS)
def test_loading_draws_no_random_numbers(models, kind, monkeypatch):
    # each layer is built from its tensors, not drawn and then overwritten
    data = serialize(models[kind])

    def no_rng(*args, **kwargs):
        raise AssertionError("deserialize made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    assert serialize(deserialize(data)) == data


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


@pytest.mark.parametrize("kind", ["frozen", "dq"])
def test_rejects_int8_minus_128(models, kind):
    header, _, payload = _split(serialize(models[kind]))
    entry = next(e for e in header["tensors"] if e["name"] == "blocks.0.attn.k_proj.weight_q")
    mutated = bytearray(payload)
    mutated[entry["offset"]] = 0x80
    with pytest.raises(FormatError, match="-128"):
        deserialize(_rebuild(header, bytes(mutated)))


@pytest.mark.parametrize("tensor", ["classifier.weight_q", "token_emb.table_q"])
@pytest.mark.parametrize("bits,value,loads", [
    (4, 7, True), (4, -7, True), (4, 8, False), (4, -8, False), (4, 100, False),
    (8, 127, True), (8, -127, True), (8, -128, False)])
@pytest.mark.parametrize("kind", ["frozen", "dq"])
def test_int8_payloads_must_lie_on_the_grid(artifacts, kind, bits, value, loads, tensor):
    header, _, payload = _split(artifacts[bits, kind])
    entry = next(e for e in header["tensors"] if e["name"] == tensor)
    mutated = bytearray(payload)
    mutated[entry["offset"]] = value & 0xFF
    data = _rebuild(header, bytes(mutated))
    if loads:
        assert serialize(deserialize(data)) == data
    else:
        with pytest.raises(FormatError, match=f"{tensor} contains {value}, off the"):
            deserialize(data)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(bits=st.integers(2, 8), num_heads=st.integers(1, 3), head_dim=st.integers(1, 4),
       ffn_dim=st.integers(1, 12), num_layers=st.integers(1, 2), data=st.data())
def test_every_config_checks_its_int8_grid(bits, num_heads, head_dim, ffn_dim, num_layers,
                                           data):
    config = replace(TINY, dim=num_heads * head_dim, num_heads=num_heads, ffn_dim=ffn_dim,
                     num_layers=num_layers, bits=bits)
    models = _train_models(config)
    m = max_quant_value(bits)
    for kind in ("frozen", "dq"):
        header, _, payload = _split(serialize(models[kind]))
        entry = data.draw(st.sampled_from([e for e in header["tensors"] if e["dtype"] == "i8"]))
        at = entry["offset"] + data.draw(st.integers(0, math.prod(entry["shape"]) - 1))

        def write(value):
            mutated = bytearray(payload)
            mutated[at] = value & 0xFF
            return _rebuild(header, bytes(mutated))

        # one step past the grid; at 8 bits only -128 is an Int8 value past it
        off = data.draw(st.sampled_from([-m - 1] if bits == 8 else [m + 1, -m - 1]))
        message = re.escape(f"{entry['name']} contains {off}, off the")
        with pytest.raises(FormatError, match=message):
            deserialize(write(off))
        edge = write(data.draw(st.sampled_from([m, -m])))
        assert serialize(deserialize(edge)) == edge


def test_rejects_int32_bias_that_could_wrap(models):
    header, _, payload = _split(serialize(models["frozen"]))
    entry = next(e for e in header["tensors"] if e["name"] == "classifier.bias_q")
    mutated = bytearray(payload)
    mutated[entry["offset"]:entry["offset"] + 4] = struct.pack("<i", 2**31 - 1)
    with pytest.raises(FormatError, match="classifier"):
        deserialize(_rebuild(header, bytes(mutated)))


@pytest.mark.parametrize("input_scale,weight_scale", [(1e-30, 1e-20), (1e30, 1e30)],
                         ids=["underflow", "overflow"])
def test_rejects_a_bias_scale_past_float32(models, input_scale, weight_scale):
    # each scale alone is a valid float32, but the runtime divides by their
    # float32 product, which is 0 or inf
    header, _, payload = _split(serialize(models["frozen"]))
    header["input_scales"]["blocks.0.fc_expand"] = input_scale
    next(e for e in header["tensors"]
         if e["name"] == "blocks.0.fc_expand.weight_q")["scale"] = weight_scale
    with pytest.raises(FormatError, match="bias scale of 'blocks.0.fc_expand'"):
        deserialize(_rebuild(header, payload))


@pytest.mark.parametrize("key", [field.name for field in fields(ModelConfig)])
def test_rejects_a_config_without_one_of_its_keys(artifacts, key):
    # ModelConfig's default must not stand in for what the saved model had:
    # without `bits` a 4-bit model would load on the 8-bit grid
    header, _, payload = _split(artifacts[4, "qat"])
    del header["config"][key]
    with pytest.raises(FormatError, match=f"^model config in header has no '{key}'$"):
        deserialize(_rebuild(header, payload))


@pytest.mark.parametrize("tensor,kind", [
    ("token_emb.table", "fp32"), ("blocks.0.norm_ffn.gain", "qat"),
    ("classifier.bias_q", "frozen"), ("blocks.0.fc_expand.bias", "dq")])
def test_rejects_a_scale_on_a_tensor_whose_schema_has_none(models, tensor, kind):
    # a scale is stored only where the schema names one; any other would be
    # dropped on load and missing on save
    header, _, payload = _split(serialize(models[kind]))
    next(e for e in header["tensors"] if e["name"] == tensor)["scale"] = 2.0
    with pytest.raises(FormatError, match=f"^tensor {re.escape(tensor)} has a stray scale$"):
        deserialize(_rebuild(header, payload))


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
    pytest.param(lambda header: {**header, "config": {**header["config"], "bits": 12}},
                 False, id="bits-12"),
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


def _set_tracker(key, value):
    def mutate(header):
        header["trackers"]["blocks.0.fc_reduce"][key] = value
        return header
    return mutate


@pytest.mark.parametrize("mutate", [
    pytest.param(_set_tracker("initialized", "no"), id="string-initialized"),
    pytest.param(_set_tracker("initialized", 1), id="int-initialized"),
    pytest.param(_set_tracker("initialized", None), id="null-initialized"),
    pytest.param(_set_tracker("running_max", True), id="bool-running-max"),
    pytest.param(_set_tracker("running_max", "3.5"), id="string-running-max"),
    pytest.param(_set_tracker("running_max", 10**400), id="huge-running-max"),
    pytest.param(_set_tracker("decay", "0.9"), id="string-decay"),
    pytest.param(_set_tracker("decay", False), id="bool-decay"),
    pytest.param(_set_tracker("decay", [0.9]), id="list-decay"),
    pytest.param(_set_tracker("decay", 1.5), id="decay-past-1"),
    pytest.param(_set_header("trackers", [1]), id="list-trackers"),
    pytest.param(lambda header: {**header, "trackers": {**header["trackers"], "classifier": 7}},
                 id="int-tracker"),
])
def test_rejects_mistyped_tracker_state(models, mutate):
    header, _, payload = _split(serialize(models["qat"]))
    with pytest.raises(FormatError, match="tracker"):
        deserialize(_rebuild(mutate(header), payload))


@pytest.mark.parametrize("quant_enabled", [False, True], ids=["fp32", "qat"])
def test_training_a_loaded_model_continues_exactly(quant_enabled):
    # loading restores all a model's training state: the weights, m, the
    # EMA trackers and zeroed gradients
    rng = np.random.default_rng(1)
    ids = rng.integers(0, 8, size=(64, 4))
    labels = (ids[:, 1] >= 4).astype(np.int64)
    model = TransformerEncoderModel(TINY, quant_enabled=quant_enabled, seed=0)
    train(model, ids, labels, TrainConfig(epochs=1, batch_size=32, seed=0))
    resumed = deserialize(serialize(model))
    more = TrainConfig(epochs=2, batch_size=16, seed=5)
    train(model, ids, labels, more)
    train(resumed, ids, labels, more)
    assert serialize(resumed) == serialize(model)


def test_inspect_header_reports_sizes(models):
    data = serialize(models["frozen"])
    info = inspect_header(data)
    assert info["kind"] == "int8-frozen"
    assert info["total_bytes"] == len(data)
    assert info["payload_bytes"] == sum(info["payload_bytes_by_dtype"].values())


def test_inspect_header_reports_the_file_size(models):
    # a header written with other JSON spacing is still valid; the total is
    # the file's size, not that of the header re-encoded
    header, _, payload = _split(serialize(models["frozen"]))
    blob = json.dumps(header, indent=1).encode()
    data = MAGIC + bytes([1]) + struct.pack("<I", len(blob)) + blob + payload
    deserialize(data)
    assert inspect_header(data)["total_bytes"] == len(data)


# ---------------------------------------------------------------------------
# fuzzing: any damage to an artifact is a FormatError or a loadable model
# ---------------------------------------------------------------------------

FUZZ = settings(max_examples=250, deadline=None, derandomize=True, database=None)

# JSON values of every type: numbers past the float and integer ranges and
# long lists of small integers (shapes of many dimensions) get a share of
# their own
JSON_VALUES = st.one_of(
    st.sampled_from([2**31, 2**64, 10**400, -(10**400), 1e300, 1e-300, -0.0]),
    st.lists(st.integers(0, 2), max_size=40),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
        max_leaves=4))


def _load_or_reject(data):
    """Loading damaged bytes raises FormatError and nothing else; a model
    that does load serializes again."""
    try:
        model = deserialize(data)
    except FormatError:
        return
    serialize(model)


@FUZZ
@given(bits=st.sampled_from([8, 4]), kind=st.sampled_from(KINDS),
       region=st.sampled_from(["prefix", "header", "payload"]),
       truncate=st.booleans(), data=st.data())
def test_fuzz_damaged_bytes(artifacts, bits, kind, region, truncate, data):
    blob = bytearray(artifacts[bits, kind])
    (header_len,) = struct.unpack("<I", blob[5:9])
    start, end = {"prefix": (0, 9), "header": (9, 9 + header_len),
                  "payload": (9 + header_len, len(blob))}[region]
    pos = data.draw(st.integers(start, end - 1))
    if truncate:
        del blob[pos:]
    else:
        blob[pos] ^= data.draw(st.integers(1, 255))
    _load_or_reject(bytes(blob))


def _json_paths(value, path=()):
    """The path to every value in a JSON document, the root's included."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _paths_by_key(header):
    """The paths into a header grouped by their last key, so that a rare key
    (a tensor's scale, a tracker's decay) is drawn as often as a common one."""
    groups = {}
    for path in _json_paths(header):
        groups.setdefault(repr(path[-1:]) if not path or isinstance(path[-1], str)
                          else "index", []).append(path)
    return [groups[key] for key in sorted(groups)]


@FUZZ
@given(bits=st.sampled_from([8, 4]), kind=st.sampled_from(KINDS), data=st.data())
def test_fuzz_header_values_of_other_types(artifacts, bits, kind, data):
    header, _, payload = _split(artifacts[bits, kind])
    path = data.draw(st.sampled_from(data.draw(st.sampled_from(_paths_by_key(header)))))
    value = data.draw(JSON_VALUES)
    if not path:
        header = value
    else:
        parent = header
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    _load_or_reject(_rebuild(header, payload))


@pytest.mark.parametrize("tensor", ["token_emb.table_q", "blocks.0.fc_expand.weight_q"])
@pytest.mark.parametrize("kind", ["frozen", "dq"])
def test_rejects_an_int8_tensor_without_its_scale(models, kind, tensor):
    header, _, payload = _split(serialize(models[kind]))
    del next(e for e in header["tensors"] if e["name"] == tensor)["scale"]
    with pytest.raises(FormatError, match=f"^tensor {re.escape(tensor)} has no scale$"):
        deserialize(_rebuild(header, payload))


def test_serialize_refuses_what_is_not_a_model():
    with pytest.raises(TypeError, match="^cannot serialize object of type dict$"):
        serialize({})
