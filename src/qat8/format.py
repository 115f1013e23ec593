"""Bit-exact binary serialization for FP32 and quantized models.

Single-file `.qat` artifacts, little-endian throughout:

    bytes 0-3    magic b"QAT1"
    byte  4      format version (currently 1)
    bytes 5-8    header length, uint32 LE
    header       UTF-8 JSON: kind, model config, tensor directory,
                 tracker state (qat) or frozen input scales (int8-frozen)
    payload      raw tensor bytes, contiguous, in directory order

The tensor directory is sorted by name and serialization is fully
deterministic: the same model always produces the same bytes. See
docs/format.md for the byte-level reference.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np

from .layers import (BIAS_WRAP, LayerNorm, Parameter, QuantizedEmbedding,
                     QuantizedEmbeddingFrozen, QuantizedLinear, QuantizedLinearFrozen,
                     over_limit)
from .model import EMBEDDING, LINEAR, NORM, ModelConfig, TransformerEncoderModel, layer_tree
from .quant import F32_OVERFLOW, EmaTracker, max_quant_value
from .runtime import DynamicQuantLinear, DynamicQuantModel, QuantizedModelFrozen

MAGIC = b"QAT1"
VERSION = 1

KIND_FP32 = "fp32"
KIND_QAT = "qat"
KIND_FROZEN = "int8-frozen"
KIND_DYNAMIC = "int8-dynamic"

_DTYPES = {"f32": np.dtype("<f4"), "i8": np.dtype("i1"), "i32": np.dtype("<i4")}

# The schema, the one statement of each artifact kind: the model class,
# whether it quantizes (its leaves then share m, the grid max of the
# config's bits), and per layer kind the leaf class, whether it takes m,
# its tensors and the STATE key of the header state it keeps. A tensor
# (suffix, dtype, rank, scale field) is named "<layer name>.<suffix>" and
# is the leaf field of that name; its shape is the first `rank` dimensions
# of the layer's shape in layer_tree, and the leaf field its scale field
# names is stored as its `scale`. docs/format.md has the same table, and
# test_format checks that the two agree.
_NORM = (LayerNorm, False, (("gain", "f32", 1, None), ("bias", "f32", 1, None)), None)
_FP32_EMBEDDING = (QuantizedEmbedding, True, (("table", "f32", 2, None),), None)
_FP32_LINEAR = (("weight", "f32", 2, None), ("bias", "f32", 1, None))
_INT8_EMBEDDING = (QuantizedEmbeddingFrozen, False, (("table_q", "i8", 2, "scale"),), None)
_INT8_WEIGHT = ("weight_q", "i8", 2, "weight_scale")
SCHEMA = {
    KIND_FP32: (TransformerEncoderModel, False, {
        EMBEDDING: _FP32_EMBEDDING, NORM: _NORM,
        LINEAR: (QuantizedLinear, True, _FP32_LINEAR, None)}),
    KIND_QAT: (TransformerEncoderModel, True, {
        EMBEDDING: _FP32_EMBEDDING, NORM: _NORM,
        LINEAR: (QuantizedLinear, True, _FP32_LINEAR, "trackers")}),
    KIND_FROZEN: (QuantizedModelFrozen, True, {
        EMBEDDING: _INT8_EMBEDDING, NORM: _NORM,
        LINEAR: (QuantizedLinearFrozen, True, (_INT8_WEIGHT, ("bias_q", "i32", 1, None)),
                 "input_scales")}),
    KIND_DYNAMIC: (DynamicQuantModel, True, {
        EMBEDDING: _INT8_EMBEDDING, NORM: _NORM,
        LINEAR: (DynamicQuantLinear, True, (_INT8_WEIGHT, ("bias", "f32", 1, None)), None)}),
}


class FormatError(ValueError):
    """The byte stream is not a valid artifact."""


def _f32(x) -> float:
    return float(np.float32(x))


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


_F32_MAX = float(np.finfo(np.float32).max)


def _is_f32(v) -> bool:
    """A JSON number (not a bool) that is finite in float32."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= _F32_MAX


def _is_scale(v) -> bool:
    # float32 rounds 2**-150 and below to zero
    return _is_f32(v) and v > 2.0 ** -150


def artifact_kind(model) -> str:
    for kind, (model_cls, quantized, _) in SCHEMA.items():
        if type(model) is model_cls and model.quant_enabled == quantized:
            return kind
    raise TypeError(f"cannot serialize object of type {type(model).__name__}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize(model) -> bytes:
    """Serialize a model to deterministic artifact bytes."""
    kind = artifact_kind(model)
    modules = dict(model.named_modules())
    _, _, leaves = SCHEMA[kind]
    tensors, states = {}, {}
    for name, layer_kind, _ in layer_tree(model.config):
        layer, (_, _, stored, state) = modules[name], leaves[layer_kind]
        for suffix, dtype, _, scale_field in stored:
            array = getattr(layer, suffix)
            if isinstance(array, Parameter):
                array = array.value
            scale = _f32(getattr(layer, scale_field)) if scale_field else None
            tensors[f"{name}.{suffix}"] = (dtype, array, scale)
        if state:
            field, write, _ = STATE[state]
            states.setdefault(state, {})[name] = write(getattr(layer, field))

    directory, chunks, offset = [], [], 0
    for name in sorted(tensors):
        dtype, array, scale = tensors[name]
        raw = np.ascontiguousarray(array, dtype=_DTYPES[dtype]).tobytes()
        entry = {"name": name, "dtype": dtype, "shape": list(array.shape), "offset": offset}
        if scale is not None:
            entry["scale"] = scale
        directory.append(entry)
        chunks.append(raw)
        offset += len(raw)

    header = {"kind": kind, "config": vars(model.config), "tensors": directory, **states}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"".join([MAGIC, bytes([VERSION]), struct.pack("<I", len(header_bytes)),
                     header_bytes, *chunks])


# ---------------------------------------------------------------------------
# Deserialization
# ---------------------------------------------------------------------------


def _nbytes(entry) -> int:
    return math.prod(entry["shape"]) * _DTYPES[entry["dtype"]].itemsize


def _parse_container(data: bytes):
    """Split the bytes into a header object and a payload that matches its
    tensor directory."""
    if len(data) < 9:
        raise FormatError(f"truncated artifact: {len(data)} bytes, need at least 9")
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r} at byte 0, expected {MAGIC!r}")
    if data[4] != VERSION:
        raise FormatError(f"unsupported format version {data[4]} at byte 4")
    (header_len,) = struct.unpack("<I", data[5:9])
    if 9 + header_len > len(data):
        raise FormatError(
            f"header length {header_len} at byte 5 exceeds file size {len(data)}"
        )
    try:
        header = json.loads(data[9 : 9 + header_len].decode())
    except (ValueError, RecursionError) as exc:
        # a bad encoding, bad JSON, an integer too long to read, deep nesting
        raise FormatError(f"unreadable header JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"header is a JSON {type(header).__name__}, not an object")
    payload = data[9 + header_len :]
    _validate_directory(header.get("tensors"), len(payload))
    return header, payload


def _validate_directory(directory, payload_len: int):
    if not isinstance(directory, list):
        raise FormatError("header has no tensor directory")
    expected_offset = 0
    names = set()
    for entry in directory:
        if not isinstance(entry, dict):
            raise FormatError(f"tensor entry is not an object: {entry!r}")
        for key in ("name", "dtype", "shape", "offset"):
            if key not in entry:
                raise FormatError(f"tensor entry missing key {key!r}: {entry}")
        name, dtype, shape = entry["name"], entry["dtype"], entry["shape"]
        if not isinstance(name, str) or name in names:
            raise FormatError(f"tensor name {name!r} is not a string or repeats")
        names.add(name)
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise FormatError(f"unknown dtype {dtype!r} for {name}")
        if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
            raise FormatError(f"tensor {name}: shape {shape!r} is not a list of "
                              "non-negative integers")
        if "scale" in entry and not _is_scale(entry["scale"]):
            raise FormatError(f"tensor {name}: scale {entry['scale']!r} is not a "
                              "positive finite number")
        if not _is_count(entry["offset"]) or entry["offset"] != expected_offset:
            raise FormatError(
                f"tensor {name}: offset {entry['offset']!r} overlaps or leaves "
                f"a gap (expected {expected_offset})"
            )
        expected_offset += _nbytes(entry)
    if expected_offset != payload_len:
        raise FormatError(
            f"payload length {payload_len} does not match directory total {expected_offset}"
        )


def _config_from_header(header) -> ModelConfig:
    fields = header.get("config")
    if not isinstance(fields, dict) or not all(
            _is_count(v) for k, v in fields.items() if k != "ema_decay"):
        raise FormatError(f"invalid model config in header: {fields!r}")
    # a default would stand in for what the saved model had
    if missing := [f.name for f in dataclasses.fields(ModelConfig) if f.name not in fields]:
        raise FormatError(f"model config in header has no {missing[0]!r}")
    try:
        return ModelConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"invalid model config in header: {exc}") from exc


def _read_tensor(entry, payload) -> np.ndarray:
    raw = payload[entry["offset"] : entry["offset"] + _nbytes(entry)]
    array = np.frombuffer(raw, dtype=_DTYPES[entry["dtype"]]).reshape(entry["shape"]).copy()
    if entry["dtype"] == "f32" and not np.isfinite(array).all():
        raise FormatError(f"tensor {entry['name']} contains non-finite values")
    return array


def _check_grid(int8_tensors: dict, m: int):
    """Every i8 tensor must lie on the symmetric grid [-m, m], so have
    max|q| <= m: quantization never leaves it, and the Int32 bound
    max|bias_q| + K*m^2 holds only for weights on it."""
    off = over_limit((name, q, m) for name, q in int8_tensors.items())
    if off:
        low, high = int8_tensors[off[0]].min(), int8_tensors[off[0]].max()
        raise FormatError(f"tensor {off[0]} contains {low if low < -m else high}, off "
                          f"the symmetric grid [-{m}, {m}] of the header's bits")


def _input_scale(header, name, fields) -> np.float32:
    """A frozen FC's input scale; its product with the weight scale, the bias
    scale the runtime divides by, must be positive and finite in float32."""
    input_scales = header.get("input_scales")
    if not isinstance(input_scales, dict) or not _is_scale(input_scales.get(name)):
        raise FormatError(f"artifact has no valid input scale for {name!r}")
    scale, weight_scale = np.float32(input_scales[name]), fields["weight_scale"]
    # the float64 product of two float32s is exact, so this tests the one
    # rounding to float32 that the runtime's product makes
    product = float(scale) * float(weight_scale)
    if not 2.0 ** -150 < product < F32_OVERFLOW:
        raise FormatError(f"bias scale of {name!r}: input scale {scale} times weight scale "
                          f"{weight_scale} is not positive and finite in float32")
    return scale


def _tracker(header, name, fields) -> EmaTracker:
    trackers = header.get("trackers")
    state = trackers.get(name) if isinstance(trackers, dict) else None
    try:
        if not (isinstance(state["initialized"], bool) and _is_f32(state["decay"])
                and _is_f32(state["running_max"])):
            raise TypeError("initialized must be a bool, decay and running_max numbers")
        return EmaTracker(decay=float(state["decay"]), running_max=_f32(state["running_max"]),
                          initialized=state["initialized"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"artifact has no valid tracker state for {name!r}: "
                          f"{exc!r}") from exc


# The header state a leaf keeps besides its tensors, by header key: (leaf
# field, write, read). The header maps each layer's name to the written
# field; a reader takes (header, layer name, the leaf's fields read so far).
STATE = {
    "trackers": ("input_tracker", lambda t: {"decay": t.decay, "initialized": t.initialized,
                                             "running_max": _f32(t.running_max)}, _tracker),
    "input_scales": ("input_scale", _f32, _input_scale),
}


def _restore(header, payload, config, kind):
    """Build each layer from its tensors and header state, then the model
    from its layers. The directory must list exactly the tensors that the
    schema and the config imply, with their dtypes and shapes."""
    entries = {entry["name"]: entry for entry in header["tensors"]}
    model_cls, quantized, leaves = SCHEMA[kind]
    m = max_quant_value(config.bits) if quantized else None
    layers, int8_tensors = {}, {}
    for name, layer_kind, shape in layer_tree(config):
        leaf_cls, takes_m, stored, state = leaves[layer_kind]
        fields = {"m": m} if takes_m else {}
        for suffix, dtype, rank, scale_field in stored:
            tensor, implied = f"{name}.{suffix}", list(shape[:rank])
            entry = entries.pop(tensor, None)
            if entry is None:
                raise FormatError(f"tensor set mismatch: missing {tensor}")
            if entry["dtype"] != dtype or entry["shape"] != implied:
                raise FormatError(f"tensor {tensor}: dtype {entry['dtype']} and shape "
                                  f"{entry['shape']} are not {dtype} and config shape {implied}")
            fields[suffix] = _read_tensor(entry, payload)
            if dtype == "i8":
                int8_tensors[tensor] = fields[suffix]
            if ("scale" in entry) != bool(scale_field):
                raise FormatError(f"tensor {tensor} has {'no' if scale_field else 'a stray'} scale")
            if scale_field:
                fields[scale_field] = np.float32(entry["scale"])
        if state:
            field, _, read = STATE[state]
            fields[field] = read(header, name, fields)
        layers[name] = leaf_cls(**fields)
    if entries:
        raise FormatError(f"tensor set mismatch: unexpected {sorted(entries)}")
    _check_grid(int8_tensors, m)
    model = model_cls.from_layers(config, layers)
    if wrapping := model.overflowing_layers():
        raise FormatError(f"{BIAS_WRAP}, in {', '.join(wrapping)}")
    return model


def deserialize(data: bytes):
    """Reconstruct a model from artifact bytes. Raises FormatError on damage."""
    header, payload = _parse_container(data)
    kind = header.get("kind")
    if not isinstance(kind, str) or kind not in SCHEMA:
        raise FormatError(f"unknown artifact kind {kind!r}")
    return _restore(header, payload, _config_from_header(header), kind)


def save_artifact(model, path) -> bytes:
    data = serialize(model)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def load_artifact(path):
    with open(path, "rb") as fh:
        return deserialize(fh.read())


def inspect_header(data: bytes) -> dict:
    """Header plus size accounting, for the CLI `inspect` command."""
    header, payload = _parse_container(data)
    by_dtype: dict[str, int] = {}
    for entry in header["tensors"]:
        by_dtype[entry["dtype"]] = by_dtype.get(entry["dtype"], 0) + _nbytes(entry)
    return {
        "kind": header.get("kind"),
        "config": header.get("config"),
        "num_tensors": len(header["tensors"]),
        "payload_bytes": len(payload),
        "payload_bytes_by_dtype": by_dtype,
        "total_bytes": len(data),
    }
