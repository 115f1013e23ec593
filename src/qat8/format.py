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

import json
import math
import struct

import numpy as np

from .layers import Parameter
from .model import EMBEDDING, LINEAR, NORM, ModelConfig, TransformerEncoderModel, layer_tree
from .quant import EmaTracker
from .runtime import (
    DynamicQuantLinear,
    DynamicQuantModel,
    LayerNormFrozen,
    QuantizedEmbeddingFrozen,
    QuantizedLinearFrozen,
    QuantizedModelFrozen,
)

MAGIC = b"QAT1"
VERSION = 1

KIND_FP32 = "fp32"
KIND_QAT = "qat"
KIND_FROZEN = "int8-frozen"
KIND_DYNAMIC = "int8-dynamic"

_DTYPES = {"f32": np.dtype("<f4"), "i8": np.dtype("i1"), "i32": np.dtype("<i4")}

# The tensor schema: for each artifact kind and layer kind, the tensors a
# layer stores, as (suffix, dtype, rank, scale field). A tensor is named
# "<layer name>.<suffix>" and is read from, or restored to, the layer field
# of that name. Its shape is the first `rank` dimensions of the layer's
# shape in layer_tree. A scale field names the layer field stored as the
# tensor's `scale`. docs/format.md has the same table.
_NORM = (("gain", "f32", 1, None), ("bias", "f32", 1, None))
_TRAINING = {EMBEDDING: (("table", "f32", 2, None),), NORM: _NORM,
             LINEAR: (("weight", "f32", 2, None), ("bias", "f32", 1, None))}
_INT8_EMBEDDING = (("table_q", "i8", 2, "scale"),)
_INT8_WEIGHT = ("weight_q", "i8", 2, "weight_scale")
SCHEMA = {
    KIND_FP32: _TRAINING,
    KIND_QAT: _TRAINING,
    KIND_FROZEN: {EMBEDDING: _INT8_EMBEDDING, NORM: _NORM,
                  LINEAR: (_INT8_WEIGHT, ("bias_q", "i32", 1, None))},
    KIND_DYNAMIC: {EMBEDDING: _INT8_EMBEDDING, NORM: _NORM,
                   LINEAR: (_INT8_WEIGHT, ("bias", "f32", 1, None))},
}

# the integer model and its layer class per layer kind
_INTEGER_MODELS = {
    KIND_FROZEN: (QuantizedModelFrozen, {EMBEDDING: QuantizedEmbeddingFrozen,
                                         NORM: LayerNormFrozen, LINEAR: QuantizedLinearFrozen}),
    KIND_DYNAMIC: (DynamicQuantModel, {EMBEDDING: QuantizedEmbeddingFrozen,
                                       NORM: LayerNormFrozen, LINEAR: DynamicQuantLinear}),
}


class FormatError(ValueError):
    """The byte stream is not a valid artifact."""


def _f32(x) -> float:
    return float(np.float32(x))


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _is_scale(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v) and v > 0)


def artifact_kind(model) -> str:
    if isinstance(model, TransformerEncoderModel):
        return KIND_QAT if model.quant_enabled else KIND_FP32
    if isinstance(model, QuantizedModelFrozen):
        return KIND_FROZEN
    if isinstance(model, DynamicQuantModel):
        return KIND_DYNAMIC
    raise TypeError(f"cannot serialize object of type {type(model).__name__}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize(model) -> bytes:
    """Serialize a model to deterministic artifact bytes."""
    kind = artifact_kind(model)
    modules = dict(model.named_modules())
    tensors, extra = {}, {}
    for name, layer_kind, _ in layer_tree(model.config):
        layer = modules[name]
        for suffix, dtype, _, scale_field in SCHEMA[kind][layer_kind]:
            array = getattr(layer, suffix)
            if isinstance(array, Parameter):
                array = array.value
            scale = _f32(getattr(layer, scale_field)) if scale_field else None
            tensors[f"{name}.{suffix}"] = (dtype, array, scale)
        if layer_kind == LINEAR and kind == KIND_QAT:
            tracker = layer.input_tracker
            extra.setdefault("trackers", {})[name] = {
                "decay": tracker.decay,
                "running_max": _f32(tracker.running_max),
                "initialized": tracker.initialized,
            }
        elif layer_kind == LINEAR and kind == KIND_FROZEN:
            extra.setdefault("input_scales", {})[name] = _f32(layer.input_scale)

    directory = []
    chunks = []
    offset = 0
    for name in sorted(tensors):
        dtype, array, scale = tensors[name]
        raw = np.ascontiguousarray(array, dtype=_DTYPES[dtype]).tobytes()
        entry = {"name": name, "dtype": dtype, "shape": list(array.shape),
                 "offset": offset}
        if scale is not None:
            entry["scale"] = scale
        directory.append(entry)
        chunks.append(raw)
        offset += len(raw)

    header = {"kind": kind, "config": vars(model.config),
              "tensors": directory, **extra}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"".join(
        [MAGIC, bytes([VERSION]), struct.pack("<I", len(header_bytes)), header_bytes]
        + chunks
    )


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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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


def _read_tensors(header, payload) -> dict[str, tuple[np.ndarray, float | None]]:
    out = {}
    for entry in header["tensors"]:
        raw = payload[entry["offset"] : entry["offset"] + _nbytes(entry)]
        array = np.frombuffer(raw, dtype=_DTYPES[entry["dtype"]]).reshape(entry["shape"]).copy()
        if entry["dtype"] == "f32" and not np.isfinite(array).all():
            raise FormatError(f"tensor {entry['name']} contains non-finite values")
        # the Int8 grid is symmetric: quantization never produces -128
        if entry["dtype"] == "i8" and array.size and array.min() == -128:
            raise FormatError(f"tensor {entry['name']} contains -128, off the "
                              "symmetric Int8 grid")
        out[entry["name"]] = (array, entry.get("scale"))
    return out


def _config_from_header(header) -> ModelConfig:
    fields = header.get("config")
    if not isinstance(fields, dict) or not all(
            _is_count(v) for k, v in fields.items() if k != "ema_decay"):
        raise FormatError(f"invalid model config in header: {fields!r}")
    try:
        return ModelConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"invalid model config in header: {exc}") from exc


def _check_tensors(tensors, kind, config):
    """The tensors must be exactly those the schema and the config imply."""
    expected = {}
    for name, layer_kind, shape in layer_tree(config):
        for suffix, dtype, rank, scale_field in SCHEMA[kind][layer_kind]:
            expected[f"{name}.{suffix}"] = (dtype, shape[:rank], scale_field)
    if tensors.keys() != expected.keys():
        missing, extra = expected.keys() - tensors.keys(), tensors.keys() - expected.keys()
        raise FormatError(f"tensor set mismatch: missing {sorted(missing)}, "
                          f"unexpected {sorted(extra)}")
    for name, (dtype, shape, scale_field) in expected.items():
        array, scale = tensors[name]
        if array.dtype != _DTYPES[dtype]:
            raise FormatError(f"tensor {name}: dtype {array.dtype} is not {dtype}")
        if array.shape != shape:
            raise FormatError(f"tensor {name}: shape {array.shape} does not match "
                              f"config shape {shape}")
        if scale_field and scale is None:
            raise FormatError(f"tensor {name} has no scale")


def _restore_training_model(header, tensors, config, kind) -> TransformerEncoderModel:
    model = TransformerEncoderModel(config, quant_enabled=(kind == KIND_QAT), seed=0)
    for name, param in model.parameters().items():
        param.value = tensors[name][0]
        param.grad = np.zeros_like(param.value)
    if kind == KIND_QAT:
        trackers = header.get("trackers")
        for name, layer in model.named_qlinears():
            try:
                state = trackers[name]
                layer.input_tracker = EmaTracker(
                    decay=float(state["decay"]),
                    running_max=float(np.float32(state["running_max"])),
                    initialized=bool(state["initialized"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"artifact has no valid tracker state for {name!r}: "
                                  f"{exc!r}") from exc
    return model


def _restore_integer_model(header, tensors, config, kind):
    model_cls, layer_classes = _INTEGER_MODELS[kind]
    input_scales = header.get("input_scales")
    layers = {}
    for name, layer_kind, _ in layer_tree(config):
        fields = {}
        for suffix, _, _, scale_field in SCHEMA[kind][layer_kind]:
            array, scale = tensors[f"{name}.{suffix}"]
            fields[suffix] = array
            if scale_field:
                fields[scale_field] = np.float32(scale)
        if layer_kind == LINEAR and kind == KIND_FROZEN:
            if not isinstance(input_scales, dict) or not _is_scale(input_scales.get(name)):
                raise FormatError(f"artifact has no valid input scale for {name!r}")
            fields["input_scale"] = np.float32(input_scales[name])
        layers[name] = layer_classes[layer_kind](**fields)
    model = model_cls(config, layers)
    wrapping = model.overflowing_layers() if kind == KIND_FROZEN else []
    if wrapping:
        raise FormatError("Int32 bias too large: max|bias_q| + K*m^2 exceeds 2**31 - 1 "
                          f"in {', '.join(wrapping)}")
    return model


def deserialize(data: bytes):
    """Reconstruct a model from artifact bytes. Raises FormatError on damage."""
    header, payload = _parse_container(data)
    kind = header.get("kind")
    if not isinstance(kind, str) or kind not in SCHEMA:
        raise FormatError(f"unknown artifact kind {kind!r}")
    config = _config_from_header(header)
    tensors = _read_tensors(header, payload)
    _check_tensors(tensors, kind, config)
    if kind in _INTEGER_MODELS:
        return _restore_integer_model(header, tensors, config, kind)
    return _restore_training_model(header, tensors, config, kind)


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
