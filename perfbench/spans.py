"""Span tracing of the qat8 package from outside it.

The package is not edited. A :class:`Tracer` replaces, for the duration of a
``with`` block, every binding of the traced functions in the ``qat8``
modules (``layers`` and ``runtime`` import ``gemm_f32`` and friends by name,
and ``quant.fake_quantize`` calls ``quantize`` through its own module
globals), the traced class methods, and the ``forward``/``backward`` of each
layer instance a workload hands to :meth:`Tracer.watch`. Each wrapper records
one span ``[name, start, end, parent, op]`` in memory; self times and the
per-layer metrics are derived from the spans after the run.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

from qat8 import format as qformat
from qat8 import model, optim, quant, runtime, task, tensor, training

# Layer roles, as named by TransformerEncoderModel.named_modules(), plus the
# two container roles whose self time is the work they do between children:
# the attention block mixes heads (softmax over q.k, then probs.v) and the
# encoder block applies GELU and the residual adds.
ROLES = ("token_emb", "pos_emb", "emb_norm", "q_proj", "k_proj", "v_proj",
         "attn_mix", "out_proj", "norm_attn", "fc_expand", "ffn_act",
         "fc_reduce", "norm_ffn", "classifier")


def _gemm_shape(args):
    a, b = np.shape(args[0]), np.shape(args[1])
    return a[0], a[1], b[1]


def _count_gemm_f32(counts, name, args, result):
    m, k, n = _gemm_shape(args)
    counts[name + ".macs"] += m * k * n


def _count_gemm_i8(counts, name, args, result):
    m, k, n = _gemm_shape(args)
    counts[name + ".macs"] += m * k * n
    # int8 operands read once, int32 product written once
    counts[name + ".bytes"] += m * k + k * n + 4 * m * n


def _count_elems(counts, name, args, result):
    counts[name + ".elems"] += int(np.size(args[0]))


def _count_out_bytes(counts, name, args, result):
    counts[name + ".bytes"] += len(result)


def _count_in_bytes(counts, name, args, result):
    counts[name + ".bytes"] += len(args[0])


# (module, function name, counter): every qat8 module binding of the function
# is replaced; the span is named <module>.<function>.
FUNCTIONS = (
    (tensor, "gemm_f32", _count_gemm_f32),
    (tensor, "gemm_i8_i32", _count_gemm_i8),
    (quant, "quantize", _count_elems),
    (quant, "fake_quantize", None),
    (quant, "dequantize", None),
    (quant, "weight_scale", None),
    (quant, "dynamic_scale", None),
    (quant, "ema_update", None),
    (training, "train", None),
    (training, "accuracy_of", None),
    (training, "softmax_cross_entropy", None),
    (runtime, "int8_linear_infer", None),
    (runtime, "dynamic_linear_infer", None),
    (runtime, "export", None),
    (runtime, "dq_quantize", None),
    (qformat, "serialize", _count_out_bytes),
    (qformat, "deserialize", _count_in_bytes),
)

# The FP32 ops of the integer runtime. Only the runtime's bindings are
# replaced: inside the training layers the same math is part of the layer
# role's own time.
RUNTIME_OPS = ("attention_mix", "layer_norm_forward", "gelu_forward")

METHODS = (
    (model.TransformerEncoderModel, "forward", "model.forward"),
    (model.TransformerEncoderModel, "backward", "model.backward"),
    (optim.Adam, "step", "optim.step"),
    (runtime._IntegerEncoder, "forward", "runtime.forward"),
    (runtime.QuantizedEmbeddingFrozen, "lookup", "runtime.embedding_lookup"),
    (task.SyntheticTask, "generate", "task.generate"),
)


class NullTracer:
    """The untraced run: every hook is a no-op."""

    op = -1

    def watch(self, model):
        return model

    @contextlib.contextmanager
    def paused(self):
        yield


class Tracer(NullTracer):
    """Records spans while active; use as a context manager. It can be
    entered many times; spans accumulate."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._enabled = False      # recording spans
        self._active = False       # bindings replaced
        self._undo: list = []
        self._models: list = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def __enter__(self):
        qat8_modules = [m for n, m in list(sys.modules.items())
                        if n == "qat8" or n.startswith("qat8.")]
        for module, fname, counter in FUNCTIONS:
            original = getattr(module, fname)
            span = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"
            wrapper = self.wrap(span, original, counter)
            for mod in qat8_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        for fname in RUNTIME_OPS:
            self._set(runtime, fname, self.wrap(f"layers.{fname}", getattr(runtime, fname)))
        for cls, meth, span in METHODS:
            self._set(cls, meth, self.wrap(span, vars(cls)[meth]))
        for m in self._models:
            self._watch(m)
        self._active = self._enabled = True
        return self

    def __exit__(self, *exc):
        self._active = self._enabled = False
        for owner, attr, value, had in reversed(self._undo):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._undo.clear()
        return False

    def watch(self, m):
        """Give each layer of a training model a per-role span whenever the
        tracer is active."""
        self._models.append(m)
        if self._active:
            self._watch(m)
        return m

    def _watch(self, m):
        roles = [(name.rsplit(".", 1)[-1], layer) for name, layer in m.named_modules()]
        for block in m.blocks:
            roles += [("attn_mix", block.attn), ("ffn_act", block)]
        for role, layer in roles:
            for meth, tag in (("forward", "fwd"), ("backward", "bwd")):
                self._set(layer, meth, self.wrap(f"layers.{role}.{tag}",
                                                 getattr(layer, meth)))

    @contextlib.contextmanager
    def paused(self):
        """Harness-only work (reference checks) records no spans."""
        was, self._enabled = self._enabled, False
        try:
            yield
        finally:
            self._enabled = was

    # -- analysis -------------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, total, self_s

    def write(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name: (value, unit)."""
    calls, total, self_s = tracer.totals()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    for span in ("tensor.gemm_f32", "tensor.gemm_i8_i32", "quant.quantize",
                 "quant.fake_quantize", "quant.weight_scale", "optim.step",
                 "runtime.int8_linear_infer", "runtime.dynamic_linear_infer",
                 "format.serialize", "format.deserialize"):
        put(f"{span}.calls", calls[span], "count")
        put(f"{span}.self_s", self_s[span], "s")
    put("tensor.gemm_f32.macs", counts["tensor.gemm_f32.macs"], "computed_MAC")
    put("tensor.gemm_i8_i32.macs", counts["tensor.gemm_i8_i32.macs"], "computed_MAC")
    put("tensor.gemm_i8_i32.bytes", counts["tensor.gemm_i8_i32.bytes"], "computed_B")
    put("quant.quantize.elems", counts["quant.quantize.elems"], "count")
    put("quant.ema_update.calls", calls["quant.ema_update"], "count")
    put("format.serialize.bytes", counts["format.serialize.bytes"], "B")
    put("format.deserialize.bytes", counts["format.deserialize.bytes"], "B")
    for span in ("quant.dequantize", "quant.dynamic_scale", "model.forward",
                 "model.backward", "training.softmax_cross_entropy",
                 "runtime.embedding_lookup", "runtime.forward",
                 *(f"layers.{op}" for op in RUNTIME_OPS)):
        put(f"{span}.self_s", self_s[span], "s")
    for span in ("training.train", "training.accuracy_of", "runtime.export",
                 "runtime.dq_quantize", "task.generate"):
        put(f"{span}.s", total[span], "s")
    for role in ROLES:
        put(f"layers.{role}.fwd_self_s", self_s[f"layers.{role}.fwd"], "s")
        put(f"layers.{role}.bwd_self_s", self_s[f"layers.{role}.bwd"], "s")
    put("trace.spans", len(tracer.spans), "count")
    return out
