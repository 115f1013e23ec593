"""The qat8 benchmark workloads and the loop that runs them.

Every workload serves the same four model kinds -- ``fp32`` (the FP32
model), ``qat`` (the QAT model, FP32 fake-quant simulation),
``int8_frozen`` (the exported integer model) and ``int8_dynamic`` (the DQ
model) -- and reports, for each kind, the time of one sample of work on it.
What a sample is depends on the workload; README.md has the table.

All workloads are closed loops with one client in one process. The harness
calls the package only through module attributes (``training.train``,
``runtime.export``, ``qformat.serialize``...), so the tracer's replacements
of those attributes see every call.

The machine is shared, and its speed drifts between modes up to ~1.7x apart
for tens of seconds at a time, by a different factor for each kind of
arithmetic. The train and batch-eval workloads therefore gate on normalized
samples: the process CPU time of each sample, which leaves out the time the
machine gave to others, brought to the reference machine's speed by fixed
reference kernels of the arithmetic the sample runs, timed just before it
(:class:`Reference`). Set-up is normalized the same way in every workload.
The wall times stay in the run record.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from qat8 import format as qformat
from qat8 import model, runtime, task, training
from qat8.model import ModelConfig
from qat8.training import TrainConfig

from spans import NullTracer, Tracer, layer_metrics

KINDS = ("fp32", "qat", "int8_frozen", "int8_dynamic")
TAGS = ("fp32", "qatsim", "frozen", "dynamic")   # the kinds in figure names

# The README claims int8-frozen logits track the QAT simulation to ~1e-3;
# tests/test_acceptance.py (C4) checks 1e-3 and 99.9% argmax agreement on
# one model. On models trained with the default config a few rows per
# thousand sit one activation quantization level apart (the FP32 simulation
# rounds a tie the other way; it moves by as much between batch shapes while
# the integer path does not), so the gate is per run: >= 99% of rows within
# LOGIT_TOL and >= 99.9% argmax agreement. A single row further apart than
# ROW_TOL fails its op.
LOGIT_TOL = 1e-3
MIN_CLOSE_ROWS = 0.99
MIN_ARGMAX_AGREEMENT = 0.999
ROW_TOL = 0.05

now = time.perf_counter
cpu = time.process_time
GC_EVERY_S = 1.0


class Reference:
    """Fixed NumPy kernels, one for each kind of arithmetic the model kinds
    mostly run: ``f32`` an FP32 BLAS GEMM, ``i32`` NumPy's int32 ``matmul``
    (what ``gemm_i8_i32`` runs). They call no qat8 code, so a change to the
    package moves the samples and not their references. They write into
    buffers allocated once: a fresh 3 MB result would cost page faults whose
    price depends on the allocator's state, which the earlier work of the
    process sets, not on the machine's speed."""

    SHAPES = {"f32": ((4096, 48), (48, 192), 4), "i32": ((2048, 48), (48, 192), 1)}
    # CPU seconds each takes on the reference machine: a 2-vCPU KVM guest
    # on a Xeon with AVX-512, NumPy 2.4 with OpenBLAS on one thread
    NOMINAL_S = {"f32": 4.5e-3, "i32": 24.0e-3}

    def __init__(self):
        rng = np.random.default_rng(0)
        self.operands = {
            "f32": tuple(rng.standard_normal(shape, dtype=np.float32)
                         for shape in self.SHAPES["f32"][:2]),
            "i32": tuple(rng.integers(-127, 128, shape, dtype=np.int32)
                         for shape in self.SHAPES["i32"][:2])}
        self.out = {ref: np.matmul(a, b) for ref, (a, b) in self.operands.items()}
        self.times = defaultdict(list)

    def scale(self, refs: tuple[str, ...]) -> float:
        """Time each of the ``refs`` kernels once; return the factor that
        brings the CPU time of a sample taken now to the reference machine's
        speed: the geometric mean of their nominal over measured times."""
        factor = 1.0
        for ref in refs:
            a, b = self.operands[ref]
            out = self.out[ref]
            t0 = cpu()
            for _ in range(self.SHAPES[ref][2]):
                np.matmul(a, b, out=out)
            t = cpu() - t0
            self.times[ref].append(t)
            factor *= self.NOMINAL_S[ref] / t
        return factor ** (1.0 / len(refs))


@dataclass(frozen=True)
class Sizes:
    """Problem sizes. The defaults are the package defaults (``qat8 train``)."""

    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    num_train: int = 2048
    eval_batch: int = 256
    eval_rows: int = 2048       # the batch-eval split
    online_rows: int = 512      # distinct rows the online requests cycle through
    setup_repeats: int = 25
    # one train op: the default config on the first rows, for fewer epochs,
    # so that a run holds enough samples for a steady median
    train_op_rows: int = 512
    train_op_epochs: int = 1


@dataclass
class Outcome:
    times: dict[str, list[float]]   # timed samples of each kind, seconds
    ok: bool
    digest: bytes               # hash of the op's outputs
    error: str | None = None
    # per kind, the samples normalized to reference speed, in seconds, where
    # the workload normalizes
    norm: dict[str, list[float]] = field(default_factory=dict)


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.digest()


def _predict(m, x, batch):
    return np.concatenate([m.predict_logits(x[i:i + batch])
                           for i in range(0, len(x), batch)])


def _train(sizes: Sizes, cfg: TrainConfig, quant_enabled: bool, x, y, tracer):
    """Train one model as ``qat8 train`` does; return it and the wall and
    CPU seconds ``train()`` took."""
    m = tracer.watch(model.TransformerEncoderModel(
        sizes.model, quant_enabled=quant_enabled, seed=cfg.seed))
    t0, c0 = now(), cpu()
    report = training.train(m, x, y, cfg)
    secs = now() - t0, cpu() - c0
    if not all(math.isfinite(v) for v in report.loss_curve):
        raise training.TrainingDivergedError("non-finite epoch loss")
    return m, secs


class Agreement:
    """int8-frozen logits against the QAT simulation, row by row."""

    def __init__(self):
        self.rows = self.close = self.agree = 0
        self.max_gap = 0.0

    def check(self, frozen, qatsim) -> bool:
        gap = np.abs(frozen - qatsim).max(axis=1)
        self.rows += len(gap)
        self.close += int(np.sum(gap <= LOGIT_TOL))
        self.agree += int(np.sum(frozen.argmax(axis=1) == qatsim.argmax(axis=1)))
        self.max_gap = max(self.max_gap, float(gap.max()))
        return bool(gap.max() <= ROW_TOL)

    @property
    def ok(self) -> bool:
        return (self.close >= MIN_CLOSE_ROWS * self.rows
                and self.agree >= MIN_ARGMAX_AGREEMENT * self.rows)

    def record(self) -> dict:
        return {"rows": self.rows, f"rows_within_{LOGIT_TOL:g}": self.close,
                "argmax_agree": self.agree, "max_gap": self.max_gap}


class Workload:
    name = ""
    warmup_ops = 0              # leading ops checked but left out of timings
    statistic = "median"        # of the sample times, gated as <kind>_ms
    sample: dict[str, str] = {}  # what one timed sample of each kind is
    # each kind's Reference kernels; empty: the samples are raw wall times
    refs: dict[str, tuple[str, ...]] = {}

    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        self.task = task.SyntheticTask(vocab_size=sizes.model.vocab_size,
                                       seq_len=sizes.model.max_seq_len)
        self.agreement = Agreement()
        self.reference = Reference()

    def fixture(self, seed: int):
        """Untimed state built once per run (trained checkpoints)."""
        return None

    def setup(self, seed: int, fix, tracer) -> dict:
        raise NotImplementedError

    def prepare(self, st: dict) -> None:
        """Harness-only reference results, built after set-up, untimed."""

    def op(self, st: dict, i: int, tracer) -> Outcome:
        raise NotImplementedError

    def figures(self, st: dict, times: dict) -> dict:
        """The workload's own named figures for the run record."""
        return {}

    def outputs(self, st: dict) -> list[bytes]:
        """Digests of the distinct outputs the run produced, in a fixed
        order, so two commits can be checked for bit-identical results."""
        return [digest for _, digest in sorted(st["seen"].items())]


class TrainWorkload(Workload):
    """One op makes each kind from data: train an FP32 and a QAT model on
    the default config for ``train_op_epochs`` over ``train_op_rows`` rows,
    export the QAT model, dynamically quantize the FP32 one. A kind's sample
    is the time from data to that model."""

    name = "train"
    sample = {"fp32": "train()", "qat": "train()",
              "int8_frozen": "train() + export()",
              "int8_dynamic": "train() + dq_quantize()"}
    # every sample is mostly training: FP32 GEMMs and elementwise work
    refs = {k: ("f32",) for k in KINDS}

    def setup(self, seed, fix, tracer):
        s = self.sizes
        x, y = self.task.generate(s.train_op_rows + s.eval_batch, seed=2 * seed)
        return {"seed": seed, "x": x[:s.train_op_rows], "y": y[:s.train_op_rows],
                "ex": x[s.train_op_rows:], "seen": {}, "export": [], "dq": []}

    def op(self, st, i, tracer):
        s = self.sizes
        cfg = replace(s.train, seed=st["seed"], epochs=s.train_op_epochs)
        scale_base = self.reference.scale(self.refs["fp32"])
        base, (t_base, c_base) = _train(s, cfg, False, st["x"], st["y"], tracer)
        scale_qat = self.reference.scale(self.refs["qat"])
        qat, (t_qat, c_qat) = _train(s, cfg, True, st["x"], st["y"], tracer)
        t0, c0 = now(), cpu()
        frozen = runtime.export(qat)
        t1, c1 = now(), cpu()
        dynamic = runtime.dq_quantize(base)
        t2, c2 = now(), cpu()
        st["export"].append(t1 - t0)
        st["dq"].append(t2 - t1)
        times = {"fp32": [t_base], "qat": [t_qat], "int8_frozen": [t_qat + t1 - t0],
                 "int8_dynamic": [t_base + t2 - t1]}
        norm = {"fp32": [c_base * scale_base], "qat": [c_qat * scale_qat],
                "int8_frozen": [(c_qat + c1 - c0) * scale_qat],
                "int8_dynamic": [(c_base + c2 - c1) * scale_base]}
        with tracer.paused():
            logits = [m.predict_logits(st["ex"]) for m in (base, qat, frozen, dynamic)]
        ok = all(np.isfinite(v).all() for v in logits)
        ok = self.agreement.check(logits[2], logits[1]) and ok
        digest = _digest(*(p.value for m in (base, qat) for p in m.parameters().values()),
                         *logits)
        # every op trains from the same seed, so its outputs must repeat
        ok = ok and st["seen"].setdefault("models", digest) == digest
        return Outcome(times, ok, digest, norm=norm)

    def figures(self, st, times):
        s = self.sizes
        steps = s.train_op_epochs * math.ceil(s.train_op_rows / s.train.batch_size)
        return {"train_fp32_steps_per_s": (steps / _median(times["fp32"]), "steps/s"),
                "train_qat_steps_per_s": (steps / _median(times["qat"]), "steps/s"),
                "export_ms": (1e3 * _median(st["export"]), "ms"),
                "dq_quantize_ms": (1e3 * _median(st["dq"]), "ms")}


class _ServingWorkload(Workload):
    """Serves the four kinds from checkpoints trained once per run.

    Checkpoint training is the train workload's op and is measured there;
    here it is an untimed fixture. Set-up is what a user pays before the
    first request: load both checkpoints, export the QAT one, dynamically
    quantize the FP32 one, and make the inputs.
    """

    rows_attr = ""

    def fixture(self, seed):
        s = self.sizes
        x, y = self.task.generate(s.num_train, seed=2 * seed)
        cfg = replace(s.train, seed=seed)
        return {k: qformat.serialize(_train(s, cfg, quant, x, y, NullTracer())[0])
                for k, quant in (("fp32", False), ("qat", True))}

    def setup(self, seed, fix, tracer):
        base = tracer.watch(qformat.deserialize(fix["fp32"]))
        qat = tracer.watch(qformat.deserialize(fix["qat"]))
        models = {"fp32": base, "qat": qat, "int8_frozen": runtime.export(qat),
                  "int8_dynamic": runtime.dq_quantize(base)}
        x, y = self.task.generate(getattr(self.sizes, self.rows_attr), seed=2 * seed + 1)
        return {"models": models, "x": x, "y": y, "seen": {}, "logits": {}}


class BatchEvalWorkload(_ServingWorkload):
    """One op scores one ``eval_batch`` of the split through all four kinds,
    in an order rotated each op, so drift of the machine hits all alike."""

    name = "batch-eval"
    warmup_ops = 1
    rows_attr = "eval_rows"
    sample = {k: "one eval_batch" for k in KINDS}
    # FP32 GEMMs dominate the FP32 and simulated kinds. The int8 kinds run
    # gemm_i8_i32 and FP32 elementwise work (scales, norms, softmax, GELU);
    # over recordings of batches on the shared machine their times tracked
    # the pair of kernels better than either alone
    refs = {"fp32": ("f32",), "qat": ("f32",), "int8_frozen": ("f32", "i32"),
            "int8_dynamic": ("f32", "i32")}

    def op(self, st, i, tracer):
        b = self.sizes.eval_batch
        nb = math.ceil(len(st["x"]) / b)
        start = (i % nb) * b
        xb = st["x"][start:start + b]
        out, times, norm = {}, {}, {}
        for k in KINDS[i % 4:] + KINDS[:i % 4]:
            scale = self.reference.scale(self.refs[k])
            t0, c0 = now(), cpu()
            out[k] = st["models"][k].predict_logits(xb)
            times[k] = [now() - t0]
            norm[k] = [(cpu() - c0) * scale]
        logits = [out[k] for k in KINDS]
        digest = _digest(*logits)
        ok = all(np.isfinite(v).all() for v in logits)
        ok = self.agreement.check(out["int8_frozen"], out["qat"]) and ok
        ok = ok and st["seen"].setdefault(start, digest) == digest
        st["logits"].setdefault(start, out)
        return Outcome(times, ok, digest, norm=norm)

    def figures(self, st, times):
        rows = min(self.sizes.eval_batch, len(st["x"]))
        fig = {f"eval_{tag}_rows_per_s": (rows / _median(times[k]), "rows/s")
               for k, tag in zip(KINDS, TAGS)}
        # accuracy over the rows of the first pass (each batch is scored
        # identically on every pass)
        starts = sorted(st["logits"])
        y = np.concatenate([st["y"][s:s + self.sizes.eval_batch] for s in starts])
        for k, tag in zip(KINDS, TAGS):
            logits = np.concatenate([st["logits"][s][k] for s in starts])
            fig[f"acc_{tag}_pct"] = (100.0 * float(np.mean(logits.argmax(axis=1) == y)), "%")
        return fig


class OnlineWorkload(_ServingWorkload):
    """One op is one request that scores one row. Requests cycle through the
    four kinds; the rows cycle through ``online_rows`` distinct inputs."""

    name = "online"
    warmup_ops = 8
    statistic = "p90"           # p50 flips between two machine-speed modes
    rows_attr = "online_rows"
    sample = {k: "one request" for k in KINDS}

    def prepare(self, st):
        st["qat_ref"] = _predict(st["models"]["qat"], st["x"], self.sizes.eval_batch)

    def op(self, st, i, tracer):
        k = KINDS[i % 4]
        r = (i // 4) % len(st["x"])
        row = st["x"][r:r + 1]
        t0 = now()
        out = st["models"][k].predict_logits(row)
        t = now() - t0
        ok = bool(np.isfinite(out).all())
        if k == "int8_frozen":
            ok = self.agreement.check(out, st["qat_ref"][r:r + 1]) and ok
        digest = _digest(out)
        ok = ok and st["seen"].setdefault((k, r), digest) == digest
        return Outcome({k: [t]}, ok, digest)

    def figures(self, st, times):
        fig = {}
        for k, tag in zip(KINDS, TAGS):
            if times[k]:
                ms = 1e3 * np.percentile(times[k], [50, 90])
                fig[f"online_{tag}_p50_ms"] = (float(ms[0]), "ms")
                fig[f"online_{tag}_p90_ms"] = (float(ms[1]), "ms")
        return fig


class ArtifactWorkload(_ServingWorkload):
    """One op saves each of the four artifact kinds from memory and loads it
    back, in memory. Saving a frozen or dq artifact includes its export or
    dq conversion, as ``qat8 quantize`` does."""

    name = "artifact"
    warmup_ops = 1
    statistic = "p90"           # as online: the median flips between modes
    sample = {k: "save + load" for k in KINDS}

    def setup(self, seed, fix, tracer):
        return {"fp32": qformat.deserialize(fix["fp32"]),
                "qat": qformat.deserialize(fix["qat"]), "seen": {},
                "save": defaultdict(list), "load": defaultdict(list)}

    def _convert(self, st, k):
        if k == "int8_frozen":
            return runtime.export(st["qat"])
        if k == "int8_dynamic":
            return runtime.dq_quantize(st["fp32"])
        return st[k]

    def op(self, st, i, tracer):
        times, blobs, ok = {}, [], True
        for k in KINDS[i % 4:] + KINDS[:i % 4]:
            t0 = now()
            data = qformat.serialize(self._convert(st, k))
            t1 = now()
            back = qformat.deserialize(data)
            t2 = now()
            times[k] = [t2 - t0]
            if i >= self.warmup_ops:
                st["save"][k].append(t1 - t0)
                st["load"][k].append(t2 - t1)
            with tracer.paused():
                ok = ok and qformat.serialize(back) == data
            ok = ok and st["seen"].setdefault(k, data) == data
            blobs.append(data)
        return Outcome(times, ok, _digest(*blobs))

    def figures(self, st, times):
        fig = {}
        for phase in ("save", "load"):
            per_kind = [np.median(st[phase][k]) for k in KINDS if st[phase][k]]
            if per_kind:
                fig[f"artifact_{phase}_per_s"] = (len(per_kind) / sum(per_kind),
                                                  "artifacts/s")
        for k, data in st["seen"].items():
            fig[f"{k}_artifact_bytes"] = (len(data), "B")
        return fig


WORKLOADS = {w.name: w for w in (TrainWorkload, BatchEvalWorkload,
                                 OnlineWorkload, ArtifactWorkload)}


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


@dataclass
class Loop:
    attempted: int = 0
    failed: int = 0
    times: dict = field(default_factory=lambda: defaultdict(list))   # wall, as measured
    scaled: dict = field(default_factory=lambda: defaultdict(list))  # gated: normalized or wall
    digests: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def _loop(wl: Workload, st: dict, tracer, *, seconds=None, count=None,
          first=0) -> Loop:
    """Run ops numbered from ``first`` until ``seconds`` have passed (at
    least one op) or for exactly ``count`` ops."""
    res = Loop()
    deadline = now() + (seconds or 0.0)
    i = first
    collected = now()
    while (i < first + count) if count is not None else (i == first or now() < deadline):
        tracer.op = i
        # as timeit does, keep the cycle collector out of the timed samples;
        # collect between ops instead
        if now() - collected > GC_EVERY_S:
            gc.collect()
            collected = now()
        gc.disable()
        try:
            out = wl.op(st, i, tracer)
        except Exception as exc:  # an op that raises is a failed op; keep going
            out = Outcome({}, False, b"", f"op {i}: {exc!r}")
            res.errors.append(traceback.format_exc())
        finally:
            gc.enable()
        res.attempted += 1
        if not out.ok:
            res.failed += 1
            if out.error is None:
                res.errors.append(f"op {i}: output check failed")
        elif i >= wl.warmup_ops:
            for k, v in out.times.items():
                res.times[k].extend(v)
                res.scaled[k].extend(out.norm.get(k, v))
        res.digests.append(out.digest)
        i += 1
    return res


def tail(samples):
    """The highest of the usual percentiles with at least ten samples beyond
    it, and its value; (None, None) when the sample is too small."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(samples, p))
    return None, None


def _timing(samples) -> dict:
    p, v = tail(samples)
    return {"samples": len(samples),
            "median_s": float(np.median(samples)) if samples else None,
            "tail_pct": p, "tail_s": v}


def _median(samples) -> float:
    return float(np.median(samples)) if samples else float("nan")


STATISTICS = {"median": _median,
              "p90": lambda v: float(np.percentile(v, 90))}


def run_workload(name: str, seed: int, seconds: float, trace: bool = False,
                 sizes: Sizes = Sizes()) -> dict:
    """Run one workload; returns the result and its run record."""
    wl = WORKLOADS[name](sizes)
    t0 = now()
    fix = wl.fixture(seed)
    fixture_s = now() - t0
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "fixture_s": fixture_s}
    if trace:
        return _run_traced(wl, seed, seconds, fix, record)

    null = NullTracer()
    # set-up takes milliseconds and drifts with the machine like the samples
    # do, in every workload, so setup_s is normalized like them
    setup_times, setup_norm = [], []
    for _ in range(sizes.setup_repeats):
        scale = wl.reference.scale(("f32",))
        t0, c0 = now(), cpu()
        st = wl.setup(seed, fix, null)
        setup_times.append(now() - t0)
        setup_norm.append((cpu() - c0) * scale)
    wl.prepare(st)
    loop = _loop(wl, st, null, seconds=seconds)
    record.update(
        setup=dict(_timing(setup_times), normalized_median_s=_median(setup_norm)),
        timings={k: dict(_timing(loop.times[k]), sample=wl.sample[k]) for k in KINDS},
        normalized={k: {"reference": "+".join(wl.refs[k]),
                        "median_s": _median(loop.scaled[k])} for k in wl.refs},
        reference={r: dict(_timing(v), nominal_s=Reference.NOMINAL_S[r])
                   for r, v in wl.reference.times.items()},
        outputs_sha256=_digest(*wl.outputs(st)).hex(),
        figures={n: {"value": float(v), "unit": u}
                 for n, (v, u) in wl.figures(st, loop.times).items()},
        errors=loop.errors[:5])
    metrics = {"setup_s": (_median(setup_norm), "s")}
    metrics.update({f"{k}_ms": (1e3 * STATISTICS[wl.statistic](loop.scaled[k])
                                if loop.scaled[k] else float("nan"), "ms")
                    for k in KINDS})
    timed = all(loop.times[k] for k in KINDS)
    return _result(wl, loop, metrics, record, timed)


def _run_traced(wl: Workload, seed: int, seconds: float, fix, record: dict) -> dict:
    """Run each op twice, once untraced and once traced, in alternating
    order so that drift of the machine hits both alike, and require
    identical outputs from the two."""
    tracer = Tracer()
    with tracer:
        st = wl.setup(seed, fix, tracer)
    wl.prepare(st)
    # one untraced warm-up op, so that neither copy of the first pair pays
    # for cold caches
    loop = _loop(wl, st, tracer, count=1)
    ratios, identical = [], True
    deadline = now() + seconds
    i = 1
    while i == 1 or now() < deadline:
        walls, digests = {}, {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.op = i
            with tracer if traced else contextlib.nullcontext():
                t0 = now()
                part = _loop(wl, st, tracer, count=1, first=i)
                walls[traced] = now() - t0
            loop.attempted += part.attempted
            loop.failed += part.failed
            loop.errors += part.errors
            digests[traced] = part.digests[0]
        identical = identical and digests[False] == digests[True]
        ratios.append(walls[True] / walls[False])
        i += 1
    overhead = 100.0 * (float(np.median(ratios)) - 1.0)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_pct"] = (overhead, "%")
    record.update(
        identical_outputs=identical, outputs_sha256=_digest(*wl.outputs(st)).hex(),
        trace_overhead_pct=overhead, traced_ops=len(ratios), errors=loop.errors[:5])
    result = _result(wl, loop, metrics, record, identical)
    result["tracer"] = tracer
    return result


def _result(wl: Workload, loop: Loop, metrics: dict, record: dict, ok: bool) -> dict:
    return {"correct": bool(ok and loop.failed == 0 and wl.agreement.ok),
            "attempted": loop.attempted, "failed": loop.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            "record": dict(record, frozen_vs_qatsim=wl.agreement.record())}
