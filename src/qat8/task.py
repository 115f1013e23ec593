"""Synthetic token-counting task and the three-way accuracy comparison.

The task: a sequence is labeled 1 when it contains strictly more trigger
tokens than blocker tokens, 0 otherwise. It is deliberately decision-
boundary-heavy (most examples differ by at most one token) so that small
numeric perturbations show up as measurable accuracy changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelConfig, TransformerEncoderModel
from .runtime import dq_quantize, export
from .training import TrainConfig, accuracy_of, train

_MAX_COUNT = 6


def relative_error(baseline: float, quantized: float) -> float:
    """Accuracy degradation in percent relative to the baseline.

    Positive when the quantized model is worse; negative when it is better.
    """
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return 100.0 * (baseline - quantized) / baseline


def _count_pairs():
    """(trigger_count, blocker_count) pools per label, with sampling weights.

    Pairs adjacent to the decision boundary (difference of one token, or a
    tie) get triple weight so most examples are hard.
    """
    pos, neg = [], []
    for t in range(_MAX_COUNT + 1):
        for b in range(_MAX_COUNT + 1):
            weight = 3.0 if abs(t - b) <= 1 else 1.0
            (pos if t > b else neg).append((t, b, weight))
    return pos, neg


def _pair_arrays(pairs):
    t, b, w = (np.array(col, dtype=np.float64) for col in zip(*pairs))
    return t.astype(np.int64), b.astype(np.int64), w / w.sum()


@dataclass(frozen=True)
class SyntheticTask:
    vocab_size: int = 32
    seq_len: int = 16
    trigger_token: int = 1
    blocker_token: int = 2
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.trigger_token < self.vocab_size:
            raise ValueError("trigger_token out of vocabulary")
        if not 0 <= self.blocker_token < self.vocab_size:
            raise ValueError("blocker_token out of vocabulary")
        if self.trigger_token == self.blocker_token:
            raise ValueError("trigger and blocker tokens must differ")
        if self.seq_len < 2 * _MAX_COUNT:
            raise ValueError(f"seq_len must be at least {2 * _MAX_COUNT}")
        if self.vocab_size < 3:
            raise ValueError("need at least one filler token")

    def generate(self, num_examples: int, seed: int | None = None):
        """Generate (inputs, labels); int64 tokens of shape (n, seq_len)."""
        if num_examples < 1:
            raise ValueError("num_examples must be positive")
        rng = np.random.default_rng(self.seed if seed is None else seed)
        pos, neg = _count_pairs()
        pt, pb, pw = _pair_arrays(pos)
        nt, nb, nw = _pair_arrays(neg)

        labels = rng.integers(0, 2, size=num_examples)
        pos_idx = rng.choice(len(pt), size=num_examples, p=pw)
        neg_idx = rng.choice(len(nt), size=num_examples, p=nw)
        c_t = np.where(labels == 1, pt[pos_idx], nt[neg_idx])
        c_b = np.where(labels == 1, pb[pos_idx], nb[neg_idx])

        # Random per-row placement: rank positions by random scores, then the
        # first c_t ranks hold triggers and the next c_b hold blockers.
        rank = np.argsort(np.argsort(rng.random((num_examples, self.seq_len)),
                                     axis=1), axis=1)
        pool = np.array([t for t in range(self.vocab_size)
                         if t not in (self.trigger_token, self.blocker_token)])
        tokens = pool[rng.integers(0, len(pool), (num_examples, self.seq_len))]
        tokens = np.where(rank < c_t[:, None], self.trigger_token, tokens)
        blocker_zone = (rank >= c_t[:, None]) & (rank < (c_t + c_b)[:, None])
        tokens = np.where(blocker_zone, self.blocker_token, tokens)

        # Recount from the finished sequences; placement must reproduce the
        # intended labels exactly.
        n_trig = (tokens == self.trigger_token).sum(axis=1)
        n_block = (tokens == self.blocker_token).sum(axis=1)
        if not np.array_equal(n_trig > n_block, labels == 1):
            raise RuntimeError("token placement does not reproduce the labels")
        return tokens.astype(np.int64), labels.astype(np.int64)

    def splits(self, num_train: int, num_eval: int):
        """Disjoint train/eval splits drawn from one generation pass."""
        inputs, labels = self.generate(num_train + num_eval)
        return (inputs[:num_train], labels[:num_train],
                inputs[num_train:], labels[num_train:])


# ---------------------------------------------------------------------------
# Comparison protocol
# ---------------------------------------------------------------------------


@dataclass
class MethodResult:
    name: str
    accuracies: list[float]  # percent, one per training seed

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))  # population std over the seeds

    def to_dict(self) -> dict:
        return {"name": self.name, "accuracies": self.accuracies,
                "mean": self.mean, "std": self.std}


@dataclass
class ComparisonReport:
    seeds: list[int]
    num_train: int
    num_eval: int
    baseline: MethodResult
    qat: MethodResult
    dq: MethodResult

    @property
    def qat_relative_error(self) -> float:
        return relative_error(self.baseline.mean, self.qat.mean)

    @property
    def dq_relative_error(self) -> float:
        return relative_error(self.baseline.mean, self.dq.mean)

    def to_dict(self) -> dict:
        return {
            "seeds": list(self.seeds),
            "num_train": self.num_train,
            "num_eval": self.num_eval,
            "methods": [m.to_dict() for m in (self.baseline, self.qat, self.dq)],
            "relative_error_percent": {
                "qat": self.qat_relative_error,
                "dq": self.dq_relative_error,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            f"seeds: {', '.join(str(s) for s in self.seeds)}   "
            f"train/eval: {self.num_train}/{self.num_eval}",
            f"{'method':<10} {'mean acc %':>10} {'std':>7}   per-seed",
        ]
        for m in (self.baseline, self.qat, self.dq):
            per_seed = " ".join(f"{a:.2f}" for a in m.accuracies)
            lines.append(f"{m.name:<10} {m.mean:>10.2f} {m.std:>7.2f}   {per_seed}")
        lines.append(f"relative error vs baseline: "
                     f"qat {self.qat_relative_error:+.2f}%  "
                     f"dq {self.dq_relative_error:+.2f}%")
        return "\n".join(lines) + "\n"


def percent_accuracy(model, inputs, labels, batch_size: int) -> float:
    """Accuracy of a model's logits on (inputs, labels), in percent."""
    return 100.0 * accuracy_of(model.predict_logits, inputs, labels,
                               batch_size=batch_size)


def run_comparison(model_config: ModelConfig, task: SyntheticTask,
                   train_config: TrainConfig, seeds, num_train: int,
                   num_eval: int, eval_batch: int = 256,
                   progress=None) -> ComparisonReport:
    """Train baseline and QAT models per seed; evaluate FP32, frozen-integer,
    and dynamically quantized variants on a shared eval split."""
    if not seeds:
        raise ValueError("need at least one training seed")
    train_x, train_y, eval_x, eval_y = task.splits(num_train, num_eval)

    base_accs, qat_accs, dq_accs = [], [], []
    for seed in seeds:
        cfg = replace(train_config, seed=seed)

        baseline = TransformerEncoderModel(model_config, quant_enabled=False,
                                           seed=seed)
        train(baseline, train_x, train_y, cfg)
        base_accs.append(percent_accuracy(baseline, eval_x, eval_y, eval_batch))

        qat_model = TransformerEncoderModel(model_config, quant_enabled=True,
                                            seed=seed)
        train(qat_model, train_x, train_y, cfg)
        frozen = export(qat_model)
        qat_accs.append(percent_accuracy(frozen, eval_x, eval_y, eval_batch))

        dq_model = dq_quantize(baseline)
        dq_accs.append(percent_accuracy(dq_model, eval_x, eval_y, eval_batch))
        if progress is not None:
            progress(seed, base_accs[-1], qat_accs[-1], dq_accs[-1])

    return ComparisonReport(
        seeds=list(seeds), num_train=num_train, num_eval=num_eval,
        baseline=MethodResult("baseline", base_accs),
        qat=MethodResult("qat", qat_accs),
        dq=MethodResult("dq", dq_accs),
    )
