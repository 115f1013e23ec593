"""Training loop: cross-entropy on the first-token classifier, Adam updates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import TransformerEncoderModel
from .optim import Adam
from .tensor import NonFiniteError


class TrainingDivergedError(RuntimeError):
    """Training met NaN/Inf: in the loss, the logits or a step's values."""


class NonFiniteLogitsError(NonFiniteError):
    """A model produced NaN/Inf logits, which no argmax can score."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 3
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.lr < np.inf:  # NaN fails every comparison
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochMetrics:
    mean_loss: float
    accuracy: float


@dataclass
class TrainReport:
    initial_accuracy: float
    epochs: list[EpochMetrics] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.epochs[-1].accuracy if self.epochs else self.initial_accuracy

    @property
    def loss_curve(self) -> list[float]:
        return [e.mean_loss for e in self.epochs]

    @property
    def accuracy_curve(self) -> list[float]:
        return [e.accuracy for e in self.epochs]

    def to_dict(self) -> dict:
        return {
            "initial_accuracy": self.initial_accuracy,
            "final_accuracy": self.final_accuracy,
            "epochs": [{"mean_loss": e.mean_loss, "accuracy": e.accuracy}
                       for e in self.epochs],
        }


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch. Returns (loss, d_logits)."""
    logits = np.asarray(logits, dtype=np.float32)
    labels = np.asarray(labels)
    n = logits.shape[0]
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(n), labels]))
    probs = np.exp(shifted) / np.exp(log_z)[:, None]
    probs[np.arange(n), labels] -= 1.0
    return loss, probs / np.float32(n)


def accuracy_of(predict_fn, inputs, labels, batch_size: int = 256) -> float:
    """Fraction of argmax predictions matching labels, evaluated in batches.

    Raises :class:`NonFiniteLogitsError` rather than score NaN/Inf logits.
    """
    hits = 0
    for start in range(0, len(inputs), batch_size):
        logits = predict_fn(inputs[start:start + batch_size])
        if not np.isfinite(logits).all():
            raise NonFiniteLogitsError(
                f"non-finite logits (NaN or Inf) in rows {start}-{start + len(logits) - 1}")
        hits += int(np.sum(np.argmax(logits, axis=1) == labels[start:start + batch_size]))
    return hits / len(inputs)


def _initial_accuracy(model, inputs, labels, batch_size) -> float:
    # A quantized model that has never seen data cannot run in eval mode
    # (no activation statistics yet), so the pre-training measurement runs
    # the training-mode forward and doubles as EMA calibration.
    if model.uncalibrated():
        predict = lambda x: model.forward(x, training=True)
    else:
        predict = model.predict_logits
    return accuracy_of(predict, inputs, labels, batch_size)


def train(model: TransformerEncoderModel, inputs, labels,
          config: TrainConfig) -> TrainReport:
    """Train in place; deterministic for a given config and seed.

    Shuffling uses its own generator seeded by ``config.seed`` so two models
    trained with the same seed see identical batch orders. A NaN/Inf met
    anywhere in the run (a :class:`NonFiniteError`) raises
    :class:`TrainingDivergedError`, naming the optimizer steps taken so far.
    """
    inputs = np.asarray(inputs)
    labels = np.asarray(labels)
    if len(inputs) == 0:
        raise ValueError("training dataset is empty")
    if len(inputs) != len(labels):
        raise ValueError("inputs and labels disagree in length")

    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.parameters(), lr=config.lr)
    step = 0
    try:
        report = TrainReport(
            initial_accuracy=_initial_accuracy(model, inputs, labels, config.batch_size)
        )
        for _ in range(config.epochs):
            order = rng.permutation(len(inputs))
            losses = []
            for start in range(0, len(order), config.batch_size):
                idx = order[start:start + config.batch_size]
                logits = model.forward(inputs[idx], training=True)
                loss, d_logits = softmax_cross_entropy(logits, labels[idx])
                if not np.isfinite(loss):
                    raise NonFiniteError("non-finite loss")
                model.zero_grads()
                model.backward(d_logits)
                optimizer.step()
                step += 1
                losses.append(loss)
            epoch_acc = accuracy_of(model.predict_logits, inputs, labels, config.batch_size)
            report.epochs.append(EpochMetrics(float(np.mean(losses)), epoch_acc))
    except NonFiniteError as exc:
        raise TrainingDivergedError(f"{exc} at step {step}") from exc
    return report
