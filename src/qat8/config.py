"""Flat run configuration: defaults, `key = value` files, and overrides."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .model import ModelConfig
from .task import SyntheticTask
from .training import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    # task
    vocab_size: int = 32
    seq_len: int = 16
    trigger_token: int = 1
    blocker_token: int = 2
    data_seed: int = 0
    # model
    dim: int = 48
    num_heads: int = 4
    ffn_dim: int = 192
    num_layers: int = 2
    bits: int = 8
    ema_decay: float = 0.9
    # training
    epochs: int = 3
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    # comparison protocol
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    num_train: int = 2048
    num_eval: int = 1024
    eval_batch: int = 256

    def __post_init__(self):
        for field in ("num_train", "num_eval", "eval_batch"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, got {getattr(self, field)}")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"seeds must be >= 0, got {','.join(map(str, self.seeds))}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            vocab_size=self.vocab_size, max_seq_len=self.seq_len,
            num_classes=2, dim=self.dim, num_heads=self.num_heads,
            ffn_dim=self.ffn_dim, num_layers=self.num_layers,
            bits=self.bits, ema_decay=self.ema_decay,
        )

    def task(self) -> SyntheticTask:
        return SyntheticTask(
            vocab_size=self.vocab_size, seq_len=self.seq_len,
            trigger_token=self.trigger_token, blocker_token=self.blocker_token,
            seed=self.data_seed,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                           lr=self.lr, seed=self.seed)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(name: str, raw: str):
    field = _FIELDS.get(name)
    if field is None:
        known = ", ".join(sorted(_FIELDS))
        raise ValueError(f"unknown config key {name!r} (known keys: {known})")
    raw = raw.strip()
    try:
        if field.type == "tuple[int, ...]":
            return tuple(int(part) for part in raw.split(",") if part.strip())
        if field.type == "float":
            return float(raw)
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"bad value for {name!r}: {raw!r} ({exc})") from exc


def parse_overrides(pairs) -> dict:
    """Parse `key=value` strings (e.g. from repeated --set flags)."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        name, raw = pair.split("=", 1)
        name = name.strip()
        out[name] = _parse_value(name, raw)
    return out


def load_config(path: str | None = None, overrides=()) -> RunConfig:
    """Build a RunConfig from an optional `key = value` file plus overrides.

    File syntax: one `key = value` per line; blank lines and lines starting
    with `#` are ignored. Unknown keys are rejected.
    """
    values: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ValueError(
                        f"{path}:{lineno}: expected `key = value`, got {stripped!r}")
                name, raw = stripped.split("=", 1)
                name = name.strip()
                values[name] = _parse_value(name, raw)
    values.update(parse_overrides(overrides))
    config = RunConfig(**values)
    # Fail fast on cross-field problems (head divisibility, token ranges, ...).
    config.model_config()
    config.task()
    config.train_config()
    return config
