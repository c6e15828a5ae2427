"""Training configuration and the flat key=value config file format."""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .corpus import text_lines
from .errors import FormatError, UsageError


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for model construction and training.

    The defaults are the production settings; tests and micro-runs override
    them with much smaller values.
    """

    windows: tuple[int, ...] = (2, 3, 4)
    filters: int = 100
    batch_size: int = 128
    hidden_units: int = 128
    dropout: float = 0.4
    epochs: int = 40
    learning_rate: float = 0.001
    embedding_dim: int = 300
    pool_size: int = 2
    pool_stride: int = 2
    seed: int = 42
    rmsprop_decay: float = 0.9
    rmsprop_epsilon: float = 1e-7
    grad_clip: float | None = None
    min_count: int = 1
    val_fraction: float = 0.1
    reshuffle_each_epoch: bool = True
    summary_mode: str = "last"
    trainable_embeddings: bool = True

    def __post_init__(self):
        if not self.windows or any(k < 1 for k in self.windows):
            raise UsageError("windows must be a non-empty tuple of positive sizes")
        if tuple(sorted(self.windows)) != tuple(self.windows):
            raise UsageError("windows must be sorted ascending")
        for name in ("filters", "batch_size", "hidden_units", "epochs",
                     "embedding_dim", "pool_size", "pool_stride", "min_count"):
            if getattr(self, name) < (0 if name == "epochs" else 1):
                raise UsageError(f"{name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise UsageError("dropout must lie in [0, 1)")
        if self.learning_rate <= 0:
            raise UsageError("learning_rate must be positive")
        if not 0.0 < self.val_fraction < 1.0:
            raise UsageError("val_fraction must lie in (0, 1)")
        if self.summary_mode not in ("last", "mean"):
            raise UsageError("summary_mode must be 'last' or 'mean'")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["windows"] = list(self.windows)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """Inverse of :meth:`to_dict`; unknown keys and mistyped values raise
        :class:`FormatError`."""
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise FormatError(f"unknown config key(s) {unknown}")
        kwargs = dict(data)
        try:
            if "windows" in kwargs:
                kwargs["windows"] = tuple(int(k) for k in kwargs["windows"])
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"malformed config: {exc}") from None


def parse_config_file(path) -> dict[str, str]:
    """Read a flat key=value config file.

    Blank lines and '#' comments are ignored.  Values stay raw strings; typed
    interpretation happens in :func:`apply_config_entries`.
    """
    entries: dict[str, str] = {}
    for lineno, raw in text_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise FormatError(f"cannot parse {value!r} as a boolean")


def apply_config_entries(cfg: TrainConfig, entries: dict[str, str]) -> TrainConfig:
    """Return a copy of ``cfg`` with typed overrides applied."""
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    overrides = {}
    for key, value in entries.items():
        if key not in fields:
            raise FormatError(f"unknown config key {key!r}")
        try:
            if key == "windows":
                overrides[key] = tuple(int(part) for part in value.split(","))
            elif key == "grad_clip":
                overrides[key] = None if value.lower() in ("none", "") else float(value)
            elif key in ("dropout", "learning_rate", "rmsprop_decay",
                         "rmsprop_epsilon", "val_fraction"):
                overrides[key] = float(value)
            elif key in ("reshuffle_each_epoch", "trainable_embeddings"):
                overrides[key] = _parse_bool(value)
            elif key == "summary_mode":
                overrides[key] = value
            else:
                overrides[key] = int(value)
        except ValueError as exc:
            raise FormatError(f"config key {key!r}: {exc}") from None
    return dataclasses.replace(cfg, **overrides)
