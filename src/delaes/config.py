"""Training configuration and the flat key=value config file format."""
from __future__ import annotations

import dataclasses
import math
import typing
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
    trainable_embeddings: bool = True

    def __post_init__(self):
        if not self.windows or any(k < 1 for k in self.windows):
            raise UsageError("windows must be a non-empty tuple of positive sizes")
        # Each window names its own tensors, so a repeated window would share them.
        if any(a >= b for a, b in zip(self.windows, self.windows[1:])):
            raise UsageError("windows must be strictly ascending")
        for name in ("filters", "batch_size", "hidden_units", "epochs",
                     "embedding_dim", "pool_size", "pool_stride", "min_count"):
            if getattr(self, name) < (0 if name == "epochs" else 1):
                raise UsageError(f"{name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise UsageError("dropout must lie in [0, 1)")
        for name in ("learning_rate", "rmsprop_epsilon"):
            if not 0 < getattr(self, name) < math.inf:
                raise UsageError(f"{name} must be positive and finite")
        if not 0.0 <= self.rmsprop_decay < 1.0:
            raise UsageError("rmsprop_decay must lie in [0, 1)")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise UsageError("grad_clip must be positive or none")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        if not 0.0 < self.val_fraction < 1.0:
            raise UsageError("val_fraction must lie in (0, 1)")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["windows"] = list(self.windows)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """Inverse of :meth:`to_dict`; unknown keys and values not of their
        field's JSON type raise :class:`FormatError`.  A ``summary_mode`` of
        ``"last"``, the only summary the network has, is dropped."""
        if data.get("summary_mode") == "last":
            data = {key: value for key, value in data.items() if key != "summary_mode"}
        types = _field_types()
        unknown = sorted(set(data) - set(types))
        if unknown:
            raise FormatError(f"unknown config key(s) {unknown}")
        return cls(**{key: _from_json(key, types[key], value)
                      for key, value in data.items()})


def _field_types() -> dict:
    """Each field's type: the one table that the config-file parser converts
    to and :meth:`TrainConfig.from_dict` checks against."""
    return typing.get_type_hints(TrainConfig)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _from_json(key: str, kind, value):
    """``value`` as field ``key`` of type ``kind`` takes it from
    :meth:`TrainConfig.to_dict`'s JSON form: ints for int fields, ints or
    floats for float fields."""
    if kind == tuple[int, ...]:
        ok = isinstance(value, list) and all(_is_int(k) for k in value)
        value = tuple(value) if ok else value
    elif kind == float | None:
        ok = value is None or _is_int(value) or isinstance(value, float)
    elif kind is float:
        ok = _is_int(value) or isinstance(value, float)
    elif kind is int:
        ok = _is_int(value)
    else:
        ok = isinstance(value, kind)
    if not ok:
        name = kind.__name__ if isinstance(kind, type) else kind
        raise FormatError(f"config key {key!r}: {value!r} is not of type {name}")
    return value


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
    types = _field_types()
    overrides = {}
    for key, value in entries.items():
        if key not in types:
            raise FormatError(f"unknown config key {key!r}")
        kind = types[key]
        try:
            if kind == tuple[int, ...]:
                overrides[key] = tuple(int(part) for part in value.split(","))
            elif kind == float | None:
                overrides[key] = None if value.lower() in ("none", "") else float(value)
            elif kind is bool:
                overrides[key] = _parse_bool(value)
            else:
                overrides[key] = kind(value)
        except ValueError as exc:
            raise FormatError(f"config key {key!r}: {exc}") from None
    return dataclasses.replace(cfg, **overrides)
