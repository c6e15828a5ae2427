"""Training configuration and its one reader of the flat key=value config file."""
from __future__ import annotations

import dataclasses
import functools
import math
import re
import typing
from dataclasses import dataclass

from .corpus import ScoreRange, text_lines
from .errors import DelaesError, FormatError, UsageError

_RANGE_KEY = re.compile(r"range(\d+)$")


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
        for key, kind in _field_types().items():
            _check_type(key, kind, getattr(self, key))
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
        """Inverse of :meth:`to_dict`; unknown keys and values the constructor
        refuses raise :class:`FormatError`.  A ``summary_mode`` of ``"last"``,
        the only summary the network has, is dropped."""
        if data.get("summary_mode") == "last":
            data = {key: value for key, value in data.items() if key != "summary_mode"}
        unknown = sorted(set(data) - set(_field_types()))
        if unknown:
            raise FormatError(f"unknown config key(s) {unknown}")
        if isinstance(data.get("windows"), list):
            data = {**data, "windows": tuple(data["windows"])}
        try:
            return cls(**data)
        except UsageError as exc:
            raise FormatError(str(exc)) from None


@functools.cache
def _field_types() -> dict:
    """Each field's type: the one table that the constructor checks values
    against and :func:`read_config` parses config-file values to."""
    return typing.get_type_hints(TrainConfig)


def _check_type(key: str, kind, value) -> None:
    """Raise :class:`UsageError` unless ``value`` has field ``key``'s type
    ``kind``; an int field takes no bool, a float field also an int."""
    whole = isinstance(value, int) and not isinstance(value, bool)
    number = whole or isinstance(value, float)
    if not {int: whole, float: number, float | None: number or value is None,
            bool: isinstance(value, bool),
            tuple[int, ...]: isinstance(value, tuple) and all(
                isinstance(k, int) and not isinstance(k, bool) for k in value)}[kind]:
        name = kind.__name__ if isinstance(kind, type) else kind
        raise UsageError(f"config key {key!r}: {value!r} is not of type {name}")


def parse_range(text: str, prompt_id: int = 0) -> ScoreRange:
    """``MIN:MAX`` as ``prompt_id``'s score range, or :class:`UsageError`."""
    try:
        low, high = text.split(":")
        return ScoreRange(prompt_id, int(low), int(high))
    except (ValueError, DelaesError):
        raise UsageError(f"expected MIN:MAX with MIN < MAX, got {text!r}") from None


_BOOLEANS = {"true": True, "yes": True, "1": True, "on": True,
             "false": False, "no": False, "0": False, "off": False}


def _parse_value(kind, text: str):
    """``text`` as a value of field type ``kind``; ValueError if it does not parse."""
    if kind == tuple[int, ...]:
        return tuple(int(part) for part in text.split(","))
    if kind == float | None:
        return None if text.lower() in ("none", "") else float(text)
    if kind is bool and text.lower() not in _BOOLEANS:
        raise ValueError(f"cannot parse {text!r} as a boolean")
    return _BOOLEANS[text.lower()] if kind is bool else kind(text)


def read_config(path) -> tuple[TrainConfig, dict[int, ScoreRange]]:
    """The :class:`TrainConfig` that a flat ``key = value`` file sets over the
    defaults, and the score range that each of its ``rangeN = MIN:MAX`` keys
    sets for prompt N.  Blank lines and ``#`` comments are ignored.  Every
    error names the file: a :class:`FormatError` for a line, key or value that
    does not parse, a :class:`UsageError` for a broken TrainConfig rule."""
    types = _field_types()
    overrides: dict = {}
    ranges: dict[int, ScoreRange] = {}
    for lineno, raw in text_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        match = _RANGE_KEY.match(key)
        if not match and key not in types:
            raise FormatError(f"{path}: unknown config key {key!r}")
        try:
            if match:
                ranges[int(match[1])] = parse_range(value, int(match[1]))
            else:
                overrides[key] = _parse_value(types[key], value)
        except (ValueError, UsageError) as exc:
            raise FormatError(f"{path}: config key {key!r}: {exc}") from None
    try:
        return TrainConfig(**overrides), ranges
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from None
