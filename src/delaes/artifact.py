"""Bit-exact binary persistence of trained models.

Layout: the 8-byte magic ``DELAES01``, a length-prefixed JSON metadata block
(config, vocabulary, score range and optional essay encoding), then a count
of named tensors, each as length-prefixed name, u32 rank, u32 dims and raw
little-endian float32 values.  Saving and reloading reproduces every tensor
bit for bit.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .corpus import ENCODINGS, ScoreRange, Vocabulary
from .errors import DelaesError, FormatError, UsageError
from .network import ModelParameters

MAGIC = b"DELAES01"


@dataclass(frozen=True)
class ModelArtifact:
    """A saved model: one embedding row per vocabulary entry, and an essay
    encoding that is an ``ENCODINGS`` key or None (else :class:`UsageError`)."""

    params: ModelParameters
    vocab: Vocabulary
    score_range: ScoreRange
    encoding: str | None = None

    def __post_init__(self):
        if self.params.vocab_size != self.vocab.size:
            raise UsageError(f"embedding has {self.params.vocab_size} rows, "
                             f"vocabulary has {self.vocab.size} entries")
        # A tuple test, so a JSON list or object is refused like any other value.
        if self.encoding not in (None, *ENCODINGS):
            raise UsageError(f"unsupported encoding {self.encoding!r} (use latin1 or utf8)")


def save_model(params: ModelParameters, vocab: Vocabulary, score_range: ScoreRange,
               path, encoding: str | None = None) -> None:
    """Write a model artifact, recording ``encoding`` only when given; parts
    that make no :class:`ModelArtifact` are refused before the file opens."""
    ModelArtifact(params, vocab, score_range, encoding)
    meta = {
        "config": params.config.to_dict(),
        "vocabulary": vocab.corpus_tokens(),
        "score_range": {
            "prompt_id": score_range.prompt_id,
            "min": score_range.min_score,
            "max": score_range.max_score,
        },
    }
    if encoding is not None:
        meta["encoding"] = encoding
    blob = json.dumps(meta, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(params.tensors)))
        for name, tensor in params.tensors.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", tensor.ndim))
            for dim in tensor.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


class _Reader:
    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self.data = fh.read()
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise FormatError(f"{self.path}: truncated artifact")
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _field(meta, key: str, kind: type):
    """``meta[key]``, required to be present and of type ``kind``; a JSON
    boolean is refused, although Python counts it as an int."""
    value = meta.get(key) if isinstance(meta, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FormatError(f"metadata field {key!r} missing or not a {kind.__name__}")
    return value


def load_model(path) -> ModelArtifact:
    """Read an artifact, rejecting unknown magic, malformed metadata or tensor
    names and shapes that do not match the recorded config and vocabulary;
    an unread key, such as an earlier version's ``created``, is ignored."""
    reader = _Reader(path)
    if reader.take(len(MAGIC)) != MAGIC:
        raise FormatError(f"{path}: not a DELAES01 artifact")
    try:
        meta = json.loads(reader.take(reader.u32()).decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: corrupt metadata block: {exc}") from None

    tensors: dict[str, np.ndarray] = {}
    for _ in range(reader.u32()):
        try:
            name = reader.take(reader.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor name is not UTF-8") from None
        if name in tensors:
            raise FormatError(f"{path}: tensor {name!r} appears twice")
        ndim = reader.u32()
        shape = tuple(reader.u32() for _ in range(ndim))
        raw = reader.take(math.prod(shape) * 4)
        tensors[name] = np.frombuffer(raw, dtype="<f4").astype(
            np.float32).reshape(shape)
    if reader.offset != len(reader.data):
        raise FormatError(f"{path}: trailing bytes after last tensor")

    try:
        cfg = TrainConfig.from_dict(_field(meta, "config", dict))
        vocab = Vocabulary(_field(meta, "vocabulary", list))
        bounds = _field(meta, "score_range", dict)
        score_range = ScoreRange(*(_field(bounds, key, int)
                                   for key in ("prompt_id", "min", "max")))
        # Earlier versions also recorded the config's trainable_embeddings here.
        if meta.get("embedding_trainable", cfg.trainable_embeddings) \
                is not cfg.trainable_embeddings:
            raise FormatError("metadata field 'embedding_trainable' contradicts "
                              "config field 'trainable_embeddings'")
        return ModelArtifact(ModelParameters(cfg, tensors), vocab, score_range,
                             meta.get("encoding"))
    except DelaesError as exc:
        raise FormatError(f"{path}: {exc}") from None
