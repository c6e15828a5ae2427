"""Pre-trained word vectors and the trainable embedding matrix."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import PAD_INDEX, Vocabulary, text_lines
from .errors import DomainError, EncodingError, FormatError, UsageError


@dataclass(frozen=True)
class EmbeddingTable:
    """Read-only token -> vector map loaded from a text embedding file."""

    dimension: int
    vectors: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass
class EmbeddingMatrix:
    """Vocabulary-aligned embedding rows; row 0 (PAD) is pinned to zero."""

    weights: np.ndarray
    trainable: bool = True


class _Irregular(Exception):
    """A line the streamed parse leaves to :func:`_load_by_line`."""


def load_embeddings(path, expected_dim: int) -> EmbeddingTable:
    """Parse a UTF-8 embedding file: one token plus ``expected_dim`` reals per line.

    An optional header of the form ``count dim`` on the first non-blank line
    is recognized and skipped; the file must then hold exactly ``count``
    vector lines.  Duplicate tokens keep their first occurrence.  A component
    that is NaN, infinite or past the float32 range is a :class:`FormatError`
    naming its line.

    Every real goes through one streamed ``np.loadtxt`` parse into an
    ``(N, expected_dim)`` float32 matrix, whose rows become the table's
    vectors.  A file that parse cannot take whole (a bad line or byte, a
    wrong width or count, a non-finite value, or a real such as ``1_0`` that
    ``float`` accepts and ``loadtxt`` does not) is read again line by line,
    which gives the same vectors, or the first error in file order.
    """
    if expected_dim < 1:
        raise DomainError("expected_dim must be >= 1")
    tokens: list[str] = []
    count = None

    def values():
        nonlocal count
        for i, (lineno, line) in enumerate(text_lines(path)):
            if i == 0:  # no line can err before the header, so it raises here
                count = _header(path, lineno, line, expected_dim)
                if count is not None:
                    continue
            fields = line.split(maxsplit=1)
            if len(fields) < 2:
                raise _Irregular
            tokens.append(fields[0])
            yield fields[1]

    rows = values()
    try:
        first = next(rows, None)
        # loadtxt warns on empty input, so an empty file never reaches it.
        matrix = (np.empty((0, expected_dim), dtype=np.float32) if first is None
                  else np.loadtxt(itertools.chain((first,), rows), dtype=np.float32,
                                  comments=None, ndmin=2))
    except (_Irregular, ValueError, EncodingError):
        return _load_by_line(path, expected_dim)
    if (matrix.shape[1] != expected_dim or not np.isfinite(matrix).all()
            or (count is not None and count != len(tokens))):
        return _load_by_line(path, expected_dim)
    vectors: dict[str, np.ndarray] = {}
    for token, vector in zip(tokens, matrix):
        vectors.setdefault(token, vector)
    return EmbeddingTable(dimension=expected_dim, vectors=vectors)


# A value past the float32 range casts to inf, which the finiteness check
# reports with its line, so the cast's warning would only repeat it.
@np.errstate(over="ignore")
def _load_by_line(path, expected_dim: int) -> EmbeddingTable:
    """:func:`load_embeddings` one line at a time, with Python's ``float``:
    the source of every :class:`FormatError` the loader raises."""
    vectors: dict[str, np.ndarray] = {}
    count = None
    found = 0
    for i, (lineno, line) in enumerate(text_lines(path)):
        if i == 0:
            count = _header(path, lineno, line, expected_dim)
            if count is not None:
                continue
        fields = line.split()
        token, values = fields[0], fields[1:]
        if len(values) != expected_dim:
            raise FormatError(
                f"{path}:{lineno}: expected {expected_dim} vector components, "
                f"found {len(values)}"
            )
        try:
            vector = np.array([float(v) for v in values], dtype=np.float32)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        if not np.isfinite(vector).all():
            raise FormatError(f"{path}:{lineno}: non-finite vector component")
        found += 1
        vectors.setdefault(token, vector)
    if count is not None and count != found:
        raise FormatError(f"{path}: header declares {count} vectors, found {found}")
    return EmbeddingTable(dimension=expected_dim, vectors=vectors)


def _header(path, lineno: int, line: str, expected_dim: int) -> int | None:
    """The vector count a ``count dim`` header line declares, or None for a
    line of another form; a declared ``dim`` other than ``expected_dim`` is
    a :class:`FormatError`."""
    fields = line.split()
    if len(fields) != 2:
        return None
    try:
        count, declared = int(fields[0]), int(fields[1])
    except ValueError:
        return None
    if declared != expected_dim:
        raise FormatError(f"{path}:{lineno}: header declares dimension {declared}, "
                          f"expected {expected_dim}")
    return count


def build_embedding_matrix(vocab: Vocabulary, table: EmbeddingTable, seed: int,
                           trainable: bool = True,
                           dtype=np.float32) -> EmbeddingMatrix:
    """Assemble the trainable matrix: table rows copied, out-of-table rows
    drawn uniformly from [-0.05, 0.05] with a seeded generator, PAD row zero.

    The draw order follows vocabulary indices, so the same vocabulary, table
    and seed always reproduce the matrix bit for bit.
    """
    rng = np.random.default_rng(seed)
    weights = np.zeros((vocab.size, table.dimension), dtype=dtype)
    for idx in range(1, vocab.size):
        token = vocab.token_at(idx)
        known = table.vectors.get(token)
        if known is not None:
            weights[idx] = known.astype(dtype)
        else:
            weights[idx] = rng.uniform(-0.05, 0.05, table.dimension).astype(dtype)
    weights[PAD_INDEX] = 0.0
    return EmbeddingMatrix(weights=weights, trainable=trainable)


def embed(essay_tokens: Sequence[str], vocab: Vocabulary,
          matrix: EmbeddingMatrix) -> np.ndarray:
    """Look up token vectors as columns of a (dim, n_tokens) matrix.

    Unknown tokens map to the UNK row; the column count always equals the
    token count.
    """
    if len(essay_tokens) < 1:
        raise UsageError("cannot embed an empty token sequence")
    indices = vocab.encode(essay_tokens)
    return matrix.weights[indices].T.copy()
