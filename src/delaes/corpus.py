"""ASAP essay data: loading, tokenization, vocabularies, and score scaling.

The input format is the tab-separated ASAP training file: a header row naming
at least ``essay_id``, ``essay_set``, ``essay`` and ``domain1_score``, then
one essay per line.  Gold scores are mapped linearly into [0, 1] for training
and rescaled to the original integer range for evaluation.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    DomainError,
    EncodingError,
    FormatError,
    ScoreRangeError,
    UsageError,
)

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1

# Anonymization markers such as "@caps1" or "@num12" survive as single
# tokens; every other non-alphanumeric character is split off on its own.
_TOKEN_RE = re.compile(r"@[a-z]+\d*|\w+|[^\w\s]")

_REQUIRED_COLUMNS = ("essay_id", "essay_set", "essay", "domain1_score")

_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")

#: The one name of each accepted essay encoding, and its Python codec.
ENCODINGS = {"latin1": "latin-1", "utf8": "utf-8"}


def tokenize(text: str) -> list[str]:
    """Lowercase and split ``text`` into word, marker and punctuation tokens.

    Deterministic and rule-based: whitespace separates, runs of alphanumeric
    characters form words, any other character becomes a standalone token.
    Empty input yields an empty list.
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class ScoreRange:
    """Inclusive integer score range for one prompt."""

    prompt_id: int
    min_score: int
    max_score: int

    def __post_init__(self):
        for name in ("prompt_id", "min_score", "max_score"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise UsageError(f"score range field {name!r}: {value!r} is not of type int")
        if self.min_score >= self.max_score:
            raise DomainError(
                f"score range for prompt {self.prompt_id} must satisfy min < max, "
                f"got {self.min_score}..{self.max_score}"
            )

    @property
    def span(self) -> int:
        return self.max_score - self.min_score

    @property
    def n_ratings(self) -> int:
        return self.span + 1


#: Built-in score ranges for the eight public ASAP prompts.
DEFAULT_RANGES: dict[int, ScoreRange] = {
    1: ScoreRange(1, 2, 4),
    2: ScoreRange(2, 1, 6),
    3: ScoreRange(3, 0, 3),
    4: ScoreRange(4, 0, 3),
    5: ScoreRange(5, 0, 4),
    6: ScoreRange(6, 0, 4),
    7: ScoreRange(7, 0, 30),
    8: ScoreRange(8, 0, 60),
}


def default_range(prompt_id: int) -> ScoreRange:
    try:
        return DEFAULT_RANGES[prompt_id]
    except KeyError:
        raise DomainError(
            f"no built-in score range for prompt {prompt_id}; supply one explicitly"
        ) from None


def check_score(raw_score: int, score_range: ScoreRange, where: str = "") -> None:
    """Raise :class:`ScoreRangeError`, its message prefixed by ``where``, for
    a raw score outside ``score_range``."""
    if not score_range.min_score <= raw_score <= score_range.max_score:
        raise ScoreRangeError(
            f"{where}score {raw_score} outside range "
            f"{score_range.min_score}-{score_range.max_score}"
        )


def normalize_score(raw_score: int, score_range: ScoreRange) -> float:
    """Map an integer gold score linearly onto [0, 1]."""
    check_score(raw_score, score_range)
    return (raw_score - score_range.min_score) / score_range.span


def denormalize_score(y: float, score_range: ScoreRange) -> int:
    """Rescale a normalized score back to the integer range.

    Half-way values round away from zero; the result is clamped to the range.
    """
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"normalized score {y} outside [0, 1]")
    x = score_range.min_score + y * score_range.span
    rounded = math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)
    return min(max(rounded, score_range.min_score), score_range.max_score)


@dataclass(frozen=True)
class Essay:
    essay_id: int
    tokens: tuple[str, ...]
    raw_score: int


@dataclass(frozen=True)
class EssaySet:
    """Ordered essays of one prompt, the ``prompt_id`` of ``score_range``.

    Ids and raw scores are ints, not bools, tokens a tuple, ids unique and
    every essay has a token (else :class:`UsageError`), every raw score in
    the range (else :class:`ScoreRangeError`), each error naming the essay.
    """

    essays: tuple[Essay, ...]
    score_range: ScoreRange

    def __post_init__(self):
        seen = set()
        for essay in self.essays:
            for name, kind in (("essay_id", int), ("tokens", tuple), ("raw_score", int)):
                value = getattr(essay, name)
                if not isinstance(value, kind) or isinstance(value, bool):
                    raise UsageError(f"essay {essay.essay_id!r}: {name} is a "
                                     f"{type(value).__name__}")
            if essay.essay_id in seen:
                raise UsageError(f"duplicate essay id {essay.essay_id}")
            seen.add(essay.essay_id)
            if not essay.tokens:
                raise UsageError(f"essay {essay.essay_id}: no tokens")
            check_score(essay.raw_score, self.score_range,
                        f"essay {essay.essay_id}: ")

    def __len__(self) -> int:
        return len(self.essays)

    def __iter__(self):
        return iter(self.essays)

    def subset(self, essay_ids: Iterable[int]) -> "EssaySet":
        wanted = set(essay_ids)
        kept = tuple(e for e in self.essays if e.essay_id in wanted)
        return EssaySet(kept, self.score_range)


class Vocabulary:
    """Immutable token-to-index map with reserved PAD (0) and UNK (1) slots.

    Corpus tokens occupy indices >= 2 in the order given: strings, each
    once and neither reserved token (else :class:`UsageError`).
    """

    def __init__(self, corpus_tokens: Sequence[str]):
        index = {PAD_TOKEN: PAD_INDEX, UNK_TOKEN: UNK_INDEX}
        for token in corpus_tokens:
            if not isinstance(token, str):  # first: a list would fail the lookup
                raise UsageError(f"token {token!r} is not a string")
            if token in index:
                raise UsageError(f"token {token!r} duplicated or reserved")
            index[token] = len(index)
        self._token_to_index = index
        self._index_to_token = list(index)

    @property
    def size(self) -> int:
        return len(self._token_to_index)

    def index(self, token: str) -> int:
        return self._token_to_index.get(token, UNK_INDEX)

    def token_at(self, index: int) -> str:
        return self._index_to_token[index]

    def encode(self, tokens: Sequence[str]) -> list[int]:
        """Rows of ``tokens``.  An unknown token reads UNK, and so does the
        PAD token (row 0, the only false index): an encoded essay never
        holds padding.  An unhashable token raises :class:`UsageError`
        naming its index in ``tokens``."""
        get = self._token_to_index.get
        try:
            return [get(t) or UNK_INDEX for t in tokens]
        except TypeError as exc:
            for index, token in enumerate(tokens):
                try:
                    get(token)
                except TypeError:
                    raise UsageError(f"token {index}: {exc}") from None
            raise UsageError(str(exc)) from None

    def corpus_tokens(self) -> list[str]:
        """Tokens in index order, excluding PAD and UNK."""
        return self._index_to_token[2:]


def build_vocabulary(sets: Iterable[EssaySet], min_count: int = 1) -> Vocabulary:
    """Tokens seen ``min_count`` times or more, commonest first, ties by code point."""
    if min_count < 1:
        raise UsageError("min_count must be >= 1")
    counts: Counter[str] = Counter()
    for essay_set in sets:
        for essay in essay_set:
            try:
                counts.update(essay.tokens)
            except TypeError as exc:
                raise UsageError(f"essay {essay.essay_id}: {exc}") from None
    kept = [(token, n) for token, n in counts.items() if n >= min_count]
    # str() keeps every string and lets Vocabulary, not the sort, refuse the rest.
    kept.sort(key=lambda item: (-item[1], str(item[0])))
    return Vocabulary([token for token, _ in kept])


def text_lines(path, encoding: str = "utf8") -> Iterator[tuple[int, str]]:
    """Stream ``(line number, line)`` for each non-blank line of a text file.

    Lines end only at ``\\n``, ``\\r\\n`` or ``\\r``; line numbers count
    every physical line, blank ones included; only the line ending is
    removed, so tabs and spaces at either end are kept.  ``encoding`` is a
    key of :data:`ENCODINGS`, exactly ``latin1`` or ``utf8`` (else
    :class:`UsageError`); an undecodable byte raises :class:`EncodingError`
    naming the path, in place of its line, so every line before it is read
    first.
    """
    # A tuple test, so an unhashable value is refused like any other.
    if encoding not in tuple(ENCODINGS):
        raise UsageError(f"unsupported encoding {encoding!r} (use latin1 or utf8)")
    codec = ENCODINGS[encoding]
    # surrogateescape decodes each bad byte to U+DC80..U+DCFF, which no valid
    # input decodes to, so the error surfaces at its line and not at the
    # decoding chunk that holds it.
    with open(path, "r", encoding=codec, errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line and not line.isspace():
                if not line.isascii() and _ESCAPED_BYTE.search(line):
                    raise EncodingError(_decode_failure(path, codec, lineno))
                yield lineno, line


def _decode_failure(path, codec: str, lineno: int) -> str:
    """Name the file offset of the first byte of physical line ``lineno`` of
    ``path`` that ``codec`` cannot decode.

    The text reader knows the line but not the offset, so the file is read
    again up to that line, splitting lines by the same ``\\n``, ``\\r\\n``
    and ``\\r`` rule: each line, endings kept, encodes back to its exact
    bytes, and a strict decode of the bad line gives the byte and the reason.
    A file that changed between the two reads gets a plain message.
    """
    offset = 0
    with open(path, "r", encoding=codec, errors="surrogateescape", newline="") as fh:
        for _ in range(lineno - 1):
            offset += len(fh.readline().encode(codec, "surrogateescape"))
        data = fh.readline().encode(codec, "surrogateescape")
    try:
        data.decode(codec)
    except UnicodeDecodeError as exc:
        return (f"{path}:{lineno}: cannot decode byte 0x{data[exc.start]:02x} "
                f"at file offset {offset + exc.start} as {codec} ({exc.reason})")
    return f"{path}: cannot decode input as {codec}"


class TsvRow:
    """One data row of a tab-separated file, read by header column name."""

    __slots__ = ("_path", "_lineno", "_fields", "_positions")

    def __init__(self, path, lineno: int, fields: list[str],
                 positions: dict[str, int]):
        self._path = path
        self._lineno = lineno
        self._fields = fields
        self._positions = positions

    @property
    def where(self) -> str:
        """``path:line`` of this row, for error messages."""
        return f"{self._path}:{self._lineno}"

    def text(self, column: str) -> str:
        return self._fields[self._positions[column]]

    def integer(self, column: str) -> int:
        value = self.text(column)
        try:
            return int(value)
        except ValueError:
            raise FormatError(
                f"{self.where}: cannot parse {column}={value!r} as an integer"
            ) from None


def read_tsv(path, required: Sequence[str], encoding: str = "latin1"
             ) -> list[TsvRow] | None:
    """Read a headed tab-separated file into rows addressed by column name.

    Lines come from :func:`text_lines`, so blank ones are skipped and the
    first other line is the header.  Returns None for a file with no content
    at all, so each caller decides whether that is zero rows or an error.
    Raises :class:`FormatError` when a ``required`` column is missing from
    the header or a row's field count differs from the header's.
    """
    lines = text_lines(path, encoding)
    first = next(lines, None)
    if first is None:
        return None
    header = first[1].split("\t")
    positions = {name: i for i, name in enumerate(header)}
    for name in required:
        if name not in positions:
            raise FormatError(f"{path}: missing required column {name!r}")
    rows = []
    for lineno, line in lines:
        fields = line.split("\t")
        if len(fields) != len(header):
            raise FormatError(
                f"{path}:{lineno}: expected {len(header)} tab-separated fields, "
                f"found {len(fields)} (embedded tabs inside the essay field are "
                f"not supported)"
            )
        rows.append(TsvRow(path, lineno, fields, positions))
    return rows


def _essay_tokens(row: TsvRow, essay_id: int) -> tuple[str, ...]:
    tokens = tuple(tokenize(row.text("essay")))
    if not tokens:
        raise FormatError(f"{row.where}: essay {essay_id}: no tokens after tokenization")
    return tokens


def _prompt_rows(path, rows: Sequence[TsvRow], prompt_id: int):
    """Yield ``(essay_id, row)`` for each row of ``prompt_id``; an essay id
    repeated within the prompt raises :class:`FormatError` naming ``path``."""
    seen = set()
    for row in rows:
        if row.integer("essay_set") != prompt_id:
            continue
        essay_id = row.integer("essay_id")
        if essay_id in seen:
            raise FormatError(f"{path}: duplicate essay id {essay_id}")
        seen.add(essay_id)
        yield essay_id, row


def load_dataset(path, prompt_id: int, score_range: ScoreRange,
                 encoding: str = "latin1") -> EssaySet:
    """Load the essays of one prompt from an ASAP-format TSV file.

    ``prompt_id`` must be ``score_range.prompt_id``; rows of other prompts
    are skipped.  A file with a header but zero matching rows yields an empty
    :class:`EssaySet`.  An essay id repeated within the prompt raises
    :class:`FormatError`.
    """
    if prompt_id != score_range.prompt_id:
        raise UsageError(f"score range is for prompt {score_range.prompt_id}, "
                         f"not {prompt_id}")
    rows = read_tsv(path, _REQUIRED_COLUMNS, encoding)
    if rows is None:
        raise FormatError(f"{path}: empty file, header row required")
    essays = []
    for essay_id, row in _prompt_rows(path, rows, prompt_id):
        raw_score = row.integer("domain1_score")
        check_score(raw_score, score_range, f"{row.where}: essay {essay_id}: ")
        essays.append(Essay(essay_id, _essay_tokens(row, essay_id), raw_score))
    return EssaySet(tuple(essays), score_range)


def load_unscored(path, prompt_id: int, encoding: str = "latin1"
                  ) -> list[tuple[int, tuple[str, ...]]]:
    """Load (essay_id, tokens) pairs for scoring; gold scores are not needed.

    A file with no content at all is treated as zero rows.  An essay id
    repeated within the prompt raises :class:`FormatError`.
    """
    rows = read_tsv(path, ("essay_id", "essay_set", "essay"), encoding) or ()
    return [(essay_id, _essay_tokens(row, essay_id))
            for essay_id, row in _prompt_rows(path, rows, prompt_id)]
