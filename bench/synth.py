"""Seeded synthetic inputs: ASAP-format essay files and text embedding files.

Every generator takes a ``numpy.random.Generator`` and nothing else that
varies, so one workload seed always yields byte-identical input files.
Tokens are letter-only pseudo-words (plus two punctuation marks) drawn from a
Zipfian distribution, which the package tokenizer maps back to the same
tokens.  The score of an essay is planted: it is the number of distinct
keywords the essay contains, shifted into the prompt's score range.
"""
from __future__ import annotations

import numpy as np

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
PUNCTUATION = (".", ",")
_CHUNK_LINES = 4096


def word(i: int) -> str:
    """The i-th pseudo-word: i written in base 70 with syllables as digits."""
    parts = []
    while True:
        i, digit = divmod(i, len(_SYLLABLES))
        parts.append(_SYLLABLES[digit])
        if i == 0:
            return "".join(reversed(parts))
        i -= 1


def word_pool(size: int, keywords: int) -> tuple[list[str], list[str]]:
    """Zipf-ranked filler pool (punctuation first) and a disjoint keyword list."""
    pool = list(PUNCTUATION) + [word(i) for i in range(size - len(PUNCTUATION))]
    keys = [f"key{word(i)}" for i in range(keywords)]
    return pool, keys


def zipf_probabilities(size: int, exponent: float) -> np.ndarray:
    p = 1.0 / np.arange(1, size + 1) ** exponent
    return p / p.sum()


def lengths(rng, n: int, min_len: int, max_len: int, long_share: float = 0.0,
            short_max: int | None = None) -> np.ndarray:
    """Essay lengths: uniform over [min_len, max_len], or, with ``long_share``
    < 1 and ``short_max`` given, a mix of short essays up to ``short_max``
    and long ones above it."""
    if short_max is None:
        return rng.integers(min_len, max_len + 1, size=n)
    is_long = rng.random(n) < long_share
    short = rng.integers(min_len, short_max + 1, size=n)
    long = rng.integers(short_max + 1, max_len + 1, size=n)
    return np.where(is_long, long, short)


def essays(rng, essay_lengths, pool: list[str], keys: list[str],
           exponent: float, density: int) -> list[tuple[list[str], int]]:
    """(tokens, keyword count) per essay.  Each keyword is present with
    probability 1/2 and then fills one position in ``density`` (at least
    one), chosen at random."""
    probs = zipf_probabilities(len(pool), exponent)
    out = []
    for n in essay_lengths:
        n = int(n)
        picks = rng.choice(len(pool), size=n, p=probs)
        tokens = [pool[j] for j in picks]
        for key in keys:
            if rng.integers(0, 2):
                for pos in rng.choice(n, size=max(1, n // density), replace=False):
                    tokens[int(pos)] = key
        # a later keyword can overwrite an earlier one, so count what is left
        out.append((tokens, sum(key in tokens for key in keys)))
    return out


def write_tsv(path, prompt_id: int, rows, min_score: int) -> None:
    """ASAP layout; ``rows`` holds (tokens, keyword count) pairs."""
    lines = ["essay_id\tessay_set\tessay\trater1_domain1\tdomain1_score"]
    for i, (tokens, count) in enumerate(rows, start=1):
        score = min_score + count
        lines.append(f"{i}\t{prompt_id}\t{' '.join(tokens)}\t{score}\t{score}")
    with open(path, "w", encoding="latin-1") as fh:
        fh.write("\n".join(lines) + "\n")


def write_embeddings(path, rng, tokens: list[str], dim: int,
                     planted: list[str] = ()) -> int:
    """Text embedding file, one ``token v1 .. v_dim`` line per token.

    Components are written as ``-0.01234``-style fixed-width decimals, built
    as bytes in chunks so that writing a large file stays fast and small in
    memory.  Each ``planted`` token comes first, with 3.0 on its own axis and
    zeros elsewhere, which makes the keyword signal learnable.  Returns the
    number of lines written.
    """
    width = max(len(t) for t in tokens) + 1
    with open(path, "wb") as fh:
        for axis, token in enumerate(planted):
            values = ["0.0"] * dim
            values[axis] = "3.0"
            fh.write(f"{token} {' '.join(values)}\n".encode("ascii"))
        for start in range(0, len(tokens), _CHUNK_LINES):
            part = tokens[start:start + _CHUNK_LINES]
            n = len(part)
            digits = rng.integers(0, 10_000, size=(n, dim))
            negative = rng.random((n, dim)) < 0.5
            cells = np.empty((n, dim, 9), dtype=np.uint8)
            cells[:, :, 0] = ord(" ")
            cells[:, :, 1] = np.where(negative, ord("-"), ord(" "))
            cells[:, :, 2] = ord("0")
            cells[:, :, 3] = ord(".")
            cells[:, :, 4] = ord("0")
            for place in range(4):
                cells[:, :, 8 - place] = ord("0") + digits % 10
                digits //= 10
            names = np.array([t.ljust(width).encode("ascii") for t in part],
                             dtype=f"S{width}").view(np.uint8).reshape(n, width)
            line = np.concatenate(
                [names, cells.reshape(n, dim * 9),
                 np.full((n, 1), ord("\n"), dtype=np.uint8)], axis=1)
            fh.write(line.tobytes())
    return len(planted) + len(tokens)
