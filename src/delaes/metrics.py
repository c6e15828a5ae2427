"""Quadratic weighted kappa and its constituent matrices.

The kappa is computed over the full rating scale of a prompt, so ratings that
never occur still own rows and columns of the weight, observed and expected
matrices.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import ScoreRange, text_lines
from .errors import DomainError, FormatError, UsageError


def weight_matrix(n_ratings: int) -> np.ndarray:
    """Quadratic disagreement weights: W[i, j] = (i - j)^2 / (N - 1)^2.

    Zero on the diagonal, one in the extreme-disagreement corners.
    """
    if n_ratings < 2:
        raise DomainError("a rating scale needs at least 2 possible ratings")
    idx = np.arange(n_ratings, dtype=np.float64)
    return (idx[:, None] - idx[None, :]) ** 2 / (n_ratings - 1) ** 2


def _checked_offsets(actual: Sequence[int], predicted: Sequence[int],
                     score_range: ScoreRange) -> tuple[np.ndarray, np.ndarray]:
    a, p = np.asarray(actual), np.asarray(predicted)
    if a.shape != p.shape or a.ndim != 1:
        raise UsageError("actual and predicted must be 1-d sequences of equal length")
    for name, ratings, values in (("actual", actual, a), ("predicted", predicted, p)):
        if values.size and values.dtype.kind not in "iu":
            # In a float array every rating is a float: the first is named.
            at = next((i for i, r in enumerate(ratings)
                       if np.asarray(r).dtype.kind not in "iu"), 0)
            raise DomainError(f"{name} rating at position {at} is "
                              f"{values.tolist()[at]!r}, not an integer")
        bad = np.flatnonzero((values < score_range.min_score)
                             | (values > score_range.max_score))
        if bad.size:
            raise DomainError(f"{name} rating at position {bad[0]} is {values[bad[0]]}, "
                              f"outside {score_range.min_score}-{score_range.max_score}")
    return (a.astype(np.int64, copy=False) - score_range.min_score,
            p.astype(np.int64, copy=False) - score_range.min_score)


def observed_matrix(actual, predicted, score_range: ScoreRange) -> np.ndarray:
    """Counts (int64) of (human rating, system rating) pairs over the full
    scale; the one check of the ratings that :func:`qwk` makes."""
    a, p = _checked_offsets(actual, predicted, score_range)
    n = score_range.n_ratings
    counts = np.bincount(a * n + p, minlength=n * n)
    return counts.astype(np.int64, copy=False).reshape(n, n)


def _expected_from(observed: np.ndarray) -> np.ndarray:
    """Outer product of ``observed``'s marginals, the two rating histograms,
    normalized to the pair count (all zeros for no pairs)."""
    hist_a, hist_p = (observed.sum(axis=axis).astype(np.float64) for axis in (1, 0))
    return np.outer(hist_a, hist_p) / max(observed.sum(), 1)


def expected_matrix(actual, predicted, score_range: ScoreRange) -> np.ndarray:
    """Outer product of the two rating histograms, normalized to the pair count."""
    return _expected_from(observed_matrix(actual, predicted, score_range))


def qwk(actual, predicted, score_range: ScoreRange) -> float:
    """Quadratic weighted kappa: 1 - sum(W*O) / sum(W*E).

    The denominator vanishes only when both raters put every essay on one
    shared rating: E is non-negative and W is positive off the diagonal, so
    E lies on the diagonal, which makes both histograms a single rating.
    Then O = E, perfect agreement, and the kappa is 1.
    """
    observed = observed_matrix(actual, predicted, score_range)
    if not observed.any():
        raise UsageError("cannot compute kappa of empty sequences")
    weights = weight_matrix(score_range.n_ratings)
    denominator = float((weights * _expected_from(observed)).sum())
    if denominator == 0.0:
        return 1.0
    return 1.0 - float((weights * observed).sum()) / denominator


def read_predictions(path) -> list[tuple[int, int]]:
    """Read a two-column comma-separated (essay_id, predicted_score) file.

    An optional header, the first non-blank line, is skipped; scores written
    as integral floats (``"3.0"``) are accepted.
    """
    rows: list[tuple[int, int]] = []
    for i, (lineno, line) in enumerate(text_lines(path)):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise FormatError(
                f"{path}:{lineno}: expected 2 comma-separated fields, "
                f"found {len(fields)}"
            )
        if i == 0 and not _looks_numeric(fields[0]):
            continue
        rows.append((_parse_integer(path, lineno, "essay_id", fields[0]),
                     _parse_integer(path, lineno, "score", fields[1])))
    return rows


def _looks_numeric(value: str) -> bool:
    try:
        float(value)
    except ValueError:
        return False
    return True


def _parse_integer(path, lineno: int, column: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        pass
    try:
        as_float = float(value)
    except ValueError:
        raise FormatError(
            f"{path}:{lineno}: cannot parse {column}={value!r} as an integer"
        ) from None
    if not as_float.is_integer():  # also NaN and infinity
        raise FormatError(
            f"{path}:{lineno}: {column}={value!r} is not an integral value"
        )
    return int(as_float)
