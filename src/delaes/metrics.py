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
    a = np.asarray(actual, dtype=np.int64)
    p = np.asarray(predicted, dtype=np.int64)
    if a.shape != p.shape or a.ndim != 1:
        raise UsageError("actual and predicted must be 1-d sequences of equal length")
    for name, values in (("actual", a), ("predicted", p)):
        bad = np.nonzero((values < score_range.min_score)
                         | (values > score_range.max_score))[0]
        if bad.size:
            pos = int(bad[0])
            raise DomainError(
                f"{name} rating at position {pos} is {int(values[pos])}, outside "
                f"{score_range.min_score}-{score_range.max_score}"
            )
    return a - score_range.min_score, p - score_range.min_score


def observed_matrix(actual, predicted, score_range: ScoreRange) -> np.ndarray:
    """Counts of (human rating, system rating) pairs over the full scale."""
    a, p = _checked_offsets(actual, predicted, score_range)
    n = score_range.n_ratings
    observed = np.zeros((n, n), dtype=np.int64)
    np.add.at(observed, (a, p), 1)
    return observed


def expected_matrix(actual, predicted, score_range: ScoreRange) -> np.ndarray:
    """Outer product of the two rating histograms, normalized to the pair count."""
    a, p = _checked_offsets(actual, predicted, score_range)
    n = score_range.n_ratings
    hist_a = np.bincount(a, minlength=n).astype(np.float64)
    hist_p = np.bincount(p, minlength=n).astype(np.float64)
    total = a.size
    if total == 0:
        return np.zeros((n, n), dtype=np.float64)
    return np.outer(hist_a, hist_p) / total


def qwk(actual, predicted, score_range: ScoreRange) -> float:
    """Quadratic weighted kappa: 1 - sum(W*O) / sum(W*E).

    When both raters put all mass on the same single rating the denominator
    vanishes with perfect agreement, which counts as kappa 1; a vanishing
    denominator with any disagreement is undefined.
    """
    a, _ = _checked_offsets(actual, predicted, score_range)
    if a.size == 0:
        raise UsageError("cannot compute kappa of empty sequences")
    observed = observed_matrix(actual, predicted, score_range)
    expected = expected_matrix(actual, predicted, score_range)
    weights = weight_matrix(score_range.n_ratings)
    denominator = float((weights * expected).sum())
    numerator = float((weights * observed).sum())
    if denominator == 0.0:
        if np.array_equal(observed.astype(np.float64), expected):
            return 1.0
        raise DomainError("kappa undefined: zero expected disagreement with "
                          "non-identical matrices")
    return 1.0 - numerator / denominator


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
