"""k-fold cross-validation orchestration and report aggregation.

Each evaluation round holds out a block of test folds, reserves the next fold
for validation-based model selection, and trains on the rest; the vocabulary
is rebuilt from the round's training essays only, so test material never
influences the model.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .corpus import EssaySet, build_vocabulary
from .embedding import EmbeddingTable
from .errors import UsageError
from .metrics import qwk
from .training import (
    EpochRecord,
    denormalize_predictions,
    predict_normalized,
    train,
)


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic assignment of essay ids to folds of near-equal size."""

    assignments: dict[int, int]
    k: int

    def members(self, fold: int) -> list[int]:
        return [eid for eid, f in self.assignments.items() if f == fold]


@dataclass(frozen=True)
class RoundResult:
    round_index: int
    test_folds: tuple[int, ...]
    val_folds: tuple[int, ...]
    qwk: float
    history: list[EpochRecord]


@dataclass(frozen=True)
class CvReport:
    k: int
    seed: int
    config: TrainConfig
    rounds: tuple[RoundResult, ...]
    mean_qwk: float
    pooled_qwk: float


def plan_folds(essay_set: EssaySet, k: int, seed: int) -> FoldPlan:
    """Shuffle essay ids with ``seed`` and deal them round-robin into k folds."""
    if k < 2:
        raise UsageError("k must be >= 2")
    n = len(essay_set)
    if n < k:
        raise UsageError(f"cannot split {n} essays into {k} folds")
    order = np.random.default_rng(seed).permutation(n)
    assignments = {essay_set.essays[int(idx)].essay_id: j % k
                   for j, idx in enumerate(order)}
    return FoldPlan(assignments=assignments, k=k)


def round_layout(k: int) -> list[tuple[int, ...]]:
    """Test-fold blocks per round.

    The block width is one fifth of the folds (at least one), and blocks
    advance by their own width so every fold is tested exactly once (the
    final block is short when the width does not divide k).
    """
    width = max(1, k // 5)
    return [tuple(range(s, min(s + width, k))) for s in range(0, k, width)]


def _round_roles(plan: FoldPlan, test_folds: tuple[int, ...]
                 ) -> tuple[list[int], list[int], tuple[int, ...]]:
    """Train ids, validation ids and validation folds for one round.

    Remaining folds are taken in cyclic order after the test block: the first
    becomes validation, the rest training.  When only one fold remains, an
    eighth of its essays (matching the production train:val ratio) is carved
    off for validation.
    """
    k = plan.k
    start = test_folds[-1] + 1
    remaining = [(start + j) % k for j in range(k - len(test_folds))]
    if len(remaining) >= 2:
        train_ids = [eid for fold in remaining[1:] for eid in plan.members(fold)]
        val_ids = plan.members(remaining[0])
    else:
        ids = plan.members(remaining[0])
        val_ids = ids[::8]
        held = set(val_ids)
        train_ids = [eid for eid in ids if eid not in held]
    return train_ids, val_ids, (remaining[0],)


def run_cv(essay_set: EssaySet, embeddings: EmbeddingTable, cfg: TrainConfig,
           k: int, seed: int, rounds_limit: int | None = None) -> CvReport:
    """Cross-validate: per round, build vocabulary from the training folds,
    train with validation-based selection, and score the held-out test folds
    on denormalized predictions."""
    plan = plan_folds(essay_set, k, seed)
    score_range = essay_set.score_range
    rounds = round_layout(k)
    if rounds_limit is not None:
        rounds = rounds[:rounds_limit]

    results = []
    pooled_actual: list[int] = []
    pooled_predicted: list[int] = []
    for index, test_folds in enumerate(rounds):
        train_ids, val_ids, val_folds = _round_roles(plan, test_folds)
        test_ids = [eid for fold in test_folds for eid in plan.members(fold)]
        train_set = essay_set.subset(train_ids)
        val_set = essay_set.subset(val_ids)
        test_set = essay_set.subset(test_ids)

        vocab = build_vocabulary([train_set], min_count=cfg.min_count)
        params, history = train(train_set, val_set, vocab, embeddings, cfg)

        essays = test_set.essays
        predictions = predict_normalized(params, vocab, [e.tokens for e in essays])
        predicted = denormalize_predictions([e.essay_id for e in essays],
                                            predictions, score_range)
        actual = [e.raw_score for e in essays]
        round_qwk = qwk(actual, predicted, score_range)
        pooled_actual.extend(actual)
        pooled_predicted.extend(predicted)
        results.append(RoundResult(
            round_index=index,
            test_folds=test_folds,
            val_folds=val_folds,
            qwk=round_qwk,
            history=history,
        ))

    mean_qwk = float(np.mean([r.qwk for r in results]))
    pooled = qwk(pooled_actual, pooled_predicted, score_range)
    return CvReport(k=k, seed=seed, config=cfg, rounds=tuple(results),
                    mean_qwk=mean_qwk, pooled_qwk=pooled)


def report_to_json(report: CvReport) -> str:
    payload = {
        "k": report.k,
        "seed": report.seed,
        "config": report.config.to_dict(),
        "rounds": [
            {
                "round": r.round_index,
                "test_folds": list(r.test_folds),
                "val_folds": list(r.val_folds),
                "qwk": r.qwk,
                "history": [
                    {"epoch": h.epoch, "train_mse": h.train_mse, "val_qwk": h.val_qwk}
                    for h in r.history
                ],
            }
            for r in report.rounds
        ],
        "mean_qwk": report.mean_qwk,
        "pooled_qwk": report.pooled_qwk,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: CvReport) -> str:
    lines = ["fold,qwk"]
    for r in report.rounds:
        lines.append(f"{r.round_index},{r.qwk:.6f}")
    return "\n".join(lines) + "\n"
