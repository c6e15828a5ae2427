"""Mini-batch training: batching, the loss, RMSProp and the training loop.

:mod:`delaes.network` owns the forward and reverse mode of every layer; this
module owns the mean-squared-error loss, whose exact gradients under a fixed
dropout realization :func:`backward` returns, the optimizer and the loop.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .config import TrainConfig
from .corpus import EssaySet, ScoreRange, Vocabulary, denormalize_score, normalize_score
from .embedding import EmbeddingTable, build_embedding_matrix
from .errors import NumericError, UsageError
from .metrics import qwk
from .network import (
    ModelParameters,
    backward_batch,
    forward_batch,
    init_parameters,
    make_drop_mask,
    pad_rows,
    summary_width,
)

logger = logging.getLogger(__name__)

Gradients = dict[str, np.ndarray]


@dataclass(frozen=True)
class Batch:
    """Index matrix padded to a common length, with mask and targets.

    ``mask`` is true exactly at real-token positions, which lead their row;
    every row has at least one true entry.
    """

    indices: np.ndarray   # (B, L) int
    mask: np.ndarray      # (B, L) bool
    targets: np.ndarray   # (B,) normalized scores
    essay_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.essay_ids)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_mse: float
    val_qwk: float


def make_batches(essay_set: EssaySet, vocab: Vocabulary, batch_size: int,
                 shuffle_seed: int) -> list[Batch]:
    """Shuffle deterministically and pad each batch to its own longest essay.

    Targets are raw scores normalized over the set's range.  The last batch
    may be short; the union of batches is exactly the input set.
    """
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    essays, score_range = essay_set.essays, essay_set.score_range
    if not essays:
        return []
    order = np.random.default_rng(shuffle_seed).permutation(len(essays))
    batches = []
    for start in range(0, len(essays), batch_size):
        chunk = [essays[i] for i in order[start:start + batch_size]]
        indices, mask = pad_rows([vocab.encode(e.tokens) for e in chunk])
        targets = np.array([normalize_score(e.raw_score, score_range) for e in chunk],
                           dtype=np.float64)
        batches.append(Batch(indices, mask, targets,
                             tuple(e.essay_id for e in chunk)))
    return batches


def mse_loss(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Mean over the batch of squared prediction errors."""
    y = np.asarray(y)
    y_hat = np.asarray(y_hat)
    if y.shape != y_hat.shape:
        raise UsageError(f"length mismatch: {y.shape} vs {y_hat.shape}")
    diff = y - y_hat
    return float(np.mean(diff * diff))


def _first_nonfinite(params: ModelParameters) -> str:
    for name, tensor in params.tensors.items():
        if not np.isfinite(tensor).all():
            return name
    return "<loss only>"


def backward(batch: Batch, params: ModelParameters, dropout_seed: int
             ) -> tuple[float, Gradients]:
    """Loss and exact gradients for one batch under a fixed dropout draw.

    The drop mask is passed even for no dropout (all ones, which leaves
    every product unchanged): ``forward_batch`` keeps its backprop cache
    only when given one.
    """
    cfg = params.config
    dtype = params.dtype
    drop_mask = make_drop_mask(np.random.default_rng(dropout_seed),
                               (len(batch), summary_width(cfg)), cfg.dropout, dtype)
    targets = batch.targets.astype(dtype)
    yhat, cache = forward_batch(batch.indices, batch.mask, params, drop_mask)
    loss = mse_loss(targets, yhat)
    if not np.isfinite(loss):
        raise NumericError(
            "non-finite training loss; first non-finite tensor: "
            + _first_nonfinite(params)
        )
    # d/dyhat of mean (y - yhat)^2
    d_yhat = (2.0 / len(batch)) * (yhat - targets)
    return loss, backward_batch(cache, params, d_yhat)


def rmsprop_step(params: ModelParameters, grads: Gradients,
                 accumulators: dict[str, np.ndarray]) -> None:
    """In-place update of the tensors and their ``accumulators`` (zeros at
    the start): acc <- rho*acc + (1-rho)*g^2; theta <- theta - lr*g/(sqrt(acc)+eps),
    with rho, lr and eps from ``params.config``."""
    cfg = params.config
    rho = cfg.rmsprop_decay
    for name, tensor in params.tensors.items():
        g = grads[name]
        acc = accumulators[name]
        acc *= rho
        acc += (1.0 - rho) * g * g
        tensor -= cfg.learning_rate * g / (np.sqrt(acc) + cfg.rmsprop_epsilon)


def clip_gradients(grads: Gradients, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def predict_normalized(params: ModelParameters, vocab: Vocabulary,
                       token_sequences, batch_size: int | None = None
                       ) -> np.ndarray:
    """Inference-mode predictions in [0, 1], one per token sequence, in order.

    Sequences are scored longest first (a stable sort) in batches of
    ``batch_size`` (None: the config's; below 1: :class:`UsageError`), so
    each batch pads to lengths close to its own; an essay scores the same in
    any batch up to round-off.
    """
    size = params.config.batch_size if batch_size is None else batch_size
    if size < 1:
        raise UsageError("batch_size must be >= 1")
    rows = [vocab.encode(tokens) for tokens in token_sequences]
    predictions = np.empty(len(rows), dtype=np.float64)
    order = np.argsort([-len(row) for row in rows], kind="stable")
    for start in range(0, len(rows), size):
        chosen = order[start:start + size]
        indices, mask = pad_rows([rows[i] for i in chosen])
        predictions[chosen] = forward_batch(indices, mask, params)[0]
    return predictions


def denormalize_predictions(essay_ids, predictions, score_range: ScoreRange
                            ) -> list[int]:
    """Integer scores for normalized predictions, in order.

    A non-finite prediction raises :class:`NumericError` naming its essay.
    """
    scores = []
    for essay_id, y in zip(essay_ids, predictions):
        y = float(y)
        if not np.isfinite(y):
            raise NumericError(f"essay {essay_id}: non-finite prediction {y}")
        scores.append(denormalize_score(y, score_range))
    return scores


def evaluate_qwk(params: ModelParameters, vocab: Vocabulary,
                 essay_set: EssaySet) -> float:
    """Quadratic weighted kappa of denormalized predictions against gold scores."""
    essays = essay_set.essays
    predictions = predict_normalized(params, vocab, [e.tokens for e in essays])
    rescaled = denormalize_predictions([e.essay_id for e in essays], predictions,
                                       essay_set.score_range)
    actual = [e.raw_score for e in essays]
    return qwk(actual, rescaled, essay_set.score_range)


def _dropout_seed(base: int, epoch: int, batch_index: int) -> int:
    return (base * 1_000_003 + epoch * 10_007 + batch_index * 101) % (2**31 - 1)


def train(train_set: EssaySet, val_set: EssaySet, vocab: Vocabulary,
          embeddings: EmbeddingTable, cfg: TrainConfig,
          dtype=np.float32) -> tuple[ModelParameters, list[EpochRecord]]:
    """Run the full training loop and return the best parameters by validation kappa.

    Ties keep the earliest epoch; the history has exactly ``cfg.epochs``
    entries.  Everything is deterministic given ``cfg.seed``.
    """
    if len(train_set) == 0:
        raise UsageError("training set is empty")
    matrix = build_embedding_matrix(vocab, embeddings, seed=cfg.seed,
                                    trainable=cfg.trainable_embeddings,
                                    dtype=dtype)
    params = init_parameters(matrix, cfg, dtype=dtype)
    if cfg.epochs == 0:
        return params, []
    if len(val_set) == 0:
        raise UsageError("validation set is empty")

    accumulators = {name: np.zeros_like(t) for name, t in params.tensors.items()}
    history: list[EpochRecord] = []
    best: ModelParameters | None = None
    best_qwk = -np.inf
    previous_mse = None
    for epoch in range(1, cfg.epochs + 1):
        shuffle_seed = cfg.seed + (epoch - 1 if cfg.reshuffle_each_epoch else 0)
        batches = make_batches(train_set, vocab, cfg.batch_size, shuffle_seed)
        squared_sum = 0.0
        count = 0
        for i, batch in enumerate(batches):
            loss, grads = backward(batch, params, _dropout_seed(cfg.seed, epoch, i))
            if cfg.grad_clip is not None:
                clip_gradients(grads, cfg.grad_clip)
            rmsprop_step(params, grads, accumulators)
            squared_sum += loss * len(batch)
            count += len(batch)
        train_mse = squared_sum / count
        val_qwk = evaluate_qwk(params, vocab, val_set)
        history.append(EpochRecord(epoch, train_mse, val_qwk))
        if cfg.dropout == 0 and not cfg.reshuffle_each_epoch \
                and previous_mse is not None and train_mse > previous_mse:
            logger.warning("train MSE increased at epoch %d: %.6g -> %.6g",
                           epoch, previous_mse, train_mse)
        previous_mse = train_mse
        logger.debug("epoch %d: train_mse=%.6g val_qwk=%.4f", epoch, train_mse, val_qwk)
        if val_qwk > best_qwk:
            best_qwk = val_qwk
            best = replace(params, tensors={name: t.copy()
                                            for name, t in params.tensors.items()})
    assert best is not None
    return best, history


def history_to_csv(history: list[EpochRecord]) -> str:
    lines = ["epoch,train_mse,val_qwk"]
    for record in history:
        lines.append(f"{record.epoch},{record.train_mse:.10g},{record.val_qwk:.10g}")
    return "\n".join(lines) + "\n"
