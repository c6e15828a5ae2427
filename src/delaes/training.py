"""Mini-batch training: padding/masking, reverse-mode gradients, RMSProp.

The backward pass is written layer by layer against the forward cache, so
gradients are exact reverse-mode derivatives of the mean-squared-error loss
under a fixed dropout realization.  Masked positions contribute nothing, and
the PAD embedding row never receives an update.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .config import TrainConfig
from .corpus import PAD_INDEX, EssaySet, ScoreRange, Vocabulary, denormalize_score
from .embedding import EmbeddingTable, build_embedding_matrix
from .errors import NumericError, UsageError
from .metrics import qwk
from .network import (
    ModelParameters,
    _bigru_batch_backward,
    _maxpool_batch_backward,
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

    ``mask`` is true exactly at real-token positions; every row has at least
    one true entry.
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
                 shuffle_seed: int, min_length: int = 1) -> list[Batch]:
    """Shuffle deterministically and pad each batch to its own longest essay.

    ``min_length`` lets callers guarantee the width required by the widest
    convolution window.  The last batch may be short; the union of batches is
    exactly the input set.
    """
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    essays = essay_set.essays
    if not essays:
        return []
    order = np.random.default_rng(shuffle_seed).permutation(len(essays))
    batches = []
    for start in range(0, len(essays), batch_size):
        chunk = [essays[i] for i in order[start:start + batch_size]]
        indices, mask = pad_rows([vocab.encode(e.tokens) for e in chunk],
                                 min_length)
        targets = np.array([e.normalized_score for e in chunk], dtype=np.float64)
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


def _first_nonfinite(params: ModelParameters, grads: Gradients | None) -> str:
    for name, tensor in params.tensors.items():
        if not np.isfinite(tensor).all():
            return name
    if grads:
        for name, tensor in grads.items():
            if not np.isfinite(tensor).all():
                return f"grad:{name}"
    return "<loss only>"


def backward(batch: Batch, params: ModelParameters, dropout_seed: int
             ) -> tuple[float, Gradients]:
    """Loss and exact gradients for one batch under a fixed dropout draw."""
    cfg = params.config
    dtype = params.dtype
    drop_mask = None
    if cfg.dropout > 0:
        rng = np.random.default_rng(dropout_seed)
        drop_mask = make_drop_mask(rng, (len(batch), summary_width(cfg)),
                                   cfg.dropout, dtype)
    targets = batch.targets.astype(dtype)
    yhat, cache = forward_batch(batch.indices, batch.mask, params, drop_mask)
    loss = mse_loss(targets, yhat)
    if not np.isfinite(loss):
        raise NumericError(
            "non-finite training loss; first non-finite tensor: "
            + _first_nonfinite(params, None)
        )

    tensors = params.tensors
    grads: Gradients = {}
    b = len(batch)
    # Head: d/dyhat of mean (y - yhat)^2, then through the sigmoid.
    d_yhat = (2.0 / b) * (yhat - targets)
    d_logit = d_yhat * yhat * (1.0 - yhat)
    grads["dense.weights"] = cache["dropped"].T @ d_logit
    grads["dense.bias"] = np.array([d_logit.sum()], dtype=dtype)
    d_dropped = d_logit[:, None] * tensors["dense.weights"][None, :]
    d_concat = d_dropped * drop_mask if drop_mask is not None else d_dropped

    emb = tensors["embedding"][batch.indices]
    d_emb = np.zeros_like(emb)
    h2 = 2 * cfg.hidden_units
    for ci, k in enumerate(cfg.windows):
        # Release each channel's forward cache as it is consumed; the GRU
        # states alone are about 200 MB per channel at the paper's shapes.
        ch_cache = cache["channels"][ci]
        cache["channels"][ci] = None
        d_summary = d_concat[:, ci * h2:(ci + 1) * h2]
        d_pooled, gru_grads = _bigru_batch_backward(
            ch_cache.pop("bigru"), tensors, f"gru{k}.", d_summary, cfg.summary_mode)
        grads.update(gru_grads)

        pre = ch_cache["pre"]
        d_fm = _maxpool_batch_backward(d_pooled, ch_cache["source"],
                                       ch_cache["pooled_valid"], pre.shape[1])
        d_pre = d_fm * (pre > 0)
        d_pre *= ch_cache["conv_valid"][:, :, None]

        weights = tensors[f"conv{k}.weights"]
        d = emb.shape[2]
        p = pre.shape[1]
        g_w = np.zeros_like(weights)
        d_pre_flat = d_pre.reshape(-1, d_pre.shape[2])
        for j in range(k):
            window = np.ascontiguousarray(emb[:, j:j + p, :]).reshape(-1, d)
            g_w[:, j * d:(j + 1) * d] = d_pre_flat.T @ window
            d_emb[:, j:j + p, :] += d_pre @ weights[:, j * d:(j + 1) * d]
        grads[f"conv{k}.weights"] = g_w
        grads[f"conv{k}.bias"] = d_pre.sum(axis=(0, 1))

    g_embedding = np.zeros_like(tensors["embedding"])
    if params.embedding_trainable:
        flat = batch.indices.ravel()
        np.add.at(g_embedding, flat, d_emb.reshape(-1, emb.shape[2]))
        g_embedding[PAD_INDEX] = 0.0
    grads["embedding"] = g_embedding
    return loss, grads


@dataclass
class RmsPropState:
    """Per-parameter squared-gradient accumulators plus the step constants."""

    acc: dict[str, np.ndarray]
    decay: float
    epsilon: float
    learning_rate: float

    @classmethod
    def for_params(cls, params: ModelParameters, cfg: TrainConfig) -> "RmsPropState":
        acc = {name: np.zeros_like(tensor) for name, tensor in params.tensors.items()}
        return cls(acc=acc, decay=cfg.rmsprop_decay, epsilon=cfg.rmsprop_epsilon,
                   learning_rate=cfg.learning_rate)


def rmsprop_step(params: ModelParameters, grads: Gradients,
                 state: RmsPropState) -> tuple[ModelParameters, RmsPropState]:
    """In-place update: acc <- rho*acc + (1-rho)*g^2; theta <- theta - lr*g/(sqrt(acc)+eps)."""
    rho = state.decay
    for name, tensor in params.tensors.items():
        g = grads[name]
        acc = state.acc[name]
        acc *= rho
        acc += (1.0 - rho) * g * g
        tensor -= state.learning_rate * g / (np.sqrt(acc) + state.epsilon)
    return params, state


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
    """Inference-mode predictions in [0, 1], one per token sequence, in order."""
    token_sequences = list(token_sequences)
    if not token_sequences:
        return np.zeros(0, dtype=np.float64)
    cfg = params.config
    size = batch_size or cfg.batch_size
    outputs = []
    for start in range(0, len(token_sequences), size):
        indices, mask = pad_rows(
            [vocab.encode(tokens) for tokens in token_sequences[start:start + size]],
            max(cfg.windows))
        yhat, _ = forward_batch(indices, mask, params)
        outputs.append(yhat.astype(np.float64))
    return np.concatenate(outputs)


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

    state = RmsPropState.for_params(params, cfg)
    min_length = max(cfg.windows)
    history: list[EpochRecord] = []
    best: ModelParameters | None = None
    best_qwk = -np.inf
    previous_mse = None
    for epoch in range(1, cfg.epochs + 1):
        shuffle_seed = cfg.seed + (epoch - 1 if cfg.reshuffle_each_epoch else 0)
        batches = make_batches(train_set, vocab, cfg.batch_size, shuffle_seed,
                               min_length=min_length)
        squared_sum = 0.0
        count = 0
        for i, batch in enumerate(batches):
            loss, grads = backward(batch, params, _dropout_seed(cfg.seed, epoch, i))
            if cfg.grad_clip is not None:
                clip_gradients(grads, cfg.grad_clip)
            rmsprop_step(params, grads, state)
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
