"""Synthetic fixtures shared across the test suite.

The separable corpus scores each essay by how many of the two keyword tokens
it contains (0, 1 or 2), so a correct model can recover the rule exactly.
Keyword embeddings sit on large orthogonal axes to keep the task linearly
separable from the first convolution layer onward.
"""
from __future__ import annotations

import numpy as np

from delaes import EmbeddingTable, EssaySet, TrainConfig, Vocabulary
from delaes.corpus import Essay, ScoreRange
from delaes.embedding import build_embedding_matrix
from delaes.network import init_parameters

FILLERS = ("river", "stone", "cloud", "meadow", "lantern", "harbor")
KEYWORDS = ("magnet", "beacon")


def make_corpus(n: int, seed: int, repeats: int = 3, min_len: int = 10,
                max_len: int = 15, prompt_id: int = 1) -> EssaySet:
    """Essays of filler tokens; each keyword is present with probability 1/2
    and repeated ``repeats`` times when present."""
    rng = np.random.default_rng(seed)
    score_range = ScoreRange(prompt_id, 0, 2)
    essays = []
    for i in range(n):
        length = int(rng.integers(min_len, max_len))
        tokens = [FILLERS[int(rng.integers(0, len(FILLERS)))] for _ in range(length)]
        for keyword in KEYWORDS:
            if rng.integers(0, 2):
                for pos in rng.choice(length, size=repeats, replace=False):
                    tokens[int(pos)] = keyword
        # keywords can overwrite each other, so recount from the tokens
        score = sum(keyword in tokens for keyword in KEYWORDS)
        essays.append(Essay(i + 1, tuple(tokens), score))
    return EssaySet(tuple(essays), score_range)


def make_table(dim: int, seed: int) -> EmbeddingTable:
    rng = np.random.default_rng(seed)
    vectors = {w: rng.normal(0, 0.5, dim).astype(np.float32) for w in FILLERS}
    for axis, keyword in enumerate(KEYWORDS):
        v = np.zeros(dim, dtype=np.float32)
        v[axis] = 3.0
        vectors[keyword] = v
    return EmbeddingTable(dim, vectors)


def overfit_config(**overrides) -> TrainConfig:
    """Reduced model used by the overfit and CV micro-runs."""
    base = dict(windows=(2, 3), filters=8, batch_size=32, hidden_units=8,
                dropout=0.0, epochs=200, learning_rate=0.01, embedding_dim=12,
                pool_size=2, pool_stride=2, seed=11, trainable_embeddings=True)
    base.update(overrides)
    return TrainConfig(**base)


def cv_config(**overrides) -> TrainConfig:
    """Micro-run CV settings: global max pooling and frozen embeddings."""
    base = dict(windows=(2, 3), filters=8, batch_size=64, hidden_units=8,
                dropout=0.0, epochs=100, learning_rate=0.01, embedding_dim=12,
                pool_size=64, pool_stride=64, seed=11,
                trainable_embeddings=False)
    base.update(overrides)
    return TrainConfig(**base)


TINY_TOKENS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot")


def tiny_model(dtype=np.float64, dropout: float = 0.4, windows=(2, 3),
               dim: int = 8, hidden: int = 4, filters: int = 3,
               seed: int = 1, embed_seed: int = 3):
    """Small randomly initialized model over a six-token vocabulary."""
    cfg = TrainConfig(windows=windows, filters=filters, batch_size=4,
                      hidden_units=hidden, dropout=dropout, epochs=1,
                      learning_rate=0.01, embedding_dim=dim, seed=seed)
    vocab = Vocabulary(TINY_TOKENS)
    table = EmbeddingTable(dim, {})
    matrix = build_embedding_matrix(vocab, table, seed=embed_seed, dtype=dtype)
    params = init_parameters(matrix, cfg)
    return cfg, vocab, params


def write_asap_tsv(path, essay_set: EssaySet, extra_rows: str = "") -> None:
    """Write essays in the ASAP TSV layout (plus an ignored extra column)."""
    lines = ["essay_id\tessay_set\tessay\trater1_domain1\tdomain1_score"]
    prompt_id = essay_set.score_range.prompt_id
    for essay in essay_set:
        text = " ".join(essay.tokens)
        lines.append(f"{essay.essay_id}\t{prompt_id}\t{text}\t"
                     f"{essay.raw_score}\t{essay.raw_score}")
    body = "\n".join(lines) + "\n" + extra_rows
    with open(path, "w", encoding="latin-1") as fh:
        fh.write(body)


def write_embeddings(path, table: EmbeddingTable, header: bool = False) -> None:
    lines = []
    if header:
        lines.append(f"{len(table.vectors)} {table.dimension}")
    for token, vector in table.vectors.items():
        lines.append(token + " " + " ".join(f"{v:.6f}" for v in vector))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
