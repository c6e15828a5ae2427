"""Training end to end on a small separable corpus.

Essay scores here count how many of two keyword tokens appear, so a correct
model can drive the training error to zero and we can watch it happen.

Run:  python demos/04_training_synthetic.py
"""
import numpy as np

from delaes import EmbeddingTable, TrainConfig, build_vocabulary, train
from delaes.corpus import Essay, EssaySet, ScoreRange
from delaes.training import evaluate_qwk

FILLERS = ("river", "stone", "cloud", "meadow", "lantern", "harbor")
KEYWORDS = ("magnet", "beacon")


def make_corpus(n, seed):
    rng = np.random.default_rng(seed)
    essays = []
    for i in range(n):
        length = int(rng.integers(10, 15))
        tokens = [FILLERS[int(rng.integers(0, len(FILLERS)))] for _ in range(length)]
        for keyword in KEYWORDS:
            if rng.integers(0, 2):
                for pos in rng.choice(length, size=3, replace=False):
                    tokens[int(pos)] = keyword
        score = sum(keyword in tokens for keyword in KEYWORDS)
        essays.append(Essay(i + 1, tuple(tokens), score))
    return EssaySet(tuple(essays), ScoreRange(1, 0, 2))


def make_table(dim, seed):
    rng = np.random.default_rng(seed)
    vectors = {w: rng.normal(0, 0.5, dim).astype(np.float32) for w in FILLERS}
    for axis, keyword in enumerate(KEYWORDS):
        v = np.zeros(dim, dtype=np.float32)
        v[axis] = 3.0
        vectors[keyword] = v
    return EmbeddingTable(dim, vectors)


corpus = make_corpus(40, seed=5)
train_set = corpus.subset(range(1, 33))
val_set = corpus.subset(range(33, 41))
print(f"{len(train_set)} training essays, {len(val_set)} validation essays")
print("example:", " ".join(train_set.essays[0].tokens),
      "-> score", train_set.essays[0].raw_score)
print()

cfg = TrainConfig(windows=(2, 3), filters=8, batch_size=32, hidden_units=8,
                  dropout=0.0, epochs=200, learning_rate=0.01,
                  embedding_dim=12, pool_size=2, pool_stride=2, seed=11)
vocab = build_vocabulary([train_set])
table = make_table(cfg.embedding_dim, seed=9)

params, history = train(train_set, val_set, vocab, table, cfg)

print("epoch  train_mse   val_qwk")
for record in history[::20] + [history[-1]]:
    print(f"{record.epoch:5d}  {record.train_mse:.6f}  {record.val_qwk:+.3f}")

reached = next((h.epoch for h in history if h.train_mse < 1e-3), None)
print()
print("train MSE dropped below 1e-3 at epoch:", reached)
print("agreement with gold scores on the training set (QWK):",
      round(evaluate_qwk(params, vocab, train_set), 3))
