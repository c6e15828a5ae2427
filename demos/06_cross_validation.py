"""k-fold cross-validation over a synthetic corpus.

Each round holds out a block of test folds, reserves the next fold for
validation-based model selection, trains on the rest, and scores held-out
essays on the original integer scale.  With ten folds the roles match a
70/10/20 split; this demo uses k=2 to stay fast.

Run:  python demos/06_cross_validation.py
"""
import numpy as np

from delaes import EmbeddingTable, TrainConfig, plan_folds, run_cv
from delaes.corpus import Essay, EssaySet, ScoreRange
from delaes.harness import report_to_csv, round_layout

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


# ---------------------------------------------------------------------------
# Fold plans are deterministic partitions with near-equal sizes.  At k=10 the
# test blocks advance two folds per round, covering every fold exactly once.
# ---------------------------------------------------------------------------
corpus = make_corpus(480, seed=5)
plan = plan_folds(corpus, k=10, seed=3)
print("fold sizes at k=10:", [len(plan.members(f)) for f in range(10)])
print("test blocks per round:", round_layout(10))
print()

# ---------------------------------------------------------------------------
# A k=2 micro-run: two rounds, each testing one half of the corpus.
# ---------------------------------------------------------------------------
cfg = TrainConfig(windows=(2, 3), filters=8, batch_size=64, hidden_units=8,
                  dropout=0.0, epochs=100, learning_rate=0.01,
                  embedding_dim=12, pool_size=64, pool_stride=64, seed=11,
                  trainable_embeddings=False)
report = run_cv(corpus, make_table(12, seed=9), cfg, k=2, seed=3)

for result in report.rounds:
    print(f"round {result.round_index}: test folds {result.test_folds} "
          f"QWK {result.qwk:.3f}")
print(f"mean QWK over rounds: {report.mean_qwk:.3f}")
print(f"pooled QWK over all test predictions: {report.pooled_qwk:.3f}")
print()
print("flat CSV form:")
print(report_to_csv(report))
