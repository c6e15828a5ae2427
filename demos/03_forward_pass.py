"""The scoring network layer by layer, and padding invariance.

Run:  python demos/03_forward_pass.py
"""
import numpy as np

from delaes import (
    EmbeddingTable,
    TrainConfig,
    Vocabulary,
    bigru_forward,
    build_embedding_matrix,
    conv1d_forward,
    embed,
    forward,
    init_parameters,
    maxpool,
)

cfg = TrainConfig(windows=(2, 3), filters=5, hidden_units=4, dropout=0.4,
                  embedding_dim=6, batch_size=8, epochs=1, seed=42)
vocab = Vocabulary(["students", "write", "essays", "about", "computers",
                    "every", "day"])
matrix = build_embedding_matrix(vocab, EmbeddingTable(6, {}), seed=1)
params = init_parameters(matrix, cfg)

tokens = ["students", "write", "essays", "about", "computers", "every", "day"]
print("essay:", " ".join(tokens))

# ---------------------------------------------------------------------------
# 1. Embedding lookup: one column per token.
# ---------------------------------------------------------------------------
dense = embed(tokens, vocab, matrix)
print("embedded matrix:", dense.shape, "(dim x tokens)")

# ---------------------------------------------------------------------------
# 2. One convolution channel: sliding windows of 2 words, 5 filters, ReLU.
#    Width shrinks to tokens - window + 1.
# ---------------------------------------------------------------------------
fm = conv1d_forward(dense, params.tensors["conv2.weights"],
                    params.tensors["conv2.bias"])
print("feature map:", fm.shape, "min value:", fm.min(), "(never negative)")

# ---------------------------------------------------------------------------
# 3. Temporal max-pooling halves the sequence (pool 2, stride 2), keeping
#    the strongest activation per filter in each window.
# ---------------------------------------------------------------------------
pooled = maxpool(fm, cfg.pool_size, cfg.pool_stride)
print("pooled map: ", pooled.shape)

# ---------------------------------------------------------------------------
# 4. The bidirectional recurrence walks the pooled sequence both ways and
#    concatenates the two final states into the channel summary.
# ---------------------------------------------------------------------------
gates = ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h")
fw = {g: params.tensors[f"gru2.fw.{g}"] for g in gates}
bw = {g: params.tensors[f"gru2.bw.{g}"] for g in gates}
outputs, summary = bigru_forward(pooled.T, fw, bw)
print("per-step outputs:", outputs.shape, " summary:", summary.shape)

# ---------------------------------------------------------------------------
# 5. End to end: channel summaries concatenate into the sigmoid head, giving
#    a normalized score strictly inside (0, 1).
# ---------------------------------------------------------------------------
score = forward(vocab.encode(tokens), params)
print("predicted normalized score:", round(score, 6))

# Appending padding (token index 0, masked) cannot change inference output:
padded_score = forward(vocab.encode(tokens) + [0] * 40, params)
print("with 40 padding tokens appended:", round(padded_score, 6),
      "| difference:", abs(score - padded_score))

# Dropout only acts in training mode, through an explicit generator:
training_score = forward(vocab.encode(tokens), params,
                         dropout_rng=np.random.default_rng(3))
print("training-mode score (dropout active):", round(training_score, 6))
