"""Forward computation of the scoring network.

Stack, per essay: embedding lookup -> per-channel {1D convolution over word
windows -> ReLU -> temporal max-pooling -> bidirectional GRU} -> channel
summaries concatenated -> dropout (training only) -> sigmoid head.

The parameters are one ordered ``name -> ndarray`` map
(:class:`ModelParameters`), the same form the artifact, the gradients and
RMSProp use.  The batched internals read their arrays from that map by name;
the single-essay functions (:func:`conv1d_forward`, :func:`maxpool`,
:func:`gru_step`, :func:`bigru_forward`) are thin views over them for the
oracle tests, taking plain arrays or a gate-name mapping for one GRU
direction.

All operations are pure given parameters and an explicit generator, so an
unchanging :class:`ModelParameters` can serve any number of concurrent
inference calls.  Positions whose convolution window touches a padding token
are masked out of pooling, and masked GRU steps carry the previous hidden
state, which makes inference outputs invariant to trailing padding.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import TrainConfig
from .corpus import PAD_INDEX, Vocabulary
from .embedding import EmbeddingMatrix
from .errors import DomainError, UsageError

_GATE_NAMES = ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h")

# Backprop through time over hundreds of steps shrinks the carried state
# gradient by a gate factor below one per step (the vanishing gradient), and
# in float32 it crosses into the subnormal range, where every arithmetic
# operation on x86 takes a slow microcode assist.  :func:`_gru_scan_backward`
# therefore zeroes each entry of the carried gradient whose magnitude falls
# below ``finfo.tiny / finfo.eps`` of its dtype (2**-103 for float32, about
# 1e-292 for float64): the BPTT analogue of the flush-to-zero mode that
# TF/Keras CPU kernels run with.  Such an entry lies at least 2**23 below the
# smallest normal number, so it cannot move a float32 weight and vanishes
# when RMSProp squares it.  The threshold is tiny/eps rather than tiny
# because products of normal operands still land in the subnormal range.


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, dtype-preserving.

    exp is only ever taken of non-positive values, so no overflow; the two
    branches are the algebraically matched forms 1/(1+e^-x) and e^x/(1+e^x).
    """
    x = np.asarray(x)
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


@dataclass
class ModelParameters:
    """Every trainable tensor, by canonical name, plus the config it belongs to.

    ``tensors`` holds the names and order of :func:`expected_shapes`: the
    embedding, then per window ``k`` the ``conv{k}`` weights and bias and the
    ``gru{k}.fw``/``gru{k}.bw`` gate matrices, then the dense head.  Names and
    shapes are validated on construction; pass ``vocab`` to also require one
    embedding row per vocabulary entry.
    """

    config: TrainConfig
    tensors: dict[str, np.ndarray]
    embedding_trainable: bool = True
    vocab: InitVar[Vocabulary | None] = None

    def __post_init__(self, vocab: Vocabulary | None):
        rows = vocab.size if vocab is not None else len(self.tensors.get("embedding", ()))
        expected = expected_shapes(self.config, rows)
        missing = sorted(set(expected) - set(self.tensors))
        extra = sorted(set(self.tensors) - set(expected))
        if missing or extra:
            raise UsageError(f"tensor names mismatch: missing={missing}, extra={extra}")
        for name, shape in expected.items():
            if tuple(self.tensors[name].shape) != shape:
                raise UsageError(
                    f"tensor {name!r} has shape {self.tensors[name].shape}, expected {shape}"
                )
        self.tensors = {name: self.tensors[name] for name in expected}

    @property
    def dtype(self):
        return self.tensors["embedding"].dtype

    @property
    def vocab_size(self) -> int:
        return self.tensors["embedding"].shape[0]


def summary_width(cfg: TrainConfig) -> int:
    return 2 * cfg.hidden_units * len(cfg.windows)


def expected_shapes(cfg: TrainConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Canonical tensor name -> shape map for a given config and vocabulary."""
    d, f, h = cfg.embedding_dim, cfg.filters, cfg.hidden_units
    shapes: dict[str, tuple[int, ...]] = {"embedding": (vocab_size, d)}
    for k in cfg.windows:
        shapes[f"conv{k}.weights"] = (f, k * d)
        shapes[f"conv{k}.bias"] = (f,)
        for direction in ("fw", "bw"):
            for gate in ("w_z", "w_r", "w_h"):
                shapes[f"gru{k}.{direction}.{gate}"] = (h, f)
            for gate in ("u_z", "u_r", "u_h"):
                shapes[f"gru{k}.{direction}.{gate}"] = (h, h)
    shapes["dense.weights"] = (summary_width(cfg),)
    shapes["dense.bias"] = (1,)
    return shapes


def _glorot(rng: np.random.Generator, shape: tuple[int, ...],
            fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape).astype(dtype)


def init_parameters(embedding: EmbeddingMatrix, cfg: TrainConfig,
                    dtype=None) -> ModelParameters:
    """Seeded Glorot-uniform initialization of every layer; biases start at zero.

    Weights are drawn in canonical tensor order, so the draws of each tensor
    depend only on the config and the seed.
    """
    dtype = dtype or embedding.weights.dtype
    rows, d = embedding.weights.shape
    if d != cfg.embedding_dim:
        raise UsageError(
            f"embedding matrix has dimension {d}, config says {cfg.embedding_dim}"
        )
    rng = np.random.default_rng(cfg.seed)
    tensors = {}
    for name, shape in expected_shapes(cfg, rows).items():
        if name == "embedding":
            tensors[name] = embedding.weights.astype(dtype, copy=True)
        elif name.endswith(".bias"):
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            # A (rows, cols) weight maps cols inputs to rows outputs; the dense
            # head maps its whole width to one logit.
            fan_out, fan_in = shape if len(shape) == 2 else (1, shape[0])
            tensors[name] = _glorot(rng, shape, fan_in, fan_out, dtype)
    return ModelParameters(cfg, tensors, embedding.trainable)


def pad_rows(rows: Sequence[Sequence[int]], min_length: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """Stack encoded essays into a PAD-filled (B, L) index matrix and its mask.

    ``L`` is the longest row or ``min_length``, whichever is larger; the mask
    is true exactly at non-PAD indices.  :meth:`Vocabulary.encode` never
    yields PAD, so for encoded essays the mask marks every real token.
    """
    length = max(max(len(row) for row in rows), min_length)
    indices = np.full((len(rows), length), PAD_INDEX, dtype=np.int64)
    for i, row in enumerate(rows):
        indices[i, :len(row)] = row
    return indices, indices != PAD_INDEX


# ---------------------------------------------------------------------------
# Single-essay layer surfaces
# ---------------------------------------------------------------------------

def conv1d_forward(matrix: np.ndarray, weights: np.ndarray,
                   bias: np.ndarray) -> np.ndarray:
    """Valid 1D convolution plus ReLU over a (dim, n_tokens) essay matrix.

    ``weights`` has shape (filters, window * dim); the slice
    ``weights[:, j*dim:(j+1)*dim]`` acts on the j-th column of the window.
    Output column i is ReLU(W @ vec(columns i..i+k-1) + b), giving a
    (filters, n_tokens - k + 1) feature map of non-negative activations.
    """
    d, m = matrix.shape
    if weights.shape[1] % d:
        raise UsageError(f"weights width {weights.shape[1]} is not a multiple "
                         f"of the embedding dimension {d}")
    assert m >= weights.shape[1] // d, \
        "convolution input narrower than window: upstream padding bug"
    emb = np.ascontiguousarray(matrix.T)[None, :, :]
    pre, _ = _conv_pre_batch(emb, weights, bias, np.ones((1, m), dtype=bool))
    return np.maximum(pre[0], 0).T


def maxpool(feature_map: np.ndarray, pool: int, stride: int) -> np.ndarray:
    """Per-filter max over windows of ``pool`` positions advancing by ``stride``.

    The final partial window is kept; a pool at least as wide as the input
    degenerates to a global max over time.
    """
    if pool < 1 or stride < 1:
        raise DomainError("pool and stride must be >= 1")
    fm = np.asarray(feature_map)[None].transpose(0, 2, 1)  # (1, width, filters)
    width = fm.shape[1]
    pooled, _, _ = _maxpool_batch(fm, np.ones((1, width), dtype=bool), pool, stride)
    return pooled[0].T


def gru_step(x_t: np.ndarray, h_prev: np.ndarray,
             p: Mapping[str, np.ndarray]) -> np.ndarray:
    """One recurrence step: update gate z, reset gate r, candidate state.

    ``p`` maps the gate names ``w_z``, ``w_r``, ``w_h`` (hidden, inputs) and
    ``u_z``, ``u_r``, ``u_h`` (hidden, hidden) to one direction's matrices.

    z = sigmoid(w_z x + u_z h);  r = sigmoid(w_r x + u_r h)
    c = tanh(w_h x + u_h (r * h));  h' = (1 - z) * h + z * c
    """
    z = sigmoid(p["w_z"] @ x_t + p["u_z"] @ h_prev)
    r = sigmoid(p["w_r"] @ x_t + p["u_r"] @ h_prev)
    c = np.tanh(p["w_h"] @ x_t + p["u_h"] @ (r * h_prev))
    return (1.0 - z) * h_prev + z * c


def bigru_forward(seq: np.ndarray, fw: Mapping[str, np.ndarray],
                  bw: Mapping[str, np.ndarray], mask: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Run both scan directions over a (steps, features) sequence.

    ``fw`` and ``bw`` are gate-name mappings as for :func:`gru_step`.
    Returns per-step outputs (steps, 2H) as [forward state, backward state]
    and the summary vector [forward state at the last real step, backward
    state at the first real step].  Masked steps carry the previous hidden
    state in both directions; initial states are zero.
    """
    seq = np.asarray(seq)
    steps = seq.shape[0]
    if mask is None:
        mask = np.ones(steps, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (steps,):
        raise UsageError("mask length must equal sequence length")
    x = seq[:, None, :]          # time-major batch of one
    valid = mask[:, None]
    fw_cache = _gru_scan(x, valid, fw)
    bw_cache = _gru_scan(x[::-1], valid[::-1], bw)
    outputs = np.concatenate([fw_cache["h"][1:, 0], bw_cache["h"][1:, 0][::-1]],
                             axis=1)
    summary = np.concatenate([fw_cache["h"][-1, 0], bw_cache["h"][-1, 0]])
    return outputs, summary


def forward(essay_indices, params: ModelParameters,
            dropout_rng: np.random.Generator | None = None) -> float:
    """Score one essay, returning a normalized prediction strictly in (0, 1).

    Pass a seeded generator to enable training-mode dropout; leave it None
    for deterministic inference.
    """
    seq = np.asarray(essay_indices, dtype=np.int64)
    if seq.ndim != 1 or seq.size == 0:
        raise UsageError("essay_indices must be a non-empty 1-d index sequence")
    if seq.min() < 0 or seq.max() >= params.vocab_size:
        raise UsageError(
            f"token index {int(seq.min()) if seq.min() < 0 else int(seq.max())} "
            f"outside vocabulary of size {params.vocab_size}"
        )
    indices, mask = pad_rows([seq], max(params.config.windows))
    drop_mask = None
    if dropout_rng is not None and params.config.dropout > 0:
        drop_mask = make_drop_mask(dropout_rng, (1, summary_width(params.config)),
                                   params.config.dropout, params.dtype)
    yhat, _ = forward_batch(indices, mask, params, drop_mask)
    return float(yhat[0])


def make_drop_mask(rng: np.random.Generator, shape: tuple[int, ...],
                   p: float, dtype) -> np.ndarray:
    """Fixed inverted-dropout realization: each entry is 0 with probability
    p, else 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise DomainError(f"dropout rate {p} outside [0, 1)")
    dt = np.dtype(dtype)
    keep = rng.random(shape) >= p
    return keep.astype(dt) / dt.type(1.0 - p)


# ---------------------------------------------------------------------------
# Batched internals (shared by inference and the training-time backward pass)
# ---------------------------------------------------------------------------

def _conv_pre_batch(emb: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                    mask: np.ndarray):
    """Pre-activations (B, P, F) and validity of each window position.

    A position is valid only when every token in its window is real, so
    padding never leaks into downstream layers.
    """
    b, length, d = emb.shape
    k = weights.shape[1] // d
    assert length >= k, "convolution input narrower than window: upstream padding bug"
    p = length - k + 1
    pre = np.zeros((b, p, weights.shape[0]), dtype=emb.dtype)
    pre += bias
    for j in range(k):
        pre += emb[:, j:j + p, :] @ weights[:, j * d:(j + 1) * d].T
    windows = np.lib.stride_tricks.sliding_window_view(mask, k, axis=1)
    return pre, windows.all(axis=2)


def pooled_length(width: int, pool: int, stride: int) -> int:
    return max(1, -(-(width - pool) // stride) + 1)


def _maxpool_batch(fm: np.ndarray, valid: np.ndarray, pool: int, stride: int):
    """Masked temporal max-pooling.

    Returns pooled values (B, T, F), source indices for backprop (B, T, F)
    and pooled validity (B, T); windows with no valid position pool to zero
    and are marked invalid.
    """
    b, width, f = fm.shape
    t = pooled_length(width, pool, stride)
    lowest = np.finfo(fm.dtype).min
    masked = np.where(valid[:, :, None], fm, lowest)
    pooled = np.zeros((b, t, f), dtype=fm.dtype)
    source = np.zeros((b, t, f), dtype=np.int64)
    pooled_valid = np.zeros((b, t), dtype=bool)
    for j in range(t):
        lo = j * stride
        hi = min(lo + pool, width)
        if lo >= width:
            continue
        segment = masked[:, lo:hi, :]
        arg = segment.argmax(axis=1)
        best = np.take_along_axis(segment, arg[:, None, :], axis=1)[:, 0, :]
        window_valid = valid[:, lo:hi].any(axis=1)
        pooled[:, j, :] = np.where(window_valid[:, None], best, 0)
        source[:, j, :] = arg + lo
        pooled_valid[:, j] = window_valid
    return pooled, source, pooled_valid


#: Batch rows per scatter in :func:`_maxpool_batch_backward`.
_SCATTER_ROWS = 16


def _maxpool_batch_backward(d_pooled: np.ndarray, source: np.ndarray,
                            pooled_valid: np.ndarray, width: int) -> np.ndarray:
    """Route pooled gradients (B, T, F) to their argmax sources in a
    (B, width, F) map; invalid windows contribute nothing.

    One flattened scatter per block of batch rows, whose int64 index stays
    a few MB instead of the size of the whole feature map.  Values are
    raveled in (b, j, f) order, so every position that several windows
    pooled from sums their gradients in ascending window order j.
    """
    b, _, f = source.shape
    d_fm = np.zeros((b, width * f), dtype=d_pooled.dtype)
    for lo in range(0, b, _SCATTER_ROWS):
        hi = min(lo + _SCATTER_ROWS, b)
        index = source[lo:hi] + (np.arange(hi - lo) * width)[:, None, None]
        index *= f
        index += np.arange(f)
        vals = d_pooled[lo:hi] * pooled_valid[lo:hi, :, None]
        np.add.at(d_fm[lo:hi].reshape(-1), index.ravel(), vals.ravel())
    return d_fm.reshape(b, width, f)


def _gru_scan(x: np.ndarray, valid: np.ndarray, gates: Mapping[str, np.ndarray],
              prefix: str = "") -> dict:
    """Scan one direction over time-major input (T, B, I).

    The direction's matrices are ``gates[prefix + name]`` for each gate name:
    a gate-name mapping with the empty prefix, or the model's tensor map with
    a prefix such as ``"gru2.fw."``.  Returns stacked states and gate values;
    ``h`` has T+1 entries with the zero initial state first.  Invalid steps
    copy the previous state.
    """
    w_z, w_r, w_h, u_z, u_r, u_h = (gates[prefix + name] for name in _GATE_NAMES)
    steps, batch, _ = x.shape
    hidden = u_z.shape[0]
    h = np.zeros((batch, hidden), dtype=x.dtype)
    hs = np.empty((steps + 1, batch, hidden), dtype=x.dtype)
    zs = np.empty((steps, batch, hidden), dtype=x.dtype)
    rs = np.empty_like(zs)
    cs = np.empty_like(zs)
    hs[0] = h
    for t in range(steps):
        z = sigmoid(x[t] @ w_z.T + h @ u_z.T)
        r = sigmoid(x[t] @ w_r.T + h @ u_r.T)
        c = np.tanh(x[t] @ w_h.T + (r * h) @ u_h.T)
        h_new = (1.0 - z) * h + z * c
        h = np.where(valid[t][:, None], h_new, h)
        zs[t], rs[t], cs[t] = z, r, c
        hs[t + 1] = h
    return {"x": x, "valid": valid, "h": hs, "z": zs, "r": rs, "c": cs}


def _gru_scan_backward(cache: dict, gates: Mapping[str, np.ndarray],
                       d_final: np.ndarray, d_steps: np.ndarray | None = None,
                       prefix: str = ""):
    """Reverse-mode pass through one scan direction.

    ``gates`` and ``prefix`` name the direction's matrices as in
    :func:`_gru_scan`.  ``d_final`` is the gradient on the state after the
    last step; ``d_steps`` optionally adds per-step output gradients.
    Returns the input gradient (T, B, I) and the gate gradients under the
    same ``prefix + name`` keys, in gate order.  The carried state gradient
    is flushed to zero below ``finfo.tiny / finfo.eps`` after every step
    (see the note by ``_GATE_NAMES``).
    """
    w_z, w_r, w_h, u_z, u_r, u_h = (gates[prefix + name] for name in _GATE_NAMES)
    x, valid = cache["x"], cache["valid"]
    hs, zs, rs, cs = cache["h"], cache["z"], cache["r"], cache["c"]
    steps = x.shape[0]
    info = np.finfo(x.dtype)
    flush = info.tiny / info.eps
    dh = d_final.astype(x.dtype).copy()
    dx = np.zeros_like(x)
    g_w_z, g_w_r, g_w_h = (np.zeros_like(w) for w in (w_z, w_r, w_h))
    g_u_z, g_u_r, g_u_h = (np.zeros_like(u) for u in (u_z, u_r, u_h))
    for t in range(steps - 1, -1, -1):
        if d_steps is not None:
            dh = dh + d_steps[t]
        m = valid[t][:, None].astype(x.dtype)
        z, r, c, h_prev = zs[t], rs[t], cs[t], hs[t]
        d_new = dh * m
        dz = d_new * (c - h_prev)
        dc = d_new * z
        dh_prev = d_new * (1.0 - z) + dh * (1.0 - m)
        da_c = dc * (1.0 - c * c)
        g_w_h += da_c.T @ x[t]
        g_u_h += da_c.T @ (r * h_prev)
        dx[t] += da_c @ w_h
        d_rh = da_c @ u_h
        dh_prev += d_rh * r
        da_r = (d_rh * h_prev) * r * (1.0 - r)
        g_w_r += da_r.T @ x[t]
        g_u_r += da_r.T @ h_prev
        dx[t] += da_r @ w_r
        dh_prev += da_r @ u_r
        da_z = dz * z * (1.0 - z)
        g_w_z += da_z.T @ x[t]
        g_u_z += da_z.T @ h_prev
        dx[t] += da_z @ w_z
        dh_prev += da_z @ u_z
        dh_prev[np.abs(dh_prev) < flush] = 0.0
        dh = dh_prev
    grads = (g_w_z, g_w_r, g_w_h, g_u_z, g_u_r, g_u_h)
    return dx, {prefix + name: g for name, g in zip(_GATE_NAMES, grads)}


def _bigru_batch(pooled: np.ndarray, pooled_valid: np.ndarray,
                 tensors: Mapping[str, np.ndarray], prefix: str,
                 summary_mode: str):
    """Both directions over batch-major pooled features (B, T, F).

    The directions' matrices are ``tensors[prefix + "fw." + gate]`` and
    ``tensors[prefix + "bw." + gate]``.
    """
    x = np.ascontiguousarray(pooled.transpose(1, 0, 2))
    valid = np.ascontiguousarray(pooled_valid.T)
    fw = _gru_scan(x, valid, tensors, prefix + "fw.")
    bw = _gru_scan(x[::-1], valid[::-1], tensors, prefix + "bw.")
    if summary_mode == "last":
        summary = np.concatenate([fw["h"][-1], bw["h"][-1]], axis=1)
    else:
        counts = np.maximum(valid.sum(axis=0), 1).astype(x.dtype)[:, None]
        weights = valid.astype(x.dtype)[:, :, None]
        mean_fw = (fw["h"][1:] * weights).sum(axis=0) / counts
        mean_bw = (bw["h"][1:] * weights[::-1]).sum(axis=0) / counts
        summary = np.concatenate([mean_fw, mean_bw], axis=1)
    return {"fw": fw, "bw": bw, "summary": summary}


def _bigru_batch_backward(cache: dict, tensors: Mapping[str, np.ndarray],
                          prefix: str, d_summary: np.ndarray, summary_mode: str
                          ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Gradient of the channel summary w.r.t. pooled inputs, plus the gate
    gradients of both directions keyed by their tensor names (forward
    direction first)."""
    hidden = d_summary.shape[1] // 2
    d_fw, d_bw = d_summary[:, :hidden], d_summary[:, hidden:]
    fw, bw = cache["fw"], cache["bw"]
    valid = fw["valid"]
    dtype = fw["x"].dtype
    if summary_mode == "last":
        dx_fw, g_fw = _gru_scan_backward(fw, tensors, d_fw, prefix=prefix + "fw.")
        dx_bw, g_bw = _gru_scan_backward(bw, tensors, d_bw, prefix=prefix + "bw.")
    else:
        counts = np.maximum(valid.sum(axis=0), 1).astype(dtype)[:, None]
        zeros = np.zeros_like(d_fw)
        steps_fw = valid.astype(dtype)[:, :, None] * (d_fw / counts)[None]
        steps_bw = valid[::-1].astype(dtype)[:, :, None] * (d_bw / counts)[None]
        dx_fw, g_fw = _gru_scan_backward(fw, tensors, zeros, steps_fw,
                                         prefix + "fw.")
        dx_bw, g_bw = _gru_scan_backward(bw, tensors, zeros, steps_bw,
                                         prefix + "bw.")
    g_fw.update(g_bw)
    d_pooled = (dx_fw + dx_bw[::-1]).transpose(1, 0, 2)
    return d_pooled, g_fw


def forward_batch(indices: np.ndarray, mask: np.ndarray,
                  params: ModelParameters, drop_mask: np.ndarray | None = None):
    """Score a padded batch; returns predictions (B,) and a cache for backprop.

    ``drop_mask`` is a fixed dropout realization from :func:`make_drop_mask`,
    or None for inference.
    """
    cfg = params.config
    tensors = params.tensors
    emb = tensors["embedding"][indices]
    channels = []
    summaries = []
    for k in cfg.windows:
        pre, conv_valid = _conv_pre_batch(emb, tensors[f"conv{k}.weights"],
                                          tensors[f"conv{k}.bias"], mask)
        fm = np.maximum(pre, 0)
        pooled, source, pooled_valid = _maxpool_batch(
            fm, conv_valid, cfg.pool_size, cfg.pool_stride)
        bicache = _bigru_batch(pooled, pooled_valid, tensors, f"gru{k}.",
                               cfg.summary_mode)
        summaries.append(bicache["summary"])
        channels.append({
            "pre": pre,
            "conv_valid": conv_valid,
            "source": source,
            "pooled_valid": pooled_valid,
            "bigru": bicache,
        })
    concat = np.concatenate(summaries, axis=1)
    dropped = concat * drop_mask if drop_mask is not None else concat
    logits = dropped @ tensors["dense.weights"] + tensors["dense.bias"][0]
    yhat = sigmoid(logits)
    cache = {
        "indices": indices,
        "mask": mask,
        "channels": channels,
        "dropped": dropped,
        "drop_mask": drop_mask,
        "yhat": yhat,
    }
    return yhat, cache
