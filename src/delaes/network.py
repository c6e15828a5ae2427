"""Forward and reverse mode of every layer of the scoring network.

Stack, per essay: embedding lookup -> per-channel {1D convolution over word
windows -> ReLU -> temporal max-pooling -> bidirectional GRU} -> channel
summaries concatenated -> dropout (training only) -> sigmoid head.  This
module owns every layer's forward and reverse mode: :func:`backward_batch`
alone reads the cache :func:`forward_batch` returns.

The parameters are one ordered ``name -> ndarray`` map
(:class:`ModelParameters`), the same form the artifact, the gradients and
RMSProp use.  Only :func:`forward_batch` and :func:`backward_batch` read it
by name: the layers below take plain arrays and, per GRU direction, a
gate-name map.  The single-essay functions (:func:`conv1d_forward`,
:func:`maxpool`, :func:`gru_step`, :func:`bigru_forward`) are thin views
over those layers for the oracle tests, taking the same forms.

All operations are pure given parameters and an explicit generator, so an
unchanging :class:`ModelParameters` can serve any number of concurrent
inference calls.  A BiGRU's two directions share nothing until their final
states are joined, nor in reverse mode until their input gradients are
added.  So when a batch is large enough (batch rows × hidden units at least
:data:`_TWO_THREAD_MIN_WORK`) and the process may run on two CPUs,
:func:`forward_batch` and :func:`backward_batch` each start one worker
thread that lives for that call alone, and the worker runs every BiGRU's
backward direction while the caller runs the forward one.  The convolution
splits too: forward, the caller and the worker take alternate blocks of
batch rows; backward, the worker takes the input-gradient GEMM and its
embedding scatter while the caller runs the weight-gradient GEMM.  Results
are the same bit for bit either way.

Padding only follows an essay's real tokens, and each row
carries its real extent as a length: ``n`` tokens, ``max(n - k + 1, 0)``
positions of window ``k``, and the pooled windows its unpadded map has.
Past its length a row is treated exactly like the end of its essay, so
padding cannot change a score, whatever the pool and stride: an essay
scores the same alone or in any batch.  So the conv forward computes over
each block of rows only up to the block's longest essay, and, as padding
gets no gradient, the conv backward does too.  The training cache keeps,
per channel, each window's argmax offset and whether its pooled value is
positive, which is all the ReLU and the pool need in reverse.
"""
from __future__ import annotations

import contextlib
import itertools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import InitVar, dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import TrainConfig
from .corpus import PAD_INDEX, Vocabulary
from .embedding import EmbeddingMatrix
from .errors import DomainError, UsageError

_GATE_NAMES = ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h")
# _gate_key(k, direction, gate): the tensor name of window k's fw or bw gate.
_gate_key = "gru{}.{}.{}".format

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


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as ``0.5 + 0.5 * tanh(x / 2)``, dtype-preserving.

    tanh never overflows, so one branch serves every input.  The result lies
    in [0, 1], not strictly inside it: it rounds to exactly 1 from about 17
    in float32 (37 in float64) and to exactly 0 from about -18 to -20
    (-38), depending on the platform's tanh.  Pass ``out`` (which may be
    ``x`` itself) to compute in place.
    """
    half = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    return np.add(np.multiply(half, 0.5, out=out), 0.5, out=out)


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
        for direction, gate in itertools.product(("fw", "bw"), _GATE_NAMES):
            shapes[_gate_key(k, direction, gate)] = (h, f if gate[0] == "w" else h)
    shapes["dense.weights"] = (summary_width(cfg),)
    shapes["dense.bias"] = (1,)
    return shapes


def _glorot(rng: np.random.Generator, shape: tuple[int, ...],
            fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape).astype(dtype)


def init_parameters(embedding: EmbeddingMatrix, cfg: TrainConfig) -> ModelParameters:
    """Seeded Glorot-uniform initialization of every layer; biases start at zero.

    Weights are drawn in canonical tensor order, so the draws of each tensor
    depend only on the config and the seed; the tensors take the matrix's
    dtype.  The matrix must train exactly when the config's
    ``trainable_embeddings`` says so.
    """
    dtype = embedding.weights.dtype
    rows, d = embedding.weights.shape
    if d != cfg.embedding_dim:
        raise UsageError(
            f"embedding matrix has dimension {d}, config says {cfg.embedding_dim}"
        )
    if embedding.trainable != cfg.trainable_embeddings:
        raise UsageError(f"embedding matrix has trainable={embedding.trainable}, "
                         f"config says trainable_embeddings={cfg.trainable_embeddings}")
    rng = np.random.default_rng(cfg.seed)
    tensors = {}
    for name, shape in expected_shapes(cfg, rows).items():
        if name == "embedding":
            tensors[name] = embedding.weights.copy()
        elif name.endswith(".bias"):
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            # A (rows, cols) weight maps cols inputs to rows outputs; the dense
            # head maps its whole width to one logit.
            fan_out, fan_in = shape if len(shape) == 2 else (1, shape[0])
            tensors[name] = _glorot(rng, shape, fan_in, fan_out, dtype)
    return ModelParameters(cfg, tensors)


def pad_rows(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Stack encoded essays into a PAD-filled (B, L) index matrix and its mask.

    ``L`` is the longest row; the mask is true exactly at non-PAD indices.
    :meth:`Vocabulary.encode` never yields PAD, so for encoded essays the
    mask marks every real token.
    """
    length = max(len(row) for row in rows)
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
    (filters, max(n_tokens - k + 1, 0)) feature map of non-negative
    activations: empty when the essay is narrower than the window.
    """
    d, m = matrix.shape
    if weights.shape[1] % d:
        raise UsageError(f"weights width {weights.shape[1]} is not a multiple "
                         f"of the embedding dimension {d}")
    [pre] = _conv_pre_batch(matrix.T, np.arange(m)[None], [weights], [bias], np.array([m]))
    return np.maximum(pre[0], 0).T


def maxpool(feature_map: np.ndarray, pool: int, stride: int) -> np.ndarray:
    """Per-filter max over windows of ``pool`` positions advancing by ``stride``.

    The final partial window is kept, and only windows that start inside the
    input exist; a pool at least as wide as the input degenerates to a
    global max over time.
    """
    if pool < 1 or stride < 1:
        raise DomainError("pool and stride must be >= 1")
    fm = np.asarray(feature_map)[None].transpose(0, 2, 1)  # (1, width, filters)
    # Every position is real, so pooling writes nothing into the caller's map.
    pooled, _, lengths = _maxpool_batch(fm, np.array([fm.shape[1]]), pool, stride, False)
    return pooled[0, :lengths[0]].T


def gru_step(x_t: np.ndarray, h_prev: np.ndarray,
             p: Mapping[str, np.ndarray]) -> np.ndarray:
    """One recurrence step of :func:`_gru_cell` for a single essay.

    ``p`` maps the gate names ``w_z``, ``w_r``, ``w_h`` (hidden, inputs) and
    ``u_z``, ``u_r``, ``u_h`` (hidden, hidden) to one direction's matrices.
    """
    w_x, u_zr, u_h = _fused_gates(p)
    gates = np.asarray(x_t)[None] @ w_x
    return _gru_cell(gates, np.asarray(h_prev)[None], u_zr, u_h)[0]


def bigru_forward(seq: np.ndarray, fw: Mapping[str, np.ndarray],
                  bw: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Run both directions, gate-name maps as for :func:`gru_step`, over a
    (steps, features) sequence whose every step is real.

    Returns per-step outputs (steps, 2H) as [forward state, backward state]
    and the summary vector [forward state at the last step, backward state
    at the first].  Initial states are zero.
    """
    summary, cache = _bigru_batch(np.asarray(seq)[None], np.array([len(seq)]), fw, bw)
    outputs = np.concatenate([cache["fw"]["h"][1:, 0], cache["bw"]["h"][1:, 0][::-1]],
                             axis=1)
    return outputs, summary[0]


def forward(essay_indices, params: ModelParameters) -> float:
    """Score one essay in inference mode, returning a normalized prediction
    in [0, 1].

    The prediction is :func:`sigmoid` of a logit, so it is strictly inside
    (0, 1) unless the logit is large enough for sigmoid to round to 0 or 1.
    Training-mode dropout goes through :func:`forward_batch`'s
    ``drop_mask``.  ``essay_indices`` must be 1-d; the essay needs at least
    one real token, PAD may follow its real tokens but not precede one, and
    every index must be a vocabulary row: :func:`forward_batch` raises
    :class:`UsageError` otherwise.
    """
    seq = np.asarray(essay_indices, dtype=np.int64)
    if seq.ndim != 1:
        raise UsageError("essay_indices must be a 1-d index sequence")
    indices, mask = pad_rows([seq])
    return float(forward_batch(indices, mask, params)[0][0])


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
# Batched internals: each layer's forward and, beside it, its reverse mode
# ---------------------------------------------------------------------------

def _stack_conv_weights(weights: Sequence[np.ndarray], d: int):
    """Every channel's (F, k·d) weights as one (d, Σk·F) matrix, and each
    channel's filters ``f``, window ``k`` and first column ``col`` in it.

    Columns run channel by channel, then window offset ``j``, then filter:
    channel ``c``'s offset-``j`` block is ``weights[c][:, j*d:(j+1)*d].T``.
    """
    starts = itertools.accumulate((w.size // d for w in weights), initial=0)
    columns = [(w.shape[0], w.shape[1] // d, col) for w, col in zip(weights, starts)]
    stacked = np.concatenate([w.reshape(w.shape[0], -1, d).transpose(2, 1, 0)
                              .reshape(d, -1) for w in weights], axis=1)
    return stacked, columns


#: Most bytes of conv products, shifted conv gradients or GRU input
#: projections held at once: a few batch rows or a few dozen time steps at
#: paper shapes, everything at small ones.  A block buffer this size is
#: reused from the allocator's heap instead of being mapped and page-faulted
#: afresh on every call.
_BLOCK_BYTES = 8 << 20


def _row_blocks(rows: int, row_bytes: int):
    """Slices of at most :data:`_BLOCK_BYTES` worth of rows (at least one
    row each) that cover ``range(rows)`` in order."""
    step = max(1, _BLOCK_BYTES // max(row_bytes, 1))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _conv_pre_batch(table: np.ndarray, indices: np.ndarray,
                    weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
                    lengths: np.ndarray, worker: ThreadPoolExecutor | None = None):
    """Pre-activations (B, P, F) of every channel over the rows of ``table``
    (V, d) that ``indices`` (B, L) picks, with ``P = max(L - k + 1, 0)``
    positions for window ``k``.

    The convolution is linear in the embedding, so a token's product with
    every offset's weight slice depends on the token alone.  Each distinct
    index of the batch is projected once against
    :func:`_stack_conv_weights`, so PAD and repeated words cost a gather of
    their row, not a GEMM row.  A channel's output at position ``p`` sums
    its offset-``j`` columns at token ``p + j``, one shifted add per offset.
    Gather and shift-adds run over :func:`_row_blocks` of the batch into a
    reused buffer, so the (B, L, Σk·F) products never exist at once.

    Row ``i`` has ``lengths[i]`` real tokens, ``L`` for a row real to its
    end.  A block is gathered and summed only up to its longest real
    length; its positions past that are zero, and those of a shorter row
    before it reach padding.  Given a ``worker``, the blocks alternate
    between the caller and it, each with a buffer of its own.  Every
    position is computed by the same operations either way, so neither the
    trim nor the threads change a bit of a real position.
    """
    b, length = indices.shape
    d = table.shape[1]
    stacked, columns = _stack_conv_weights(weights, d)
    pres = [np.empty((b, max(length - k + 1, 0), f), dtype=table.dtype) for f, k, _ in columns]
    tokens, inverse = np.unique(indices, return_inverse=True)
    inverse = inverse.reshape(indices.shape)  # its shape varies across numpy versions
    projected = np.empty((len(tokens), stacked.shape[1]), dtype=table.dtype)
    # The BLAS keeps its packing workspace for the life of the process, and
    # that grows with a GEMM's rows: block the projection as the products.
    for chunk in _row_blocks(len(tokens), stacked.shape[1] * table.itemsize):
        np.matmul(table[tokens[chunk]], stacked, out=projected[chunk])

    def fill(blocks):
        buf = None
        for rows in blocks:
            n = rows.stop - rows.start
            width = int(lengths[rows].max())
            if buf is None:
                buf = np.empty(n * length * stacked.shape[1], dtype=table.dtype)
            products = buf[:n * width * stacked.shape[1]].reshape(n, width, stacked.shape[1])
            # mode="clip" writes straight into ``out``; the default "raise"
            # gathers into a temporary first, 3x slower.  Every index is in range.
            np.take(projected, inverse[rows, :width], axis=0, out=products, mode="clip")
            for (f, k, col), bias, pre in zip(columns, biases, pres):
                p = max(width - k + 1, 0)
                block = np.add(products[:, :p, col:col + f], bias, out=pre[rows, :p])
                for j in range(1, k):
                    block += products[:, j:j + p, col + j * f:col + (j + 1) * f]
                pre[rows, p:] = 0

    blocks = _row_blocks(b, length * stacked.shape[1] * table.itemsize)
    _both_directions(lambda: fill(blocks[::2]), lambda: fill(blocks[1::2]), worker)
    return pres


def _conv_batch_backward(table: np.ndarray, indices: np.ndarray, lengths: np.ndarray,
                         d_pres: Sequence[np.ndarray], weights: Sequence[np.ndarray],
                         g_table: np.ndarray | None = None,
                         worker: ThreadPoolExecutor | None = None):
    """Gradients of :func:`_conv_pre_batch` for every channel's pre-activation
    gradient (B, P, F): a ``(weights, bias)`` gradient pair per channel.
    Given ``g_table`` (V, d), each gathered row's input gradient is also
    added into it at that row's index (PAD skipped, see :func:`_scatter_rows`).

    Row ``i`` of ``indices`` has ``lengths[i]`` real tokens, and every
    ``d_pres`` row must be zero past its real positions, as pooling leaves
    it: padding gets no gradient.  The shifted-gradient matrix ``D`` holds
    channel ``c``'s gradient at position ``p`` in token row ``p + j`` of its
    offset-``j`` columns, so the stacked weight gradient is ``Eᵀ·D`` and the
    input gradient is ``D·W_allᵀ``.  ``D`` is built one :func:`_row_blocks`
    block at a time in a reused buffer, over only the block's longest real
    length of tokens: the rest of its rows would be zero.  Per block, the
    weight-gradient GEMM runs and, for ``g_table``, the input-gradient GEMM
    and its scatter; given a ``worker``, those two run on it meanwhile.
    Each accumulator is summed on one thread in block order, so threading
    changes no bit.
    """
    b, length = indices.shape
    d = table.shape[1]
    stacked, columns = _stack_conv_weights(weights, d)
    g_stacked = np.zeros((d, stacked.shape[1]), dtype=table.dtype)
    buf = None
    for rows in _row_blocks(b, length * stacked.shape[1] * table.itemsize):
        n, width = rows.stop - rows.start, int(lengths[rows].max())
        if buf is None:
            buf = np.empty(n * length * stacked.shape[1], dtype=table.dtype)
        shifted = buf[:n * width * stacked.shape[1]].reshape(n, width, stacked.shape[1])
        for (f, k, col), d_pre in zip(columns, d_pres):
            p = max(width - k + 1, 0)
            for j in range(k):
                block = shifted[:, :, col + j * f:col + (j + 1) * f]
                block[:, :j] = 0
                block[:, j:j + p] = d_pre[rows, :p]
                block[:, j + p:] = 0
        flat = shifted.reshape(-1, stacked.shape[1])
        block_indices = indices[rows, :width]

        def weight_gradient():
            np.add(g_stacked, table[block_indices].reshape(-1, d).T @ flat, out=g_stacked)

        if g_table is None:
            weight_gradient()
        else:
            _both_directions(
                weight_gradient,
                lambda: _scatter_rows(g_table, block_indices.ravel(), flat @ stacked.T),
                worker)
    return [(g_stacked[:, col:col + k * f].reshape(d, k, f).transpose(2, 1, 0)
             .reshape(f, k * d), d_pre.sum(axis=(0, 1)))
            for (f, k, col), d_pre in zip(columns, d_pres)]


def _maxpool_batch(fm: np.ndarray, lengths: np.ndarray, pool: int, stride: int,
                   argmax: bool = True):
    """Temporal max-pooling of a (B, width, F) map whose row ``i`` has
    ``lengths[i]`` real positions, then padding.

    A pool wider than the map is cut to the map's width: offsets past it
    reach nothing and every row keeps its window count, so a global-max
    pool costs what one as wide as the batch's longest map does.

    Returns pooled values (B, T, F), each window's argmax offset (B, T, F;
    the smallest unsigned integer type that holds ``pool - 1``), or None
    without ``argmax``, and pooled lengths (B,).  A row of ``c`` positions
    gets the windows of its unpadded map (:func:`maxpool`), those that
    start inside it, ``min(ceil(c / stride), max(1, ceil((c - pool) /
    stride) + 1))``, none for ``c = 0``; the windows after them pool to
    zero.

    ``fm`` is overwritten with -inf past each row's length, so padding never
    wins.  Per offset inside the window, ``np.maximum(candidate, best)``
    keeps the running maximum: the greater, the best on a tie (so +0 stays
    ahead of a later -0), and NaN if either is NaN (which NaN, when several
    meet, is unspecified).  The argmax offset moves where the candidate is
    greater or NaN and the best is not NaN, as ``np.argmax`` picks (first
    maximum, NaN wins).
    """
    def windows(c):  # windows of a c-position map, the last partial one kept
        return np.maximum(1, -(-(c - pool) // stride) + 1)

    b, width, f = fm.shape
    pool = min(pool, max(width, 1))
    t = int(windows(width))
    last = (t - 1) * stride + 1
    for i in np.flatnonzero(lengths < width):
        fm[i, lengths[i]:] = -np.inf
    # Offset ``o`` reaches into the map for the first windows only; offset 0
    # reaches every window unless the map is empty, and then the zeroing
    # below covers every window.
    pooled = np.empty((b, t, f), dtype=fm.dtype)
    first = fm[:, :last:stride]
    pooled[:, :first.shape[1]] = first
    offset = np.zeros((b, t, f), dtype=np.min_scalar_type(pool - 1)) if argmax else None
    for o in range(1, pool):
        cand = fm[:, o:o + last:stride]
        best = pooled[:, :cand.shape[1]]
        if argmax:  # offsets only grow, so the latest better one is the largest
            better = (best == best) & ~(cand <= best)
            moved = offset[:, :cand.shape[1]]
            np.maximum(moved, np.multiply(better, o, dtype=offset.dtype), out=moved)
        np.maximum(cand, best, out=best)
    pooled_lengths = np.minimum(-(-lengths // stride), windows(lengths))
    pooled[np.arange(t) >= pooled_lengths[:, None]] = 0
    return pooled, offset, pooled_lengths


def _maxpool_batch_backward(d_pooled: np.ndarray, offset: np.ndarray,
                            width: int, pool: int, stride: int) -> np.ndarray:
    """Route pooled gradients (B, T, F) to their argmax positions in a
    (B, width, F) map.

    ``d_pooled`` must be zero at every window past a row's pooled length, as
    :func:`_gru_scan_backward` leaves it.  Offsets run last to first, so a
    position that several windows pooled from sums their gradients in
    ascending window order.  ``pool`` is cut to ``width`` as
    :func:`_maxpool_batch` cuts it.
    """
    pool = min(pool, max(width, 1))
    b, t, f = offset.shape
    last = (t - 1) * stride + 1
    d_fm = np.zeros((b, last + pool - 1, f), dtype=d_pooled.dtype)
    for o in range(pool - 1, -1, -1):
        d_fm[:, o:o + last:stride] += np.where(offset == o, d_pooled, 0)
    return d_fm[:, :width]


def _fused_gates(gates: Mapping[str, np.ndarray]):
    """One direction's gate-name map in the layout :func:`_gru_cell` reads.

    Returns ``W_x = [w_z; w_r; w_h]ᵀ`` (I, 3H), ``U_zr = [u_z; u_r]ᵀ`` (H, 2H)
    and ``u_h``.
    """
    w_z, w_r, w_h, u_z, u_r, u_h = (gates[name] for name in _GATE_NAMES)
    return np.concatenate([w_z, w_r, w_h]).T, np.concatenate([u_z, u_r]).T, u_h


def _gru_cell(gates: np.ndarray, h: np.ndarray, u_zr: np.ndarray,
              u_h: np.ndarray) -> np.ndarray:
    """One recurrence step on row-stacked states (B, H); returns the new state.

    z = sigmoid(w_z x + u_z h);  r = sigmoid(w_r x + u_r h)
    c = tanh(w_h x + u_h (r * h));  h' = (1 - z) * h + z * c

    ``gates`` (B, 3H) holds the input projections ``[w_z x | w_r x | w_h x]``
    on entry and is overwritten with ``[z | r | c]``; ``u_zr`` and ``u_h``
    come from :func:`_fused_gates`.
    """
    hidden = h.shape[1]
    zr = gates[:, :2 * hidden]
    zr += h @ u_zr
    sigmoid(zr, out=zr)
    z, r, c = zr[:, :hidden], zr[:, hidden:], gates[:, 2 * hidden:]
    c += (r * h) @ u_h.T
    np.tanh(c, out=c)
    return (1.0 - z) * h + z * c


def _prefix_lengths(mask: np.ndarray) -> np.ndarray:
    """Row lengths of a (..., L) mask whose true entries lead every row;
    a false entry before a true one raises :class:`UsageError`."""
    lengths = mask.sum(axis=-1)
    if not np.array_equal(mask, np.arange(mask.shape[-1]) < lengths[..., None]):
        raise UsageError("padding may only follow the real tokens of a row")
    return lengths


def _gru_scan(x: np.ndarray, active: np.ndarray, gates: Mapping[str, np.ndarray],
              keep: bool = True) -> dict:
    """Scan one direction, a gate-name map as for :func:`gru_step`, over
    time-major input (T, B, I).

    Returns stacked states and gate values; ``h`` has T+1 entries with the
    zero initial state first.  With ``keep`` false (inference) the scan
    updates one running state in place and returns only ``h``, holding the
    final state as its single entry.

    The input projections are one matmul per :func:`_row_blocks` block of
    steps, into the (T, B, 3H) buffer that ``keep`` returns, or else into one
    reused block buffer, so inference never holds more than
    :data:`_BLOCK_BYTES` of them.  Each step overwrites its projections with
    its gates; ``z``, ``r`` and ``c`` are views of the buffer.  Step ``t``
    computes only the first ``active[t]`` rows (rows sorted by descending
    length); the others carry their state, and their gate values are
    unspecified.  The projection covers every row, padded ones too: with
    fewer rows the BLAS may pick another kernel, which rounds differently.
    """
    w_x, u_zr, u_h = _fused_gates(gates)
    steps, batch, _ = x.shape
    hidden = u_h.shape[0]
    blocks = _row_blocks(steps, batch * 3 * hidden * x.itemsize)
    buf = np.empty((steps if keep or not blocks else blocks[0].stop, batch, 3 * hidden),
                   dtype=x.dtype)
    hs = np.zeros((steps + 1 if keep else 1, batch, hidden), dtype=x.dtype)
    steps_active = active.tolist()
    for block in blocks:
        start = block.start
        projected = np.matmul(x[block], w_x,
                              out=buf[block] if keep else buf[:block.stop - start])
        for t in range(start, block.stop):
            a = steps_active[t]
            prev, new = (hs[t], hs[t + 1]) if keep else (hs[0], hs[0])
            if keep:
                new[a:] = prev[a:]
            if a:
                new[:a] = _gru_cell(projected[t - start, :a], prev[:a], u_zr, u_h)
    if not keep:
        return {"h": hs}
    return {"x": x, "active": active, "h": hs, "z": buf[:, :, :hidden],
            "r": buf[:, :, hidden:2 * hidden], "c": buf[:, :, 2 * hidden:]}


def _gru_scan_backward(cache: dict, gates: Mapping[str, np.ndarray],
                       d_final: np.ndarray):
    """Reverse-mode pass through one scan direction.

    ``gates`` is the gate-name map given to :func:`_gru_scan`.  ``d_final``
    is the gradient on the state after the last step, the only state the
    channel summary reads.  Returns the input gradient (T, B, I) and the
    gate gradients keyed by gate name, in gate order.  Step ``t`` works on
    the first ``active[t]`` rows, as the forward scan did; the other rows
    carry their gradient.  The carried state gradient is flushed to zero
    below ``finfo.tiny / finfo.eps`` after every step (see the note by
    ``_GATE_NAMES``).
    """
    w_z, w_r, w_h, u_z, u_r, u_h = (gates[name] for name in _GATE_NAMES)
    x, active = cache["x"], cache["active"].tolist()
    hs, zs, rs, cs = cache["h"], cache["z"], cache["r"], cache["c"]
    steps = x.shape[0]
    info = np.finfo(x.dtype)
    flush = info.tiny / info.eps
    dh = d_final.astype(x.dtype).copy()
    dx = np.zeros_like(x)
    g_w_z, g_w_r, g_w_h, g_u_z, g_u_r, g_u_h = (np.zeros_like(gates[n]) for n in _GATE_NAMES)
    for t in range(steps - 1, -1, -1):
        a = active[t]
        if not a:
            continue
        x_t, dx_t = x[t, :a], dx[t, :a]
        z, r, c, h_prev = zs[t, :a], rs[t, :a], cs[t, :a], hs[t, :a]
        d_new = dh[:a]
        dz = d_new * (c - h_prev)
        dc = d_new * z
        dh_prev = d_new * (1.0 - z)
        da_c = dc * (1.0 - c * c)
        g_w_h += da_c.T @ x_t
        g_u_h += da_c.T @ (r * h_prev)
        dx_t += da_c @ w_h
        d_rh = da_c @ u_h
        dh_prev += d_rh * r
        da_r = (d_rh * h_prev) * r * (1.0 - r)
        g_w_r += da_r.T @ x_t
        g_u_r += da_r.T @ h_prev
        dx_t += da_r @ w_r
        dh_prev += da_r @ u_r
        da_z = dz * z * (1.0 - z)
        g_w_z += da_z.T @ x_t
        g_u_z += da_z.T @ h_prev
        dx_t += da_z @ w_z
        dh_prev += da_z @ u_z
        dh_prev[np.abs(dh_prev) < flush] = 0.0
        dh[:a] = dh_prev
    return dx, dict(zip(_GATE_NAMES, (g_w_z, g_w_r, g_w_h, g_u_z, g_u_r, g_u_h)))


#: Fewest batch rows × hidden units at which a BiGRU's two directions run on
#: two threads.  Every scan step passes the interpreter lock between the
#: threads around its GEMMs, and below this size that handoff costs more
#: than the second CPU saves: on two CPUs, 64 × 64 and 128 × 64 ran no
#: faster or slower than one thread, and 96 × 128, 128 × 96 and 256 × 48
#: ran 1.2-1.5x faster, inference and training alike.
_TWO_THREAD_MIN_WORK = 96 * 128


def _use_two_threads(batch: int, hidden: int) -> bool:
    """Whether a BiGRU over ``batch`` rows of ``hidden`` units runs its two
    directions on two threads: only when the work is large enough and the
    process may run on at least two CPUs.  Either way the results are the
    same bit for bit."""
    if batch * hidden < _TWO_THREAD_MIN_WORK:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _batch_worker(batch: int, hidden: int):
    """A context giving one batch call its worker: a one-thread executor,
    shut down and joined on leaving, when :func:`_use_two_threads` says so,
    else None."""
    if _use_two_threads(batch, hidden):
        return ThreadPoolExecutor(max_workers=1, thread_name_prefix="delaes-gru")
    return contextlib.nullcontext()


def _both_directions(first, second, worker: ThreadPoolExecutor | None):
    """``(first(), second())``; given a ``worker``, ``second`` runs on it
    while the caller runs ``first``.  The call never returns or raises while
    ``second`` is still running, and an exception from either reaches the
    caller."""
    if worker is None:
        return first(), second()
    future = worker.submit(second)
    try:
        result = first()
    finally:
        wait([future])
    return result, future.result()


def _bigru_batch(pooled: np.ndarray, lengths: np.ndarray, fw: Mapping[str, np.ndarray],
                 bw: Mapping[str, np.ndarray], keep: bool = True,
                 worker: ThreadPoolExecutor | None = None):
    """Both directions, gate-name maps as for :func:`gru_step`, over
    batch-major pooled features (B, T, F), rows sorted by descending
    ``lengths``.

    Returns the channel summary (B, 2H), each row's forward state after its
    last real step beside its backward state after its first, and the two
    scan caches, or None when ``keep`` is false (see :func:`_gru_scan`).
    Given a ``worker``, the backward direction runs on it.
    """
    x = np.ascontiguousarray(pooled.transpose(1, 0, 2))
    active = (lengths > np.arange(x.shape[0])[:, None]).sum(axis=1)
    fw_cache, bw_cache = _both_directions(lambda: _gru_scan(x, active, fw, keep),
                                          lambda: _gru_scan(x[::-1], active[::-1], bw, keep),
                                          worker)
    summary = np.concatenate([fw_cache["h"][-1], bw_cache["h"][-1]], axis=1)
    return summary, ({"fw": fw_cache, "bw": bw_cache} if keep else None)


def _bigru_batch_backward(cache: dict, fw: Mapping[str, np.ndarray],
                          bw: Mapping[str, np.ndarray], d_summary: np.ndarray,
                          worker: ThreadPoolExecutor | None):
    """Gradient of the channel summary w.r.t. pooled inputs, plus each
    direction's gate gradients by gate name, forward first.  The summary's
    two halves are the gradients on the final states of the forward and
    backward scans.  Given a ``worker``, the backward direction runs on it."""
    hidden = d_summary.shape[1] // 2
    (dx_fw, g_fw), (dx_bw, g_bw) = _both_directions(
        lambda: _gru_scan_backward(cache["fw"], fw, d_summary[:, :hidden]),
        lambda: _gru_scan_backward(cache["bw"], bw, d_summary[:, hidden:]),
        worker)
    return (dx_fw + dx_bw[::-1]).transpose(1, 0, 2), (g_fw, g_bw)


def _window_gates(tensors: Mapping[str, np.ndarray], k: int):
    """Window ``k``'s forward and backward gate-name maps."""
    return [{g: tensors[_gate_key(k, d, g)] for g in _GATE_NAMES} for d in ("fw", "bw")]


def forward_batch(indices: np.ndarray, mask: np.ndarray,
                  params: ModelParameters, drop_mask: np.ndarray | None = None):
    """Score a padded batch; returns predictions (B,) and the cache that
    :func:`backward_batch` reads.

    ``indices`` (B, L) holds vocabulary rows in ``[0, V)``; ``mask``, of
    the same shape, marks each row's real tokens, which come first, and
    every row has at least one.  Any other input raises :class:`UsageError`
    (a bad index is reported before a token after padding, and that before
    a row with no real token).  ``drop_mask`` is a fixed dropout realization
    from :func:`make_drop_mask` (all ones for no dropout), or None for
    inference: then nothing is kept for backprop and the cache is None.
    The predictions of the two modes are equal bit for bit under an
    all-ones mask.  Rows run longest first (a stable sort), so those still
    inside their essay lead every GRU step; predictions come back in caller
    order, the cache keeps sorted order.
    """
    cfg = params.config
    tensors = params.tensors
    keep = drop_mask is not None
    if indices.ndim != 2 or mask.shape != indices.shape:
        raise UsageError(f"indices {indices.shape} and mask {mask.shape}: not one 2-d shape")
    if indices.size and not 0 <= indices.min() <= indices.max() < params.vocab_size:
        bad = indices.min() if indices.min() < 0 else indices.max()
        raise UsageError(f"token index {bad} outside vocabulary of size {params.vocab_size}")
    lengths = _prefix_lengths(mask)
    if not lengths.all():
        raise UsageError(f"batch row {int(np.argmin(lengths))} has no real token")
    order = np.argsort(-lengths, kind="stable")
    indices, lengths = indices[order], lengths[order]
    channels, summaries = [], []
    with _batch_worker(len(indices), cfg.hidden_units) as worker:
        pres = _conv_pre_batch(tensors["embedding"], indices,
                               [tensors[f"conv{k}.weights"] for k in cfg.windows],
                               [tensors[f"conv{k}.bias"] for k in cfg.windows],
                               lengths, worker)
        for k in cfg.windows:
            # The ReLU goes in place and pooling overwrites its padding: backprop
            # needs only where each window's maximum came from and its sign.
            pre = pres.pop(0)
            pooled, offset, pooled_lengths = _maxpool_batch(
                np.maximum(pre, 0, out=pre), np.maximum(lengths - k + 1, 0),
                cfg.pool_size, cfg.pool_stride, keep)
            del pre  # dropped once pooled, in both modes
            summary, bicache = _bigru_batch(pooled, pooled_lengths, *_window_gates(tensors, k),
                                            keep, worker)
            summaries.append(summary)
            if keep:
                channels.append({"offset": offset, "live": pooled > 0, "bigru": bicache})
    concat = np.concatenate(summaries, axis=1)
    if keep:
        drop_mask = drop_mask[order]
        concat *= drop_mask
    logits = concat @ tensors["dense.weights"] + tensors["dense.bias"][0]
    yhat = sigmoid(logits)
    caller_yhat = np.empty_like(yhat)
    caller_yhat[order] = yhat
    if not keep:
        return caller_yhat, None
    return caller_yhat, {"order": order, "indices": indices, "lengths": lengths,
                         "channels": channels, "dropped": concat, "drop_mask": drop_mask,
                         "yhat": yhat}


def _scatter_rows(target: np.ndarray, rows: np.ndarray, values: np.ndarray):
    """Add each of ``values`` (N, d) into ``target`` at its row in ``rows``
    (N,), skipping PAD rows: ``np.add.at`` without its per-element cost.

    A stable sort groups each row's values and ``np.add.reduceat`` sums every
    group.  That sum equals ``add.at``'s bit for bit while a row repeats at
    most twice; beyond that ``reduceat`` adds the first value to the sum of
    the rest, so the results differ at round-off.
    """
    real = np.flatnonzero(rows != PAD_INDEX)
    real = real[np.argsort(rows[real], kind="stable")]
    sorted_rows = rows[real]
    starts = np.flatnonzero(np.diff(sorted_rows, prepend=PAD_INDEX))
    target[sorted_rows[starts]] += np.add.reduceat(values[real], starts, axis=0)


def backward_batch(cache: dict, params: ModelParameters, d_yhat: np.ndarray
                   ) -> dict[str, np.ndarray]:
    """Exact gradients of every tensor, given the loss gradient ``d_yhat`` on
    the predictions of the :func:`forward_batch` call that built ``cache``.

    ``d_yhat`` is in caller order.  Keys run dense head, per window GRU then
    conv, embedding.  The cache is consumed; the PAD row and frozen
    embeddings get zero gradient.
    """
    cfg = params.config
    tensors = params.tensors
    yhat = cache["yhat"]
    grads: dict[str, np.ndarray] = {}
    d_logit = d_yhat[cache["order"]] * yhat * (1.0 - yhat)
    grads["dense.weights"] = cache["dropped"].T @ d_logit
    grads["dense.bias"] = np.array([d_logit.sum()], dtype=params.dtype)
    d_concat = d_logit[:, None] * tensors["dense.weights"][None, :] * cache["drop_mask"]

    h2 = 2 * cfg.hidden_units
    channels = cache["channels"]
    gru_grads, d_pres = [], []
    g_embedding = np.zeros_like(tensors["embedding"])
    with _batch_worker(len(yhat), cfg.hidden_units) as worker:
        for ci, k in enumerate(cfg.windows):
            # Free each channel's cache once used: ~200 MB of GRU states at paper shapes.
            ch_cache, channels[ci] = channels[ci], None
            d_pooled, g = _bigru_batch_backward(
                ch_cache.pop("bigru"), *_window_gates(tensors, k),
                d_concat[:, ci * h2:(ci + 1) * h2], worker)
            gru_grads.append(g)
            # The ReLU's mask: at a window's argmax the pre-activation is
            # positive exactly where the pooled value is (NaN is neither).
            d_pooled *= ch_cache["live"]
            # Real windows pool from real positions: padding gets no gradient.
            d_pres.append(_maxpool_batch_backward(
                d_pooled, ch_cache["offset"], max(cache["indices"].shape[1] - k + 1, 0),
                cfg.pool_size, cfg.pool_stride))
        conv_grads = _conv_batch_backward(
            tensors["embedding"], cache["indices"], cache["lengths"], d_pres,
            [tensors[f"conv{k}.weights"] for k in cfg.windows],
            g_embedding if cfg.trainable_embeddings else None, worker)
    for k, g, (g_w, g_b) in zip(cfg.windows, gru_grads, conv_grads):
        grads.update((_gate_key(k, d, gate), g_d[gate]) for d, g_d in zip(("fw", "bw"), g)
                     for gate in _GATE_NAMES)
        grads[f"conv{k}.weights"], grads[f"conv{k}.bias"] = g_w, g_b
    grads["embedding"] = g_embedding
    return grads
