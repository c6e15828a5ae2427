"""Independent reference implementations used as test oracles.

Everything here is written from the layer definitions with plain Python
loops, deliberately sharing no code with the library, so agreement between
the two is meaningful evidence of correctness.
"""
from __future__ import annotations

import math

import numpy as np


def conv_relu_oracle(matrix, weights, bias, window):
    """Nested-loop valid convolution with ReLU over a (dim, m) essay matrix."""
    dim, m = matrix.shape
    filters = weights.shape[0]
    width = m - window + 1
    out = np.zeros((filters, width))
    for f in range(filters):
        for p in range(width):
            total = bias[f]
            for j in range(window):
                for a in range(dim):
                    total += weights[f, j * dim + a] * matrix[a, p + j]
            out[f, p] = total if total > 0 else 0.0
    return out


def maxpool_oracle(feature_map, pool, stride):
    """Loop-based pooling with the final partial window kept; only windows
    that start inside the map exist."""
    filters, width = feature_map.shape
    n_out = min(math.ceil(width / stride), max(1, math.ceil((width - pool) / stride) + 1))
    out = np.zeros((filters, n_out))
    for f in range(filters):
        for j in range(n_out):
            lo = j * stride
            out[f, j] = max(feature_map[f, lo:lo + pool])
    return out


def gru_step_scalar(x, h_prev, w_z, w_r, w_h, u_z, u_r, u_h):
    """Hand evaluation of one scalar recurrence step via the math module."""
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = sig(w_z * x + u_z * h_prev)
    r = sig(w_r * x + u_r * h_prev)
    c = math.tanh(w_h * x + u_h * (r * h_prev))
    return (1.0 - z) * h_prev + z * c, z, r, c


def qwk_oracle(actual, predicted, min_score, max_score):
    """Brute-force quadratic weighted kappa from its defining matrices."""
    n_ratings = max_score - min_score + 1
    weights = [[(i - j) ** 2 / (n_ratings - 1) ** 2 for j in range(n_ratings)]
               for i in range(n_ratings)]
    observed = [[0] * n_ratings for _ in range(n_ratings)]
    hist_a = [0] * n_ratings
    hist_p = [0] * n_ratings
    for a, p in zip(actual, predicted):
        observed[a - min_score][p - min_score] += 1
        hist_a[a - min_score] += 1
        hist_p[p - min_score] += 1
    total = len(actual)
    numerator = 0.0
    denominator = 0.0
    for i in range(n_ratings):
        for j in range(n_ratings):
            expected_ij = hist_a[i] * hist_p[j] / total
            numerator += weights[i][j] * observed[i][j]
            denominator += weights[i][j] * expected_ij
    if denominator == 0.0:
        return 1.0
    return 1.0 - numerator / denominator


def relative_error(a: float, b: float, floor: float = 1e-8) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def gru_scan_backward_unflushed(cache, gates, d_final):
    """Backprop through one GRU scan direction with no flush of tiny values.

    The same arithmetic, in the same order, as the library's reverse scan
    before it flushed the carried gradient: the reference that flushing must
    agree with wherever the gradient is not vanishingly small.  ``cache`` is
    the forward scan's cache; ``gates`` maps gate names to matrices.
    """
    w_z, w_r, w_h = gates["w_z"], gates["w_r"], gates["w_h"]
    u_z, u_r, u_h = gates["u_z"], gates["u_r"], gates["u_h"]
    x, valid = cache["x"], cache["valid"]
    hs, zs, rs, cs = cache["h"], cache["z"], cache["r"], cache["c"]
    dh = d_final.astype(x.dtype).copy()
    dx = np.zeros_like(x)
    grads = {name: np.zeros_like(w) for name, w in gates.items()}
    for t in reversed(range(x.shape[0])):
        m = valid[t][:, None].astype(x.dtype)
        z, r, c, h_prev = zs[t], rs[t], cs[t], hs[t]
        d_new = dh * m
        dz = d_new * (c - h_prev)
        dc = d_new * z
        dh_prev = d_new * (1.0 - z) + dh * (1.0 - m)
        da_c = dc * (1.0 - c * c)
        grads["w_h"] += da_c.T @ x[t]
        grads["u_h"] += da_c.T @ (r * h_prev)
        dx[t] += da_c @ w_h
        d_rh = da_c @ u_h
        dh_prev += d_rh * r
        da_r = (d_rh * h_prev) * r * (1.0 - r)
        grads["w_r"] += da_r.T @ x[t]
        grads["u_r"] += da_r.T @ h_prev
        dx[t] += da_r @ w_r
        dh_prev += da_r @ u_r
        da_z = dz * z * (1.0 - z)
        grads["w_z"] += da_z.T @ x[t]
        grads["u_z"] += da_z.T @ h_prev
        dx[t] += da_z @ w_z
        dh_prev += da_z @ u_z
        dh = dh_prev
    return dx, grads


def maxpool_batch_loop(fm, lengths, pool, stride):
    """Batch pooling of row ``i``'s first ``lengths[i]`` positions, with one
    ``argmax`` per pooled window.

    Returns pooled values, argmax source positions and window validity, as
    the library's offset-loop pooling must reproduce them bit for bit.  A
    row's valid windows are those that :func:`maxpool_oracle` gives its
    unpadded map, the ones that start inside it; the others pool to zero.
    Positions past a row's length hold -inf, and a window starting past the
    input keeps source 0.
    """
    batch, width, filters = fm.shape
    windows = max(1, math.ceil((width - pool) / stride) + 1)
    pooled = np.zeros((batch, windows, filters), dtype=fm.dtype)
    source = np.zeros((batch, windows, filters), dtype=np.int64)
    pooled_valid = np.zeros((batch, windows), dtype=bool)
    for i, c in enumerate(lengths):
        masked = np.concatenate([fm[i, :c], np.full((width - c, filters), -np.inf,
                                                    dtype=fm.dtype)])
        own = max(1, math.ceil((c - pool) / stride) + 1) if c else 0
        for j in range(windows):
            lo = j * stride
            if lo >= width:
                continue
            segment = masked[lo:lo + pool]
            arg = segment.argmax(axis=0)
            source[i, j] = arg + lo
            if j < own and lo < c:
                pooled[i, j] = segment[arg, np.arange(filters)]
                pooled_valid[i, j] = True
    return pooled, source, pooled_valid


def maxpool_backward_loop(d_pooled, source, pooled_valid, width):
    """Per-window scatter of pooled gradients to their argmax sources.

    One ``np.add.at`` per pooled window ``j``, in ascending ``j``: the
    reference the library's per-offset routing must match bit for bit.
    """
    batch, windows, filters = source.shape
    d_fm = np.zeros((batch, width, filters), dtype=d_pooled.dtype)
    rows = np.arange(batch)[:, None]
    cols = np.arange(filters)[None, :]
    for j in range(windows):
        vals = d_pooled[:, j, :] * pooled_valid[:, j][:, None]
        np.add.at(d_fm, (rows, source[:, j, :], cols), vals)
    return d_fm


def gru_scan_full(x, valid, gates):
    """Full-width GRU scan over time-major input (T, B, I), one step at a time.

    Every row computes its gates at every step, and an invalid step carries
    the row's previous state.  Returns a cache with the library scan's keys
    (``x``, ``valid``, ``h``, ``z``, ``r``, ``c``), every gate value defined,
    for :func:`gru_scan_backward_unflushed`.
    """
    def sig(a):
        return 1.0 / (1.0 + np.exp(-a))

    steps, batch, _ = x.shape
    hidden = gates["u_z"].shape[0]
    hs = np.zeros((steps + 1, batch, hidden), dtype=x.dtype)
    zs, rs, cs = (np.zeros((steps, batch, hidden), dtype=x.dtype) for _ in range(3))
    for t in range(steps):
        h = hs[t]
        z = sig(x[t] @ gates["w_z"].T + h @ gates["u_z"].T)
        r = sig(x[t] @ gates["w_r"].T + h @ gates["u_r"].T)
        c = np.tanh(x[t] @ gates["w_h"].T + (r * h) @ gates["u_h"].T)
        zs[t], rs[t], cs[t] = z, r, c
        hs[t + 1] = np.where(valid[t][:, None], (1.0 - z) * h + z * c, h)
    return {"x": x, "valid": valid, "h": hs, "z": zs, "r": rs, "c": cs}


def conv_batch_loop(emb, weights, bias):
    """Pre-activations (B, P, F) of one channel: one product per window offset.

    ``weights`` is (F, k·d); offset ``j`` multiplies its d-column slice with
    the embeddings shifted by ``j``.
    """
    batch, length, dim = emb.shape
    k = weights.shape[1] // dim
    p = length - k + 1
    pre = np.zeros((batch, p, weights.shape[0]), dtype=emb.dtype) + bias
    for j in range(k):
        pre += emb[:, j:j + p, :] @ weights[:, j * dim:(j + 1) * dim].T
    return pre


def conv_batch_backward_loop(emb, d_pre, weights):
    """Weight, bias and input gradients of :func:`conv_batch_loop` for the
    pre-activation gradient ``d_pre``, one offset at a time."""
    dim = emb.shape[2]
    p = d_pre.shape[1]
    g_w = np.zeros_like(weights)
    d_emb = np.zeros_like(emb)
    for j in range(weights.shape[1] // dim):
        window = emb[:, j:j + p, :].reshape(-1, dim)
        g_w[:, j * dim:(j + 1) * dim] = d_pre.reshape(-1, d_pre.shape[2]).T @ window
        d_emb[:, j:j + p, :] += d_pre @ weights[:, j * dim:(j + 1) * dim]
    return g_w, d_pre.sum(axis=(0, 1)), d_emb


class EmbeddingFormatError(Exception):
    """The oracle's rejection of an embedding file; its message is the one
    the library's ``FormatError`` must carry."""


def load_embeddings_loop(path, expected_dim):
    """Token -> float32 vector map of a UTF-8 embedding file, one line at a
    time with Python's ``float``.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` and blank ones are skipped, but
    counted in line numbers.  A first non-blank line of two integers is a
    ``count dim`` header: ``dim`` must equal ``expected_dim`` and the file
    must hold ``count`` vector lines.  Duplicates keep their first vector;
    NaN, infinities and reals past the float32 range are rejected.
    """
    vectors = {}
    count = None
    found = 0
    with open(path, encoding="utf-8") as fh:
        lines = [(n, raw.rstrip("\n")) for n, raw in enumerate(fh, start=1)]
    real = [(n, line) for n, line in lines if line and not line.isspace()]
    for i, (lineno, line) in enumerate(real):
        fields = line.split()
        if i == 0 and len(fields) == 2:
            try:
                count, declared = int(fields[0]), int(fields[1])
            except ValueError:
                pass
            else:
                if declared != expected_dim:
                    raise EmbeddingFormatError(
                        f"{path}:{lineno}: header declares dimension {declared}, "
                        f"expected {expected_dim}")
                continue
        token, values = fields[0], fields[1:]
        if len(values) != expected_dim:
            raise EmbeddingFormatError(
                f"{path}:{lineno}: expected {expected_dim} vector components, "
                f"found {len(values)}")
        try:
            parsed = [float(v) for v in values]
        except ValueError as exc:
            raise EmbeddingFormatError(f"{path}:{lineno}: {exc}") from None
        with np.errstate(over="ignore"):
            vector = np.array(parsed, dtype=np.float32)
        if not np.isfinite(vector).all():
            raise EmbeddingFormatError(f"{path}:{lineno}: non-finite vector component")
        found += 1
        vectors.setdefault(token, vector)
    if count is not None and count != found:
        raise EmbeddingFormatError(f"{path}: header declares {count} vectors, found {found}")
    return vectors


def undecodable_byte_report(path, data: bytes, codec: str) -> str | None:
    """The message naming the first byte of ``data``, the contents of
    ``path``, that ``codec`` cannot decode, or None when all of it decodes.

    The whole file is strict-decoded at once: the offset is where the decode
    fails, and the line is 1 plus the ``\\n``, ``\\r\\n`` and ``\\r`` line
    breaks before it.
    """
    try:
        data.decode(codec)
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return (f"{path}:{line}: cannot decode byte 0x{data[exc.start]:02x} "
                f"at file offset {exc.start} as {codec} ({exc.reason})")
    return None
