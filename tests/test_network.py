import dataclasses
import os
import signal
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaes import (
    DomainError,
    EmbeddingTable,
    TrainConfig,
    UsageError,
    Vocabulary,
    build_embedding_matrix,
    network,
)
from delaes.training import Batch, backward
from delaes.network import (
    bigru_forward,
    conv1d_forward,
    forward,
    gru_step,
    make_drop_mask,
    maxpool,
    sigmoid,
    summary_width,
)
from delaes.network import (
    _conv_batch_backward,
    _conv_pre_batch,
    _gru_scan,
    _gru_scan_backward,
    _maxpool_batch,
    _maxpool_batch_backward,
    _scatter_rows,
    backward_batch,
    forward_batch,
    pad_rows,
)
from delaes.corpus import PAD_INDEX

from oracles import (
    conv_batch_backward_loop,
    conv_batch_loop,
    conv_relu_oracle,
    gru_scan_backward_unflushed,
    gru_scan_full,
    gru_step_scalar,
    maxpool_backward_loop,
    maxpool_batch_loop,
    maxpool_oracle,
    padded_scan_cache,
)
from gradcheck import _kink_floors
from synthdata import tiny_model


GATES = ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h")


def scalar_direction(w=1.0, u=0.0):
    arr = lambda v: np.array([[v]], dtype=np.float64)
    return dict(w_z=arr(w), w_r=arr(w), w_h=arr(w),
                u_z=arr(u), u_r=arr(u), u_h=arr(u))


def random_direction(rng, hidden, inputs, scale=0.6):
    mk = lambda shape: rng.normal(0, scale, shape)
    return dict(w_z=mk((hidden, inputs)), w_r=mk((hidden, inputs)),
                w_h=mk((hidden, inputs)), u_z=mk((hidden, hidden)),
                u_r=mk((hidden, hidden)), u_h=mk((hidden, hidden)))


class TestConv:
    def test_zero_weights_zero_map(self):
        out = conv1d_forward(np.random.default_rng(0).normal(size=(2, 5)),
                             np.zeros((3, 4)), np.zeros(3))
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_forced_sums(self):
        out = conv1d_forward(np.array([[1.0, 2.0, 3.0]]), np.array([[1.0, 1.0]]),
                             np.zeros(1))
        np.testing.assert_array_equal(out, [[3.0, 5.0]])

    def test_narrower_than_window_gives_empty_map(self):
        out = conv1d_forward(np.ones((2, 2)), np.ones((4, 6)), np.zeros(4))
        assert out.shape == (4, 0)

    def test_essay_without_tokens_gives_empty_map(self):
        out = conv1d_forward(np.zeros((2, 0)), np.ones((4, 6)), np.zeros(4))
        assert out.shape == (4, 0)

    def test_weights_not_a_multiple_of_the_dimension_rejected(self):
        with pytest.raises(UsageError, match="weights width 5 is not a multiple of "
                                             "the embedding dimension 2"):
            conv1d_forward(np.ones((2, 4)), np.ones((3, 5)), np.zeros(3))

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(13)
        d, m, k, f = 2, 4, 3, 2
        weights = rng.normal(size=(f, k * d))
        bias = rng.normal(size=f)
        matrix = rng.normal(size=(d, m))
        out = conv1d_forward(matrix, weights, bias)
        np.testing.assert_allclose(out, conv_relu_oracle(matrix, weights, bias, k),
                                   rtol=1e-12)

    def test_non_negative_for_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            out = conv1d_forward(rng.normal(size=(3, 8)), rng.normal(size=(4, 9)),
                                 rng.normal(size=4))
            assert (out >= 0).all()

    def test_translation_equivariance(self):
        rng = np.random.default_rng(11)
        d, m, k, shift = 3, 9, 2, 2
        weights, bias = rng.normal(size=(4, k * d)), rng.normal(size=4)
        matrix = rng.normal(size=(d, m))
        shifted = np.concatenate([rng.normal(size=(d, shift)),
                                  matrix[:, :m - shift]], axis=1)
        out = conv1d_forward(matrix, weights, bias)
        out_shifted = conv1d_forward(shifted, weights, bias)
        np.testing.assert_allclose(out_shifted[:, shift:],
                                   out[:, :m - k + 1 - shift], rtol=1e-12)

    def test_caller_arrays_unchanged(self):
        rng = np.random.default_rng(17)
        args = (rng.normal(size=(3, 7)), rng.normal(size=(4, 9)), rng.normal(size=4))
        before = [a.copy() for a in args]
        conv1d_forward(*args)
        for a, b in zip(args, before):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestMaxpool:
    def test_constant_row(self):
        fm = np.full((2, 6), 3.5)
        np.testing.assert_array_equal(maxpool(fm, 3, 3), np.full((2, 2), 3.5))

    def test_forced_maxima(self):
        np.testing.assert_array_equal(
            maxpool(np.array([[1.0, 3.0, 2.0, 5.0]]), 2, 2), [[3.0, 5.0]])

    def test_global_when_pool_exceeds_width(self):
        np.testing.assert_array_equal(maxpool(np.array([[4.0, 1.0]]), 8, 8), [[4.0]])

    def test_partial_final_window(self):
        np.testing.assert_array_equal(
            maxpool(np.array([[1.0, 3.0, 2.0, 5.0, 4.0]]), 2, 2), [[3.0, 5.0, 4.0]])

    def test_matches_oracle_on_random_maps(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            width = int(rng.integers(1, 12))
            pool = int(rng.integers(1, 6))
            stride = int(rng.integers(1, pool + 4))  # up to 3 wider than the pool
            fm = rng.normal(size=(3, width))
            np.testing.assert_allclose(maxpool(fm, pool, stride),
                                       maxpool_oracle(fm, pool, stride))

    def test_stride_beyond_pool_keeps_only_windows_inside_the_input(self):
        # Windows start at 0 and 3; one at 6 would start past the input.
        out = maxpool(np.array([[5.0, 1.0, 1.0, 2.0, 1.0]]), 1, 3)
        np.testing.assert_array_equal(out, [[5.0, 2.0]])

    def test_rejects_bad_pool(self):
        with pytest.raises(DomainError):
            maxpool(np.ones((1, 3)), 0, 1)

    @pytest.mark.parametrize("pool, stride", [(2, 2), (3, 1), (2, 5), (8, 8)])
    def test_caller_array_unchanged(self, pool, stride):
        fm = np.random.default_rng(pool + stride).normal(size=(3, 7))
        fm[1, 2] = np.nan
        before = fm.copy()
        maxpool(fm, pool, stride)
        np.testing.assert_array_equal(fm.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool, stride, width",
                             [(2, 2, 17), (3, 1, 17), (4, 2, 17), (2, 5, 17),
                              (1, 3, 17), (7, 3, 4)])
    def test_forward_matches_per_window_argmax(self, pool, stride, width, dtype):
        rng = np.random.default_rng(pool * 10 + stride)
        batch, filters = 9, 5
        # Small integers make exact ties common.
        fm = rng.integers(-2, 3, size=(batch, width, filters)).astype(dtype)
        fm[2, 1, 0] = np.nan
        fm[2, width - 1, 1] = np.nan
        fm[3, :2, 1] = np.inf
        fm[4, :, 2] = -np.inf
        fm[4, ::2, 3] = np.nan
        fm[8, :, 3] = np.where(np.arange(width) % 2, 0.0, -0.0)
        lengths = np.full(batch, width)
        lengths[[1, 4, 6, 7]] = width // 2, 2, 0, width - 1
        pooled, offset, pooled_lengths = _maxpool_batch(fm, lengths, pool, stride)
        pooled_valid = np.arange(offset.shape[1]) < pooled_lengths[:, None]
        want_pooled, want_source, want_valid = maxpool_batch_loop(
            fm, lengths, pool, stride)
        assert pooled.dtype == want_pooled.dtype
        bits = np.dtype(f"u{pooled.itemsize}")
        np.testing.assert_array_equal(pooled.view(bits), want_pooled.view(bits))
        np.testing.assert_array_equal(pooled_valid, want_valid)
        # A window starting past the input has no argmax position.
        starts = stride * np.arange(offset.shape[1])
        inside = starts < width
        assert not pooled_valid[:, ~inside].any()
        np.testing.assert_array_equal((offset + starts[:, None])[:, inside],
                                      want_source[:, inside])

    @pytest.mark.parametrize("pool, stride", [(2, 2), (3, 1), (4, 2), (2, 5)])
    def test_backward_scatter_matches_per_window_loop(self, pool, stride):
        rng = np.random.default_rng(pool * 10 + stride)
        batch, width, filters = 37, 17, 5
        fm = rng.normal(size=(batch, width, filters)).astype(np.float32)
        lengths = np.full(batch, width)
        lengths[[1, 20, 21]] = 9, 0, 1
        pooled, offset, pooled_lengths = _maxpool_batch(fm, lengths, pool, stride)
        pooled_valid = np.arange(offset.shape[1]) < pooled_lengths[:, None]
        source = offset + stride * np.arange(offset.shape[1])[:, None]
        d_pooled = rng.normal(size=pooled.shape).astype(np.float32)
        d_pooled[0, 0, :2] = -0.0
        d_pooled[~pooled_valid] = 0.0  # as the GRU backward leaves it
        got = _maxpool_batch_backward(d_pooled, offset, width, pool, stride)
        want = maxpool_backward_loop(d_pooled, source, pooled_valid, width)
        assert got.dtype == want.dtype and got.shape == want.shape
        # Bit patterns, so signed zeros count too.
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


class TestGruStep:
    def test_zero_weights_zero_state(self):
        p = scalar_direction(w=0.0, u=0.0)
        h = gru_step(np.array([0.7]), np.zeros(1), p)
        np.testing.assert_allclose(h, [0.0], atol=1e-15)

    def test_scalar_hand_case(self):
        p = scalar_direction(w=1.0, u=0.0)
        h = gru_step(np.array([0.5]), np.zeros(1), p)
        expected, z, r, c = gru_step_scalar(0.5, 0.0, 1, 1, 1, 0, 0, 0)
        assert abs(z - 0.6224593312018546) < 1e-12
        assert abs(c - 0.46211715726000974) < 1e-12
        np.testing.assert_allclose(h, [expected], rtol=1e-12)
        assert abs(h[0] - 0.28766) < 1e-4

    def test_matches_scalar_oracle_on_random_cases(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            w_z, w_r, w_h, u_z, u_r, u_h, x, h_prev = rng.normal(0, 1.5, 8)
            p = {gate: np.array([[v]])
                 for gate, v in zip(GATES, (w_z, w_r, w_h, u_z, u_r, u_h))}
            got = gru_step(np.array([x]), np.array([h_prev]), p)
            expected, _, _, _ = gru_step_scalar(x, h_prev, w_z, w_r, w_h, u_z, u_r, u_h)
            np.testing.assert_allclose(got, [expected], rtol=1e-10, atol=1e-12)

    def test_gates_strictly_inside_unit_interval(self):
        # scales kept moderate: beyond |x| ~ 36.7 float64 sigmoid saturates
        # to exactly 0 or 1 and strictness is unobservable
        rng = np.random.default_rng(3)
        p = random_direction(rng, 6, 4, scale=1.0)
        for _ in range(100):
            x = rng.normal(0, 1.5, 4)
            h = rng.uniform(-1, 1, 6)
            z = sigmoid(p["w_z"] @ x + p["u_z"] @ h)
            r = sigmoid(p["w_r"] @ x + p["u_r"] @ h)
            assert ((z > 0) & (z < 1)).all()
            assert ((r > 0) & (r < 1)).all()

    def test_state_bounded_by_one_from_zero_init(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            p = random_direction(rng, 5, 3, scale=2.5)
            h = np.zeros(5)
            for _ in range(40):
                h = gru_step(rng.normal(0, 2, 3), h, p)
                assert np.all(np.abs(h) <= 1.0)


class TestBigru:
    def test_zero_weights_zero_outputs(self):
        zero = {gate: np.zeros((2, 3)) if i < 3 else np.zeros((2, 2))
                for i, gate in enumerate(GATES)}
        outputs, summary = bigru_forward(np.ones((4, 3)), zero, zero)
        np.testing.assert_array_equal(outputs, np.zeros((4, 4)))
        np.testing.assert_array_equal(summary, np.zeros(4))

    def test_directional_symmetry(self):
        rng = np.random.default_rng(4)
        shared = random_direction(rng, 3, 2)
        seq = rng.normal(size=(6, 2))
        out_fwd, _ = bigru_forward(seq, shared, shared)
        out_rev, _ = bigru_forward(seq[::-1].copy(), shared, shared)
        # backward direction on s equals forward direction on reversed s
        np.testing.assert_allclose(out_fwd[:, 3:], out_rev[::-1, :3], rtol=1e-12)

    def test_scalar_two_step_case(self):
        seq = np.array([[0.5], [0.25]])
        outputs, summary = bigru_forward(seq, scalar_direction(),
                                         scalar_direction())
        h1, _, _, _ = gru_step_scalar(0.5, 0.0, 1, 1, 1, 0, 0, 0)
        h2, _, _, _ = gru_step_scalar(0.25, h1, 1, 1, 1, 0, 0, 0)
        b2, _, _, _ = gru_step_scalar(0.25, 0.0, 1, 1, 1, 0, 0, 0)
        b1, _, _, _ = gru_step_scalar(0.5, b2, 1, 1, 1, 0, 0, 0)
        np.testing.assert_allclose(outputs, [[h1, b1], [h2, b2]], rtol=1e-12)
        np.testing.assert_allclose(summary, [h2, b1], rtol=1e-12)


class TestDropout:
    def test_zero_rate_identity(self):
        v = np.arange(5.0)
        mask = make_drop_mask(np.random.default_rng(0), v.shape, 0.0, v.dtype)
        np.testing.assert_array_equal(v * mask, v)

    def test_zero_fraction_near_rate(self):
        out = make_drop_mask(np.random.default_rng(123), (100_000,), 0.4,
                             np.float32)
        zero_fraction = float((out == 0).mean())
        assert abs(zero_fraction - 0.4) < 0.01
        survivors = out[out != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.6, rtol=1e-6)

    def test_rate_domain(self):
        with pytest.raises(DomainError):
            make_drop_mask(np.random.default_rng(0), (3,), 1.0, np.float64)


class TestInitParameters:
    @pytest.mark.parametrize("matrix_trains, config_trains",
                             [(False, True), (True, False)])
    def test_matrix_contradicting_the_config_rejected(self, matrix_trains,
                                                      config_trains):
        cfg = TrainConfig(windows=(2,), filters=3, hidden_units=4, embedding_dim=8,
                          trainable_embeddings=config_trains)
        matrix = build_embedding_matrix(Vocabulary(["a"]), EmbeddingTable(8, {}),
                                        seed=0, trainable=matrix_trains)
        with pytest.raises(UsageError, match="trainable_embeddings"):
            network.init_parameters(matrix, cfg)

    def test_matrix_of_another_dimension_rejected(self):
        cfg = TrainConfig(windows=(2,), filters=3, hidden_units=4, embedding_dim=8)
        matrix = build_embedding_matrix(Vocabulary(["a"]), EmbeddingTable(6, {}), seed=0)
        with pytest.raises(UsageError, match="embedding matrix has dimension 6, "
                                             "config says 8"):
            network.init_parameters(matrix, cfg)


class TestForward:
    def test_zero_head_gives_half(self):
        _, vocab, params = tiny_model(dropout=0.0)
        params.tensors["dense.weights"][:] = 0.0
        params.tensors["dense.bias"][:] = 0.0
        idx = vocab.encode(["alpha", "bravo", "charlie", "delta"])
        assert forward(idx, params) == 0.5

    def test_head_width_with_production_defaults(self):
        cfg = TrainConfig()
        assert summary_width(cfg) == 768

    def test_padding_invariance(self):
        _, vocab, params = tiny_model(dropout=0.0)
        idx = vocab.encode(["alpha", "bravo", "charlie", "delta", "echo"])
        base = forward(idx, params)
        padded = forward(list(idx) + [0] * 50, params)
        assert abs(base - padded) < 1e-6

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(14)
        _, vocab, params = tiny_model(dropout=0.0, seed=2)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            idx = [int(rng.integers(2, vocab.size)) for _ in range(n)]
            y = forward(idx, params)
            assert 0.0 < y < 1.0

    def test_essay_shorter_than_widest_window(self):
        _, vocab, params = tiny_model(dropout=0.0)
        y = forward(vocab.encode(["alpha"]), params)
        assert 0.0 < y < 1.0

    def test_empty_sequence_rejected(self):
        _, _, params = tiny_model()
        with pytest.raises(UsageError):
            forward([], params)

    @pytest.mark.parametrize("essay", [[[2, 3], [4, 5]], 2], ids=["2-d", "0-d"])
    def test_indices_not_1d_rejected(self, essay):
        _, _, params = tiny_model()
        with pytest.raises(UsageError, match="^essay_indices must be a 1-d index sequence$"):
            forward(essay, params)

    @pytest.mark.parametrize("essay", [[PAD_INDEX], [PAD_INDEX, PAD_INDEX]])
    def test_essay_of_padding_only_rejected(self, essay):
        _, _, params = tiny_model()
        with pytest.raises(UsageError, match="^batch row 0 has no real token$"):
            forward(essay, params)

    @pytest.mark.parametrize("training", [False, True])
    def test_batch_row_without_a_real_token_rejected(self, training):
        """Wherever the row sits in the batch; a PAD hole in another row is
        reported first."""
        _, _, params = tiny_model()
        for rows, hole, bad in (([[2, 3, 4], [5, 2], []], False, 2),
                                ([[], [5]], False, 0),
                                ([[2, 3, 4], []], True, None)):
            indices, mask = pad_rows(rows)
            if hole:
                mask[0, 1] = False
            drop_mask = np.ones((len(rows), summary_width(params.config))) \
                if training else None
            message = "padding" if bad is None else f"^batch row {bad} has no real token$"
            with pytest.raises(UsageError, match=message):
                forward_batch(indices, mask, params, drop_mask)

    def test_out_of_vocabulary_index_rejected(self):
        _, _, params = tiny_model()
        with pytest.raises(UsageError, match="vocabulary"):
            forward([2, 3, params.vocab_size], params)

    @pytest.mark.parametrize("essay", [[2, PAD_INDEX, 3], [PAD_INDEX, 2, 3, 4]])
    def test_pad_before_a_real_token_rejected(self, essay):
        _, _, params = tiny_model()
        with pytest.raises(UsageError, match="padding"):
            forward(essay, params)

    def test_batch_mask_with_a_hole_rejected(self):
        _, _, params = tiny_model()
        indices, mask = pad_rows([[2, 3, 4], [5, 2]])
        mask[0, 1] = False
        with pytest.raises(UsageError, match="padding"):
            forward_batch(indices, mask, params)

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("bad", [-1, 8])
    def test_batch_index_outside_vocabulary_rejected(self, bad, training):
        """Not read as the last row (-1), nor an IndexError (V), even when a
        mask hole would also be reported."""
        _, _, params = tiny_model()
        assert params.vocab_size == 8
        indices, mask = pad_rows([[2, 3, 4], [5, 2]])
        indices[1, 0] = bad
        mask[0, 1] = False
        drop_mask = np.ones((2, summary_width(params.config))) if training else None
        with pytest.raises(UsageError, match=f"^token index {bad} outside vocabulary "
                                             f"of size 8$"):
            forward_batch(indices, mask, params, drop_mask)

    @pytest.mark.parametrize("indices, mask", [
        ([2, 3, 4], [True, True, True]),
        ([[2, 3, 4]], [[True, True]]),
        ([[2, 3, 4]], [True, True, True]),
    ])
    def test_batch_shapes_rejected(self, indices, mask):
        _, _, params = tiny_model()
        with pytest.raises(UsageError, match="2-d shape"):
            forward_batch(np.array(indices), np.array(mask), params)

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_batch_indices_not_integers_rejected(self, dtype, training):
        """Not a bare IndexError from numpy, and bool is not read as 0/1."""
        _, _, params = tiny_model()
        indices, mask = pad_rows([[2, 3, 4], [5, 1]])
        drop_mask = np.ones((2, summary_width(params.config))) if training else None
        with pytest.raises(UsageError, match=f"^token indices of dtype "
                                             f"{np.dtype(dtype)}, not integers$"):
            forward_batch(indices.astype(dtype), mask, params, drop_mask)


def oracle_forward(essay, params) -> float:
    """The scorer composed from the layer oracles, one unpadded essay at a
    time: a channel whose window is wider than the essay contributes zeros."""
    cfg, t = params.config, params.tensors
    matrix = t["embedding"][essay].T
    summaries = []
    for k in cfg.windows:
        if len(essay) < k:
            summaries.append(np.zeros(2 * cfg.hidden_units))
            continue
        fm = conv_relu_oracle(matrix, t[f"conv{k}.weights"], t[f"conv{k}.bias"], k)
        pooled = maxpool_oracle(fm, cfg.pool_size, cfg.pool_stride).T[:, None, :]
        valid = np.ones(pooled.shape[:2], dtype=bool)
        fw, bw = ({gate: t[f"gru{k}.{direction}.{gate}"] for gate in GATES}
                  for direction in ("fw", "bw"))
        h_fw = gru_scan_full(pooled, valid, fw)["h"][-1, 0]
        h_bw = gru_scan_full(pooled[::-1], valid, bw)["h"][-1, 0]
        summaries.append(np.concatenate([h_fw, h_bw]))
    logit = np.concatenate(summaries) @ t["dense.weights"] + t["dense.bias"][0]
    return 1.0 / (1.0 + np.exp(-logit))


class TestForwardOracle:
    """:func:`forward` against :func:`oracle_forward` with windows 1/2/4: the
    lengths end at every residue modulo each window and the stride, so a
    conv or pooled length one off shows.  Test ids end in the summary the
    head reads, the last forward and backward states."""

    @staticmethod
    def check(n, pool, stride):
        _, vocab, params = tiny_model(dropout=0.0, windows=(1, 2, 4), seed=7)
        params.config = dataclasses.replace(params.config, pool_size=pool,
                                            pool_stride=stride)
        essay = np.random.default_rng(n).integers(2, vocab.size, n)
        assert forward(essay, params) == pytest.approx(oracle_forward(essay, params),
                                                       rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 12), ids=lambda n: f"{n}-last")
    def test_matches_composed_oracles(self, n):
        self.check(n, pool=3, stride=2)

    @pytest.mark.parametrize("pool, stride", [(2, 5), (1, 3)])
    @pytest.mark.parametrize("n", range(1, 12))
    def test_stride_beyond_pool_matches_composed_oracles(self, n, pool, stride):
        self.check(n, pool, stride)


class TestBatchInvariance:
    """An essay scores the same alone as beside any partner: padding to a
    longer partner must not reach pooling, whatever the pool and stride.
    Test ids end in the summary the head reads, as in
    :class:`TestForwardOracle`."""

    POOLS = [(3, 2), (4, 2), (3, 1), (7, 3), (2, 2), (2, 5)]

    @pytest.mark.parametrize("pool, stride", POOLS,
                             ids=[f"{pool}-{stride}-last" for pool, stride in POOLS])
    def test_alone_equals_beside_partners(self, pool, stride):
        _, vocab, params = tiny_model(dropout=0.0, windows=(1, 2, 4), seed=7)
        params.config = dataclasses.replace(params.config, pool_size=pool,
                                            pool_stride=stride)
        rng = np.random.default_rng(pool * 10 + stride)
        partners = [rng.integers(2, vocab.size, n) for n in (1, 5, 40)]
        for n in range(1, 13):
            essay = rng.integers(2, vocab.size, n)
            alone = forward(essay, params)
            for partner in partners:
                yhat, _ = forward_batch(*pad_rows([essay, partner]), params)
                assert yhat[0] == pytest.approx(alone, rel=1e-12), (n, len(partner))


class TestPoolingIgnoresPadding:
    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(0, 30), pool=st.integers(1, 8), stride=st.integers(1, 8),
           pad=st.integers(0, 11), seed=st.integers(0, 2**32 - 1))
    def test_padded_row_pools_like_its_unpadded_map(self, c, pool, stride, pad, seed):
        rng = np.random.default_rng(seed)
        # Small integers make exact ties common; junk padding would win if seen.
        fm = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0, -np.inf, np.nan], size=(1, c + pad, 3),
                        p=[0.18] * 5 + [0.05] * 2)
        fm[0, c:] = rng.choice([np.nan, np.inf, 1e300, 0.0], size=(pad, 3))
        pooled, _, pooled_lengths = _maxpool_batch(fm, np.array([c]), pool, stride)
        want, _, want_lengths = _maxpool_batch(fm[:, :c], np.array([c]), pool, stride)
        n = int(want_lengths[0])
        assert pooled_lengths[0] == n
        np.testing.assert_array_equal(pooled[0, :n].view(np.uint64),
                                      want[0, :n].view(np.uint64))
        np.testing.assert_array_equal(pooled[0, n:], 0.0)


class TestPoolWiderThanMap:
    """A pool wider than every map of the batch pools, trains and allocates
    as one exactly as wide as the batch."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_wide_pool_matches_batch_wide_pool(self, dtype):
        _, vocab, params = tiny_model(dtype=dtype, windows=(1, 2, 4), seed=7)
        rng = np.random.default_rng(23)
        indices, mask = pad_rows([rng.integers(2, vocab.size, n) for n in (30, 1, 12, 30)])
        batch = Batch(indices, mask, rng.uniform(size=len(indices)),
                      tuple(range(len(indices))))

        def run(pool):
            model = dataclasses.replace(params, config=dataclasses.replace(
                params.config, pool_size=pool, pool_stride=pool))
            backward(batch, model, dropout_seed=5)  # warm caches before tracing
            tracemalloc.start()
            try:
                loss, grads = backward(batch, model, dropout_seed=5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return forward_batch(indices, mask, model)[0], loss, grads, peak

        narrow, wide = run(indices.shape[1]), run(20_000)
        bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
        np.testing.assert_array_equal(wide[0].view(bits), narrow[0].view(bits))
        assert wide[1] == narrow[1]
        for name, grad in narrow[2].items():
            np.testing.assert_array_equal(wide[2][name].view(bits), grad.view(bits))
        # tracemalloc sees only the allocations that CPython's free lists and
        # numpy's small caches do not serve, and what those hold on entry
        # depends on what ran before: the first traced calls of a process
        # peak up to a few hundred bytes above later equal ones, whichever
        # pool runs first.  A pool sized by the config rather than the batch
        # peaked at 40-80 times the narrow one, far past this margin.
        assert wide[3] <= 1.1 * narrow[3]


class TestActiveSpanScan:
    """Scans that compute only each step's leading rows still inside their
    sequence, against full-width references, in both scan directions: rows
    sorted by length with a tie and two empty rows, and steps past every row
    at the end of the forward scan and the start of the reverse one."""

    STEPS, BATCH, INPUTS, HIDDEN = 9, 6, 3, 4
    LENGTHS = np.array([7, 5, 5, 2, 0, 0])

    def setup(self):
        rng = np.random.default_rng(31)
        gates = random_direction(rng, self.HIDDEN, self.INPUTS)
        x = rng.normal(size=(self.STEPS, self.BATCH, self.INPUTS))
        valid = np.arange(self.STEPS)[:, None] < self.LENGTHS
        return rng, gates, [(x, valid), (x[::-1], valid[::-1])]

    def test_forward_matches_per_step_loop(self):
        _, gates, directions = self.setup()
        for x, valid in directions:
            got = padded_scan_cache(_gru_scan(x, valid.sum(axis=1), gates))
            want = gru_scan_full(x, valid, gates)
            np.testing.assert_allclose(got["h"], want["h"], rtol=1e-12, atol=1e-15)
            # Gate values are defined wherever the step is valid.
            for name in ("z", "r", "c"):
                np.testing.assert_allclose(got[name][valid], want[name][valid],
                                           rtol=1e-12, atol=1e-15, err_msg=name)
            np.testing.assert_array_equal(got["h"][:, 4:], 0.0)

    def test_backward_matches_full_width_reference(self):
        rng, gates, directions = self.setup()
        for x, valid in directions:
            d_final = rng.normal(size=(self.BATCH, self.HIDDEN))
            dx, grads = _gru_scan_backward(_gru_scan(x, valid.sum(axis=1), gates), gates,
                                           d_final)
            want_dx, want_grads = gru_scan_backward_unflushed(
                gru_scan_full(x, valid, gates), gates, d_final)
            np.testing.assert_allclose(dx, want_dx, rtol=1e-12, atol=1e-15)
            assert list(grads) == list(GATES)
            for name in GATES:
                np.testing.assert_allclose(grads[name], want_grads[name], rtol=1e-12,
                                           atol=1e-15, err_msg=name)
            np.testing.assert_array_equal(dx[:, 4:], 0.0)
            np.testing.assert_array_equal(dx[~valid.any(axis=1)], 0.0)


class TestStackedConv:
    """All channels as one stacked GEMM against a per-offset loop per channel."""

    WINDOWS, DIM, FILTERS = (1, 2, 4), 5, 3

    @pytest.mark.parametrize("block_bytes", [None, 1])
    def test_forward_and_gradients_match_per_offset_loop(self, block_bytes, monkeypatch):
        if block_bytes is not None:  # one batch row per gather-GEMM-scatter block
            monkeypatch.setattr(network, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(41)
        indices, mask = pad_rows([[3, 4, 5, 6, 7, 8, 9], [3, 4], [5, 6, 7, 8]])
        emb = rng.normal(size=(*indices.shape, self.DIM))
        emb[~mask] = 0.0
        # Row 1 + i of the table is flat position i of the batch; row 0 is PAD.
        table = np.concatenate([np.zeros((1, self.DIM)), emb.reshape(-1, self.DIM)])
        positions = np.arange(1, mask.size + 1).reshape(mask.shape)
        weights = [rng.normal(size=(self.FILTERS, k * self.DIM)) for k in self.WINDOWS]
        biases = [rng.normal(size=self.FILTERS) for _ in self.WINDOWS]
        pres = _conv_pre_batch(table, positions, weights, biases,
                               np.full(len(positions), positions.shape[1]))
        d_pres = []
        for k, w, b, pre in zip(self.WINDOWS, weights, biases, pres):
            np.testing.assert_allclose(pre, conv_batch_loop(emb, w, b), rtol=1e-12)
            valid = np.array([[mask[i, p:p + k].all() for p in range(pre.shape[1])]
                              for i in range(len(mask))])
            d_pres.append(rng.normal(size=pre.shape) * valid[:, :, None])
        g_table = np.zeros_like(table)
        grads = _conv_batch_backward(table, positions, mask.sum(axis=1), d_pres, weights,
                                     g_table)
        d_emb = g_table[1:].reshape(emb.shape)
        want_d_emb = np.zeros_like(emb)
        for w, d_pre, (g_w, g_b) in zip(weights, d_pres, grads):
            want_w, want_b, d_emb_k = conv_batch_backward_loop(emb, d_pre, w)
            np.testing.assert_allclose(g_w, want_w, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(g_b, want_b, rtol=1e-12)
            want_d_emb += d_emb_k
        np.testing.assert_allclose(d_emb, want_d_emb, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block_bytes", [None, 1])
    def test_repeated_tokens_and_padding_match_per_offset_loop(self, dtype, block_bytes,
                                                               monkeypatch):
        """Each distinct token is projected once and gathered per occurrence."""
        if block_bytes is not None:
            monkeypatch.setattr(network, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(43)
        # Token 3 fills most positions; rows 0 and 3 are equal, row 2 is
        # narrower than the widest window, and every other row ends in PAD.
        rows = [[3, 3, 3, 3, 7, 3, 3, 3, 3], [3, 3, 3, 5], [3, 9],
                [3, 3, 3, 3, 7, 3, 3, 3, 3], [3, 3, 3, 3, 3, 3]]
        indices, _ = pad_rows(rows)
        table = rng.normal(size=(10, self.DIM)).astype(dtype)
        table[PAD_INDEX] = 0.0
        weights = [rng.normal(size=(self.FILTERS, k * self.DIM)).astype(dtype)
                   for k in self.WINDOWS]
        biases = [rng.normal(size=self.FILTERS).astype(dtype) for _ in self.WINDOWS]
        pres = _conv_pre_batch(table, indices, weights, biases,
                               np.full(len(indices), indices.shape[1]))
        emb = table[indices].astype(np.float64)
        tol = {"rtol": 1e-12} if dtype == np.float64 else {"rtol": 1e-5, "atol": 1e-5}
        bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
        for w, b, pre in zip(weights, biases, pres):
            assert pre.dtype == dtype
            np.testing.assert_allclose(pre, conv_batch_loop(emb, w.astype(np.float64),
                                                            b.astype(np.float64)), **tol)
            np.testing.assert_array_equal(pre[0].view(bits), pre[3].view(bits))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block_bytes", [None, 1])
    def test_backward_over_real_tokens_matches_per_offset_loop(self, dtype, block_bytes,
                                                               monkeypatch):
        """Each row block's backward runs over its own longest real length."""
        if block_bytes is not None:  # one batch row per block, of its own width
            monkeypatch.setattr(network, "_BLOCK_BYTES", block_bytes)
        scattered = []

        def spy(target, rows, values):
            scattered.append(len(rows))
            return _scatter_rows(target, rows, values)

        monkeypatch.setattr(network, "_scatter_rows", spy)
        rng = np.random.default_rng(47)
        # Unsorted, very different lengths; row 2 is narrower than the widest window.
        lengths = np.array([9, 2, 1, 7, 3])
        mask = np.arange(lengths.max()) < lengths[:, None]
        # Row 1 + i of the table is flat position i of the batch, so every
        # position gets its own gradient row; PAD (row 0) is skipped.
        positions = np.where(mask, np.arange(1, mask.size + 1).reshape(mask.shape), PAD_INDEX)
        table = rng.normal(size=(mask.size + 1, self.DIM)).astype(dtype)
        table[PAD_INDEX] = 0.0
        weights = [rng.normal(size=(self.FILTERS, k * self.DIM)).astype(dtype)
                   for k in self.WINDOWS]
        d_pres = []
        for k in self.WINDOWS:
            p = mask.shape[1] - k + 1
            real = np.arange(p) < (lengths - k + 1)[:, None]
            d_pres.append((rng.normal(size=(len(lengths), p, self.FILTERS))
                           * real[:, :, None]).astype(dtype))
        g_table = np.zeros_like(table)
        grads = _conv_batch_backward(table, positions, lengths, d_pres, weights, g_table)
        tol = ({"rtol": 1e-12, "atol": 1e-14} if dtype == np.float64
               else {"rtol": 1e-5, "atol": 1e-5})
        emb = table[positions].astype(np.float64)
        want_d_emb = np.zeros_like(emb)
        for w, d_pre, (g_w, g_b) in zip(weights, d_pres, grads):
            assert g_w.dtype == g_b.dtype == dtype
            want_w, want_b, d_emb_k = conv_batch_backward_loop(
                emb, d_pre.astype(np.float64), w.astype(np.float64))
            np.testing.assert_allclose(g_w, want_w, **tol)
            np.testing.assert_allclose(g_b, want_b, **tol)
            want_d_emb += d_emb_k
        np.testing.assert_allclose(g_table[positions], want_d_emb, **tol)
        assert not g_table[PAD_INDEX].any()
        if block_bytes is not None:
            assert sum(scattered) == lengths.sum()  # not B·L = 45

    @staticmethod
    def unsorted_batch(dtype):
        """Rows of 9, 2, 1, 7 and 3 tokens, unsorted; row 2 is narrower than
        the widest window."""
        rng = np.random.default_rng(53)
        lengths = np.array([9, 2, 1, 7, 3])
        indices, _ = pad_rows([rng.integers(1, 12, n) for n in lengths])
        table = rng.normal(size=(12, TestStackedConv.DIM)).astype(dtype)
        table[PAD_INDEX] = 0.0
        weights = [rng.normal(size=(TestStackedConv.FILTERS, k * TestStackedConv.DIM))
                   .astype(dtype) for k in TestStackedConv.WINDOWS]
        biases = [rng.normal(size=TestStackedConv.FILTERS).astype(dtype)
                  for _ in TestStackedConv.WINDOWS]
        return table, indices, lengths, weights, biases

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block_bytes", [None, 1])
    def test_forward_over_real_tokens_matches_untrimmed_bit_for_bit(self, dtype, block_bytes,
                                                                    monkeypatch):
        """Each row block is gathered and summed only up to its longest real
        length; every real position keeps its bits."""
        if block_bytes is not None:  # one batch row per block, of its own width
            monkeypatch.setattr(network, "_BLOCK_BYTES", block_bytes)
        table, indices, lengths, weights, biases = self.unsorted_batch(dtype)
        full = _conv_pre_batch(table, indices, weights, biases,
                               np.full(len(indices), indices.shape[1]))
        trimmed = _conv_pre_batch(table, indices, weights, biases, lengths)
        bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
        for k, want, got in zip(self.WINDOWS, full, trimmed):
            assert got.shape == want.shape and got.dtype == want.dtype
            real = np.arange(got.shape[1]) < (lengths - k + 1)[:, None]
            np.testing.assert_array_equal(got[real].view(bits), want[real].view(bits))

    def test_positions_past_a_block_are_zero(self, monkeypatch):
        """Not whatever a fresh buffer held: every ``np.empty`` here comes back
        NaN-filled, and a NaN reaching the ReLU or the pool would warn."""
        monkeypatch.setattr(network, "_BLOCK_BYTES", 1)
        empty = np.empty

        def poisoned(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", poisoned)
        table, indices, lengths, weights, biases = self.unsorted_batch(np.float64)
        pres = _conv_pre_batch(table, indices, weights, biases, lengths)
        for k, pre in zip(self.WINDOWS, pres):
            real = np.arange(pre.shape[1]) < (lengths - k + 1)[:, None]
            assert not np.isnan(pre).any()
            np.testing.assert_array_equal(pre[~real], 0.0)
            np.maximum(pre, 0, out=pre)
            _maxpool_batch(pre, np.maximum(lengths - k + 1, 0), 2, 2)


class TestRowOrder:
    def test_permuting_rows_permutes_predictions_only(self):
        _, vocab, params = tiny_model(dropout=0.4)
        rng = np.random.default_rng(5)
        # Lengths 6, 3, 9, 3, 1, 6: ties, and a row shorter than the widest window.
        rows = [[int(t) for t in rng.integers(2, vocab.size, n)]
                for n in (6, 3, 9, 3, 1, 6)]
        indices, mask = pad_rows(rows)
        targets = rng.uniform(0, 1, len(rows))
        drop_mask = make_drop_mask(rng, (len(rows), summary_width(params.config)),
                                   0.4, np.float64)

        def run(order):
            yhat, cache = forward_batch(indices[order], mask[order], params,
                                        drop_mask[order])
            d_yhat = (2.0 / len(order)) * (yhat - targets[order])
            loss = float(np.mean((targets[order] - yhat) ** 2))
            return yhat, loss, backward_batch(cache, params, d_yhat)

        yhat, loss, grads = run(np.arange(len(rows)))
        order = np.array([3, 0, 5, 1, 4, 2])
        yhat_p, loss_p, grads_p = run(order)
        np.testing.assert_allclose(yhat_p, yhat[order], rtol=1e-12)
        assert loss_p == pytest.approx(loss, rel=1e-12)
        assert list(grads_p) == list(grads)
        for name in grads:
            np.testing.assert_allclose(grads_p[name], grads[name], rtol=1e-12,
                                       atol=1e-15, err_msg=name)


class TestInferenceMode:
    """Without a drop mask, :func:`forward_batch` keeps nothing for backprop
    and predicts exactly what the training-mode pass does under an all-ones
    mask."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("windows, pooling", [((2, 3), {}),
                                                  ((1, 2, 4), {"pool_size": 3, "pool_stride": 2})],
                             ids=["default", "windows-1-2-4-pool-3-2"])
    def test_no_cache_and_bitwise_training_mode_predictions(self, dtype, windows, pooling):
        _, vocab, params = tiny_model(dtype=dtype, dropout=0.0, windows=windows, seed=7)
        params.config = dataclasses.replace(params.config, **pooling)
        rng = np.random.default_rng(13)
        # Unsorted lengths with a tie and rows shorter than the widest window.
        indices, mask = pad_rows([rng.integers(2, vocab.size, n)
                                  for n in (5, 1, 17, 3, 5, 2, 30)])
        yhat, cache = forward_batch(indices, mask, params)
        assert cache is None
        ones = np.ones((len(indices), summary_width(params.config)), dtype=dtype)
        want, train_cache = forward_batch(indices, mask, params, ones)
        assert train_cache is not None
        assert yhat.dtype == want.dtype
        bits = np.dtype(f"u{want.itemsize}")
        np.testing.assert_array_equal(yhat.view(bits), want.view(bits))

    def test_kink_floors_see_negative_pre_activations(self):
        """Both modes take the ReLU in place, so the training cache keeps no
        pre-activations.  The gradient check's kink floors recompute
        ``|pre|``; from rectified values every floor would be zero and every
        conv row skipped."""
        windows = (1, 2, 4)
        _, vocab, params = tiny_model(dropout=0.0, windows=windows, seed=7)
        rng = np.random.default_rng(31)
        indices, mask = pad_rows([rng.integers(2, vocab.size, n) for n in (9, 4, 12)])
        ones = np.ones((len(indices), summary_width(params.config)))
        _, cache = forward_batch(indices, mask, params, ones)
        assert all("pre" not in channel for channel in cache["channels"])
        batch = Batch(indices, mask, np.zeros(len(indices)), tuple(range(len(indices))))
        per_filter, global_floor = _kink_floors(batch, params)
        assert global_floor > 0
        emb = params.tensors["embedding"][indices]
        lengths = mask.sum(axis=1)
        for k in windows:
            pre = conv_batch_loop(emb, params.tensors[f"conv{k}.weights"],
                                  params.tensors[f"conv{k}.bias"])
            real = pre[np.arange(pre.shape[1]) < (lengths - k + 1)[:, None]]
            assert (real < 0).any()
            np.testing.assert_allclose(per_filter[k], np.abs(real).min(axis=0), rtol=1e-12)

    def test_scan_keeps_only_the_final_state(self):
        rng = np.random.default_rng(29)
        gates = random_direction(rng, 4, 3)
        x = rng.normal(size=(9, 6, 3))
        active = (np.array([7, 5, 5, 2, 0, 0]) > np.arange(9)[:, None]).sum(axis=1)
        kept = _gru_scan(x, active, gates)
        running = _gru_scan(x, active, gates, keep=False)
        assert list(running) == ["h"] and running["h"].shape == (6, 4)
        np.testing.assert_array_equal(running["h"].view(np.uint64),
                                      kept["h"].view(np.uint64))

    def test_one_step_projection_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(29)
        gates = random_direction(rng, 4, 3)
        x = rng.normal(size=(9, 6, 3))
        lengths = np.array([7, 5, 5, 2, 0, 0])
        active = (lengths > np.arange(9)[:, None]).sum(axis=1)
        whole = padded_scan_cache(_gru_scan(x, active, gates))
        monkeypatch.setattr(network, "_BLOCK_BYTES", 1)
        blocked = padded_scan_cache(_gru_scan(x, active, gates))
        running = _gru_scan(x, active, gates, keep=False)
        np.testing.assert_array_equal(blocked["h"].view(np.uint64), whole["h"].view(np.uint64))
        np.testing.assert_array_equal(running["h"].view(np.uint64),
                                      whole["h"][-1].view(np.uint64))
        valid = np.arange(9)[:, None] < lengths
        for name in ("z", "r", "c"):
            np.testing.assert_array_equal(blocked[name][valid].view(np.uint64),
                                          whole[name][valid].view(np.uint64), err_msg=name)

    def test_inference_scan_holds_one_block_of_projections(self):
        """At T=400 the (T, B, 3H) projections of a paper-shape scan take
        79 MB; without ``keep`` the scan holds one block of them."""
        steps, batch, inputs, hidden = 400, 128, 16, 128
        rng = np.random.default_rng(37)
        gates = {name: g.astype(np.float32)
                 for name, g in random_direction(rng, hidden, inputs, scale=0.1).items()}
        x = rng.normal(size=(steps, batch, inputs)).astype(np.float32)
        active = np.full(steps, batch)
        tracemalloc.start()
        try:
            _gru_scan(x, active, gates, keep=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < steps * batch * 3 * hidden * x.itemsize / 4, peak

    def test_training_scan_holds_only_live_rows(self):
        """With ``keep`` the scan packs each step's live rows.  At T=400,
        with half of 128 rows ending at step 40, it holds 58 MB of them and
        one block of projections, where a (T, B, 3H) gate buffer and a
        (T+1, B, H) state stack would take 105 MB."""
        steps, batch, inputs, hidden = 400, 128, 16, 128
        rng = np.random.default_rng(37)
        gates = {name: g.astype(np.float32)
                 for name, g in random_direction(rng, hidden, inputs, scale=0.1).items()}
        x = rng.normal(size=(steps, batch, inputs)).astype(np.float32)
        lengths = np.where(np.arange(batch) < batch // 2, steps, 40)
        active = (lengths > np.arange(steps)[:, None]).sum(axis=1)
        tracemalloc.start()
        try:
            _gru_scan(x, active, gates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        packed = int(active.sum()) * 4 * hidden * x.itemsize
        bound = packed + network._BLOCK_BYTES + (1 << 20)
        assert peak < bound < 0.65 * steps * batch * 4 * hidden * x.itemsize, (peak, bound)

    def test_inference_peak_memory_below_half_of_training_mode(self):
        """numpy reports its buffers to tracemalloc, so this bound is
        structural: it counts the arrays alive at once, not time."""
        cfg = TrainConfig(embedding_dim=16, windows=(2, 3, 4), filters=16,
                          hidden_units=64, batch_size=16, seed=0)
        vocab = Vocabulary([f"w{i}" for i in range(50)])
        matrix = build_embedding_matrix(vocab, EmbeddingTable(16, {}), seed=0,
                                        dtype=np.float32)
        params = network.init_parameters(matrix, cfg)
        rng = np.random.default_rng(0)
        indices, mask = pad_rows([rng.integers(2, vocab.size, n)
                                  for n in np.linspace(5, 300, 16).astype(int)])

        def peak_bytes(*drop_mask):
            tracemalloc.start()
            try:
                forward_batch(indices, mask, params, *drop_mask)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        inference = peak_bytes()
        training = peak_bytes(np.ones((16, summary_width(cfg)), np.float32))
        assert inference < training / 2, (inference, training)


class TestTwoThreadDirections:
    """A BiGRU's backward direction on the batch call's worker thread, while
    the caller runs the forward one, gives the bits of both on one thread."""

    @staticmethod
    def force(monkeypatch, threaded):
        monkeypatch.setattr(network, "_use_two_threads", lambda batch, hidden: threaded)

    @staticmethod
    def model_and_batch(dtype=np.float64, windows=(2, 3), pooling=None):
        _, vocab, params = tiny_model(dtype=dtype, dropout=0.4, windows=windows, seed=7)
        params.config = dataclasses.replace(params.config, **(pooling or {}))
        rng = np.random.default_rng(17)
        # Unsorted lengths with a tie and rows shorter than the widest window.
        indices, mask = pad_rows([rng.integers(2, vocab.size, n)
                                  for n in (5, 1, 17, 3, 5, 2, 30)])
        return params, Batch(indices, mask, rng.uniform(0, 1, len(indices)),
                             tuple(range(len(indices))))

    @staticmethod
    def bits(a):
        a = np.asarray(a)
        return a.view(f"u{a.itemsize}")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("windows, pooling", [((2, 3), {}),
                                                  ((1, 2, 4), {"pool_size": 3, "pool_stride": 2})],
                             ids=["default", "windows-1-2-4-pool-3-2"])
    def test_threaded_predictions_loss_and_gradients_are_bitwise_serial(
            self, dtype, windows, pooling, monkeypatch):
        params, batch = self.model_and_batch(dtype, windows, pooling)
        forward_gates = {id(params.tensors[f"gru{k}.fw.w_z"]) for k in windows}
        threads = {}
        # A scan's gate map is its third positional argument, a reverse-mode
        # scan's its second; a forward direction's map holds the model's own
        # ``gru{k}.fw`` arrays.
        for name, i in (("_gru_scan", 2), ("_gru_scan_backward", 1)):
            def record(*args, _scan=getattr(network, name), _i=i, **kwargs):
                direction = "fw" if id(args[_i]["w_z"]) in forward_gates else "bw"
                threads.setdefault(direction, set()).add(threading.get_ident())
                return _scan(*args, **kwargs)
            monkeypatch.setattr(network, name, record)

        def run(threaded):
            self.force(monkeypatch, threaded)
            threads.clear()
            yhat, _ = forward_batch(batch.indices, batch.mask, params)
            loss, grads = backward(batch, params, 11)
            return yhat, loss, grads, {d: set(t) for d, t in threads.items()}

        yhat, loss, grads, serial = run(False)
        t_yhat, t_loss, t_grads, threaded = run(True)
        caller = threading.get_ident()
        assert serial == {"fw": {caller}, "bw": {caller}}
        assert threaded["fw"] == {caller} and caller not in threaded["bw"]
        np.testing.assert_array_equal(self.bits(t_yhat), self.bits(yhat))
        assert self.bits(t_loss) == self.bits(loss)
        assert list(t_grads) == list(grads)
        for name, g in grads.items():
            np.testing.assert_array_equal(self.bits(t_grads[name]), self.bits(g),
                                          err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_forward_row_blocks_split_between_threads_bitwise(self, dtype,
                                                                   monkeypatch):
        monkeypatch.setattr(network, "_BLOCK_BYTES", 1)  # one row per block
        table, indices, lengths, weights, biases = TestStackedConv.unsorted_batch(dtype)
        serial = _conv_pre_batch(table, indices, weights, biases, lengths, None)
        gathers, take = [], np.take

        def record(*args, **kwargs):
            gathers.append(threading.get_ident())
            return take(*args, **kwargs)

        monkeypatch.setattr(np, "take", record)
        with ThreadPoolExecutor(max_workers=1) as worker:
            threaded = _conv_pre_batch(table, indices, weights, biases, lengths, worker)
        # Blocks alternate: the caller gathers rows 0, 2 and 4, the worker 1 and 3.
        caller = threading.get_ident()
        assert len(gathers) == 5 and gathers.count(caller) == 3
        for want, got in zip(serial, threaded):
            np.testing.assert_array_equal(self.bits(got), self.bits(want))

    @pytest.mark.parametrize("threaded", [True, False])
    def test_conv_input_gradient_runs_on_the_second_thread_when_split(self, threaded,
                                                                       monkeypatch):
        params, batch = self.model_and_batch()
        threads = set()
        scatter = network._scatter_rows

        def record(*args):
            threads.add(threading.get_ident())
            return scatter(*args)

        monkeypatch.setattr(network, "_scatter_rows", record)
        self.force(monkeypatch, threaded)
        backward(batch, params, 11)
        caller = threading.get_ident()
        if threaded:
            assert threads and caller not in threads
        else:
            assert threads == {caller}

    def test_one_cpu_of_affinity_runs_serially(self, monkeypatch):
        monkeypatch.setattr(network.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert not network._use_two_threads(128, 128)

    def test_cv_micro_shape_runs_serially(self, monkeypatch):
        monkeypatch.setattr(network.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert not network._use_two_threads(32, 32)
        assert network._use_two_threads(128, 128)  # the paper shape

    def test_no_thread_outlives_a_batch_call(self, monkeypatch):
        params, batch = self.model_and_batch()
        workers = set()
        both = network._both_directions

        def record(first, second, worker):
            def traced():
                workers.add(threading.current_thread())
                return second()
            return both(first, traced, worker)

        monkeypatch.setattr(network, "_both_directions", record)
        self.force(monkeypatch, True)
        before = threading.enumerate()
        forward_batch(batch.indices, batch.mask, params)
        assert threading.enumerate() == before
        backward(batch, params, 11)
        assert threading.enumerate() == before
        assert workers and threading.current_thread() not in workers
        assert not any(thread.is_alive() for thread in workers)

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        class WorkerFailure(Exception):
            pass

        scan = network._gru_scan
        workers = []

        def failing(x, active, gates, keep=True):
            if threading.current_thread() is not threading.main_thread():
                workers.append(threading.current_thread())
                raise WorkerFailure(threading.current_thread().name)
            return scan(x, active, gates, keep)

        monkeypatch.setattr(network, "_gru_scan", failing)
        self.force(monkeypatch, True)
        params, batch = self.model_and_batch()
        before = threading.enumerate()
        with pytest.raises(WorkerFailure) as info:
            forward_batch(batch.indices, batch.mask, params)
        assert str(info.value) != threading.current_thread().name
        assert threading.enumerate() == before
        assert workers and not workers[0].is_alive()

    def test_caller_exception_waits_for_the_worker(self, monkeypatch):
        class CallerFailure(Exception):
            pass

        started, finished = threading.Event(), threading.Event()
        scan = network._gru_scan
        workers = []

        def slow_worker(x, active, gates, keep=True):
            if threading.current_thread() is threading.main_thread():
                assert started.wait(timeout=60)
                raise CallerFailure
            workers.append(threading.current_thread())
            started.set()
            time.sleep(0.2)
            result = scan(x, active, gates, keep)
            finished.set()
            return result

        monkeypatch.setattr(network, "_gru_scan", slow_worker)
        self.force(monkeypatch, True)
        params, batch = self.model_and_batch()
        before = threading.enumerate()
        with pytest.raises(CallerFailure):
            forward_batch(batch.indices, batch.mask, params)
        assert finished.is_set()
        assert threading.enumerate() == before
        assert workers and not workers[0].is_alive()

    def test_concurrent_callers_get_the_serial_predictions(self, monkeypatch):
        """More callers than CPUs share one model, each call with a worker
        thread of its own, with thread switches forced often."""
        params, batch = self.model_and_batch(np.float32)
        self.force(monkeypatch, False)
        want = self.bits(forward_batch(batch.indices, batch.mask, params)[0])
        self.force(monkeypatch, True)
        results, errors = [], []

        def caller():
            try:
                for _ in range(20):
                    results.append(forward_batch(batch.indices, batch.mask, params)[0])
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert errors == []
        assert len(results) == 80
        for got in results:
            np.testing.assert_array_equal(self.bits(got), want)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_scores_on_a_second_thread_of_its_own(self, monkeypatch):
        params, batch = self.model_and_batch()
        self.force(monkeypatch, True)
        want = self.bits(forward_batch(batch.indices, batch.mask, params)[0])
        pid = os.fork()
        if pid == 0:  # the child: its copy of the parent's worker thread is gone
            code = 1
            try:
                got = self.bits(forward_batch(batch.indices, batch.mask, params)[0])
                code = 0 if np.array_equal(got, want) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while not (waited := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish scoring")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(waited[1]) == 0


class TestEmbeddingScatter:
    @staticmethod
    def scatter_both(rows, values):
        got = np.zeros((12, values.shape[1]), dtype=values.dtype)
        _scatter_rows(got, rows, values)
        want = np.zeros_like(got)
        np.add.at(want, rows, values)
        want[PAD_INDEX] = 0.0
        return got, want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_add_at_while_rows_repeat_at_most_twice(self, dtype):
        rng = np.random.default_rng(17)
        rows = np.array([0, 5, 2, 0, 9, 5, 3, 11, 2, 3, 0, 7])
        values = rng.normal(size=(rows.size, 7)).astype(dtype)
        values[::5] = -0.0
        values[rows == 3] = -0.0             # a row whose sum is a signed zero
        got, want = self.scatter_both(rows, values)
        bits = np.dtype(f"u{want.itemsize}")
        np.testing.assert_array_equal(got.view(bits), want.view(bits))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_add_at_within_summation_bound(self, dtype):
        rng = np.random.default_rng(18)
        rows = rng.integers(0, 9, 400)       # up to ~60 repeats, and PAD
        values = rng.normal(size=(rows.size, 7)).astype(dtype)
        got, want = self.scatter_both(rows, values)
        # Any two orders of summing n terms lie within (n - 1)·eps·Σ|v| of
        # the exact sum.
        counts = np.bincount(rows, minlength=12)[:, None]
        magnitude = np.zeros((12, 7))
        np.add.at(magnitude, rows, np.abs(values).astype(np.float64))
        bound = 2 * np.maximum(counts - 1, 0) * np.finfo(dtype).eps * magnitude
        assert (np.abs(got.astype(np.float64) - want) <= bound).all()
        np.testing.assert_array_equal(got[PAD_INDEX], 0.0)

    def test_all_pad_leaves_zeros(self):
        got = np.zeros((3, 2))
        _scatter_rows(got, np.zeros(4, dtype=np.int64), np.ones((4, 2)))
        np.testing.assert_array_equal(got, 0.0)
