from dataclasses import replace

import numpy as np
import pytest

from delaes.network import _gru_scan, _gru_scan_backward, pad_rows
from delaes.training import Batch, backward

from gradcheck import check_gradients
from oracles import gru_scan_backward_unflushed, padded_scan_cache, relative_error
from synthdata import tiny_model
from test_network import random_direction


def one_essay_batch(vocab, tokens, target=0.9, extra_pad=0):
    encoded = vocab.encode(tokens)
    length = len(encoded) + extra_pad
    indices = np.zeros((1, length), dtype=np.int64)
    indices[0, :len(encoded)] = encoded
    mask = np.zeros((1, length), dtype=bool)
    mask[0, :len(encoded)] = True
    return Batch(indices, mask, np.array([target]), (1,))


ESSAY = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]


class TestEndToEndGradients:
    def test_tiny_model_matches_finite_differences(self):
        _, vocab, params = tiny_model(dtype=np.float64, dropout=0.0)
        report = check_gradients(one_essay_batch(vocab, ESSAY), params,
                                 dropout_seed=7)
        assert report.max_rel_error < 1e-4
        assert report.checked > 500

    def test_with_dropout_realization_fixed(self):
        _, vocab, params = tiny_model(dtype=np.float64, dropout=0.4)
        report = check_gradients(one_essay_batch(vocab, ESSAY), params,
                                 dropout_seed=11)
        assert report.max_rel_error < 1e-4

    def test_with_padding_in_batch(self):
        _, vocab, params = tiny_model(dtype=np.float64, dropout=0.0)
        report = check_gradients(
            one_essay_batch(vocab, ESSAY[:4], extra_pad=3), params, dropout_seed=3)
        assert report.max_rel_error < 1e-4


class TestGruScanIsolation:
    """The recurrence checked alone, with a quadratic head on the final state."""

    def test_gate_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        direction = random_direction(rng, hidden=3, inputs=2)
        x = rng.normal(size=(5, 2, 2))
        active = np.array([2, 2, 1, 1, 0])   # rows of lengths 4 and 2

        def loss_of():
            cache = _gru_scan(x, active, direction)
            return 0.5 * float((cache["h"] ** 2).sum()), cache

        loss, cache = loss_of()
        dx, grads = _gru_scan_backward(cache, direction, cache["h"].copy())

        step = 1e-6
        for name in ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h"):
            tensor = direction[name]
            flat = tensor.ravel()
            grad_flat = grads[name].ravel()
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + step
                plus, _ = loss_of()
                flat[i] = original - step
                minus, _ = loss_of()
                flat[i] = original
                fd = (plus - minus) / (2 * step)
                assert relative_error(fd, float(grad_flat[i])) < 1e-5, name

        # and the input gradient
        flat = x.ravel()
        dx_flat = dx.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            plus, _ = loss_of()
            flat[i] = original - step
            minus, _ = loss_of()
            flat[i] = original
            fd = (plus - minus) / (2 * step)
            assert relative_error(fd, float(dx_flat[i])) < 1e-5



def _subnormal_count(a: np.ndarray) -> int:
    magnitude = np.abs(a)
    return int(((magnitude > 0) & (magnitude < np.finfo(a.dtype).tiny)).sum())


class TestVanishingGradientFlush:
    """Backprop through 320 steps, long enough for the carried gradient to
    vanish past float32's normal range, against the unflushed reference."""

    STEPS, BATCH, INPUTS, HIDDEN = 320, 3, 4, 8

    def run(self, dtype):
        rng = np.random.default_rng(0)
        direction = random_direction(rng, self.HIDDEN, self.INPUTS, scale=0.5)
        gates = {name: w.astype(dtype) for name, w in direction.items()}
        x = rng.normal(size=(self.STEPS, self.BATCH, self.INPUTS)).astype(dtype)
        d_final = rng.normal(size=(self.BATCH, self.HIDDEN)).astype(dtype)
        cache = _gru_scan(x, np.full(self.STEPS, self.BATCH), gates)
        got = _gru_scan_backward(cache, gates, d_final)
        want = gru_scan_backward_unflushed(padded_scan_cache(cache), gates, d_final)
        return got, want

    @staticmethod
    def pairs(got, want):
        (dx, grads), (ref_dx, ref_grads) = got, want
        return [("dx", dx, ref_dx)] + [(name, grads[name], ref_grads[name])
                                       for name in ref_grads]

    def test_float32_flushes_and_matches_reference(self):
        got, want = self.run(np.float32)
        info = np.finfo(np.float32)
        threshold = info.tiny / info.eps
        assert _subnormal_count(want[0]) > 0, "reference gradient did not vanish"
        for name, value, reference in self.pairs(got, want):
            assert _subnormal_count(value) == 0, name
            # Each flushed entry was below the threshold, so no entry moves
            # by more than about one threshold; well above it, none moves.
            np.testing.assert_allclose(value, reference, rtol=0,
                                       atol=2 * threshold, err_msg=name)
            large = np.abs(reference) >= threshold / info.eps
            np.testing.assert_array_equal(value[large], reference[large],
                                          err_msg=name)

    def test_float64_is_bitwise_reference(self):
        got, want = self.run(np.float64)
        for name, value, reference in self.pairs(got, want):
            np.testing.assert_array_equal(value, reference, err_msg=name)


class TestBackwardContracts:
    def test_stationary_point_all_zero(self):
        _, vocab, params = tiny_model(dtype=np.float64, dropout=0.0)
        params.tensors["dense.weights"][:] = 0.0
        params.tensors["dense.bias"][:] = 0.0
        batch = one_essay_batch(vocab, ESSAY, target=0.5)
        loss, grads = backward(batch, params, dropout_seed=1)
        assert loss == 0.0
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, np.zeros_like(grad), err_msg=name)

    def test_duplicating_essays_leaves_gradients_unchanged(self):
        _, vocab, params = tiny_model(dtype=np.float64, dropout=0.0)
        single = one_essay_batch(vocab, ESSAY, target=0.2)
        doubled = Batch(np.vstack([single.indices] * 2),
                        np.vstack([single.mask] * 2),
                        np.concatenate([single.targets] * 2), (1, 2))
        _, grads_one = backward(single, params, dropout_seed=1)
        _, grads_two = backward(doubled, params, dropout_seed=1)
        for name in grads_one:
            np.testing.assert_allclose(grads_two[name], grads_one[name],
                                       rtol=1e-12, atol=1e-15, err_msg=name)

    def test_batch_rows_are_isolated(self):
        # 19 essays of mixed lengths cross a 16-row block of the pool-scatter
        # and pad differently; the mean loss makes the batch gradient the
        # mean of the single-essay gradients.
        _, vocab, params = tiny_model(dtype=np.float64, dropout=0.0)
        rng = np.random.default_rng(4)
        rows = [rng.integers(1, vocab.size, int(n)) for n in rng.integers(2, 23, 19)]
        targets = rng.random(len(rows))

        def batch_of(indices):
            chosen = [rows[i] for i in indices]
            return Batch(*pad_rows(chosen), targets[indices],
                         tuple(indices))

        _, grads = backward(batch_of(list(range(len(rows)))), params, 1)
        singles = [backward(batch_of([i]), params, 1)[1] for i in range(len(rows))]
        assert len({len(row) for row in rows}) > 5
        for name, grad in grads.items():
            mean = sum(single[name] for single in singles) / len(rows)
            np.testing.assert_allclose(grad, mean, rtol=1e-12, err_msg=name)

    def test_pad_row_gradient_identically_zero(self):
        _, vocab, params = tiny_model(dtype=np.float64, dropout=0.0)
        batch = one_essay_batch(vocab, ESSAY[:3], extra_pad=4)
        _, grads = backward(batch, params, dropout_seed=1)
        np.testing.assert_array_equal(grads["embedding"][0],
                                      np.zeros(params.tensors["embedding"].shape[1]))

    def test_frozen_embeddings_get_zero_gradient(self):
        _, vocab, params = tiny_model(dtype=np.float64, dropout=0.0)
        params.config = replace(params.config, trainable_embeddings=False)
        _, grads = backward(one_essay_batch(vocab, ESSAY), params, dropout_seed=1)
        np.testing.assert_array_equal(grads["embedding"],
                                      np.zeros_like(params.tensors["embedding"]))

    def test_gradients_finite(self):
        _, vocab, params = tiny_model(dtype=np.float64, dropout=0.4)
        _, grads = backward(one_essay_batch(vocab, ESSAY), params, dropout_seed=2)
        for name, grad in grads.items():
            assert np.isfinite(grad).all(), name

    def test_nonfinite_loss_surfaces_parameter_name(self):
        from delaes import NumericError
        _, vocab, params = tiny_model(dtype=np.float64, dropout=0.0)
        params.tensors["dense.weights"][0] = np.nan
        with pytest.raises(NumericError, match="dense.weights"):
            backward(one_essay_batch(vocab, ESSAY), params, dropout_seed=1)

    def test_nonfinite_target_surfaces_the_loss_only(self):
        from delaes import NumericError
        _, vocab, params = tiny_model(dtype=np.float64, dropout=0.0)
        with pytest.raises(NumericError, match="first non-finite tensor: <loss only>$"):
            backward(one_essay_batch(vocab, ESSAY, target=np.nan), params, dropout_seed=1)
