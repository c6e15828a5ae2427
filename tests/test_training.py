import itertools
import logging
from dataclasses import replace

import numpy as np
import pytest

from delaes import TrainConfig, UsageError, build_vocabulary, train, training
from delaes.corpus import Essay, EssaySet, ScoreRange
from delaes.training import (
    backward,
    clip_gradients,
    evaluate_qwk,
    history_to_csv,
    make_batches,
    mse_loss,
    predict_normalized,
    rmsprop_step,
)
from delaes.network import forward

from synthdata import make_corpus, make_table, overfit_config, tiny_model


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(12, seed=5)


@pytest.fixture(scope="module")
def vocab(corpus):
    return build_vocabulary([corpus])


class TestMakeBatches:
    def test_sizes(self, corpus, vocab):
        three = corpus.subset([1, 2, 3])
        batches = make_batches(three, vocab, batch_size=2, shuffle_seed=0)
        assert [len(b) for b in batches] == [2, 1]

    def test_equal_length_essays_all_true_mask(self, vocab):
        subset = make_corpus(6, seed=2, min_len=10, max_len=11)
        batches = make_batches(subset, vocab, batch_size=6, shuffle_seed=0)
        assert batches[0].mask.all()
        assert (batches[0].indices != 0).all()

    def test_same_seed_same_order(self, corpus, vocab):
        first = make_batches(corpus, vocab, 4, shuffle_seed=9)
        second = make_batches(corpus, vocab, 4, shuffle_seed=9)
        assert [b.essay_ids for b in first] == [b.essay_ids for b in second]

    def test_union_is_input_set(self, corpus, vocab):
        batches = make_batches(corpus, vocab, 5, shuffle_seed=1)
        seen = [eid for b in batches for eid in b.essay_ids]
        assert sorted(seen) == [e.essay_id for e in corpus]

    def test_targets_are_raw_scores_normalized_over_the_set_range(self, vocab):
        essays = tuple(Essay(i + 1, ("magnet",) * (i + 1), score)
                       for i, score in enumerate([2, 7, 3, 12, 5, 11, 2]))
        essay_set = EssaySet(essays, ScoreRange(1, 2, 12))
        batches = make_batches(essay_set, vocab, 3, shuffle_seed=4)
        raw = {e.essay_id: e.raw_score for e in essays}
        for batch in batches:
            expected = np.array([(raw[eid] - 2) / 10 for eid in batch.essay_ids])
            assert batch.targets.dtype == np.float64
            np.testing.assert_array_equal(batch.targets.view(np.uint64),
                                          expected.view(np.uint64))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, corpus, vocab, batch_size):
        with pytest.raises(UsageError, match="batch_size must be >= 1"):
            make_batches(corpus, vocab, batch_size, shuffle_seed=0)

    def test_empty_set(self, corpus, vocab):
        empty = corpus.subset([])
        assert make_batches(empty, vocab, 4, shuffle_seed=0) == []

    def test_mask_marks_real_positions(self, corpus, vocab):
        batches = make_batches(corpus, vocab, 12, shuffle_seed=3)
        batch = batches[0]
        lengths = {eid: len(e.tokens) for eid, e in
                   zip((e.essay_id for e in corpus), corpus)}
        for row, eid in enumerate(batch.essay_ids):
            assert batch.mask[row].sum() == lengths[eid]
            assert batch.mask[row, :lengths[eid]].all()


class TestMseLoss:
    def test_zero_when_equal(self):
        y = np.array([0.1, 0.9])
        assert mse_loss(y, y) == 0.0

    def test_direct_arithmetic(self):
        assert mse_loss(np.array([0.2, 0.8]), np.array([0.4, 0.5])) == \
            pytest.approx(0.065, abs=1e-12)

    def test_constant_offset_identity(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(0.2, 0.8, 50)
        delta = 0.1
        assert mse_loss(y, y + delta) == pytest.approx(delta ** 2, rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            mse_loss(np.zeros(3), np.zeros(4))


def zero_accumulators(params):
    return {name: np.zeros_like(t) for name, t in params.tensors.items()}


class TestRmsProp:
    def test_zero_gradient_leaves_params(self):
        _, _, params = tiny_model(dtype=np.float64)
        accumulators = zero_accumulators(params)
        accumulators["dense.bias"][:] = 0.5
        before = params.tensors["dense.bias"].copy()
        grads = {name: np.zeros_like(t) for name, t in params.tensors.items()}
        rmsprop_step(params, grads, accumulators)
        np.testing.assert_array_equal(params.tensors["dense.bias"], before)
        np.testing.assert_allclose(accumulators["dense.bias"], 0.45)  # decayed by rho

    def test_scalar_hand_arithmetic(self):
        _, _, params = tiny_model(dtype=np.float64)
        params.config = replace(params.config, learning_rate=0.001,
                                rmsprop_decay=0.9, rmsprop_epsilon=1e-7)
        accumulators = zero_accumulators(params)
        before = float(params.tensors["dense.bias"][0])
        grads = {name: np.zeros_like(t) for name, t in params.tensors.items()}
        grads["dense.bias"] = np.array([1.0])
        rmsprop_step(params, grads, accumulators)
        assert accumulators["dense.bias"][0] == pytest.approx(0.1, rel=1e-12)
        delta = float(params.tensors["dense.bias"][0]) - before
        # hand: -0.001 / (sqrt(0.1) + 1e-7)
        assert delta == pytest.approx(-3.1623e-3, abs=1e-7)

    def test_learning_rate_default(self):
        assert TrainConfig().learning_rate == 0.001

    def test_accumulators_stay_nonnegative(self):
        from test_gradients import one_essay_batch
        _, vocab, params = tiny_model(dtype=np.float64)
        accumulators = zero_accumulators(params)
        batch = one_essay_batch(
            vocab, ["alpha", "bravo", "charlie", "delta", "echo"])
        for _ in range(5):
            _, grads = backward(batch, params, dropout_seed=1)
            rmsprop_step(params, grads, accumulators)
        for name, acc in accumulators.items():
            assert (acc >= 0).all(), name


class TestClipGradients:
    @staticmethod
    def grads(dtype):
        rng = np.random.default_rng(3)
        return {"w": rng.normal(size=(3, 4)).astype(dtype),
                "b": rng.normal(size=5).astype(dtype)}

    @staticmethod
    def global_norm(grads) -> float:
        return float(np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in grads.values())))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scales_to_max_norm_and_returns_the_norm_before(self, dtype):
        grads = self.grads(dtype)
        before = {name: g.copy() for name, g in grads.items()}
        norm = self.global_norm(grads)
        assert norm > 1.0
        assert clip_gradients(grads, 1.0) == pytest.approx(norm, rel=1e-12)
        rel = 1e-6 if dtype == np.float32 else 1e-12
        assert self.global_norm(grads) == pytest.approx(1.0, rel=rel)
        for name, g in grads.items():
            assert g.dtype == dtype
            np.testing.assert_allclose(g, before[name] / norm, rtol=rel)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_below_max_norm_unchanged(self, dtype):
        grads = self.grads(dtype)
        before = {name: g.copy() for name, g in grads.items()}
        norm = self.global_norm(grads)
        assert clip_gradients(grads, 2 * norm) == pytest.approx(norm, rel=1e-12)
        for name, g in grads.items():
            np.testing.assert_array_equal(g, before[name])


class TestTrainLoop:
    def _setup(self, n=24, epochs=5, **cfg_overrides):
        corpus = make_corpus(n, seed=5)
        train_set = corpus.subset(range(1, n - 7))
        val_set = corpus.subset(range(n - 7, n + 1))
        cfg = overfit_config(epochs=epochs, **cfg_overrides)
        vocab = build_vocabulary([train_set])
        table = make_table(cfg.embedding_dim, seed=9)
        return train_set, val_set, vocab, table, cfg

    def test_zero_epochs_returns_initial_params(self):
        train_set, val_set, vocab, table, cfg = self._setup(epochs=0)
        params, history = train(train_set, val_set, vocab, table, cfg)
        assert history == []
        assert params.config == cfg

    def test_history_length_and_csv(self):
        train_set, val_set, vocab, table, cfg = self._setup(epochs=3)
        _, history = train(train_set, val_set, vocab, table, cfg)
        assert [h.epoch for h in history] == [1, 2, 3]
        csv = history_to_csv(history)
        assert csv.startswith("epoch,train_mse,val_qwk\n1,")
        assert len(csv.strip().splitlines()) == 4

    def test_fixed_seed_bit_identical_history(self):
        train_set, val_set, vocab, table, cfg = self._setup(epochs=4, dropout=0.3)
        _, first = train(train_set, val_set, vocab, table, cfg)
        _, second = train(train_set, val_set, vocab, table, cfg)
        assert first == second

    def test_empty_train_set_rejected(self):
        train_set, val_set, vocab, table, cfg = self._setup()
        with pytest.raises(UsageError):
            train(train_set.subset([]), val_set, vocab, table, cfg)

    def test_empty_validation_set_rejected(self):
        train_set, val_set, vocab, table, cfg = self._setup(epochs=1)
        with pytest.raises(UsageError, match="validation set is empty"):
            train(train_set, val_set.subset([]), vocab, table, cfg)

    def test_loss_monotone_with_fixed_batches_and_no_dropout(self):
        train_set, val_set, vocab, table, cfg = self._setup(
            n=24, epochs=40, dropout=0.0, reshuffle_each_epoch=False,
            learning_rate=0.002)
        _, history = train(train_set, val_set, vocab, table, cfg)
        mses = [h.train_mse for h in history]
        for epoch_index in range(1, len(mses)):
            assert mses[epoch_index] <= mses[epoch_index - 1] + 1e-12, (
                f"loss increased at epoch {epoch_index + 1}: "
                f"{mses[epoch_index - 1]} -> {mses[epoch_index]}"
            )

    @pytest.mark.parametrize("dropout, reshuffle, warned", [
        (0.0, False, True), (0.4, False, False), (0.0, True, False)])
    def test_rising_train_mse_warns_only_for_fixed_batches_without_dropout(
            self, monkeypatch, caplog, dropout, reshuffle, warned):
        """Only there can an exact step not raise the train MSE, so only there
        is a rise logged; the stubbed losses rise with every batch."""
        train_set, val_set, vocab, table, cfg = self._setup(
            epochs=3, dropout=dropout, reshuffle_each_epoch=reshuffle)
        losses = itertools.count(1.0)

        def rising(batch, params, dropout_seed):
            return next(losses), {name: np.zeros_like(t) for name, t in params.tensors.items()}

        monkeypatch.setattr(training, "backward", rising)
        with caplog.at_level(logging.WARNING, logger="delaes.training"):
            _, history = train(train_set, val_set, vocab, table, cfg)
        assert history[0].train_mse < history[1].train_mse < history[2].train_mse
        messages = [r.getMessage() for r in caplog.records if r.name == "delaes.training"]
        expected = [f"train MSE increased at epoch {e}: {history[e - 2].train_mse:.6g} -> "
                    f"{history[e - 1].train_mse:.6g}" for e in (2, 3)]
        assert messages == (expected if warned else [])

    def test_pad_embedding_row_stays_zero_after_training(self):
        train_set, val_set, vocab, table, cfg = self._setup(epochs=6)
        params, _ = train(train_set, val_set, vocab, table, cfg)
        np.testing.assert_array_equal(params.tensors["embedding"][0],
                                      np.zeros(cfg.embedding_dim))

    def test_best_epoch_selection_prefers_highest_val(self):
        train_set, val_set, vocab, table, cfg = self._setup(epochs=8)
        params, history = train(train_set, val_set, vocab, table, cfg)
        best = max(h.val_qwk for h in history)
        got = evaluate_qwk(params, vocab, val_set)
        assert got == pytest.approx(best, abs=1e-12)

    def test_grad_clip_runs(self):
        train_set, val_set, vocab, table, cfg = self._setup(
            epochs=2, grad_clip=0.5)
        _, history = train(train_set, val_set, vocab, table, cfg)
        assert len(history) == 2

    def test_grad_clip_applied(self):
        """A clip below every batch's norm changes the trained parameters;
        one above every norm leaves them bit for bit as no clip does."""
        train_set, val_set, vocab, table, cfg = self._setup(epochs=2)
        trained = {clip: train(train_set, val_set, vocab, table,
                               replace(cfg, grad_clip=clip))[0].tensors
                   for clip in (None, 1e-6, 1e9)}
        for name, tensor in trained[None].items():
            np.testing.assert_array_equal(trained[1e9][name], tensor, err_msg=name)
        assert any(not np.array_equal(trained[1e-6][name], tensor)
                   for name, tensor in trained[None].items())


class TestPredictNormalized:
    """Scoring runs longest first across batches; the scores come back in
    input order and do not depend on the batch an essay lands in."""

    LENGTHS = (4, 19, 1, 7, 7, 30, 2, 12, 5, 23)

    @staticmethod
    def essays(vocab, lengths, seed=3):
        rng = np.random.default_rng(seed)
        tokens = vocab.corpus_tokens()
        return [[tokens[int(i)] for i in rng.integers(0, len(tokens), n)] for n in lengths]

    @pytest.mark.parametrize("batch_size", [1, 3, 4, None])
    def test_each_essay_scores_as_alone_in_input_order(self, batch_size):
        _, vocab, params = tiny_model(dropout=0.0, windows=(1, 2, 4), seed=7)
        essays = self.essays(vocab, self.LENGTHS)
        got = predict_normalized(params, vocab, essays, batch_size)
        assert got.dtype == np.float64 and got.shape == (len(essays),)
        alone = [forward(vocab.encode(tokens), params) for tokens in essays]
        np.testing.assert_allclose(got, alone, rtol=0, atol=1e-6)

    def test_permuted_input_permutes_output(self):
        _, vocab, params = tiny_model(dropout=0.0, windows=(1, 2, 4), seed=7)
        essays = self.essays(vocab, (4, 19, 1, 7, 30, 2, 12, 5, 23))  # no ties
        got = predict_normalized(params, vocab, essays, 3)
        perm = np.random.default_rng(8).permutation(len(essays))
        permuted = predict_normalized(params, vocab, [essays[i] for i in perm], 3)
        np.testing.assert_array_equal(permuted, got[perm])

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_batch_size_below_one_rejected(self, batch_size):
        _, vocab, params = tiny_model()
        with pytest.raises(UsageError, match="batch_size"):
            predict_normalized(params, vocab, self.essays(vocab, (4, 7, 2)), batch_size)

    @pytest.mark.parametrize("essays, index", [([[]], 0), ([["alpha"], []], 1),
                                               ([[], ["alpha", "bravo"]], 0)])
    def test_essay_without_tokens_rejected(self, essays, index):
        """The index is the caller's, not a row of the longest-first batch."""
        _, vocab, params = tiny_model()
        with pytest.raises(UsageError, match=f"^token sequence {index} has no real token$"):
            predict_normalized(params, vocab, essays)

    def test_unhashable_token_rejected(self):
        """Not a bare TypeError from encoding the sequence."""
        _, vocab, params = tiny_model()
        with pytest.raises(UsageError, match=r"^token 0: unhashable type: 'list'$"):
            predict_normalized(params, vocab, [["alpha"], [["a"], "alpha"]])

    def test_pad_token_scores_as_an_unknown_one(self):
        """The literal PAD token is text: it encodes as UNK, never as padding."""
        _, vocab, params = tiny_model()
        pad, unknown = ([[t], ["alpha", t, "bravo"]] for t in ("<pad>", "never-seen"))
        np.testing.assert_array_equal(predict_normalized(params, vocab, pad),
                                      predict_normalized(params, vocab, unknown))

    def test_no_essays_no_scores(self):
        _, vocab, params = tiny_model()
        got = predict_normalized(params, vocab, [])
        assert got.dtype == np.float64 and got.shape == (0,)
