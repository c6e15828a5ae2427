import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaes import DomainError, FormatError, UsageError
from delaes.corpus import DEFAULT_RANGES, ScoreRange
from delaes.metrics import (
    expected_matrix,
    observed_matrix,
    qwk,
    read_predictions,
    weight_matrix,
)

from oracles import qwk_oracle


class TestWeightMatrix:
    def test_diagonal_zero(self):
        for n in (2, 3, 7, 31):
            assert np.diag(weight_matrix(n)).sum() == 0.0

    def test_three_rating_corner(self):
        # scale 2-4 has three ratings; extreme disagreement weighs 4/4 = 1
        w = weight_matrix(3)
        assert w[0, 2] == 1.0
        assert w[2, 0] == 1.0

    def test_adjacent_weight_for_four_ratings(self):
        assert weight_matrix(4)[1, 2] == pytest.approx(1 / 9)

    def test_symmetric_unit_range(self):
        w = weight_matrix(9)
        np.testing.assert_array_equal(w, w.T)
        assert w.min() == 0.0 and w.max() == 1.0

    def test_rejects_single_rating(self):
        with pytest.raises(DomainError):
            weight_matrix(1)


class TestObservedMatrix:
    def test_single_pair_at_corner(self):
        o = observed_matrix([2], [4], ScoreRange(1, 2, 4))
        expected = np.zeros((3, 3))
        expected[0, 2] = 1
        np.testing.assert_array_equal(o, expected)

    def test_empty_sequences(self):
        o = observed_matrix([], [], ScoreRange(1, 0, 3))
        np.testing.assert_array_equal(o, np.zeros((4, 4)))

    def test_order_invariant(self):
        r = ScoreRange(1, 0, 4)
        a, p = [1, 3, 2, 0], [0, 3, 1, 4]
        first = observed_matrix(a, p, r)
        second = observed_matrix(a[::-1], p[::-1], r)
        np.testing.assert_array_equal(first, second)

    def test_sum_equals_length(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 5, 40)
        p = rng.integers(0, 5, 40)
        assert observed_matrix(a, p, ScoreRange(1, 0, 4)).sum() == 40

    def test_out_of_range_cites_position(self):
        with pytest.raises(DomainError, match="position 1"):
            observed_matrix([2, 9], [2, 2], ScoreRange(1, 2, 4))

    def test_counts_are_int64_pair_tallies(self):
        """Every cell counts its pairs exactly, in int64 whatever the
        platform's default integer, for an empty input too."""
        rng = np.random.default_rng(11)
        r = ScoreRange(8, 10, 60)
        for n in (0, 1, 7, 500):
            a, p = rng.integers(10, 61, n), rng.integers(10, 61, n)
            o = observed_matrix(a, p, r)
            assert o.dtype == np.int64 and o.shape == (51, 51)
            want = np.zeros((51, 51), dtype=np.int64)
            for i, j in zip(a - 10, p - 10):
                want[i, j] += 1
            np.testing.assert_array_equal(o, want)


    @pytest.mark.parametrize("predicted, message", [
        ([0.9, 1.9, 2.9, 3.0], "predicted rating at position 0 is 0.9, not an integer"),
        ([0, 1, 2, float("nan")], "predicted rating at position 3 is nan, not an integer"),
        ([0, 1, 2.5, 3], "predicted rating at position 2 is 2.5, not an integer"),
        (np.array([0.0, 1.0, 2.0, 3.0]),
         "predicted rating at position 0 is 0.0, not an integer"),
        ([True, False, True, False], "predicted rating at position 0 is True, not an integer"),
        ([0, 1, "2", 3], "predicted rating at position 2 is '2', not an integer"),
        ([0, 1, None, 3], "predicted rating at position 2 is None, not an integer"),
    ])
    def test_non_integer_rating_cites_side_and_position(self, predicted, message):
        """A rating is never truncated to an integer: 0.9 is not a 0."""
        r = ScoreRange(1, 0, 3)
        for args, side in (((predicted, [0, 1, 2, 3]), "actual"),
                           (([0, 1, 2, 3], predicted), "predicted")):
            want = message.replace("predicted", side)
            with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
                observed_matrix(*args, r)
            with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
                qwk(*args, r)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint64])
    def test_any_integer_dtype_accepted(self, dtype):
        r = ScoreRange(1, 2, 4)
        a, p = [2, 3, 4, 4], [2, 4, 4, 3]
        np.testing.assert_array_equal(
            observed_matrix(np.array(a, dtype=dtype), np.array(p, dtype=dtype), r),
            observed_matrix(a, p, r))


class TestExpectedMatrix:
    def test_single_pair_mass(self):
        e = expected_matrix([3], [4], ScoreRange(1, 2, 4))
        assert e.sum() == pytest.approx(1.0)
        assert e[1, 2] == pytest.approx(1.0)

    def test_uniform_outer_product(self):
        # both raters uniform over {0, 1} with n = 4: every cell is 1
        e = expected_matrix([0, 0, 1, 1], [0, 1, 0, 1], ScoreRange(1, 0, 1))
        np.testing.assert_allclose(e, np.ones((2, 2)))

    def test_sums_match_observed(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            a = rng.integers(0, 4, n)
            p = rng.integers(0, 4, n)
            r = ScoreRange(1, 0, 3)
            assert expected_matrix(a, p, r).sum() == pytest.approx(
                observed_matrix(a, p, r).sum())

    def test_outer_product_of_histograms(self):
        rng = np.random.default_rng(13)
        r = ScoreRange(1, 2, 8)
        for n in (0, 1, 9, 200):
            a, p = rng.integers(2, 9, n), rng.integers(2, 9, n)
            hist_a = np.bincount(a - 2, minlength=7).astype(np.float64)
            hist_p = np.bincount(p - 2, minlength=7).astype(np.float64)
            want = np.outer(hist_a, hist_p) / n if n else np.zeros((7, 7))
            np.testing.assert_array_equal(expected_matrix(a, p, r), want)

    def test_ratings_checked(self):
        with pytest.raises(DomainError, match="predicted rating at position 2 is 1"):
            expected_matrix([2, 3, 4], [2, 3, 1], ScoreRange(1, 2, 4))
        with pytest.raises(UsageError, match="equal length"):
            expected_matrix([2, 3], [2], ScoreRange(1, 2, 4))


class TestQwk:
    def test_identity_is_one(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 31, 100)
        assert qwk(values, values, ScoreRange(7, 0, 30)) == 1.0

    def test_four_pair_example_matches_oracle(self):
        r = ScoreRange(1, 1, 3)
        actual = [1, 2, 3, 1]
        predicted = [1, 2, 3, 2]
        expected = qwk_oracle(actual, predicted, 1, 3)
        assert qwk(actual, predicted, r) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_agreement_is_one(self):
        assert qwk([2, 2, 2], [2, 2, 2], ScoreRange(1, 2, 4)) == 1.0

    def test_zero_expected_disagreement_only_with_observed_equal_to_expected(self):
        """Every rating-pair set of up to 3 essays on 2 or 3 ratings: where
        sum(W*E) is 0, O equals E and the kappa is 1."""
        zero = 0
        for n in (2, 3):
            score_range = ScoreRange(1, 0, n - 1)
            weights = weight_matrix(n)
            pairs = list(itertools.product(range(n), repeat=2))
            for count in (1, 2, 3):
                for chosen in itertools.product(pairs, repeat=count):
                    actual, predicted = zip(*chosen)
                    expected = expected_matrix(actual, predicted, score_range)
                    if (weights * expected).sum() == 0.0:
                        zero += 1
                        observed = observed_matrix(actual, predicted, score_range)
                        np.testing.assert_array_equal(observed, expected)
                        assert qwk(actual, predicted, score_range) == 1.0
        assert zero == 2 * 3 + 3 * 3  # one set per shared rating and essay count

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 4, 60)
        p = rng.integers(0, 4, 60)
        r = ScoreRange(1, 0, 3)
        assert qwk(a, p, r) == pytest.approx(qwk(p, a, r), abs=1e-12)

    def test_chance_level_near_zero(self):
        rng = np.random.default_rng(42)
        n = 100_000
        a = rng.integers(0, 5, n)
        p = rng.integers(0, 5, n)
        assert abs(qwk(a, p, ScoreRange(1, 0, 4))) < 0.05

    def test_label_shift_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 4, 50)
        p = rng.integers(0, 4, 50)
        base = qwk(a, p, ScoreRange(1, 0, 3))
        shifted = qwk(a + 7, p + 7, ScoreRange(1, 7, 10))
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            qwk([], [], ScoreRange(1, 0, 3))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_brute_force_oracle(self, data):
        score_range = data.draw(st.sampled_from(list(DEFAULT_RANGES.values())))
        n = data.draw(st.integers(1, 200))
        values = st.integers(score_range.min_score, score_range.max_score)
        actual = data.draw(st.lists(values, min_size=n, max_size=n))
        predicted = data.draw(st.lists(values, min_size=n, max_size=n))
        expected = qwk_oracle(actual, predicted,
                              score_range.min_score, score_range.max_score)
        assert qwk(actual, predicted, score_range) == \
            pytest.approx(expected, abs=1e-12)


class TestReadPredictions:
    def test_plain_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,3\n2,4\n")
        assert read_predictions(path) == [(1, 3), (2, 4)]

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("essay_id,predicted_score\n1,3\n")
        assert read_predictions(path) == [(1, 3)]

    def test_header_after_blank_line_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("\nessay_id,score\n1,3\n")
        assert read_predictions(path) == [(1, 3)]

    def test_integral_floats_accepted(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,3.0\n")
        assert read_predictions(path) == [(1, 3)]

    def test_fractional_score_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,3.5\n")
        with pytest.raises(FormatError):
            read_predictions(path)

    @pytest.mark.parametrize("row, column", [("1,nan", "score"), ("1,inf", "score"),
                                             ("1,-inf", "score"), ("1,1e400", "score"),
                                             ("nan,3", "essay_id")])
    def test_non_finite_value_rejected(self, tmp_path, row, column):
        path = tmp_path / "p.csv"
        path.write_text(f"1,3\n{row}\n")
        with pytest.raises(FormatError, match=f":2: {column}=.* is not an integral"):
            read_predictions(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(FormatError, match=":1"):
            read_predictions(path)
