import json

import numpy as np
import pytest

from delaes import NumericError, UsageError, build_vocabulary, harness
from delaes.harness import (
    plan_folds,
    report_to_csv,
    report_to_json,
    round_layout,
    run_cv,
)

from synthdata import cv_config, make_corpus, make_table


@pytest.fixture(scope="module")
def corpus100():
    return make_corpus(100, seed=5)


class TestPlanFolds:
    def test_ten_folds_of_ten(self, corpus100):
        plan = plan_folds(corpus100, k=10, seed=1)
        sizes = [len(plan.members(f)) for f in range(10)]
        assert sizes == [10] * 10

    def test_partition(self, corpus100):
        plan = plan_folds(corpus100, k=7, seed=1)
        all_ids = [eid for f in range(7) for eid in plan.members(f)]
        assert sorted(all_ids) == [e.essay_id for e in corpus100]
        sizes = [len(plan.members(f)) for f in range(7)]
        assert max(sizes) - min(sizes) <= 1

    def test_same_seed_identical(self, corpus100):
        assert plan_folds(corpus100, 10, 3) == plan_folds(corpus100, 10, 3)

    def test_too_few_essays(self):
        small = make_corpus(3, seed=1)
        with pytest.raises(UsageError):
            plan_folds(small, k=5, seed=0)

    def test_k_below_two(self, corpus100):
        with pytest.raises(UsageError):
            plan_folds(corpus100, k=1, seed=0)


class TestRoundLayout:
    def test_k10_matches_published_split(self, corpus100):
        # 10 folds: per round 2 test folds, 1 validation, 7 training,
        # i.e. the 70/10/20 proportions
        rounds = round_layout(10)
        assert rounds == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
        plan = plan_folds(corpus100, k=10, seed=1)
        from delaes.harness import _round_roles
        train_ids, val_ids, val_folds = _round_roles(plan, rounds[0])
        test_ids = [e for f in rounds[0] for e in plan.members(f)]
        assert len(train_ids) == 70 and len(val_ids) == 10 and len(test_ids) == 20
        assert set(train_ids) | set(val_ids) | set(test_ids) == \
            {e.essay_id for e in corpus100}
        assert not (set(train_ids) & set(val_ids))
        assert not (set(train_ids) & set(test_ids))
        assert not (set(val_ids) & set(test_ids))

    def test_every_fold_tested_once(self):
        for k in (2, 3, 4, 5, 10, 11, 12):
            rounds = round_layout(k)
            tested = [f for block in rounds for f in block]
            assert sorted(tested) == list(range(k)), k

    def test_k2_roles_are_disjoint(self):
        corpus = make_corpus(40, seed=2)
        plan = plan_folds(corpus, k=2, seed=0)
        from delaes.harness import _round_roles
        train_ids, val_ids, _ = _round_roles(plan, (0,))
        assert set(train_ids).isdisjoint(val_ids)
        assert set(train_ids) | set(val_ids) == set(plan.members(1))
        assert len(val_ids) >= 1


@pytest.fixture(scope="module")
def report():
    corpus = make_corpus(480, seed=5)
    table = make_table(12, seed=9)
    return run_cv(corpus, table, cv_config(), k=2, seed=3)


class TestRunCv:

    def test_micro_run_mean_qwk(self, report):
        assert len(report.rounds) == 2
        assert report.mean_qwk >= 0.9

    def test_mean_equals_mean_of_rounds(self, report):
        assert report.mean_qwk == pytest.approx(
            float(np.mean([r.qwk for r in report.rounds])))

    def test_determinism(self):
        corpus = make_corpus(64, seed=5)
        table = make_table(12, seed=9)
        cfg = cv_config(epochs=3)
        first = run_cv(corpus, table, cfg, k=2, seed=7)
        second = run_cv(corpus, table, cfg, k=2, seed=7)
        assert report_to_json(first) == report_to_json(second)
        assert report_to_csv(first) == report_to_csv(second)

    def test_vocabulary_never_sees_test_or_val_essays(self, monkeypatch):
        corpus = make_corpus(64, seed=5)
        table = make_table(12, seed=9)
        cfg = cv_config(epochs=2)
        plan = plan_folds(corpus, k=2, seed=7)
        seen_per_round = []

        def spying_builder(sets, min_count):
            seen_per_round.append({e.essay_id for s in sets for e in s})
            return build_vocabulary(sets, min_count=min_count)

        monkeypatch.setattr(harness, "build_vocabulary", spying_builder)
        report = run_cv(corpus, table, cfg, k=2, seed=7)
        assert len(seen_per_round) == len(report.rounds)
        for result, seen in zip(report.rounds, seen_per_round):
            test_ids = {eid for fold in result.test_folds
                        for eid in plan.members(fold)}
            assert seen.isdisjoint(test_ids)

    def test_rounds_limit(self):
        corpus = make_corpus(64, seed=5)
        table = make_table(12, seed=9)
        report = run_cv(corpus, table, cv_config(epochs=2), k=2, seed=7,
                        rounds_limit=1)
        assert len(report.rounds) == 1

    def test_nan_prediction_names_the_essay(self, monkeypatch):
        corpus = make_corpus(64, seed=5)
        table = make_table(12, seed=9)
        plan = plan_folds(corpus, k=2, seed=7)
        tested = set(plan.members(round_layout(2)[0][0]))
        first = next(e.essay_id for e in corpus if e.essay_id in tested)

        def nan_scores(params, vocab, token_sequences):
            return np.full(len(token_sequences), np.nan)

        monkeypatch.setattr(harness, "predict_normalized", nan_scores)
        with pytest.raises(NumericError,
                           match=f"essay {first}: non-finite prediction nan"):
            run_cv(corpus, table, cv_config(epochs=1), k=2, seed=7)

    def test_report_serialization_shape(self, report):
        payload = json.loads(report_to_json(report))
        assert payload["k"] == 2
        assert len(payload["rounds"]) == 2
        assert "pooled_qwk" in payload
        assert payload["config"]["windows"] == [2, 3]
        csv = report_to_csv(report)
        lines = csv.strip().splitlines()
        assert lines[0] == "fold,qwk"
        assert len(lines) == 3
