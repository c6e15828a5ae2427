"""Tiny-shape smoke test of the benchmark command.

Checks that every named metric is printed with its unit, that a corrupted
output trips the check that guards it, and that BENCHMARK.json matches the
tables in run.py.  It sets no timing bounds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

_MICRO = {"embedding_dim": 8, "windows": [2, 3], "filters": 3, "hidden_units": 4}

TINY = {
    "train_paper": {
        "essays": 14, "min_len": 8, "max_len": 20, "pool": 60, "zipf": 1.0,
        "keywords": 2, "density": 4, "prompt": 1, "embedding_lines": 120,
        "embedding_coverage": 0.9, "setup_reps": 2,
        "config": {**_MICRO, "batch_size": 8, "epochs": 1},
    },
    "score_paper": {
        "essays": 10, "min_len": 1, "max_len": 30, "short_max": 8,
        "long_share": 0.5, "pool": 60, "vocab": 40, "zipf": 1.0, "keywords": 2,
        "density": 4, "prompt": 1, "rescored": 4, "setup_reps": 2,
        "config": {**_MICRO, "windows": [2, 3, 4], "batch_size": 4},
    },
    "cv_micro": {
        "essays": 60, "min_len": 8, "max_len": 16, "pool": 30, "zipf": 1.0,
        "keywords": 3, "density": 4, "prompt": 3, "embedding_lines": 60,
        "embedding_coverage": 1.0, "folds": 10, "qwk_floor": 0.5, "setup_reps": 2,
        "config": {**_MICRO, "filters": 4, "batch_size": 8, "epochs": 10,
                   "learning_rate": 0.01, "dropout": 0.0},
    },
}


@pytest.fixture
def bench(tmp_path, monkeypatch, capsys):
    """Run the command at the tiny shape; return (exit code, result, record)."""
    monkeypatch.setattr(run, "RUNS", tmp_path)
    saved_env = dict(os.environ)

    def invoke(workload: str, trace: int = 0):
        try:
            code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                             "0.01", "--trace", str(trace)], shapes=TINY)
        finally:
            os.environ.clear()
            os.environ.update(saved_env)
        last = capsys.readouterr().out.strip().splitlines()[-1]
        record = json.loads(
            (tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
        return code, json.loads(last), record

    return invoke


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOAD_WHY))
def test_every_metric_is_printed_with_its_unit(bench, workload, trace):
    code, result, record = bench(workload, trace)
    assert code == 0, record["checks"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    expected = {row[0]: row[1] for row in table}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert np.isfinite(metric["value"])
    for key in ("nproc", "cpu", "python", "numpy", "blas", "blas_version",
                "blas_threads"):
        assert key in record["machine"]
    assert record["generator"]["shape"] == TINY[workload]


def _corrupt_scores(monkeypatch):
    from delaes import training
    original = training.forward_batch

    def forward_batch(indices, mask, params, drop_mask=None):
        yhat, cache = original(indices, mask, params, drop_mask)
        yhat = yhat.copy()
        yhat[:] = 1.0
        return yhat, cache

    monkeypatch.setattr(training, "forward_batch", forward_batch)


def _corrupt_artifact(monkeypatch):
    from delaes import artifact
    original = artifact.save_model

    def save_model(params, vocab, score_range, path, created=None):
        original(params, vocab, score_range, path, created)
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0x01
        open(path, "wb").write(bytes(data))

    monkeypatch.setattr(artifact, "save_model", save_model)


def _corrupt_losses(monkeypatch):
    from delaes import training
    original = training.backward

    def backward(batch, params, dropout_seed):
        loss, grads = original(batch, params, dropout_seed)
        return float("nan"), grads

    monkeypatch.setattr(training, "backward", backward)


def _invert_cv_predictions(monkeypatch):
    from delaes import harness
    original = harness.predict_normalized

    def predict_normalized(params, vocab, token_sequences, batch_size=None):
        return 1.0 - original(params, vocab, token_sequences, batch_size)

    monkeypatch.setattr(harness, "predict_normalized", predict_normalized)


@pytest.mark.parametrize("workload, corrupt, check", [
    ("score_paper", _corrupt_scores, "scores_in_open_unit_interval"),
    ("score_paper", _corrupt_scores, "rescoring_matches_batched"),
    ("train_paper", _corrupt_artifact, "artifact_round_trip"),
    ("train_paper", _corrupt_losses, "losses_finite"),
    ("cv_micro", _invert_cv_predictions, "pooled_qwk_at_floor"),
])
def test_corrupted_output_trips_its_check(bench, monkeypatch, workload, corrupt, check):
    corrupt(monkeypatch)
    code, result, record = bench(workload)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    failed = {c["name"] for c in record["checks"] if not c["ok"]}
    assert check in failed


def test_spec_file_matches_tables():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.spec()


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the command
    exits non-zero without printing a result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cv_micro", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
