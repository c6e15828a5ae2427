"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Criterion 8 needs real data supplied through the environment
variables DELAES_ASAP_TSV and DELAES_EMBEDDINGS_TXT and is skipped otherwise.
"""
import os
import time

import numpy as np
import pytest

from delaes import (
    TrainConfig,
    build_vocabulary,
    forward,
    load_dataset,
    load_model,
    qwk,
    save_model,
    train,
)
from delaes.corpus import DEFAULT_RANGES, ScoreRange
from delaes.embedding import load_embeddings
from delaes.harness import run_cv
from delaes.network import _gru_scan, gru_step
from delaes.training import evaluate_qwk

from cli_driver import train_micro_model
from gradcheck import check_gradients
from oracles import gru_step_scalar, padded_scan_cache, qwk_oracle
from synthdata import make_corpus, make_table, overfit_config, tiny_model
from test_gradients import one_essay_batch
from test_network import random_direction, scalar_direction


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_gradient_fidelity():
    started = time.perf_counter()
    _, vocab, params = tiny_model(dtype=np.float64, dropout=0.4,
                                  windows=(2, 3), dim=8, hidden=4, filters=3)
    batch = one_essay_batch(
        vocab, ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"],
        target=0.9)
    result = check_gradients(batch, params, dropout_seed=7,
                             step=1e-4, tolerance=1e-4, kink_tol=1e-3)
    elapsed = time.perf_counter() - started
    ok = result.max_rel_error < 1e-4 and elapsed < 10.0
    report(1, "gradient-fidelity", ok,
           f"checked={result.checked} skipped={result.skipped} "
           f"max_rel={result.max_rel_error:.2e} elapsed={elapsed:.2f}s")


def test_criterion_2_qwk_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20260808)
    ranges = list(DEFAULT_RANGES.values())
    worst = 0.0
    for _ in range(1000):
        score_range = ranges[int(rng.integers(0, len(ranges)))]
        n = int(rng.integers(1, 201))
        actual = rng.integers(score_range.min_score,
                              score_range.max_score + 1, n)
        predicted = rng.integers(score_range.min_score,
                                 score_range.max_score + 1, n)
        got = qwk(actual, predicted, score_range)
        expected = qwk_oracle(actual.tolist(), predicted.tolist(),
                              score_range.min_score, score_range.max_score)
        worst = max(worst, abs(got - expected))

    identity = rng.integers(0, 31, 500)
    identity_ok = qwk(identity, identity, ScoreRange(7, 0, 30)) == 1.0

    big = 100_000
    chance = qwk(rng.integers(0, 5, big), rng.integers(0, 5, big),
                 ScoreRange(5, 0, 4))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and identity_ok and abs(chance) < 0.05 and elapsed < 5.0
    report(2, "qwk-oracle-equivalence", ok,
           f"max|diff|={worst:.2e} identity={identity_ok} "
           f"chance={chance:+.4f} elapsed={elapsed:.2f}s")


def test_criterion_3_gru_equation_conformance():
    # scalar hand case evaluated independently via the math module; the
    # five-decimal approximations are only sanity anchors for the oracle
    p = scalar_direction(w=1.0, u=0.0)
    got = float(gru_step(np.array([0.5]), np.zeros(1), p)[0])
    expected, z, r, c = gru_step_scalar(0.5, 0.0, 1, 1, 1, 0, 0, 0)
    scalar_ok = (abs(got - expected) < 1e-9
                 and abs(z - 0.62246) < 1e-5
                 and abs(c - 0.46212) < 1e-5
                 and abs(got - 0.28766) < 1e-4)

    rng = np.random.default_rng(33)
    sequences = 0
    gates_ok = True
    bounded_ok = True
    for _ in range(20):
        hidden, inputs, steps, batch = 5, 3, 10, 500
        direction = random_direction(rng, hidden, inputs, scale=1.0)
        x = rng.normal(0, 1.5, (steps, batch, inputs))
        cache = padded_scan_cache(_gru_scan(x, np.full(steps, batch), direction))
        for gate in ("z", "r"):
            values = cache[gate]
            gates_ok &= bool(((values > 0) & (values < 1)).all())
        bounded_ok &= bool((np.abs(cache["h"]) <= 1.0).all())
        sequences += batch
    ok = scalar_ok and gates_ok and bounded_ok and sequences >= 10_000
    report(3, "gru-equation-conformance", ok,
           f"scalar_ok={scalar_ok} gates_in_(0,1)={gates_ok} "
           f"|h|<=1 over {sequences} sequences={bounded_ok}")


def test_criterion_4_padding_invariance():
    rng = np.random.default_rng(99)
    worst = 0.0
    cases = 0
    for model_index in range(10):
        _, vocab, params = tiny_model(dtype=np.float32, dropout=0.0,
                                      seed=model_index + 1,
                                      embed_seed=model_index + 50)
        for _ in range(10):
            n = int(rng.integers(1, 20))
            idx = [int(rng.integers(2, vocab.size)) for _ in range(n)]
            pads = int(rng.integers(1, 51))
            base = forward(idx, params)
            padded = forward(idx + [0] * pads, params)
            worst = max(worst, abs(base - padded))
            cases += 1
    ok = worst < 1e-6 and cases == 100
    report(4, "padding-masking-invariance", ok,
           f"cases={cases} max|diff|={worst:.2e}")


def test_criterion_5_overfit_capability():
    started = time.perf_counter()
    corpus = make_corpus(40, seed=5)
    train_set = corpus.subset(range(1, 33))
    val_set = corpus.subset(range(33, 41))
    cfg = overfit_config()
    vocab = build_vocabulary([train_set], min_count=cfg.min_count)
    table = make_table(cfg.embedding_dim, seed=9)
    params, history = train(train_set, val_set, vocab, table, cfg)
    reached = next((h.epoch for h in history if h.train_mse < 1e-3), None)
    train_kappa = evaluate_qwk(params, vocab, train_set)
    elapsed = time.perf_counter() - started
    ok = (len(train_set) == 32 and reached is not None
          and train_kappa >= 0.9 and elapsed < 60.0)
    report(5, "overfit-capability", ok,
           f"essays={len(train_set)} mse<1e-3@epoch={reached} "
           f"train_qwk={train_kappa:.3f} elapsed={elapsed:.1f}s")


def test_criterion_6_determinism_and_persistence(tmp_path):
    first = train_micro_model(tmp_path / "first", seed=5)
    second = train_micro_model(tmp_path / "second", seed=5)
    bytes_identical = first["model"].read_bytes() == second["model"].read_bytes()

    loaded = load_model(first["model"])
    reloaded_dir = tmp_path / "resave"
    reloaded_dir.mkdir()
    resaved = reloaded_dir / "model.bin"
    save_model(loaded.params, loaded.vocab, loaded.score_range, resaved,
               encoding=loaded.encoding)
    resave_identical = resaved.read_bytes() == first["model"].read_bytes()

    corpus = first["corpus"]
    predict_exact = all(
        forward(loaded.vocab.encode(essay.tokens), loaded.params)
        == forward(first["params"].vocab.encode(essay.tokens),
                   first["params"].params)
        for essay in corpus.essays[:10]
    )
    ok = bytes_identical and resave_identical and predict_exact
    report(6, "determinism-and-persistence", ok,
           f"artifacts_identical={bytes_identical} "
           f"resave_identical={resave_identical} predict_bit_exact={predict_exact}")


def test_criterion_7_hyperparameter_conformance():
    cfg = TrainConfig()
    expected = {
        "windows": (2, 3, 4),
        "filters": 100,
        "batch_size": 128,
        "hidden_units": 128,
        "dropout": 0.4,
        "epochs": 40,
        "learning_rate": 0.001,
        "embedding_dim": 300,
    }
    mismatches = {name: (getattr(cfg, name), want)
                  for name, want in expected.items()
                  if getattr(cfg, name) != want}
    ok = not mismatches
    report(7, "hyperparameter-conformance", ok,
           "defaults match" if ok else f"mismatches={mismatches}")


def test_criterion_8_asap_smoke_run():
    data_path = os.environ.get("DELAES_ASAP_TSV")
    embeddings_path = os.environ.get("DELAES_EMBEDDINGS_TXT")
    if not data_path or not embeddings_path:
        print("\nACCEPTANCE 8 asap-smoke-run: SKIP "
              "(set DELAES_ASAP_TSV and DELAES_EMBEDDINGS_TXT to enable)")
        pytest.skip("real ASAP data not supplied")
    essay_set = load_dataset(data_path, 1, DEFAULT_RANGES[1])
    table = load_embeddings(embeddings_path, 300)
    cfg = TrainConfig(epochs=10)
    result = run_cv(essay_set, table, cfg, k=10, seed=1, rounds_limit=1)
    value = result.rounds[0].qwk
    ok = value > 0.6
    print(f"\nACCEPTANCE 8 asap-smoke-run: {'PASS' if ok else 'BELOW FLOOR'} "
          f"(test QWK={value:.4f}, informational floor 0.6)")
    if not ok:
        pytest.xfail(f"informational floor not met: {value:.4f}")
