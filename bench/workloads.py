"""The benchmark workloads: seeded inputs, the call sequences, output checks.

Each workload follows one ``delaes`` command the way its CLI entry point
does, calling the package through module attributes (``training.train``,
``corpus.load_dataset``, ...) so that :mod:`spans` can wrap them:

* ``train_paper``: ``delaes train`` at the paper configuration;
* ``score_paper``: ``delaes predict`` on a paper-configuration artifact;
* ``cv_micro``: one round of ``delaes cv`` at a reduced configuration.

A workload has three phases.  ``setup`` reads the inputs through the public
loaders and is repeated so its median can be reported; ``operate`` is the
timed operation, repeated until the run's time is up; ``check`` verifies the
outputs.  Inputs are generated before any timing, from the workload seed.
"""
from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

import synth
from delaes import artifact, corpus, embedding, harness, network, training
from delaes.config import TrainConfig

#: Input and model shapes, recorded verbatim in every result record.
PAPER = {
    "train_paper": {
        "essays": 142, "min_len": 200, "max_len": 800, "pool": 20000,
        "zipf": 1.0, "keywords": 2, "density": 8, "prompt": 1,
        "embedding_lines": 50000, "embedding_coverage": 0.9,
        "setup_reps": 3, "config": {"epochs": 1},
    },
    "score_paper": {
        "essays": 256, "min_len": 20, "max_len": 800, "short_max": 200,
        "long_share": 0.5, "pool": 20000, "vocab": 7000, "zipf": 1.0,
        "keywords": 2, "density": 8, "prompt": 1, "rescored": 4,
        "setup_reps": 21, "config": {},
    },
    "cv_micro": {
        "essays": 400, "min_len": 30, "max_len": 120, "pool": 2000,
        "zipf": 1.0, "keywords": 3, "density": 8, "prompt": 3,
        "embedding_lines": 6000, "embedding_coverage": 1.0, "folds": 10,
        "qwk_floor": 0.8, "setup_reps": 21,
        "config": {"embedding_dim": 50, "windows": [2, 3], "filters": 32,
                   "hidden_units": 32, "batch_size": 32, "epochs": 15},
    },
}

#: Largest |batched - single| score difference the padding-invariance guard
#: accepts: float32 round-off from a different summation order.
RESCORE_TOLERANCE = 1e-5


def make_config(shape: dict, seed: int) -> TrainConfig:
    overrides = dict(shape["config"])
    if "windows" in overrides:
        overrides["windows"] = tuple(overrides["windows"])
    return TrainConfig(seed=seed, **overrides)


def _corpus(rng, shape: dict):
    pool, keys = synth.word_pool(shape["pool"], shape["keywords"])
    lengths = synth.lengths(rng, shape["essays"], shape["min_len"], shape["max_len"],
                            shape.get("long_share", 0.0), shape.get("short_max"))
    rows = synth.essays(rng, lengths, pool, keys, shape["zipf"], shape["density"])
    return pool, keys, rows


def _write_inputs(workdir: Path, rng, shape: dict, dim: int):
    """TSV of scored essays plus a text embedding file larger than the pool."""
    score_range = corpus.DEFAULT_RANGES[shape["prompt"]]
    pool, keys, rows = _corpus(rng, shape)
    tsv = workdir / "essays.tsv"
    synth.write_tsv(tsv, shape["prompt"], rows, score_range.min_score)
    covered = [t for t in pool if rng.random() < shape["embedding_coverage"]]
    extra = shape["embedding_lines"] - len(keys) - len(covered)
    tokens = covered + [synth.word(i) for i in range(len(pool), len(pool) + extra)]
    vectors = workdir / "vectors.txt"
    lines = synth.write_embeddings(vectors, rng, tokens, dim, planted=keys)
    return tsv, vectors, lines, score_range


def _split_train_val(essay_set, cfg: TrainConfig):
    """The train/validation split ``delaes train`` makes."""
    n = len(essay_set)
    order = np.random.default_rng(cfg.seed).permutation(n)
    n_val = min(max(1, round(n * cfg.val_fraction)), n - 1)
    val_ids = {essay_set.essays[int(i)].essay_id for i in order[:n_val]}
    train_ids = {e.essay_id for e in essay_set.essays} - val_ids
    return essay_set.subset(train_ids), essay_set.subset(val_ids)


def targets(tracer, full: bool, lines_by_path: dict):
    """(module, attribute, label, on_call) for :func:`spans.instrument`.

    The untraced run wraps only the calls whose times define end-to-end
    metrics (train, train step, scoring); the traced run wraps every public
    function the workloads reach, under the label of its defining module.
    """
    def stepped(args, kwargs, result):
        tracer.record("training.batch_size", len(args[0]))
        tracer.record("training.nonfinite_loss", not math.isfinite(result[0]))

    def trained(args, kwargs, result):
        train_set, cfg = args[0], args[4]
        tracer.record("training.essays_trained", len(train_set) * cfg.epochs)

    def scored(args, kwargs, result):
        tracer.record("training.essays_scored", len(result))

    def tokens(args, kwargs, result):
        mask = args[1]
        tracer.record("network.real_tokens", int(mask.sum()))
        tracer.record("network.padded_tokens", mask.size)

    def lines(args, kwargs, result):
        tracer.record("embedding.lines", lines_by_path[str(args[0])])

    out = [
        (training, "backward", "training.backward", stepped),
        (training, "rmsprop_step", "training.rmsprop_step", None),
        (training, "train", "training.train", trained),
        (harness, "train", "training.train", trained),
        (training, "predict_normalized", "training.predict_normalized", scored),
        (harness, "predict_normalized", "training.predict_normalized", scored),
    ]
    if full:
        out += [
            (training, "forward_batch", "network.forward_batch", tokens),
            (network, "forward_batch", "network.forward_batch", tokens),
            (network, "forward", "network.forward", None),
            (training, "init_parameters", "network.init_parameters", None),
            (network, "init_parameters", "network.init_parameters", None),
            (training, "make_batches", "training.make_batches", None),
            (training, "evaluate_qwk", "training.evaluate_qwk", None),
            (training, "qwk", "metrics.qwk", None),
            (harness, "qwk", "metrics.qwk", None),
            (harness, "build_vocabulary", "corpus.build_vocabulary", None),
            (corpus, "build_vocabulary", "corpus.build_vocabulary", None),
            (corpus, "load_dataset", "corpus.load_dataset", None),
            (corpus, "load_unscored", "corpus.load_unscored", None),
            (embedding, "load_embeddings", "embedding.load_embeddings", lines),
            (training, "build_embedding_matrix", "embedding.build_embedding_matrix", None),
            (embedding, "build_embedding_matrix", "embedding.build_embedding_matrix", None),
            (artifact, "save_model", "artifact.save_model", None),
            (artifact, "load_model", "artifact.load_model", None),
            (harness, "run_cv", "harness.run_cv", None),
        ]
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def train_metrics(tracer, batch_size: int) -> dict:
    """train_essays_per_s, train_step_s (mean over full batches) and
    score_essays_per_s from the spans of ``training.train`` and its callees.

    Rates and step times are totals over every call, not medians: a shared
    machine switches between speed regimes lasting seconds, and a median of
    short samples flips between regimes from run to run (see METRICS.md).
    """
    steps = [b + r for b, r, n in zip(tracer.durations("training.backward"),
                                      tracer.durations("training.rmsprop_step"),
                                      tracer.samples.get("training.batch_size", ()))
             if n == batch_size]
    return {
        "train_essays_per_s": ratio(tracer.total("training.essays_trained"),
                                    sum(tracer.durations("training.train"))),
        "train_step_s": ratio(sum(steps), len(steps)),
        "score_essays_per_s": ratio(tracer.total("training.essays_scored"),
                                    sum(tracer.durations("training.predict_normalized"))),
    }


class TrainPaper:
    """``delaes train``: load TSV, split, vocabulary, load embeddings, train
    with per-epoch validation scoring, save the artifact."""

    name = "train_paper"

    def __init__(self, shape: dict, seed: int, workdir: Path):
        self.shape, self.workdir = shape, workdir
        self.cfg = make_config(shape, seed)
        rng = np.random.default_rng([seed, 1])
        self.tsv, self.vectors, lines, self.score_range = _write_inputs(
            workdir, rng, shape, self.cfg.embedding_dim)
        self.lines_by_path = {str(self.vectors): lines}

    def setup(self):
        cfg = self.cfg
        essays = corpus.load_dataset(self.tsv, self.shape["prompt"], self.score_range)
        train_set, val_set = _split_train_val(essays, cfg)
        vocab = corpus.build_vocabulary([train_set], min_count=cfg.min_count)
        table = embedding.load_embeddings(self.vectors, cfg.embedding_dim)
        matrix = embedding.build_embedding_matrix(vocab, table, seed=cfg.seed,
                                                  trainable=cfg.trainable_embeddings)
        network.init_parameters(matrix, cfg)
        return train_set, val_set, vocab, table

    def operate(self, state, index: int):
        """One ``delaes train`` run of one epoch, seeded per repetition."""
        train_set, val_set, vocab, table = state
        cfg = dataclasses.replace(self.cfg, seed=self.cfg.seed + index)
        params, _ = training.train(train_set, val_set, vocab, table, cfg)
        return params

    def check(self, state, outputs, tracer) -> list[tuple[str, bool, str]]:
        train_set, vocab = state[0], state[2]
        params = outputs[-1]
        first, second = self.workdir / "model.bin", self.workdir / "model.again.bin"
        artifact.save_model(params, vocab, self.score_range, first)
        loaded = artifact.load_model(first)
        artifact.save_model(loaded.params, loaded.vocab, loaded.score_range, second)
        same_bytes = first.read_bytes() == second.read_bytes()
        probe = vocab.encode(train_set.essays[0].tokens)
        same_score = network.forward(probe, params) == network.forward(probe, loaded.params)
        losses = len(tracer.samples.get("training.nonfinite_loss", ()))
        nonfinite = tracer.total("training.nonfinite_loss")
        return [
            ("losses_finite", losses > 0 and nonfinite == 0,
             f"{int(nonfinite)} of {int(losses)} losses non-finite"),
            ("artifact_round_trip", same_bytes and same_score,
             f"re-saved bytes identical: {same_bytes}; "
             f"reloaded model scores identically: {same_score}"),
        ]

    def metrics(self, tracer, durations, outputs) -> dict:
        # One validation pass of 14 essays per epoch is too short a sample
        # for a steady score rate; the canary supplies score_essays_per_s.
        found = train_metrics(tracer, self.cfg.batch_size)
        del found["score_essays_per_s"]
        return found


class ScorePaper:
    """``delaes predict``: load the artifact and the essays, score them in
    file order, write ``essay_id,score`` rows."""

    name = "score_paper"

    def __init__(self, shape: dict, seed: int, workdir: Path):
        self.shape, self.workdir, self.seed = shape, workdir, seed
        cfg = make_config(shape, seed)
        rng = np.random.default_rng([seed, 2])
        score_range = corpus.DEFAULT_RANGES[shape["prompt"]]
        pool, keys, rows = _corpus(rng, shape)
        self.tsv = workdir / "essays.tsv"
        synth.write_tsv(self.tsv, shape["prompt"], rows, score_range.min_score)
        # An untrained paper-shape model scores exactly as fast as a trained one.
        vocab = corpus.Vocabulary(pool[:shape["vocab"]] + keys)
        matrix = embedding.build_embedding_matrix(
            vocab, embedding.EmbeddingTable(cfg.embedding_dim, {}), seed=seed)
        self.model = workdir / "model.bin"
        artifact.save_model(network.init_parameters(matrix, cfg), vocab,
                            score_range, self.model)
        self.lines_by_path = {}

    def setup(self):
        model = artifact.load_model(self.model)
        rows = corpus.load_unscored(self.tsv, self.shape["prompt"])
        return model, rows

    def operate(self, state, index: int):
        model, rows = state
        predictions = training.predict_normalized(model.params, model.vocab,
                                                  [tokens for _, tokens in rows])
        lines = [f"{essay_id},{corpus.denormalize_score(float(y), model.score_range)}"
                 for (essay_id, _), y in zip(rows, predictions)]
        (self.workdir / "predictions.csv").write_text("\n".join(lines) + "\n",
                                                      encoding="utf-8")
        return predictions

    def check(self, state, outputs, tracer) -> list[tuple[str, bool, str]]:
        model, rows = state
        bad = sum(int(np.sum(~(np.isfinite(p) & (p > 0) & (p < 1)))) for p in outputs)
        sample = np.random.default_rng([self.seed, 3]).choice(
            len(rows), size=min(self.shape["rescored"], len(rows)), replace=False)
        worst = 0.0
        for i in sample:
            single = network.forward(model.vocab.encode(rows[int(i)][1]), model.params)
            worst = max(worst, abs(single - float(outputs[-1][int(i)])))
        return [
            ("scores_in_open_unit_interval", bad == 0,
             f"{bad} of {sum(len(p) for p in outputs)} outside (0, 1)"),
            ("rescoring_matches_batched", worst <= RESCORE_TOLERANCE,
             f"max |single - batched| = {worst:.3g} over {len(sample)} essays"),
        ]

    def metrics(self, tracer, durations, outputs) -> dict:
        return {"score_essays_per_s": ratio(sum(len(p) for p in outputs), sum(durations))}


class CvMicro:
    """``delaes cv`` limited to its first round: per fold block, vocabulary
    from the training folds, training with validation-based selection,
    scoring of the held-out test folds, pooled QWK."""

    name = "cv_micro"

    def __init__(self, shape: dict, seed: int, workdir: Path):
        self.shape, self.seed = shape, seed
        self.cfg = make_config(shape, seed)
        rng = np.random.default_rng([seed, 4])
        self.tsv, self.vectors, lines, self.score_range = _write_inputs(
            workdir, rng, shape, self.cfg.embedding_dim)
        self.lines_by_path = {str(self.vectors): lines}

    def setup(self):
        essays = corpus.load_dataset(self.tsv, self.shape["prompt"], self.score_range)
        table = embedding.load_embeddings(self.vectors, self.cfg.embedding_dim)
        return essays, table

    def operate(self, state, index: int):
        essays, table = state
        report = harness.run_cv(essays, table, self.cfg, k=self.shape["folds"],
                                seed=self.seed, rounds_limit=1)
        return report.pooled_qwk

    def check(self, state, outputs, tracer) -> list[tuple[str, bool, str]]:
        floor = self.shape["qwk_floor"]
        return [
            ("pooled_qwk_at_floor", min(outputs) >= floor,
             f"pooled QWK {min(outputs):.4f}, floor {floor}"),
            ("rounds_repeat_exactly", len(set(outputs)) == 1,
             f"{len(set(outputs))} distinct pooled QWK values over {len(outputs)} rounds"),
        ]

    def metrics(self, tracer, durations, outputs) -> dict:
        return {**train_metrics(tracer, self.cfg.batch_size),
                "cv_round_s": ratio(sum(durations), len(durations)),
                "cv_pooled_qwk": outputs[0]}


WORKLOADS = {cls.name: cls for cls in (TrainPaper, ScorePaper, CvMicro)}
