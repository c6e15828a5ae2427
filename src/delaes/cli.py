"""Command-line entry points: train, predict, eval, cv.

Exit codes: 0 on success, 1 for an error in data, values or files, and 2 when
argparse refuses the command line: a missing or unknown flag, or a bad
--encoding or --range.  Configuration precedence is built-in defaults, then
the --config file, then explicit flags.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .artifact import load_model, save_model
from .config import TrainConfig, parse_range, read_config
from .corpus import (
    ENCODINGS,
    EssaySet,
    ScoreRange,
    build_vocabulary,
    check_score,
    default_range,
    load_dataset,
    load_unscored,
    read_tsv,
    text_lines,
)
from .embedding import load_embeddings
from .errors import DelaesError, FormatError, UsageError
from .harness import report_to_csv, report_to_json, run_cv
from .metrics import qwk, read_predictions
from .training import (
    denormalize_predictions,
    history_to_csv,
    predict_normalized,
    train,
)


def _range_arg(value: str) -> ScoreRange:
    try:
        return parse_range(value)
    except UsageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_config(args) -> tuple[TrainConfig, dict[int, ScoreRange]]:
    cfg, ranges = read_config(args.config) if args.config else (TrainConfig(), {})
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg, ranges


def _prompt_range(prompt_id: int, overrides: dict[int, ScoreRange]) -> ScoreRange:
    return overrides.get(prompt_id) or default_range(prompt_id)


def _split_train_val(essay_set: EssaySet, cfg: TrainConfig):
    n = len(essay_set)
    if n < 2:
        raise UsageError("need at least 2 essays to carve out a validation set")
    order = np.random.default_rng(cfg.seed).permutation(n)
    n_val = min(max(1, round(n * cfg.val_fraction)), n - 1)
    val_ids = {essay_set.essays[int(i)].essay_id for i in order[:n_val]}
    train_ids = {e.essay_id for e in essay_set.essays} - val_ids
    return essay_set.subset(train_ids), essay_set.subset(val_ids)


def cmd_train(args) -> int:
    cfg, range_overrides = _load_config(args)
    score_range = _prompt_range(args.prompt, range_overrides)
    encoding = args.encoding or "latin1"
    essay_set = load_dataset(args.data, args.prompt, score_range, encoding)
    train_set, val_set = _split_train_val(essay_set, cfg)
    vocab = build_vocabulary([train_set], min_count=cfg.min_count)
    table = load_embeddings(args.embeddings, cfg.embedding_dim)
    params, history = train(train_set, val_set, vocab, table, cfg)
    save_model(params, vocab, score_range, args.out, encoding=encoding)
    Path(str(args.out) + ".history.csv").write_text(history_to_csv(history),
                                                    encoding="utf-8")
    best = max((h.val_qwk for h in history), default=float("nan"))
    print(f"val QWK: {best:.4f}")
    return 0


def cmd_predict(args) -> int:
    artifact = load_model(args.model)
    rows = load_unscored(args.data, artifact.score_range.prompt_id,
                         args.encoding or artifact.encoding or "latin1")
    essay_ids = [essay_id for essay_id, _ in rows]
    predictions = predict_normalized(artifact.params, artifact.vocab,
                                     [tokens for _, tokens in rows])
    scores = denormalize_predictions(essay_ids, predictions, artifact.score_range)
    lines = [f"{essay_id},{score}\n" for essay_id, score in zip(essay_ids, scores)]
    Path(args.out).write_text("".join(lines), encoding="utf-8")
    return 0


def _by_id(pairs, path) -> dict[int, int]:
    """(essay_id, score) pairs as a dict, rejecting a repeated essay id."""
    scores: dict[int, int] = {}
    for essay_id, score in pairs:
        if essay_id in scores:
            raise FormatError(f"{path}: duplicate essay id {essay_id}")
        scores[essay_id] = score
    return scores


def _read_gold(path) -> dict[int, int]:
    """Gold scores from either a two-column CSV or an ASAP TSV file.

    A tab in the first non-blank line (read as latin-1, which decodes any
    byte) selects TSV parsing; prompt filtering is not applied because
    alignment with the prediction file is what matters.
    """
    first = next(text_lines(path, "latin1"), (0, ""))[1]
    if "\t" not in first:
        return _by_id(read_predictions(path), path)
    rows = read_tsv(path, ("essay_id", "domain1_score")) or ()
    return _by_id(((row.integer("essay_id"), row.integer("domain1_score"))
                   for row in rows), path)


def cmd_eval(args) -> int:
    predictions = _by_id(read_predictions(args.pred), args.pred)
    gold = _read_gold(args.gold)
    for essay_id in predictions:
        if essay_id not in gold:
            raise UsageError(f"essay id {essay_id} missing from gold file")
    for essay_id in gold:
        if essay_id not in predictions:
            raise UsageError(f"essay id {essay_id} missing from prediction file")
    for path, scores in ((args.pred, predictions), (args.gold, gold)):
        for essay_id, score in scores.items():
            check_score(score, args.range, f"{path}: essay {essay_id}: ")
    actual = [gold[essay_id] for essay_id in predictions]
    value = qwk(actual, list(predictions.values()), args.range)
    print(f"{value:.4f}")
    return 0


def _report_paths(out: str) -> tuple[Path, Path]:
    if out.endswith(".json"):
        return Path(out), Path(out[:-5] + ".csv")
    return Path(out + ".json"), Path(out + ".csv")


def cmd_cv(args) -> int:
    cfg, range_overrides = _load_config(args)
    score_range = _prompt_range(args.prompt, range_overrides)
    essay_set = load_dataset(args.data, args.prompt, score_range, args.encoding or "latin1")
    table = load_embeddings(args.embeddings, cfg.embedding_dim)
    report = run_cv(essay_set, table, cfg, k=args.k, seed=args.seed)
    json_path, csv_path = _report_paths(args.out)
    json_path.write_text(report_to_json(report), encoding="utf-8")
    csv_path.write_text(report_to_csv(report), encoding="utf-8")
    print(f"mean QWK: {report.mean_qwk:.4f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaes",
        description="Train, apply and evaluate essay-scoring models on "
                    "ASAP-format data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Every command that reads essays reads them the same way.  The parsers
    # share the --encoding action, so each command resolves its default.
    essays = argparse.ArgumentParser(add_help=False)
    essays.add_argument("--data", required=True)
    essays.add_argument("--encoding", choices=list(ENCODINGS))
    essays.add_argument("--out", required=True)
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--prompt", type=int, required=True)
    training.add_argument("--embeddings", required=True)
    training.add_argument("--config")

    p_train = sub.add_parser("train", parents=[essays, training],
                             help="train a model for one prompt")
    p_train.add_argument("--seed", type=int)
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", parents=[essays],
                               help="score essays with a saved model")
    p_predict.add_argument("--model", required=True)
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("eval", help="quadratic weighted kappa of a "
                                         "prediction file against gold scores")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--range", type=_range_arg, required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_cv = sub.add_parser("cv", parents=[essays, training],
                          help="k-fold cross-validation for one prompt")
    p_cv.add_argument("--k", type=int, required=True)
    p_cv.add_argument("--seed", type=int, required=True)
    p_cv.set_defaults(func=cmd_cv)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DelaesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
