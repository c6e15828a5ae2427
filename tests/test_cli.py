import json
import struct

import numpy as np
import pytest

from delaes import forward, load_dataset, load_model
from delaes.cli import main
from delaes.corpus import ScoreRange
from delaes.training import denormalize_predictions, predict_normalized

from cli_driver import MICRO_CONFIG
from synthdata import make_corpus, make_table, write_asap_tsv, write_embeddings


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    corpus = make_corpus(24, seed=5)
    table = make_table(12, seed=9)
    data = root / "essays.tsv"
    vectors = root / "vectors.txt"
    config = root / "micro.cfg"
    write_asap_tsv(data, corpus)
    write_embeddings(vectors, table)
    config.write_text(MICRO_CONFIG)
    return {"data": data, "vectors": vectors, "config": config, "corpus": corpus}


def train_args(files, out, seed=5):
    return ["train", "--data", str(files["data"]), "--prompt", "1",
            "--embeddings", str(files["vectors"]), "--out", str(out),
            "--config", str(files["config"]), "--seed", str(seed)]


class TestTrain:
    def test_missing_data_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--prompt", "1", "--embeddings", "x", "--out", "y"])
        assert excinfo.value.code == 2

    def test_micro_run_writes_artifact_and_history(self, data_files, tmp_path,
                                                   capsys):
        out = tmp_path / "model.bin"
        assert main(train_args(data_files, out)) == 0
        assert out.exists()
        history = (tmp_path / "model.bin.history.csv").read_text()
        assert history.startswith("epoch,train_mse,val_qwk")
        assert len(history.strip().splitlines()) == 4
        printed = capsys.readouterr().out
        assert "val QWK:" in printed
        loaded = load_model(out)
        assert loaded.score_range.min_score == 0
        assert loaded.score_range.max_score == 2

    def test_fixed_seed_byte_identical_artifacts(self, data_files, tmp_path):
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        assert main(train_args(data_files, first)) == 0
        assert main(train_args(data_files, second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_negative_seed_exits_1(self, data_files, tmp_path, capsys):
        assert main(train_args(data_files, tmp_path / "m.bin", seed=-3)) == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_missing_data_file_exits_1(self, data_files, tmp_path, capsys):
        args = train_args(data_files, tmp_path / "m.bin")
        args[args.index("--data") + 1] = str(tmp_path / "nope.tsv")
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_score_in_data_exits_1(self, data_files, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("essay_id\tessay_set\tessay\tdomain1_score\n"
                       "1\t1\tsome text here\t9\n")
        args = train_args(data_files, tmp_path / "m.bin")
        args[args.index("--data") + 1] = str(bad)
        assert main(args) == 1
        assert "outside range" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, message", [
        ("", "{data}: empty file, header row required"),
        ("\n \n", "{data}: empty file, header row required"),
        ("essay_id\tessay_set\tessay\tdomain1_score\n1\t1\tsome text\tabc\n",
         "{data}:2: cannot parse domain1_score='abc' as an integer"),
        ("essay_id\tessay_set\tessay\tdomain1_score\n1\t1\tsome text here\t2\n",
         "need at least 2 essays to carve out a validation set"),
    ], ids=["empty", "blank-lines-only", "non-integer-score", "one-essay"])
    def test_unusable_data_exits_1(self, data_files, tmp_path, capsys, rows, message):
        bad = tmp_path / "bad.tsv"
        bad.write_text(rows)
        args = train_args(data_files, tmp_path / "m.bin")
        args[args.index("--data") + 1] = str(bad)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message.format(data=bad)}\n"

    def test_prompt_without_a_range_exits_1(self, data_files, tmp_path, capsys):
        args = train_args(data_files, tmp_path / "m.bin")
        args[args.index("--prompt") + 1] = "9"
        assert main(args) == 1
        assert capsys.readouterr().err == ("error: no built-in score range for prompt 9; "
                                           "supply one explicitly\n")

    @pytest.mark.parametrize("entry, message", [
        ("filters = 0", "filters must be positive"),
        ("val_fraction = 1", "val_fraction must lie in (0, 1)"),
    ])
    def test_unusable_config_value_exits_1(self, data_files, tmp_path, capsys, entry,
                                           message):
        config = tmp_path / "bad.cfg"
        config.write_text(data_files["config"].read_text() + entry + "\n")
        args = train_args(data_files, tmp_path / "m.bin")
        args[args.index("--config") + 1] = str(config)
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "1e40"])
    def test_non_finite_embedding_names_the_line(self, data_files, tmp_path, capsys,
                                                 value):
        lines = data_files["vectors"].read_text(encoding="utf-8").splitlines()
        dim = len(lines[-1].split()) - 1
        bad = tmp_path / "vectors.txt"
        bad.write_text("\n".join([*lines, "zz " + " ".join([value] * dim)]) + "\n",
                       encoding="utf-8")
        args = train_args(data_files, tmp_path / "m.bin")
        args[args.index("--embeddings") + 1] = str(bad)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"{bad}:{len(lines) + 1}: non-finite vector component" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def model_path(data_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.bin"
    assert main(train_args(data_files, out)) == 0
    return out


def rewrite_metadata(model_path, out, change):
    """Copy an artifact to ``out`` with ``change`` applied to its metadata."""
    raw = model_path.read_bytes()
    meta_len = struct.unpack_from("<I", raw, 8)[0]
    meta = json.loads(raw[12:12 + meta_len])
    change(meta)
    blob = json.dumps(meta, sort_keys=True).encode()
    out.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + meta_len:])
    return out


def predict_args(model, data, out):
    return ["predict", "--model", str(model), "--data", str(data), "--out", str(out)]


class TestPredict:
    def test_round_trip_matches_in_memory(self, data_files, model_path, tmp_path):
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path),
                     "--data", str(data_files["data"]), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == len(data_files["corpus"])
        loaded = load_model(model_path)
        from delaes import denormalize_score
        essay = data_files["corpus"].essays[0]
        expected = denormalize_score(
            forward(loaded.vocab.encode(essay.tokens), loaded.params),
            loaded.score_range)
        assert rows[0] == f"{essay.essay_id},{expected}"

    def test_utf8_model_scores_essays_read_as_utf8(self, data_files, tmp_path):
        data = tmp_path / "utf8.tsv"
        rows = ["essay_id\tessay_set\tessay\tdomain1_score"]
        rows += [f"{e.essay_id}\t1\t{' '.join(e.tokens)} café ©\t{e.raw_score}"
                 for e in data_files["corpus"]]
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        model, out = tmp_path / "m.bin", tmp_path / "pred.csv"
        args = train_args(data_files, model)
        args[args.index("--data") + 1] = str(data)
        assert main(args + ["--encoding", "utf8"]) == 0
        assert main(predict_args(model, data, out) + ["--encoding", "utf8"]) == 0
        essays = load_dataset(data, 1, ScoreRange(1, 0, 2), "utf8").essays
        # Read as latin-1, "café" would be the tokens "cafã" and "©".
        assert essays != load_dataset(data, 1, ScoreRange(1, 0, 2), "latin1").essays
        loaded = load_model(model)
        scores = denormalize_predictions(
            [e.essay_id for e in essays],
            predict_normalized(loaded.params, loaded.vocab, [e.tokens for e in essays]),
            loaded.score_range)
        assert out.read_text() == "".join(f"{e.essay_id},{score}\n"
                                          for e, score in zip(essays, scores))

    def test_constant_head_predicts_midpoint(self, model_path, data_files,
                                             tmp_path):
        from delaes import save_model
        loaded = load_model(model_path)
        loaded.params.tensors["dense.weights"][:] = 0.0
        loaded.params.tensors["dense.bias"][:] = 0.0
        flat = tmp_path / "flat.bin"
        save_model(loaded.params, loaded.vocab, loaded.score_range, flat)
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(flat),
                     "--data", str(data_files["data"]), "--out", str(out)]) == 0
        scores = {int(line.split(",")[1]) for line in
                  out.read_text().strip().splitlines()}
        assert scores == {1}  # sigmoid(0) = 0.5 over range 0..2

    def test_empty_input_empty_output(self, model_path, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path),
                     "--data", str(empty), "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_not_an_artifact_exits_1(self, data_files, tmp_path, capsys):
        fake = tmp_path / "fake.bin"
        fake.write_bytes(b"GARBAGE!" * 16)
        assert main(["predict", "--model", str(fake),
                     "--data", str(data_files["data"]),
                     "--out", str(tmp_path / "p.csv")]) == 1
        assert "not a DELAES01 artifact" in capsys.readouterr().err


    @pytest.mark.parametrize("corrupt", [
        lambda meta: meta.pop("config"),
        lambda meta: meta.pop("score_range"),
        lambda meta: meta["config"].update(unknown_knob=1),
        lambda meta: meta["config"].update(pool_size=2.0),
        lambda meta: meta["config"].update(batch_size=2.5),
        lambda meta: meta["config"].update(windows="23"),
        lambda meta: meta["config"].update(windows=[2.7, 3]),
        lambda meta: meta.update(embedding_trainable="no"),
        lambda meta: meta["score_range"].update(min=False),
        lambda meta: meta["score_range"].update(prompt_id=True),
    ], ids=["no-config", "no-score-range", "unknown-config-key", "float-pool-size",
            "fractional-batch-size", "string-windows", "float-windows",
            "string-embedding-trainable", "bool-score-min", "bool-prompt-id"])
    def test_malformed_metadata_exits_1(self, model_path, data_files, tmp_path,
                                        capsys, corrupt):
        bad = rewrite_metadata(model_path, tmp_path / "bad.bin", corrupt)
        assert main(predict_args(bad, data_files["data"], tmp_path / "p.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("change, message", [
        (lambda meta: meta["config"].update(windows=[]),
         "windows must be a non-empty tuple of positive sizes"),
        (lambda meta: meta["config"].update(windows=[2, 3, 4]),
         "tensor names mismatch: missing=['conv4.bias'"),
        (lambda meta: meta["vocabulary"].append(5),
         "metadata field 'vocabulary' holds a non-string token"),
        (lambda meta: meta.update(created=7), "metadata field 'created' is 7"),
        (lambda meta: meta.update(created=[]), "metadata field 'created' is []"),
        (lambda meta: meta.update(created={}), "metadata field 'created' is {}"),
    ], ids=["empty-windows", "missing-tensors", "non-string-token", "int-created",
            "list-created", "object-created"])
    def test_unusable_metadata_names_the_file(self, model_path, data_files, tmp_path,
                                              capsys, change, message):
        bad = rewrite_metadata(model_path, tmp_path / "bad.bin", change)
        out = tmp_path / "p.csv"
        assert main(predict_args(bad, data_files["data"], out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
        assert not out.exists()

    def test_artifact_naming_the_last_state_summary_scores_the_same(
            self, model_path, data_files, tmp_path):
        # An artifact may record the summary as a config key; "last" is the
        # only summary there is.
        named = rewrite_metadata(model_path, tmp_path / "named.bin",
                                 lambda meta: meta["config"].update(summary_mode="last"))
        assert named.read_bytes() != model_path.read_bytes()
        for model, out in ((model_path, tmp_path / "a.csv"), (named, tmp_path / "b.csv")):
            assert main(predict_args(model, data_files["data"], out)) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("trainable", [True, False])
    def test_artifact_recording_embedding_trainable_scores_the_same(
            self, model_path, data_files, tmp_path, trainable):
        # Earlier versions repeated the config's trainable_embeddings under
        # this key; new artifacts omit it.
        def legacy(meta):
            assert "embedding_trainable" not in meta
            meta["config"]["trainable_embeddings"] = trainable
            meta["embedding_trainable"] = trainable
        old = rewrite_metadata(model_path, tmp_path / "old.bin", legacy)
        assert load_model(old).params.config.trainable_embeddings is trainable
        for model, out in ((model_path, tmp_path / "a.csv"), (old, tmp_path / "b.csv")):
            assert main(predict_args(model, data_files["data"], out)) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("trainable", [True, False])
    def test_embedding_trainable_contradicting_the_config_exits_1(
            self, model_path, data_files, tmp_path, capsys, trainable):
        def contradict(meta):
            meta["config"]["trainable_embeddings"] = trainable
            meta["embedding_trainable"] = not trainable
        bad = rewrite_metadata(model_path, tmp_path / "bad.bin", contradict)
        assert main(predict_args(bad, data_files["data"], tmp_path / "p.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "'embedding_trainable'" in err

    def test_artifact_with_a_mean_summary_exits_1(self, model_path, data_files, tmp_path,
                                                  capsys):
        mean = rewrite_metadata(model_path, tmp_path / "mean.bin",
                                lambda meta: meta["config"].update(summary_mode="mean"))
        assert main(predict_args(mean, data_files["data"], tmp_path / "p.csv")) == 1
        assert "summary_mode" in capsys.readouterr().err

    def test_duplicate_essay_id_exits_1(self, model_path, tmp_path, capsys):
        data = tmp_path / "dup.tsv"
        data.write_text("essay_id\tessay_set\tessay\n"
                        "1\t1\tan essay\n2\t1\tanother\n1\t1\tagain\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path),
                     "--data", str(data), "--out", str(out)]) == 1
        assert "duplicate essay id 1" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_prediction_names_the_essay(self, model_path, data_files,
                                            tmp_path, capsys):
        from delaes import save_model
        loaded = load_model(model_path)
        loaded.params.tensors["dense.bias"][:] = np.nan
        broken = tmp_path / "nan.bin"
        save_model(loaded.params, loaded.vocab, loaded.score_range, broken)
        assert main(["predict", "--model", str(broken),
                     "--data", str(data_files["data"]),
                     "--out", str(tmp_path / "p.csv")]) == 1
        first_id = data_files["corpus"].essays[0].essay_id
        err = capsys.readouterr().err
        assert f"essay {first_id}: non-finite prediction nan" in err
        assert "outside [0, 1]" not in err


@pytest.fixture(scope="module")
def utf8_model(data_files, tmp_path_factory):
    """A UTF-8 essay file with non-ASCII words, and a model trained on it
    with ``--encoding utf8``."""
    root = tmp_path_factory.mktemp("utf8")
    data, model = root / "utf8.tsv", root / "model.bin"
    rows = ["essay_id\tessay_set\tessay\tdomain1_score"]
    rows += [f"{e.essay_id}\t1\t{' '.join(e.tokens)} café ©\t{e.raw_score}"
             for e in data_files["corpus"]]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    args = train_args(data_files, model)
    args[args.index("--data") + 1] = str(data)
    assert main(args + ["--encoding", "utf8"]) == 0
    return data, model


class TestPredictEncoding:
    """``predict`` reads essays with ``--encoding``, else the encoding the
    model was trained with, else latin-1."""

    @staticmethod
    def encoding_read(monkeypatch, argv) -> str:
        """Run ``argv`` and return the encoding ``predict`` read essays with."""
        from delaes import cli
        seen = []

        def spy(path, prompt_id, encoding):
            seen.append(encoding)
            return original(path, prompt_id, encoding)

        original = cli.load_unscored
        monkeypatch.setattr(cli, "load_unscored", spy)
        assert main(argv) == 0
        [encoding] = seen
        return encoding

    def test_utf8_model_needs_no_flag(self, utf8_model, tmp_path, monkeypatch):
        data, model = utf8_model
        assert load_model(model).encoding == "utf8"
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        assert self.encoding_read(monkeypatch, predict_args(model, data, plain)) == "utf8"
        assert main(predict_args(model, data, flagged) + ["--encoding", "utf8"]) == 0
        assert plain.read_bytes() == flagged.read_bytes()

    def test_explicit_flag_wins(self, utf8_model, tmp_path, monkeypatch):
        data, model = utf8_model
        argv = predict_args(model, data, tmp_path / "p.csv") + ["--encoding", "latin1"]
        assert self.encoding_read(monkeypatch, argv) == "latin1"

    def test_latin1_model_reads_latin1(self, model_path, data_files, tmp_path,
                                       monkeypatch):
        assert load_model(model_path).encoding == "latin1"
        argv = predict_args(model_path, data_files["data"], tmp_path / "p.csv")
        assert self.encoding_read(monkeypatch, argv) == "latin1"

    def test_artifact_without_encoding_reads_latin1(self, utf8_model, tmp_path,
                                                    monkeypatch):
        data, model = utf8_model
        bare = rewrite_metadata(model, tmp_path / "bare.bin",
                                lambda meta: meta.pop("encoding"))
        assert load_model(bare).encoding is None
        argv = predict_args(bare, data, tmp_path / "p.csv")
        assert self.encoding_read(monkeypatch, argv) == "latin1"

    @pytest.mark.parametrize("value", ["cp1252", "utf-8", 8, ["utf8"], {"a": 1}])
    def test_bad_encoding_key_exits_1(self, model_path, data_files, tmp_path, capsys,
                                      value):
        bad = rewrite_metadata(model_path, tmp_path / "bad.bin",
                               lambda meta: meta.update(encoding=value))
        out = tmp_path / "p.csv"
        assert main(predict_args(bad, data_files["data"], out)) == 1
        err = capsys.readouterr().err
        assert f"{bad}: metadata field 'encoding' is {value!r}" in err
        assert not out.exists()


class TestConfigRange:
    """A ``rangeN`` entry of a --config file that is not MIN:MAX with MIN < MAX
    is a data error naming the file and the key."""

    @pytest.mark.parametrize("value", ["4:2", "2:2", "oops"])
    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_bad_range_exits_1(self, data_files, tmp_path, capsys, command, value):
        config = tmp_path / "bad.cfg"
        config.write_text(data_files["config"].read_text()
                          .replace("range1 = 0:2", f"range1 = {value}"))
        args = train_args(data_files, tmp_path / "m.bin")
        if command == "cv":
            args = ["cv", *args[1:], "--k", "2"]
        args[args.index("--config") + 1] = str(config)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: config key 'range1': ")
        assert "Traceback" not in err


class TestUndecodableInput:
    """A byte that is not UTF-8 in a text input is a data error, not a crash."""

    @staticmethod
    def spoil(path, tmp_path):
        bad = tmp_path / ("bad-" + path.name)
        bad.write_bytes(path.read_bytes() + b"caf\xff 1\n")
        return bad

    def check(self, args, bad, capsys):
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err
        assert "Traceback" not in err

    def test_embeddings_file(self, data_files, tmp_path, capsys):
        bad = self.spoil(data_files["vectors"], tmp_path)
        args = train_args(data_files, tmp_path / "m.bin")
        args[args.index("--embeddings") + 1] = str(bad)
        self.check(args, bad, capsys)

    def test_config_file(self, data_files, tmp_path, capsys):
        bad = self.spoil(data_files["config"], tmp_path)
        args = train_args(data_files, tmp_path / "m.bin")
        args[args.index("--config") + 1] = str(bad)
        self.check(args, bad, capsys)

    def test_eval_prediction_file(self, tmp_path, capsys):
        gold = tmp_path / "gold.csv"
        gold.write_text("1,2\n")
        bad = self.spoil(gold, tmp_path)
        self.check(["eval", "--pred", str(bad), "--gold", str(gold),
                    "--range", "2:4"], bad, capsys)


class TestEval:
    def test_perfect_agreement_prints_one(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        gold = tmp_path / "gold.csv"
        pred.write_text("1,2\n2,3\n3,4\n")
        gold.write_text("1,2\n2,3\n3,4\n")
        assert main(["eval", "--pred", str(pred), "--gold", str(gold),
                     "--range", "2:4"]) == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_known_value_from_oracle(self, tmp_path, capsys):
        from oracles import qwk_oracle
        pred = tmp_path / "pred.csv"
        gold = tmp_path / "gold.csv"
        gold.write_text("1,1\n2,2\n3,3\n4,1\n")
        pred.write_text("1,1\n2,2\n3,3\n4,2\n")
        expected = qwk_oracle([1, 2, 3, 1], [1, 2, 3, 2], 1, 3)
        assert main(["eval", "--pred", str(pred), "--gold", str(gold),
                     "--range", "1:3"]) == 0
        assert capsys.readouterr().out.strip() == f"{expected:.4f}"

    def test_gold_may_be_asap_tsv(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("essay_id\tessay_set\tessay\tdomain1_score\n"
                        "1\t1\twords here\t3\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("1,3\n")
        assert main(["eval", "--pred", str(pred), "--gold", str(gold),
                     "--range", "2:4"]) == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_gold_asap_tsv_may_start_with_blank_lines(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("\n  \nessay_id\tessay_set\tessay\tdomain1_score\n"
                        "1\t1\twords here\t3\n2\t1\tmore words\t4\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("1,3\n2,4\n")
        assert main(["eval", "--pred", str(pred), "--gold", str(gold),
                     "--range", "2:4"]) == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_unmatched_id_exits_1(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        gold = tmp_path / "gold.csv"
        pred.write_text("1,2\n9,3\n")
        gold.write_text("1,2\n2,3\n")
        assert main(["eval", "--pred", str(pred), "--gold", str(gold),
                     "--range", "2:4"]) == 1
        assert "9" in capsys.readouterr().err

    @pytest.mark.parametrize("pred, gold, message", [
        ("1,2\n", "1,2\n2,3\n", "essay id 2 missing from prediction file"),
        ("1,2\n2,abc\n", "1,2\n2,3\n", "{pred}:2: cannot parse score='abc' as an integer"),
    ], ids=["missing-prediction", "unparsable-score"])
    def test_unusable_prediction_file_exits_1(self, tmp_path, capsys, pred, gold, message):
        files = {"pred": tmp_path / "pred.csv", "gold": tmp_path / "gold.csv"}
        files["pred"].write_text(pred)
        files["gold"].write_text(gold)
        assert main(["eval", "--pred", str(files["pred"]), "--gold", str(files["gold"]),
                     "--range", "2:4"]) == 1
        assert capsys.readouterr().err == f"error: {message.format(**files)}\n"

    def test_duplicate_prediction_id_exits_1(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        gold = tmp_path / "gold.csv"
        pred.write_text("1,2\n1,3\n2,4\n")
        gold.write_text("1,2\n2,4\n")
        assert main(["eval", "--pred", str(pred), "--gold", str(gold),
                     "--range", "2:4"]) == 1
        assert "duplicate essay id 1" in capsys.readouterr().err

    def test_duplicate_gold_tsv_id_exits_1(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("essay_id\tessay_set\tessay\tdomain1_score\n"
                        "1\t1\twords here\t3\n"
                        "1\t1\tother words\t4\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("1,3\n")
        assert main(["eval", "--pred", str(pred), "--gold", str(gold),
                     "--range", "2:4"]) == 1
        assert "duplicate essay id 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("spoiled", ["--pred", "--gold"])
    def test_non_finite_score_names_the_line(self, tmp_path, capsys, spoiled, value):
        files = {"--pred": tmp_path / "pred.csv", "--gold": tmp_path / "gold.csv"}
        for flag, path in files.items():
            path.write_text("1,2\n" + (f"2,{value}\n" if flag == spoiled else "2,3\n"))
        assert main(["eval", "--pred", str(files["--pred"]), "--gold",
                     str(files["--gold"]), "--range", "2:4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[spoiled]}:2: score=")
        assert "Traceback" not in err

    def test_malformed_range_exits_2(self, tmp_path):
        pred = tmp_path / "p.csv"
        pred.write_text("1,2\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--pred", str(pred), "--gold", str(pred),
                  "--range", "oops"])
        assert excinfo.value.code == 2


class TestCv:
    def test_micro_cv_writes_reports(self, data_files, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["cv", "--data", str(data_files["data"]), "--prompt", "1",
                     "--embeddings", str(data_files["vectors"]),
                     "--k", "2", "--seed", "3", "--out", str(out),
                     "--config", str(data_files["config"])]) == 0
        csv_lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "round,qwk"
        assert len(csv_lines) == 3
        import json
        payload = json.loads((tmp_path / "report.json").read_text())
        assert len(payload["rounds"]) == 2
        assert "mean QWK" in capsys.readouterr().out

    def test_json_out_names_both_reports(self, data_files, tmp_path):
        assert main(["cv", "--data", str(data_files["data"]), "--prompt", "1",
                     "--embeddings", str(data_files["vectors"]),
                     "--k", "2", "--seed", "3", "--out", str(tmp_path / "r.json"),
                     "--config", str(data_files["config"])]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]
        assert len(json.loads((tmp_path / "r.json").read_text())["rounds"]) == 2

    def test_same_seed_identical_reports(self, data_files, tmp_path):
        args = lambda out: ["cv", "--data", str(data_files["data"]),
                            "--prompt", "1",
                            "--embeddings", str(data_files["vectors"]),
                            "--k", "2", "--seed", "3", "--out", str(out),
                            "--config", str(data_files["config"])]
        assert main(args(tmp_path / "r1")) == 0
        assert main(args(tmp_path / "r2")) == 0
        assert (tmp_path / "r1.json").read_bytes() == \
            (tmp_path / "r2.json").read_bytes()
        assert (tmp_path / "r1.csv").read_bytes() == \
            (tmp_path / "r2.csv").read_bytes()

    def test_k_larger_than_corpus_exits_1(self, data_files, tmp_path, capsys):
        assert main(["cv", "--data", str(data_files["data"]), "--prompt", "1",
                     "--embeddings", str(data_files["vectors"]),
                     "--k", "200", "--seed", "3",
                     "--out", str(tmp_path / "r"),
                     "--config", str(data_files["config"])]) == 1
        assert "error:" in capsys.readouterr().err
