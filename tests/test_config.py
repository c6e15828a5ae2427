import pytest

from delaes import FormatError, TrainConfig, UsageError
from delaes.config import apply_config_entries, parse_config_file


class TestParseConfigFile:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nepochs = 7  # trailing\nfilters=3\n")
        assert parse_config_file(path) == {"epochs": "7", "filters": "3"}

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs 7\n")
        with pytest.raises(FormatError, match=":1"):
            parse_config_file(path)


class TestApplyEntries:
    def test_typed_overrides(self):
        cfg = apply_config_entries(TrainConfig(), {
            "windows": "2,4",
            "dropout": "0.1",
            "epochs": "5",
            "grad_clip": "2.5",
            "reshuffle_each_epoch": "false",
        })
        assert cfg.windows == (2, 4)
        assert cfg.dropout == 0.1
        assert cfg.epochs == 5
        assert cfg.grad_clip == 2.5
        assert cfg.reshuffle_each_epoch is False

    def test_grad_clip_none(self):
        cfg = apply_config_entries(TrainConfig(grad_clip=1.0), {"grad_clip": "none"})
        assert cfg.grad_clip is None

    def test_unknown_key(self):
        with pytest.raises(FormatError, match="unknown config key"):
            apply_config_entries(TrainConfig(), {"learning": "0.1"})

    def test_bad_value(self):
        with pytest.raises(FormatError, match="epochs"):
            apply_config_entries(TrainConfig(), {"epochs": "many"})

    @pytest.mark.parametrize("value, parsed", [
        ("true", True), ("Yes", True), ("1", True), ("on", True),
        ("false", False), ("NO", False), ("0", False), ("off", False),
    ])
    def test_bool_spellings(self, value, parsed):
        for key in ("trainable_embeddings", "reshuffle_each_epoch"):
            cfg = apply_config_entries(TrainConfig(), {key: value})
            assert getattr(cfg, key) is parsed

    def test_bad_bool(self):
        with pytest.raises(FormatError):
            apply_config_entries(TrainConfig(), {"trainable_embeddings": "maybe"})


class TestValidation:
    def test_unsorted_windows_rejected(self):
        with pytest.raises(UsageError):
            TrainConfig(windows=(3, 2))

    def test_dropout_range(self):
        with pytest.raises(UsageError):
            TrainConfig(dropout=1.0)

    def test_bad_summary_mode(self):
        # The head reads the last states only: no other summary is accepted.
        data = TrainConfig().to_dict()
        for value in ("mean", "attention"):
            data["summary_mode"] = value
            with pytest.raises(FormatError, match="summary_mode"):
                TrainConfig.from_dict(data)
        with pytest.raises(FormatError, match="unknown config key 'summary_mode'"):
            apply_config_entries(TrainConfig(), {"summary_mode": "last"})

    def test_round_trip_through_dict(self):
        cfg = TrainConfig(windows=(2, 5), epochs=3, grad_clip=0.5)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_repeated_window_rejected(self):
        with pytest.raises(UsageError, match="strictly ascending"):
            TrainConfig(windows=(2, 3, 3))

    @pytest.mark.parametrize("grad_clip", [-1.0, 0.0, float("nan")])
    def test_grad_clip_must_be_positive(self, grad_clip):
        with pytest.raises(UsageError, match="grad_clip"):
            TrainConfig(grad_clip=grad_clip)

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", 0.0), ("rmsprop_decay", 1.5), ("rmsprop_decay", 1.0),
        ("rmsprop_decay", -0.1), ("rmsprop_decay", float("nan")),
        ("rmsprop_epsilon", 0.0), ("rmsprop_epsilon", -1e-7),
        ("rmsprop_epsilon", float("nan")), ("rmsprop_epsilon", float("inf")),
    ])
    def test_bad_optimizer_setting_rejected(self, key, value):
        with pytest.raises(UsageError, match=key):
            TrainConfig(**{key: value})
        with pytest.raises(UsageError, match=key):
            apply_config_entries(TrainConfig(), {key: str(value)})

    def test_rmsprop_decay_zero_accepted(self):
        assert TrainConfig(rmsprop_decay=0.0).rmsprop_decay == 0.0

    def test_negative_seed_rejected(self):
        with pytest.raises(UsageError, match="seed"):
            TrainConfig(seed=-1)
        with pytest.raises(UsageError, match="seed"):
            apply_config_entries(TrainConfig(), {"seed": "-1"})


class TestFromDict:
    @pytest.mark.parametrize("key, value", [
        ("pool_size", 2.0), ("pool_stride", 2.0), ("batch_size", 2.5),
        ("epochs", True), ("windows", "23"), ("windows", [2.7, 3]),
        ("dropout", "0.4"), ("grad_clip", "1"), ("summary_mode", 1),
        ("trainable_embeddings", "no"),
    ])
    def test_mistyped_value_rejected(self, key, value):
        data = TrainConfig().to_dict()
        data[key] = value
        with pytest.raises(FormatError, match=key):
            TrainConfig.from_dict(data)

    def test_last_state_summary_mode_is_dropped(self):
        data = TrainConfig(epochs=3).to_dict()
        assert "summary_mode" not in data
        assert TrainConfig.from_dict({**data, "summary_mode": "last"}) == TrainConfig(epochs=3)

    def test_int_accepted_for_float_field(self):
        data = TrainConfig().to_dict()
        data.update(learning_rate=1, grad_clip=2)
        cfg = TrainConfig.from_dict(data)
        assert (cfg.learning_rate, cfg.grad_clip) == (1, 2)
        assert cfg.to_dict() == data
