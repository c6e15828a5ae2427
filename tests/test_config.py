import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaes import FormatError, ScoreRange, TrainConfig, UsageError
from delaes.config import parse_range, read_config


def write(tmp_path, text):
    """A config file holding ``text``."""
    path = tmp_path / "c.cfg"
    path.write_text(text)
    return path


class TestReadConfig:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write(tmp_path, "# a comment\n\nepochs = 7  # trailing\nfilters=3\n")
        cfg, ranges = read_config(path)
        assert cfg == TrainConfig(epochs=7, filters=3)
        assert ranges == {}

    def test_missing_equals_rejected(self, tmp_path):
        path = write(tmp_path, "epochs 7\n")
        with pytest.raises(FormatError,
                           match=f"^{re.escape(str(path))}:1: expected key=value"):
            read_config(path)

    def test_typed_overrides(self, tmp_path):
        path = write(tmp_path, "windows = 2,4\ndropout = 0.1\nepochs = 5\n"
                               "grad_clip = 2.5\nreshuffle_each_epoch = false\n")
        cfg, _ = read_config(path)
        assert cfg.windows == (2, 4)
        assert cfg.dropout == 0.1
        assert cfg.epochs == 5
        assert cfg.grad_clip == 2.5
        assert cfg.reshuffle_each_epoch is False

    def test_grad_clip_none(self, tmp_path):
        cfg, _ = read_config(write(tmp_path, "grad_clip = 1.0\ngrad_clip = none\n"))
        assert cfg.grad_clip is None

    def test_unknown_key(self, tmp_path):
        path = write(tmp_path, "learning = 0.1\n")
        with pytest.raises(FormatError,
                           match=f"^{re.escape(str(path))}: unknown config key 'learning'$"):
            read_config(path)

    @pytest.mark.parametrize("entry, key", [
        ("epochs = many", "epochs"), ("windows = 2,x", "windows"),
        ("dropout = lots", "dropout"),
    ])
    def test_bad_value(self, tmp_path, entry, key):
        path = write(tmp_path, entry + "\n")
        with pytest.raises(FormatError,
                           match=f"^{re.escape(str(path))}: config key '{key}': "):
            read_config(path)

    @pytest.mark.parametrize("value, parsed", [
        ("true", True), ("Yes", True), ("1", True), ("on", True),
        ("false", False), ("NO", False), ("0", False), ("off", False),
    ])
    def test_bool_spellings(self, tmp_path, value, parsed):
        for key in ("trainable_embeddings", "reshuffle_each_epoch"):
            cfg, _ = read_config(write(tmp_path, f"{key} = {value}\n"))
            assert getattr(cfg, key) is parsed

    def test_bad_bool(self, tmp_path):
        path = write(tmp_path, "trainable_embeddings = maybe\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: config key "
                                              "'trainable_embeddings': cannot parse 'maybe' "
                                              "as a boolean$"):
            read_config(path)

    def test_rule_broken_names_the_file(self, tmp_path):
        path = write(tmp_path, "filters = 0\n")
        with pytest.raises(UsageError,
                           match=f"^{re.escape(str(path))}: filters must be positive$"):
            read_config(path)

    def test_range_keys(self, tmp_path):
        _, ranges = read_config(write(tmp_path, "range1 = 2:12\nrange03 = 0:3\n"))
        assert ranges == {1: ScoreRange(1, 2, 12), 3: ScoreRange(3, 0, 3)}

    @pytest.mark.parametrize("value", ["4:2", "2:2", "oops", "1:2:3", "a:b"])
    def test_bad_range_names_file_and_key(self, tmp_path, value):
        path = write(tmp_path, f"range1 = {value}\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: config key "
                                              "'range1': expected MIN:MAX"):
            read_config(path)


class TestParseRange:
    def test_prompt_and_bounds(self):
        assert parse_range("2:12") == ScoreRange(0, 2, 12)
        assert parse_range(" -1 : 3 ", 4) == ScoreRange(4, -1, 3)

    @pytest.mark.parametrize("text", ["4:2", "2:2", "oops", "2.5:4", ":"])
    def test_unusable_range_rejected(self, text):
        with pytest.raises(UsageError, match=f"expected MIN:MAX with MIN < MAX, got '{text}'"):
            parse_range(text)


class TestValidation:
    def test_unsorted_windows_rejected(self):
        with pytest.raises(UsageError):
            TrainConfig(windows=(3, 2))

    def test_dropout_range(self):
        with pytest.raises(UsageError):
            TrainConfig(dropout=1.0)

    def test_bad_summary_mode(self, tmp_path):
        # The head reads the last states only: no other summary is accepted.
        data = TrainConfig().to_dict()
        for value in ("mean", "attention"):
            data["summary_mode"] = value
            with pytest.raises(FormatError, match="summary_mode"):
                TrainConfig.from_dict(data)
        path = write(tmp_path, "summary_mode = last\n")
        with pytest.raises(FormatError, match="unknown config key 'summary_mode'"):
            read_config(path)

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
    def test_bad_optimizer_setting_rejected(self, tmp_path, key, value):
        with pytest.raises(UsageError, match=key):
            TrainConfig(**{key: value})
        with pytest.raises(UsageError, match=key):
            read_config(write(tmp_path, f"{key} = {value}\n"))

    def test_rmsprop_decay_zero_accepted(self):
        assert TrainConfig(rmsprop_decay=0.0).rmsprop_decay == 0.0

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="seed"):
            TrainConfig(seed=-1)
        path = write(tmp_path, "seed = -1\n")
        with pytest.raises(UsageError, match=f"^{re.escape(str(path))}: seed must be >= 0$"):
            read_config(path)


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


class TestTypes:
    """The constructor checks every field's type, so the API accepts no
    config that an artifact would be refused for."""

    @pytest.mark.parametrize("key, value, kind", [
        ("trainable_embeddings", 0, "bool"), ("seed", True, "int"), ("filters", 2.5, "int"),
        ("epochs", 2.5, "int"), ("seed", np.int64(1), "int"), ("dropout", "0.4", "float"),
        ("learning_rate", False, "float"), ("windows", [2, 3], "tuple[int, ...]"),
        ("windows", (2, True), "tuple[int, ...]"), ("grad_clip", "1", "float | None"),
    ])
    def test_mistyped_value_rejected(self, key, value, kind):
        message = f"config key '{key}': {value!r} is not of type {kind}"
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            TrainConfig(**{key: value})

    def test_int_accepted_for_float_field(self):
        cfg = TrainConfig(dropout=0, learning_rate=1, grad_clip=2)
        assert (cfg.dropout, cfg.learning_rate, cfg.grad_clip) == (0, 1, 2)


_ANY_VALUE = st.one_of(
    st.integers(-2, 6), st.floats(), st.booleans(), st.none(), st.text(max_size=3),
    st.lists(st.integers(-1, 6), max_size=3),
    st.tuples(st.integers(-1, 6), st.integers(-1, 6)),
)
_PLAUSIBLE = {int: st.integers(1, 6), float: st.floats(0.05, 0.95), bool: st.booleans()}


def _field_value(name):
    """``name`` and, half the time, a value that could pass for it; else any value."""
    default = TrainConfig.__dataclass_fields__[name].default
    plausible = _PLAUSIBLE.get(type(default), st.just(default))
    return st.tuples(st.just(name),
                     st.sampled_from([plausible, _ANY_VALUE]).flatmap(lambda values: values))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(sorted(TrainConfig.__dataclass_fields__))
                .flatmap(_field_value), max_size=3).map(dict))
def test_accepted_config_survives_json(fields):
    """Whatever the constructor accepts, its artifact form reads back as
    itself; everything else is a UsageError."""
    try:
        cfg = TrainConfig(**fields)
    except UsageError:
        return
    assert TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
