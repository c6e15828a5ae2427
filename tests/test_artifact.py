import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from delaes import (
    ENCODINGS,
    DomainError,
    FormatError,
    UsageError,
    Vocabulary,
    forward,
    load_model,
    save_model,
)
from delaes.corpus import PAD_TOKEN, UNK_TOKEN, ScoreRange

from synthdata import tiny_model


@pytest.fixture()
def saved(tmp_path):
    _, vocab, params = tiny_model(dtype=np.float32, dropout=0.0)
    score_range = ScoreRange(1, 2, 4)
    path = tmp_path / "model.bin"
    save_model(params, vocab, score_range, path)
    return path, vocab, params, score_range


def rewrite_metadata(path, change):
    """Rewrite the artifact at ``path`` with ``change`` applied to its metadata."""
    raw = path.read_bytes()
    meta_len = struct.unpack_from("<I", raw, 8)[0]
    meta = json.loads(raw[12:12 + meta_len])
    change(meta)
    blob = json.dumps(meta, sort_keys=True, ensure_ascii=False).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + meta_len:])


class TestRoundTrip:
    def test_tensors_bit_exact(self, saved):
        path, _, params, _ = saved
        loaded = load_model(path)
        for (name, original), (loaded_name, restored) in zip(
                params.tensors.items(), loaded.params.tensors.items()):
            assert name == loaded_name
            np.testing.assert_array_equal(original, restored, err_msg=name)
            assert restored.dtype == np.float32

    def test_metadata_round_trip(self, saved):
        path, vocab, params, score_range = saved
        loaded = load_model(path)
        assert loaded.vocab.corpus_tokens() == vocab.corpus_tokens()
        assert loaded.score_range == score_range
        assert loaded.params.config == params.config

    @pytest.mark.parametrize("created", [None, "2026-08-08T00:00:00Z", 7])
    def test_created_stamp_of_earlier_versions_ignored(self, saved, created):
        path, vocab, params, _ = saved
        assert b'"created"' not in path.read_bytes()
        rewrite_metadata(path, lambda meta: meta.update(created=created))
        loaded = load_model(path)
        assert loaded.vocab.corpus_tokens() == vocab.corpus_tokens()
        for name, tensor in params.tensors.items():
            np.testing.assert_array_equal(tensor, loaded.params.tensors[name])

    def test_encoding_recorded_only_when_given(self, saved, tmp_path):
        path, vocab, params, score_range = saved
        assert load_model(path).encoding is None
        assert b'"encoding"' not in path.read_bytes()
        for encoding in ("latin1", "utf8"):
            tagged = tmp_path / f"{encoding}.bin"
            save_model(params, vocab, score_range, tagged, encoding=encoding)
            assert load_model(tagged).encoding == encoding

    @pytest.mark.parametrize("encoding", ["cp1252", "utf-8", "UTF8", "latin-1", 8,
                                          ["utf8"], {"a": 1}])
    def test_unknown_encoding_rejected(self, saved, tmp_path, encoding):
        path, vocab, params, score_range = saved
        unsaved = tmp_path / "m.bin"
        with pytest.raises(UsageError, match="unsupported encoding"):
            save_model(params, vocab, score_range, unsaved, encoding=encoding)
        assert not unsaved.exists()
        rewrite_metadata(path, lambda meta: meta.update(encoding=encoding))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: unsupported "
                                              f"encoding {re.escape(repr(encoding))} "
                                              r"\(use latin1 or utf8\)$"):
            load_model(path)

    def test_vocabulary_of_another_size_not_saved(self, saved, tmp_path):
        _, _, params, score_range = saved
        unsaved = tmp_path / "m.bin"
        with pytest.raises(UsageError, match="^embedding has 8 rows, vocabulary has 3 "
                                             "entries$"):
            save_model(params, Vocabulary(["alpha"]), score_range, unsaved)
        assert not unsaved.exists()

    def test_forward_identical_after_reload(self, saved):
        path, vocab, params, _ = saved
        loaded = load_model(path)
        idx = vocab.encode(["alpha", "bravo", "charlie", "delta"])
        assert forward(idx, params) == forward(idx, loaded.params)

    def test_save_twice_byte_identical(self, saved, tmp_path):
        path, vocab, params, score_range = saved
        second = tmp_path / "again.bin"
        save_model(params, vocab, score_range, second)
        assert path.read_bytes() == second.read_bytes()


_ANY_BOUND = st.one_of(st.integers(-3, 3), st.floats(-3, 3), st.booleans(), st.none(),
                       st.text(max_size=2), st.just(np.int64(1)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.tuples(*[st.integers(-3, 3)] * 3), st.tuples(*[_ANY_BOUND] * 3)))
def test_accepted_score_range_survives_save_and_load(saved, tmp_path, fields):
    """Whatever score range the constructor accepts, a saved model reads back
    with it; everything else is refused before anything is saved."""
    _, vocab, params, _ = saved
    try:
        score_range = ScoreRange(*fields)
    except (UsageError, DomainError):
        return
    path = tmp_path / "range.bin"
    save_model(params, vocab, score_range, path)
    assert load_model(path).score_range == score_range


_ANY_TOKEN = st.one_of(st.text(max_size=3), st.integers(-2, 2), st.none(),
                       st.lists(st.text(max_size=1), max_size=1))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.lists(st.text(min_size=1, max_size=4), min_size=6, max_size=6, unique=True),
                 st.lists(st.text(min_size=1, max_size=4), min_size=5, max_size=7, unique=True),
                 st.lists(_ANY_TOKEN, min_size=5, max_size=7)),
       st.one_of(st.sampled_from([*ENCODINGS, None]), st.sampled_from(["utf-8", 8, ["utf8"]])))
def test_saved_model_loads_or_is_not_saved(saved, tmp_path, tokens, encoding):
    """A vocabulary and encoding that save_model takes read back exactly;
    anything load_model would refuse is refused before a file exists."""
    _, _, params, score_range = saved
    path = tmp_path / "drawn.bin"
    path.unlink(missing_ok=True)
    loadable = (all(isinstance(token, str) for token in tokens)
                and len(set(tokens) | {PAD_TOKEN, UNK_TOKEN}) == len(tokens) + 2
                and len(tokens) + 2 == params.vocab_size
                and encoding in (None, "latin1", "utf8"))
    if not loadable:
        with pytest.raises(UsageError):
            save_model(params, Vocabulary(tokens), score_range, path, encoding)
        assert not path.exists()
        return
    save_model(params, Vocabulary(tokens), score_range, path, encoding)
    loaded = load_model(path)
    assert loaded.vocab.corpus_tokens() == tokens
    assert loaded.encoding == encoding
    for name, tensor in params.tensors.items():
        assert loaded.params.tensors[name].tobytes() == tensor.tobytes(), name


class TestRejection:
    def test_unknown_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
        with pytest.raises(FormatError, match="not a DELAES01 artifact"):
            load_model(path)

    def test_truncated_file(self, saved):
        path, *_ = saved
        clipped = path.read_bytes()[:-10]
        path.write_bytes(clipped)
        with pytest.raises(FormatError):
            load_model(path)

    def test_tensor_name_not_utf8(self, saved):
        path, *_ = saved
        raw = bytearray(path.read_bytes())
        meta_len = struct.unpack_from("<I", raw, 8)[0]
        raw[12 + meta_len + 8] = 0xFF  # first byte of the first tensor name
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="UTF-8"):
            load_model(path)

    @pytest.mark.parametrize("dims", [(2**32 - 1, 2**32 - 1), (2**31, 2**31, 4)])
    def test_overflowing_dimensions(self, saved, dims):
        path, *_ = saved
        raw = path.read_bytes()
        meta_len = struct.unpack_from("<I", raw, 8)[0]
        name = b"embedding"
        header = (struct.pack("<I", 1) + struct.pack("<I", len(name)) + name
                  + struct.pack("<I", len(dims))
                  + b"".join(struct.pack("<I", dim) for dim in dims))
        path.write_bytes(raw[:12 + meta_len] + header + b"\x00" * 64)
        with pytest.raises(FormatError, match="truncated"):
            load_model(path)

    def test_repeated_tensor_name(self, saved):
        path, _, params, _ = saved
        raw = path.read_bytes()
        meta_len = struct.unpack_from("<I", raw, 8)[0]
        start = 12 + meta_len
        count = struct.unpack_from("<I", raw, start)[0]
        name = b"conv2.bias"
        shape = params.tensors["conv2.bias"].shape
        # An extra first copy of conv2.bias, all 9s, before the file's own.
        extra = (struct.pack("<I", len(name)) + name + struct.pack("<I", len(shape))
                 + b"".join(struct.pack("<I", dim) for dim in shape)
                 + np.full(shape, 9, dtype="<f4").tobytes())
        path.write_bytes(raw[:start] + struct.pack("<I", count + 1) + extra
                         + raw[start + 4:])
        with pytest.raises(FormatError, match="tensor 'conv2.bias' appears twice"):
            load_model(path)

    def test_shape_metadata_mismatch(self, saved):
        path, *_ = saved
        # grow the declared vocabulary: the stored embedding no longer has
        # one row per vocabulary entry
        rewrite_metadata(path, lambda meta: meta["vocabulary"].append("extra-token"))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: embedding has 8 "
                                              "rows, vocabulary has 9 entries$"):
            load_model(path)

    @pytest.mark.parametrize("token", [5, None, ["x"], {"x": 1}])
    def test_non_string_vocabulary_token(self, saved, token):
        path, *_ = saved
        rewrite_metadata(path, lambda meta: meta["vocabulary"].__setitem__(0, token))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: token "
                                              f"{re.escape(repr(token))} is not a string$"):
            load_model(path)

    def test_rank0_embedding(self, saved):
        path, _, params, _ = saved
        raw = path.read_bytes()
        start = 12 + struct.unpack_from("<I", raw, 8)[0] + 4  # the first tensor
        name = b"embedding"
        assert raw[start + 4:start + 4 + len(name)] == name
        size = 4 + len(name) + 4 + 8 + params.tensors["embedding"].nbytes
        scalar = (struct.pack("<I", len(name)) + name + struct.pack("<I", 0)
                  + np.ones((), dtype="<f4").tobytes())
        path.write_bytes(raw[:start] + scalar + raw[start + size:])
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: tensor "
                                              r"'embedding' has shape \(\), expected "):
            load_model(path)

    @pytest.mark.parametrize("blob", [b"{not json", b"\xff\xfe"])
    def test_metadata_not_json(self, saved, blob):
        path, *_ = saved
        raw = path.read_bytes()
        meta_len = struct.unpack_from("<I", raw, 8)[0]
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                         + raw[12 + meta_len:])
        with pytest.raises(FormatError, match=re.escape(f"{path}: corrupt metadata block")):
            load_model(path)

    def test_trailing_bytes(self, saved):
        path, *_ = saved
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: trailing bytes after last tensor")):
            load_model(path)
