import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from delaes import DomainError, FormatError, UsageError, forward, load_model, save_model
from delaes.corpus import ScoreRange

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
        assert loaded.created is None

    def test_created_field_persisted_when_given(self, tmp_path):
        _, vocab, params = tiny_model(dtype=np.float32)
        path = tmp_path / "m.bin"
        save_model(params, vocab, ScoreRange(1, 0, 3), path,
                   created="2026-08-08T00:00:00Z")
        assert load_model(path).created == "2026-08-08T00:00:00Z"

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
        with pytest.raises(FormatError, match=re.escape(f"{path}: metadata field 'encoding'")):
            load_model(path)

    @pytest.mark.parametrize("created", [7, 1.5, True, ["x"], [], {"a": 1}, {}])
    def test_created_must_be_a_string_or_none(self, saved, tmp_path, created):
        path, vocab, params, score_range = saved
        unsaved = tmp_path / "m.bin"
        with pytest.raises(UsageError, match="created must be a string or None"):
            save_model(params, vocab, score_range, unsaved, created=created)
        assert not unsaved.exists()
        rewrite_metadata(path, lambda meta: meta.update(created=created))
        with pytest.raises(FormatError, match=re.escape(f"{path}: metadata field 'created'")):
            load_model(path)

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
        # grow the declared vocabulary: the stored embedding tensor no longer
        # matches the shape the metadata implies
        rewrite_metadata(path, lambda meta: meta["vocabulary"].append("extra-token"))
        with pytest.raises(FormatError, match="shape"):
            load_model(path)

    def test_non_string_vocabulary_token(self, saved):
        path, *_ = saved
        rewrite_metadata(path, lambda meta: meta["vocabulary"].__setitem__(0, 5))
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: metadata field 'vocabulary' holds a non-string token")):
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
