import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from delaes import (
    DomainError,
    EmbeddingTable,
    EncodingError,
    FormatError,
    UsageError,
    Vocabulary,
    build_embedding_matrix,
    embed,
    embedding,
    load_embeddings,
)
from delaes.corpus import PAD_INDEX, UNK_INDEX
from oracles import EmbeddingFormatError, load_embeddings_loop


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


class TestLoadEmbeddings:
    def test_plain_file(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1.0 2.0\nb 0.0 1.0\n")
        table = load_embeddings(path, expected_dim=2)
        assert len(table) == 2
        np.testing.assert_array_equal(table.vectors["a"], [1.0, 2.0])

    def test_header_recognized_and_skipped(self, tmp_path):
        path = write(tmp_path / "v.txt", "2 300\n" +
                     "a " + " ".join(["0.1"] * 300) + "\n" +
                     "b " + " ".join(["0.2"] * 300) + "\n")
        table = load_embeddings(path, expected_dim=300)
        assert len(table) == 2

    def test_header_after_blank_line_recognized(self, tmp_path):
        path = write(tmp_path / "v.txt", "\n2 3\na 1 2 3\nb 4 5 6\n")
        table = load_embeddings(path, expected_dim=3)
        assert len(table) == 2

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1.0\n")
        with pytest.raises(FormatError, match=":1"):
            load_embeddings(path, expected_dim=2)

    def test_unparsable_real(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1.0 zz\n")
        with pytest.raises(FormatError, match=":1"):
            load_embeddings(path, expected_dim=2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e40"])
    def test_non_finite_component_names_the_line(self, tmp_path, value):
        path = write(tmp_path / "v.txt", f"a 1.0 2.0\nb 0.5 {value}\n")
        with pytest.raises(FormatError, match="v.txt:2: non-finite vector component"):
            load_embeddings(path, expected_dim=2)

    def test_duplicates_keep_first(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1.0 2.0\na 9.0 9.0\n")
        table = load_embeddings(path, expected_dim=2)
        np.testing.assert_array_equal(table.vectors["a"], [1.0, 2.0])

    @pytest.mark.parametrize("dim", [0, -2])
    def test_expected_dim_below_one_rejected(self, tmp_path, dim):
        path = tmp_path / "v.txt"
        path.write_text("hello 0.5 1.5\n")
        with pytest.raises(DomainError, match="expected_dim must be >= 1"):
            load_embeddings(path, dim)

    def test_scientific_notation(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1e-3 -2.5E2\n")
        table = load_embeddings(path, expected_dim=2)
        np.testing.assert_allclose(table.vectors["a"], [1e-3, -250.0])

    @pytest.mark.parametrize("text", [
        "a 1.0 2.0\nb 0.0 1.0\n",
        "\n2 2\r\na 1 2\r\nb 3 4\r\n",
    ])
    def test_regular_file_parses_in_one_pass(self, tmp_path, monkeypatch, text):
        def unexpected(*args):
            raise AssertionError("line-by-line fallback called")

        monkeypatch.setattr(embedding, "_load_by_line", unexpected)
        table = load_embeddings(write(tmp_path / "v.txt", text), expected_dim=2)
        assert len(table) == 2

    def test_real_only_float_accepts_still_loads(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1_0 2\nb \u0661 3\n")
        table = load_embeddings(path, expected_dim=2)
        np.testing.assert_array_equal(table.vectors["a"], [10.0, 2.0])
        np.testing.assert_array_equal(table.vectors["b"], [1.0, 3.0])

    def test_first_error_in_file_order_is_reported(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1 2\nb nan 2\nc zz 2\n")
        with pytest.raises(FormatError, match="v.txt:2: non-finite vector component"):
            load_embeddings(path, expected_dim=2)

    def test_bad_line_before_an_undecodable_byte_is_reported(self, tmp_path):
        # The byte lies past the text reader's first decoding chunk, so the
        # line-by-line reader meets the non-finite line first.
        path = tmp_path / "v.txt"
        path.write_bytes(b"a 1 2\nb nan 2\n" + b"c 1 2\n" * 5000 + b"d \xff 2\n")
        with pytest.raises(FormatError, match="v.txt:2: non-finite vector component"):
            load_embeddings(path, expected_dim=2)

    def test_bad_line_before_an_undecodable_byte_in_the_same_chunk_is_reported(
            self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"a zz 2\nb 1 2\nc \xff 2\n")
        with pytest.raises(FormatError, match="v.txt:1: could not convert") as err:
            load_embeddings(path, expected_dim=2)
        assert not isinstance(err.value, EncodingError)

    @pytest.mark.parametrize("text", ["", "\n \t\n\r\n"])
    def test_empty_file_gives_empty_table_without_warning(self, tmp_path, text):
        path = write(tmp_path / "v.txt", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = load_embeddings(path, expected_dim=2)
        assert len(table) == 0 and table.dimension == 2

    @pytest.mark.parametrize("text, count, found", [
        ("3 2\na 1 2\nb 3 4\n", 3, 2),
        ("3 2\na 1_0 2\nb 3 4\n", 3, 2),
        ("1 2\na 1 2\na 3 4\n", 1, 2),
        ("2 2\n", 2, 0),
    ])
    def test_header_count_must_match_vector_lines(self, tmp_path, text, count, found):
        path = write(tmp_path / "v.txt", text)
        with pytest.raises(FormatError,
                           match=f"v.txt: header declares {count} vectors, found {found}$"):
            load_embeddings(path, expected_dim=2)


SEPARATORS = " \t\x0b\x0c\x1c\x1f\x85\xa0\u3000"
#: Reals both parsers read, reals only Python's float reads, and reals that
#: must be rejected (non-finite, past the float32 range or unparsable).
REGULAR_REALS = ["0", "-0", "1", "0.5", ".5", "1.", "+1", "-2.25e-3", "1E5",
                 "1e-46", "1e-40", "3.4028234e38", "3.4028236e38"]
FLOAT_ONLY_REALS = ["1_0", "\u0661", "\u0661.5"]
REJECTED_REALS = ["nan", "-inf", "Infinity", "1e40", "zz", "1e", "0x10"]


@st.composite
def embedding_files(draw):
    """Text of a small embedding file, and the dimension to load it with."""
    dim = draw(st.integers(1, 3))
    sep = st.text(st.sampled_from(SEPARATORS), min_size=1, max_size=2)

    def real():
        kind = draw(st.integers(0, 39))
        if kind < 22:
            return repr(draw(st.floats(-1e3, 1e3, width=32)))
        if kind < 34:
            return draw(st.sampled_from(REGULAR_REALS))
        if kind < 39:
            return draw(st.sampled_from(FLOAT_ONLY_REALS))
        return draw(st.sampled_from(REJECTED_REALS))

    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t \x0c"])))
            continue
        width = draw(st.sampled_from([dim] * 12 + [0, dim - 1, dim + 1]))
        fields = [draw(st.sampled_from(["a", "b", "é", "7", "x_1"]))]
        fields += [real() for _ in range(width)]
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " "]))
        lines.append(lead + "".join(f + draw(sep) for f in fields[:-1]) + fields[-1] + trail)
    if draw(st.booleans()):
        vectors = sum(1 for line in lines if line.strip())
        count = vectors + draw(st.sampled_from([0] * 5 + [-1, 1]))
        header_dim = dim + draw(st.sampled_from([0, 0, 0, 1]))
        # Before or after a leading blank line: still the first non-blank one.
        lines.insert(draw(st.integers(0, 1 if lines and not lines[0].strip() else 0)),
                     f"{count}{draw(sep)}{header_dim}")
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    return text, dim


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(embedding_files())
def test_load_matches_line_by_line_oracle(tmp_path, case):
    text, dim = case
    path = tmp_path / "v.txt"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        expected = load_embeddings_loop(path, dim)
    except EmbeddingFormatError as exc:
        with pytest.raises(FormatError) as info:
            load_embeddings(path, dim)
        assert type(info.value) is FormatError and str(info.value) == str(exc)
        return
    table = load_embeddings(path, dim)
    assert table.dimension == dim and list(table.vectors) == list(expected)
    for token, vector in expected.items():
        got = table.vectors[token]
        assert got.dtype == np.float32 and got.shape == (dim,)
        assert got.tobytes() == vector.tobytes()


class TestBuildMatrix:
    def test_known_rows_copied(self):
        vocab = Vocabulary(["a"])
        table = EmbeddingTable(2, {"a": np.array([1.0, 2.0], np.float32)})
        matrix = build_embedding_matrix(vocab, table, seed=0)
        np.testing.assert_array_equal(matrix.weights[vocab.index("a")], [1.0, 2.0])

    def test_pad_row_zero(self):
        vocab = Vocabulary(["a", "b"])
        matrix = build_embedding_matrix(vocab, EmbeddingTable(4, {}), seed=0)
        np.testing.assert_array_equal(matrix.weights[PAD_INDEX], np.zeros(4))

    def test_deterministic(self):
        vocab = Vocabulary(["a", "zzz"])
        table = EmbeddingTable(3, {"a": np.ones(3, np.float32)})
        first = build_embedding_matrix(vocab, table, seed=7)
        second = build_embedding_matrix(vocab, table, seed=7)
        np.testing.assert_array_equal(first.weights, second.weights)

    def test_oov_rows_match_seeded_generator(self):
        # oracle: replay the same draw order with an independent generator
        vocab = Vocabulary(["zzz"])
        table = EmbeddingTable(5, {})
        matrix = build_embedding_matrix(vocab, table, seed=7)
        rng = np.random.default_rng(7)
        expected_unk = rng.uniform(-0.05, 0.05, 5).astype(np.float32)
        expected_zzz = rng.uniform(-0.05, 0.05, 5).astype(np.float32)
        np.testing.assert_array_equal(matrix.weights[UNK_INDEX], expected_unk)
        np.testing.assert_array_equal(matrix.weights[vocab.index("zzz")], expected_zzz)
        assert np.all(np.abs(matrix.weights[vocab.index("zzz")]) <= 0.05)


class TestEmbed:
    def _fixture(self):
        vocab = Vocabulary(["a", "b"])
        table = EmbeddingTable(2, {"a": np.array([1.0, 2.0], np.float32),
                                   "b": np.array([3.0, 4.0], np.float32)})
        matrix = build_embedding_matrix(vocab, table, seed=0)
        return vocab, matrix

    def test_single_token_column(self):
        vocab, matrix = self._fixture()
        out = embed(["a"], vocab, matrix)
        np.testing.assert_array_equal(out, [[1.0], [2.0]])

    def test_unknown_token_uses_unk_row(self):
        vocab, matrix = self._fixture()
        out = embed(["mystery"], vocab, matrix)
        np.testing.assert_array_equal(out[:, 0], matrix.weights[UNK_INDEX])

    def test_output_shape_matches_token_count(self):
        vocab = Vocabulary([f"w{i}" for i in range(10)])
        matrix = build_embedding_matrix(vocab, EmbeddingTable(300, {}), seed=1)
        out = embed([f"w{i % 10}" for i in range(350)], vocab, matrix)
        assert out.shape == (300, 350)

    def test_permuting_tokens_permutes_columns(self):
        vocab, matrix = self._fixture()
        ab = embed(["a", "b"], vocab, matrix)
        ba = embed(["b", "a"], vocab, matrix)
        np.testing.assert_array_equal(ab[:, [1, 0]], ba)

    def test_empty_sequence_rejected(self):
        vocab, matrix = self._fixture()
        with pytest.raises(UsageError):
            embed([], vocab, matrix)
