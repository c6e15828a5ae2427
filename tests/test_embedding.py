import numpy as np
import pytest

from delaes import (
    EmbeddingTable,
    FormatError,
    UsageError,
    Vocabulary,
    build_embedding_matrix,
    embed,
    load_embeddings,
)
from delaes.corpus import PAD_INDEX, UNK_INDEX


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

    def test_scientific_notation(self, tmp_path):
        path = write(tmp_path / "v.txt", "a 1e-3 -2.5E2\n")
        table = load_embeddings(path, expected_dim=2)
        np.testing.assert_allclose(table.vectors["a"], [1e-3, -250.0])


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
