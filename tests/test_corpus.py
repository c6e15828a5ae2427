import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from delaes import (
    DEFAULT_RANGES,
    EncodingError,
    FormatError,
    ScoreRangeError,
    UsageError,
    Vocabulary,
    build_vocabulary,
    denormalize_score,
    load_dataset,
    load_unscored,
    normalize_score,
    tokenize,
)
from delaes.corpus import (
    PAD_INDEX,
    PAD_TOKEN,
    UNK_INDEX,
    UNK_TOKEN,
    Essay,
    EssaySet,
    ScoreRange,
    text_lines,
)

from oracles import undecodable_byte_report


class TestTokenize:
    def test_anonymization_markers_kept_whole(self):
        assert tokenize("Dear newspaper, @caps1 having") == \
            ["dear", "newspaper", ",", "@caps1", "having"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_apostrophes_and_final_period(self):
        # golden expectation derived by hand from the splitting rules
        assert tokenize("don't STOP.") == ["don", "'", "t", "stop", "."]

    def test_marker_with_trailing_punctuation(self):
        assert tokenize("about @num1. Really") == ["about", "@num1", ".", "really"]

    def test_numbers_and_hyphens(self):
        assert tokenize("well-known 42 things") == ["well", "-", "known", "42", "things"]

    @given(st.text(max_size=200))
    def test_idempotent_on_own_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.text(max_size=200))
    def test_always_lowercase(self, text):
        for token in tokenize(text):
            assert token == token.lower()


class TestScoreScaling:
    def test_midpoint(self):
        assert normalize_score(3, ScoreRange(1, 2, 4)) == 0.5

    def test_prompt7_arithmetic(self):
        assert normalize_score(9, DEFAULT_RANGES[7]) == pytest.approx(0.3)

    def test_denormalize_examples(self):
        assert denormalize_score(0.5, ScoreRange(1, 2, 4)) == 3
        assert denormalize_score(1.0, DEFAULT_RANGES[8]) == 60
        assert denormalize_score(0.3, DEFAULT_RANGES[7]) == 9

    def test_half_rounds_away_from_zero(self):
        # 0.25 * span 2 = 0.5 above min
        assert denormalize_score(0.25, ScoreRange(1, 0, 2)) == 1

    def test_denormalize_domain_error(self):
        from delaes import DomainError
        with pytest.raises(DomainError):
            denormalize_score(1.2, ScoreRange(1, 2, 4))

    def test_out_of_range_score(self):
        with pytest.raises(ScoreRangeError):
            normalize_score(5, ScoreRange(1, 2, 4))

    @given(st.sampled_from(list(DEFAULT_RANGES.values())), st.data())
    def test_round_trip_every_integer(self, score_range, data):
        raw = data.draw(st.integers(score_range.min_score, score_range.max_score))
        assert denormalize_score(normalize_score(raw, score_range), score_range) == raw


class TestVocabulary:
    def _sets(self, texts):
        essays = tuple(
            Essay(i + 1, tuple(tokenize(t)), 2) for i, t in enumerate(texts)
        )
        return [EssaySet(essays, ScoreRange(1, 2, 4))]

    def test_min_count_prunes(self):
        vocab = build_vocabulary(self._sets(["a a b"]), min_count=2)
        assert vocab.index("a") == 2
        assert vocab.index("b") == UNK_INDEX
        assert vocab.size == 3

    def test_lexicographic_tie_break(self):
        vocab = build_vocabulary(self._sets(["a b"]), min_count=1)
        assert vocab.index("a") == 2
        assert vocab.index("b") == 3

    def test_frequency_order(self):
        vocab = build_vocabulary(self._sets(["b b a"]), min_count=1)
        assert vocab.index("b") == 2
        assert vocab.index("a") == 3

    def test_deterministic(self):
        sets = self._sets(["c a b b", "a c c"])
        first = build_vocabulary(sets)
        second = build_vocabulary(sets)
        assert first.corpus_tokens() == second.corpus_tokens()

    def test_reserved_slots(self):
        vocab = build_vocabulary(self._sets(["x"]))
        assert vocab.index(PAD_TOKEN) == PAD_INDEX
        assert vocab.index(UNK_TOKEN) == UNK_INDEX
        assert vocab.index("never-seen") == UNK_INDEX

    def test_encoded_essay_never_holds_padding(self):
        vocab = build_vocabulary(self._sets(["x"]))
        got = vocab.encode(["x", PAD_TOKEN, UNK_TOKEN, "never-seen"])
        assert got == [2, UNK_INDEX, UNK_INDEX, UNK_INDEX]

    def test_min_count_validation(self):
        with pytest.raises(UsageError):
            build_vocabulary(self._sets(["a"]), min_count=0)


TSV_HEADER = "essay_id\tessay_set\tessay\tdomain1_score"


def write(path, text, encoding="latin-1"):
    with open(path, "w", encoding=encoding) as fh:
        fh.write(text)
    return path


class TestLoadDataset:
    def test_basic_row(self, tmp_path):
        path = write(tmp_path / "d.tsv",
                     f"{TSV_HEADER}\n1\t1\tDear newspaper, hello\t3\n")
        loaded = load_dataset(path, 1, ScoreRange(1, 2, 4))
        assert len(loaded) == 1
        essay = loaded.essays[0]
        assert essay.raw_score == 3
        assert essay.tokens[0] == "dear"

    def test_filters_other_prompts(self, tmp_path):
        # Essay ids are unique per prompt, so id 1 may recur in prompt 2.
        path = write(tmp_path / "d.tsv", f"{TSV_HEADER}\n1\t1\thello there\t3\n"
                     "2\t2\tbye now\t4\n1\t2\tagain\t4\n")
        loaded = load_dataset(path, 1, ScoreRange(1, 2, 4))
        assert [e.essay_id for e in loaded] == [1]

    def test_zero_matching_rows(self, tmp_path):
        path = write(tmp_path / "d.tsv", f"{TSV_HEADER}\n5\t2\tsome text\t4\n")
        loaded = load_dataset(path, 1, ScoreRange(1, 2, 4))
        assert len(loaded) == 0

    def test_duplicate_id_is_a_format_error_naming_the_file(self, tmp_path):
        path = write(tmp_path / "dup.tsv", f"{TSV_HEADER}\n1\t1\tfirst essay\t3\n"
                     "2\t1\tsecond\t4\n1\t1\tagain\t2\n")
        with pytest.raises(FormatError, match=r"dup\.tsv: duplicate essay id 1"):
            load_dataset(path, 1, ScoreRange(1, 2, 4))

    def test_missing_column_named(self, tmp_path):
        path = write(tmp_path / "d.tsv",
                     "essay_id\tessay_set\tessay\n1\t1\thello\n")
        with pytest.raises(FormatError, match="domain1_score"):
            load_dataset(path, 1, ScoreRange(1, 2, 4))

    def test_out_of_range_cites_essay_id(self, tmp_path):
        path = write(tmp_path / "d.tsv", f"{TSV_HEADER}\n7\t1\thello world\t9\n")
        with pytest.raises(ScoreRangeError, match="essay 7") as err:
            load_dataset(path, 1, ScoreRange(1, 2, 4))
        assert str(err.value).startswith(f"{path}:2: essay 7: score 9 outside range")

    def test_essay_without_tokens_cites_path_and_line(self, tmp_path):
        path = write(tmp_path / "d.tsv",
                     f"{TSV_HEADER}\n\n1\t1\thello\t3\n8\t1\t   \t3\n")
        with pytest.raises(FormatError) as err:
            load_dataset(path, 1, ScoreRange(1, 2, 4))
        assert str(err.value) == f"{path}:4: essay 8: no tokens after tokenization"
        with pytest.raises(FormatError) as err:
            load_unscored(path, 1)
        assert str(err.value).startswith(f"{path}:4: essay 8:")

    def test_range_of_another_prompt_rejected(self, tmp_path):
        path = write(tmp_path / "d.tsv", f"{TSV_HEADER}\n1\t1\thello\t3\n")
        with pytest.raises(UsageError, match="prompt 2, not 1"):
            load_dataset(path, 1, ScoreRange(2, 2, 4))

    def test_embedded_tab_rejected(self, tmp_path):
        path = write(tmp_path / "d.tsv",
                     f"{TSV_HEADER}\n1\t1\thello\tworld again\t3\n")
        with pytest.raises(FormatError, match="tab"):
            load_dataset(path, 1, ScoreRange(1, 2, 4))

    def test_undecodable_utf8(self, tmp_path):
        path = tmp_path / "d.tsv"
        with open(path, "wb") as fh:
            fh.write(TSV_HEADER.encode() + b"\n1\t1\tcaf\xe9 essay\t3\n")
        with pytest.raises(EncodingError):
            load_dataset(path, 1, ScoreRange(1, 2, 4), encoding="utf8")
        # latin-1 accepts the same bytes
        loaded = load_dataset(path, 1, ScoreRange(1, 2, 4), encoding="latin1")
        assert "café" in loaded.essays[0].tokens

    @pytest.mark.parametrize("encoding", ["utf-8", "UTF8", "latin-1", "Latin1", "cp1252",
                                          None, ["utf8"]])
    def test_only_the_two_encoding_names_accepted(self, tmp_path, encoding):
        path = write(tmp_path / "d.tsv", f"{TSV_HEADER}\n1\t1\tessay\t3\n")
        with pytest.raises(UsageError, match="unsupported encoding"):
            list(text_lines(path, encoding))

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_undecodable_byte_named_by_line_and_file_offset(self, tmp_path, ending):
        # Far past the text reader's 8 KB decoding chunk, after rows with
        # mixed line endings and a blank line.
        rows = [TSV_HEADER, ""] + [f"{i}\t1\tessay number {i} here\t3"
                                   for i in range(1, 1500)]
        head = ("\r\n".join(rows[:3]) + "\r" + ending.join(rows[3:]) + ending).encode()
        path = tmp_path / "d.tsv"
        path.write_bytes(head + b"1500\t1\tcaf\xe9\t3" + ending.encode())
        offset = len(head) + len(b"1500\t1\tcaf")
        assert offset > 16384
        with pytest.raises(EncodingError) as err:
            load_dataset(path, 1, ScoreRange(1, 2, 4), encoding="utf8")
        assert f"{path}:1502:" in str(err.value)
        assert f"byte 0xe9 at file offset {offset}" in str(err.value)

    def test_bad_row_before_an_undecodable_byte_is_reported(self, tmp_path):
        # Both lie in the text reader's first decoding chunk; the row comes
        # first in the file, so its error is the one reported.
        path = tmp_path / "d.tsv"
        path.write_bytes(TSV_HEADER.encode() + b"\n1\t1\tshort row\n2\t1\tcaf\xe9\t3\n")
        with pytest.raises(FormatError, match=r"d.tsv:2: expected 4 tab-separated") as err:
            load_dataset(path, 1, ScoreRange(1, 2, 4), encoding="utf8")
        assert not isinstance(err.value, EncodingError)

    def test_truncated_sequence_at_end_named(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_bytes(TSV_HEADER.encode() + b"\n1\t1\tcaf\xc3")
        with pytest.raises(EncodingError, match=r":2: .* file offset "
                           + str(len(TSV_HEADER) + 8)):
            load_dataset(path, 1, ScoreRange(1, 2, 4), encoding="utf8")

    @pytest.mark.parametrize("char", ["\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_control_character_inside_essay_stays_in_its_row(self, tmp_path, char):
        # 0x85 is the Windows-1252 ellipsis of the latin-1 ASAP file.
        path = write(tmp_path / "d.tsv",
                     f"{TSV_HEADER}\n1\t1\tWell{char} then we go\t3\n2\t1\tnext\t4\n")
        loaded = load_dataset(path, 1, ScoreRange(1, 2, 4))
        assert [e.essay_id for e in loaded] == [1, 2]
        assert loaded.essays[0].tokens == ("well", "then", "we", "go")

    def test_crlf_file_with_trailing_empty_column_loads(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_bytes(f"{TSV_HEADER}\trater3\r\n1\t1\thello there\t3\t\r\n"
                         f"2\t1\tbye now\t4\t\r\n".encode("latin-1"))
        loaded = load_dataset(path, 1, ScoreRange(1, 2, 4))
        assert [(e.essay_id, e.raw_score) for e in loaded] == [(1, 3), (2, 4)]
        assert loaded.essays[1].tokens == ("bye", "now")

    def test_error_line_number_counts_blank_lines(self, tmp_path):
        path = write(tmp_path / "blank.tsv",
                     f"{TSV_HEADER}\n\n\n1\t1\thello\t3\n2\t1\tbroken row\n")
        with pytest.raises(FormatError, match=r"blank\.tsv:5:"):
            load_dataset(path, 1, ScoreRange(1, 2, 4))

    def test_extra_columns_ignored(self, tmp_path):
        path = write(tmp_path / "d.tsv",
                     "essay_id\tessay_set\tessay\tdomain1_score\trater3\n"
                     "1\t1\thello world\t3\textra\n")
        loaded = load_dataset(path, 1, ScoreRange(1, 2, 4))
        assert loaded.essays[0].raw_score == 3

    def test_deterministic_and_order_preserving(self, tmp_path):
        rows = "\n".join(f"{i}\t1\tessay number {i} text\t{2 + i % 3}"
                         for i in range(1, 11))
        path = write(tmp_path / "d.tsv", f"{TSV_HEADER}\n{rows}\n")
        first = load_dataset(path, 1, ScoreRange(1, 2, 4))
        second = load_dataset(path, 1, ScoreRange(1, 2, 4))
        assert [e.essay_id for e in first] == list(range(1, 11))
        assert first == second


# Valid text, line endings, and UTF-8 sequences valid, invalid and cut short.
_BYTE_PIECES = [b"a", b"word ", b"\t", b" ", b"\n", b"\r\n", b"\r",
                "\u00e9".encode(), "\u20ac".encode(), "\U0001d11e".encode(),
                b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9d\x84",
                b"\xed\xa0\x80", b"\xc0\xaf"]
# Mixed line endings, cut anywhere, so a \r\n may span the join.
_FILLER = b"essay row\r\nnext\rlast\n" * 3500


@st.composite
def byte_files(draw):
    """Bytes of a file, some past 64 KB, whose tail mixes every piece."""
    size = draw(st.sampled_from([0, 0, 0, 0, 8191, 65535, 65537, 70000]))
    tail = draw(st.lists(st.sampled_from(_BYTE_PIECES), max_size=25))
    return _FILLER[:size + draw(st.integers(0, 2))] + b"".join(tail)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(byte_files())
def test_undecodable_byte_report_matches_whole_file_oracle(tmp_path, data):
    path = tmp_path / "d.txt"
    path.write_bytes(data)
    expected = undecodable_byte_report(path, data, "utf-8")
    if expected is None:
        list(text_lines(path, "utf8"))
        return
    with pytest.raises(EncodingError) as err:
        list(text_lines(path, "utf8"))
    assert str(err.value) == expected


class TestLoadUnscored:
    def test_scores_not_required(self, tmp_path):
        path = write(tmp_path / "d.tsv",
                     "essay_id\tessay_set\tessay\n9\t1\tan essay\n")
        rows = load_unscored(path, 1)
        assert rows == [(9, ("an", "essay"))]

    def test_fully_empty_file_is_zero_rows(self, tmp_path):
        path = write(tmp_path / "d.tsv", "")
        assert load_unscored(path, 1) == []

    def test_duplicate_id_rejected_naming_it(self, tmp_path):
        path = write(tmp_path / "d.tsv", "essay_id\tessay_set\tessay\n"
                     "7\t1\tfirst essay\n8\t1\tsecond\n7\t1\tagain\n")
        with pytest.raises(FormatError, match="duplicate essay id 7"):
            load_unscored(path, 1)

    def test_same_id_in_another_prompt_is_not_scored(self, tmp_path):
        path = write(tmp_path / "d.tsv", "essay_id\tessay_set\tessay\n"
                     "7\t1\tfirst essay\n7\t2\tother prompt\n")
        assert load_unscored(path, 1) == [(7, ("first", "essay"))]


class TestEssaySetInvariants:
    def test_duplicate_ids_rejected(self):
        essays = (Essay(1, ("a",), 2), Essay(1, ("b",), 2))
        with pytest.raises(UsageError):
            EssaySet(essays, ScoreRange(1, 2, 4))

    @pytest.mark.parametrize("raw_score", [9, -1])
    def test_score_outside_range_names_the_essay(self, raw_score):
        essays = (Essay(3, ("a",), 1), Essay(8, ("b",), raw_score))
        with pytest.raises(ScoreRangeError) as err:
            EssaySet(essays, ScoreRange(1, 0, 2))
        assert str(err.value) == f"essay 8: score {raw_score} outside range 0-2"

    def test_essay_without_tokens_names_the_essay(self):
        essays = (Essay(3, ("a",), 1), Essay(4, (), 1))
        with pytest.raises(UsageError, match="^essay 4: no tokens$"):
            EssaySet(essays, ScoreRange(1, 0, 2))

    def test_vocabulary_rejects_reserved(self):
        with pytest.raises(UsageError):
            Vocabulary([PAD_TOKEN])
