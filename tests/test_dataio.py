import io

import numpy as np
import pytest

from conftest import LEX
from sslstm.dataio import (
    Conversation,
    DataFormatError,
    read_dataset,
    read_judgments,
    require_labeled,
    write_dataset,
)
from sslstm.metrics import dataset_stats
from sslstm.text_norm import EmoticonLexicon

SAMPLE = """# three-turn conversations
1\thi\thello\tI won! :)\thappy
2\thow are you\tfine\tmy plan is cancelled :(\tsad
3\twhat\tnothing\tleave me alone >:(\tangry
4\tok\tsure\tsee you at 5\tothers
"""


class TestReadDataset:
    def test_basic_parse(self):
        convs = read_dataset(io.StringIO(SAMPLE), LEX)
        assert [c.id for c in convs] == ["1", "2", "3", "4"]
        assert convs[0].label == "happy"
        assert convs[0].turn3 == "I won! :)"
        assert convs[1].turn1 == "how are you"

    def test_tokens_come_from_final_turn(self):
        convs = read_dataset(io.StringIO(SAMPLE), LEX)
        assert convs[0].tokens == ["i", "won", "!", ":)"]
        assert convs[0].tokens is convs[0].tokens  # cached

    def test_tokens_follow_the_lexicon_given(self):
        custom = EmoticonLexicon(LEX.entries + [("yay", ":)", "happy")])
        (packaged,) = read_dataset(io.StringIO("1\ta\tb\tyay :)\n"), LEX)
        (conv,) = read_dataset(io.StringIO("1\ta\tb\tyay :)\n"), custom)
        assert packaged.tokens == ["yay", ":)"]
        assert conv.tokens == [":)", ":)"]
        assert conv.lex is custom

    def test_unlabeled_rows(self):
        convs = read_dataset(io.StringIO("9\ta\tb\tc d e\n"), LEX)
        assert convs[0].label is None
        with pytest.raises(DataFormatError, match="no label"):
            require_labeled(convs)

    def test_mixed_label_presence_allowed(self):
        convs = read_dataset(io.StringIO("1\ta\tb\tc\n2\ta\tb\tc\tsad\n"), LEX)
        assert convs[0].label is None
        assert convs[1].label == "sad"

    def test_label_case_normalized(self):
        convs = read_dataset(io.StringIO("1\ta\tb\tc\tHappy\n"), LEX)
        assert convs[0].label == "happy"

    def test_unknown_label(self):
        with pytest.raises(DataFormatError, match=":2: unknown label 'joyful'"):
            read_dataset(io.StringIO("# c\n1\ta\tb\tc\tjoyful\n"), LEX)

    def test_wrong_column_count(self):
        with pytest.raises(DataFormatError, match=":1: expected 4 or 5.*got 3"):
            read_dataset(io.StringIO("1\ta\tb\n"), LEX)
        with pytest.raises(DataFormatError, match="got 6"):
            read_dataset(io.StringIO("1\ta\tb\tc\thappy\textra\n"), LEX)

    def test_duplicate_id(self):
        data = "1\ta\tb\tc\thappy\n1\ta\tb\tc\tsad\n"
        with pytest.raises(DataFormatError, match=":2: duplicate id '1'"):
            read_dataset(io.StringIO(data), LEX)

    def test_empty_final_turn(self):
        with pytest.raises(DataFormatError, match=":1: empty final turn"):
            read_dataset(io.StringIO("1\ta\tb\t\thappy\n"), LEX)

    def test_comments_and_blanks_skipped(self):
        data = "# header\n\n1\ta\tb\tc\thappy\n\n# done\n"
        assert len(read_dataset(io.StringIO(data), LEX)) == 1

    def test_crlf_tolerated(self):
        convs = read_dataset(io.BytesIO(b"1\ta\tb\tc\thappy\r\n"), LEX)
        assert convs[0].turn3 == "c"

    def test_empty_file(self):
        assert read_dataset(io.StringIO(""), LEX) == []

    def test_reproduces_published_distribution_shape(self):
        lines = []
        counts = {"happy": 109, "sad": 107, "angry": 90, "others": 1920}
        i = 0
        for label, n in counts.items():
            for _ in range(n):
                lines.append(f"{i}\ta\tb\tword {i}\t{label}")
                i += 1
        convs = read_dataset(io.StringIO("\n".join(lines)), LEX)
        stats = dataset_stats(convs)
        assert stats["happy"] == (109, 4.90)
        assert stats["sad"] == (107, 4.81)
        assert stats["angry"] == (90, 4.04)
        assert stats["others"] == (1920, 86.25)


class TestWriteDataset:
    def test_write_read_round_trip(self):
        convs = read_dataset(io.StringIO(SAMPLE), LEX)
        sink = io.StringIO()
        write_dataset(convs, sink)
        again = read_dataset(io.StringIO(sink.getvalue()), LEX)
        assert again == convs

    def test_read_write_byte_identical_without_comments(self):
        original = "".join(line + "\n" for line in SAMPLE.splitlines() if not line.startswith("#"))
        sink = io.StringIO()
        write_dataset(read_dataset(io.StringIO(original), LEX), sink)
        assert sink.getvalue() == original

    def test_unlabeled_round_trip(self):
        convs = [Conversation("1", "a", "b", "c", lex=LEX)]
        sink = io.StringIO()
        write_dataset(convs, sink)
        assert sink.getvalue() == "1\ta\tb\tc\n"

    def test_empty_dataset_writes_nothing(self):
        sink = io.StringIO()
        write_dataset([], sink)
        assert sink.getvalue() == ""

    def test_tabs_rejected(self):
        conv = Conversation("1", "a", "b", "has\ttab", lex=LEX)
        with pytest.raises(ValueError, match="not representable"):
            write_dataset([conv], io.StringIO())

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "data.tsv"
        convs = read_dataset(io.StringIO(SAMPLE), LEX)
        write_dataset(convs, path)
        assert read_dataset(path, LEX) == convs


class TestConversation:
    def test_label_canonicalized(self):
        assert Conversation("1", "", "", "hey", "ANGRY", lex=LEX).label == "angry"

    def test_empty_turn3_rejected(self):
        with pytest.raises(ValueError, match="turn3"):
            Conversation("1", "a", "b", "", lex=LEX)

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="id"):
            Conversation("", "a", "b", "c", lex=LEX)

    def test_context_turns_may_be_empty(self):
        conv = Conversation("1", "", "", "hello", lex=LEX)
        assert conv.tokens[0] == "hello"


class TestReadJudgments:
    def test_basic(self):
        data = "q1\t5\t0\t0\t0\nq2\t0\t5\t0\t0\n"
        matrix, n = read_judgments(io.StringIO(data))
        assert n == 5
        np.testing.assert_array_equal(matrix, [[5, 0, 0, 0], [0, 5, 0, 0]])

    def test_inconsistent_row_sum(self):
        data = "q1\t5\t0\t0\t0\nq2\t0\t4\t0\t0\n"
        with pytest.raises(DataFormatError, match=":2: row sums to 4, expected 5"):
            read_judgments(io.StringIO(data))

    def test_wrong_field_count(self):
        with pytest.raises(DataFormatError, match="expected 5 fields"):
            read_judgments(io.StringIO("q1\t5\t0\t0\n"))

    def test_non_integer(self):
        with pytest.raises(DataFormatError, match="non-integer"):
            read_judgments(io.StringIO("q1\t5\t0\t0\tx\n"))

    def test_negative_count(self):
        with pytest.raises(DataFormatError, match="negative"):
            read_judgments(io.StringIO("q1\t6\t-1\t0\t0\n"))

    def test_duplicate_item(self):
        data = "q1\t5\t0\t0\t0\nq1\t0\t5\t0\t0\n"
        with pytest.raises(DataFormatError, match="duplicate item"):
            read_judgments(io.StringIO(data))

    def test_empty_file(self):
        with pytest.raises(DataFormatError, match="no judgment rows"):
            read_judgments(io.StringIO("# nothing\n"))

    def test_single_judge_rejected(self):
        with pytest.raises(DataFormatError, match="at least 2 judges"):
            read_judgments(io.StringIO("q1\t1\t0\t0\t0\n"))
