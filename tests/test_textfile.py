"""The one reader behind every text file: the same bytes read the same way
from a path, ``bytes``, a byte stream or a text stream, and no other module
opens or splits a file itself."""

import ast
import hashlib
import io
import re
import sys
import tempfile
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LEX
import sslstm
import sslstm.textfile
from sslstm.cli import main
from sslstm.container import TruncatedCheckpointError, read_container, write_container
from sslstm.dataio import Conversation, read_dataset, read_judgments, write_dataset
from sslstm.datamine import Candidate, read_judge_queue, write_judge_queue
from sslstm.embeddings import load_embedding_file
from sslstm.text_norm import default_lexicon, load_lexicon, normalize_utterance
from sslstm.textfile import (BLOCK_BYTES, FORMAT_BLOCK, BadRow, DataFormatError, _float_rows, _lines,
                             _split_lines, _write_lines, file_sha256, float_matrix)

SRC = Path(sslstm.__file__).resolve().parent


def sources(data: bytes, directory: Path):
    """``data`` as each kind of source: its (source, label) pairs."""
    path = directory / "input.txt"
    path.write_bytes(data)
    text = data.decode("utf-8")
    return [
        (str(path), str(path)),
        (data, "<bytes>"),
        (io.BytesIO(data), "<stream>"),
        (io.StringIO(text), "<stream>"),
    ]


class TestLineRule:
    @pytest.mark.parametrize(("data", "lines"), [
        (b"", []),
        (b"\n", [""]),
        (b"a", ["a"]),
        (b"a\n", ["a"]),
        (b"a\r\nb\r\n", ["a", "b"]),
        (b"a\n\nb", ["a", "", "b"]),
        (b"a\rb\n", ["a\rb"]),
        (b"a\r\r\n", ["a\r"]),
        (b"a\r", ["a\r"]),
        ("a\u2028b\x85c\x0bd\x0ce\x1cf\n".encode(), ["a\u2028b\x85c\x0bd\x0ce\x1cf"]),
    ])
    def test_split_at_newline_only(self, data, lines):
        assert _split_lines(data, "<bytes>") == lines

    def test_non_utf8_names_the_line(self):
        with pytest.raises(DataFormatError, match=r"^f\.txt:3: not valid UTF-8"):
            _split_lines(b"a\nb\nc\xffd\n", "f.txt")


class TestSameBytesSameResult:
    def test_carriage_return_inside_a_turn(self, tmp_path):
        sink = io.StringIO()
        write_dataset([Conversation("1", "x\ry", "b", "c", "happy", lex=LEX)], sink)
        data = sink.getvalue().encode("utf-8")
        for source, _ in sources(data, tmp_path):
            assert [c.turn1 for c in read_dataset(source, LEX)] == ["x\ry"]

    def test_normalize_keeps_a_line_separator_inside_its_line(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("hello\u2028world :)\n", encoding="utf-8")
        assert main(["normalize", "--input", str(raw)]) == 0
        assert capsys.readouterr().out == "hello world :)\n"
        table = tmp_path / "emb.txt"
        table.write_text("hello 1 0\nworld 0 1\n", encoding="utf-8")
        queue = tmp_path / "queue.tsv"
        assert main(["mine", "--mode", "t1", "--seeds", str(raw), "--pool", str(raw),
                     "--emb", str(table), "--output", str(queue)]) == 0
        assert [c.utterance for c in read_judge_queue(queue)] == ["hello\u2028world :)"]

    def test_normalize_reads_stdin_bytes(self, monkeypatch, capsys):
        stdin = io.TextIOWrapper(io.BytesIO(b"a\rb :)\r\nc\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["normalize"]) == 0
        assert capsys.readouterr().out == "a b :)\nc\n"

    def test_line_separator_in_an_embedding_line_separates_fields(self):
        table = load_embedding_file("a\u20281\x852\nb 3 4\n".encode())
        assert list(table.index) == ["a", "b"]
        np.testing.assert_array_equal(table.matrix, [[1.0, 2.0], [3.0, 4.0]])


class TestNonUtf8:
    @pytest.mark.parametrize("command", [
        ["stats", "--data", "{bad}"],
        ["split", "--data", "{bad}", "--train-out", "{tmp}/a", "--val-out", "{tmp}/b"],
        ["kappa", "--judgments", "{bad}"],
        ["normalize", "--input", "{bad}"],
        ["normalize", "--input", "{tmp}/ok.txt", "--lexicon", "{bad}"],
        ["embcos", "--pairs", "{tmp}/pairs.tsv", "--emb", "e={bad}"],
        ["embcos", "--pairs", "{bad}", "--emb", "e={tmp}/emb.txt"],
        ["mine", "--mode", "t1", "--seeds", "{bad}", "--pool", "{tmp}/ok.txt",
         "--emb", "{tmp}/emb.txt"],
        ["predict", "--model", "{bad}", "--data", "{tmp}/ok.tsv"],
        ["train", "--algo", "nb", "--train", "{bad}", "--model", "{tmp}/m"],
    ], ids=["stats", "split", "kappa", "normalize", "lexicon", "embcos-table",
            "embcos-pairs", "mine", "predict-model", "train"])
    def test_every_command_exits_2_naming_file_and_line(self, tmp_path, capsys, command):
        bad = tmp_path / "bad"
        bad.write_bytes(b"a\tb\tc\td\thappy\nq\t1\t\xff\n")
        (tmp_path / "ok.txt").write_text("hi :)\n", encoding="utf-8")
        (tmp_path / "ok.tsv").write_text("1\ta\tb\tc\n", encoding="utf-8")
        (tmp_path / "emb.txt").write_text("hi 1 0\n", encoding="utf-8")
        (tmp_path / "pairs.tsv").write_text("hi\thi\n", encoding="utf-8")
        argv = [arg.format(bad=bad, tmp=tmp_path) for arg in command]
        assert main(argv) == 2
        assert f"{bad}:2: not valid UTF-8" in capsys.readouterr().err


class TestWritersWriteOnlyWhatReadsBack:
    @pytest.mark.parametrize("conv", [
        Conversation("#1", "a", "b", "c", "happy", lex=LEX),
        Conversation("1", "a", "b", "c\r", lex=LEX),
    ], ids=["comment-id", "trailing-cr"])
    def test_dataset_row_that_would_not_read_back(self, conv):
        with pytest.raises(ValueError, match="would not read back"):
            write_dataset([conv], io.StringIO())

    @pytest.mark.parametrize("cand", [
        Candidate("#blessed so happy", 0.9, "seed"),
        Candidate("  #blessed", 0.9, "seed"),
        Candidate("ok", 0.9, "seed", "reason\r"),
    ], ids=["comment", "indented-comment", "trailing-cr"])
    def test_judge_queue_row_that_would_not_read_back(self, cand):
        with pytest.raises(ValueError, match="would not read back"):
            write_judge_queue([cand], io.StringIO())

    def test_hash_inside_a_row_round_trips(self):
        sink = io.StringIO()
        write_judge_queue([Candidate("so #blessed", 0.5, "#seed")], sink)
        assert read_judge_queue(io.StringIO(sink.getvalue())) == [Candidate("so #blessed", 0.5, "#seed")]
        sink = io.StringIO()
        write_dataset([Conversation("1#", "#a", "b", "#c", lex=LEX)], sink)
        assert read_dataset(io.StringIO(sink.getvalue()), LEX)[0].turn3 == "#c"


    def test_meta_value_ending_in_carriage_return(self):
        with pytest.raises(ValueError, match="would not read back"):
            write_container(io.StringIO(), {"note": "v\r"}, {})


class TestMalformedTensorDimensions:
    @pytest.mark.parametrize("header", [
        "tensor w -1 2", "tensor w 0 -3",
        # wider than any float64 array can hold
        "tensor w 0 100000000000000000000", "tensor w 2 100000000000000000000",
        "tensor w 0 9223372036854775807", "tensor w 0 1152921504606846976",
        # more rows of no columns than that
        "tensor w 100000000000000000000 0", "tensor w 1152921504606846976 0",
    ])
    def test_malformed_dimensions(self, tmp_path, capsys, header):
        text = f"SSLSTM-CKPT 1\n{header}\nend\n"
        with pytest.raises(TruncatedCheckpointError, match="malformed tensor dimensions"):
            read_container(io.StringIO(text))
        model = tmp_path / "m.ckpt"
        model.write_text(text, encoding="utf-8")
        data = tmp_path / "d.tsv"
        data.write_text("1\ta\tb\tc\n", encoding="utf-8")
        assert main(["predict", "--model", str(model), "--data", str(data)]) == 2
        assert "malformed tensor dimensions" in capsys.readouterr().err


class TestFloatMatrix:
    @pytest.mark.parametrize(("texts", "width", "shape"), [
        ([], None, (0, 0)), ([], 3, (0, 3)), (["1 2", "3\t4"], None, (2, 2)), (["5"], 1, (1, 1)),
    ])
    def test_shape(self, texts, width, shape):
        assert float_matrix(texts, width).shape == shape

    def test_forms_only_float_reads(self):
        matrix = float_matrix(["1_0 ١٢", "0.5\r-2"])
        assert matrix.tobytes() == np.array([[10.0, 12.0], [0.5, -2.0]]).tobytes()

    @pytest.mark.parametrize(("texts", "width", "bad"), [
        (["1 2", "3"], None, (1, 1, 2, True)),
        (["1 2"], 3, (0, 2, 3, True)),
        (["x 1"], None, (0, 2, None, False)),
        (["1", " ", "2"], None, (1, 0, 1, True)),  # the C parser skips the blank line
        ([" ", "1"], None, (1, 1, 0, True)),
        (["1 2", "3 y"], 2, (1, 2, 2, False)),
    ])
    def test_bad_row(self, texts, width, bad):
        with pytest.raises(BadRow) as caught:
            float_matrix(texts, width)
        assert (caught.value.row, caught.value.values, caught.value.width, caught.value.numeric) == bad


def repr_mismatch(mat: np.ndarray):
    """None when :func:`_float_rows` gives each row of ``mat`` as its values'
    ``repr``, space-separated, as a line (the oracle); else where it first
    does not, and the two texts there."""
    lines = list(_float_rows(mat))
    if len(lines) != len(mat):
        return "rows", len(lines), len(mat)
    for r, (line, row) in enumerate(zip(lines, mat.tolist())):
        if line != " ".join(map(repr, row)) + "\n":
            texts = line.removesuffix("\n").split(" ")
            for c, value in enumerate(row):
                if c == len(texts) or texts[c] != repr(value):
                    return (r, c), texts[c:c + 1], repr(value)
            return (r, "line"), line[-40:]
    return None


@st.composite
def bit_pattern_matrices(draw):
    """float64 matrices of more values than one kernel block, from int64 bit
    patterns: random ones (half of them with exponents near the kernel's
    range) from a drawn seed, and drawn ones, non-finite values and
    subnormals among them, at drawn places, the block edges included."""
    width = draw(st.sampled_from([1, 7, 256, FORMAT_BLOCK - 1, FORMAT_BLOCK + 3]))
    rows = -(-(FORMAT_BLOCK + draw(st.integers(1, FORMAT_BLOCK))) // width)
    size = rows * width
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(-2**63, 2**63, size, dtype=np.int64)
    near = rng.random(size) < 0.5
    exponents = rng.integers(1023 - 110, 1023 + 60, size, dtype=np.int64) << 52
    bits[near] = (bits[near] & ~(0x7FF << 52)) | exponents[near]
    for _ in range(draw(st.integers(0, 30))):
        place = draw(st.sampled_from([0, FORMAT_BLOCK - 1, FORMAT_BLOCK, size - 1])
                     | st.integers(0, size - 1))
        bits[place] = draw(st.integers(-2**63, 2**63 - 1))
    return bits.view(np.float64).reshape(rows, width)


def hard_values() -> list[float]:
    """Values whose shortest digits are hard to find, with both float
    neighbours of each: 10**k for k from -30 to 22 and every power of two;
    1 to 17 significant digits at every decimal exponent from -34 to 21, as
    a prefix of 98765432109876543 or as 1 0...0 1; exact binary fractions;
    1e23, the least subnormal, the largest float and -0.0.  Both signs."""
    values = [float(f"1e{k}") for k in range(-30, 23)]
    values += [2.0**e for e in range(-1074, 1024)]
    for digits in range(1, 18):
        for mantissa in ("98765432109876543"[:digits], "1" + "0" * (digits - 2) + "1"):
            values += [float(f"{mantissa[:digits]}e{e}") for e in range(-33 - digits, 23 - digits)]
    values += [0.125, 0.375, 2.5, 0.75, 1.5, 1e23, 5e-324, sys.float_info.max, 0.0]
    around = np.array(values)
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        around = np.concatenate([around, np.nextafter(around, -np.inf), np.nextafter(around, np.inf)])
    return [*around.tolist(), *(-around).tolist()]


class TestFloatRows:
    """:func:`_float_rows` gives ``repr``'s text through its kernel."""

    @settings(max_examples=15, deadline=None)
    @given(mat=bit_pattern_matrices())
    def test_bit_patterns_match_repr(self, mat):
        assert repr_mismatch(mat) is None

    @pytest.mark.parametrize("width", [1, 9])
    def test_hard_values_match_repr(self, width):
        values = hard_values()
        mat = np.array(values[:len(values) // width * width]).reshape(-1, width)
        assert repr_mismatch(mat) is None

    def test_a_large_low_part_is_carried(self):
        # From 7.2058e16 units up, the product's high part steps by 16 and
        # its low part reaches 8 either way.
        mat = np.array([np.linspace(7.2058, 9.9999, 500) * 10.0**e for e in range(-29, 16)])
        mat = np.concatenate([mat, np.nextafter(mat, 0), np.nextafter(mat, np.inf)])
        assert repr_mismatch(mat) is None

    def test_just_below_one_digit(self):
        # d * 10**e lies just above these, farther than half an ulp: their
        # repr has 16 or 17 digits, not one.
        ones = np.array([float(f"{d}e{e}") for d in range(1, 10) for e in range(-29, 16)])
        mat = np.stack([ones, np.nextafter(ones, 0), np.nextafter(np.nextafter(ones, 0), 0)])
        assert repr_mismatch(mat) is None

    def test_weights_take_the_fast_path(self, monkeypatch):
        mat = np.random.default_rng(1).normal(0, 0.1, (128, 512))
        sent = []
        repr_texts = sslstm.textfile._repr_texts
        monkeypatch.setattr(sslstm.textfile, "_repr_texts",
                            lambda values: sent.append(values.size) or repr_texts(values))
        assert repr_mismatch(mat) is None
        assert sum(sent) < 0.01 * mat.size


class TestEmoticonBeforeCombiningMark:
    def test_mark_after_a_letter_final_emoticon_stays_in_the_word(self):
        assert normalize_utterance("xD\u0301", LEX) == normalize_utterance("xd\u0301", LEX)
        assert normalize_utterance("xD\u0301", LEX) == ["xd\u0301"]
        got = normalize_utterance("ok <3\u0301 :D\u0301", LEX)
        assert got == ["ok", "<", "3\u0301", ":", "d\u0301"]

    def test_mark_after_a_punctuation_final_emoticon_splits_off(self):
        assert normalize_utterance(":(\u0301", LEX) == [":(", "\u0301"]

    def test_ascii_text_never_needs_the_mark_scanner(self):
        lex = default_lexicon()
        lex.__dict__.pop("_mark_scanner", None)
        normalize_utterance("xD :D <3 lol :-P xd", lex)
        assert "_mark_scanner" not in lex.__dict__


# Noise: letters, tabs, digits, '#', and every character str.splitlines
# breaks at except \n.  Each format's lines (``{i}`` is the line's index,
# so ids and tokens stay unique) hold some of them too, and the file gets a
# head and a tail of its own.
CHARS = "ab:)# \t01.\r\u2028 \x85\x0b\x0c\x1c\x1d\x1e"
noise = st.text(st.sampled_from(CHARS), max_size=12)
FORMATS = {
    read_dataset: ("", ["{i}\ta\tb\tc\thappy", "{i}\tx\ry\t\u2028\tz\x85", "# note", "  # x", ""], ""),
    read_judgments: ("", ["q{i}\t1\t1\t0\t0", "q{i}\t0\t2\t0\t0\r", "# note", ""], ""),
    read_judge_queue: ("", ["q\u2028{i}\t0.5\tseed\t", "# note", "  # x", "", "x\ry\t1\t\x85\tlength"], ""),
    load_lexicon: (":)\t:)\thappy", ["{i}:)\t:)\thappy", "{i}x\u2028\t:)\thappy", "# note", "", "\u2028"], ""),
    load_embedding_file: ("", ["a{i} 1 2", "b{i}\u20283\x854", "c{i} 5\r6", "# 1 2", ""], ""),
    read_container: ("SSLSTM-CKPT 1", ["meta k=v\u2028w", "tensor w{i} 1 2\n1\u20282", "tensor v{i} 1 1\n3\r", ""], "end"),
}


def outcome(reader, source, label):
    """A reader's result in comparable form, or its error's type and message
    with the source's label factored out."""
    try:
        value = reader(source, LEX) if reader is read_dataset else reader(source)
    except Exception as exc:
        return type(exc), str(exc).replace(label, "<label>")
    if reader is read_judgments:
        return value[0].tolist(), value[1]
    if reader is load_lexicon:
        return value.entries
    if reader is load_embedding_file:
        return list(value.index), value.matrix.tobytes(), value.source_sha256
    if reader is read_container:
        return value[0], {name: mat.tobytes() for name, mat in value[1].items()}
    return value


def draw_lines(draw, reader) -> list[str]:
    """The lines of a file of ``reader``'s format, with or without one line
    of noise."""
    head, templates, tail = FORMATS[reader]
    picks = draw(st.lists(st.sampled_from(templates), max_size=6))
    lines = [head] + [t.format(i=i) for i, t in enumerate(picks)] + [tail]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    return lines


def draw_ends(draw, n: int) -> list[str]:
    """Line ends for ``n`` lines, with or without one after the last."""
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in range(n)]
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return ends


def joined(lines, ends) -> bytes:
    return "".join(map(str.__add__, lines, ends)).encode("utf-8")


@st.composite
def files(draw, reader):
    """A file of ``reader``'s format as bytes."""
    lines = draw_lines(draw, reader)
    return joined(lines, draw_ends(draw, len(lines)))


class TestEveryReaderReadsEverySourceAlike:
    @pytest.mark.parametrize("reader", list(FORMATS), ids=lambda r: r.__name__)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_same_value_or_same_error(self, reader, data):
        content = data.draw(files(reader))
        with tempfile.TemporaryDirectory() as tmp:
            first, *others = [outcome(reader, source, label)
                              for source, label in sources(content, Path(tmp))]
        assert others == [first] * 3


# Whitespace, then nothing or a '#' and noise: lines the skip rule skips.
skipped_lines = st.builds(str.__add__, st.text(st.sampled_from(" \t\r\x0b\x0c\x1c\x85\u2028"), max_size=3),
                          st.one_of(st.just(""), noise.map("#".__add__)))
TSV_READERS = [read_dataset, read_judgments, read_judge_queue, load_lexicon]


@st.composite
def files_and_with_a_skipped_line(draw, reader):
    """A file of ``reader``'s format, and the same file with one skipped
    line inserted before one of its lines, as bytes."""
    lines = draw_lines(draw, reader)
    ends = draw_ends(draw, len(lines))
    k = draw(st.integers(0, len(lines) - 1))
    line, end = draw(skipped_lines), draw(st.sampled_from(["\n", "\r\n"]))
    return joined(lines, ends), joined(lines[:k] + [line] + lines[k:], ends[:k] + [end] + ends[k:])


# How many fields make one record of each writer; ``_write_lines`` writes
# lines, which hold no newline.
WRITER_FIELDS = {write_dataset: 4, write_judge_queue: 3, _write_lines: 1}


def record_of(writer, fields, label):
    """The record ``writer`` writes as ``fields``."""
    if writer is write_dataset:
        return Conversation(*fields, label, lex=LEX)
    if writer is _write_lines:
        return fields[0]
    return Candidate(fields[0], 0.5, fields[1], fields[2])


def reads_back(writer, record) -> bool:
    """Whether the record's fields, tab-joined on one line, read back as it."""
    if writer is _write_lines:
        return _lines(io.StringIO(record + "\n"))[0] == [record]
    if writer is write_dataset:
        fields = [record.id, record.turn1, record.turn2, record.turn3]
        fields += [] if record.label is None else [record.label]
        read = partial(read_dataset, lex=LEX)
    else:
        fields = [record.utterance, "0.5", record.matched, record.reason]
        read = read_judge_queue
    try:
        return read(io.StringIO("\t".join(fields) + "\n")) == [record]
    except DataFormatError:
        return False


class TestOneSkipRule:
    @pytest.mark.parametrize("reader", TSV_READERS, ids=lambda r: r.__name__)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_skipped_line_changes_no_result(self, reader, data):
        content, with_skipped = data.draw(files_and_with_a_skipped_line(reader))

        def result(source):  # line numbers in messages shift with the insert
            got = outcome(reader, source, "<bytes>")
            failed = isinstance(got, tuple) and isinstance(got[0], type)
            return (got[0], re.sub(r":\d+:", ":N:", got[1])) if failed else got

        assert result(with_skipped) == result(content)

    @pytest.mark.parametrize("writer", WRITER_FIELDS, ids=lambda w: w.__name__)
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_writer_refuses_exactly_the_rows_that_would_not_read_back(self, writer, data):
        alphabet = CHARS if writer is _write_lines else CHARS + "\n"
        n_fields = WRITER_FIELDS[writer]
        fields = data.draw(st.lists(st.text(st.sampled_from(alphabet), max_size=4),
                                    min_size=n_fields, max_size=n_fields))
        label = data.draw(st.sampled_from([None, "happy"]))
        try:
            record = record_of(writer, fields, label)
        except ValueError:
            return  # an empty id or final turn: no record to write
        sink = io.StringIO()
        try:
            writer([record], sink)
        except ValueError:
            assert sink.getvalue() == ""
            assert not reads_back(writer, record)
        else:
            assert reads_back(writer, record)

    @pytest.mark.parametrize("line", ["", " ", "\t\t", " \u2028", "# x", "  # x", "\t#1\ta\tb\tc"])
    @pytest.mark.parametrize(("reader", "row"), [
        (read_dataset, "1\ta\tb\tc\thappy"),
        (read_judgments, "q\t1\t1\t0\t0"),
        (load_lexicon, "x:\t:)\thappy"),
        (read_judge_queue, "q\t0.5\tseed\t"),
    ], ids=lambda r: getattr(r, "__name__", None))
    def test_blank_and_indented_comment_lines_are_skipped(self, reader, row, line):
        assert outcome(reader, f"{row}\n{line}\n".encode(), "") == outcome(reader, f"{row}\n".encode(), "")

    @pytest.mark.parametrize("conv_id", ["#1", "  #1", "\u2028#"])
    def test_write_dataset_refuses_a_comment_id(self, conv_id):
        with pytest.raises(ValueError, match="would not read back"):
            write_dataset([Conversation(conv_id, "a", "b", "c", lex=LEX)], io.StringIO())

    def test_no_module_but_textfile_tests_for_a_comment(self):
        offenders = {
            path.name: hits
            for path in sorted(SRC.glob("*.py"))
            if (hits := _comment_tests(ast.parse(path.read_text(encoding="utf-8"))))
        }
        assert offenders == {"textfile.py": ["_skipped"]}


def _comment_tests(tree: ast.AST) -> list[str]:
    """The functions of one module that call ``startswith`` with a string
    starting with ``#``."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "startswith" and node.args
                    and any(isinstance(c, ast.Constant) and str(c.value).startswith("#")
                            for c in ast.walk(node.args[0]))):
                found.append(fn.name)
    return found


def _file_text_violations(tree: ast.AST) -> list[str]:
    """Calls of ``open``, ``.splitlines``, ``.split("\\n")`` and uses of
    ``TextIOWrapper``, by line, in one module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                found.append(f"{node.lineno}: open(")
            if isinstance(func, ast.Attribute) and func.attr in ("open", "splitlines", "read_text",
                                                                 "read_bytes", "write_text"):
                found.append(f"{node.lineno}: .{func.attr}(")
            if (isinstance(func, ast.Attribute) and func.attr == "split" and node.args
                    and isinstance(node.args[0], ast.Constant) and node.args[0].value == "\n"):
                found.append(f"{node.lineno}: .split('\\n')")
        if isinstance(node, (ast.Name, ast.Attribute)) and "TextIOWrapper" in (
                getattr(node, "id", None), getattr(node, "attr", None)):
            found.append(f"{node.lineno}: TextIOWrapper")
    return found


class TestOneReader:
    def test_no_module_but_textfile_opens_or_splits_file_text(self):
        modules = sorted(SRC.glob("*.py"))
        assert SRC / "textfile.py" in modules
        offenders = {
            path.name: hits
            for path in modules if path.name != "textfile.py"
            if (hits := _file_text_violations(ast.parse(path.read_text(encoding="utf-8"))))
        }
        assert offenders == {}

    def test_one_function_opens_for_reading_and_one_splits_lines(self):
        tree = ast.parse((SRC / "textfile.py").read_text(encoding="utf-8"))
        where = {}
        for fn in (n for n in tree.body if isinstance(n, ast.FunctionDef)):
            for hit in _file_text_violations(fn):
                where.setdefault(re.sub(r"^\d+: ", "", hit), []).append(fn.name)
        assert where == {"open(": ["_open_read", "_open_write"], ".split('\\n')": ["_split_lines"]}


@st.composite
def block_and_size(draw):
    """A block size and a file size about it: empty, one byte, one block
    give or take a byte, or several blocks and a remainder."""
    block = draw(st.integers(2, 64))
    several = draw(st.integers(2, 5)) * block + draw(st.integers(1, block - 1))
    return block, draw(st.sampled_from([0, 1, block - 1, block, block + 1, several]))


class TestBlockDigest:
    @settings(max_examples=80, deadline=None)
    @given(block_size=block_and_size(), seed=st.binary(max_size=8))
    def test_equals_the_digest_of_the_whole_file(self, block_size, seed):
        block, size = block_size
        data = (hashlib.sha512(seed).digest() * (size // 64 + 1))[:size]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.txt"
            path.write_bytes(data)
            with mock.patch.object(sslstm.textfile, "BLOCK_BYTES", block):
                assert file_sha256(path) == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("size", [BLOCK_BYTES - 1, BLOCK_BYTES, 3 * BLOCK_BYTES + 1])
    def test_at_the_real_block_size(self, tmp_path, size):
        data = bytes(range(256)) * (size // 256) + b"x" * (size % 256)
        path = tmp_path / "table.txt"
        path.write_bytes(data)
        assert file_sha256(str(path)) == hashlib.sha256(data).hexdigest()
