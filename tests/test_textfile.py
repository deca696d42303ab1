"""The one reader behind every text file: the same bytes read the same way
from a path, ``bytes``, a byte stream or a text stream, and no other module
opens or splits a file itself."""

import ast
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LEX
import sslstm
from sslstm.cli import main
from sslstm.container import TruncatedCheckpointError, read_container, write_container
from sslstm.dataio import Conversation, read_dataset, read_judgments, write_dataset
from sslstm.datamine import Candidate, read_judge_queue, write_judge_queue
from sslstm.embeddings import load_embedding_file
from sslstm.text_norm import default_lexicon, load_lexicon, normalize_utterance
from sslstm.textfile import DataFormatError, _split_lines

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


class TestNegativeTensorDimensions:
    @pytest.mark.parametrize("header", ["tensor w -1 2", "tensor w 0 -3"])
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
        value = reader(source)
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


@st.composite
def files(draw, reader):
    """A file of ``reader``'s format as bytes, with or without one line of
    noise and a line end after the last line."""
    head, templates, tail = FORMATS[reader]
    picks = draw(st.lists(st.sampled_from(templates), max_size=6))
    lines = [head] + [t.format(i=i) for i, t in enumerate(picks)] + [tail]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(map(str.__add__, lines, ends)).encode("utf-8")


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
        assert where == {"open(": ["_read", "_open_write"], ".split('\\n')": ["_split_lines"]}
