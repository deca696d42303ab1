import hashlib
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sslstm.embeddings
from conftest import LEX, make_table
from sslstm.embeddings import (
    EmbeddingFormatError,
    EmbeddingTable,
    cosine,
    cosines,
    empty_table,
    load_embedding_file,
    lookup,
    save_embedding_file,
    sentence_embedding,
)
from sslstm.text_norm import normalize_utterance


def load_str(text):
    return load_embedding_file(io.StringIO(text))


def table_text(table, header):
    """The text ``save_embedding_file`` writes, after a ``COUNT DIM`` header
    line when ``header`` is set."""
    sink = io.StringIO()
    save_embedding_file(table, sink)
    return (f"{len(table)} {table.dim}\n" if header else "") + sink.getvalue()


class TestLoad:
    def test_basic_readback(self):
        t = load_str("a 1.0 0.0\nb 0.0 1.0")
        assert t.dim == 2
        assert len(t) == 2
        np.testing.assert_array_equal(t.matrix[t.index["a"]], [1.0, 0.0])

    def test_dimension_mismatch_names_line(self):
        with pytest.raises(EmbeddingFormatError, match=":2: dimension mismatch"):
            load_str("a 1.0\nb 0.0 1.0")

    def test_duplicate_token(self):
        with pytest.raises(EmbeddingFormatError, match="duplicate token 'a'"):
            load_str("a 1.0\na 2.0")

    def test_empty_file(self):
        with pytest.raises(EmbeddingFormatError, match="empty"):
            load_str("")

    def test_count_dim_header_accepted(self):
        t = load_str("2 3\na 1 2 3\nb 4 5 6")
        assert t.dim == 3 and len(t) == 2

    def test_count_dim_header_validated(self):
        with pytest.raises(EmbeddingFormatError, match="header declares 3 entries"):
            load_str("3 2\na 1 2\nb 3 4")
        with pytest.raises(EmbeddingFormatError, match="header declares dim 9"):
            load_str("2 9\na 1 2\nb 3 4")

    def test_two_field_first_line_without_header_is_data(self):
        # "x 1.5" cannot be a COUNT DIM header, so it is a 1-dim entry.
        t = load_str("x 1.5\ny 2.5")
        assert t.dim == 1 and len(t) == 2

    def test_non_numeric_value(self):
        with pytest.raises(EmbeddingFormatError, match=":1: non-numeric"):
            load_str("a one 2.0")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_line(self, value):
        with pytest.raises(EmbeddingFormatError, match=":2: non-finite value in entry for 'b'"):
            load_str(f"a 1 2\nb {value} 3")

    def test_non_finite_line_counts_header_and_blank_lines(self):
        with pytest.raises(EmbeddingFormatError, match=":5: non-finite value in entry for 'c'"):
            load_str("3 2\na 1 2\n\nb 3 4\nc 5 nan")

    def test_bytes_stream(self):
        t = load_embedding_file(io.BytesIO(b"a 1.0 2.0\n"))
        assert t.dim == 2

    def test_round_trip(self, tmp_path):
        t = load_str("a 1.25 -0.5\nb 0.0 3.0")
        path = tmp_path / "emb.txt"
        save_embedding_file(t, path)
        back = load_embedding_file(path)
        assert back.dim == t.dim
        assert set(back.index) == set(t.index)
        for tok, row in t.index.items():
            np.testing.assert_array_equal(back.matrix[back.index[tok]], t.matrix[row])

    def test_round_trip_with_header(self, tmp_path):
        t = load_str("a 0.1 0.2\nb -1e-9 4.0")
        path = tmp_path / "emb.txt"
        path.write_bytes(table_text(t, header=True).encode("utf-8"))
        back = load_embedding_file(path)
        np.testing.assert_array_equal(back.matrix[back.index["b"]], t.matrix[t.index["b"]])


# Tokens as the loader splits them: no whitespace or line breaks (those are
# in the Z and C categories), no surrogates.
_TOKENS = st.text(st.characters(categories=("L", "N", "P", "S")), min_size=1, max_size=6)


@st.composite
def tables(draw):
    dim = draw(st.integers(1, 5))
    tokens = draw(st.lists(_TOKENS, min_size=1, max_size=8, unique=True))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(floats, min_size=dim, max_size=dim),
                         min_size=len(tokens), max_size=len(tokens)))
    return EmbeddingTable(dim=dim, vectors=dict(zip(tokens, map(np.array, rows))))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(table=tables(), header=st.booleans())
    def test_save_then_load_gives_back_the_table(self, table, header):
        data = table_text(table, header).encode("utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "emb.txt"
            path.write_bytes(data)
            back = load_embedding_file(path)
        assert list(back.index) == list(table.index)
        assert list(back.index.values()) == list(range(len(table)))
        assert back.matrix.dtype == np.float64
        assert back.matrix.tobytes() == table.matrix.tobytes()
        for token, row in table.index.items():
            assert lookup(back, token).tobytes() == table.matrix[row].tobytes()
        missing = "".join(table.index) + "-missing"
        np.testing.assert_array_equal(lookup(back, missing), np.zeros(table.dim))
        assert back.source_sha256 == hashlib.sha256(data).hexdigest()

    @settings(max_examples=200, deadline=None)
    @given(
        tokens=st.lists(st.text(st.characters(exclude_categories=("Cs",)), max_size=4),
                        min_size=1, max_size=5, unique=True),
        dim=st.integers(1, 2),
    )
    def test_save_refuses_a_table_that_would_not_read_back(self, tokens, dim):
        table = EmbeddingTable(dim, {tok: np.full(dim, k + 0.5) for k, tok in enumerate(tokens)})
        sink = io.StringIO()
        try:
            save_embedding_file(table, sink)
        except ValueError:
            assert sink.getvalue() == ""
            assert any(tok.split() != [tok] for tok in tokens)
            return
        back = load_embedding_file(io.BytesIO(sink.getvalue().encode("utf-8")))
        assert list(back.index) == list(table.index)
        assert back.matrix.tobytes() == table.matrix.tobytes()

    @pytest.mark.parametrize("token", ["a b", "a\tb", "a\u2028b", "", " a"])
    def test_save_names_the_token_it_refuses(self, token):
        table = EmbeddingTable(2, {"ok": np.zeros(2), token: np.ones(2)})
        sink = io.StringIO()
        with pytest.raises(ValueError, match="would not read back"):
            save_embedding_file(table, sink)
        assert sink.getvalue() == ""


def reference_load(source):
    """The line-by-line loader: every value through ``float``, one row at a
    time.  The oracle for :func:`load_embedding_file`, which parses with
    numpy's C parser and falls back to this order of checks."""
    data = source.read()
    label = getattr(source, "name", "<stream>")
    if isinstance(data, str):
        data = data.encode("utf-8")
    digest = hashlib.sha256(data).hexdigest()
    lines = data.decode("utf-8").splitlines()
    index: dict[str, int] = {}
    linenos: list[int] = []
    matrix = None
    declared = None
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if lineno == 1 and len(fields) == 2:
            try:
                declared = (int(fields[0]), int(fields[1]))
                continue
            except ValueError:
                pass
        token, values = fields[0], fields[1:]
        if not values:
            raise EmbeddingFormatError(f"{label}:{lineno}: no values for token {token!r}")
        if token in index:
            raise EmbeddingFormatError(f"{label}:{lineno}: duplicate token {token!r}")
        try:
            vec = list(map(float, values))
        except ValueError:
            raise EmbeddingFormatError(f"{label}:{lineno}: non-numeric value in entry for {token!r}") from None
        if matrix is None:
            matrix = np.empty((len(lines), len(vec)))
        elif len(vec) != matrix.shape[1]:
            raise EmbeddingFormatError(
                f"{label}:{lineno}: dimension mismatch: expected {matrix.shape[1]} values, got {len(vec)}"
            )
        matrix[len(index)] = vec
        index[token] = len(index)
        linenos.append(lineno)
    if not index:
        raise EmbeddingFormatError(f"{label}: empty embedding file")
    matrix = matrix[: len(index)]
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        row = int(bad[0])
        raise EmbeddingFormatError(
            f"{label}:{linenos[row]}: non-finite value in entry for {list(index)[row]!r}"
        )
    if declared is not None:
        count, hdim = declared
        if count != len(index):
            raise EmbeddingFormatError(f"{label}: header declares {count} entries, file has {len(index)}")
        if hdim != matrix.shape[1]:
            raise EmbeddingFormatError(f"{label}: header declares dim {hdim}, file has {matrix.shape[1]}")
    table = EmbeddingTable(matrix.shape[1], source_sha256=digest)
    table.index, table.matrix = index, matrix
    return table


def load_outcome(load, data: bytes):
    """What loading ``data`` gives: the table's row order, matrix bytes and
    hash, or the error's type and message."""
    try:
        table = load(io.BytesIO(data))
    except Exception as exc:  # the oracle's errors are part of the contract
        return type(exc), str(exc)
    return list(table.index), table.matrix.shape, table.matrix.tobytes(), table.source_sha256


# Any whitespace separates fields: tabs, NBSP, the ideographic space and
# the unit separator (whitespace that is not a line break).
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t", "\xa0", "\u3000", "\x1f"])
# Values float() reads, numpy's C parser too or not (digit underscores,
# non-ASCII digits), and values it must reject.
GOOD_VALUES = (
    st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.integers(-999, 999).map(str)
    | st.sampled_from(["1_0", "-2_5.0_1", "١٢", "٣.٥", "１", "+1E-3", ".5", "5.", "-0"])
)
BAD_VALUES = st.sampled_from(["inf", "-inf", "nan", "NaN", "1e400", "x", "1e", "0x10", "1__0", "_1", "٣x"])
FAULTS = ("bad value", "duplicate", "no values", "width", "blank")
HEADERS = ("none", "count dim", "wrong count", "wrong dim", "two ints", "1-dim entry")


@st.composite
def table_files(draw):
    """Embedding files as bytes: a header or not, rows split by assorted
    whitespace, blank lines, LF or CRLF endings, and up to three faults."""
    dim = draw(st.integers(1, 3))
    tokens = draw(st.lists(_TOKENS, max_size=6, unique=True))

    def row(token, width):
        values = draw(SEPARATORS).join(draw(GOOD_VALUES) for _ in range(width))
        lead, trail = draw(st.sampled_from(["", " "])), draw(st.sampled_from(["", " ", "\t"]))
        return lead + token + draw(SEPARATORS) + values + trail

    lines = [row(token, dim) for token in tokens]
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        at = draw(st.integers(0, len(lines)))
        token = draw(st.sampled_from(tokens)) if tokens else "z"
        if fault == "bad value":
            values = [draw(GOOD_VALUES) for _ in range(dim)]
            values[draw(st.integers(0, dim - 1))] = draw(BAD_VALUES)
            lines.insert(at, draw(_TOKENS) + " " + " ".join(values))
        elif fault == "duplicate":
            lines.insert(at, row(token, dim))
        elif fault == "no values":
            lines.insert(at, draw(_TOKENS) + draw(st.sampled_from(["", " "])))
        elif fault == "width":
            lines.insert(at, row(draw(_TOKENS), draw(st.sampled_from([dim - 1, dim + 1]).filter(bool))))
        else:
            lines.insert(at, draw(st.sampled_from(["", " ", "\t\xa0"])))
    header = draw(st.sampled_from(HEADERS))
    count = len(tokens)
    if header == "count dim":
        lines.insert(0, f"{count} {dim}")
    elif header == "wrong count":
        lines.insert(0, f"{count + 1}\t{dim}")
    elif header == "wrong dim":
        lines.insert(0, f"{count} {dim + 1}")
    elif header == "two ints":
        lines.insert(0, f"{draw(st.integers(0, 9))} {draw(st.integers(0, 9))}")
    elif header == "1-dim entry":
        lines.insert(0, f"{draw(_TOKENS)} {draw(GOOD_VALUES)}")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return (eol.join(lines) + draw(st.sampled_from(["", eol]))).encode("utf-8")


GENERATED_TABLE = table_text(make_table([f"w{i}" for i in range(300)], dim=20), header=True)


class TestLoaderMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(data=table_files())
    def test_same_table_or_same_error(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_outcome(load_embedding_file, data) == load_outcome(reference_load, data)

    @pytest.mark.parametrize("text", ["", "\n\n", "2 3\n", "0 5\r\n \n"])
    def test_empty_or_header_only_warns_nothing(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmbeddingFormatError, match="empty embedding file"):
                load_str(text)

    def test_bad_float_before_duplicate_names_the_bad_float(self):
        with pytest.raises(EmbeddingFormatError, match=r":3: non-numeric value in entry for 'c'"):
            load_str("a 1 2\nb 3 4\nc 5 x\nd 7 8\n\na 9 10\n")
        with pytest.raises(EmbeddingFormatError, match=r":2: duplicate token 'a'"):
            load_str("a 1 2\na 3 4\nc 5 x\n")

    def test_python_float_forms_load_as_before(self):
        text = "a 1_0 2.5\nb ١٢ -3_000.5\nc 0.25 １\n"
        table = load_str(text)
        assert table.matrix.tobytes() == np.array([[10.0, 2.5], [12.0, -3000.5], [0.25, 1.0]]).tobytes()
        assert table.matrix.tobytes() == reference_load(io.StringIO(text)).matrix.tobytes()

    @pytest.mark.parametrize(("text", "c_rejects"), [
        (GENERATED_TABLE, False),
        ("2 3\na 1 2 3\nb 4 5 6\n", False),
        ("a 1_0 2\nb 3 4\n", True),
        ("a 1 2\nb 3 x\n", True),
    ], ids=["generated", "header", "underscore", "bad-float"])
    def test_row_by_row_pass_runs_only_when_the_c_parse_fails(self, monkeypatch, text, c_rejects):
        calls = {"loadtxt": 0, "by_float": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "loadtxt", counted("loadtxt", np.loadtxt))
        monkeypatch.setattr(sslstm.embeddings, "rows_by_float",
                            counted("by_float", sslstm.embeddings.rows_by_float))
        try:
            load_str(text)
        except EmbeddingFormatError:
            assert c_rejects
        assert calls == {"loadtxt": 1, "by_float": int(c_rejects)}


class TestLookup:
    def test_in_vocabulary(self):
        t = load_str("a 1 0")
        np.testing.assert_array_equal(lookup(t, "a"), [1.0, 0.0])

    def test_oov_is_zero(self):
        t = load_str("a 1 0")
        np.testing.assert_array_equal(lookup(t, "zzz"), [0.0, 0.0])

    def test_composes_with_normalization(self):
        t = load_str(":( 1 2")
        toks = normalize_utterance(":(((", LEX)
        assert toks == [":("]
        np.testing.assert_array_equal(lookup(t, toks[0]), [1.0, 2.0])


class TestCosine:
    def test_identity(self):
        assert cosine((1, 0), (1, 0)) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine((1, 0), (0, 1)) == pytest.approx(0.0)

    def test_hand_value(self):
        assert cosine((1, 1), (1, 0)) == pytest.approx(0.70710678, abs=1e-8)

    def test_zero_norm_is_zero(self):
        assert cosine((0, 0), (1, 2)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            cosine((1, 0), (1, 0, 0))

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            alpha = rng.uniform(0.1, 10.0)
            assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
            assert cosine(alpha * u, v) == pytest.approx(cosine(u, v), abs=1e-9)
            assert cosine(v, v) == pytest.approx(1.0, abs=1e-9)
            assert -1.0 - 1e-12 <= cosine(u, v) <= 1.0 + 1e-12


def scalar_cosine(u, v):
    """The per-pair formula :func:`cosines` replaced: the reference."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if np.array_equal(u, v):
        return 1.0
    return float(np.dot(u, v) / (nu * nv))


_ENTRIES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def row_blocks(draw):
    """Two matrices of one width whose rows are a few base rows, repeated,
    scaled, or zero."""
    dim = draw(st.integers(1, 6))
    base = draw(st.lists(st.lists(_ENTRIES, min_size=dim, max_size=dim).map(np.array),
                         min_size=1, max_size=4))
    row = st.one_of(
        st.sampled_from(base),
        st.tuples(st.sampled_from(base), st.floats(1e-3, 1e3)).map(lambda p: p[0] * p[1]),
        st.just(np.zeros(dim)),
    )
    a = draw(st.lists(row, min_size=1, max_size=7))
    b = draw(st.lists(row, min_size=1, max_size=7))
    return np.array(a), np.array(b)


class TestCosines:
    @settings(max_examples=300, deadline=None)
    @given(blocks=row_blocks(), split=st.integers(1, 7))
    def test_matches_the_scalar_formula(self, blocks, split):
        a, b = blocks
        sims = cosines(a, b)
        assert sims.shape == (len(a), len(b))
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                if not u.any() or not v.any():
                    assert sims[i, j] == 0.0
                elif np.array_equal(u, v):
                    assert sims[i, j] == 1.0
                assert abs(sims[i, j] - scalar_cosine(u, v)) <= 1e-12
        # Each entry depends on its two rows only, not on the block around them.
        assert np.array_equal(cosines(a[:split], b), sims[:split])
        assert np.array_equal(cosines(a, b[:split]), sims[:, :split])

    def test_empty_blocks(self):
        assert cosines(np.zeros((0, 3)), np.ones((2, 3))).shape == (0, 2)
        assert cosines(np.ones((2, 3)), np.zeros((0, 3))).shape == (2, 0)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            cosines(np.ones((2, 3)), np.ones((2, 4)))


class TestSentenceEmbedding:
    def test_mean_of_two(self):
        t = load_str("a 1 0\nb 0 1")
        np.testing.assert_allclose(sentence_embedding(t, ["a", "b"]), [0.5, 0.5])

    def test_empty_sequence(self):
        t = load_str("a 1 0")
        np.testing.assert_array_equal(sentence_embedding(t, []), [0.0, 0.0])

    def test_oov_excluded_from_mean(self):
        t = load_str("a 2 0")
        np.testing.assert_array_equal(sentence_embedding(t, ["a", "zzz"]), [2.0, 0.0])

    def test_all_oov(self):
        t = load_str("a 2 0")
        np.testing.assert_array_equal(sentence_embedding(t, ["x", "y"]), [0.0, 0.0])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        t = EmbeddingTable(dim=4, vectors={c: rng.standard_normal(4) for c in "abcdef"})
        toks = list("abcabcdeff")
        for _ in range(10):
            perm = list(rng.permutation(toks))
            np.testing.assert_allclose(
                sentence_embedding(t, perm), sentence_embedding(t, toks), atol=1e-12
            )


class TestTable:
    def test_empty_table(self):
        t = empty_table(5)
        assert len(t) == 0
        np.testing.assert_array_equal(lookup(t, "x"), np.zeros(5))

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            EmbeddingTable(dim=0, vectors={})

    def test_rejects_ragged_vectors(self):
        with pytest.raises(ValueError, match="shape"):
            EmbeddingTable(dim=2, vectors={"a": np.zeros(3)})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingTable(dim=2, vectors={"a": np.array([1.0, np.nan])})


def table_state(table):
    """What a caller can see of a table: row order, matrix bits and hash."""
    return (list(table.index.items()), table.matrix.dtype, table.matrix.shape,
            table.matrix.tobytes(), table.source_sha256)


def cache_entries(folder):
    """The files of the table cache beside the tables in ``folder``."""
    cache = Path(folder) / "__sslstm_cache__"
    return sorted(p.name for p in cache.iterdir()) if cache.exists() else []


def cache_path(table_file, data: bytes) -> Path:
    """Where the table in ``table_file`` holding ``data`` is cached."""
    sha = hashlib.sha256(data).hexdigest()
    return table_file.parent / "__sslstm_cache__" / f"{table_file.name}.{sha}.v1.npy"


def write_cache(path, matrix, tokens):
    """A cache file as the loader writes one: the ``.npy`` matrix, then
    the tokens joined by newlines."""
    with open(path, "wb") as fh:
        np.save(fh, matrix, allow_pickle=False)
        fh.write("\n".join(tokens).encode("utf-8"))


class TestCache:
    @settings(max_examples=60, deadline=None)
    @given(table=tables(), header=st.booleans())
    def test_cold_load_cache_hit_and_bytes_load_agree(self, table, header):
        data = table_text(table, header).encode("utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "emb.txt"
            path.write_bytes(data)
            cold = load_embedding_file(path)
            assert cache_entries(tmp) == [cache_path(path, data).name]
            with mock.patch.object(sslstm.embeddings, "_parse_table", None):  # a hit must not parse
                hit = load_embedding_file(path)
        assert table_state(hit) == table_state(cold) == table_state(load_embedding_file(data))
        assert list(hit.index.values()) == list(range(len(table)))
        assert hit.matrix.flags.writeable and hit.matrix.flags.c_contiguous

    @pytest.mark.parametrize("fault", ["truncated", "empty", "not npy", "1-D", "3-D", "float32",
                                       "int64", "big-endian",
                                       "fortran", "fewer tokens", "more tokens",
                                       "duplicate token", "nan", "inf"])
    def test_a_bad_cache_file_is_ignored_and_replaced(self, tmp_path, fault):
        data = GENERATED_TABLE.encode("utf-8")
        path = tmp_path / "emb.txt"
        path.write_bytes(data)
        parsed = table_state(load_embedding_file(data))
        cache = cache_path(path, data)
        cache.parent.mkdir()
        matrix = load_embedding_file(data).matrix
        tokens = [f"w{i}" for i in range(len(matrix))]
        if fault == "truncated":
            write_cache(cache, matrix, tokens)
            cache.write_bytes(cache.read_bytes()[:5000])
        elif fault == "empty":
            cache.write_bytes(b"")
        elif fault == "not npy":
            cache.write_bytes(data)
        elif fault == "1-D":
            write_cache(cache, matrix.ravel(), tokens)
        elif fault == "3-D":
            write_cache(cache, matrix[None], tokens)
        elif fault == "float32":
            write_cache(cache, matrix.astype(np.float32), tokens)
        elif fault == "int64":  # small non-negative ints: finite if read as float64
            write_cache(cache, np.abs(matrix).astype(np.int64), tokens)
        elif fault == "big-endian":
            write_cache(cache, matrix.astype(">f8"), tokens)
        elif fault == "fortran":
            write_cache(cache, np.asfortranarray(matrix), tokens)
        elif fault == "fewer tokens":
            write_cache(cache, matrix, tokens[:-1])
        elif fault == "more tokens":
            write_cache(cache, matrix, tokens + ["extra"])
        elif fault == "duplicate token":
            write_cache(cache, matrix, tokens[:-1] + [tokens[0]])
        else:
            planted = matrix.copy()
            planted[7, 3] = float(fault)
            write_cache(cache, planted, tokens)
        assert table_state(load_embedding_file(path)) == parsed
        # The parse wrote a good entry over the bad one; it is a hit now.
        assert cache_entries(tmp_path) == [cache.name]
        assert table_state(sslstm.embeddings._read_cache(str(cache), parsed[-1])) == parsed

    @pytest.mark.parametrize("text", ["a 1 2\nb 3\n", "a 1 2\na 3 4\n", "a 1 nan\n", "", "3 2\na 1 2\n"])
    def test_a_malformed_table_raises_the_same_error_again_and_caches_nothing(self, tmp_path, text):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        messages = []
        for _ in range(2):
            with pytest.raises(EmbeddingFormatError) as caught:
                load_embedding_file(path)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert not (tmp_path / "__sslstm_cache__").exists()

    def test_a_folder_it_cannot_write_still_loads(self, tmp_path):
        data = b"a 1 2\nb 3 4\n"
        path = tmp_path / "emb.txt"
        path.write_bytes(data)
        (tmp_path / "__sslstm_cache__").write_bytes(b"a file where the folder would be")
        for _ in range(2):
            assert table_state(load_embedding_file(path)) == table_state(load_embedding_file(data))

    def test_a_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        data = b"a 1 2\nb 3 4\n"
        path = tmp_path / "emb.txt"
        path.write_bytes(data)

        def refused(src, dst):
            raise PermissionError(13, "Permission denied", dst)

        monkeypatch.setattr(sslstm.embeddings.os, "replace", refused)
        assert table_state(load_embedding_file(path)) == table_state(load_embedding_file(data))
        assert cache_entries(tmp_path) == []

    def test_a_rewritten_table_gives_its_new_values_and_one_entry(self, tmp_path):
        path = tmp_path / "emb.txt"
        other = tmp_path / "emb.txt.old"
        other.write_bytes(b"z 9 9\n")
        load_embedding_file(other)
        for values in ("1 2", "3 4", "1 2"):
            data = f"a {values}\nb 5 6\n".encode()
            path.write_bytes(data)
            assert table_state(load_embedding_file(path)) == table_state(load_embedding_file(data))
            assert table_state(load_embedding_file(path)) == table_state(load_embedding_file(data))
            # One entry per table file; the other table's entry stays.
            assert cache_entries(tmp_path) == sorted([cache_path(path, data).name,
                                                      cache_path(other, b"z 9 9\n").name])

    def test_streams_and_bytes_are_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        load_embedding_file(b"a 1 2\n")
        load_embedding_file(io.BytesIO(b"a 1 2\n"))
        assert list(tmp_path.iterdir()) == []
