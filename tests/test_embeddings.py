import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslstm.embeddings import (
    EmbeddingFormatError,
    EmbeddingTable,
    cosine,
    empty_table,
    load_embedding_file,
    lookup,
    save_embedding_file,
    sentence_embedding,
)
from sslstm.text_norm import normalize_utterance, surfaces


def load_str(text):
    return load_embedding_file(io.StringIO(text))


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
        save_embedding_file(t, path, header=True)
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
        sink = io.StringIO()
        save_embedding_file(table, sink, header=header)
        data = sink.getvalue().encode("utf-8")
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


class TestLookup:
    def test_in_vocabulary(self):
        t = load_str("a 1 0")
        np.testing.assert_array_equal(lookup(t, "a"), [1.0, 0.0])

    def test_oov_is_zero(self):
        t = load_str("a 1 0")
        np.testing.assert_array_equal(lookup(t, "zzz"), [0.0, 0.0])

    def test_composes_with_normalization(self):
        t = load_str(":( 1 2")
        toks = normalize_utterance(":(((")
        assert surfaces(toks) == [":("]
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
        t = empty_table(5, "sentiment")
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
