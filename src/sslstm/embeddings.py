"""Word-embedding tables for the two model channels, plus sentence pooling.

A table is loaded from a plain-text file (``token v1 v2 ... vD`` per line,
optionally preceded by a ``COUNT DIM`` header).  Its vocabulary is fixed
from then on, and so are its vectors: training reads them and never writes.
Out-of-vocabulary tokens look up as the all-zero vector, so they contribute
nothing to sentence means and never crash mining or the classifier.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping

import numpy as np

from sslstm.textfile import DataFormatError, _open_write, _read, _split_lines, float_rows
from sslstm.text_norm import surfaces

# Fallback dimensionalities for channels constructed without a file.
DEFAULT_SEMANTIC_DIM = 100
DEFAULT_SENTIMENT_DIM = 50


class EmbeddingFormatError(DataFormatError):
    """Raised for malformed embedding files."""


class EmbeddingTable:
    """token -> dense float64 vector, all of one dimensionality.

    The vectors are the rows of one ``(V, dim)`` ``matrix``; ``index`` maps
    each token to its row, in row order.  The constructor stacks a token ->
    vector mapping once, checking each vector's shape and finiteness.
    """

    def __init__(self, dim: int, vectors: Mapping | None = None,
                 source_sha256: str | None = None):
        if dim <= 0:
            raise ValueError(f"embedding dim must be positive, got {dim}")
        self.index = {tok: row for row, tok in enumerate(vectors or {})}
        self.matrix = np.empty((len(self.index), dim))
        for tok, row in self.index.items():
            vec = np.asarray(vectors[tok], dtype=np.float64)
            if vec.shape != (dim,):
                raise ValueError(f"vector for {tok!r} has shape {vec.shape}, expected ({dim},)")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"vector for {tok!r} has non-finite components")
            self.matrix[row] = vec
        self.source_sha256 = source_sha256

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def ids(self, tokens) -> np.ndarray:
        """Row of each token (strings or ``Token``), -1 where out of vocabulary."""
        get = self.index.get
        return np.array([get(s, -1) for s in surfaces(tokens)], dtype=np.int64)

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """The rows ``ids`` as a new ``(len(ids), dim)`` matrix, zero where an id is -1."""
        out = np.zeros((len(ids), self.dim))
        known = ids >= 0
        out[known] = self.matrix[ids[known]]
        return out

    def __len__(self) -> int:
        return len(self.index)


def empty_table(dim: int) -> EmbeddingTable:
    """A table with no vocabulary; every lookup is the zero vector."""
    return EmbeddingTable(dim=dim)


def load_embedding_file(source) -> EmbeddingTable:
    """Load a table from a path, bytes, or a text/byte stream.

    Each data line is a token, whitespace, then the token's values in
    Python float syntax separated by any whitespace.  The dimensionality is
    inferred from the first data line; every later line must agree.
    Duplicate tokens, empty files, bad or non-finite floats, and header
    mismatches all raise :class:`EmbeddingFormatError` naming the first
    line at fault.  ``source_sha256`` is the hash of the bytes read (of the
    UTF-8 encoding, for a text stream); lines are split by the one line
    rule of :mod:`sslstm.textfile`, so U+2028 and the like inside a line
    separate fields like any other whitespace.

    One pass in Python splits each line at its first whitespace run and
    checks the header and the tokens; it hands each line's value text to
    numpy's C float parser (:func:`~sslstm.textfile.float_rows`) as it goes.
    Only when that parser rejects a row are the rows parsed again one at a
    time with ``float`` (:func:`_rows_by_float`).
    """
    data, label = _read(source)
    digest = hashlib.sha256(data).hexdigest()
    lines = _split_lines(data, label)
    del data
    head = lines[0].split() if lines else []
    declared = None
    if len(head) == 2:
        try:
            declared = (int(head[0]), int(head[1]))
        except ValueError:
            pass  # two-field first line that is not a header: a 1-dim entry
    index: dict[str, int] = {}
    linenos: list[int] = []  # file line of each row
    fault: list[EmbeddingFormatError] = []

    def entries():
        """``(line number, token, value text)`` of each entry in file order,
        recorded in ``index`` and ``linenos``.  A token with no values or
        seen before ends the walk in ``fault``, raised once the rows before
        it parse."""
        index.clear()
        linenos.clear()
        fault.clear()
        for lineno, line in enumerate(lines, start=1):
            fields = line.split(None, 1)
            if not fields or (lineno == 1 and declared is not None):
                continue
            token = fields[0]
            if len(fields) == 1:
                fault.append(EmbeddingFormatError(f"{label}:{lineno}: no values for token {token!r}"))
                return
            if token in index:
                fault.append(EmbeddingFormatError(f"{label}:{lineno}: duplicate token {token!r}"))
                return
            index[token] = len(index)
            linenos.append(lineno)
            yield lineno, token, fields[1]

    matrix = float_rows(text for _, _, text in entries())
    if matrix is None or len(matrix) != len(index):
        matrix = _rows_by_float(entries(), label)
    if fault:
        raise fault[0]
    if not index:
        raise EmbeddingFormatError(f"{label}: empty embedding file")
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
    table.index, table.matrix = index, matrix  # already checked: taken as is
    return table


def _rows_by_float(entries, label: str) -> np.ndarray:
    """The value texts of ``(line number, token, value text)`` entries
    parsed one at a time with ``float``, which also reads digit underscores
    and non-ASCII digits; raises at the first non-numeric entry or width
    change."""
    rows: list[list[float]] = []
    for lineno, token, text in entries:
        try:
            row = [float(v) for v in text.split()]
        except ValueError:
            raise EmbeddingFormatError(
                f"{label}:{lineno}: non-numeric value in entry for {token!r}"
            ) from None
        if rows and len(row) != len(rows[0]):
            raise EmbeddingFormatError(
                f"{label}:{lineno}: dimension mismatch: expected {len(rows[0])} values, got {len(row)}"
            )
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def save_embedding_file(table: EmbeddingTable, sink, header: bool = False) -> None:
    """Write a table in the loadable format (repr-precision floats); raises
    ValueError, writing nothing, for an empty token or one holding whitespace."""
    for token in table.index:
        if token.split() != [token]:
            raise ValueError(f"embedding token would not read back: {token!r}")
    with _open_write(sink) as fh:
        if header:
            fh.write(f"{len(table)} {table.dim}\n")
        for token, vec in zip(table.index, table.matrix):
            fh.write(token + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def lookup(table: EmbeddingTable, token) -> np.ndarray:
    """Vector for a token (a copy of its row); the zero vector when out of vocabulary."""
    return table.rows(table.ids([token]))[0]


def cosines(a, b) -> np.ndarray:
    """Cosine similarity of each row of ``a`` with each row of ``b``, an
    ``(n, m)`` matrix: 0 where either row is zero, exactly 1.0 where two rows
    are equal.  Each dot product is summed over its own two rows, not by a
    BLAS product whose rounding changes with the shapes, so a row scores the
    same in any block of rows and equal rows score alike against any row."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"cosine: length mismatch {a.shape} vs {b.shape}")
    dots = np.empty((len(a), len(b)))
    equal = np.empty(dots.shape, dtype=bool)
    for k, row in enumerate(b):
        dots[:, k], equal[:, k] = (a * row).sum(axis=1), (a == row).all(axis=1)
    norms = np.outer(np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1))
    nonzero = norms > 0
    sims = np.divide(dots, norms, out=np.zeros_like(dots), where=nonzero)
    # dot/(nu*nv) can round equal rows to 1 - 2 ulp; thresholds reach 1.0 inclusive.
    sims[equal & nonzero] = 1.0
    return sims


def cosine(u, v) -> float:
    """Cosine similarity of two vectors: the 1 x 1 case of :func:`cosines`."""
    return float(cosines([u], [v])[0, 0])


def sentence_embedding(table: EmbeddingTable, tokens) -> np.ndarray:
    """Mean of the in-vocabulary token vectors; zeros if there are none."""
    ids = table.ids(tokens)
    ids = ids[ids >= 0]
    if not ids.size:
        return np.zeros(table.dim)
    return table.matrix[ids].mean(axis=0)
