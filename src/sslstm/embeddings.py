"""Word-embedding tables for the two model channels, plus sentence pooling.

A table is loaded from a plain-text file (``token v1 v2 ... vD`` per line,
optionally preceded by a ``COUNT DIM`` header).  Its vocabulary is fixed
from then on, and so are its vectors: training reads them and never writes.
Out-of-vocabulary tokens look up as the all-zero vector, so they contribute
nothing to sentence means and never crash mining or the classifier.

A table read from a file is parsed once: the parsed table is cached in
``__sslstm_cache__/<basename>.<sha256>.v1.npy`` beside the file, keyed by
the SHA-256 of the file's bytes, and later loads of the same bytes read
that instead of the text.  A cache hit gives the table a parse gives, so
the cache never changes an output.  A cache file that is not what a parse
gives is ignored, a folder that cannot be written gets no cache, and the
folder is safe to delete at any time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import tempfile
from collections.abc import Mapping

import numpy as np

from sslstm.textfile import (BadRow, DataFormatError, _open_write, _read, _split_lines,
                             float_rows, rows_by_float)

# Fallback dimensionalities for channels constructed without a file.
DEFAULT_SEMANTIC_DIM = 100
DEFAULT_SENTIMENT_DIM = 50

# Parsed tables are cached in this folder beside each table file.
CACHE_DIR = "__sslstm_cache__"
CACHE_SUFFIX = ".v1.npy"
_NPY_HEADER_MAX = 4096  # bytes; a 2-D float64 matrix's .npy header takes 128


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
        """Row of each token, -1 where out of vocabulary."""
        get = self.index.get
        return np.array([get(tok, -1) for tok in tokens], dtype=np.int64)

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

    The table of a regular file is cached beside it, keyed by that hash
    (:func:`_cache_file`): a load that finds the cache returns the table a
    parse gives without parsing, and a parse that succeeds writes it.
    """
    data, label = _read(source)
    digest = hashlib.sha256(data).hexdigest()
    cache = None
    if isinstance(source, (str, os.PathLike)) and os.path.isfile(source):
        cache = _cache_file(source, digest)
    table = _read_cache(cache, digest) if cache else None
    if table is None:
        lines = _split_lines(data, label)
        del data
        table = _parse_table(lines, label, digest)
        if cache:
            _write_cache(cache, table, source)
    return table


def _parse_table(lines: list[str], label: str, digest: str) -> EmbeddingTable:
    """The table the text ``lines`` hold, or the first fault as an
    :class:`EmbeddingFormatError`.

    One pass in Python splits each line at its first whitespace run and
    checks the header and the tokens; it hands each line's value text to
    numpy's C float parser (:func:`~sslstm.textfile.float_rows`) as it goes.
    Only when that parser rejects a row are the rows parsed again one at a
    time with ``float`` (:func:`~sslstm.textfile.rows_by_float`).
    """
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
        """The value text of each entry in file order, its token and line
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
            yield fields[1]

    matrix = float_rows(entries())
    if matrix is None or len(matrix) != len(index):
        try:
            matrix = rows_by_float(entries())
        except BadRow as bad:
            where = f"{label}:{linenos[bad.row]}"
            raise EmbeddingFormatError(
                f"{where}: dimension mismatch: expected {bad.width} values, got {bad.values}"
                if bad.numeric else
                f"{where}: non-numeric value in entry for {list(index)[bad.row]!r}"
            ) from None
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
    return _checked_table(index, matrix, digest)


def _checked_table(index: dict[str, int], matrix: np.ndarray, digest: str) -> EmbeddingTable:
    """A table of rows already checked, taken as they are."""
    table = EmbeddingTable(matrix.shape[1], source_sha256=digest)
    table.index, table.matrix = index, matrix
    return table


def _cache_file(path, digest: str) -> str:
    """Where the table read from ``path`` with SHA-256 ``digest`` is cached:
    ``<table dir>/__sslstm_cache__/<basename>.<digest>.v1.npy``, an ``.npy``
    float64 matrix followed by its tokens in row order, joined by ``\\n``."""
    folder, name = os.path.split(os.fspath(path))
    return os.path.join(folder, CACHE_DIR, f"{name}.{digest}{CACHE_SUFFIX}")


def _read_cache(path: str, digest: str) -> EmbeddingTable | None:
    """The table cached at ``path``; None when the file cannot be read or
    is not what a parse gives: a 2-D float64 matrix of finite values with
    one token per row, no token twice."""
    try:
        raw = np.fromfile(path, dtype=np.uint8)
        head = io.BytesIO(raw[:_NPY_HEADER_MAX].tobytes())
        if np.lib.format.read_magic(head) != (1, 0):
            return None
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(head)
        start = head.tell()
        if dtype != np.float64 or fortran_order or len(shape) != 2 or min(shape) < 1:
            return None
        end = start + 8 * shape[0] * shape[1]
        matrix = raw[start:end].view(np.float64).reshape(shape)  # ValueError if short
        tokens = _split_lines(raw[end:].tobytes(), path)
    except (OSError, ValueError, EOFError):
        return None
    index = {token: row for row, token in enumerate(tokens)}
    if len(tokens) != len(matrix) or len(index) != len(tokens) or not np.isfinite(matrix).all():
        return None
    return _checked_table(index, matrix, digest)


def _write_cache(path: str, table: EmbeddingTable, source) -> None:
    """Cache ``table``, parsed from ``source``, at ``path``: written to a
    temporary file that then replaces it, readable by whoever may read
    ``source``.  The older entries of ``source`` are deleted.  A folder
    that cannot be written is left as it is."""
    folder, entry = os.path.split(path)
    older = re.compile(re.escape(os.path.basename(source)) + r"\.[0-9a-f]{64}"
                       + re.escape(CACHE_SUFFIX))
    tmp = None
    try:
        os.makedirs(folder, exist_ok=True)
        with tempfile.NamedTemporaryFile(dir=folder, suffix=".tmp", delete=False) as fh:
            tmp = fh.name
            np.save(fh, table.matrix, allow_pickle=False)
            fh.write("\n".join(table.index).encode("utf-8"))
        os.chmod(tmp, os.stat(source).st_mode & 0o777)
        os.replace(tmp, path)
        tmp = None
        for name in os.listdir(folder):
            if name != entry and older.fullmatch(name):
                os.remove(os.path.join(folder, name))
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def save_embedding_file(table: EmbeddingTable, sink) -> None:
    """Write a table in the loadable format (repr-precision floats, no
    ``COUNT DIM`` header); raises ValueError, writing nothing, for an empty
    token or one holding whitespace."""
    for token in table.index:
        if token.split() != [token]:
            raise ValueError(f"embedding token would not read back: {token!r}")
    with _open_write(sink) as fh:
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
