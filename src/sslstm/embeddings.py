"""Word-embedding tables for the two model channels, plus sentence pooling.

A table is loaded from a plain-text file (``token v1 v2 ... vD`` per line,
optionally preceded by a ``COUNT DIM`` header).  Its vocabulary is fixed
from then on, and so are its vectors: training reads them and never writes.
Out-of-vocabulary tokens look up as the all-zero vector, so they contribute
nothing to sentence means and never crash mining or the classifier.

A table read from a file is parsed once: the parsed table is cached in
``__sslstm_cache__/<basename>.<sha256>.v1.npy`` beside the file, keyed by
the SHA-256 of the file's bytes, and later loads of the same bytes read
that instead of the text.  A load that finds its entry reads the file only
to hash it, block by block, and never holds its text.  A cache hit gives
the table a parse gives, so the cache never changes an output.  A cache
file that is not what a parse gives is ignored, a folder that cannot be
written gets no cache, and the folder is safe to delete at any time.

A load given a vocabulary holds only the rows of its tokens.  A cache hit
then streams the cached matrix block by block, checking every row, and
never holds the whole matrix.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
import tempfile
from collections.abc import Mapping, Set

import numpy as np

from sslstm.textfile import (BLOCK_BYTES, BadRow, DataFormatError, _float_rows, _open_read,
                             _open_write, _read, _split_lines, file_sha256, float_matrix)

# Fallback dimensionalities for channels constructed without a file.
DEFAULT_SEMANTIC_DIM = 100
DEFAULT_SENTIMENT_DIM = 50

# Parsed tables are cached in this folder beside each table file.
CACHE_DIR = "__sslstm_cache__"
CACHE_SUFFIX = ".v1.npy"


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


def load_embedding_file(source, vocab: Set[str] | None = None) -> EmbeddingTable:
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
    (:func:`_cache_file`).  The file is first hashed block by block
    (:func:`~sslstm.textfile.file_sha256`); a load that finds that entry
    returns the table a parse gives without parsing, and without ever
    holding the text.  Otherwise the file is read whole and the hash of
    those bytes names the table and the entry the parse writes, so a file
    rewritten between the two reads gets the hash of the bytes parsed.

    Given ``vocab``, the table holds only the rows of the tokens in it, in
    file order, under the same ``source_sha256``; None keeps every row.
    Every row is still checked, so whether a file loads and what each kept
    row holds never depend on ``vocab``.  A hit never holds the whole
    matrix; a parse, or a table not cached, keeps its rows after parsing.
    """
    cached = isinstance(source, (str, os.PathLike)) and os.path.isfile(source)
    if cached:
        digest = file_sha256(source)
        table = _read_cache(_cache_file(source, digest), digest, vocab)
        if table is not None:
            return table
    data, label = _read(source)
    digest = hashlib.sha256(data).hexdigest()
    lines = _split_lines(data, label)
    del data
    table = _parse_table(lines, label, digest)
    if cached:
        _write_cache(_cache_file(source, digest), table, source)
    if vocab is None:
        return table
    index, keep = _selection(list(table.index), vocab)
    return _checked_table(index, table.matrix[keep], digest)


def _selection(tokens: list[str], vocab: Set[str] | None) -> tuple[dict[str, int], list[int]]:
    """The index of the table of ``tokens``, in row order, that holds only
    the rows of the tokens in ``vocab`` (every row for None), and those
    rows in order."""
    if vocab is None:
        keep = range(len(tokens))
    else:
        keep = [row for row, token in enumerate(tokens) if token in vocab]
    return {tokens[row]: k for k, row in enumerate(keep)}, keep


def _parse_table(lines: list[str], label: str, digest: str) -> EmbeddingTable:
    """The table the text ``lines`` hold, or the first fault as an
    :class:`EmbeddingFormatError`.  ``lines`` is used up.

    One pass splits each line at its first whitespace run and checks the
    header and the tokens; each entry's value text takes the place of a
    line already read, so ``lines`` ends holding only the value texts,
    which one call to :func:`~sslstm.textfile.float_matrix` parses.  A
    token with no values or seen before ends the pass; its fault is raised
    once the rows before it parse.
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
    fault = None
    for lineno, line in enumerate(lines, start=1):
        fields = line.split(None, 1)
        if not fields or (lineno == 1 and declared is not None):
            continue
        token = fields[0]
        if len(fields) == 1 or token in index:
            what = "no values for token" if len(fields) == 1 else "duplicate token"
            fault = EmbeddingFormatError(f"{label}:{lineno}: {what} {token!r}")
            break
        lines[len(index)] = fields[1]
        index[token] = len(index)
        linenos.append(lineno)
    del lines[len(index):]
    try:
        matrix = float_matrix(lines)
    except BadRow as bad:
        where = f"{label}:{linenos[bad.row]}"
        raise EmbeddingFormatError(
            f"{where}: dimension mismatch: expected {bad.width} values, got {bad.values}"
            if bad.numeric else
            f"{where}: non-numeric value in entry for {list(index)[bad.row]!r}"
        ) from None
    if fault is not None:
        raise fault
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


def _read_cache(path: str, digest: str, vocab: Set[str] | None) -> EmbeddingTable | None:
    """The table cached at ``path``, holding the rows of the tokens in
    ``vocab`` (see :func:`_selection`); None when the file cannot be read or
    is not what a parse gives: a C-order 2-D float64 matrix of finite values
    with at least one row and one column, and one token per row, no token
    twice.

    The tokens after the matrix are read first; then the matrix is read
    :data:`~sslstm.textfile.BLOCK_BYTES` at a time into one buffer, each
    block checked before its kept rows are copied out (:func:`_kept_rows`),
    so a load that keeps few rows never holds the whole matrix."""
    try:
        with _open_read(path) as fh:
            version = np.lib.format.read_magic(fh)
            if version not in ((1, 0), (2, 0)):
                return None
            read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                           else np.lib.format.read_array_header_2_0)
            shape, fortran_order, dtype = read_header(fh)
            if dtype != np.float64 or len(shape) != 2 or fortran_order or min(shape) < 1:
                return None
            start = fh.tell()
            fh.seek(start + shape[0] * shape[1] * dtype.itemsize)
            tokens = _split_lines(fh.read(), path)
            if len(tokens) != shape[0] or len(set(tokens)) != len(tokens):
                return None
            index, keep = _selection(tokens, vocab)
            del tokens  # only the kept tokens stay held, as the keys of ``index``
            fh.seek(start)
            matrix = _kept_rows(fh, shape, np.asarray(keep, dtype=np.intp))
    except (OSError, ValueError, OverflowError, MemoryError):
        return None  # MemoryError, OverflowError: a header claiming too much
    return None if matrix is None else _checked_table(index, matrix, digest)


def _kept_rows(fh, shape: tuple[int, int], keep: np.ndarray) -> np.ndarray | None:
    """The rows ``keep`` (ascending) of the ``shape`` float64 matrix that
    ``fh`` holds at its position, read a block at a time into one buffer,
    or straight into the result when every row is kept; None when the file
    ends early or any row, kept or not, is not finite."""
    rows, width = shape
    step = max(1, BLOCK_BYTES // (8 * width))  # rows per block
    out = np.empty((len(keep), width))
    whole = len(keep) == rows
    block = None if whole else np.empty((step, width))
    done = 0  # how many of ``keep`` are copied out
    for first in range(0, rows, step):
        part = out[first : first + step] if whole else block[: rows - first]
        if fh.readinto(part) != part.nbytes or not np.isfinite(part).all():
            return None
        if not whole:
            end = done + int(np.searchsorted(keep[done:], first + len(part)))
            out[done:end] = part[keep[done:end] - first]
            done = end
    return out


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
        fh.writelines(f"{token} {line}" for token, line in zip(table.index, _float_rows(table.matrix)))


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
    for k, row in enumerate(b):
        dots[:, k] = (a * row).sum(axis=1)
    norms = np.outer(np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1))
    nonzero = norms > 0
    sims = np.divide(dots, norms, out=np.zeros_like(dots), where=nonzero)
    # dot/(nu*nv) can round equal rows to 1 - 2 ulp; thresholds reach 1.0
    # inclusive.  Equal rows share one sum of squares, so they score within
    # a few ulp of 1 or not finite (an overflow or an inf): only such pairs
    # are compared element by element.
    check = nonzero & ~((sims < 1.0 - 1e-9) | (sims > 1.0 + 1e-9))
    for k in np.flatnonzero(check.any(axis=0)):
        rows = np.flatnonzero(check[:, k])
        sims[rows[(a[rows] == b[k]).all(axis=1)], k] = 1.0
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
    # What mean(axis=0) computes, without its Python wrapper.
    return table.matrix[ids].sum(axis=0) / ids.size
