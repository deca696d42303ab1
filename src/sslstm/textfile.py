"""How the package reads and writes its text files, and every line-format
rule.  A reader's ``source`` is a path, ``bytes``, or a byte or text stream
(taken as its UTF-8 encoding).

- Lines (:func:`_split_lines`): decode as UTF-8, split at ``\\n`` only, drop
  a ``\\r`` just before it, and add no empty line after a final ``\\n``; so
  the same bytes give the same lines however they are passed in.
- Skipped lines (:func:`_skipped`): the tab-separated and one-per-line
  formats skip an empty or whitespace-only line and one whose first
  non-blank character is ``#``.  Embedding tables and model files do not.
- Written lines (:func:`_write_lines`): none ends in ``\\r``.  TSV rows
  (:func:`_write_tsv`) go through it, and only when they read back as written.
- Float rows: parsed by :func:`float_matrix`, formatted by :func:`_float_rows`.

Every file the package reads is opened by the one reading opener,
:func:`_open_read`: :func:`_read` takes the whole of a file,
:func:`file_sha256` hashes it block by block, and the table cache reads
its entries through it.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager

import numpy as np

BLOCK_BYTES = 1 << 20  # how much of a file :func:`file_sha256` holds at once


class DataFormatError(ValueError):
    """Malformed input file; messages name the file and the line at fault."""


def _open_read(path):
    """The file at ``path`` opened to read its bytes."""
    return open(path, "rb")


def _label(source) -> str:
    """The name messages give ``source``: its path, ``<bytes>``, or the
    stream's ``name`` (``<stream>`` if it has none)."""
    if isinstance(source, (str, os.PathLike)):
        return str(source)
    if isinstance(source, (bytes, bytearray)):
        return "<bytes>"
    return getattr(source, "name", "<stream>")


def _read(source) -> tuple[bytes, str]:
    """The bytes of ``source`` and the label messages name it by."""
    if isinstance(source, (str, os.PathLike)):
        with _open_read(source) as fh:
            data = fh.read()
    elif isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    else:
        data = source.read()
        if isinstance(data, str):
            data = data.encode("utf-8")
    return data, _label(source)


def file_sha256(path) -> str:
    """The SHA-256 of the file at ``path`` as hex, read :data:`BLOCK_BYTES`
    at a time so the whole file is never held."""
    digest = hashlib.sha256()
    block = memoryview(bytearray(BLOCK_BYTES))
    with _open_read(path) as fh:
        while size := fh.readinto(block):
            digest.update(block[:size])
    return digest.hexdigest()


def _split_lines(data: bytes, label: str) -> list[str]:
    """``data`` as lines by the line rule of the module docstring; bytes
    that are not UTF-8 raise :class:`DataFormatError` naming their line."""
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{label}:{lineno}: not valid UTF-8 ({exc.reason})") from None
    tail = lines.pop()  # the text after the last \n, a line only if not empty
    return [line.removesuffix("\r") for line in lines] + ([tail] if tail else [])


def _lines(source) -> tuple[list[str], str]:
    """The lines of ``source`` and its label."""
    data, label = _read(source)
    return _split_lines(data, label), label


def _skipped(line: str) -> bool:
    """Whether a reader skips ``line``: it is empty, whitespace only, or
    has ``#`` as its first non-blank character."""
    return not line.strip() or line.lstrip().startswith("#")


def _content_lines(source):
    """(label, line number, text) of each line of ``source`` not :func:`_skipped`."""
    lines, label = _lines(source)
    for lineno, line in enumerate(lines, start=1):
        if not _skipped(line):
            yield label, lineno, line


def _tsv_rows(source, n_fields: int):
    """:func:`_content_lines` split at tabs; each must have ``n_fields`` fields."""
    for label, lineno, line in _content_lines(source):
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise DataFormatError(
                f"{label}:{lineno}: expected {n_fields} tab-separated fields, got {len(fields)}"
            )
        yield label, lineno, fields


@contextmanager
def _open_write(sink):
    """A text stream for ``sink``: a path opened as UTF-8, or the stream itself."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sink


def _write_lines(lines: list[str], sink) -> None:
    """Write each line followed by ``\\n``.  A line ending in ``\\r``, which
    reads back without it, raises ValueError before the sink is opened."""
    if bad := next((line for line in lines if line.endswith("\r")), None):
        raise ValueError(f"line would not read back: {bad!r}")
    with _open_write(sink) as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_tsv(rows, sink) -> None:
    """Write each row of fields to ``sink`` as one tab-joined line through
    :func:`_write_lines`.  A field holding a tab or newline, or a line that
    is :func:`_skipped`, raises ValueError before the sink is opened."""
    lines = []
    for fields in rows:
        for text in fields:
            if "\t" in text or "\n" in text:
                raise ValueError(f"tabs/newlines in a field are not representable: {text!r}")
        line = "\t".join(fields)
        if _skipped(line):
            raise ValueError(f"line would not read back: {line!r}")
        lines.append(line)
    _write_lines(lines, sink)


class BadRow(ValueError):
    """The first row :func:`float_matrix` cannot read: its index among the
    rows, how many values it has, the width expected of it (None when it is
    the first row and not numeric) and whether ``float`` reads every value."""

    def __init__(self, row: int, values: int, width: int | None, numeric: bool):
        super().__init__(f"row {row}: {values} values, expected {width}, numeric: {numeric}")
        self.row, self.values, self.width, self.numeric = row, values, width, numeric


def float_matrix(texts: list[str], width: int | None = None) -> np.ndarray:
    """Lines of whitespace-separated floats as a ``(len(texts), width)``
    float64 matrix; ``width`` None takes the first line's count (0 for no
    lines).  :class:`BadRow` names the first line that is not ``width``
    numbers, for the caller's message.

    The lines go to numpy's C parser in one call.  It splits at the same
    whitespace as :meth:`str.split` and reads every value it accepts to the
    same float as :class:`float`, but it rejects two forms ``float`` reads,
    digit underscores (``1_0``) and non-ASCII digits, and a lone ``\\r`` in
    a line, and it skips a line that is all whitespace.  When it fails or
    gives another shape, the lines are read one at a time with ``float``
    (:func:`_rows_by_float`), which also finds the bad line.
    """
    if texts and texts[0].strip():  # loadtxt warns when no line has data
        try:
            matrix = np.loadtxt(texts, dtype=np.float64, ndmin=2, comments=None)
        except ValueError:
            pass
        else:
            if matrix.shape == (len(texts), matrix.shape[1] if width is None else width):
                return matrix
    return _rows_by_float(texts, width)


def _rows_by_float(texts: list[str], width: int | None) -> np.ndarray:
    """:func:`float_matrix` one line at a time with ``float``."""
    rows: list[list[float]] = []
    for k, text in enumerate(texts):
        values = text.split()
        try:
            row = [float(v) for v in values]
        except ValueError:
            raise BadRow(k, len(values), width, False) from None
        if width is None:
            width = len(row)
        if len(row) != width:
            raise BadRow(k, len(row), width, True)
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(rows), width or 0)


def _few_distinct(bits: np.ndarray) -> np.ndarray | None:
    """The sorted distinct values of ``bits`` when they are at most half of
    its values, else None.  Nothing of the size of ``bits`` outlives the call."""
    ordered = np.sort(bits, axis=None)
    new = ordered[1:] != ordered[:-1]  # new[i]: ordered[i + 1] starts a run
    if 2 * (min(ordered.size, 1) + np.count_nonzero(new)) > ordered.size:
        return None
    return np.concatenate((ordered[:1], ordered[1:][new]))


def _float_rows(mat: np.ndarray):
    """Each row of the float64 matrix ``mat`` as a line ending in ``\\n``:
    each value's ``repr``, space-separated, so the exact values read back
    (``-0.0`` and ``0.0`` are told apart by their bits).  When at most half
    are distinct (:func:`_few_distinct`), each distinct value is formatted
    once.  Given straight to ``writelines``, no row's text outlives its write."""
    bits = mat.view(np.int64)
    keys = _few_distinct(bits)
    if keys is None:
        for row in mat:
            yield " ".join(map(repr, row.tolist())) + "\n"
        return
    texts = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
    for row in np.searchsorted(keys, bits):
        yield " ".join(texts[row].tolist()) + "\n"
