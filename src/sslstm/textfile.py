"""How the package reads and writes its text files.

A reader's ``source`` is a path, ``bytes``, or a byte or text stream (taken
as its UTF-8 encoding).  The one line rule (:func:`_split_lines`): decode
as UTF-8, split at ``\\n`` only, drop a ``\\r`` just before it, and add no
empty line after a final ``\\n``; so the same bytes give the same lines
however they are passed in.  Each format keeps its own comment rule.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager

import numpy as np


class DataFormatError(ValueError):
    """Malformed input file; messages name the file and the line at fault."""


def _read(source) -> tuple[bytes, str]:
    """The bytes of ``source`` and the label messages name it by."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return fh.read(), str(source)
    if isinstance(source, (bytes, bytearray)):
        return bytes(source), "<bytes>"
    data = source.read()
    if isinstance(data, str):
        data = data.encode("utf-8")
    return data, getattr(source, "name", "<stream>")


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


def _content_lines(source):
    """(label, line number, text) of each line that is neither blank nor,
    after leading whitespace, a ``#`` comment."""
    lines, label = _lines(source)
    for lineno, line in enumerate(lines, start=1):
        if line.strip() and not line.lstrip().startswith("#"):
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


def float_rows(texts) -> np.ndarray | None:
    """Parse lines of whitespace-separated floats in one call to numpy's C
    parser: a ``(lines, values per line)`` float64 matrix, ``(0, 0)`` for
    no lines, or None when the parser rejects a line (a line of another
    length, or a value it cannot read).

    The C parser splits at the same whitespace as :meth:`str.split` and
    reads every value it accepts to the same float as :class:`float`, but
    it rejects two forms ``float`` reads, digit underscores (``1_0``) and
    non-ASCII digits, and a lone ``\\r`` in a line: on None, callers parse
    row by row with ``float``, which also names the first bad line.  It
    skips a line that is all whitespace, so callers compare the row count
    with the lines they gave (a blank first line gives None).
    """
    texts = iter(texts)
    first = next(texts, None)
    if first is None:
        return np.empty((0, 0))
    if not first.strip():  # loadtxt would skip it, and warn if no line has data
        return None
    try:
        return np.loadtxt(itertools.chain((first,), texts), dtype=np.float64,
                          ndmin=2, comments=None)
    except ValueError:
        return None
