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
import math
import os
from contextlib import contextmanager
from itertools import pairwise

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
    (``-0.0`` and ``0.0`` are told apart by their bits).  The values are
    formatted :data:`FORMAT_BLOCK` at a time by :func:`_format`, which gives
    ``repr``'s exact text and sends each value it cannot certify through
    ``repr`` itself.  When at most half are distinct (:func:`_few_distinct`),
    each distinct value is formatted once.  Given straight to
    ``writelines``, no row's text outlives its write."""
    bits = mat.view(np.int64)
    keys = _few_distinct(bits)
    if keys is None:
        yield from _formatted_rows(mat.ravel(), mat.shape[1])
        return
    texts = np.array([line[:-1] for line in _formatted_rows(keys.view(np.float64), 1)],
                     dtype=object)
    for row in np.searchsorted(keys, bits):
        yield " ".join(texts[row].tolist()) + "\n"


def _formatted_rows(values: np.ndarray, width: int):
    """The 1-D float64 ``values`` as lines of ``width`` values each, formatted
    :data:`FORMAT_BLOCK` at a time; a row that crosses a block is held as
    text until its last value is formatted."""
    partial = ""
    for start in range(0, values.size, FORMAT_BLOCK):
        block = values[start:start + FORMAT_BLOCK]
        first = (width - 1 - start) % width  # the block's first value that ends a row
        ends = np.zeros(block.size, dtype=bool)
        ends[first::width] = True
        text, offsets = _format(block, ends)
        cuts = offsets[first::width].tolist()
        if not cuts:
            partial += text
            continue
        yield partial + text[:cuts[0]]
        yield from (text[a:b] for a, b in pairwise(cuts))
        partial = text[cuts[-1]:]


# The float-row kernel.  It follows the certify-or-fall-back design of Grisu3
# (Loitsch 2010, "Printing floating-point numbers quickly and accurately with
# integers"): each value is scaled exactly to 17 significant digits, the
# shortest rounding of those digits that reads back as the value is kept,
# and any value whose digits it cannot certify goes through ``repr``.
FORMAT_BLOCK = 8192  # values formatted at once: their working arrays peak near 1.8 MB
_E10_MIN = -29  # the least decimal exponent formatted: 10**45 is exact as a double-double
_MARGIN = 1e-9  # in units of the 17th digit: a decision this near a tie or a bound goes to repr
_TEN = 10 ** np.arange(18, dtype=np.int64)


def _split(a):
    """Dekker's split of float64 ``a`` into a high and a low half of 26 bits."""
    t = a * 134217729.0  # 2**27 + 1
    high = t - (t - a)
    return high, a - high


def _ceil_pow10(e: int) -> float:
    """The least float64 at least ``10**e``."""
    top, bottom = 10 ** max(e, 0), 10 ** max(-e, 0)
    f = top / bottom  # the nearest: int division rounds correctly
    num, den = f.as_integer_ratio()
    return f if num * bottom >= den * top else math.nextafter(f, math.inf)


# 10**s for s <= 16 - _E10_MIN as the exact double-double _P10[s] + _P10_TAIL[s],
# and _P10 split in halves
_P10 = np.array([float(10**s) for s in range(17 - _E10_MIN)])
_P10_TAIL = np.array([float(10**s - int(float(10**s))) for s in range(17 - _E10_MIN)])
_P10_HI, _P10_LO = _split(_P10)
# _DECADES[e - _E10_MIN]: the least float64 at least 10**e, for _E10_MIN <= e <= 16
_DECADES = np.array([_ceil_pow10(e) for e in range(_E10_MIN, 17)])
# "0000" to "9999" as one uint32 each, in memory order
_QUADS = np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
_QUADS = (_QUADS % 10 + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]


def _layouts():
    """The text layout of each key ``(e10 - _E10_MIN) * 17 + n - 1``, for
    ``n`` significant digits, in a 28-byte row: masks that pick the digits
    before the point (``left``) and after it (``right``) out of the digit
    buffer, the text's length with its separator, and its constant
    characters (the point, ``e-XX`` and the separator) for each of four
    kinds of value, at ``kind * len(left) + key``: kind 1 adds the minus
    sign, kind 2 ends a row (``\\n`` for the separator ``" "``).  The text
    is one run of columns, so that dropping the zero bytes around it is
    quick.  In the digit buffer ``Z[0:4]`` is ``"0000"`` and ``Z[4:21]``
    the 17 digits; column ``c`` sees ``Z[c - 1]`` through ``left`` and
    ``Z[c - 2]`` through ``right``, so the digits after the point sit one
    column right.  ``repr`` writes ``d.ddde-XX`` when the first digit would
    be more than 4 places after the point, else the digits with the point
    among them, after ``0.`` and up to three zeros, or before ``.0``."""
    e10, n, _ = np.mgrid[_E10_MIN:16, 1:18, 0:1]
    col = np.arange(28) - 1  # the Z index a column takes before the point
    point = e10 >= -4  # positional
    at = np.where(point, 5 + e10, 5)  # the point sits between Z[at - 1] and Z[at]
    first = np.where(point, np.minimum(at - 1, 4), 4)  # the first Z index shown
    end = np.where(point, np.maximum(4 + n, at + 1), np.where(n > 1, 4 + n, 4))  # and the last + 1
    left = ((col >= first) & (col < at)) * np.uint8(255)
    right = ((col > at) & (col <= end)) * np.uint8(255)
    const = ((col == at) & (point | (n > 1))) * np.uint8(ord("."))
    for k, char in enumerate([ord("e"), ord("-"), ord("0") + -e10 // 10, ord("0") + -e10 % 10], 1):
        const += (~point & (col == end + k)) * np.uint8(char)
    width = (left != 0).sum(-1) + (right != 0).sum(-1) + (const != 0).sum(-1) + 1
    sign = (col == first - 1) * np.uint8(ord("-"))
    sep = col == end + 1 + 4 * ~point
    space, newline = const + sep * np.uint8(ord(" ")), const + sep * np.uint8(ord("\n"))
    kinds = np.concatenate([space, space + sign, newline, newline + sign])
    return left.reshape(-1, 28), right.reshape(-1, 28), kinds.reshape(-1, 28), width.reshape(-1)


_LEFT, _RIGHT, _CONST, _WIDTH = _layouts()


def _repr_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each value: the kernel's fallback."""
    return list(map(repr, values.tolist()))


def _shortest(ax: np.ndarray):
    """For each positive float64 of ``ax`` in the kernel's range
    (``10**_E10_MIN <= ax < 1e16``, not a power of two, whose rounding
    interval is lopsided): its decimal exponent ``e10``, the shortest
    decimal that reads back as it as a 17-digit integer ``digits`` (first
    digit not 0) with the count of trailing digits ``repr`` drops, and
    whether a decision was too near to certify.

    ``ax * 10**(16 - e10)`` is taken exactly as ``a + f`` (int64, and ``f``
    in [0, 1]) by Dekker's double-length product against a double-double
    power of ten.  In those units half an ulp of ``ax`` is
    ``2**(exponent - 53) * 10**(16 - e10)``, from 0.55 to 11.1, and
    ``repr`` drops the most digits ``k`` for which a multiple of ``10**k``
    lies within it, writing the nearest such multiple.  The nearest integer
    always lies within it.  Whether a multiple of 10 does is decided from
    the bounds measured from the multiple of 10 below ``a``: small numbers,
    exact in float, where ``a + f`` itself is not.  A multiple of 100
    within is the only one, so its trailing zeros give ``k``.  A bound
    within :data:`_MARGIN` of a multiple of 10, a tie between two roundings
    and a reach into the next decade are left uncertain."""
    be = ax.view(np.int64) >> 52
    e10 = ((be - 1023) * 78913) >> 18  # floor((be - 1023) * log10(2)): e10 or e10 - 1
    e10 += ax >= _DECADES[e10 + 1 - _E10_MIN]
    s = 16 - e10
    high = ax * _P10[s]
    xh, xl = _split(ax)
    low = xh * _P10_HI[s] - high  # Dekker: the exact rest of the product, in this order
    low += xh * _P10_LO[s]
    low += xl * _P10_HI[s]
    low += xl * _P10_LO[s]
    low += ax * _P10_TAIL[s]  # up to half an ulp of ``high`` (8 units) either way
    whole = np.floor(low)
    a = high.astype(np.int64) + whole.astype(np.int64)
    f = low - whole
    half = np.ldexp(_P10[s], (be - 1076).astype(np.int32))
    r = a - a // 10 * 10
    below, above = r + f, (10 - r) - f  # from a + f down and up to a multiple of 10
    up, down = below + half, below - half  # the bounds, from a - r
    tens = np.floor(up / 10) * 10  # the greatest multiple of 10 within the upper bound
    drop = (tens > down).astype(np.int64)  # and within the lower
    digits = np.where(drop, a - r + 10 * (above < below), a + (f > 0.5))
    tie = np.where(drop, np.abs(above - below) < 2 * _MARGIN, np.abs(f - 0.5) < _MARGIN)
    hundreds = (a - r + tens.astype(np.int64)) // 100 * 100
    at = np.flatnonzero(hundreds - (a - r) > down)  # a multiple of 100 within: the only one
    if at.size:
        digits[at] = hundreds[at]
        drop[at] = 2 + (hundreds[at, None] % _TEN[3:17] == 0).sum(axis=1)
        tie[at] = False
    near = np.abs(up - 10 * np.rint(up / 10)) < _MARGIN
    near |= np.abs(down - 10 * np.rint(down / 10)) < _MARGIN
    return e10, digits, drop, tie | near | (digits >= _TEN[17])


def _quads(digits: np.ndarray):
    """The 17-digit ``digits`` as ASCII in five uint32 words, memory order:
    ``"000"`` and the first digit, then four digits in each of the others."""
    lead = digits // _TEN[16]
    yield _QUADS[lead]
    rest = digits - lead * _TEN[16]
    for power in (12, 8, 4):
        head = rest // _TEN[power]
        yield _QUADS[head]
        rest -= head * _TEN[power]
    yield _QUADS[rest]


def _format(x: np.ndarray, ends: np.ndarray) -> tuple[str, np.ndarray]:
    """The text of the 1-D float64 ``x``: each value's ``repr`` followed by
    ``\\n`` where ``ends`` is set (it ends a row) and ``" "`` elsewhere, and
    the offset where each value's text, separator included, ends.  Zeros,
    non-finite values, values out of :func:`_shortest`'s range and values
    it cannot certify go through :func:`_repr_texts`."""
    ax = np.abs(x)
    bits = ax.view(np.int64)
    fast = (bits & ((1 << 52) - 1) != 0) & (ax >= _DECADES[0]) & (ax < 1e16)
    if not fast.all():
        ax = np.where(fast, ax, 1.5)  # any value in range keeps the arithmetic finite
    e10, digits, drop, uncertain = _shortest(ax)
    key = (e10 - _E10_MIN) * 17 + 16 - drop
    size = x.size
    buf = np.empty(28 * size + 4, dtype=np.uint8)  # Z[j] of value i at 28 * i + 3 + j
    buf[3:28 * size:28] = ord("0")
    words = buf.view(np.uint32)[:7 * size].reshape(size, 7)
    for col, four in enumerate(_quads(digits), start=1):  # Z[1:5] to Z[17:21]
        words[:, col] = four
    out = np.take(_LEFT, key, axis=0)
    out &= buf[2:2 + 28 * size].reshape(size, 28)
    right = np.take(_RIGHT, key, axis=0)
    right &= buf[1:1 + 28 * size].reshape(size, 28)
    out |= right
    neg = x < 0
    out |= np.take(_CONST, key + len(_LEFT) * (neg + 2 * ends), axis=0)
    lengths = _WIDTH[key] + neg
    slow = np.flatnonzero(uncertain | ~fast)
    if slow.size:
        texts = [t + " \n"[end] for t, end in zip(_repr_texts(x[slow]), ends[slow].tolist())]
        lengths[slow] = [len(t) for t in texts]
        patch = np.zeros((slow.size, 28), dtype=np.uint8)
        patch[np.arange(28) < lengths[slow, None]] = np.frombuffer("".join(texts).encode(), np.uint8)
        out[slow] = patch
    return out[out != 0].tobytes().decode("ascii"), np.cumsum(lengths)
