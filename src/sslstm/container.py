"""The versioned text container of every model file: the neural
checkpoints and the NB/SVM baselines (see :func:`write_container`).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from sslstm.textfile import BadRow, DataFormatError, _float_rows, _lines, _open_write, float_matrix

CHECKPOINT_MAGIC = "SSLSTM-CKPT"
CHECKPOINT_VERSION = 1


class CheckpointError(DataFormatError):
    """Base class for malformed checkpoint files."""


class UnknownVersionError(CheckpointError):
    """Header is missing, malformed, or names an unsupported version."""


class TruncatedCheckpointError(CheckpointError):
    """File ends or loses structure before the closing ``end`` line."""


def write_container(sink, meta: dict[str, str], tensors: dict[str, np.ndarray]) -> None:
    """Serialize meta lines and tensor blocks in the versioned text format.
    1-D tensors are stored as single-row matrices; floats are written at
    ``repr`` precision, so reading them back gives the exact values.  A meta
    key or value that would not read back raises ValueError before the sink
    is opened, so an existing file keeps its bytes.  The values are
    formatted (:func:`~sslstm.textfile._float_rows`) in blocks of at most
    :data:`~sslstm.textfile.FORMAT_BLOCK` by a kernel that gives ``repr``'s
    exact text, with the values it cannot certify through ``repr``, and each
    row is written as soon as it is formatted.  A tensor of no columns is
    its header and one empty line per row."""
    meta = {key: str(value) for key, value in meta.items()}
    for key, value in meta.items():
        if " " in key or "=" in key or "\n" in key:
            raise ValueError(f"illegal meta key {key!r}")
        if "\n" in value or value.endswith("\r"):
            raise ValueError(f"meta value for {key!r} would not read back: {value!r}")
    with _open_write(sink) as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n")
        for key, value in meta.items():
            fh.write(f"meta {key}={value}\n")
        for name, arr in tensors.items():
            mat = np.atleast_2d(np.asarray(arr, dtype=np.float64))
            fh.write(f"tensor {name} {mat.shape[0]} {mat.shape[1]}\n")
            fh.writelines(_float_rows(mat))
        fh.write("end\n")


def read_container(source) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Parse the checkpoint container; inverse of :func:`write_container`.

    Raises :class:`UnknownVersionError` on a bad header,
    :class:`TruncatedCheckpointError` when the file loses structure or ends
    before ``end``, and :class:`CheckpointError` for a repeated meta key or
    tensor.  Tensors come back as 2-D float64 arrays.

    Each tensor block's rows are parsed in one call to
    :func:`~sslstm.textfile.float_matrix`, which finds the first bad row.
    A tensor of no columns reads no row lines: it has the rows its header
    declares.  Nothing is allocated at the size a tensor header declares: a
    header that declares more rows than the file holds is a missing-rows
    fault, and one declaring a row wider than any float64 array can hold,
    or more rows of no columns than that, is malformed.
    """
    lines = filter(None, _lines(source)[0])
    next_line = partial(next, lines, None)  # next non-empty line, None at the end

    header = next_line()
    if header is None:
        raise UnknownVersionError("empty file, expected checkpoint header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != CHECKPOINT_MAGIC:
        raise UnknownVersionError(f"not a checkpoint header: {header!r}")
    if parts[1] != str(CHECKPOINT_VERSION):
        raise UnknownVersionError(f"unsupported checkpoint version {parts[1]!r}")

    meta: dict[str, str] = {}
    tensors: dict[str, np.ndarray] = {}
    while True:
        line = next_line()
        if line is None:
            raise TruncatedCheckpointError("file ends before the 'end' line")
        if line == "end":
            return meta, tensors
        if line.startswith("meta "):
            body = line[len("meta "):]
            key, sep, value = body.partition("=")
            if not sep or not key:
                raise CheckpointError(f"malformed meta line: {line!r}")
            if key in meta:
                raise CheckpointError(f"duplicate meta key {key!r}")
            meta[key] = value
            continue
        if line.startswith("tensor "):
            fields = line.split()
            if len(fields) != 4:
                raise TruncatedCheckpointError(f"malformed tensor header: {line!r}")
            name = fields[1]
            if name in tensors:
                raise CheckpointError(f"duplicate tensor {name!r}")
            try:
                rows, cols = int(fields[2]), int(fields[3])
            except ValueError:
                rows = cols = -1  # not numbers: rejected with negative ones
            if rows < 0 or cols < 0 or 8 * (cols or rows) > np.iinfo(np.intp).max:
                raise TruncatedCheckpointError(f"malformed tensor dimensions: {line!r}")
            if not cols:  # its rows are empty lines, which the reader skips
                tensors[name] = np.zeros((rows, 0))
                continue
            texts = []
            for _ in range(rows):
                row_line = next_line()
                if row_line is None or row_line.startswith(("tensor ", "meta ")) or row_line == "end":
                    break
                texts.append(row_line)
            try:
                mat = float_matrix(texts, cols)
            except BadRow as bad:
                what = (f"has {bad.values} values, expected {cols}" if bad.values != cols
                        else "has non-numeric values")
                raise TruncatedCheckpointError(f"tensor {name!r} row {bad.row} {what}") from None
            if len(texts) < rows:
                raise TruncatedCheckpointError(
                    f"tensor {name!r} is missing rows ({len(texts)} of {rows} read)"
                )
            if not np.all(np.isfinite(mat)):
                raise CheckpointError(f"tensor {name!r} contains non-finite values")
            tensors[name] = mat
            continue
        raise CheckpointError(f"unrecognized checkpoint line: {line!r}")

