"""The versioned text container of every model file: the neural
checkpoints and the NB/SVM baselines (see :func:`write_container`).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from sslstm.textfile import DataFormatError, _lines, _open_write, float_rows

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
    ``repr`` precision, so reading them back gives the exact values."""
    with _open_write(sink) as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n")
        for key, value in meta.items():
            value = str(value)
            if " " in key or "=" in key or "\n" in key:
                raise ValueError(f"illegal meta key {key!r}")
            if "\n" in value or value.endswith("\r"):
                raise ValueError(f"meta value for {key!r} would not read back: {value!r}")
            fh.write(f"meta {key}={value}\n")
        for name, arr in tensors.items():
            mat = np.atleast_2d(np.asarray(arr, dtype=np.float64))
            fh.write(f"tensor {name} {mat.shape[0]} {mat.shape[1]}\n")
            for row in mat:
                fh.write(" ".join(map(repr, row.tolist())) + "\n")
        fh.write("end\n")


def read_container(source) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Parse the checkpoint container; inverse of :func:`write_container`.

    Raises :class:`UnknownVersionError` on a bad header and
    :class:`TruncatedCheckpointError` when the file loses structure or ends
    before ``end``.  Tensors come back as 2-D float64 arrays.

    Each tensor block's rows are parsed in one call to numpy's C float
    parser (:func:`~sslstm.textfile.float_rows`); only when it rejects a row
    are they parsed again one at a time with ``float``
    (:func:`_rows_by_float`), which names the first bad row.
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
            if rows < 0 or cols < 0:
                raise TruncatedCheckpointError(f"malformed tensor dimensions: {line!r}")
            mat = np.empty((rows, cols))
            texts = []
            for _ in range(rows):
                row_line = next_line()
                if row_line is None or row_line.startswith(("tensor ", "meta ")) or row_line == "end":
                    break
                texts.append(row_line)
            parsed = float_rows(texts)
            if parsed is None or parsed.shape != (len(texts), cols):
                parsed = _rows_by_float(texts, name, cols)
            mat[: len(texts)] = parsed
            if len(texts) < rows:
                raise TruncatedCheckpointError(
                    f"tensor {name!r} is missing rows ({len(texts)} of {rows} read)"
                )
            if not np.all(np.isfinite(mat)):
                raise CheckpointError(f"tensor {name!r} contains non-finite values")
            tensors[name] = mat
            continue
        raise CheckpointError(f"unrecognized checkpoint line: {line!r}")


def _rows_by_float(texts: list[str], name: str, cols: int) -> np.ndarray:
    """The rows of tensor ``name`` parsed one at a time with ``float``,
    which also reads digit underscores and non-ASCII digits; raises at the
    first row that is not ``cols`` numbers."""
    mat = np.empty((len(texts), cols))
    for r, text in enumerate(texts):
        values = text.split()
        if len(values) != cols:
            raise TruncatedCheckpointError(
                f"tensor {name!r} row {r} has {len(values)} values, expected {cols}"
            )
        try:
            mat[r] = [float(v) for v in values]
        except ValueError:
            raise TruncatedCheckpointError(
                f"tensor {name!r} row {r} has non-numeric values"
            ) from None
    return mat
