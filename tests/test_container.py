"""Tests for the model-file container's tensor parsing."""

import io
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sslstm.container
from sslstm.container import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    TruncatedCheckpointError,
    UnknownVersionError,
    read_container,
    write_container,
)


def reference_read_container(source):
    """The row-by-row reader: every value through ``float``, one row at a
    time.  The oracle for :func:`read_container`, which parses each tensor
    block with numpy's C parser and falls back to this order of checks."""
    lines = filter(None, [line.rstrip("\r") for line in source.read().split("\n")])
    next_line = partial(next, lines, None)

    header = next_line()
    if header is None:
        raise UnknownVersionError("empty file, expected checkpoint header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != CHECKPOINT_MAGIC:
        raise UnknownVersionError(f"not a checkpoint header: {header!r}")
    if parts[1] != str(CHECKPOINT_VERSION):
        raise UnknownVersionError(f"unsupported checkpoint version {parts[1]!r}")

    meta, tensors = {}, {}
    while True:
        line = next_line()
        if line is None:
            raise TruncatedCheckpointError("file ends before the 'end' line")
        if line == "end":
            return meta, tensors
        if line.startswith("meta "):
            key, sep, value = line[len("meta "):].partition("=")
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
                raise TruncatedCheckpointError(f"malformed tensor dimensions: {line!r}") from None
            mat = np.zeros((rows, cols))
            for r in range(rows):
                row_line = next_line()
                if row_line is None or row_line.startswith(("tensor ", "meta ")) or row_line == "end":
                    raise TruncatedCheckpointError(
                        f"tensor {name!r} is missing rows ({r} of {rows} read)"
                    )
                values = row_line.split()
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
            if not np.all(np.isfinite(mat)):
                raise CheckpointError(f"tensor {name!r} contains non-finite values")
            tensors[name] = mat
            continue
        raise CheckpointError(f"unrecognized checkpoint line: {line!r}")


def read_outcome(read, text: str):
    """What reading ``text`` gives: meta and each tensor's shape and bytes,
    or the error's type and message."""
    try:
        meta, tensors = read(io.StringIO(text))
    except Exception as exc:  # the oracle's errors are part of the contract
        return type(exc), str(exc)
    return meta, [(name, mat.shape, mat.tobytes()) for name, mat in tensors.items()]


# Any whitespace inside a row separates values, line breaks other than
# "\n" included.
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\xa0", "\x0c", "\r", "\x85", "\u2028"])
GOOD_VALUES = (
    st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.sampled_from(["0", "-1.5e-3", "1_0", "١٢"])
)
BAD_VALUES = st.sampled_from(["nan", "-inf", "1e400", "x", "0x1p3", "--1"])
FAULTS = ("short row", "long row", "non-numeric", "non-finite", "missing row",
          "blank row", "blank line", "missing end")


@st.composite
def container_files(draw):
    """Container texts: meta lines and tensor blocks with rows split by
    assorted whitespace, LF or CRLF endings, and up to three faults."""
    lines = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}", "meta kind=test"]
    blocks = []
    for t in range(draw(st.integers(1, 3))):
        rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        body = [draw(SEPARATORS).join(draw(GOOD_VALUES) for _ in range(cols)) or " "
                for _ in range(rows)]
        blocks.append([f"tensor t{t} {rows} {cols}", *body])
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=3))
    for fault in faults:
        block = draw(st.sampled_from(blocks))
        if len(block) == 1 and fault != "missing end":
            continue
        at = draw(st.integers(1, len(block) - 1)) if len(block) > 1 else 0
        values = block[at].split() if at else []
        if fault == "short row":
            block[at] = " ".join(values[:-1]) or " "
        elif fault == "long row":
            block[at] = " ".join(values + [draw(GOOD_VALUES)])
        elif fault in ("non-numeric", "non-finite") and values:
            values[draw(st.integers(0, len(values) - 1))] = draw(BAD_VALUES)
            block[at] = " ".join(values)
        elif fault == "missing row":
            del block[at]
        elif fault == "blank row":
            block[at] = draw(st.sampled_from([" ", "\t \xa0"]))
        elif fault == "blank line":
            block.insert(at, "")
    for block in blocks:
        lines += block
    if "missing end" not in faults:
        lines.append("end")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol


class TestReadContainer:
    @settings(max_examples=400, deadline=None)
    @given(text=container_files())
    def test_same_tensors_or_same_error(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_outcome(read_container, text) == read_outcome(reference_read_container, text)

    def test_rows_in_python_float_syntax_read_as_before(self):
        text = "SSLSTM-CKPT 1\ntensor w 2 2\n1_0 ١٢\n0.5 -2\nend\n"
        _, tensors = read_container(io.StringIO(text))
        np.testing.assert_array_equal(tensors["w"], [[10.0, 12.0], [0.5, -2.0]])

    def test_zero_row_tensor_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, tensors = read_container(io.StringIO("SSLSTM-CKPT 1\ntensor e 0 3\nend\n"))
        assert tensors["e"].shape == (0, 3)

    def test_written_tensors_take_the_c_parse_alone(self, monkeypatch):
        rng = np.random.default_rng(5)
        tensors = {"W": rng.standard_normal((512, 100)), "b": rng.standard_normal(512),
                   "fc": rng.standard_normal((4, 7))}
        sink = io.StringIO()
        write_container(sink, {"kind": "test"}, tensors)

        def forbidden(*args):
            raise AssertionError("row-by-row pass on rows the C parser reads")

        monkeypatch.setattr(sslstm.container, "_rows_by_float", forbidden)
        _, back = read_container(io.StringIO(sink.getvalue()))
        for name, arr in tensors.items():
            assert back[name].tobytes() == np.atleast_2d(arr).tobytes()

    def test_bad_row_before_missing_rows_names_the_bad_row(self):
        text = "SSLSTM-CKPT 1\ntensor w 3 2\n1 2\n3 x\nend\n"
        with pytest.raises(TruncatedCheckpointError, match="row 1 has non-numeric"):
            read_container(io.StringIO(text))
