"""Tests for the model-file container's tensor parsing."""

import io
import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sslstm.textfile
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
    block with numpy's C parser and falls back to this order of checks.
    A tensor of no columns reads no row lines."""
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
                raise TruncatedCheckpointError(f"malformed tensor dimensions: {line!r}") from None
            mat = np.zeros((rows, cols))
            for r in range(rows if cols else 0):
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
          "blank row", "blank line", "missing end", "repeated meta")


@st.composite
def container_files(draw):
    """Container texts: meta lines and tensor blocks with rows split by
    assorted whitespace (a row of no columns is an empty line, as
    :func:`write_container` writes it), LF or CRLF endings, and up to three
    faults."""
    lines = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}", "meta kind=test"]
    blocks = []
    for t in range(draw(st.integers(1, 3))):
        rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        body = [draw(SEPARATORS).join(draw(GOOD_VALUES) for _ in range(cols))
                for _ in range(rows)]
        blocks.append([f"tensor t{t} {rows} {cols}", *body])
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=3))
    for fault in faults:
        if fault == "repeated meta":
            lines.append(f"meta kind={draw(st.sampled_from(['test', 'other']))}")
            continue
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

        loadtxt_calls = []
        loadtxt = np.loadtxt

        def counted(*args, **kwargs):
            loadtxt_calls.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        monkeypatch.setattr(sslstm.textfile, "_rows_by_float", forbidden)
        _, back = read_container(io.StringIO(sink.getvalue()))
        assert len(loadtxt_calls) == len(tensors)
        for name, arr in tensors.items():
            assert back[name].tobytes() == np.atleast_2d(arr).tobytes()

    def test_a_repeated_meta_key_is_refused(self):
        text = "SSLSTM-CKPT 1\nmeta model=nb\nmeta model=svm\nend\n"
        with pytest.raises(CheckpointError, match="duplicate meta key 'model'"):
            read_container(io.StringIO(text))
        assert read_outcome(read_container, text) == read_outcome(reference_read_container, text)

    @pytest.mark.parametrize("rows", [10**12, 10**20])
    def test_a_header_declaring_more_rows_than_the_file_holds(self, rows):
        text = f"SSLSTM-CKPT 1\nmeta model=nb\ntensor priors {rows} 4\n0.1 0.2 0.3 0.4\nend\n"
        with pytest.raises(TruncatedCheckpointError,
                           match=rf"tensor 'priors' is missing rows \(1 of {rows} read\)"):
            read_container(io.StringIO(text))

    def test_bad_row_before_missing_rows_names_the_bad_row(self):
        text = "SSLSTM-CKPT 1\ntensor w 3 2\n1 2\n3 x\nend\n"
        with pytest.raises(TruncatedCheckpointError, match="row 1 has non-numeric"):
            read_container(io.StringIO(text))


def reference_write(tensors) -> str:
    """The container text of ``tensors`` with every value through ``repr``
    on its own, row by row: the oracle for :func:`write_container`."""
    out = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n"]
    for name, arr in tensors.items():
        mat = np.atleast_2d(arr)
        out.append(f"tensor {name} {mat.shape[0]} {mat.shape[1]}\n")
        out += [" ".join(repr(float(value)) for value in row) + "\n" for row in mat]
    return "".join(out + ["end\n"])


# Values whose repr is out of the ordinary: signed zeros, subnormals, and
# values that repr writes with an exponent (or just without one).
ODD_VALUES = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-05, 0.0001,
              1e16, 9999999999999998.0, -1.2345e22, 1.7976931348623157e308, float("inf")]
VALUES = st.sampled_from(ODD_VALUES) | st.floats(allow_nan=False)


@st.composite
def tensors(draw):
    """1-D or 2-D tensors, possibly with no rows or no columns, whose share
    of distinct values runs from one value repeated to all distinct."""
    shape = draw(st.sampled_from([(draw(st.integers(0, 9)),),
                                  (draw(st.integers(0, 6)), draw(st.integers(0, 8)))]))
    size = math.prod(shape)
    if draw(st.booleans()):  # all distinct
        values = draw(st.lists(VALUES, min_size=size, max_size=size, unique_by=repr))
    else:
        pool = draw(st.lists(VALUES, min_size=1, max_size=max(size, 1), unique_by=repr))
        values = [pool[k] for k in draw(st.lists(st.integers(0, len(pool) - 1),
                                                 min_size=size, max_size=size))]
    return np.array(values, dtype=np.float64).reshape(shape)


class TestWriteContainer:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(tensors(), min_size=1, max_size=3))
    def test_bytes_equal_repr_of_each_value(self, arrays):
        tensors = {f"t{k}": arr for k, arr in enumerate(arrays)}
        sink = io.StringIO()
        write_container(sink, {}, tensors)
        assert sink.getvalue() == reference_write(tensors)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(tensors(), min_size=1, max_size=3))
    def test_written_tensors_read_back_bit_for_bit(self, arrays):
        tensors = {f"t{k}": arr for k, arr in enumerate(arrays)}
        sink = io.StringIO()
        write_container(sink, {}, tensors)
        if not all(np.isfinite(arr).all() for arr in arrays):
            with pytest.raises(CheckpointError, match="non-finite"):
                read_container(io.StringIO(sink.getvalue()))
            return
        _, back = read_container(io.StringIO(sink.getvalue()))
        assert list(back) == list(tensors)
        for name, arr in tensors.items():
            assert back[name].shape == np.atleast_2d(arr).shape
            assert back[name].tobytes() == arr.tobytes()  # -0.0 kept

    @pytest.mark.parametrize("distinct", range(1, 9))
    def test_values_are_formatted_once_when_at_most_half_are_distinct(self, distinct):
        # 8 values of which 1..8 are distinct, -0.0 and 0.0 among them.
        pool = [0.0, -0.0, 1e-310, 0.1, -2.5, 1e22, 3.0, 7.25]
        mat = np.array([pool[k % distinct] for k in range(8)]).reshape(2, 4)
        few = sslstm.textfile._few_distinct(mat.view(np.int64))
        if 2 * distinct <= mat.size:
            assert sorted(few.view(np.float64).tolist()) == sorted(pool[:distinct])
        else:
            assert few is None
        sink = io.StringIO()
        write_container(sink, {}, {"w": mat})
        assert sink.getvalue() == reference_write({"w": mat})

    def test_a_mostly_distinct_tensor_is_never_held_whole_as_text(self, tmp_path):
        mat = np.random.default_rng(0).standard_normal((1000, 256))
        assert len(np.unique(mat)) == mat.size
        path = tmp_path / "big.ckpt"
        tracemalloc.start()
        try:
            write_container(path, {}, {"w": mat})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        written = path.stat().st_size
        assert peak < written / 2, f"traced peak {peak / 1e6:.2f} MB for {written / 1e6:.2f} MB"

    @pytest.mark.parametrize(("meta", "message"), [
        ({"kind": "test", "a b": "1"}, "illegal meta key"),
        ({"kind": "test", "a=b": "1"}, "illegal meta key"),
        ({"kind": "test", "note": "two\nlines"}, "would not read back"),
        ({"kind": "test", "note": "ends in\r"}, "would not read back"),
    ])
    def test_a_rejected_write_leaves_the_file_as_it_was(self, tmp_path, meta, message):
        path = tmp_path / "model.ckpt"
        write_container(path, {"kind": "test"}, {"w": np.arange(6.0).reshape(2, 3)})
        before = path.read_bytes()
        with pytest.raises(ValueError, match=message):
            write_container(path, meta, {"w": np.ones((2, 3))})
        assert path.read_bytes() == before
