"""Dataset and judgment-file ingestion.

Conversations are 3-turn exchanges stored one per line as UTF-8 TSV:
``id<TAB>turn1<TAB>turn2<TAB>turn3<TAB>label`` with the label column
optional for prediction inputs.  '#'-prefixed lines are comments.  Tabs
inside utterance text are illegal rather than escaped, which keeps the
format trivially parseable and diff-able.

Judgment files carry per-item label counts from n human judges:
``item_id<TAB>happy<TAB>sad<TAB>angry<TAB>others``.
"""

from __future__ import annotations

import io
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sslstm.labels import LABELS, N_CLASSES, label_index
from sslstm.text_norm import Token, normalize_utterance


class DataFormatError(ValueError):
    """Malformed dataset or judgment file; messages carry line numbers."""


@dataclass
class Conversation:
    """One 3-turn conversation.  Only the last turn is classified; the two
    context turns are carried along for provenance."""

    id: str
    turn1: str
    turn2: str
    turn3: str
    label: str | None = None
    _tokens: list[Token] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.id:
            raise ValueError("conversation id must be non-empty")
        if not self.turn3:
            raise ValueError(f"conversation {self.id}: turn3 must be non-empty")
        if self.label is not None:
            self.label = LABELS[label_index(self.label)]

    @property
    def tokens(self) -> list[Token]:
        """Normalized token sequence of the final turn (computed once)."""
        if self._tokens is None:
            self._tokens = normalize_utterance(self.turn3)
        return self._tokens


@contextmanager
def _open_read(source):
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            yield fh, str(source)
    elif isinstance(source, (bytes, bytearray)):
        yield io.StringIO(source.decode("utf-8")), "<bytes>"
    elif isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        yield io.TextIOWrapper(source, encoding="utf-8"), "<stream>"
    else:
        yield source, getattr(source, "name", "<stream>")


@contextmanager
def _open_write(sink):
    if isinstance(sink, (str, Path)):
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
    non-ASCII digits: on None, callers parse row by row with ``float``,
    which also names the first bad line.  It skips a line that is all
    whitespace, so callers compare the row count with the lines they gave
    (a blank first line gives None).
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


def _content_lines(source):
    """(label, line number, text) of each line that is neither blank nor a
    ``#`` comment."""
    with _open_read(source) as (fh, name):
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if line.strip() and not line.lstrip().startswith("#"):
                yield name, lineno, line


def _tsv_rows(source, n_fields: int):
    """:func:`_content_lines` split at tabs; each must have ``n_fields`` fields."""
    for name, lineno, line in _content_lines(source):
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise DataFormatError(
                f"{name}:{lineno}: expected {n_fields} tab-separated fields, got {len(fields)}"
            )
        yield name, lineno, fields


def read_dataset(source) -> list[Conversation]:
    """Parse a conversation TSV into Conversation records, in file order.

    Every line must have 4 (unlabeled) or 5 (labeled) tab-separated fields;
    ids must be unique; labels must be known classes.  Violations raise
    :class:`DataFormatError` naming the offending line.
    """
    conversations: list[Conversation] = []
    seen: set[str] = set()
    with _open_read(source) as (fh, label_name):
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) not in (4, 5):
                raise DataFormatError(
                    f"{label_name}:{lineno}: expected 4 or 5 tab-separated fields, got {len(fields)}"
                )
            conv_id = fields[0]
            if not conv_id:
                raise DataFormatError(f"{label_name}:{lineno}: empty conversation id")
            if conv_id in seen:
                raise DataFormatError(f"{label_name}:{lineno}: duplicate id {conv_id!r}")
            seen.add(conv_id)
            label = None
            if len(fields) == 5:
                try:
                    label = LABELS[label_index(fields[4])]
                except ValueError:
                    raise DataFormatError(
                        f"{label_name}:{lineno}: unknown label {fields[4]!r}"
                    ) from None
            if not fields[3]:
                raise DataFormatError(f"{label_name}:{lineno}: empty final turn")
            conversations.append(
                Conversation(
                    id=conv_id,
                    turn1=fields[1],
                    turn2=fields[2],
                    turn3=fields[3],
                    label=label,
                )
            )
    return conversations


def write_dataset(dataset, sink) -> None:
    """Serialize conversations back to TSV, one line each, trailing newline."""
    lines = []
    for conv in dataset:
        fields = [conv.id, conv.turn1, conv.turn2, conv.turn3]
        if conv.label is not None:
            fields.append(conv.label)
        for text in fields:
            if "\t" in text or "\n" in text:
                raise ValueError(
                    f"conversation {conv.id}: tabs/newlines are not representable"
                )
        lines.append("\t".join(fields))
    with _open_write(sink) as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def require_labeled(dataset) -> list[Conversation]:
    """Return the dataset unchanged, or raise if any conversation lacks a label."""
    for conv in dataset:
        if conv.label is None:
            raise DataFormatError(f"conversation {conv.id} has no label")
    return list(dataset)


def read_judgments(source) -> tuple[np.ndarray, int]:
    """Parse per-item judge counts into an items x 4 matrix plus the judge
    count n (inferred from the first row; later rows must agree)."""
    rows: list[list[int]] = []
    n = None
    seen: set[str] = set()
    with _open_read(source) as (fh, label_name):
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 1 + N_CLASSES:
                raise DataFormatError(
                    f"{label_name}:{lineno}: expected {1 + N_CLASSES} fields, got {len(fields)}"
                )
            item_id = fields[0]
            if item_id in seen:
                raise DataFormatError(f"{label_name}:{lineno}: duplicate item {item_id!r}")
            seen.add(item_id)
            try:
                counts = [int(x) for x in fields[1:]]
            except ValueError:
                raise DataFormatError(
                    f"{label_name}:{lineno}: non-integer judgment count"
                ) from None
            if any(c < 0 for c in counts):
                raise DataFormatError(f"{label_name}:{lineno}: negative judgment count")
            total = sum(counts)
            if n is None:
                n = total
                if n < 2:
                    raise DataFormatError(
                        f"{label_name}:{lineno}: need at least 2 judges, got {n}"
                    )
            elif total != n:
                raise DataFormatError(
                    f"{label_name}:{lineno}: row sums to {total}, expected {n}"
                )
            rows.append(counts)
    if n is None:
        raise DataFormatError(f"{label_name}: no judgment rows")
    return np.array(rows, dtype=np.int64), n


def majority_label(counts) -> str | None:
    """Majority-vote label for one judgment row; ties yield None so the item
    can be excluded from evaluation."""
    counts = np.asarray(counts)
    best = int(np.argmax(counts))
    if int((counts == counts[best]).sum()) > 1:
        return None
    return LABELS[best]
