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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from sslstm.labels import LABELS, N_CLASSES, label_index
from sslstm.text_norm import EmoticonLexicon, Token, normalize_utterance
from sslstm.textfile import DataFormatError, _lines, _open_write


@dataclass
class Conversation:
    """One 3-turn conversation.  Only the last turn is classified; the two
    context turns are carried along for provenance.  ``lex`` is the lexicon
    its tokens are normalized with."""

    id: str
    turn1: str
    turn2: str
    turn3: str
    label: str | None = None
    lex: EmoticonLexicon = field(kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        if not self.id:
            raise ValueError("conversation id must be non-empty")
        if not self.turn3:
            raise ValueError(f"conversation {self.id}: turn3 must be non-empty")
        if self.label is not None:
            self.label = LABELS[label_index(self.label)]

    @cached_property
    def tokens(self) -> list[Token]:
        """Normalized token sequence of the final turn (computed once)."""
        return normalize_utterance(self.turn3, self.lex)


def read_dataset(source, lex: EmoticonLexicon) -> list[Conversation]:
    """Parse a conversation TSV into Conversation records, in file order,
    whose tokens are normalized with ``lex`` when first asked for.

    Every line must have 4 (unlabeled) or 5 (labeled) tab-separated fields;
    ids must be unique; labels must be known classes.  Violations raise
    :class:`DataFormatError` naming the offending line.
    """
    conversations: list[Conversation] = []
    seen: set[str] = set()
    lines, label_name = _lines(source)
    for lineno, line in enumerate(lines, start=1):
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
                lex=lex,
            )
        )
    return conversations


def write_dataset(dataset, sink) -> None:
    """Serialize conversations back to TSV, one line each, trailing newline;
    a row that would not read back as written raises ValueError."""
    lines = []
    for conv in dataset:
        fields = [conv.id, conv.turn1, conv.turn2, conv.turn3]
        if conv.label is not None:
            fields.append(conv.label)
        for text in fields:
            if "\t" in text or "\n" in text:
                raise ValueError(f"conversation {conv.id}: tabs/newlines are not representable")
        line = "\t".join(fields)
        if line.startswith("#") or line.endswith("\r"):
            raise ValueError(f"conversation {conv.id}: line would not read back: {line!r}")
        lines.append(line)
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
    lines, label_name = _lines(source)
    for lineno, line in enumerate(lines, start=1):
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
