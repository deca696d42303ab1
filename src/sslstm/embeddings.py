"""Word-embedding tables for the two model channels, plus sentence pooling.

A table is loaded from a plain-text file (``token v1 v2 ... vD`` per line,
optionally preceded by a ``COUNT DIM`` header) and is immutable afterwards.
Out-of-vocabulary tokens look up as the all-zero vector, so they contribute
nothing to sentence means and never crash mining or the classifier.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from sslstm.text_norm import surface, surfaces

# Fallback dimensionalities for channels constructed without a file.
DEFAULT_SEMANTIC_DIM = 100
DEFAULT_SENTIMENT_DIM = 50


class EmbeddingFormatError(ValueError):
    """Raised for malformed embedding files."""


@dataclass
class EmbeddingTable:
    """token -> dense float64 vector, all of one dimensionality."""

    dim: int
    vectors: dict[str, np.ndarray]
    name: str = ""
    source_sha256: str | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError(f"embedding dim must be positive, got {self.dim}")
        for tok, vec in self.vectors.items():
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (self.dim,):
                raise ValueError(f"vector for {tok!r} has shape {vec.shape}, expected ({self.dim},)")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"vector for {tok!r} has non-finite components")
            self.vectors[tok] = vec
        self._zero = np.zeros(self.dim)

    def __contains__(self, token) -> bool:
        return surface(token) in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)


def empty_table(dim: int, name: str = "") -> EmbeddingTable:
    """A table with no vocabulary; every lookup is the zero vector."""
    return EmbeddingTable(dim=dim, vectors={}, name=name)


def load_embedding_file(source, name: str = "") -> EmbeddingTable:
    """Load a table from a path or a text/byte stream.

    The dimensionality is inferred from the first data line; every later line
    must agree.  Duplicate tokens, empty files, bad floats, and header
    mismatches all raise :class:`EmbeddingFormatError` naming the line.
    """
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        label = name or getattr(source, "name", "<stream>")
    else:
        with open(source, "rb") as fh:
            data = fh.read().decode("utf-8")
        label = name or str(source)
    digest = hashlib.sha256(data.encode("utf-8")).hexdigest()

    vectors: dict[str, np.ndarray] = {}
    dim = None
    declared = None
    for lineno, line in enumerate(data.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if lineno == 1 and len(fields) == 2:
            try:
                declared = (int(fields[0]), int(fields[1]))
                continue
            except ValueError:
                pass  # two-field first line that is not a header: a 1-dim entry
        token, values = fields[0], fields[1:]
        if not values:
            raise EmbeddingFormatError(f"{label}:{lineno}: no values for token {token!r}")
        if token in vectors:
            raise EmbeddingFormatError(f"{label}:{lineno}: duplicate token {token!r}")
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise EmbeddingFormatError(f"{label}:{lineno}: non-numeric value in entry for {token!r}") from None
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise EmbeddingFormatError(
                f"{label}:{lineno}: dimension mismatch: expected {dim} values, got {len(vec)}"
            )
        if not np.all(np.isfinite(vec)):
            raise EmbeddingFormatError(f"{label}:{lineno}: non-finite value in entry for {token!r}")
        vectors[token] = vec
    if not vectors:
        raise EmbeddingFormatError(f"{label}: empty embedding file")
    if declared is not None:
        count, hdim = declared
        if count != len(vectors):
            raise EmbeddingFormatError(f"{label}: header declares {count} entries, file has {len(vectors)}")
        if hdim != dim:
            raise EmbeddingFormatError(f"{label}: header declares dim {hdim}, file has {dim}")
    return EmbeddingTable(dim=dim, vectors=vectors, name=name, source_sha256=digest)


def save_embedding_file(table: EmbeddingTable, sink, header: bool = False) -> None:
    """Write a table in the loadable format (repr-precision floats)."""
    own = not hasattr(sink, "write")
    fh = open(sink, "w", encoding="utf-8") if own else sink
    try:
        if header:
            fh.write(f"{len(table.vectors)} {table.dim}\n")
        for token, vec in table.vectors.items():
            fh.write(token + " " + " ".join(repr(float(v)) for v in vec) + "\n")
    finally:
        if own:
            fh.close()


def lookup(table: EmbeddingTable, token) -> np.ndarray:
    """Vector for a token; the zero vector when out of vocabulary."""
    return table.vectors.get(surface(token), table._zero)


def cosine(u, v) -> float:
    """Cosine similarity; 0 when either vector has zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"cosine: length mismatch {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if np.array_equal(u, v):
        # dot/(nu*nv) on identical vectors can round to 1 - 2 ulp; callers
        # compare similarities against inclusive thresholds up to 1.0.
        return 1.0
    return float(np.dot(u, v) / (nu * nv))


def sentence_embedding(table: EmbeddingTable, tokens) -> np.ndarray:
    """Mean of the in-vocabulary token vectors; zeros if there are none."""
    in_vocab = [table.vectors[s] for s in surfaces(tokens) if s in table.vectors]
    if not in_vocab:
        return np.zeros(table.dim)
    return np.mean(in_vocab, axis=0)
