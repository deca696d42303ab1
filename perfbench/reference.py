"""Plain-numpy reference computations the correctness checks compare against.

They work from the generator's exact vectors and weights (``truth.npz``),
not from the program's loaders, so a defect in loading or in the model code
shows as a mismatch.  Token handling follows the generator's own text:
whitespace-separated words and lexicon emoticon forms, mapped to their
canonical surfaces.
"""

from __future__ import annotations

import numpy as np

GATES = ("i", "f", "o", "c")


class Vectors:
    """Token -> row lookup over one table of the generator's vectors."""

    def __init__(self, vocab: list[str], matrix: np.ndarray, canonical: dict[str, str]):
        self.row = {w: i for i, w in enumerate(vocab)}
        self.matrix = matrix
        self.canonical = canonical

    def tokens(self, text: str) -> list[str]:
        return [self.canonical.get(t, t) for t in text.split()]

    def rows(self, tokens) -> np.ndarray:
        idx = [self.row[t] for t in tokens if t in self.row]
        return self.matrix[idx]


def pooled(vectors: Vectors, texts) -> np.ndarray:
    """Mean in-vocabulary vector of each text; zeros where none is known."""
    out = np.zeros((len(texts), vectors.matrix.shape[1]))
    for k, text in enumerate(texts):
        rows = vectors.rows(vectors.tokens(text))
        if len(rows):
            out[k] = rows.mean(axis=0)
    return out


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity, 0 where either vector is zero."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    dots = a @ b.T
    denom = np.outer(na, nb)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
    return sims


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def lstm_final(weights: dict, prefix: str, xs: np.ndarray) -> np.ndarray:
    """Final hidden state of one channel, gates fused into one matrix."""
    W = np.concatenate([weights[f"w_{prefix}_W_{g}"] for g in GATES])
    U = np.concatenate([weights[f"w_{prefix}_U_{g}"] for g in GATES])
    b = np.concatenate([weights[f"w_{prefix}_b_{g}"].reshape(-1) for g in GATES])
    hidden = U.shape[1]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    pre = xs @ W.T + b if len(xs) else np.zeros((0, 4 * hidden))
    for t in range(len(xs)):
        a = pre[t] + U @ h
        i, f, o = (_sigmoid(a[k * hidden : (k + 1) * hidden]) for k in range(3))
        g = np.tanh(a[3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def classify(weights: dict, semantic: Vectors, sentiment: Vectors, text: str,
             max_len: int) -> np.ndarray:
    """Class probabilities of the dual-channel model with ReLU FC layer."""
    tokens = semantic.tokens(text)[:max_len]
    finals = []
    for prefix, vectors in (("sem", semantic), ("sent", sentiment)):
        xs = np.stack([
            vectors.matrix[vectors.row[t]] if t in vectors.row else np.zeros(vectors.matrix.shape[1])
            for t in tokens
        ]) if tokens else np.zeros((0, vectors.matrix.shape[1]))
        finals.append(lstm_final(weights, prefix, xs))
    concat = np.concatenate(finals)
    a1 = np.maximum(weights["w_fc_W"] @ concat + weights["w_fc_b"].reshape(-1), 0.0)
    logits = weights["w_out_W"] @ a1 + weights["w_out_b"].reshape(-1)
    e = np.exp(logits - logits.max())
    return e / e.sum()
