"""Classical baselines: multinomial Naive Bayes and a linear SVM, both linear
scorers over one sparse design matrix (Wang and Manning, 2012).

:func:`design_matrix` builds one CSR matrix per dataset in a single pass: a
row per utterance with the counts of its contiguous 1/2/3-grams over
normalized token surfaces in columns ``0``..``V-1``, then its happy/sad/angry
emoticon counts in columns ``V``..``V+2``.  NB weighs the n-gram columns by
their smoothed log-likelihoods on top of the log priors; the SVM weighs every
column by its one-vs-rest weights on top of its biases and is trained by
Pegasos on L2-regularized hinge loss in O(nnz + 4·V) memory, never an n × V
matrix.  :func:`baseline_scores` is the one sparse product for both.

Baseline models serialize into the same versioned container as the neural
checkpoints, tagged ``meta model=nb`` or ``meta model=svm``, with the
SHA-256 of the emoticon lexicon their features were built with.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from sslstm.labels import LABELS, N_CLASSES, label_index
from sslstm.text_norm import EmoticonLexicon, emoticon_class, surfaces
from sslstm.container import CheckpointError, read_container, write_container

NGRAM_ORDERS = (1, 2, 3)
SVM_EPOCHS = 30

# The emoticon classes counted, in the order of their columns after the n-grams.
_EMOTICON_CLASSES = ("happy", "sad", "angry")


class DesignMatrix(NamedTuple):
    """Sparse rows in CSR form: row ``i`` holds ``vals[indptr[i]:indptr[i+1]]``
    at columns ``cols[indptr[i]:indptr[i+1]]`` of ``width``."""

    indptr: np.ndarray  # (n + 1,) int64
    cols: np.ndarray    # (nnz,) int64
    vals: np.ndarray    # (nnz,) float64
    width: int

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))


def design_matrix(token_lists, lex: EmoticonLexicon, vocab: dict[str, int] | None = None):
    """One row per token list and the n-gram vocabulary, as ``(matrix, vocab)``.

    A row lists its grams in order of first appearance in the utterance,
    unigrams then bigrams then trigrams, then its non-zero happy, sad and
    angry emoticon counts; neutral emoticons are not counted.  With
    ``vocab`` None the vocabulary is built in order of first appearance
    across rows; otherwise grams outside ``vocab`` are dropped.
    """
    grow = vocab is None
    if grow:
        vocab = {}
    indptr, cols, vals = [0], [], []
    for tokens in token_lists:
        texts = surfaces(tokens)
        grams = Counter(
            " ".join(texts[start : start + order])
            for order in NGRAM_ORDERS
            for start in range(len(texts) - order + 1)
        )
        for gram, count in grams.items():
            col = vocab.setdefault(gram, len(vocab)) if grow else vocab.get(gram)
            if col is not None:
                cols.append(col)
                vals.append(count)
        classes = Counter(emoticon_class(text, lex) for text in texts)
        for slot, name in enumerate(_EMOTICON_CLASSES):
            if classes[name]:
                cols.append(-1 - slot)  # moved behind the n-grams once V is known
                vals.append(classes[name])
        indptr.append(len(cols))
    cols = np.array(cols, dtype=np.int64)
    emoticon = cols < 0
    cols[emoticon] = len(vocab) - 1 - cols[emoticon]
    indptr = np.array(indptr, dtype=np.int64)
    return DesignMatrix(indptr, cols, np.array(vals, dtype=np.float64), len(vocab) + 3), vocab


def _labeled_design(dataset, lex: EmoticonLexicon):
    """Design matrix, class targets and vocabulary of labeled conversations."""
    token_lists, targets = [], []
    for conv in dataset:
        if conv.label is None:
            raise ValueError(f"conversation {conv.id} has no label")
        token_lists.append(conv.tokens)
        targets.append(label_index(conv.label))
    if not targets:
        raise ValueError("dataset is empty")
    matrix, vocab = design_matrix(token_lists, lex)
    return matrix, np.array(targets, dtype=np.int64), vocab


def _require_positive(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass
class NBModel:
    """Multinomial Naive Bayes over the n-gram block with Laplace-alpha
    smoothing.  ``vocab`` maps gram -> column of ``log_likelihood`` (4 x V);
    grams outside the vocabulary are skipped at prediction time."""

    priors: np.ndarray
    vocab: dict[str, int]
    log_likelihood: np.ndarray
    alpha: float
    log_priors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.priors = np.asarray(self.priors, dtype=np.float64)
        if self.priors.shape != (N_CLASSES,):
            raise ValueError(f"priors must have {N_CLASSES} entries")
        if not np.all(np.isfinite(self.priors)) or np.any(self.priors < 0):
            raise ValueError("priors must be finite and non-negative")
        # Slack for priors rounded in hand-written model files.
        if abs(float(self.priors.sum()) - 1.0) > 1e-6:
            raise ValueError("priors must sum to 1")
        _require_positive(self.alpha, "smoothing constant")
        self.log_likelihood = np.asarray(self.log_likelihood, dtype=np.float64)
        if self.log_likelihood.shape != (N_CLASSES, len(self.vocab)):
            raise ValueError("log-likelihood table does not match the vocabulary")
        with np.errstate(divide="ignore"):
            self.log_priors = np.log(self.priors)  # -inf for a class with no examples


def nb_train(dataset, lex: EmoticonLexicon, alpha: float = 1.0) -> NBModel:
    """Fit class priors and smoothed n-gram likelihoods from labeled
    conversations.  Priors are empirical label frequencies."""
    _require_positive(alpha, "smoothing constant")
    matrix, y, vocab = _labeled_design(dataset, lex)
    grams = matrix.cols < len(vocab)  # NB models the n-gram block only
    counts = np.zeros((N_CLASSES, len(vocab)))
    np.add.at(counts, (y[matrix.row_ids()[grams]], matrix.cols[grams]), matrix.vals[grams])
    priors = np.bincount(y, minlength=N_CLASSES) / len(y)
    totals = counts.sum(axis=1, keepdims=True)
    log_likelihood = np.log((counts + alpha) / (totals + alpha * max(len(vocab), 1)))
    return NBModel(priors=priors, vocab=vocab, log_likelihood=log_likelihood, alpha=alpha)


@dataclass
class LinearSVMModel:
    """One-vs-rest linear classifiers over n-gram counts plus the emoticon
    3-vector (the last three feature dimensions)."""

    vocab: dict[str, int]
    weights: np.ndarray  # (4, V + 3)
    bias: np.ndarray     # (4,)
    lambda_reg: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.shape != (N_CLASSES, len(self.vocab) + 3):
            raise ValueError("weight matrix does not match the feature space")
        if self.bias.shape != (N_CLASSES,):
            raise ValueError(f"bias must have {N_CLASSES} entries")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("weights must be finite")
        _require_positive(self.lambda_reg, "regularization constant")


def svm_fit_vectors(matrix: DesignMatrix, y, lambda_reg: float, epochs: int, seed: int):
    """Pegasos one-vs-rest training on the rows of ``matrix``.

    Per visited example t (counted across epochs) the step size is
    1/(lambda*t): every class weight row shrinks by a factor (1 - 1/t) and
    margin-violating rows additionally move along +/- the example.  The
    weights are kept scaled as ``u = t*w``, which turns the shrink into a
    no-op and the move into ``u += sign*x/lambda`` on the row's columns
    only.  Biases are unregularized.  Returns (weights, bias).
    """
    y = np.asarray(y, dtype=np.int64)
    indptr, cols, vals, dim = matrix
    if len(cols) and (cols.min() < 0 or cols.max() >= dim):
        raise ValueError(f"feature column out of range [0, {dim})")
    # The update below is buffered: a repeated column would move only once.
    if len(np.unique(matrix.row_ids() * dim + cols)) != len(cols):
        raise ValueError("a feature row repeats a column")
    # Each row's columns, values and moves (values / lambda), split once.
    row_cols, row_vals, row_moves = (np.split(a, indptr[1:-1]) for a in (cols, vals, vals / lambda_reg))
    u = np.zeros((N_CLASSES, dim))
    bias = np.zeros(N_CLASSES)
    signs = np.where(y[:, None] == np.arange(N_CLASSES)[None, :], 1.0, -1.0)  # (n, 4)
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for idx in rng.permutation(len(indptr) - 1):
            t += 1
            eta = 1.0 / (lambda_reg * t)
            c, sign = row_cols[idx], signs[idx]
            # w_{t-1} = u/(t-1); u is still zero at t = 1, where w_0 = 0.
            margins = sign * (u[:, c] @ row_vals[idx] / max(t - 1, 1) + bias)
            violating = margins < 1.0
            if violating.any():
                u[np.flatnonzero(violating)[:, None], c] += sign[violating][:, None] * row_moves[idx]
                bias[violating] += eta * sign[violating]
    return u / max(t, 1), bias


def svm_train(
    dataset,
    lex: EmoticonLexicon,
    lambda_reg: float = 0.005,
    epochs: int = SVM_EPOCHS,
    seed: int = 0,
) -> LinearSVMModel:
    """Train the one-vs-rest linear SVM on labeled conversations."""
    _require_positive(lambda_reg, "regularization constant")
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    matrix, y, vocab = _labeled_design(dataset, lex)
    weights, bias = svm_fit_vectors(matrix, y, lambda_reg, epochs, seed)
    return LinearSVMModel(vocab=vocab, weights=weights, bias=bias, lambda_reg=lambda_reg)


def baseline_scores(model, matrix: DesignMatrix) -> np.ndarray:
    """Per-class scores ``(n, 4)``: each row's bias plus every stored entry
    times its column's class weights, added in the row's entry order.  NB
    scores are log posteriors up to the shared evidence term."""
    if isinstance(model, NBModel):
        weights = np.pad(model.log_likelihood, ((0, 0), (0, 3)))  # no emoticon weights
        bias = model.log_priors
    else:
        weights, bias = model.weights, model.bias
    if matrix.width != weights.shape[1]:
        raise ValueError("design matrix does not match the model's feature space")
    scores = np.tile(bias, (len(matrix.indptr) - 1, 1))
    # Unbuffered and in index order: a row's entries add up in the order
    # the row lists them.
    np.add.at(scores, matrix.row_ids(), (weights[:, matrix.cols] * matrix.vals).T)
    return scores


def baseline_predict(model, token_lists, lex: EmoticonLexicon) -> list[str]:
    """Highest-scoring label per token list; ties break in class order."""
    matrix, _ = design_matrix(token_lists, lex, model.vocab)
    return [LABELS[i] for i in np.argmax(baseline_scores(model, matrix), axis=1)]


def _vocab_meta(vocab: dict[str, int]) -> str:
    ordered = sorted(vocab, key=vocab.get)
    return "\t".join(ordered)


def _vocab_from_meta(value: str) -> dict[str, int]:
    if value == "":
        return {}
    return {gram: i for i, gram in enumerate(value.split("\t"))}


def save_baseline(model, sink, lex: EmoticonLexicon) -> None:
    """Write an NB or SVM model, trained with lexicon ``lex``, into the
    shared checkpoint container."""
    lexicon_sha256 = lex.sha256 or "-"
    if isinstance(model, NBModel):
        meta = {
            "model": "nb",
            "alpha": repr(float(model.alpha)),
            "lexicon_sha256": lexicon_sha256,
            "vocab": _vocab_meta(model.vocab),
        }
        tensors = {"priors": model.priors}
        if len(model.vocab):
            tensors["log_likelihood"] = model.log_likelihood
        write_container(sink, meta, tensors)
    elif isinstance(model, LinearSVMModel):
        meta = {
            "model": "svm",
            "lambda": repr(float(model.lambda_reg)),
            "lexicon_sha256": lexicon_sha256,
            "vocab": _vocab_meta(model.vocab),
        }
        write_container(sink, meta, {"weights": model.weights, "bias": model.bias})
    else:
        raise TypeError(f"not a baseline model: {type(model).__name__}")


def load_baseline(source):
    """Read back a baseline model; dispatches on ``meta model``."""
    return baseline_from_container(*read_container(source))


def baseline_from_container(meta: dict[str, str], tensors: dict[str, np.ndarray]):
    """:func:`load_baseline` on an already parsed container."""
    kind = meta.get("model")
    if kind == "nb":
        vocab = _vocab_from_meta(meta.get("vocab", ""))
        if "priors" not in tensors:
            raise CheckpointError("NB checkpoint is missing the priors tensor")
        priors = tensors["priors"].reshape(-1)
        if vocab:
            if "log_likelihood" not in tensors:
                raise CheckpointError("NB checkpoint is missing the likelihood table")
            table = tensors["log_likelihood"]
        else:
            table = np.zeros((N_CLASSES, 0))
        try:
            return NBModel(
                priors=priors,
                vocab=vocab,
                log_likelihood=table,
                alpha=float(meta.get("alpha", "1.0")),
            )
        except ValueError as exc:
            raise CheckpointError(f"invalid NB checkpoint: {exc}") from None
    if kind == "svm":
        vocab = _vocab_from_meta(meta.get("vocab", ""))
        if "weights" not in tensors or "bias" not in tensors:
            raise CheckpointError("SVM checkpoint is missing weight tensors")
        try:
            return LinearSVMModel(
                vocab=vocab,
                weights=tensors["weights"],
                bias=tensors["bias"].reshape(-1),
                lambda_reg=float(meta.get("lambda", "0.005")),
            )
        except ValueError as exc:
            raise CheckpointError(f"invalid SVM checkpoint: {exc}") from None
    raise CheckpointError(f"not a baseline checkpoint (model={kind!r})")
