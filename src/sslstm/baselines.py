"""Classical baselines: multinomial Naive Bayes and a linear SVM, both linear
scorers over one sparse design matrix (Wang and Manning, 2012).

:func:`design_matrix` builds one CSR matrix per dataset in a single pass: a
row per utterance with the counts of its contiguous 1/2/3-grams over
normalized tokens in columns ``0``..``V-1``, then its happy/sad/angry
emoticon counts in columns ``V``..``V+2``.  NB weighs the n-gram columns by
their smoothed log-likelihoods on top of the log priors; the SVM weighs every
column by its one-vs-rest weights on top of its biases and is trained by
Pegasos on L2-regularized hinge loss in O(nnz + 4·V) memory, never an n × V
matrix.  :func:`baseline_scores` is the one sparse product for both.

:func:`sslstm.training.save_checkpoint` writes these models into the same
versioned container as the neural checkpoints, tagged ``meta model=nb`` or
``meta model=svm``, and :func:`sslstm.training.load_model` reads them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, count
from typing import NamedTuple

import numpy as np

from sslstm.labels import EMOTION_LABELS, LABELS, N_CLASSES, label_index
from sslstm.text_norm import EmoticonLexicon

SVM_EPOCHS = 30

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
    for t in token_lists:
        # The 1-, 2- and 3-grams, each order in utterance order.
        grams = Counter(chain(map(str, t), map(" ".join, zip(t, t[1:])),
                              map(" ".join, zip(t, t[1:], t[2:]))))
        if grow:
            vocab.update(zip([gram for gram in grams if gram not in vocab], count(len(vocab))))
            cols += map(vocab.__getitem__, grams)
            vals += grams.values()
        else:
            for gram, n in grams.items():
                col = vocab.get(gram)
                if col is not None:
                    cols.append(col)
                    vals.append(n)
        classes = Counter(map(lex.canonical_class.get, t))
        for slot, name in enumerate(EMOTION_LABELS):
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

    Per example the four class dot products are one numpy product over
    ``uT``, the scaled weights kept transposed as ``(dim, 4)`` so that a
    row's columns are one ``take``; its transpose has the layout of
    ``u[:, c]``, so the products round alike.  The margins (divide, bias
    add, sign) and their test against 1 are then computed on Python floats,
    which round exactly as the numpy ops would, and the biases are a list
    until the return.  Only the violating classes' weights are updated in
    numpy: one column of ``uT`` per class, or all four as one block of
    rows when all four violate.
    """
    y = np.asarray(y, dtype=np.int64)
    indptr, cols, vals, dim = matrix
    if len(cols) and (cols.min() < 0 or cols.max() >= dim):
        raise ValueError(f"feature column out of range [0, {dim})")
    # The update below is buffered: a repeated column would move only once.
    # Sorted, not np.unique: its hash path is slower and it imports numpy.ma.
    cells = np.sort(matrix.row_ids() * dim + cols)
    if np.any(cells[1:] == cells[:-1]):
        raise ValueError("a feature row repeats a column")
    del cells  # freed before the weights are allocated, which lowers the peak
    # Each row's columns, values and moves (values / lambda), sliced once.
    ends = indptr.tolist()
    row_cols, row_vals, row_moves = ([a[start:end] for start, end in zip(ends, ends[1:])]
                                     for a in (cols, vals, vals / lambda_reg))
    uT = np.zeros((dim, N_CLASSES))
    bias = [0.0] * N_CLASSES
    signs = np.where(y[:, None] == np.arange(N_CLASSES)[None, :], 1.0, -1.0)  # (n, 4)
    sign_lists = signs.tolist()
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for idx in rng.permutation(len(indptr) - 1).tolist():
            t += 1
            eta = 1.0 / (lambda_reg * t)
            c, sign = row_cols[idx], sign_lists[idx]
            # w_{t-1} = u/(t-1); u is still zero at t = 1, where w_0 = 0.
            scale = max(t - 1, 1)
            dots = uT.take(c, axis=0).T.dot(row_vals[idx]).tolist()
            violating = [k for k in range(N_CLASSES) if sign[k] * (dots[k] / scale + bias[k]) < 1.0]
            if len(violating) == N_CLASSES:
                uT[c] += row_moves[idx][:, None] * signs[idx]
            else:
                for k in violating:  # u - m rounds as u + (-1.0 * m) does
                    if sign[k] > 0:
                        uT[c, k] += row_moves[idx]
                    else:
                        uT[c, k] -= row_moves[idx]
            for k in violating:
                bias[k] += eta * sign[k]
    return np.divide(uT.T, max(t, 1), order="C"), np.array(bias)


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

