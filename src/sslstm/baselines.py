"""Classical baselines: multinomial Naive Bayes and a linear SVM.

Both consume the same hand-crafted features — contiguous 1/2/3-grams over
normalized token surfaces plus a 3-vector of (happy, sad, angry) emoticon
counts.  NB is a multinomial model and therefore uses only the n-gram count
block.  The SVM sees each utterance as one sparse row over the n-gram
vocabulary plus three trailing emoticon columns, and is trained one-vs-rest
by Pegasos stochastic subgradient descent on L2-regularized hinge loss in
O(nnz + 4·V) memory: no n × V matrix is built.

Baseline models serialize into the same versioned container as the neural
checkpoints, tagged ``meta model=nb`` or ``meta model=svm``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sslstm.labels import LABELS, N_CLASSES, label_index
from sslstm.text_norm import EmoticonLexicon, default_lexicon, emoticon_class, surfaces
from sslstm.container import CheckpointError, read_container, write_container

NGRAM_ORDERS = (1, 2, 3)

# Indices into the emoticon count vector.
_EMOTICON_SLOTS = {"happy": 0, "sad": 1, "angry": 2}


@dataclass
class FeatureVector:
    """Sparse n-gram counts plus dense emoticon class counts."""

    ngrams: dict[str, int]
    emoticons: np.ndarray  # (3,) counts: happy, sad, angry

    def __post_init__(self):
        self.emoticons = np.asarray(self.emoticons, dtype=np.int64)
        if self.emoticons.shape != (3,):
            raise ValueError("emoticon count vector must have 3 entries")
        if np.any(self.emoticons < 0) or any(v < 0 for v in self.ngrams.values()):
            raise ValueError("feature counts must be non-negative")


def extract_features(tokens, lex: EmoticonLexicon | None = None) -> FeatureVector:
    """Count all contiguous 1/2/3-grams (space-joined surfaces) and the
    happy/sad/angry emoticon occurrences; neutral emoticons are ignored."""
    if lex is None:
        lex = default_lexicon()
    texts = surfaces(tokens)
    ngrams: dict[str, int] = {}
    for order in NGRAM_ORDERS:
        for start in range(len(texts) - order + 1):
            gram = " ".join(texts[start : start + order])
            ngrams[gram] = ngrams.get(gram, 0) + 1
    emoticons = np.zeros(3, dtype=np.int64)
    for text in texts:
        slot = _EMOTICON_SLOTS.get(emoticon_class(text, lex) or "")
        if slot is not None:
            emoticons[slot] += 1
    return FeatureVector(ngrams=ngrams, emoticons=emoticons)


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
        # Slack for priors rounded in hand-written model files.
        if abs(float(self.priors.sum()) - 1.0) > 1e-6:
            raise ValueError("priors must sum to 1")
        if self.alpha <= 0:
            raise ValueError("smoothing constant must be positive")
        self.log_likelihood = np.asarray(self.log_likelihood, dtype=np.float64)
        if self.log_likelihood.shape != (N_CLASSES, len(self.vocab)):
            raise ValueError("log-likelihood table does not match the vocabulary")
        with np.errstate(divide="ignore"):
            self.log_priors = np.where(
                self.priors > 0, np.log(np.maximum(self.priors, 1e-300)), -np.inf
            )


def _dataset_features(dataset, lex):
    """(features, target) per labeled conversation, and the n-gram
    vocabulary in order of first appearance."""
    pairs = []
    for conv in dataset:
        if conv.label is None:
            raise ValueError(f"conversation {conv.id} has no label")
        pairs.append((extract_features(conv.tokens, lex), label_index(conv.label)))
    if not pairs:
        raise ValueError("dataset is empty")
    vocab: dict[str, int] = {}
    for features, _ in pairs:
        for gram in features.ngrams:
            vocab.setdefault(gram, len(vocab))
    return pairs, vocab


def nb_train(dataset, alpha: float = 1.0, lex: EmoticonLexicon | None = None) -> NBModel:
    """Fit class priors and smoothed n-gram likelihoods from labeled
    conversations.  Priors are empirical label frequencies."""
    if alpha <= 0:
        raise ValueError("smoothing constant must be positive")
    pairs, vocab = _dataset_features(dataset, lex)
    counts = np.zeros((N_CLASSES, len(vocab)))
    doc_counts = np.zeros(N_CLASSES)
    for features, target in pairs:
        doc_counts[target] += 1
        for gram, count in features.ngrams.items():
            counts[target, vocab[gram]] += count
    priors = doc_counts / doc_counts.sum()
    totals = counts.sum(axis=1, keepdims=True)
    log_likelihood = np.log(
        (counts + alpha) / (totals + alpha * max(len(vocab), 1))
    )
    return NBModel(priors=priors, vocab=vocab, log_likelihood=log_likelihood, alpha=alpha)


def nb_scores(model: NBModel, features: FeatureVector) -> np.ndarray:
    """Per-class log posterior (up to the shared evidence term)."""
    scores = model.log_priors.copy()
    for gram, count in features.ngrams.items():
        col = model.vocab.get(gram)
        if col is not None:
            scores += count * model.log_likelihood[:, col]
    return scores


def nb_predict(model: NBModel, features: FeatureVector) -> str:
    """Most probable label; ties break in class order."""
    return LABELS[int(np.argmax(nb_scores(model, features)))]


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


def feature_row(features: FeatureVector, vocab: dict[str, int]):
    """Sparse ``(cols, vals)`` row over a fixed vocabulary: the column of
    each known gram with its count, then the non-zero emoticon counts in the
    trailing columns ``V``..``V+2``; unknown grams are dropped."""
    cols, vals = [], []
    for gram, count in features.ngrams.items():
        col = vocab.get(gram)
        if col is not None:
            cols.append(col)
            vals.append(count)
    for slot in np.flatnonzero(features.emoticons):
        cols.append(len(vocab) + int(slot))
        vals.append(features.emoticons[slot])
    return np.array(cols, dtype=np.int64), np.array(vals, dtype=np.float64)


def svm_fit_vectors(rows, y, dim: int, lambda_reg: float, epochs: int, seed: int):
    """Pegasos one-vs-rest training on sparse ``(cols, vals)`` rows of width
    ``dim``.

    Per visited example t (counted across epochs) the step size is
    1/(lambda*t): every class weight row shrinks by a factor (1 - 1/t) and
    margin-violating rows additionally move along +/- the example.  The
    weights are kept scaled as ``u = t*w``, which turns the shrink into a
    no-op and the move into ``u += sign*x/lambda`` on the row's columns
    only.  Biases are unregularized.  Returns (weights, bias).
    """
    y = np.asarray(y, dtype=np.int64)
    n = len(rows)
    for cols, _ in rows:
        if len(cols) and (cols.min() < 0 or cols.max() >= dim):
            raise ValueError(f"feature column out of range [0, {dim})")
        # The update below is buffered: a repeated column would move only once.
        if len(np.unique(cols)) != len(cols):
            raise ValueError("a feature row repeats a column")
    u = np.zeros((N_CLASSES, dim))
    bias = np.zeros(N_CLASSES)
    signs = np.where(np.arange(N_CLASSES)[:, None] == y[None, :], 1.0, -1.0)  # (4, n)
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for idx in rng.permutation(n):
            t += 1
            eta = 1.0 / (lambda_reg * t)
            cols, vals = rows[idx]
            cls_sign = signs[:, idx]
            # w_{t-1} = u/(t-1); u is still zero at t = 1, where w_0 = 0.
            margins = cls_sign * (u[:, cols] @ vals / max(t - 1, 1) + bias)
            violating = margins < 1.0
            if np.any(violating):
                u[np.ix_(violating, cols)] += np.outer(cls_sign[violating], vals / lambda_reg)
                bias[violating] += eta * cls_sign[violating]
    return u / max(t, 1), bias


def svm_train(
    dataset,
    lambda_reg: float = 0.005,
    epochs: int = 30,
    seed: int = 0,
    lex: EmoticonLexicon | None = None,
) -> LinearSVMModel:
    """Train the one-vs-rest linear SVM on labeled conversations."""
    if lambda_reg <= 0:
        raise ValueError("regularization constant must be positive")
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    pairs, vocab = _dataset_features(dataset, lex)
    rows = [feature_row(f, vocab) for f, _ in pairs]
    y = np.array([target for _, target in pairs])
    weights, bias = svm_fit_vectors(rows, y, len(vocab) + 3, lambda_reg, epochs, seed)
    return LinearSVMModel(vocab=vocab, weights=weights, bias=bias, lambda_reg=lambda_reg)


def svm_scores(model: LinearSVMModel, features: FeatureVector) -> np.ndarray:
    cols, vals = feature_row(features, model.vocab)
    return model.weights[:, cols] @ vals + model.bias


def svm_predict(model: LinearSVMModel, features: FeatureVector) -> str:
    """Highest-scoring label; ties break in class order."""
    return LABELS[int(np.argmax(svm_scores(model, features)))]


def _vocab_meta(vocab: dict[str, int]) -> str:
    ordered = sorted(vocab, key=vocab.get)
    return "\t".join(ordered)


def _vocab_from_meta(value: str) -> dict[str, int]:
    if value == "":
        return {}
    return {gram: i for i, gram in enumerate(value.split("\t"))}


def save_baseline(model, sink) -> None:
    """Write an NB or SVM model into the shared checkpoint container."""
    if isinstance(model, NBModel):
        meta = {
            "model": "nb",
            "alpha": repr(float(model.alpha)),
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
