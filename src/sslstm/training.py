"""Training loop, batching, splitting, gradient checking, checkpoints.

Training follows plain SGD on cross-entropy: shuffle each epoch, fill
batches by a token budget (total token count across member utterances, not
utterance count), apply the mean batch gradient, early-stop on validation
macro-F1 and keep the best-epoch parameters.  The embedding tables are
read-only inputs: training never writes into them.

Every model file, neural, NB or SVM, is an :mod:`sslstm.container` file
written by :func:`save_checkpoint` and read by :func:`load_model`; no other
module reads or writes one.  A neural checkpoint holds ``meta`` provenance
(dimensions, channel setup, content hashes) and one tensor per parameter,
with each LSTM tensor split by gate.  The weight tables of the embedding
channels are not serialized — checkpoints store their dimensions and source
hashes, and loading takes the tables as arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sslstm.baselines import LinearSVMModel, NBModel, baseline_predict
from sslstm.container import CheckpointError, TruncatedCheckpointError, read_container, write_container
from sslstm.embeddings import EmbeddingTable
from sslstm.labels import LABELS, N_CLASSES, label_index
from sslstm.metrics import confusion, macro_f1
from sslstm.neural import (
    GATES,
    ModelConfig,
    SSLSTMModel,
    batch_backward,
    batch_forward,
    batch_predict,
    chunks,
    clone_model,
    init_model,
)
from sslstm.text_norm import EmoticonLexicon
from sslstm.textfile import _label

# Above this many parameters, gradient_check verifies a seeded random
# subsample of this many coordinates instead of every coordinate.
GRADCHECK_EXHAUSTIVE_LIMIT = 10_000
GRADCHECK_SAMPLE = 2_000

# The ``meta model`` values :func:`load_model` reads.
_MODEL_KINDS = ("sslstm", "nb", "svm")


class ShapeMismatchError(CheckpointError):
    """Stored tensors do not fit the dimensions the file declares."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.005
    token_budget: int = 4000
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0
    # Optional convergence target: stop once training accuracy, scored each
    # epoch only when this is set, reaches this fraction.  None disables it.
    stop_when_train_accuracy: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate!r}")
        if self.token_budget <= 0:
            raise ValueError("token_budget must be positive")
        if self.max_epochs <= 0:
            raise ValueError("max_epochs must be positive")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_macro_f1: float
    train_accuracy: float | None  # None unless stop_when_train_accuracy is set


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1

    def best_val_macro_f1(self) -> float:
        return max((r.val_macro_f1 for r in self.records), default=0.0)


def cross_entropy(probabilities, target) -> float:
    """Negative log-probability of the target class."""
    idx = label_index(target)
    return float(-np.log(np.asarray(probabilities)[idx]))


def utterance_length(conv, max_len: int) -> int:
    """Token count of one conversation's final turn after truncation to
    ``max_len`` tokens."""
    return min(len(conv.tokens), max_len)


def make_batches(dataset, token_budget: int, seed: int, max_len: int):
    """Shuffle with ``seed``, then greedily pack utterances into batches by
    token count, each utterance counted as truncated to ``max_len`` tokens.

    A batch closes as soon as the next utterance would push its token total
    over the budget; an utterance longer than the whole budget travels
    alone.
    """
    if token_budget <= 0:
        raise ValueError("token_budget must be positive")
    items = list(dataset)
    if not items:
        return []
    order = np.random.default_rng(seed).permutation(len(items))
    batches: list[list] = []
    current: list = []
    used = 0
    for idx in order:
        conv = items[idx]
        n = utterance_length(conv, max_len)
        if current and used + n > token_budget:
            batches.append(current)
            current = []
            used = 0
        current.append(conv)
        used += n
    if current:
        batches.append(current)
    return batches


def sgd_step(
    model: SSLSTMModel, gradients: dict[str, np.ndarray], learning_rate: float
) -> SSLSTMModel:
    """In-place update w <- w - lr*g of every tensor in ``model.params``,
    with ``gradients`` keyed like it; plain SGD, no momentum or weight
    decay.  Every name and shape is validated before any write; the
    embedding tables are never touched."""
    tensors = model.params
    if set(gradients) != set(tensors):
        raise ValueError("gradient tensor names do not match the model")
    for name, grad in gradients.items():
        if grad.shape != tensors[name].shape:
            raise ValueError(
                f"gradient shape mismatch for {name}: {grad.shape} vs {tensors[name].shape}"
            )
    for name, grad in gradients.items():
        tensors[name] -= learning_rate * grad
    return model


def split_dataset(dataset, ratio: float = 0.9, seed: int = 0):
    """Stratified split: per label, floor(ratio*n) examples go to train and
    the rest to validation.  Original order is preserved within each side."""
    items = list(dataset)
    if not items:
        raise ValueError("dataset is empty")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    by_label: dict[str, list[int]] = {}
    for i, conv in enumerate(items):
        if conv.label is None:
            raise ValueError(f"conversation {conv.id} has no label")
        by_label.setdefault(conv.label, []).append(i)
    rng = np.random.default_rng(seed)
    train_idx: set[int] = set()
    for label in LABELS:
        idxs = by_label.get(label, [])
        if not idxs:
            continue
        perm = rng.permutation(len(idxs))
        # Small slack keeps exact products like 0.7*10 from flooring down.
        n_train = math.floor(ratio * len(idxs) + 1e-9)
        train_idx.update(idxs[p] for p in perm[:n_train])
    train = [items[i] for i in range(len(items)) if i in train_idx]
    validation = [items[i] for i in range(len(items)) if i not in train_idx]
    return train, validation


def _batch_gradient(model, batch):
    """Cross-entropy loss sum and mean gradient of one batch, one kernel call
    per :func:`~sslstm.neural.chunks` group.  Each example's row of the logit
    gradient carries 1/len(batch)."""
    loss = 0.0
    total = None
    tokens = [c.tokens for c in batch]
    for group in chunks(tokens):
        probs, cache = batch_forward(model, [tokens[k] for k in group])
        targets = np.array([label_index(batch[k].label) for k in group])
        rows = np.arange(len(group))
        loss += float(np.sum(-np.log(probs[rows, targets])))
        dlogits = probs.copy()
        dlogits[rows, targets] -= 1.0
        dlogits *= 1.0 / len(batch)
        grads = batch_backward(model, cache, dlogits)
        if total is None:
            total = grads
        else:
            for name, tensor in grads.items():
                total[name] += tensor
        del cache, grads  # freed before the next chunk's forward pass
    return loss, total


def _accuracy(model, dataset) -> float:
    preds = batch_predict(model, [c.tokens for c in dataset])
    return sum(p == c.label for p, c in zip(preds, dataset)) / len(dataset)


def _val_macro_f1(model, dataset) -> float:
    preds = batch_predict(model, [c.tokens for c in dataset])
    golds = [c.label for c in dataset]
    return macro_f1(confusion(preds, golds))


def train(model: SSLSTMModel, train_set, validation_set, config: TrainConfig):
    """SGD training loop; returns (best model, history).

    Per epoch: re-batch with an epoch-dependent seed, apply the mean
    gradient of each batch, then score validation macro-F1 (and training
    accuracy if ``stop_when_train_accuracy`` is set).  The parameters of
    the best validation epoch are kept; training stops after ``patience``
    epochs without improvement (patience 0 stops at the first) or at
    ``max_epochs``.  Each batch runs through the batched kernel in chunks of
    at most :data:`~sslstm.neural.CHUNK` conversations whose gradients are
    summed.  A batch whose loss is not finite raises
    :class:`FloatingPointError` naming the epoch and batch index, before any
    update from that batch is applied.
    """
    train_set = list(train_set)
    validation_set = list(validation_set)
    if not train_set:
        raise ValueError("training set is empty")
    if not validation_set:
        raise ValueError("validation set is empty")

    # Validation macro-F1 is always finite, so epoch 0 always sets ``best``.
    best = None
    best_f1 = -np.inf
    best_epoch = -1
    stale = 0
    records: list[EpochRecord] = []
    for epoch in range(config.max_epochs):
        batches = make_batches(
            train_set,
            config.token_budget,
            seed=config.seed + epoch,
            max_len=model.config.max_seq_len,
        )
        loss_total = 0.0
        for index, batch in enumerate(batches):
            loss, total = _batch_gradient(model, batch)
            loss_total += loss
            if not math.isfinite(loss_total):
                raise FloatingPointError(
                    f"training loss became non-finite at epoch {epoch}, batch {index}"
                )
            sgd_step(model, total, config.learning_rate)
        train_loss = loss_total / len(train_set)
        val_f1 = _val_macro_f1(model, validation_set)
        train_acc = None
        if config.stop_when_train_accuracy is not None:
            train_acc = _accuracy(model, train_set)
        records.append(EpochRecord(epoch, train_loss, val_f1, train_acc))
        if val_f1 > best_f1:
            best_f1 = val_f1
            best_epoch = epoch
            best = clone_model(model)
            stale = 0
        else:
            stale += 1
        if train_acc is not None and train_acc >= config.stop_when_train_accuracy:
            break
        if stale >= max(config.patience, 1):
            break
    return best, TrainHistory(records=records, best_epoch=best_epoch)


def gradient_check(model: SSLSTMModel, example, epsilon: float = 1e-4) -> float:
    """Max relative error between backprop and central finite differences.

    ``example`` is a ``(tokens, target)`` pair, the target a label name or
    class index.  Every parameter coordinate is checked (a seeded random
    subsample of 2,000 above 10,000 parameters); the relative error
    denominator is max(|analytic|, |numeric|, 1e-8).  The result is NaN
    when any coordinate's error is, so a NaN never passes a tolerance.
    Raises ValueError unless ``epsilon`` is finite and positive.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    tokens, target = example
    target = label_index(target)
    probs, cache = batch_forward(model, [tokens])
    dlogits = probs.copy()
    dlogits[0, target] -= 1.0
    analytic = batch_backward(model, cache, dlogits)
    tensors = model.params
    coords = [(name, i) for name, t in tensors.items() for i in range(t.size)]
    if len(coords) > GRADCHECK_EXHAUSTIVE_LIMIT:
        rng = np.random.default_rng(0)
        chosen = rng.choice(len(coords), size=GRADCHECK_SAMPLE, replace=False)
        coords = [coords[int(i)] for i in chosen]
    errors = []
    for name, i in coords:
        flat = tensors[name].reshape(-1)
        orig = flat[i]
        flat[i] = orig + epsilon
        up = cross_entropy(batch_forward(model, [tokens])[0][0], target)
        flat[i] = orig - epsilon
        down = cross_entropy(batch_forward(model, [tokens])[0][0], target)
        flat[i] = orig
        numeric = (up - down) / (2.0 * epsilon)
        a = float(analytic[name].reshape(-1)[i])
        errors.append(abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return float(np.max(errors))  # unlike max(), np.max keeps a NaN


def save_checkpoint(model, config: TrainConfig | None, sink, lex: EmoticonLexicon) -> None:
    """Write a model of any kind, trained with lexicon ``lex``, to ``sink``.

    A neural model's file holds its parameters plus provenance meta.
    Embedding vectors are not stored; their dimensions and source hashes
    are, so a load can verify it was handed the right tables.  ``config``
    is its run's :class:`TrainConfig`, recorded when given.  An NB or SVM
    model's file holds its weights and its n-gram vocabulary in column
    order; ``config`` is None for them.  Every file records the hash of
    ``lex``, the lexicon the model's inputs were normalized with.  Any
    other object raises TypeError.
    """
    lexicon_sha256 = lex.sha256 or "-"
    if isinstance(model, SSLSTMModel):
        cfg = model.config
        meta = {
            "model": "sslstm",
            "channels": cfg.channels,
            "fc_activation": cfg.fc_activation,
            "sem_hidden": cfg.sem_hidden,
            "sent_hidden": cfg.sent_hidden,
            "fc_hidden": cfg.fc_hidden,
            "max_seq_len": cfg.max_seq_len,
            # Always 0: fine-tuned tables were never saved, and a 1 is refused
            # on load.
            "train_embeddings": 0,
            "sem_dim": model.semantic_table.dim,
            "sent_dim": model.sentiment_table.dim,
            "sem_table_sha256": model.semantic_table.source_sha256 or "-",
            "sent_table_sha256": model.sentiment_table.source_sha256 or "-",
            "lexicon_sha256": lexicon_sha256,
        }
        if config is not None:
            meta["learning_rate"] = repr(config.learning_rate)
            meta["token_budget"] = config.token_budget
            meta["seed"] = config.seed
        tensors = _file_tensors(model)
    elif isinstance(model, NBModel):
        meta = {"model": "nb", "alpha": repr(float(model.alpha)), "lexicon_sha256": lexicon_sha256,
                "vocab": "\t".join(sorted(model.vocab, key=model.vocab.get))}
        tensors = {"priors": model.priors}
        if model.vocab:  # an empty vocabulary has no likelihood table
            tensors["log_likelihood"] = model.log_likelihood
    elif isinstance(model, LinearSVMModel):
        meta = {"model": "svm", "lambda": repr(float(model.lambda_reg)), "lexicon_sha256": lexicon_sha256,
                "vocab": "\t".join(sorted(model.vocab, key=model.vocab.get))}
        tensors = {"weights": model.weights, "bias": model.bias}
    else:
        raise TypeError(f"not a model: {type(model).__name__}")
    write_container(sink, meta, tensors)


def _file_tensors(model: SSLSTMModel) -> dict[str, np.ndarray]:
    """Views of the model's tensors under their checkpoint names, in file
    order: each stacked LSTM tensor as its gate blocks, ``sem_W`` as
    ``sem_W_i`` ... ``sem_W_c``.  Writing into a view writes into the model."""
    out: dict[str, np.ndarray] = {}
    for name, tensor in model.params.items():
        if name.startswith(("sem_", "sent_")):
            for gate, block in zip(GATES, np.split(tensor, len(GATES))):
                out[f"{name}_{gate}"] = block
        else:
            out[name] = tensor
    return out


def _require_meta(meta: dict[str, str], key: str) -> str:
    if key not in meta:
        raise CheckpointError(f"checkpoint is missing meta key {key!r}")
    return meta[key]


def _check_table(table: EmbeddingTable | None, dim: int, stored_hash: str, role: str) -> None:
    if table is None:
        return
    if table.dim != dim:
        raise ShapeMismatchError(
            f"{role} table has dimension {table.dim}, checkpoint expects {dim}"
        )
    if stored_hash not in ("", "-") and table.source_sha256 and table.source_sha256 != stored_hash:
        raise CheckpointError(
            f"{role} table content hash does not match the checkpoint "
            f"({table.source_sha256[:12]} vs {stored_hash[:12]})"
        )


def _file_shapes(config: ModelConfig, sem_dim: int, sent_dim: int) -> dict[str, tuple[int, int]]:
    """The shape of each tensor of a checkpoint of ``config`` on tables of
    these dimensions, 1-D tensors as one row, in the order of
    :func:`_file_tensors`; nothing of these sizes is allocated."""
    shapes = {}
    for prefix, dim, hidden in (("sem", sem_dim, config.sem_hidden), ("sent", sent_dim, config.sent_hidden)):
        for kind, shape in (("W", (hidden, dim)), ("U", (hidden, hidden)), ("b", (1, hidden))):
            shapes.update((f"{prefix}_{kind}_{gate}", shape) for gate in GATES)
    fc = config.fc_hidden
    return shapes | {"fc_W": (fc, config.concat_width()), "fc_b": (1, fc),
                     "out_W": (N_CLASSES, fc), "out_b": (1, N_CLASSES)}


def load_model(source, lex: EmoticonLexicon, tables):
    """The model in a saved file of any kind.  A file recording a lexicon
    hash other than ``lex``'s is refused; ``-`` or no hash is not checked.
    A neural checkpoint is built on ``tables()``, its ``(semantic,
    sentiment)`` pair, None standing for an empty table of the checkpoint's
    dimension; an NB or SVM file never calls ``tables``.  A file of
    another kind is refused.  Messages name ``source`` by its path,
    ``<bytes>`` or the stream's name."""
    meta, tensors = read_container(source)
    kind = meta.get("model", "sslstm")
    if kind not in _MODEL_KINDS:
        raise CheckpointError(f"{_label(source)} holds no model of a known kind (model={kind!r})")
    stored = meta.get("lexicon_sha256", "-")
    if stored not in ("", "-") and stored != lex.sha256:
        raise CheckpointError(
            f"{_label(source)} was trained with another emoticon lexicon "
            f"({stored[:12]} vs {lex.sha256[:12]}); pass that one as --lexicon"
        )
    if kind == "sslstm":
        return _model_from_container(meta, tensors, *tables())
    grams = meta.get("vocab", "")
    vocab = {gram: col for col, gram in enumerate(grams.split("\t"))} if grams else {}
    if kind == "nb" and "priors" not in tensors:
        raise CheckpointError("NB checkpoint is missing the priors tensor")
    if kind == "nb" and vocab and "log_likelihood" not in tensors:
        raise CheckpointError("NB checkpoint is missing the likelihood table")
    if kind == "svm" and not ("weights" in tensors and "bias" in tensors):
        raise CheckpointError("SVM checkpoint is missing weight tensors")
    try:
        if kind == "nb":
            table = tensors["log_likelihood"] if vocab else np.zeros((N_CLASSES, 0))
            return NBModel(priors=tensors["priors"].reshape(-1), vocab=vocab,
                           log_likelihood=table, alpha=float(meta.get("alpha", "1.0")))
        return LinearSVMModel(vocab=vocab, weights=tensors["weights"], bias=tensors["bias"].reshape(-1),
                              lambda_reg=float(meta.get("lambda", "0.005")))
    except ValueError as exc:
        raise CheckpointError(f"invalid {kind.upper()} checkpoint: {exc}") from None


def predict(model, token_lists, lex: EmoticonLexicon) -> list[str]:
    """One label per token list from a model of either kind."""
    if isinstance(model, SSLSTMModel):
        return batch_predict(model, token_lists)
    return baseline_predict(model, token_lists, lex)


def load_checkpoint(
    source,
    semantic_table: EmbeddingTable | None = None,
    sentiment_table: EmbeddingTable | None = None,
) -> SSLSTMModel:
    """Rebuild a model from a checkpoint plus its embedding tables.

    Tables omitted here come back empty (every token out-of-vocabulary), so
    predictions then reflect only the stored weights.  The lexicon hash is
    not checked; :func:`load_model` checks it.
    """
    return _model_from_container(*read_container(source), semantic_table, sentiment_table)


def _model_from_container(
    meta: dict[str, str],
    stored: dict[str, np.ndarray],
    semantic_table: EmbeddingTable | None,
    sentiment_table: EmbeddingTable | None,
) -> SSLSTMModel:
    """:func:`load_checkpoint` on an already parsed container."""
    if meta.get("model", "sslstm") != "sslstm":
        raise CheckpointError(f"not a classifier checkpoint (model={meta['model']!r})")
    try:
        config = ModelConfig(
            channels=_require_meta(meta, "channels"),
            sem_hidden=int(_require_meta(meta, "sem_hidden")),
            sent_hidden=int(_require_meta(meta, "sent_hidden")),
            fc_hidden=int(_require_meta(meta, "fc_hidden")),
            fc_activation=_require_meta(meta, "fc_activation"),
            max_seq_len=int(_require_meta(meta, "max_seq_len")),
        )
        tuned = int(meta.get("train_embeddings", "0"))
        if tuned:
            raise CheckpointError(
                f"checkpoint meta train_embeddings={tuned}: its weights were fitted "
                "to fine-tuned embedding vectors the file does not hold"
            )
        sem_dim, sent_dim = (int(_require_meta(meta, key)) for key in ("sem_dim", "sent_dim"))
        if min(sem_dim, sent_dim) <= 0:
            raise ValueError("sem_dim and sent_dim must be positive")
    except ValueError as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"invalid checkpoint meta: {exc}") from None
    _check_table(semantic_table, sem_dim, meta.get("sem_table_sha256", "-"), "semantic")
    _check_table(sentiment_table, sent_dim, meta.get("sent_table_sha256", "-"), "sentiment")
    # Every shape is checked before anything of a size the meta declares is
    # allocated: past the checks, each size is that of a stored tensor.
    expected = _file_shapes(config, sem_dim, sent_dim)
    missing = set(expected) - set(stored)
    if missing:
        raise TruncatedCheckpointError(
            f"checkpoint is missing tensors: {', '.join(sorted(missing))}"
        )
    extra = set(stored) - set(expected)
    if extra:
        raise ShapeMismatchError(
            f"checkpoint has unexpected tensors: {', '.join(sorted(extra))}"
        )
    for name, want in expected.items():
        if stored[name].shape != want:
            raise ShapeMismatchError(
                f"tensor {name!r} has shape {stored[name].shape}, expected {want}"
            )
    tables = [EmbeddingTable(dim) if table is None else table
              for table, dim in ((semantic_table, sem_dim), (sentiment_table, sent_dim))]
    model = init_model(config, *tables, seed=0)
    for name, target in _file_tensors(model).items():
        target[:] = stored[name] if target.ndim == 2 else stored[name][0]
    return model
