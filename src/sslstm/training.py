"""Training loop, batching, splitting, gradient checking, checkpoints.

Training follows plain SGD on cross-entropy: shuffle each epoch, fill
batches by a token budget (total token count across member utterances, not
utterance count), apply the mean batch gradient, early-stop on validation
macro-F1 and keep the best-epoch parameters.

Checkpoints are :mod:`sslstm.container` files: ``meta`` provenance
(dimensions, channel setup, content hashes) and one tensor per parameter,
with each LSTM tensor split by gate.
The weight tables of the embedding channels are not serialized, not even
fine-tuned ones — checkpoints store their dimensions and source hashes, and
loading takes the tables as arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sslstm.container import CheckpointError, TruncatedCheckpointError, read_container, write_container
from sslstm.embeddings import EmbeddingTable, empty_table
from sslstm.labels import LABELS, N_CLASSES, label_index
from sslstm.metrics import confusion, macro_f1
from sslstm.neural import (
    GATES,
    Gradients,
    ModelConfig,
    SSLSTMModel,
    batch_backward,
    batch_forward,
    batch_predict,
    chunks,
    clone_model,
    init_model,
)
from sslstm.text_norm import default_lexicon_sha256

# Above this many parameters, gradient_check verifies a seeded random
# subsample of this many coordinates instead of every coordinate.
GRADCHECK_EXHAUSTIVE_LIMIT = 10_000
GRADCHECK_SAMPLE = 2_000


class ShapeMismatchError(CheckpointError):
    """Stored tensors do not fit the dimensions the file declares."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.005
    token_budget: int = 4000
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0
    class_weights: tuple[float, float, float, float] | None = None
    # Optional convergence target: stop once training accuracy, scored each
    # epoch only when this is set, reaches this fraction.  None disables it.
    stop_when_train_accuracy: float | None = None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.token_budget <= 0:
            raise ValueError("token_budget must be positive")
        if self.max_epochs <= 0:
            raise ValueError("max_epochs must be positive")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")
        if self.class_weights is not None and len(self.class_weights) != N_CLASSES:
            raise ValueError(f"class_weights needs {N_CLASSES} entries")


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


def utterance_length(conv, max_len: int | None = None) -> int:
    """Token count of one conversation's final turn, after truncation when a
    maximum sequence length applies."""
    n = len(conv.tokens)
    return min(n, max_len) if max_len is not None else n


def make_batches(dataset, token_budget: int, seed: int | None, max_len: int | None = None):
    """Shuffle, then greedily pack utterances into batches by token count.

    A batch closes as soon as the next utterance would push its token total
    over the budget; an utterance longer than the whole budget travels
    alone.  ``seed=None`` skips the shuffle and packs in the given order.
    """
    if token_budget <= 0:
        raise ValueError("token_budget must be positive")
    items = list(dataset)
    if not items:
        return []
    if seed is None:
        order = range(len(items))
    else:
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


def sgd_step(model: SSLSTMModel, gradients: Gradients, learning_rate: float) -> SSLSTMModel:
    """In-place update w <- w - lr*g for every parameter; plain SGD, no
    momentum or weight decay.  Every shape and embedding row id is validated
    before any write."""
    tensors = model.param_tensors()
    if set(gradients.tensors) != set(tensors):
        raise ValueError("gradient tensor names do not match the model")
    for name, grad in gradients.tensors.items():
        if grad.shape != tensors[name].shape:
            raise ValueError(
                f"gradient shape mismatch for {name}: {grad.shape} vs {tensors[name].shape}"
            )
    embeds = []
    if model.config.train_embeddings:
        for channel, table, embed in (
            ("semantic", model.semantic_table, gradients.sem_embed),
            ("sentiment", model.sentiment_table, gradients.sent_embed),
        ):
            if embed is None:
                continue
            ids, rows = embed
            if rows.ndim != 2 or ids.shape != (len(rows),) or rows.shape[1] != table.dim:
                raise ValueError(
                    f"{channel} embedding gradient has {ids.shape} ids and rows of shape "
                    f"{rows.shape}, expected one row of width {table.dim} per id"
                )
            if len(ids) and (ids.min() < 0 or ids.max() >= len(table)):
                raise ValueError(
                    f"{channel} embedding gradient names a row outside [0, {len(table)})"
                )
            embeds.append((table, ids, rows))
    for name, grad in gradients.tensors.items():
        tensors[name] -= learning_rate * grad
    for table, ids, rows in embeds:
        # Unbuffered: a row named more than once moves by every entry.
        np.subtract.at(table.matrix, ids, learning_rate * rows)
    return model


def split_dataset(dataset, ratio: float, seed: int):
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


def _batch_gradient(model, batch, weights):
    """Weighted loss sum and mean gradient of one batch, one kernel call per
    :func:`~sslstm.neural.chunks` group.  Each example's row of the logit
    gradient carries its class weight and 1/len(batch)."""
    loss = 0.0
    total = None
    tokens = [c.tokens for c in batch]
    for group in chunks(tokens):
        probs, cache = batch_forward(model, [tokens[k] for k in group])
        targets = np.array([label_index(batch[k].label) for k in group])
        rows = np.arange(len(group))
        w = np.ones(len(group)) if weights is None else weights[targets]
        loss += float(np.sum(w * -np.log(probs[rows, targets])))
        dlogits = probs.copy()
        dlogits[rows, targets] -= 1.0
        dlogits *= (w / len(batch))[:, None]
        grads = batch_backward(model, cache, dlogits)
        if total is None:
            total = grads
        else:
            _accumulate_gradients(total, grads)
    return loss, total


def _accumulate_gradients(total: Gradients, grads: Gradients) -> None:
    """Add ``grads`` into ``total``; embedding rows are appended, so
    :func:`sgd_step` sums the entries of a row named in both."""
    for name, tensor in grads.tensors.items():
        total.tensors[name] += tensor
    for attr in ("sem_embed", "sent_embed"):
        if getattr(grads, attr) is not None:
            parts = zip(getattr(total, attr), getattr(grads, attr))
            setattr(total, attr, tuple(np.concatenate(pair) for pair in parts))


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
    weights = None
    if config.class_weights is not None:
        weights = np.asarray(config.class_weights, dtype=np.float64)

    best = clone_model(model)
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
            loss, total = _batch_gradient(model, batch, weights)
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
    denominator is max(|analytic|, |numeric|, 1e-8).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    tokens, target = example
    target = label_index(target)
    probs, cache = batch_forward(model, [tokens])
    dlogits = probs.copy()
    dlogits[0, target] -= 1.0
    analytic = batch_backward(model, cache, dlogits).tensors
    tensors = model.param_tensors()
    coords = [(name, i) for name, t in tensors.items() for i in range(t.size)]
    if len(coords) > GRADCHECK_EXHAUSTIVE_LIMIT:
        rng = np.random.default_rng(0)
        chosen = rng.choice(len(coords), size=GRADCHECK_SAMPLE, replace=False)
        coords = [coords[int(i)] for i in chosen]
    worst = 0.0
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
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


def save_checkpoint(model: SSLSTMModel, config: TrainConfig | None, sink) -> None:
    """Write the model's parameters plus provenance meta to ``sink``.

    Embedding vectors are not stored; their dimensions and source hashes
    are, so a load can verify it was handed the right tables.
    """
    cfg = model.config
    meta = {
        "model": "sslstm",
        "channels": cfg.channels,
        "fc_activation": cfg.fc_activation,
        "sem_hidden": cfg.sem_hidden,
        "sent_hidden": cfg.sent_hidden,
        "fc_hidden": cfg.fc_hidden,
        "max_seq_len": cfg.max_seq_len,
        "train_embeddings": int(cfg.train_embeddings),
        "sem_dim": model.semantic_table.dim,
        "sent_dim": model.sentiment_table.dim,
        "sem_table_sha256": model.semantic_table.source_sha256 or "-",
        "sent_table_sha256": model.sentiment_table.source_sha256 or "-",
        "lexicon_sha256": default_lexicon_sha256(),
    }
    if config is not None:
        meta["learning_rate"] = repr(config.learning_rate)
        meta["token_budget"] = config.token_budget
        meta["seed"] = config.seed
    write_container(sink, meta, _file_tensors(model))


def _file_tensors(model: SSLSTMModel) -> dict[str, np.ndarray]:
    """Views of the model's tensors under their checkpoint names, in file
    order: each stacked LSTM tensor as its gate blocks, ``sem_W`` as
    ``sem_W_i`` ... ``sem_W_c``.  Writing into a view writes into the model."""
    out: dict[str, np.ndarray] = {}
    for name, tensor in model.param_tensors().items():
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


def _check_table(table: EmbeddingTable | None, dim: int, stored_hash: str, role: str):
    if table is None:
        return empty_table(dim)
    if table.dim != dim:
        raise ShapeMismatchError(
            f"{role} table has dimension {table.dim}, checkpoint expects {dim}"
        )
    if stored_hash not in ("", "-") and table.source_sha256 and table.source_sha256 != stored_hash:
        raise CheckpointError(
            f"{role} table content hash does not match the checkpoint "
            f"({table.source_sha256[:12]} vs {stored_hash[:12]})"
        )
    return table


def load_checkpoint(
    source,
    semantic_table: EmbeddingTable | None = None,
    sentiment_table: EmbeddingTable | None = None,
) -> SSLSTMModel:
    """Rebuild a model from a checkpoint plus its embedding tables.

    Tables omitted here come back empty (every token out-of-vocabulary), so
    predictions then reflect only the stored weights.
    """
    return model_from_container(*read_container(source), semantic_table, sentiment_table)


def model_from_container(
    meta: dict[str, str],
    stored: dict[str, np.ndarray],
    semantic_table: EmbeddingTable | None = None,
    sentiment_table: EmbeddingTable | None = None,
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
            train_embeddings=bool(int(meta.get("train_embeddings", "0"))),
        )
        sem_dim = int(_require_meta(meta, "sem_dim"))
        sent_dim = int(_require_meta(meta, "sent_dim"))
    except ValueError as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"invalid checkpoint meta: {exc}") from None
    semantic_table = _check_table(
        semantic_table, sem_dim, meta.get("sem_table_sha256", "-"), "semantic"
    )
    sentiment_table = _check_table(
        sentiment_table, sent_dim, meta.get("sent_table_sha256", "-"), "sentiment"
    )
    model = init_model(config, semantic_table, sentiment_table, seed=0)
    expected = _file_tensors(model)
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
    for name, target in expected.items():
        mat = stored[name]
        want = target.shape if target.ndim == 2 else (1, target.shape[0])
        if mat.shape != want:
            raise ShapeMismatchError(
                f"tensor {name!r} has shape {mat.shape}, expected {want}"
            )
        target[:] = mat if target.ndim == 2 else mat[0]
    return model
