"""The dual-channel recurrent classifier.

One utterance is embedded twice (semantic and sentiment tables), each stream
runs through its own LSTM, the two final hidden states are concatenated
(semantic block first) and pushed through one fully connected hidden layer
into a 4-way softmax over (happy, sad, angry, others).

Forward and backward passes are hand-written in float64 numpy.  The backward
pass is exact backpropagation through time; its correctness is pinned by
finite-difference checks in the training module and the test suite.

Each LSTM stores its four gates stacked: one weight matrix per input and
one bias, gate blocks in :data:`GATES` order (Appleyard et al. 2016,
arXiv:1604.01946).  One kernel serves the three entry points,
:func:`batch_forward`, :func:`batch_backward` and :func:`batch_predict`.
It takes a chunk of sequences sorted longest first, computes the input
projection of every token in one matrix product, and at each step runs
only the sequences still going.  A single sequence is a batch of one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from sslstm.embeddings import EmbeddingTable
from sslstm.labels import LABELS, N_CLASSES
from sslstm.text_norm import surfaces

CHANNELS = ("both", "semantic", "sentiment")
FC_ACTIVATIONS = ("relu", "tanh")

# Sequences per kernel call.  Batches and prediction sets are worked through
# in chunks of this size, so activation memory stays bounded.
CHUNK = 32

# Gate order of the stacked LSTM tensors: rows k*H:(k+1)*H of W, U and b
# belong to gate GATES[k] (input, forget, output, cell candidate).
GATES = ("i", "f", "o", "c")


class StaleCacheError(ValueError):
    """Raised when a forward cache does not fit the model it is replayed on."""


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) <= 1 never overflows.  The numerator is 1 where x >= 0 and
    # exp(x) elsewhere, picked without a branch: max(e, 1) = 1, max(e, 0) = e.
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis (one distribution per row)."""
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class ModelConfig:
    channels: str = "both"
    sem_hidden: int = 128
    sent_hidden: int = 128
    fc_hidden: int = 128
    fc_activation: str = "relu"
    max_seq_len: int = 50

    def __post_init__(self):
        if self.channels not in CHANNELS:
            raise ValueError(f"channels must be one of {CHANNELS}, got {self.channels!r}")
        if self.fc_activation not in FC_ACTIVATIONS:
            raise ValueError(f"fc_activation must be one of {FC_ACTIVATIONS}, got {self.fc_activation!r}")
        for name in ("sem_hidden", "sent_hidden", "fc_hidden", "max_seq_len"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def active_channels(self) -> tuple[str, ...]:
        if self.channels == "both":
            return ("semantic", "sentiment")
        return (self.channels,)

    def concat_width(self) -> int:
        """Width of the concatenated final states the FC layer reads."""
        hidden = {"semantic": self.sem_hidden, "sentiment": self.sent_hidden}
        return sum(hidden[channel] for channel in self.active_channels())


@dataclass
class LSTMParams:
    """Weights of one LSTM with its four gates stacked in :data:`GATES`
    order: ``W`` (4H, D) acts on the input, ``U`` (4H, H) on the previous
    hidden state, ``b`` (4H) is the bias.  Rows ``k*H:(k+1)*H`` of each
    belong to gate ``k``."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray

    @property
    def hidden_dim(self) -> int:
        return self.U.shape[1]

    @property
    def input_dim(self) -> int:
        return self.W.shape[1]


@dataclass
class SSLSTMModel:
    semantic_table: EmbeddingTable
    sentiment_table: EmbeddingTable
    sem: LSTMParams
    sent: LSTMParams
    fc_W: np.ndarray
    fc_b: np.ndarray
    out_W: np.ndarray
    out_b: np.ndarray
    config: ModelConfig

    def param_tensors(self) -> dict[str, np.ndarray]:
        """Live views of every trainable tensor: ``sem_W``, ``sem_U``,
        ``sem_b``, the same three for ``sent``, then ``fc_W``, ``fc_b``,
        ``out_W`` and ``out_b``.  The LSTM tensors hold the gates stacked."""
        out: dict[str, np.ndarray] = {}
        for prefix, params in (("sem", self.sem), ("sent", self.sent)):
            for name, tensor in vars(params).items():
                out[f"{prefix}_{name}"] = tensor
        out["fc_W"] = self.fc_W
        out["fc_b"] = self.fc_b
        out["out_W"] = self.out_W
        out["out_b"] = self.out_b
        return out


@dataclass
class LSTMCache:
    """Per-step activations of one channel over a chunk of sequences, kept
    for backpropagation.

    Rows are step-major: step 0 of every sequence, then step 1 of every
    sequence still running, and so on.  The sequences are sorted longest
    first, so the ``steps[t]`` sequences running at step ``t`` are always the
    first ones.  For a single sequence the rows are just its time steps.
    """

    xs: np.ndarray  # (rows, input_dim)
    i: np.ndarray   # (rows, hidden) gate outputs
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray   # candidate cell values, tanh
    c: np.ndarray   # cell states
    h: np.ndarray   # hidden states
    steps: list[int]


@dataclass
class BatchCache:
    """Backward cache of a list of token sequences (see :func:`batch_forward`).

    Rows are sorted longest first: row ``r`` holds input sequence
    ``order[r]``, and ``tokens`` and the head arrays follow that order.
    """

    tokens: list[list[str]]
    order: list[int]
    sem: LSTMCache | None
    sent: LSTMCache | None
    concat: np.ndarray  # (batch, concat width)
    z1: np.ndarray
    a1: np.ndarray
    logits: np.ndarray
    probs: np.ndarray


def _glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def _init_lstm(rng: np.random.Generator, input_dim: int, hidden_dim: int) -> LSTMParams:
    # One draw per gate block, scaled by its own fan; all of W before U.
    W = np.concatenate([_glorot_uniform(rng, hidden_dim, input_dim) for _ in GATES])
    U = np.concatenate([_glorot_uniform(rng, hidden_dim, hidden_dim) for _ in GATES])
    # Forget gate starts open so early training can carry state.
    b = np.concatenate([np.full(hidden_dim, float(gate == "f")) for gate in GATES])
    return LSTMParams(W=W, U=U, b=b)


def init_model(
    config: ModelConfig,
    semantic_table: EmbeddingTable,
    sentiment_table: EmbeddingTable,
    seed: int = 0,
) -> SSLSTMModel:
    """Fresh model with symmetric-uniform (fan-in + fan-out scaled) weights,
    zero biases except the forget-gate bias at 1.  Deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    sem = _init_lstm(rng, semantic_table.dim, config.sem_hidden)
    sent = _init_lstm(rng, sentiment_table.dim, config.sent_hidden)
    fc_W = _glorot_uniform(rng, config.fc_hidden, config.concat_width())
    fc_b = np.zeros(config.fc_hidden)
    out_W = _glorot_uniform(rng, N_CLASSES, config.fc_hidden)
    out_b = np.zeros(N_CLASSES)
    return SSLSTMModel(
        semantic_table=semantic_table,
        sentiment_table=sentiment_table,
        sem=sem,
        sent=sent,
        fc_W=fc_W,
        fc_b=fc_b,
        out_W=out_W,
        out_b=out_b,
        config=config,
    )


def clone_model(model: SSLSTMModel) -> SSLSTMModel:
    """Deep copy of all trainable state.  Embedding tables are shared:
    nothing trains them."""
    new = copy.copy(model)
    new.sem = copy.deepcopy(model.sem)
    new.sent = copy.deepcopy(model.sent)
    new.fc_W = model.fc_W.copy()
    new.fc_b = model.fc_b.copy()
    new.out_W = model.out_W.copy()
    new.out_b = model.out_b.copy()
    new.config = copy.copy(model.config)
    return new


def _step_starts(steps: list[int]) -> np.ndarray:
    """First row of each step in the step-major layout."""
    return np.concatenate(([0], np.cumsum(steps[:-1], dtype=np.int64)))


def _lstm_run(params: LSTMParams, xs: np.ndarray, steps: list[int]) -> LSTMCache:
    """The LSTM recurrence over step-major rows (see :class:`LSTMCache`),
    from zero initial state.  The input projection of every row is one
    matrix product; each step then adds the recurrent term for the
    sequences still running."""
    H = params.hidden_dim
    # Each step overwrites its own rows of the pre-activations with the
    # gate outputs.
    act = xs @ params.W.T + params.b
    c = np.empty((xs.shape[0], H))
    h = np.empty((xs.shape[0], H))
    start = prev = 0
    for t, n in enumerate(steps):
        rows = slice(start, start + n)
        a = act[rows]
        if t:
            a = a + h[prev : prev + n] @ params.U.T
        act[rows, : 3 * H] = _sigmoid(a[:, : 3 * H])
        act[rows, 3 * H :] = np.tanh(a[:, 3 * H :])
        i_t, f_t, o_t, g_t = (act[rows, k * H : (k + 1) * H] for k in range(4))
        c_t = i_t * g_t
        if t:
            c_t += f_t * c[prev : prev + n]
        c[rows] = c_t
        h[rows] = o_t * np.tanh(c_t)
        prev, start = start, start + n
    i, f, o, g = (act[:, k * H : (k + 1) * H] for k in range(4))
    return LSTMCache(xs=xs, i=i, f=f, o=o, g=g, c=c, h=h, steps=list(steps))


def _final_states(cache: LSTMCache, lengths: list[int]) -> np.ndarray:
    """Last hidden state of each sequence (lengths sorted longest first);
    zeros for an empty sequence."""
    finals = np.zeros((len(lengths), cache.h.shape[1]))
    running = sum(1 for n in lengths if n)
    if running:
        last = np.asarray(lengths[:running]) - 1
        finals[:running] = cache.h[_step_starts(cache.steps)[last] + np.arange(running)]
    return finals


def _lstm_backprop(
    params: LSTMParams, cache: LSTMCache, dh_final: np.ndarray
) -> dict[str, np.ndarray]:
    """BPTT over every sequence of a chunk, given the loss gradient at each
    sequence's final hidden state (rows in the cache's sequence order).

    Each step backpropagates the sequences running at it together; the
    weight gradients are then one product over all rows: dW = dA^T X,
    dU = dA^T H_prev, db = sum of dA.  Returns the gradients keyed ``W``,
    ``U`` and ``b``, stacked like the parameters."""
    H = params.hidden_dim
    steps = cache.steps
    starts = _step_starts(steps)
    tanh_c = np.tanh(cache.c)
    dA = np.empty((cache.xs.shape[0], 4 * H))
    dh = np.zeros_like(dh_final)
    dc = np.zeros_like(dh_final)
    for t in range(len(steps) - 1, -1, -1):
        n = steps[t]
        ending = steps[t + 1] if t + 1 < len(steps) else 0
        # Sequences whose last step is t pick up their output gradient here.
        dh[ending:n] = dh_final[ending:n]
        rows = slice(starts[t], starts[t] + n)
        i_t, f_t, o_t, g_t = cache.i[rows], cache.f[rows], cache.o[rows], cache.g[rows]
        tc = tanh_c[rows]
        dh_t = dh[:n]
        do = dh_t * tc
        dc_t = dc[:n] + dh_t * o_t * (1.0 - tc**2)
        c_prev = cache.c[starts[t - 1] : starts[t - 1] + n] if t else 0.0
        # Through the gate nonlinearities to the pre-activations.
        dA[rows, :H] = dc_t * g_t * i_t * (1.0 - i_t)
        dA[rows, H : 2 * H] = dc_t * c_prev * f_t * (1.0 - f_t)
        dA[rows, 2 * H : 3 * H] = do * o_t * (1.0 - o_t)
        dA[rows, 3 * H :] = dc_t * i_t * (1.0 - g_t**2)
        dc[:n] = dc_t * f_t
        if t:
            dh[:n] = dA[rows] @ params.U
    dW = dA.T @ cache.xs
    db = dA.sum(axis=0)
    # Row r of step t >= 1 follows row r - steps[t-1] of step t - 1.
    first = steps[0] if steps else 0
    prev_rows = np.arange(first, cache.xs.shape[0]) - np.repeat(
        np.array(steps[:-1], dtype=np.int64), steps[1:]
    )
    dU = dA[first:].T @ cache.h[prev_rows]
    return {"W": dW, "U": dU, "b": db}


def _step_major(sequences: list[list[str]]) -> tuple[list[int], list[str]]:
    """Per-step running counts and the tokens in step-major row order, for
    sequences sorted longest first."""
    longest = len(sequences[0]) if sequences else 0
    steps = [sum(1 for seq in sequences if len(seq) > t) for t in range(longest)]
    rows = [sequences[k][t] for t in range(longest) for k in range(steps[t])]
    return steps, rows


def _channels(model: SSLSTMModel):
    """(gradient prefix, name, active?, params, table) per channel, semantic
    first: the concat order."""
    active = model.config.active_channels()
    return (
        ("sem", "semantic", "semantic" in active, model.sem, model.semantic_table),
        ("sent", "sentiment", "sentiment" in active, model.sent, model.sentiment_table),
    )


def batch_forward(model: SSLSTMModel, sequences) -> tuple[np.ndarray, BatchCache]:
    """Class probabilities for a list of token sequences, one row per
    sequence in input order, plus the cache for :func:`batch_backward`.

    Every channel runs all sequences through one kernel call, so memory
    grows with the batch: callers pass at most :data:`CHUNK` sequences.
    """
    max_len = model.config.max_seq_len
    texts = [surfaces(seq[:max_len]) for seq in sequences]
    order = sorted(range(len(texts)), key=lambda k: -len(texts[k]))
    tokens = [texts[k] for k in order]
    steps, row_tokens = _step_major(tokens)
    lengths = [len(seq) for seq in tokens]
    caches = {"sem": None, "sent": None}
    finals = []
    for prefix, _, active, params, table in _channels(model):
        if active:
            caches[prefix] = _lstm_run(params, table.rows(table.ids(row_tokens)), steps)
            finals.append(_final_states(caches[prefix], lengths))
    concat = np.concatenate(finals, axis=1)
    z1 = concat @ model.fc_W.T + model.fc_b
    a1 = np.maximum(z1, 0.0) if model.config.fc_activation == "relu" else np.tanh(z1)
    logits = a1 @ model.out_W.T + model.out_b
    probs = softmax(logits)
    cache = BatchCache(
        tokens=tokens,
        order=order,
        sem=caches["sem"],
        sent=caches["sent"],
        concat=concat,
        z1=z1,
        a1=a1,
        logits=logits,
        probs=probs,
    )
    in_order = np.empty_like(probs)
    in_order[order] = probs
    return in_order, cache


def _check_cache(model: SSLSTMModel, cache: BatchCache) -> None:
    width = model.config.concat_width()
    if cache.concat.shape[-1] != width:
        raise StaleCacheError(
            f"cache concat width {cache.concat.shape[-1]} does not match model {width}"
        )
    if cache.z1.shape[-1] != model.fc_W.shape[0]:
        raise StaleCacheError("cache FC width does not match model")
    for prefix, name, active, params, _ in _channels(model):
        ch_cache = getattr(cache, prefix)
        if active:
            if ch_cache is None:
                raise StaleCacheError(f"cache is missing the {name} channel")
            if ch_cache.xs.shape[1:] != (params.input_dim,) or ch_cache.h.shape[1:] != (params.hidden_dim,):
                raise StaleCacheError(f"cache {name} channel shapes do not match model")


def batch_backward(model: SSLSTMModel, cache: BatchCache, dlogits) -> dict[str, np.ndarray]:
    """Loss gradient of every trainable parameter, keyed like
    :meth:`SSLSTMModel.param_tensors` and summed over the batch, given the
    loss gradient at each sequence's logits (rows in input order).  The
    embedding tables are inputs, not parameters, and get no gradient.

    For cross-entropy a row is ``probs - onehot(target)``, times any weight
    the caller gives that example.
    """
    _check_cache(model, cache)
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != cache.logits.shape:
        raise ValueError(
            f"dlogits has shape {dlogits.shape}, expected {cache.logits.shape}"
        )
    dlogits = dlogits[cache.order]
    d_out_W = dlogits.T @ cache.a1
    d_out_b = dlogits.sum(axis=0)
    da1 = dlogits @ model.out_W
    if model.config.fc_activation == "relu":
        dz1 = da1 * (cache.z1 > 0.0)
    else:
        dz1 = da1 * (1.0 - cache.a1**2)
    d_fc_W = dz1.T @ cache.concat
    d_fc_b = dz1.sum(axis=0)
    dconcat = dz1 @ model.fc_W

    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for prefix, _, active, params, _ in _channels(model):
        if active:
            dh_final = dconcat[:, offset : offset + params.hidden_dim]
            offset += params.hidden_dim
            ch_grads = _lstm_backprop(params, getattr(cache, prefix), dh_final)
        else:
            ch_grads = {name: np.zeros_like(tensor) for name, tensor in vars(params).items()}
        for key, val in ch_grads.items():
            tensors[f"{prefix}_{key}"] = val
    tensors["fc_W"] = d_fc_W
    tensors["fc_b"] = d_fc_b
    tensors["out_W"] = d_out_W
    tensors["out_b"] = d_out_b
    return tensors


def chunks(sequences) -> list[list[int]]:
    """Indices of ``sequences`` in groups of at most :data:`CHUNK`, longest
    first, so that each kernel call runs sequences of similar length."""
    order = sorted(range(len(sequences)), key=lambda k: -len(sequences[k]))
    return [order[start : start + CHUNK] for start in range(0, len(order), CHUNK)]


def batch_predict(model: SSLSTMModel, sequences) -> list[str]:
    """Most probable label of each token sequence, one kernel call per
    :func:`chunks` group; ties break in class order (happy first)."""
    sequences = list(sequences)
    labels = [""] * len(sequences)
    for group in chunks(sequences):
        probs, _ = batch_forward(model, [sequences[k] for k in group])
        for k, best in zip(group, np.argmax(probs, axis=1)):
            labels[k] = LABELS[int(best)]
    return labels

