"""The dual-channel recurrent classifier.

One utterance is embedded twice (semantic and sentiment tables), each stream
runs through its own LSTM, the two final hidden states are concatenated
(semantic block first) and pushed through one fully connected hidden layer
into a 4-way softmax over (happy, sad, angry, others).

Forward and backward passes are hand-written in float64 numpy.  The backward
pass is exact backpropagation through time; its correctness is pinned by
finite-difference checks in the training module and the test suite.

All trainable state is one dict of ten arrays, :attr:`SSLSTMModel.params`,
and a gradient is a dict with the same keys.  Each LSTM stores its four
gates stacked: one weight matrix per input and one bias, gate blocks in
:data:`GATES` order (Appleyard et al. 2016, arXiv:1604.01946).  One kernel
serves the three entry points, :func:`batch_forward`,
:func:`batch_backward` and :func:`batch_predict`.
It takes a chunk of sequences sorted longest first, computes the input
projection of every token in one matrix product, and at each step runs
only the sequences still going.  A single sequence is a batch of one.

Each entry point holds only the activations it reads next.
:func:`batch_predict` runs one channel at a time and keeps only its final
states, so prediction holds one channel's activations at a time.
:func:`batch_backward` uses up the cache :func:`batch_forward` returns:
each channel's activations are taken out of it, overwritten with their
gradients and freed before the next channel's backpropagation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from sslstm.embeddings import EmbeddingTable
from sslstm.labels import LABELS, N_CLASSES

CHANNELS = ("both", "semantic", "sentiment")
FC_ACTIVATIONS = ("relu", "tanh")

# Sequences per kernel call.  Batches and prediction sets are worked through
# in chunks of this size, so activation memory stays bounded.
CHUNK = 32

# Gate order of the stacked LSTM tensors: rows k*H:(k+1)*H of W, U and b
# belong to gate GATES[k] (input, forget, output, cell candidate).
GATES = ("i", "f", "o", "c")


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
class SSLSTMModel:
    """The classifier: its two embedding tables, its configuration and
    ``params``, every trainable tensor by name.

    ``params`` holds ``sem_W``, ``sem_U`` and ``sem_b``, the same three for
    ``sent``, then ``fc_W``, ``fc_b``, ``out_W`` and ``out_b``, in that
    order.  Each LSTM's four gates are stacked in :data:`GATES` order: ``W``
    (4H, D) acts on the input, ``U`` (4H, H) on the previous hidden state,
    ``b`` (4H) is the bias, and rows ``k*H:(k+1)*H`` of each belong to gate
    ``k``.  Both LSTMs are built whichever channels are active."""

    semantic_table: EmbeddingTable
    sentiment_table: EmbeddingTable
    config: ModelConfig
    params: dict[str, np.ndarray]


@dataclass
class LSTMCache:
    """Per-step activations of one channel over a chunk of sequences, kept
    for backpropagation.

    Rows are step-major: step 0 of every sequence, then step 1 of every
    sequence still running, and so on.  The sequences are sorted longest
    first, so the ``steps[t]`` sequences running at step ``t`` are always the
    first ones.  For a single sequence the rows are just its time steps.

    Backpropagation (:func:`batch_backward`) writes the gradients at the
    gate pre-activations over ``gates``, so a cache serves one backward
    pass.
    """

    xs: np.ndarray  # (rows, input_dim)
    gates: np.ndarray  # (rows, 4 * hidden) gate outputs in GATES order
    c: np.ndarray   # cell states
    h: np.ndarray   # hidden states
    steps: list[int]


@dataclass
class BatchCache:
    """Backward cache of a list of token sequences (see :func:`batch_forward`).

    Rows are sorted longest first: row ``r`` holds input sequence
    ``order[r]``, and the head arrays follow that order.  ``lstm`` loses
    each channel's entry as :func:`batch_backward` uses it.
    """

    order: list[int]
    lstm: dict[str, LSTMCache]  # per active channel not yet backpropagated, keyed by its prefix
    concat: np.ndarray  # (batch, concat width)
    z1: np.ndarray
    a1: np.ndarray
    logits: np.ndarray


def _glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def _init_lstm(
    rng: np.random.Generator, prefix: str, input_dim: int, hidden_dim: int
) -> dict[str, np.ndarray]:
    # One draw per gate block, scaled by its own fan; all of W before U.
    W = np.concatenate([_glorot_uniform(rng, hidden_dim, input_dim) for _ in GATES])
    U = np.concatenate([_glorot_uniform(rng, hidden_dim, hidden_dim) for _ in GATES])
    # Forget gate starts open so early training can carry state.
    b = np.concatenate([np.full(hidden_dim, float(gate == "f")) for gate in GATES])
    return {f"{prefix}_W": W, f"{prefix}_U": U, f"{prefix}_b": b}


def init_model(
    config: ModelConfig,
    semantic_table: EmbeddingTable,
    sentiment_table: EmbeddingTable,
    seed: int = 0,
) -> SSLSTMModel:
    """Fresh model with symmetric-uniform (fan-in + fan-out scaled) weights,
    zero biases except the forget-gate bias at 1.  Deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    # A dict display evaluates in order, so the draws are: sem W, sem U,
    # sent W, sent U, fc_W, out_W.
    params = {
        **_init_lstm(rng, "sem", semantic_table.dim, config.sem_hidden),
        **_init_lstm(rng, "sent", sentiment_table.dim, config.sent_hidden),
        "fc_W": _glorot_uniform(rng, config.fc_hidden, config.concat_width()),
        "fc_b": np.zeros(config.fc_hidden),
        "out_W": _glorot_uniform(rng, N_CLASSES, config.fc_hidden),
        "out_b": np.zeros(N_CLASSES),
    }
    return SSLSTMModel(semantic_table, sentiment_table, config, params)


def clone_model(model: SSLSTMModel) -> SSLSTMModel:
    """Deep copy of all trainable state.  Embedding tables are shared:
    nothing trains them."""
    params = {name: tensor.copy() for name, tensor in model.params.items()}
    return SSLSTMModel(model.semantic_table, model.sentiment_table, copy.copy(model.config), params)


def _step_starts(steps: list[int]) -> np.ndarray:
    """First row of each step in the step-major layout."""
    return np.concatenate(([0], np.cumsum(steps[:-1], dtype=np.int64)))


def _lstm_run(
    W: np.ndarray, U: np.ndarray, b: np.ndarray, xs: np.ndarray, steps: list[int]
) -> LSTMCache:
    """The LSTM recurrence over step-major rows (see :class:`LSTMCache`),
    from zero initial state, for the stacked tensors ``W``, ``U`` and ``b``.
    The input projection of every row is one matrix product; each step then
    adds the recurrent term for the sequences still running."""
    H = U.shape[1]
    # Each step overwrites its own rows of the pre-activations with the
    # gate outputs.
    act = xs @ W.T
    act += b
    c = np.empty((xs.shape[0], H))
    h = np.empty((xs.shape[0], H))
    start = prev = 0
    for t, n in enumerate(steps):
        rows = slice(start, start + n)
        a = act[rows]
        if t:
            a = a + h[prev : prev + n] @ U.T
        act[rows, : 3 * H] = _sigmoid(a[:, : 3 * H])
        act[rows, 3 * H :] = np.tanh(a[:, 3 * H :])
        i_t, f_t, o_t, g_t = (act[rows, k * H : (k + 1) * H] for k in range(4))
        c_t = i_t * g_t
        if t:
            c_t += f_t * c[prev : prev + n]
        c[rows] = c_t
        h[rows] = o_t * np.tanh(c_t)
        prev, start = start, start + n
    return LSTMCache(xs=xs, gates=act, c=c, h=h, steps=list(steps))


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
    U: np.ndarray, cache: LSTMCache, dh_final: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BPTT over every sequence of a chunk, given the recurrent tensor ``U``
    and the loss gradient at each sequence's final hidden state (rows in
    the cache's sequence order).

    Each step backpropagates the sequences running at it together and
    writes the gradients at its gate pre-activations, dA, over its rows of
    ``cache.gates``; the weight gradients are then one product over all
    rows: dW = dA^T X, dU = dA^T H_prev, db = sum of dA.  Returns
    ``(dW, dU, db)``, stacked like the parameters."""
    H = U.shape[1]
    steps = cache.steps
    starts = _step_starts(steps)
    dA = cache.gates  # step t's rows turn from gate outputs into dA at step t
    dh = np.zeros_like(dh_final)
    dc = np.zeros_like(dh_final)
    for t in range(len(steps) - 1, -1, -1):
        n = steps[t]
        ending = steps[t + 1] if t + 1 < len(steps) else 0
        # Sequences whose last step is t pick up their output gradient here.
        dh[ending:n] = dh_final[ending:n]
        rows = slice(starts[t], starts[t] + n)
        a = dA[rows]
        i_t, f_t, o_t, g_t = (a[:, k * H : (k + 1) * H] for k in range(4))
        tc = np.tanh(cache.c[rows])
        dh_t = dh[:n]
        do = dh_t * tc
        dc_t = dc[:n] + dh_t * o_t * (1.0 - tc**2)
        c_prev = cache.c[starts[t - 1] : starts[t - 1] + n] if t else 0.0
        dc[:n] = dc_t * f_t
        # Through the gate nonlinearities to the pre-activations, written over
        # the gate outputs only once all four are computed.
        np.concatenate(
            (
                dc_t * g_t * i_t * (1.0 - i_t),
                dc_t * c_prev * f_t * (1.0 - f_t),
                do * o_t * (1.0 - o_t),
                dc_t * i_t * (1.0 - g_t**2),
            ),
            axis=1,
            out=a,
        )
        if t:
            dh[:n] = a @ U
    dW = dA.T @ cache.xs
    db = dA.sum(axis=0)
    # Row r of step t >= 1 follows row r - steps[t-1] of step t - 1.
    first = steps[0] if steps else 0
    prev_rows = np.arange(first, cache.xs.shape[0]) - np.repeat(
        np.array(steps[:-1], dtype=np.int64), steps[1:]
    )
    dU = dA[first:].T @ cache.h[prev_rows]
    return dW, dU, db


def _step_major(sequences, max_len: int) -> tuple[list[int], list[int], list[int], list[str]]:
    """The sequences cut to ``max_len`` tokens and sorted longest first, as
    their input positions in that order, their lengths, the per-step
    running counts and the tokens in step-major row order."""
    truncated = [seq[:max_len] for seq in sequences]
    order = sorted(range(len(truncated)), key=lambda k: -len(truncated[k]))
    lengths = [len(truncated[k]) for k in order]
    steps = [sum(1 for n in lengths if n > t) for t in range(lengths[0] if lengths else 0)]
    rows = [truncated[order[k]][t] for t in range(len(steps)) for k in range(steps[t])]
    return order, lengths, steps, rows


def _channels(model: SSLSTMModel):
    """(parameter prefix, active?, table) per channel, semantic first: the
    concat order."""
    active = model.config.active_channels()
    return (
        ("sem", "semantic" in active, model.semantic_table),
        ("sent", "sentiment" in active, model.sentiment_table),
    )


def _lstm_tensors(model: SSLSTMModel, prefix: str) -> list[np.ndarray]:
    """The ``W``, ``U`` and ``b`` tensors of one channel's LSTM."""
    return [model.params[f"{prefix}_{kind}"] for kind in "WUb"]


def _head(model: SSLSTMModel, concat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The FC layer's pre-activations and activations and the logits, for
    the concatenated final states ``concat``."""
    params = model.params
    z1 = concat @ params["fc_W"].T + params["fc_b"]
    a1 = np.maximum(z1, 0.0) if model.config.fc_activation == "relu" else np.tanh(z1)
    return z1, a1, a1 @ params["out_W"].T + params["out_b"]


def batch_forward(model: SSLSTMModel, sequences) -> tuple[np.ndarray, BatchCache]:
    """Class probabilities for a list of token sequences, one row per
    sequence in input order, plus the cache for :func:`batch_backward`.

    Every channel runs all sequences through one kernel call, so memory
    grows with the batch: callers pass at most :data:`CHUNK` sequences.
    """
    order, lengths, steps, row_tokens = _step_major(sequences, model.config.max_seq_len)
    caches = {
        prefix: _lstm_run(*_lstm_tensors(model, prefix), table.rows(table.ids(row_tokens)), steps)
        for prefix, active, table in _channels(model) if active
    }
    concat = np.concatenate([_final_states(c, lengths) for c in caches.values()], axis=1)
    z1, a1, logits = _head(model, concat)
    probs = softmax(logits)
    cache = BatchCache(order=order, lstm=caches, concat=concat, z1=z1, a1=a1, logits=logits)
    in_order = np.empty_like(probs)
    in_order[order] = probs
    return in_order, cache


def batch_backward(model: SSLSTMModel, cache: BatchCache, dlogits) -> dict[str, np.ndarray]:
    """Loss gradient of every trainable parameter, keyed and ordered like
    :attr:`SSLSTMModel.params` and summed over the batch, given the
    loss gradient at each sequence's logits (rows in input order).  The
    embedding tables are inputs, not parameters, and get no gradient.

    For the cross-entropy of one example a row is ``probs - onehot(target)``.
    ``cache`` must come from :func:`batch_forward` on this same model, and
    this call uses it up: each channel's :class:`LSTMCache` is taken out of
    it, overwritten with gradients and freed before the next channel's.  A
    second call on the same cache raises :class:`ValueError` before it
    computes anything.
    """
    if not cache.lstm:
        raise ValueError("this cache was already used by batch_backward")
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != cache.logits.shape:
        raise ValueError(
            f"dlogits has shape {dlogits.shape}, expected {cache.logits.shape}"
        )
    dlogits = dlogits[cache.order]
    params = model.params
    da1 = dlogits @ params["out_W"]
    if model.config.fc_activation == "relu":
        dz1 = da1 * (cache.z1 > 0.0)
    else:
        dz1 = da1 * (1.0 - cache.a1**2)
    dconcat = dz1 @ params["fc_W"]

    grads: dict[str, np.ndarray] = {}
    offset = 0
    for prefix, active, _ in _channels(model):
        W, U, b = _lstm_tensors(model, prefix)
        if active:
            H = U.shape[1]
            dh_final = dconcat[:, offset : offset + H]
            offset += H
            dW, dU, db = _lstm_backprop(U, cache.lstm.pop(prefix), dh_final)
        else:
            dW, dU, db = np.zeros_like(W), np.zeros_like(U), np.zeros_like(b)
        grads.update({f"{prefix}_W": dW, f"{prefix}_U": dU, f"{prefix}_b": db})
    grads["fc_W"] = dz1.T @ cache.concat
    grads["fc_b"] = dz1.sum(axis=0)
    grads["out_W"] = dlogits.T @ cache.a1
    grads["out_b"] = dlogits.sum(axis=0)
    return grads


def chunks(sequences) -> list[list[int]]:
    """Indices of ``sequences`` in groups of at most :data:`CHUNK`, longest
    first, so that each kernel call runs sequences of similar length."""
    order = sorted(range(len(sequences)), key=lambda k: -len(sequences[k]))
    return [order[start : start + CHUNK] for start in range(0, len(order), CHUNK)]


def batch_predict(model: SSLSTMModel, sequences) -> list[str]:
    """Most probable label of each token sequence, one kernel call per
    :func:`chunks` group and channel; ties break in class order (happy
    first).  The labels are those of :func:`batch_forward`'s probabilities,
    but each channel's activations are freed as soon as its final states
    are read, so only one channel's are held at a time."""
    sequences = list(sequences)
    labels = [""] * len(sequences)
    for group in chunks(sequences):
        order, lengths, steps, row_tokens = _step_major(
            [sequences[k] for k in group], model.config.max_seq_len
        )
        finals = [
            _final_states(
                _lstm_run(*_lstm_tensors(model, prefix), table.rows(table.ids(row_tokens)), steps),
                lengths,
            )
            for prefix, active, table in _channels(model) if active
        ]
        probs = softmax(_head(model, np.concatenate(finals, axis=1))[2])
        for row, best in zip(order, np.argmax(probs, axis=1)):
            labels[group[row]] = LABELS[int(best)]
    return labels
