"""Property tests: the batched LSTM kernel on whole batches against the
same kernel on one sequence at a time.

The reference runs each example as a batch of one (``batch_forward`` /
``batch_backward`` on a one-element list) and sums the results; the code
under test runs whole chunks.  Both go through the same kernel but sum in a
different order, so they agree to a float tolerance, not bit for bit.  The
independent references for the maths itself are the finite-difference
checks and ``test_neural.py::TestLSTMForward::test_matches_naive_recurrence``.

The backward pass writes its gate gradients over the forward activations
instead of into a buffer of its own.  That keeps the arithmetic and its
order, so it is checked bit for bit against the buffered form, kept here as
``reference_backward``.
"""

import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_table
from sslstm.labels import LABELS
from sslstm.neural import (
    CHANNELS,
    CHUNK,
    FC_ACTIVATIONS,
    ModelConfig,
    _channels,
    _lstm_tensors,
    _step_starts,
    batch_backward,
    batch_forward,
    batch_predict,
    init_model,
)
from sslstm.text_norm import Token
from sslstm.training import _batch_gradient

RTOL, ATOL = 1e-12, 1e-14
MAX_LEN = 5
VOCAB = ["good", "bad", "mad", "meh", ":)", ":("]
# Tokens the model may see: the table vocabulary, one out-of-vocabulary
# word, and one Token, so that sequences mix str and Token.
SYMBOLS = VOCAB + ["zzz-unknown", Token("good")]


def model_for(channels, fc_activation, seed):
    config = ModelConfig(
        channels=channels,
        sem_hidden=3,
        sent_hidden=2,
        fc_hidden=4,
        fc_activation=fc_activation,
        max_seq_len=MAX_LEN,
    )
    sem = make_table(VOCAB, dim=4, seed=seed + 1)
    sent = make_table(VOCAB, dim=3, seed=seed + 2)
    return init_model(config, sem, sent, seed=seed)


# Lengths 0 and 1, and longer than max_seq_len, all occur.
sequences = st.lists(st.sampled_from(SYMBOLS), min_size=0, max_size=MAX_LEN + 3)

# Batch sizes on both sides of the chunk size, drawn explicitly so that
# multi-chunk batches are as common as single-chunk ones.
batches = st.integers(1, 2 * CHUNK + 5).flatmap(
    lambda n: st.lists(st.tuples(sequences, st.sampled_from(LABELS)), min_size=n, max_size=n)
)

setups = st.fixed_dictionaries({
    "channels": st.sampled_from(CHANNELS),
    "fc_activation": st.sampled_from(FC_ACTIVATIONS),
    "seed": st.integers(0, 3),
})


def reference_gradient(model, batch):
    """Per-example gradients (batches of one), each times 1/len(batch), summed."""
    loss = 0.0
    tensors = {}
    for conv in batch:
        target = LABELS.index(conv.label)
        probs, cache = batch_forward(model, [conv.tokens])
        loss += -np.log(probs[0, target])
        dlogits = probs.copy()
        dlogits[0, target] -= 1.0
        grads = batch_backward(model, cache, dlogits)
        scale = 1.0 / len(batch)
        for name, value in grads.items():
            tensors[name] = tensors.get(name, 0.0) + scale * value
    return loss, tensors


def assert_gradients_close(grads, tensors):
    assert set(grads) == set(tensors)
    for name, value in tensors.items():
        np.testing.assert_allclose(grads[name], value, rtol=RTOL, atol=ATOL)


@settings(max_examples=40, deadline=None)
@given(batch=batches, setup=setups)
def test_batch_gradient_matches_per_example_sums(batch, setup):
    model = model_for(setup["channels"], setup["fc_activation"], setup["seed"])
    batch = [SimpleNamespace(tokens=tokens, label=label) for tokens, label in batch]
    loss, grads = _batch_gradient(model, batch)
    ref_loss, tensors = reference_gradient(model, batch)
    np.testing.assert_allclose(loss, ref_loss, rtol=RTOL, atol=ATOL)
    assert_gradients_close(grads, tensors)


@settings(max_examples=40, deadline=None)
@given(batch=batches, setup=setups)
def test_batch_probabilities_and_labels_match_per_example(batch, setup):
    model = model_for(setup["channels"], setup["fc_activation"], setup["seed"])
    seqs = [tokens for tokens, _ in batch]
    probs, _ = batch_forward(model, seqs)
    labels = batch_predict(model, seqs)
    assert len(labels) == len(seqs)
    for k, tokens in enumerate(seqs):
        single = batch_forward(model, [tokens])[0][0]
        np.testing.assert_allclose(probs[k], single, rtol=RTOL, atol=ATOL)
        top2 = np.sort(single)[-2:]
        if top2[1] - top2[0] > 1e-9:
            assert labels[k] == LABELS[int(np.argmax(single))]


@settings(max_examples=25, deadline=None)
@given(batch=batches, setup=setups, data=st.data())
def test_batch_results_do_not_depend_on_batch_order(batch, setup, data):
    model = model_for(setup["channels"], setup["fc_activation"], setup["seed"])
    perm = data.draw(st.permutations(range(len(batch))))
    convs = [SimpleNamespace(tokens=tokens, label=label) for tokens, label in batch]
    shuffled = [convs[k] for k in perm]

    probs, _ = batch_forward(model, [c.tokens for c in convs])
    probs_shuffled, _ = batch_forward(model, [c.tokens for c in shuffled])
    np.testing.assert_allclose(probs_shuffled, probs[list(perm)], rtol=RTOL, atol=ATOL)

    loss, grads = _batch_gradient(model, convs)
    loss_shuffled, grads_shuffled = _batch_gradient(model, shuffled)
    np.testing.assert_allclose(loss_shuffled, loss, rtol=RTOL, atol=ATOL)
    assert_gradients_close(grads_shuffled, grads)


def traced_peak(run) -> int:
    """Peak bytes allocated while ``run()`` runs, under tracemalloc."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel", ["batch_predict", "_batch_gradient"])
def test_a_chunk_is_freed_before_the_next_one_runs(kernel):
    # One chunk's forward cache (about 9 MB here) is by far the largest
    # allocation, so holding the previous chunk's while the next one runs
    # would nearly double the peak.
    config = ModelConfig(sem_hidden=64, sent_hidden=64, fc_hidden=8, max_seq_len=40)
    model = init_model(config, make_table(VOCAB, dim=16, seed=1), make_table(VOCAB, dim=8, seed=2))
    convs = [SimpleNamespace(tokens=[VOCAB[(k + j) % len(VOCAB)] for j in range(40)],
                             label=LABELS[k % len(LABELS)]) for k in range(3 * CHUNK)]
    run = {
        "batch_predict": lambda batch: batch_predict(model, [c.tokens for c in batch]),
        "_batch_gradient": lambda batch: _batch_gradient(model, batch),
    }[kernel]
    one, three = traced_peak(lambda: run(convs[:CHUNK])), traced_peak(lambda: run(convs))
    assert three <= 1.25 * one, f"{three / 1e6:.1f} MB for three chunks, {one / 1e6:.1f} MB for one"


def reference_lstm_backprop(U, cache, dh_final):
    """BPTT of one channel with the gate gradients in a buffer of their own,
    leaving ``cache`` as it was: the form the in-place pass must match bit
    for bit."""
    H = U.shape[1]
    steps = cache.steps
    starts = _step_starts(steps)
    tanh_c = np.tanh(cache.c)
    i, f, o, g = (cache.gates[:, k * H : (k + 1) * H] for k in range(4))
    dA = np.empty((cache.xs.shape[0], 4 * H))
    dh = np.zeros_like(dh_final)
    dc = np.zeros_like(dh_final)
    for t in range(len(steps) - 1, -1, -1):
        n = steps[t]
        ending = steps[t + 1] if t + 1 < len(steps) else 0
        dh[ending:n] = dh_final[ending:n]
        rows = slice(starts[t], starts[t] + n)
        i_t, f_t, o_t, g_t = i[rows], f[rows], o[rows], g[rows]
        tc = tanh_c[rows]
        dh_t = dh[:n]
        do = dh_t * tc
        dc_t = dc[:n] + dh_t * o_t * (1.0 - tc**2)
        c_prev = cache.c[starts[t - 1] : starts[t - 1] + n] if t else 0.0
        dA[rows, :H] = dc_t * g_t * i_t * (1.0 - i_t)
        dA[rows, H : 2 * H] = dc_t * c_prev * f_t * (1.0 - f_t)
        dA[rows, 2 * H : 3 * H] = do * o_t * (1.0 - o_t)
        dA[rows, 3 * H :] = dc_t * i_t * (1.0 - g_t**2)
        dc[:n] = dc_t * f_t
        if t:
            dh[:n] = dA[rows] @ U
    dW = dA.T @ cache.xs
    db = dA.sum(axis=0)
    first = steps[0] if steps else 0
    prev_rows = np.arange(first, cache.xs.shape[0]) - np.repeat(
        np.array(steps[:-1], dtype=np.int64), steps[1:]
    )
    dU = dA[first:].T @ cache.h[prev_rows]
    return dW, dU, db


def reference_backward(model, cache, dlogits):
    """``batch_backward`` through :func:`reference_lstm_backprop`."""
    dlogits = np.asarray(dlogits, dtype=np.float64)[cache.order]
    params = model.params
    da1 = dlogits @ params["out_W"]
    if model.config.fc_activation == "relu":
        dz1 = da1 * (cache.z1 > 0.0)
    else:
        dz1 = da1 * (1.0 - cache.a1**2)
    dconcat = dz1 @ params["fc_W"]
    grads = {}
    offset = 0
    for prefix, active, _ in _channels(model):
        W, U, b = _lstm_tensors(model, prefix)
        if active:
            H = U.shape[1]
            dW, dU, db = reference_lstm_backprop(U, cache.lstm[prefix], dconcat[:, offset : offset + H])
            offset += H
        else:
            dW, dU, db = np.zeros_like(W), np.zeros_like(U), np.zeros_like(b)
        grads.update({f"{prefix}_W": dW, f"{prefix}_U": dU, f"{prefix}_b": db})
    grads["fc_W"] = dz1.T @ cache.concat
    grads["fc_b"] = dz1.sum(axis=0)
    grads["out_W"] = dlogits.T @ cache.a1
    grads["out_b"] = dlogits.sum(axis=0)
    return grads


def logit_gradient(probs, targets):
    dlogits = probs.copy()
    dlogits[np.arange(len(targets)), targets] -= 1.0
    return dlogits


# One kernel call's worth of sequences: empty, length 1 and unequal
# lengths all occur (see ``sequences``).
chunk_inputs = st.lists(sequences, min_size=1, max_size=CHUNK)


@settings(max_examples=60, deadline=None)
@given(seqs=chunk_inputs, setup=setups, data=st.data())
def test_backward_and_labels_are_bit_identical_to_the_reference(seqs, setup, data):
    model = model_for(setup["channels"], setup["fc_activation"], setup["seed"])
    targets = data.draw(st.lists(st.integers(0, len(LABELS) - 1), min_size=len(seqs), max_size=len(seqs)))
    probs, cache = batch_forward(model, seqs)
    dlogits = logit_gradient(probs, targets)
    want = reference_backward(model, batch_forward(model, seqs)[1], dlogits)
    got = batch_backward(model, cache, dlogits)
    assert list(got) == list(want)
    for name, tensor in want.items():
        assert got[name].shape == tensor.shape, name
        np.testing.assert_array_equal(got[name].view(np.uint64), tensor.view(np.uint64), err_msg=name)
    assert batch_predict(model, seqs) == [LABELS[int(k)] for k in np.argmax(probs, axis=1)]


def test_a_second_backward_on_one_cache_raises_and_writes_nothing():
    model = model_for("both", "tanh", 1)
    seqs = [["good", "bad", ":)"], ["meh"], [], ["mad", "mad"]]
    probs, cache = batch_forward(model, seqs)
    dlogits = logit_gradient(probs, [0, 1, 2, 3])
    batch_backward(model, cache, dlogits)
    before = pickle.dumps((model.params, cache, dlogits))
    with pytest.raises(ValueError, match="already used"):
        batch_backward(model, cache, dlogits)
    assert pickle.dumps((model.params, cache, dlogits)) == before


def test_prediction_holds_one_channel_at_a_time():
    # Each channel's activations over a chunk (about 9 MB each here) are the
    # largest allocations.  The forward pass keeps both for backpropagation;
    # prediction needs only the final states, so it holds one channel's.
    config = ModelConfig(sem_hidden=128, sent_hidden=128, fc_hidden=8, max_seq_len=40)
    model = init_model(config, make_table(VOCAB, dim=16, seed=1), make_table(VOCAB, dim=8, seed=2))
    seqs = [[VOCAB[(k + j) % len(VOCAB)] for j in range(40 - k % 3)] for k in range(CHUNK)]
    forward = traced_peak(lambda: batch_forward(model, seqs))
    predict = traced_peak(lambda: batch_predict(model, seqs))
    assert predict <= 0.6 * forward, f"{predict / 1e6:.1f} MB to predict, {forward / 1e6:.1f} MB forward"
