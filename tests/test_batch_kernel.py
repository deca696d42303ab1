"""Property tests: the batched LSTM kernel on whole batches against the
same kernel on one sequence at a time.

The reference runs each example as a batch of one (``batch_forward`` /
``batch_backward`` on a one-element list) and sums the results; the code
under test runs whole chunks.  Both go through the same kernel but sum in a
different order, so they agree to a float tolerance, not bit for bit.  The
independent references for the maths itself are the finite-difference
checks and ``test_neural.py::TestLSTMForward::test_matches_naive_recurrence``.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_table
from sslstm.labels import LABELS
from sslstm.neural import (
    CHANNELS,
    CHUNK,
    FC_ACTIVATIONS,
    ModelConfig,
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
