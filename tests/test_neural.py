import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import example_gradients, make_table, probs_of
from sslstm.labels import LABELS, N_CLASSES
from sslstm.neural import (
    CHANNELS,
    FC_ACTIVATIONS,
    LSTMParams,
    ModelConfig,
    _final_states,
    _lstm_run,
    _sigmoid,
    batch_backward,
    batch_forward,
    batch_predict,
    clone_model,
    init_model,
    softmax,
)
from sslstm.text_norm import Token
from sslstm.training import gradient_check

VOCAB = ["good", "bad", "mad", "meh", "a", "b", "c", ":)", ":(", ">:(", ":|"]


def tiny_model(seed=0, channels="both", fc_activation="relu", max_seq_len=50,
               sem_hidden=3, sent_hidden=2, fc_hidden=4):
    config = ModelConfig(
        channels=channels,
        sem_hidden=sem_hidden,
        sent_hidden=sent_hidden,
        fc_hidden=fc_hidden,
        fc_activation=fc_activation,
        max_seq_len=max_seq_len,
    )
    sem_table = make_table(VOCAB, dim=4, seed=seed + 100)
    sent_table = make_table(VOCAB, dim=3, seed=seed + 200)
    return init_model(config, sem_table, sent_table, seed=seed)


def unit_lstm(b_c=0.0):
    """1-dim LSTM with every weight zero (so each gate is exactly sigmoid of
    its bias) and every bias zero but the cell candidate's ``b_c``; lets
    single steps be checked by hand.  Gates are stacked (i, f, o, c)."""
    return LSTMParams(W=np.zeros((4, 1)), U=np.zeros((4, 1)), b=np.array([0.0, 0.0, 0.0, b_c]))


def run_lstm(params, xs):
    """One input sequence through the kernel, one row per step: the hidden
    states, the final state (zeros for an empty input) and the cache."""
    xs = np.array(xs, dtype=np.float64).reshape(len(xs), params.W.shape[1])
    cache = _lstm_run(params, xs, [1] * len(xs))
    return cache.h, _final_states(cache, [len(xs)])[0], cache


def loss_of(model, tokens, target):
    return -np.log(probs_of(model, tokens)[target])


def two_branch_sigmoid(x):
    """The masked two-branch form: 1/(1+exp(-x)) for x >= 0, else
    exp(x)/(1+exp(x))."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@given(arrays(
    np.float64,
    st.integers(0, 64),
    elements=st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([1e4, -1e4, 0.0, -0.0, 710.0, -710.0]),
))
def test_sigmoid_is_bit_identical_to_two_branch_formula(x):
    got = _sigmoid(x)
    assert got.shape == x.shape
    np.testing.assert_array_equal(got.view(np.uint64), two_branch_sigmoid(x).view(np.uint64))


class TestLSTMForward:
    def test_hand_checked_single_step(self):
        # All weights zero, cell-candidate bias 1: gates are sigmoid(0)=0.5,
        # candidate tanh(1)=0.76159, cell 0.38080, hidden 0.5*tanh(0.38080).
        params = unit_lstm(b_c=1.0)
        hs, h_final, cache = run_lstm(params, [np.array([7.0])])
        assert h_final[0] == pytest.approx(0.18170, abs=5e-6)
        np.testing.assert_allclose(cache.i[0], 0.5)
        np.testing.assert_allclose(cache.f[0], 0.5)
        np.testing.assert_allclose(cache.o[0], 0.5)
        assert cache.g[0, 0] == pytest.approx(0.76159, abs=5e-6)
        assert cache.c[0, 0] == pytest.approx(0.38080, abs=5e-6)
        np.testing.assert_array_equal(hs[-1], h_final)

    def test_two_steps_accumulate_cell_state(self):
        # Same zero-weight setup: step 2 adds another 0.5*tanh(1) through a
        # half-open forget gate, so c2 = 0.5*c1 + 0.38080.
        params = unit_lstm(b_c=1.0)
        _, h_final, cache = run_lstm(params, [np.zeros(1), np.zeros(1)])
        c1 = 0.5 * np.tanh(1.0)
        c2 = 0.5 * c1 + 0.5 * np.tanh(1.0)
        assert cache.c[1, 0] == pytest.approx(c2, abs=1e-12)
        assert h_final[0] == pytest.approx(0.5 * np.tanh(c2), abs=1e-12)

    def test_empty_input_gives_zero_final_state(self):
        params = unit_lstm(b_c=1.0)
        hs, h_final, cache = run_lstm(params, [])
        assert hs.shape == (0, 1)
        np.testing.assert_array_equal(h_final, np.zeros(1))
        assert cache.xs.shape == (0, 1)

    def test_matches_naive_recurrence(self):
        rng = np.random.default_rng(3)
        params = tiny_model(seed=5).sem
        xs = [rng.standard_normal(params.W.shape[1]) for _ in range(4)]
        hs, h_final, _ = run_lstm(params, xs)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        H = params.hidden_dim
        W, U, b = (
            {gate: t[k * H : (k + 1) * H] for k, gate in enumerate("ifoc")}
            for t in (params.W, params.U, params.b)
        )
        h = np.zeros(H)
        c = np.zeros(H)
        for t, x in enumerate(xs):
            i = sig(W["i"] @ x + U["i"] @ h + b["i"])
            f = sig(W["f"] @ x + U["f"] @ h + b["f"])
            o = sig(W["o"] @ x + U["o"] @ h + b["o"])
            g = np.tanh(W["c"] @ x + U["c"] @ h + b["c"])
            c = f * c + i * g
            h = o * np.tanh(c)
            np.testing.assert_allclose(hs[t], h, rtol=1e-12)
        np.testing.assert_allclose(h_final, h, rtol=1e-12)

    def test_gate_ranges(self):
        params = tiny_model(seed=9).sent
        rng = np.random.default_rng(4)
        xs = [10.0 * rng.standard_normal(params.W.shape[1]) for _ in range(6)]
        _, _, cache = run_lstm(params, xs)
        for name in ("i", "f", "o"):
            vals = getattr(cache, name)
            assert np.all(vals > 0.0) and np.all(vals < 1.0)
        assert np.all(np.abs(cache.h) < 1.0)

    def test_extreme_inputs_stay_finite(self):
        params = tiny_model(seed=2).sem
        xs = [np.full(params.W.shape[1], 1e4), np.full(params.W.shape[1], -1e4)]
        hs, h_final, _ = run_lstm(params, xs)
        assert np.all(np.isfinite(hs))
        assert np.all(np.isfinite(h_final))


class TestForwardPass:
    def test_probs_are_a_distribution(self):
        model = tiny_model(seed=1)
        probs = probs_of(model, ["good", "bad", ":)"])
        assert probs.shape == (N_CLASSES,)
        assert np.all(probs > 0.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_output_layer_is_uniform(self):
        model = tiny_model(seed=1)
        model.out_W[:] = 0.0
        model.out_b[:] = 0.0
        probs = probs_of(model, ["good"])
        np.testing.assert_allclose(probs, 0.25)
        assert batch_predict(model, [["good"]]) == ["happy"]

    def test_concat_is_semantic_then_sentiment(self):
        model = tiny_model(seed=7)
        tokens = ["good", "mad"]
        _, cache = batch_forward(model, [tokens])
        table = model.semantic_table
        _, sem_final, _ = run_lstm(model.sem, [table.matrix[table.index[t]] for t in tokens])
        table = model.sentiment_table
        _, sent_final, _ = run_lstm(model.sent, [table.matrix[table.index[t]] for t in tokens])
        np.testing.assert_allclose(cache.concat[0, :3], sem_final, rtol=1e-12)
        np.testing.assert_allclose(cache.concat[0, 3:], sent_final, rtol=1e-12)

    def test_truncates_to_max_seq_len(self):
        model = tiny_model(seed=3, max_seq_len=3)
        long_probs, long_cache = batch_forward(model, [["a"], ["a", "b", "c", "good", "bad"], ["a", "b"]])
        short_probs, _ = batch_forward(model, [["a"], ["a", "b", "c"], ["a", "b"]])
        np.testing.assert_allclose(long_probs, short_probs, rtol=1e-12)
        # Rows run longest first after truncation: 3, 2, then 1 token.
        assert long_cache.order == [1, 2, 0]
        assert long_cache.sem.steps == [3, 2, 1]

    def test_accepts_token_objects(self):
        model = tiny_model(seed=3)
        as_str = probs_of(model, ["good", ":)"])
        as_tok = probs_of(model, [Token("good"), Token(":)")])
        np.testing.assert_allclose(as_tok, as_str, rtol=1e-12)

    def test_oov_tokens_use_zero_vectors(self):
        model = tiny_model(seed=3)
        probs, cache = batch_forward(model, [["zzz-unknown"]])
        assert np.all(np.isfinite(probs))
        np.testing.assert_array_equal(cache.sem.xs[0], np.zeros(4))

    def test_empty_utterance_runs(self):
        model = tiny_model(seed=3)
        probs, cache = batch_forward(model, [[]])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(cache.concat, np.zeros((1, 5)))

    def test_semantic_only_ignores_sentiment_table(self):
        model = tiny_model(seed=4, channels="semantic")
        before = probs_of(model, ["good", "bad"])
        model.sentiment_table.matrix += 100.0
        after = probs_of(model, ["good", "bad"])
        np.testing.assert_allclose(after, before, rtol=1e-12)

    def test_sentiment_only_ignores_semantic_table(self):
        model = tiny_model(seed=4, channels="sentiment")
        before = probs_of(model, ["good", "bad"])
        model.semantic_table.matrix += 100.0
        after = probs_of(model, ["good", "bad"])
        np.testing.assert_allclose(after, before, rtol=1e-12)

    def test_tanh_activation_differs_from_relu(self):
        relu = tiny_model(seed=6, fc_activation="relu")
        tanh = tiny_model(seed=6, fc_activation="tanh")
        p1, c1 = batch_forward(relu, [["good"]])
        p2, c2 = batch_forward(tanh, [["good"]])
        np.testing.assert_allclose(c2.a1, np.tanh(c2.z1), rtol=1e-12)
        assert np.any(c1.a1 != c2.a1)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            z = rng.standard_normal(4) * rng.uniform(0.1, 50)
            p = softmax(z)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(softmax(z + 123.0), p, rtol=1e-9)
        np.testing.assert_allclose(softmax(np.array([1e4, 0.0, 0.0, 0.0])), [1, 0, 0, 0], atol=1e-12)


class TestInit:
    def test_deterministic_per_seed(self):
        a = tiny_model(seed=42)
        b = tiny_model(seed=42)
        c = tiny_model(seed=43)
        for key, val in a.param_tensors().items():
            np.testing.assert_array_equal(b.param_tensors()[key], val)
        assert any(
            np.any(c.param_tensors()[k] != v) for k, v in a.param_tensors().items()
        )

    def test_bias_initialisation(self):
        model = tiny_model(seed=0)
        for params in (model.sem, model.sent):
            H = params.hidden_dim
            b_i, b_f, b_o, b_c = (params.b[k * H : (k + 1) * H] for k in range(4))
            np.testing.assert_array_equal(b_f, np.ones(H))
            for gate_bias in (b_i, b_o, b_c):
                np.testing.assert_array_equal(gate_bias, np.zeros(H))
        np.testing.assert_array_equal(model.fc_b, 0.0)
        np.testing.assert_array_equal(model.out_b, 0.0)

    def test_weight_scale_bounds(self):
        model = tiny_model(seed=1, sem_hidden=8, sent_hidden=8, fc_hidden=8)
        for name, tensor in model.param_tensors().items():
            if name.endswith("_b"):
                continue
            # Each LSTM gate block is scaled by its own (H, cols) fan.
            blocks = np.split(tensor, 4) if name.startswith(("sem_", "sent_")) else [tensor]
            for block in blocks:
                rows, cols = block.shape
                limit = np.sqrt(6.0 / (rows + cols))
                assert np.max(np.abs(block)) <= limit
                assert np.max(np.abs(block)) > 0.25 * limit  # not degenerate

    def test_param_tensor_keys(self):
        model = tiny_model()
        keys = set(model.param_tensors())
        expected = {
            f"{ch}_{kind}" for ch in ("sem", "sent") for kind in ("W", "U", "b")
        } | {"fc_W", "fc_b", "out_W", "out_b"}
        assert keys == expected

    def test_single_channel_still_builds_both_lstms(self):
        model = tiny_model(channels="semantic")
        assert model.sent.W.shape == (4 * 2, 3)
        assert model.fc_W.shape == (4, 3)  # FC sees only the semantic block
        assert model.config.concat_width() == 3

    def test_concat_width_both(self):
        assert tiny_model().config.concat_width() == 5

    def test_config_validation(self):
        with pytest.raises(ValueError, match="channels"):
            ModelConfig(channels="bogus")
        with pytest.raises(ValueError, match="fc_activation"):
            ModelConfig(fc_activation="sigmoid")
        with pytest.raises(ValueError, match="positive"):
            ModelConfig(fc_hidden=0)


class TestBackward:
    def test_output_bias_gradient_is_probs_minus_onehot(self):
        model = tiny_model(seed=1)
        model.out_W[:] = 0.0
        model.out_b[:] = 0.0
        grads = example_gradients(model, ["good"], 0)
        np.testing.assert_allclose(
            grads["out_b"], [-0.75, 0.25, 0.25, 0.25], rtol=1e-12
        )

    @pytest.mark.parametrize("channels", ["both", "semantic", "sentiment"])
    @pytest.mark.parametrize("fc_activation", ["relu", "tanh"])
    def test_matches_finite_differences(self, channels, fc_activation):
        seed = CHANNELS.index(channels) * 10 + FC_ACTIVATIONS.index(fc_activation)
        rng = np.random.default_rng(seed)
        for trial in range(4):
            model = tiny_model(
                seed=int(rng.integers(10_000)),
                channels=channels,
                fc_activation=fc_activation,
            )
            n_tokens = int(rng.integers(1, 5))
            tokens = list(rng.choice(VOCAB + ["oov-token"], size=n_tokens))
            target = int(rng.integers(N_CLASSES))
            grads = example_gradients(model, tokens, target)
            # Step size trades truncation error against the float64 roundoff
            # floor; 3e-4 keeps near-flat coordinates under the 1e-8-floored
            # relative tolerance.
            eps = 3e-4
            for name, tensor in model.param_tensors().items():
                flat = tensor.reshape(-1)
                analytic = grads[name].reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    up = loss_of(model, tokens, target)
                    flat[idx] = orig - eps
                    down = loss_of(model, tokens, target)
                    flat[idx] = orig
                    numeric = (up - down) / (2 * eps)
                    err = abs(analytic[idx] - numeric)
                    scale = max(abs(analytic[idx]), abs(numeric), 1e-8)
                    assert err / scale < 1e-4, (name, idx, analytic[idx], numeric)

    def test_inactive_channel_gradients_are_zero(self):
        model = tiny_model(seed=5, channels="semantic")
        grads = example_gradients(model, ["good", "bad"], 2)
        for name, g in grads.items():
            if name.startswith("sent_"):
                np.testing.assert_array_equal(g, 0.0)
        assert np.any(grads["sem_W"] != 0.0)

    def test_gradient_keys_match_param_tensors(self):
        model = tiny_model(seed=2)
        grads = example_gradients(model, ["a"], 3)
        assert set(grads) == set(model.param_tensors())
        for name, tensor in model.param_tensors().items():
            assert grads[name].shape == tensor.shape

    def test_target_out_of_range(self):
        model = tiny_model(seed=1)
        with pytest.raises(ValueError, match="out of range"):
            gradient_check(model, (["good"], 4))

    def test_loss_decreases_along_negative_gradient(self):
        model = tiny_model(seed=12)
        tokens = ["good", "mad", ":("]
        target = 2
        before = loss_of(model, tokens, target)
        grads = example_gradients(model, tokens, target)
        for name, tensor in model.param_tensors().items():
            tensor -= 0.05 * grads[name]
        assert loss_of(model, tokens, target) < before


class TestPredictAndClone:
    def test_predict_returns_argmax_label(self):
        model = tiny_model(seed=21)
        for tokens in (["good"], ["bad", "mad"], [":("], []):
            probs = probs_of(model, tokens)
            assert batch_predict(model, [tokens]) == [LABELS[int(np.argmax(probs))]]

    def test_clone_isolates_parameters(self):
        model = tiny_model(seed=2)
        snap = clone_model(model)
        model.fc_W += 1.0
        model.sem.W += 1.0
        assert np.all(snap.fc_W != model.fc_W)
        assert np.all(snap.sem.W != model.sem.W)

    def test_clone_shares_frozen_tables(self):
        model = tiny_model(seed=2)
        snap = clone_model(model)
        assert snap.semantic_table is model.semantic_table
