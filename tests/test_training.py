import io

import numpy as np
import pytest

from conftest import example_gradients, make_table, probs_of
from sslstm.container import UnknownVersionError
from sslstm.dataio import Conversation
from sslstm.embeddings import EmbeddingTable, load_embedding_file, save_embedding_file
from sslstm.labels import LABELS
from sslstm.neural import (
    CHUNK,
    Gradients,
    ModelConfig,
    batch_predict,
    init_model,
)
from sslstm.text_norm import default_lexicon_sha256
from sslstm.training import (
    CheckpointError,
    ShapeMismatchError,
    TrainConfig,
    TruncatedCheckpointError,
    cross_entropy,
    gradient_check,
    load_checkpoint,
    make_batches,
    read_container,
    save_checkpoint,
    sgd_step,
    split_dataset,
    train,
    utterance_length,
    write_container,
)


def conv(cid, text, label=None):
    return Conversation(str(cid), "", "", text, label)


def words(n):
    """Utterance text that tokenizes to exactly n word tokens."""
    return " ".join(f"w{i}" for i in range(n))


KEYWORDS = {"happy": "alpha", "sad": "beta", "angry": "gamma", "others": "delta"}


def keyword_tables(sem_dim=4, sent_dim=2):
    """Semantic table with one distinct direction per class keyword."""
    sem = {kw: np.eye(sem_dim)[i] * 2.0 for i, kw in enumerate(KEYWORDS.values())}
    sent = {kw: np.zeros(sent_dim) for kw in KEYWORDS.values()}
    return (
        EmbeddingTable(dim=sem_dim, vectors=sem),
        EmbeddingTable(dim=sent_dim, vectors=sent),
    )


def keyword_dataset():
    train_set, val_set = [], []
    i = 0
    for label, kw in KEYWORDS.items():
        for text in (kw, f"{kw} qq", f"qq {kw}", f"{kw} {kw}"):
            train_set.append(conv(i, text, label))
            i += 1
        val_set.append(conv(i, f"qq {kw} qq", label))
        i += 1
    return train_set, val_set


def keyword_model(seed=0):
    sem, sent = keyword_tables()
    config = ModelConfig(sem_hidden=4, sent_hidden=3, fc_hidden=6, max_seq_len=10)
    return init_model(config, sem, sent, seed=seed)


def zero_gradients(model):
    return Gradients(
        tensors={k: np.zeros_like(v) for k, v in model.param_tensors().items()}
    )


def tiny_random_model(seed=0, channels="both", train_embeddings=False):
    vocab = ["good", "bad", "mad", "meh", "a", "b"]
    config = ModelConfig(
        channels=channels,
        sem_hidden=3,
        sent_hidden=2,
        fc_hidden=4,
        train_embeddings=train_embeddings,
    )
    sem = make_table(vocab, dim=4, seed=seed + 1)
    sent = make_table(vocab, dim=3, seed=seed + 2)
    return init_model(config, sem, sent, seed=seed)


class TestCrossEntropy:
    def test_uniform(self):
        assert cross_entropy([0.25, 0.25, 0.25, 0.25], 2) == pytest.approx(
            np.log(4), abs=1e-5
        )

    def test_certain_prediction(self):
        assert cross_entropy([0.0, 1.0, 0.0, 0.0], 1) == 0.0

    def test_half(self):
        assert cross_entropy([0.5, 0.3, 0.1, 0.1], 0) == pytest.approx(np.log(2), abs=1e-5)

    def test_accepts_label_names(self):
        assert cross_entropy([0.1, 0.5, 0.2, 0.2], "sad") == pytest.approx(
            -np.log(0.5), abs=1e-12
        )


class TestMakeBatches:
    def test_hand_traced_greedy_fill(self):
        convs = [conv(i, words(n)) for i, n in enumerate([3, 5, 2, 7])]
        batches = make_batches(convs, token_budget=8, seed=None)
        grouped = [[c.id for c in batch] for batch in batches]
        assert grouped == [["0", "1"], ["2"], ["3"]]

    def test_oversize_utterance_is_singleton(self):
        convs = [conv(0, words(10))]
        batches = make_batches(convs, token_budget=8, seed=None)
        assert [len(b) for b in batches] == [1]

    def test_oversize_between_normal(self):
        convs = [conv(i, words(n)) for i, n in enumerate([2, 12, 3])]
        batches = make_batches(convs, token_budget=8, seed=None)
        assert [[c.id for c in b] for b in batches] == [["0"], ["1"], ["2"]]

    def test_empty_dataset(self):
        assert make_batches([], token_budget=8, seed=0) == []

    def test_partition_invariants(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            convs = [
                conv(i, words(int(rng.integers(1, 12)))) for i in range(30)
            ]
            budget = int(rng.integers(5, 25))
            batches = make_batches(convs, token_budget=budget, seed=trial)
            seen = [c.id for batch in batches for c in batch]
            assert sorted(seen) == sorted(c.id for c in convs)
            assert len(seen) == len(set(seen))
            for batch in batches:
                if len(batch) > 1:
                    assert sum(len(c.tokens) for c in batch) <= budget

    def test_deterministic_per_seed(self):
        convs = [conv(i, words(i % 5 + 1)) for i in range(20)]
        a = make_batches(convs, 10, seed=3)
        b = make_batches(convs, 10, seed=3)
        assert [[c.id for c in x] for x in a] == [[c.id for c in x] for x in b]
        c = make_batches(convs, 10, seed=4)
        assert [[x.id for x in y] for y in a] != [[x.id for x in y] for y in c]

    def test_truncated_lengths_counted(self):
        convs = [conv(0, words(10)), conv(1, words(10))]
        assert utterance_length(convs[0], max_len=4) == 4
        batches = make_batches(convs, token_budget=8, seed=None, max_len=4)
        assert len(batches) == 1  # 4 + 4 fits the budget

    def test_zero_length_utterances_pack_together(self):
        convs = [conv(i, "@somebody") for i in range(5)]
        assert all(len(c.tokens) == 0 for c in convs)
        batches = make_batches(convs, token_budget=3, seed=None)
        assert len(batches) == 1

    def test_bad_budget(self):
        with pytest.raises(ValueError, match="token_budget"):
            make_batches([conv(0, "hey")], token_budget=0, seed=0)


class TestSgdStep:
    def test_single_coordinate_arithmetic(self):
        model = tiny_random_model()
        model.fc_b[0] = 1.0
        grads = zero_gradients(model)
        grads.tensors["fc_b"][0] = 0.5
        sgd_step(model, grads, learning_rate=0.1)
        assert model.fc_b[0] == pytest.approx(0.95, abs=1e-12)

    def test_zero_gradient_is_identity(self):
        model = tiny_random_model(seed=3)
        before = {k: v.copy() for k, v in model.param_tensors().items()}
        sgd_step(model, zero_gradients(model), learning_rate=0.5)
        for k, v in model.param_tensors().items():
            np.testing.assert_array_equal(v, before[k])

    def test_two_steps_equal_one_double_step(self):
        rng = np.random.default_rng(9)
        m1 = tiny_random_model(seed=7)
        m2 = tiny_random_model(seed=7)
        grads = zero_gradients(m1)
        for tensor in grads.tensors.values():
            tensor[:] = rng.standard_normal(tensor.shape)
        double = Gradients(tensors={k: 2.0 * v for k, v in grads.tensors.items()})
        sgd_step(m1, grads, 0.01)
        sgd_step(m1, grads, 0.01)
        sgd_step(m2, double, 0.01)
        for k in grads.tensors:
            np.testing.assert_allclose(
                m1.param_tensors()[k], m2.param_tensors()[k], atol=1e-12
            )

    def test_shape_mismatch_leaves_model_untouched(self):
        model = tiny_random_model(seed=1)
        before = {k: v.copy() for k, v in model.param_tensors().items()}
        grads = zero_gradients(model)
        grads.tensors["fc_W"] = np.zeros((1, 1))
        grads.tensors["fc_b"][0] = 9.9
        with pytest.raises(ValueError, match="shape mismatch"):
            sgd_step(model, grads, 0.1)
        for k, v in model.param_tensors().items():
            np.testing.assert_array_equal(v, before[k])

    def test_missing_tensor_rejected(self):
        model = tiny_random_model(seed=1)
        grads = zero_gradients(model)
        del grads.tensors["out_b"]
        with pytest.raises(ValueError, match="tensor names"):
            sgd_step(model, grads, 0.1)

    @pytest.mark.parametrize(
        "ids, width",
        [([0], 1), ([6], 0), ([-1], 0), ([0, 1], None)],
        ids=["wide-row", "id-past-end", "negative-id", "fewer-rows-than-ids"],
    )
    def test_bad_embedding_gradient_leaves_model_untouched(self, ids, width):
        model = tiny_random_model(seed=4, train_embeddings=True)
        before = {k: v.copy() for k, v in model.param_tensors().items()}
        tables = (model.semantic_table, model.sentiment_table)
        matrices = [t.matrix.copy() for t in tables]
        grads = zero_gradients(model)
        grads.tensors["fc_b"][0] = 9.9
        dim = model.semantic_table.dim
        rows = np.ones((1, dim + width)) if width is not None else np.ones((1, dim))
        grads.sem_embed = (np.array(ids), rows)
        with pytest.raises(ValueError, match="semantic embedding gradient"):
            sgd_step(model, grads, 0.1)
        for k, v in model.param_tensors().items():
            np.testing.assert_array_equal(v, before[k])
        for table, matrix in zip(tables, matrices):
            np.testing.assert_array_equal(table.matrix, matrix)

    def test_embedding_update(self):
        model = tiny_random_model(seed=2, train_embeddings=True)
        row = model.semantic_table.index["good"]
        before = model.semantic_table.matrix[row].copy()
        grads = zero_gradients(model)
        grads.sem_embed = (np.array([row]), np.ones((1, model.semantic_table.dim)))
        sgd_step(model, grads, learning_rate=0.1)
        np.testing.assert_allclose(model.semantic_table.matrix[row], before - 0.1, atol=1e-12)

    def test_one_example_step_does_not_increase_its_loss(self):
        rng = np.random.default_rng(31)
        for trial in range(50):
            model = tiny_random_model(seed=int(rng.integers(100_000)))
            tokens = list(rng.choice(["good", "bad", "mad", "a", "b"], size=rng.integers(1, 5)))
            target = int(rng.integers(4))
            before = cross_entropy(probs_of(model, tokens), target)
            sgd_step(model, example_gradients(model, tokens, target), learning_rate=1e-3)
            after = cross_entropy(probs_of(model, tokens), target)
            assert after <= before + 1e-12


class TestSplitDataset:
    def make_imbalanced(self):
        data = []
        i = 0
        for label, n in (("happy", 109), ("sad", 107), ("angry", 90), ("others", 1920)):
            for _ in range(n):
                data.append(conv(i, f"text {i}", label))
                i += 1
        return data

    def test_imbalanced_counts(self):
        data = self.make_imbalanced()
        train_set, val_set = split_dataset(data, 0.9, seed=0)
        assert len(train_set) == 2003
        assert len(val_set) == 223
        by_label = lambda ds: {c: sum(1 for x in ds if x.label == c) for c in LABELS}
        assert by_label(train_set) == {"happy": 98, "sad": 96, "angry": 81, "others": 1728}
        assert by_label(val_set) == {"happy": 11, "sad": 11, "angry": 9, "others": 192}

    def test_single_label_nine_one(self):
        data = [conv(i, "hi", "sad") for i in range(10)]
        train_set, val_set = split_dataset(data, 0.9, seed=1)
        assert len(train_set) == 9
        assert len(val_set) == 1

    def test_partition_is_exact(self):
        data = self.make_imbalanced()[:300]
        train_set, val_set = split_dataset(data, 0.8, seed=2)
        train_ids = {c.id for c in train_set}
        val_ids = {c.id for c in val_set}
        assert not train_ids & val_ids
        assert train_ids | val_ids == {c.id for c in data}

    def test_deterministic(self):
        data = self.make_imbalanced()[:200]
        a = split_dataset(data, 0.9, seed=5)
        b = split_dataset(data, 0.9, seed=5)
        assert [c.id for c in a[0]] == [c.id for c in b[0]]
        c = split_dataset(data, 0.9, seed=6)
        assert [x.id for x in a[0]] != [x.id for x in c[0]]

    def test_original_order_preserved(self):
        data = [conv(i, "hi", "sad") for i in range(20)]
        train_set, _ = split_dataset(data, 0.7, seed=3)
        indices = [int(c.id) for c in train_set]
        assert indices == sorted(indices)

    def test_exact_ratio_products(self):
        data = [conv(i, "hi", "happy") for i in range(10)]
        train_set, val_set = split_dataset(data, 0.7, seed=0)
        assert (len(train_set), len(val_set)) == (7, 3)

    def test_bad_ratio(self):
        data = [conv(0, "hi", "sad")]
        for ratio in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="ratio"):
                split_dataset(data, ratio, seed=0)

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            split_dataset([], 0.9, seed=0)

    def test_unlabeled_rejected(self):
        with pytest.raises(ValueError, match="no label"):
            split_dataset([conv(0, "hi")], 0.9, seed=0)


class TestTrain:
    def run_config(self, **overrides):
        kw = dict(
            learning_rate=0.5,
            token_budget=8,
            max_epochs=200,
            patience=200,
            seed=0,
            stop_when_train_accuracy=1.0,
        )
        kw.update(overrides)
        return TrainConfig(**kw)

    def test_overfits_separable_data(self):
        train_set, val_set = keyword_dataset()
        model = keyword_model(seed=0)
        trained, history = train(model, train_set, val_set, self.run_config())
        assert history.records[-1].train_accuracy == 1.0
        assert len(history.records) <= 200
        # The best-validation snapshot classifies the keyword task as well.
        labels = batch_predict(trained, [c.tokens for c in val_set])
        assert labels == [c.label for c in val_set]

    def test_deterministic_history(self):
        train_set, val_set = keyword_dataset()
        runs = []
        for _ in range(2):
            model = keyword_model(seed=4)
            runs.append(train(model, train_set, val_set, self.run_config(max_epochs=8, stop_when_train_accuracy=None, patience=8)))
        assert runs[0][1] == runs[1][1]
        for k, v in runs[0][0].param_tensors().items():
            np.testing.assert_array_equal(v, runs[1][0].param_tensors()[k])

    def test_train_accuracy_pass_only_with_a_target(self, monkeypatch):
        import sslstm.training

        calls = []
        real = sslstm.training.batch_predict

        def counting(model, sequences):
            calls.append(len(sequences))
            return real(model, sequences)

        monkeypatch.setattr(sslstm.training, "batch_predict", counting)
        train_set, val_set = keyword_dataset()
        for target, per_epoch in (
            (None, [len(val_set)]),
            (1.0, [len(val_set), len(train_set)]),
        ):
            calls.clear()
            config = self.run_config(max_epochs=3, patience=3, stop_when_train_accuracy=target)
            _, history = train(keyword_model(seed=4), train_set, val_set, config)
            assert calls == per_epoch * len(history.records)
            accuracies = [r.train_accuracy for r in history.records]
            if target is None:
                assert accuracies == [None] * 3
            else:
                assert all(0.0 <= a <= 1.0 for a in accuracies)

    def test_patience_zero_stops_at_first_flat_epoch(self):
        train_set, val_set = keyword_dataset()
        model = keyword_model(seed=1)
        config = TrainConfig(
            learning_rate=1e-12, token_budget=8, max_epochs=10, patience=0, seed=0
        )
        _, history = train(model, train_set, val_set, config)
        assert len(history.records) == 2  # first epoch improves over nothing

    def test_returns_best_validation_epoch(self):
        train_set, val_set = keyword_dataset()
        model = keyword_model(seed=2)
        config = self.run_config(max_epochs=30, stop_when_train_accuracy=None, patience=30)
        best, history = train(model, train_set, val_set, config)
        best_f1 = max(r.val_macro_f1 for r in history.records)
        assert history.records[history.best_epoch].val_macro_f1 == best_f1
        from sslstm.training import _val_macro_f1

        assert _val_macro_f1(best, val_set) == pytest.approx(best_f1, abs=1e-9)

    def test_one_epoch_matches_reference_batch_sums(self):
        vocab = ["good", "bad", "mad", "meh", "a", "b"]
        rng = np.random.default_rng(8)
        train_set = [
            conv(i, " ".join(rng.choice(vocab, size=rng.integers(1, 5))), LABELS[i % 4])
            for i in range(16)
        ]
        val_set = [conv(100 + i, vocab[i], LABELS[i]) for i in range(4)]
        config = TrainConfig(
            learning_rate=0.3,
            token_budget=7,
            max_epochs=1,
            patience=1,
            seed=5,
            class_weights=(1.0, 2.0, 0.5, 1.5),
        )
        trained, _ = train(
            tiny_random_model(seed=6, train_embeddings=True), train_set, val_set, config
        )

        reference = tiny_random_model(seed=6, train_embeddings=True)
        batches = make_batches(
            train_set, config.token_budget, seed=config.seed, max_len=reference.config.max_seq_len
        )
        assert sum(len(batch) > 1 for batch in batches) >= 3
        for batch in batches:
            tensors = {}
            embeds = {"sem_embed": ([], []), "sent_embed": ([], [])}
            for c in batch:
                target = LABELS.index(c.label)
                weight = config.class_weights[target]
                grads = example_gradients(reference, c.tokens, target)
                for key, value in grads.tensors.items():
                    value = value * weight
                    tensors[key] = tensors[key] + value if key in tensors else value
                for attr, (ids, rows) in embeds.items():
                    ids.append(getattr(grads, attr)[0])
                    rows.append(getattr(grads, attr)[1] * weight)
            scale = 1.0 / len(batch)
            mean = Gradients(
                tensors={k: v * scale for k, v in tensors.items()},
                **{attr: (np.concatenate(ids), np.concatenate(rows) * scale)
                   for attr, (ids, rows) in embeds.items()},
            )
            sgd_step(reference, mean, config.learning_rate)

        # The batched kernel sums each chunk's gradients in one matrix
        # product, so the order of the float additions differs from the
        # per-example sums here.
        for name, tensor in reference.param_tensors().items():
            np.testing.assert_allclose(
                trained.param_tensors()[name], tensor, rtol=1e-12, atol=1e-14
            )
        initial = tiny_random_model(seed=6, train_embeddings=True)
        moved = 0
        for attr in ("semantic_table", "sentiment_table"):
            for token, k in getattr(reference, attr).index.items():
                row = getattr(reference, attr).matrix[k]
                np.testing.assert_allclose(
                    getattr(trained, attr).matrix[k], row, rtol=1e-12, atol=1e-14
                )
                moved += not np.array_equal(getattr(initial, attr).matrix[k], row)
        assert moved > 0

    def test_repeated_token_row_moves_by_its_summed_gradient(self):
        # "good" occurs twice in every sequence of one batch that spans more
        # than one kernel chunk, so the update names its row many times.
        n = CHUNK + 9
        others = ["mad", "meh", "a", "b"]
        train_set = [conv(i, f"good {others[i % 4]} good", LABELS[i % 4]) for i in range(n)]
        val_set = [conv(100 + i, others[i], LABELS[i]) for i in range(4)]
        config = TrainConfig(learning_rate=0.5, token_budget=1000, max_epochs=1, patience=1, seed=3)
        assert len(make_batches(train_set, config.token_budget, seed=config.seed)) == 1
        trained, _ = train(
            tiny_random_model(seed=4, train_embeddings=True), train_set, val_set, config
        )

        initial = tiny_random_model(seed=4, train_embeddings=True)
        for attr, prefix in (("semantic_table", "sem"), ("sentiment_table", "sent")):
            table = getattr(initial, attr)
            row = table.index["good"]
            summed = np.zeros(table.dim)
            for c in train_set:
                grads = example_gradients(initial, c.tokens, LABELS.index(c.label))
                ids, rows = getattr(grads, f"{prefix}_embed")
                assert list(ids).count(row) == 2
                summed += rows[ids == row].sum(axis=0) / n
            np.testing.assert_allclose(
                getattr(trained, attr).matrix[row],
                table.matrix[row] - config.learning_rate * summed,
                rtol=1e-12, atol=1e-14,
            )

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_non_finite_loss_raises_at_its_batch(self):
        train_set, val_set = keyword_dataset()
        config = self.run_config(learning_rate=1e4, max_epochs=20)
        with pytest.raises(FloatingPointError, match=r"at epoch 0, batch \d+$"):
            train(keyword_model(seed=1), train_set, val_set, config)

    def test_zero_class_weight_freezes_training(self):
        sem, sent = keyword_tables()
        config = ModelConfig(channels="both", sem_hidden=4, sent_hidden=3, fc_hidden=6)
        model = init_model(config, sem, sent, seed=5)
        before = {k: v.copy() for k, v in model.param_tensors().items()}
        data = [conv(i, "alpha", "happy") for i in range(4)]
        train_cfg = TrainConfig(
            learning_rate=0.5,
            token_budget=8,
            max_epochs=2,
            patience=5,
            class_weights=(0.0, 1.0, 1.0, 1.0),
        )
        train(model, data, [conv(99, "alpha", "happy")], train_cfg)
        for k, v in model.param_tensors().items():
            np.testing.assert_array_equal(v, before[k])

    def test_empty_sets_rejected(self):
        train_set, val_set = keyword_dataset()
        model = keyword_model()
        with pytest.raises(ValueError, match="training set"):
            train(model, [], val_set, self.run_config())
        with pytest.raises(ValueError, match="validation set"):
            train(model, train_set, [], self.run_config())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="token_budget"):
            TrainConfig(token_budget=-1)
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=-1)
        with pytest.raises(ValueError, match="class_weights"):
            TrainConfig(class_weights=(1.0, 1.0))


class TestGradientCheck:
    def test_small_random_models_pass(self):
        for seed in (0, 1, 2):
            model = tiny_random_model(seed=seed)
            err = gradient_check(model, (["good", "bad", "a"], seed % 4), epsilon=1e-4)
            assert err < 1e-4

    def test_zero_output_layer_model(self):
        model = tiny_random_model(seed=5)
        model.out_W[:] = 0.0
        model.out_b[:] = 0.0
        assert gradient_check(model, (["good"], 0), epsilon=1e-4) < 1e-4

    def test_epsilon_validation(self):
        model = tiny_random_model()
        with pytest.raises(ValueError, match="epsilon"):
            gradient_check(model, (["good"], 0), epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            gradient_check(model, (["good"], 0), epsilon=-1e-4)

    def test_large_model_subsamples(self):
        vocab = ["good", "bad"]
        config = ModelConfig(channels="both", sem_hidden=30, sent_hidden=30, fc_hidden=20)
        sem = make_table(vocab, dim=10, seed=1)
        sent = make_table(vocab, dim=10, seed=2)
        model = init_model(config, sem, sent, seed=0)
        n_params = sum(t.size for t in model.param_tensors().values())
        assert n_params > 10_000
        err = gradient_check(model, (["good", "bad"], 1), epsilon=3e-4)
        assert err < 1e-4

    def test_detects_broken_gradients(self):
        model = tiny_random_model(seed=6)
        err = gradient_check(model, (["good", "bad"], 2), epsilon=1e-4)
        assert err < 1e-4
        # Corrupt one weight after the analytic pass by checking a model
        # whose forward pass disagrees with the gradients: simulate by
        # scaling the FC weights between passes via a wrapper model.
        import sslstm.training as training_mod

        original = training_mod.batch_backward

        def broken(model_, cache, dlogits):
            grads = original(model_, cache, dlogits)
            grads.tensors["fc_b"] = grads.tensors["fc_b"] + 0.5
            return grads

        training_mod.batch_backward = broken
        try:
            assert gradient_check(model, (["good", "bad"], 2), epsilon=1e-4) > 1e-2
        finally:
            training_mod.batch_backward = original


class TestCheckpoint:
    def embedding_tables(self):
        sem_src = io.StringIO()
        save_embedding_file(
            make_table(["good", "bad", "mad", "a"], dim=4, seed=8), sem_src
        )
        sent_src = io.StringIO()
        save_embedding_file(
            make_table(["good", "bad", "mad", "a"], dim=3, seed=9), sent_src
        )
        sem = load_embedding_file(io.StringIO(sem_src.getvalue()))
        sent = load_embedding_file(io.StringIO(sent_src.getvalue()))
        return sem, sent

    def build_model(self, seed=0):
        sem, sent = self.embedding_tables()
        config = ModelConfig(channels="both", sem_hidden=3, sent_hidden=2, fc_hidden=4)
        return init_model(config, sem, sent, seed=seed)

    def save_text(self, model, config=None):
        sink = io.StringIO()
        save_checkpoint(model, config, sink)
        return sink.getvalue()

    def test_round_trip_preserves_predictions(self):
        model = self.build_model(seed=11)
        text = self.save_text(model)
        loaded = load_checkpoint(
            io.StringIO(text), model.semantic_table, model.sentiment_table
        )
        rng = np.random.default_rng(17)
        vocab = ["good", "bad", "mad", "a", "zzz"]
        for _ in range(100):
            tokens = list(rng.choice(vocab, size=rng.integers(0, 6)))
            p1 = probs_of(model, tokens)
            p2 = probs_of(loaded, tokens)
            np.testing.assert_allclose(p2, p1, atol=1e-6)

    def test_file_layout(self):
        model = self.build_model()
        text = self.save_text(model, TrainConfig(seed=7))
        lines = text.splitlines()
        assert lines[0] == "SSLSTM-CKPT 1"
        assert any(l == "meta channels=both" for l in lines)
        assert any(l.startswith("meta lexicon_sha256=") for l in lines)
        assert any(l == "meta seed=7" for l in lines)
        assert lines[-1] == "end"
        headers = [l for l in lines if l.startswith("tensor ")]
        assert len(headers) == 28

    def test_round_trip_through_file(self, tmp_path):
        model = self.build_model(seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, None, path)
        loaded = load_checkpoint(path, model.semantic_table, model.sentiment_table)
        p1 = probs_of(model, ["good", "bad"])
        p2 = probs_of(loaded, ["good", "bad"])
        np.testing.assert_allclose(p2, p1, atol=1e-6)

    def test_save_load_save_is_exact(self, tmp_path):
        model = self.build_model(seed=5)
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        save_checkpoint(model, TrainConfig(seed=5), first)
        loaded = load_checkpoint(first, model.semantic_table, model.sentiment_table)
        for name, tensor in model.param_tensors().items():
            np.testing.assert_array_equal(loaded.param_tensors()[name], tensor)
        save_checkpoint(loaded, TrainConfig(seed=5), second)
        assert second.read_bytes() == first.read_bytes()

    def test_gate_blocks_map_to_stacked_rows(self):
        # A file written block by block, as an external tool writes one,
        # with a distinct random block per gate.
        rng = np.random.default_rng(13)
        dims = {"sem": (4, 3), "sent": (3, 2)}  # (input dim, hidden)
        blocks = {}
        for prefix, (dim, hidden) in dims.items():
            for kind, cols in (("W", dim), ("U", hidden), ("b", hidden)):
                for gate in ("i", "f", "o", "c"):
                    rows = 1 if kind == "b" else hidden
                    blocks[f"{prefix}_{kind}_{gate}"] = rng.standard_normal((rows, cols))
        blocks["fc_W"] = rng.standard_normal((4, 5))
        blocks["fc_b"] = rng.standard_normal((1, 4))
        blocks["out_W"] = rng.standard_normal((4, 4))
        blocks["out_b"] = rng.standard_normal((1, 4))
        meta = {
            "model": "sslstm", "channels": "both", "fc_activation": "relu",
            "sem_hidden": 3, "sent_hidden": 2, "fc_hidden": 4, "max_seq_len": 50,
            "train_embeddings": 0, "sem_dim": 4, "sent_dim": 3,
            "sem_table_sha256": "-", "sent_table_sha256": "-",
            "lexicon_sha256": default_lexicon_sha256(),
        }
        lines = ["SSLSTM-CKPT 1"] + [f"meta {k}={v}" for k, v in meta.items()]
        for name, mat in blocks.items():
            lines.append(f"tensor {name} {mat.shape[0]} {mat.shape[1]}")
            lines.extend(" ".join(repr(v) for v in row) for row in mat.tolist())
        text = "\n".join(lines + ["end"]) + "\n"

        model = load_checkpoint(io.StringIO(text))
        for prefix, params in (("sem", model.sem), ("sent", model.sent)):
            H = dims[prefix][1]
            for kind in ("W", "U", "b"):
                stacked = getattr(params, kind)
                for k, gate in enumerate(("i", "f", "o", "c")):
                    block = blocks[f"{prefix}_{kind}_{gate}"]
                    np.testing.assert_array_equal(
                        stacked[k * H : (k + 1) * H], block if kind != "b" else block[0]
                    )
        np.testing.assert_array_equal(model.fc_W, blocks["fc_W"])
        assert self.save_text(model) == text

    def test_corrupt_header(self):
        with pytest.raises(UnknownVersionError):
            load_checkpoint(io.StringIO("GARBAGE 1\nend\n"))
        with pytest.raises(UnknownVersionError):
            load_checkpoint(io.StringIO(""))

    def test_unsupported_version(self):
        text = self.save_text(self.build_model()).replace("SSLSTM-CKPT 1", "SSLSTM-CKPT 2", 1)
        with pytest.raises(UnknownVersionError, match="version"):
            load_checkpoint(io.StringIO(text))

    def test_truncated_file(self):
        text = self.save_text(self.build_model())
        clipped = "\n".join(text.splitlines()[:-5]) + "\n"
        with pytest.raises(TruncatedCheckpointError):
            load_checkpoint(io.StringIO(clipped))

    def test_missing_tensor_block(self):
        model = self.build_model()
        lines = self.save_text(model).splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("tensor fc_b "))
        removed = lines[:start] + lines[start + 2 :]
        with pytest.raises(TruncatedCheckpointError, match="fc_b"):
            load_checkpoint(io.StringIO("\n".join(removed) + "\n"))

    def test_dimension_mismatch_in_meta(self):
        text = self.save_text(self.build_model()).replace("meta fc_hidden=4", "meta fc_hidden=5")
        with pytest.raises(ShapeMismatchError):
            load_checkpoint(io.StringIO(text))

    def test_unexpected_tensor(self):
        text = self.save_text(self.build_model())
        text = text.replace("end\n", "tensor mystery 1 1\n0.5\nend\n")
        with pytest.raises(ShapeMismatchError, match="mystery"):
            load_checkpoint(io.StringIO(text))

    def test_wrong_dim_table_rejected(self):
        model = self.build_model()
        text = self.save_text(model)
        bad = make_table(["good"], dim=9, seed=0)
        with pytest.raises(ShapeMismatchError, match="dimension"):
            load_checkpoint(io.StringIO(text), bad, model.sentiment_table)

    def test_table_hash_mismatch_rejected(self):
        model = self.build_model()
        text = self.save_text(model)
        other_src = io.StringIO()
        save_embedding_file(make_table(["x"], dim=4, seed=99), other_src)
        other = load_embedding_file(io.StringIO(other_src.getvalue()))
        with pytest.raises(CheckpointError, match="hash"):
            load_checkpoint(io.StringIO(text), other, model.sentiment_table)

    def test_load_without_tables_uses_empty_vocab(self):
        text = self.save_text(self.build_model())
        loaded = load_checkpoint(io.StringIO(text))
        assert len(loaded.semantic_table) == 0
        probs = probs_of(loaded, ["good"])
        assert np.all(np.isfinite(probs))

    def test_error_hierarchy(self):
        assert issubclass(UnknownVersionError, CheckpointError)
        assert issubclass(TruncatedCheckpointError, CheckpointError)
        assert issubclass(ShapeMismatchError, CheckpointError)
        assert not issubclass(UnknownVersionError, TruncatedCheckpointError)

    def test_container_round_trip(self):
        meta = {"kind": "demo", "note": "tab\tseparated ok"}
        tensors = {"m": np.array([[1.5, -2.25]]), "v": np.arange(3.0)}
        sink = io.StringIO()
        write_container(sink, meta, tensors)
        meta2, tensors2 = read_container(io.StringIO(sink.getvalue()))
        assert meta2 == meta
        np.testing.assert_allclose(tensors2["m"], [[1.5, -2.25]])
        np.testing.assert_allclose(tensors2["v"], [[0.0, 1.0, 2.0]])
