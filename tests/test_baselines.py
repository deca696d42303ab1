import io
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslstm.baselines import (
    FeatureVector,
    LinearSVMModel,
    NBModel,
    extract_features,
    feature_row,
    load_baseline,
    nb_predict,
    nb_scores,
    nb_train,
    save_baseline,
    svm_fit_vectors,
    svm_predict,
    svm_scores,
    svm_train,
)
from sslstm.dataio import Conversation
from sslstm.labels import LABELS, N_CLASSES
from sslstm.training import CheckpointError
from sslstm.text_norm import normalize_utterance


def conv(cid, text, label=None):
    return Conversation(str(cid), "", "", text, label)


def corpus(*pairs):
    return [conv(i, text, label) for i, (text, label) in enumerate(pairs)]


def enumerate_grams(tokens):
    out = []
    for order in (1, 2, 3):
        for i in range(len(tokens) - order + 1):
            out.append(" ".join(tokens[i : i + order]))
    return out


def nb_oracle_predict(token_corpus, doc_tokens, alpha=Fraction(1)):
    """Exact-rational posterior enumeration, computed from first principles."""
    vocab = set()
    gram_counts = {c: {} for c in LABELS}
    doc_counts = {c: 0 for c in LABELS}
    for tokens, label in token_corpus:
        doc_counts[label] += 1
        for gram in enumerate_grams(tokens):
            vocab.add(gram)
            gram_counts[label][gram] = gram_counts[label].get(gram, 0) + 1
    total_docs = sum(doc_counts.values())
    v = len(vocab)
    best_label, best_score = None, None
    for label in LABELS:
        if doc_counts[label] == 0:
            score = Fraction(0)
        else:
            score = Fraction(doc_counts[label], total_docs)
            class_total = sum(gram_counts[label].values())
            for gram in enumerate_grams(doc_tokens):
                if gram in vocab:
                    score *= (Fraction(gram_counts[label].get(gram, 0)) + alpha) / (
                        Fraction(class_total) + alpha * v
                    )
        if best_score is None or score > best_score:
            best_label, best_score = label, score
    return best_label


def sparse_rows(X):
    """``(cols, vals)`` rows of a dense matrix, zero entries left out."""
    return [(np.flatnonzero(x), x[np.flatnonzero(x)]) for x in np.asarray(X, dtype=np.float64)]


def fit_dense(X, y, **kwargs):
    X = np.asarray(X, dtype=np.float64)
    return svm_fit_vectors(sparse_rows(X), y, X.shape[1], **kwargs)


def dense_fit_reference(X, y, lambda_reg, epochs, seed):
    """The dense Pegasos loop: every step shrinks the whole weight matrix by
    (1 - eta*lambda) and moves the violating rows along +/- x."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, dim = X.shape
    weights = np.zeros((N_CLASSES, dim))
    bias = np.zeros(N_CLASSES)
    signs = np.where(np.arange(N_CLASSES)[:, None] == y[None, :], 1.0, -1.0)
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for idx in rng.permutation(n):
            t += 1
            eta = 1.0 / (lambda_reg * t)
            x = X[idx]
            cls_sign = signs[:, idx]
            margins = cls_sign * (weights @ x + bias)
            violating = margins < 1.0
            weights *= 1.0 - eta * lambda_reg
            if np.any(violating):
                weights[violating] += eta * np.outer(cls_sign[violating], x)
                bias[violating] += eta * cls_sign[violating]
    return weights, bias


class TestExtractFeatures:
    def test_empty(self):
        features = extract_features([])
        assert features.ngrams == {}
        np.testing.assert_array_equal(features.emoticons, [0, 0, 0])

    def test_emoticon_counts(self):
        features = extract_features([":)", ":)", ":'("])
        np.testing.assert_array_equal(features.emoticons, [2, 1, 0])

    def test_angry_and_neutral_emoticons(self):
        features = extract_features([">:(", ":|"])
        np.testing.assert_array_equal(features.emoticons, [0, 0, 1])
        assert ":|" in features.ngrams  # still an n-gram, just not a count

    def test_two_tokens(self):
        features = extract_features(["a", "b"])
        assert features.ngrams == {"a": 1, "b": 1, "a b": 1}

    def test_three_tokens_include_trigram(self):
        features = extract_features(["a", "b", "c"])
        assert features.ngrams == {
            "a": 1, "b": 1, "c": 1, "a b": 1, "b c": 1, "a b c": 1
        }

    def test_repeated_tokens_accumulate(self):
        features = extract_features(["x", "x", "x"])
        assert features.ngrams == {"x": 3, "x x": 2, "x x x": 1}

    def test_accepts_normalized_tokens(self):
        tokens = normalize_utterance("I won! :)")
        features = extract_features(tokens)
        assert features.ngrams["i won"] == 1
        np.testing.assert_array_equal(features.emoticons, [1, 0, 0])

    def test_permutation_moves_ngrams_not_emoticons(self):
        a = extract_features(["good", ":)", "day"])
        b = extract_features(["day", ":)", "good"])
        assert a.ngrams != b.ngrams
        np.testing.assert_array_equal(a.emoticons, b.emoticons)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FeatureVector(ngrams={"a": -1}, emoticons=[0, 0, 0])
        with pytest.raises(ValueError, match="non-negative"):
            FeatureVector(ngrams={}, emoticons=[0, -1, 0])


class TestNaiveBayes:
    def test_hand_posterior_two_classes(self):
        # happy likelihood of "good": (2+1)/(3+3); sad: (0+1)/(1+3).
        model = nb_train(corpus(("good good", "happy"), ("bad", "sad")), alpha=1.0)
        features = extract_features(["good"])
        scores = nb_scores(model, features)
        assert scores[0] == pytest.approx(np.log(0.5 * 0.5), abs=1e-12)
        assert scores[1] == pytest.approx(np.log(0.5 * 0.25), abs=1e-12)
        assert nb_predict(model, features) == "happy"

    def test_single_class_corpus(self):
        model = nb_train(corpus(("good day", "angry"), ("bad day", "angry")))
        for text in ("good", "bad", "whatever else"):
            assert nb_predict(model, extract_features(text.split())) == "angry"

    def test_unseen_tokens_fall_back_to_prior_tie(self):
        model = nb_train(corpus(("x", "happy"), ("y", "sad")))
        assert nb_predict(model, extract_features(["zz"])) == "happy"

    def test_identical_docs_tie_break(self):
        model = nb_train(corpus(("x", "happy"), ("x", "sad")))
        assert nb_predict(model, extract_features(["x"])) == "happy"

    def test_empty_features_follow_priors(self):
        model = nb_train(
            corpus(("a", "sad"), ("b", "sad"), ("c", "sad"), ("d", "happy"))
        )
        assert nb_predict(model, extract_features([])) == "sad"

    def test_matches_exact_posterior_oracle(self):
        rng = np.random.default_rng(41)
        alphabet = ["a", "b", "c"]
        for trial in range(120):
            n_docs = int(rng.integers(2, 7))
            token_corpus = []
            convs = []
            for d in range(n_docs):
                tokens = list(rng.choice(alphabet, size=int(rng.integers(1, 6))))
                label = LABELS[int(rng.integers(4))]
                token_corpus.append((tokens, label))
                convs.append(conv(d, " ".join(tokens), label))
            alpha = [Fraction(1), Fraction(2), Fraction(1, 2)][trial % 3]
            model = nb_train(convs, alpha=float(alpha))
            probes = [list(rng.choice(alphabet, size=int(rng.integers(0, 5)))) for _ in range(4)]
            probes.extend(tokens for tokens, _ in token_corpus[:2])
            for probe in probes:
                expected = nb_oracle_predict(token_corpus, probe, alpha)
                assert nb_predict(model, extract_features(probe)) == expected, (
                    trial, probe, token_corpus,
                )

    def test_stable_under_corpus_duplication(self):
        base = corpus(
            ("good good day", "happy"),
            ("sad bad news", "sad"),
            ("mad mad mad", "angry"),
            ("nothing much", "others"),
            ("good morning", "happy"),
        )
        doubled = base + [
            conv(100 + i, c.turn3, c.label) for i, c in enumerate(base)
        ]
        m1 = nb_train(base)
        m2 = nb_train(doubled)
        probes = ["good", "bad news", "mad", "nothing", "good day", "zzz"]
        for text in probes:
            features = extract_features(text.split())
            assert nb_predict(m1, features) == nb_predict(m2, features)

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            nb_train([])

    def test_bad_alpha(self):
        with pytest.raises(ValueError, match="smoothing"):
            nb_train(corpus(("x", "happy")), alpha=0.0)

    def test_unlabeled_rejected(self):
        with pytest.raises(ValueError, match="no label"):
            nb_train([conv(0, "hi")])

    def test_prior_invariant(self):
        with pytest.raises(ValueError, match="sum to 1"):
            NBModel(
                priors=[0.5, 0.5, 0.5, 0.5],
                vocab={},
                log_likelihood=np.zeros((4, 0)),
                alpha=1.0,
            )


class TestLinearSVM:
    def separable_corpus(self):
        pairs = []
        for label, word in (("happy", "good"), ("sad", "bad"), ("angry", "mad"), ("others", "meh")):
            for i in range(3):
                pairs.append((f"{word} {word} t{i}", label))
        return corpus(*pairs)

    def test_single_feature_sign_separation(self):
        X = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        y = np.array([0, 1, 0, 1])
        weights, bias = fit_dense(X, y, lambda_reg=0.01, epochs=60, seed=0)
        for x, target in zip(X, y):
            assert int(np.argmax(weights @ x + bias)) == target

    def test_separable_corpus_reaches_full_training_accuracy(self):
        data = self.separable_corpus()
        model = svm_train(data, lambda_reg=0.005, epochs=40, seed=1)
        for c in data:
            assert svm_predict(model, extract_features(c.tokens)) == c.label

    def test_deterministic_per_seed(self):
        data = self.separable_corpus()
        m1 = svm_train(data, epochs=10, seed=5)
        m2 = svm_train(data, epochs=10, seed=5)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.bias, m2.bias)

    def test_huge_regularization_collapses_weights(self):
        data = self.separable_corpus()
        model = svm_train(data, lambda_reg=1e6, epochs=10, seed=2)
        assert np.max(np.abs(model.weights)) < 1e-3
        fallback = int(np.argmax(model.bias))
        for text in ("good good", "bad", "zzz"):
            features = extract_features(text.split())
            assert svm_predict(model, features) == LABELS[fallback]

    def test_all_zero_model_ties_to_first_class(self):
        model = LinearSVMModel(
            vocab={}, weights=np.zeros((4, 3)), bias=np.zeros(4), lambda_reg=0.005
        )
        assert svm_predict(model, extract_features(["anything"])) == "happy"

    def test_hand_set_scores(self):
        model = LinearSVMModel(
            vocab={"f": 0},
            weights=np.array([[1.0, 0, 0, 0], [3.0, 0, 0, 0], [2.0, 0, 0, 0], [0.0, 0, 0, 0]]),
            bias=np.zeros(4),
            lambda_reg=0.005,
        )
        features = FeatureVector(ngrams={"f": 1}, emoticons=[0, 0, 0])
        np.testing.assert_allclose(svm_scores(model, features), [1, 3, 2, 0])
        assert svm_predict(model, features) == "sad"

    def test_shift_invariance_of_argmax(self):
        data = self.separable_corpus()
        model = svm_train(data, epochs=10, seed=3)
        shifted = LinearSVMModel(
            vocab=model.vocab,
            weights=model.weights.copy(),
            bias=model.bias + 123.0,
            lambda_reg=model.lambda_reg,
        )
        for c in data:
            features = extract_features(c.tokens)
            assert svm_predict(model, features) == svm_predict(shifted, features)

    def test_emoticon_dimensions_are_trailing(self):
        features = FeatureVector(ngrams={"a": 2, "zzz": 9}, emoticons=[1, 0, 3])
        cols, vals = feature_row(features, {"a": 0, "b": 1})
        assert cols.dtype == np.int64 and vals.dtype == np.float64
        np.testing.assert_array_equal(cols, [0, 2, 4])
        np.testing.assert_array_equal(vals, [2, 1, 3])

    def test_emoticons_can_separate_classes(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]] * 3)
        y = np.array([0, 1] * 3)
        weights, bias = fit_dense(X, y, lambda_reg=0.01, epochs=60, seed=0)
        assert int(np.argmax(weights @ np.array([1.0, 0.0]) + bias)) == 0
        assert int(np.argmax(weights @ np.array([0.0, 1.0]) + bias)) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 30),
        dim=st.integers(1, 12),
        epochs=st.integers(1, 4),
        lambda_reg=st.sampled_from([0.005, 0.1, 1e3]),
        classes=st.lists(st.integers(0, N_CLASSES - 1), min_size=1, max_size=N_CLASSES,
                         unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sparse_fit_matches_dense_reference(self, n, dim, epochs, lambda_reg, classes, seed):
        # Continuous values, about half of them zero, and some all-zero rows:
        # integer counts can put a margin exactly on the hinge at 1.0, where
        # the two summation orders may legitimately take different branches.
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2.0, 2.0, size=(n, dim)) * (rng.random((n, dim)) < 0.5)
        X[rng.random(n) < 0.2] = 0.0
        y = rng.choice(classes, size=n)
        rows = []
        for cols, vals in sparse_rows(X):
            order = rng.permutation(len(cols))  # the column order must not matter
            rows.append((cols[order], vals[order]))
        weights, bias = svm_fit_vectors(rows, y, dim, lambda_reg, epochs, seed)
        ref_weights, ref_bias = dense_fit_reference(X, y, lambda_reg, epochs, seed)
        np.testing.assert_allclose(weights, ref_weights, rtol=1e-12, atol=1e-13)
        np.testing.assert_array_equal(bias, ref_bias)

    def test_malformed_rows_rejected(self):
        y = np.array([0])
        bad_rows = {
            "repeats a column": (np.array([1, 1]), np.array([1.0, 2.0])),
            "out of range": (np.array([3]), np.array([1.0])),
        }
        for message, row in bad_rows.items():
            with pytest.raises(ValueError, match=message):
                svm_fit_vectors([row], y, 3, lambda_reg=0.1, epochs=1, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            svm_fit_vectors([(np.array([-1]), np.array([1.0]))], y, 3, 0.1, 1, 0)

    def test_training_memory_stays_sparse(self):
        # 2,000 utterances of 8 unique tokens give 42,000 n-grams: a dense
        # n x (V+3) float64 matrix would take 672 MB.
        data = [
            conv(i, " ".join(f"u{i}x{j}" for j in range(8)), LABELS[i % N_CLASSES])
            for i in range(2000)
        ]
        tracemalloc.start()
        try:
            model = svm_train(data, epochs=2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data) * (len(model.vocab) + 3) * 8 > 400e6
        assert peak < 50e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            svm_train([])
        with pytest.raises(ValueError, match="regularization"):
            svm_train(self.separable_corpus(), lambda_reg=0.0)
        with pytest.raises(ValueError, match="epochs"):
            svm_train(self.separable_corpus(), epochs=0)
        with pytest.raises(ValueError, match="finite"):
            LinearSVMModel(
                vocab={}, weights=np.full((4, 3), np.nan), bias=np.zeros(4), lambda_reg=0.005
            )


class TestBaselineCheckpoints:
    def test_nb_round_trip(self):
        model = nb_train(
            corpus(("good good day", "happy"), ("bad day", "sad"), ("meh", "others")),
            alpha=0.5,
        )
        sink = io.StringIO()
        save_baseline(model, sink)
        text = sink.getvalue()
        assert "meta model=nb" in text
        loaded = load_baseline(io.StringIO(text))
        assert isinstance(loaded, NBModel)
        assert loaded.alpha == 0.5
        assert loaded.vocab == model.vocab
        for probe in ("good", "bad day", "zzz", ""):
            features = extract_features(probe.split())
            assert nb_predict(loaded, features) == nb_predict(model, features)
            np.testing.assert_array_equal(nb_scores(loaded, features), nb_scores(model, features))

    def test_svm_round_trip(self):
        data = corpus(("good good", "happy"), ("bad bad", "sad"))
        model = svm_train(data, epochs=15, seed=4)
        sink = io.StringIO()
        save_baseline(model, sink)
        text = sink.getvalue()
        assert "meta model=svm" in text
        loaded = load_baseline(io.StringIO(text))
        assert isinstance(loaded, LinearSVMModel)
        assert loaded.vocab == model.vocab
        assert loaded.lambda_reg == model.lambda_reg
        for probe in ("good", "bad", "good bad"):
            features = extract_features(probe.split())
            np.testing.assert_array_equal(
                svm_scores(loaded, features), svm_scores(model, features)
            )

    @settings(max_examples=40, deadline=None)
    @given(
        docs=st.lists(
            st.tuples(
                st.lists(st.sampled_from(["good", "bad", "day", "meh", ":)", ":(", ">:(", "@x"]),
                         min_size=1, max_size=6),
                st.sampled_from(LABELS),
            ),
            min_size=1,
            max_size=8,
        ),
        kind=st.sampled_from(["nb", "svm"]),
        alpha=st.sampled_from([0.1, 0.5, 1.0, 3.0]),
        lambda_reg=st.sampled_from([0.005, 0.1, 7.0]),
        seed=st.integers(0, 2**16),
    )
    def test_save_load_save_is_exact(self, docs, kind, alpha, lambda_reg, seed):
        data = corpus(*[(" ".join(tokens), label) for tokens, label in docs])
        if kind == "nb":
            model = nb_train(data, alpha=alpha)
            fields = ("priors", "log_likelihood", "alpha")
        else:
            model = svm_train(data, lambda_reg=lambda_reg, epochs=2, seed=seed)
            fields = ("weights", "bias", "lambda_reg")
        first = io.StringIO()
        save_baseline(model, first)
        loaded = load_baseline(io.StringIO(first.getvalue()))
        assert type(loaded) is type(model)
        assert loaded.vocab == model.vocab
        for name in fields:
            np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))
        second = io.StringIO()
        save_baseline(loaded, second)
        assert second.getvalue() == first.getvalue()

    def test_multiword_grams_survive(self):
        model = nb_train(corpus(("one two three", "happy"), ("four", "sad")))
        sink = io.StringIO()
        save_baseline(model, sink)
        loaded = load_baseline(io.StringIO(sink.getvalue()))
        assert "one two three" in loaded.vocab

    def test_empty_vocab_round_trip(self):
        model = nb_train([conv(0, "@user", "happy"), conv(1, "@x", "sad")])
        assert model.vocab == {}
        sink = io.StringIO()
        save_baseline(model, sink)
        loaded = load_baseline(io.StringIO(sink.getvalue()))
        assert loaded.vocab == {}
        assert nb_predict(loaded, extract_features(["any"])) == "happy"

    def test_wrong_model_kind_rejected(self):
        with pytest.raises(CheckpointError, match="not a baseline"):
            load_baseline(io.StringIO("SSLSTM-CKPT 1\nmeta model=sslstm\nend\n"))

    def test_save_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="not a baseline model"):
            save_baseline(object(), io.StringIO())
