import hashlib
import io
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LEX
from sslstm.baselines import (
    DesignMatrix,
    LinearSVMModel,
    NBModel,
    baseline_predict,
    baseline_scores,
    design_matrix,
    nb_train,
    svm_fit_vectors,
    svm_train,
)
from sslstm.dataio import Conversation
from sslstm.labels import LABELS, N_CLASSES
from sslstm.training import CheckpointError, load_model, save_checkpoint
from sslstm.text_norm import default_lexicon, emoticon_class, normalize_utterance


def conv(cid, text, label=None):
    return Conversation(str(cid), "", "", text, label, lex=LEX)


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


def read_baseline(source):
    """The NB or SVM model in a model file."""
    return load_model(source, LEX, tables=None)


def predict(model, tokens):
    return baseline_predict(model, [tokens], LEX)[0]


def scores(model, tokens):
    return baseline_scores(model, design_matrix([tokens], LEX, vocab=model.vocab)[0])[0]


def features(tokens):
    """The one row of ``tokens`` as ({gram: count}, [happy, sad, angry])."""
    matrix, vocab = design_matrix([tokens], LEX)
    names = [*vocab, "<happy>", "<sad>", "<angry>"]
    row = {names[col]: int(val) for col, val in zip(matrix.cols, matrix.vals)}
    return {g: row[g] for g in vocab}, [row.get(name, 0) for name in names[-3:]]


def sparse_rows(X):
    """``(cols, vals)`` rows of a dense matrix, zero entries left out."""
    return [(np.flatnonzero(x), x[np.flatnonzero(x)]) for x in np.asarray(X, dtype=np.float64)]


def matrix_of(rows, width):
    """The :class:`DesignMatrix` of ``(cols, vals)`` rows."""
    return DesignMatrix(
        np.cumsum([0] + [len(cols) for cols, _ in rows]),
        np.concatenate([np.asarray(cols, dtype=np.int64) for cols, _ in rows]),
        np.concatenate([np.asarray(vals, dtype=np.float64) for _, vals in rows]),
        width,
    )


def fit_dense(X, y, **kwargs):
    X = np.asarray(X, dtype=np.float64)
    return svm_fit_vectors(matrix_of(sparse_rows(X), X.shape[1]), y, **kwargs)


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


def numpy_margins_fit(matrix, y, lambda_reg, epochs, seed, on_hinge=None):
    """The loop of :func:`svm_fit_vectors` as it was when it computed the
    margins in numpy, kept as its bit-for-bit reference (input checks left
    out).  ``on_hinge``, if given, collects the number of margins of each
    step that are exactly 1.0."""
    y = np.asarray(y, dtype=np.int64)
    indptr, cols, vals, dim = matrix
    row_cols, row_vals, row_moves = (np.split(a, indptr[1:-1]) for a in (cols, vals, vals / lambda_reg))
    u = np.zeros((N_CLASSES, dim))
    bias = np.zeros(N_CLASSES)
    signs = np.where(y[:, None] == np.arange(N_CLASSES)[None, :], 1.0, -1.0)  # (n, 4)
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for idx in rng.permutation(len(indptr) - 1):
            t += 1
            eta = 1.0 / (lambda_reg * t)
            c, sign = row_cols[idx], signs[idx]
            # w_{t-1} = u/(t-1); u is still zero at t = 1, where w_0 = 0.
            margins = sign * (u[:, c] @ row_vals[idx] / max(t - 1, 1) + bias)
            if on_hinge is not None:
                on_hinge.append(int(np.sum(margins == 1.0)))
            violating = margins < 1.0
            if violating.any():
                u[np.flatnonzero(violating)[:, None], c] += sign[violating][:, None] * row_moves[idx]
                bias[violating] += eta * sign[violating]
    return u / max(t, 1), bias


@st.composite
def sparse_problems(draw):
    """A :class:`DesignMatrix` (rows of integer counts or of arbitrary
    floats, some empty), its targets, and the remaining fit arguments."""
    n, dim = draw(st.integers(1, 30)), draw(st.integers(1, 40))
    value = (st.integers(1, 3).map(float) if draw(st.booleans())
             else st.floats(-4.0, 4.0, allow_nan=False))
    rows = []
    for _ in range(n):
        cols = draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim))
        rows.append((cols, [draw(value) for _ in cols]))
    y = draw(st.lists(st.integers(0, N_CLASSES - 1), min_size=n, max_size=n))
    return (matrix_of(rows, dim), np.array(y), draw(st.sampled_from([0.25, 0.5, 1.0, 0.005, 0.1])),
            draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1)))


def assert_same_bits(fit, reference):
    for got, want in zip(fit, reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# The per-utterance code that the design matrix replaced, kept as the
# reference: a gram -> count dict and an emoticon 3-vector per utterance, NB
# counts and scores walked one gram at a time, SVM rows built gram by gram.


def reference_features(tokens):
    lex = default_lexicon()
    texts = list(tokens)
    ngrams = {}
    for order in (1, 2, 3):
        for start in range(len(texts) - order + 1):
            gram = " ".join(texts[start : start + order])
            ngrams[gram] = ngrams.get(gram, 0) + 1
    emoticons = np.zeros(3, dtype=np.int64)
    for text in texts:
        slot = {"happy": 0, "sad": 1, "angry": 2}.get(emoticon_class(text, lex) or "")
        if slot is not None:
            emoticons[slot] += 1
    return ngrams, emoticons


def reference_row(tokens, vocab):
    ngrams, emoticons = reference_features(tokens)
    cols, vals = [], []
    for gram, count in ngrams.items():
        col = vocab.get(gram)
        if col is not None:
            cols.append(col)
            vals.append(count)
    for slot in np.flatnonzero(emoticons):
        cols.append(len(vocab) + int(slot))
        vals.append(emoticons[slot])
    return np.array(cols, dtype=np.int64), np.array(vals, dtype=np.float64)


def reference_nb_table(token_lists, targets, alpha):
    """(vocab, log_likelihood) by the per-gram loop."""
    per_doc = [reference_features(tokens)[0] for tokens in token_lists]
    vocab = {}
    for ngrams in per_doc:
        for gram in ngrams:
            vocab.setdefault(gram, len(vocab))
    counts = np.zeros((N_CLASSES, len(vocab)))
    for ngrams, target in zip(per_doc, targets):
        for gram, count in ngrams.items():
            counts[target, vocab[gram]] += count
    totals = counts.sum(axis=1, keepdims=True)
    return vocab, np.log((counts + alpha) / (totals + alpha * max(len(vocab), 1)))


def reference_nb_scores(model, tokens):
    scores = model.log_priors.copy()
    for gram, count in reference_features(tokens)[0].items():
        col = model.vocab.get(gram)
        if col is not None:
            scores += count * model.log_likelihood[:, col]
    return scores


def reference_svm_scores(model, tokens):
    cols, vals = reference_row(tokens, model.vocab)
    return model.weights[:, cols] @ vals + model.bias


PROPERTY_TOKENS = ["good", "bad", "day", "so", "not", ":)", ":(", ">:(", ":|", "!", "@user"]


class TestOneScorer:
    @settings(max_examples=60, deadline=None)
    @given(
        docs=st.lists(
            st.tuples(st.lists(st.sampled_from(PROPERTY_TOKENS), min_size=1, max_size=10),
                      st.sampled_from(LABELS)),
            min_size=1,
            max_size=10,
        ),
        probes=st.lists(st.lists(st.sampled_from(PROPERTY_TOKENS + ["unseen", ":D"]),
                                 max_size=12), max_size=8),
        alpha=st.sampled_from([0.1, 0.5, 1.0, 3.0]),
        lambda_reg=st.sampled_from([0.005, 0.1, 7.0]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_per_utterance_reference(self, docs, probes, alpha, lambda_reg, seed):
        data = corpus(*[(" ".join(tokens), label) for tokens, label in docs])
        token_lists = [c.tokens for c in data]
        nb = nb_train(data, LEX, alpha=alpha)
        vocab, log_likelihood = reference_nb_table(
            token_lists, [LABELS.index(c.label) for c in data], alpha
        )
        assert list(nb.vocab.items()) == list(vocab.items())
        np.testing.assert_array_equal(nb.log_likelihood, log_likelihood)

        svm = svm_train(data, LEX, lambda_reg=lambda_reg, epochs=2, seed=seed)
        rows = token_lists + probes
        matrix, _ = design_matrix(rows, LEX, vocab=nb.vocab)
        for i, tokens in enumerate(rows):
            cols, vals = reference_row(tokens, nb.vocab)
            row = slice(matrix.indptr[i], matrix.indptr[i + 1])
            np.testing.assert_array_equal(matrix.cols[row], cols)
            np.testing.assert_array_equal(matrix.vals[row], vals)
        # Entries add up in each row's order, as the per-gram loop added them.
        np.testing.assert_array_equal(
            baseline_scores(nb, matrix), [reference_nb_scores(nb, t) for t in rows]
        )
        np.testing.assert_allclose(
            baseline_scores(svm, matrix), [reference_svm_scores(svm, t) for t in rows],
            rtol=1e-12, atol=1e-12,
        )

    def test_rejects_a_matrix_of_another_width(self):
        model = nb_train(corpus(("a b", "happy")), LEX)
        matrix, _ = design_matrix([["a"]], LEX)
        with pytest.raises(ValueError, match="feature space"):
            baseline_scores(model, matrix)


WORDS = ["good", "bad", "day", "mad", "meh", "so", "not", "very", "happy", "ugh",
         ":)", ":(", ">:(", ":'(", ":|", "!", "?", "@user", "#win", ":D"]


def pinned_corpus():
    """64 fixed conversations with repeated grams, emoticons and every class."""
    convs = []
    for i in range(64):
        tokens = [WORDS[(5 * i + 3 * j * j + j) % len(WORDS)] for j in range(1 + i % 9)]
        tokens.insert(i % 3, WORDS[i % 4])
        convs.append(Conversation(f"p{i}", "", "", " ".join(tokens), LABELS[i % 4], lex=LEX))
    return convs


def file_sha256(model):
    """Hash of the model file without its lexicon line, which must name LEX."""
    sink = io.StringIO()
    save_checkpoint(model, None, sink, LEX)
    line = f"meta lexicon_sha256={LEX.sha256}\n"
    assert sink.getvalue().count(line) == 1
    return hashlib.sha256(sink.getvalue().replace(line, "").encode("utf-8")).hexdigest()


class TestPinnedModelFiles:
    """Model files written before the design matrix, byte for byte, but for
    the lexicon hash line added since."""

    def test_nb(self):
        model = nb_train(pinned_corpus(), LEX, alpha=0.5)
        assert len(model.vocab) == 108
        assert file_sha256(model) == (
            "d837477ba2f15e98d84a106eff36ec375edfb373893ad3699a13b5f63cfd32ea"
        )

    def test_svm(self):
        model = svm_train(pinned_corpus(), LEX, lambda_reg=0.01, epochs=7, seed=11)
        assert file_sha256(model) == (
            "4fd64ca60babf64e008b67a798739d7532d4883ecb753eb38e4d1ed1c333d219"
        )


class TestExtractFeatures:
    """The features of one utterance: a row of :func:`design_matrix`."""

    def test_empty(self):
        ngrams, emoticons = features([])
        assert ngrams == {}
        assert emoticons == [0, 0, 0]

    def test_emoticon_counts(self):
        _, emoticons = features([":)", ":)", ":'("])
        assert emoticons == [2, 1, 0]

    def test_angry_and_neutral_emoticons(self):
        ngrams, emoticons = features([">:(", ":|"])
        assert emoticons == [0, 0, 1]
        assert ":|" in ngrams  # still an n-gram, just not a count

    def test_two_tokens(self):
        ngrams, _ = features(["a", "b"])
        assert ngrams == {"a": 1, "b": 1, "a b": 1}

    def test_three_tokens_include_trigram(self):
        ngrams, _ = features(["a", "b", "c"])
        assert ngrams == {
            "a": 1, "b": 1, "c": 1, "a b": 1, "b c": 1, "a b c": 1
        }

    def test_repeated_tokens_accumulate(self):
        ngrams, _ = features(["x", "x", "x"])
        assert ngrams == {"x": 3, "x x": 2, "x x x": 1}

    def test_accepts_normalized_tokens(self):
        ngrams, emoticons = features(normalize_utterance("I won! :)", LEX))
        assert ngrams["i won"] == 1
        assert emoticons == [1, 0, 0]

    def test_permutation_moves_ngrams_not_emoticons(self):
        a = features(["good", ":)", "day"])
        b = features(["day", ":)", "good"])
        assert a[0] != b[0]
        assert a[1] == b[1]


class TestDesignMatrix:
    def test_rows_vocabulary_and_trailing_emoticon_columns(self):
        matrix, vocab = design_matrix([["b", "a", "b"], [":)"], [], ["a", ":(", ":)"]], LEX)
        assert list(vocab) == ["b", "a", "b a", "a b", "b a b", ":)", ":(", "a :(", ":( :)",
                               "a :( :)"]
        assert matrix.width == len(vocab) + 3
        np.testing.assert_array_equal(matrix.indptr, [0, 5, 7, 7, 15])
        # Grams in order of first appearance, unigrams first, then the
        # happy/sad/angry counts in the columns after the n-grams.
        np.testing.assert_array_equal(matrix.cols, [0, 1, 2, 3, 4, 5, 10, 1, 6, 5, 7, 8, 9, 10, 11])
        np.testing.assert_array_equal(matrix.vals, [2] + [1] * 14)
        assert matrix.cols.dtype == np.int64 and matrix.vals.dtype == np.float64

    def test_given_vocabulary_drops_unknown_grams_and_stays_unchanged(self):
        vocab = {"a": 0, "b": 1}
        matrix, same = design_matrix([["a", "zzz", ":)"], ["b", "b"]], LEX, vocab=vocab)
        assert same is vocab and vocab == {"a": 0, "b": 1}
        np.testing.assert_array_equal(matrix.indptr, [0, 2, 3])
        np.testing.assert_array_equal(matrix.cols, [0, 2, 1])
        np.testing.assert_array_equal(matrix.vals, [1, 1, 2])
        assert matrix.width == 5

    def test_no_rows(self):
        matrix, vocab = design_matrix([], LEX)
        assert vocab == {} and matrix.width == 3
        np.testing.assert_array_equal(matrix.indptr, [0])
        model = nb_train(corpus(("x", "sad")), LEX)
        assert baseline_scores(model, design_matrix([], LEX, vocab=model.vocab)[0]).shape == (0, 4)
        assert baseline_predict(model, [], LEX) == []

    def test_counts_are_positive(self):
        matrix, vocab = design_matrix([["x", "x", ":)", ":)", ">:("], ["y"]], LEX)
        assert np.all(matrix.vals > 0)
        # The first row ends with its happy and angry counts, after all 11 grams.
        assert len(vocab) == 11
        np.testing.assert_array_equal(matrix.cols[10:12], [11, 13])
        np.testing.assert_array_equal(matrix.vals[10:12], [2, 1])


class TestNaiveBayes:
    def test_hand_posterior_two_classes(self):
        # happy likelihood of "good": (2+1)/(3+3); sad: (0+1)/(1+3).
        model = nb_train(corpus(("good good", "happy"), ("bad", "sad")), LEX, alpha=1.0)
        got = scores(model, ["good"])
        assert got[0] == pytest.approx(np.log(0.5 * 0.5), abs=1e-12)
        assert got[1] == pytest.approx(np.log(0.5 * 0.25), abs=1e-12)
        assert predict(model, ["good"]) == "happy"

    def test_single_class_corpus(self):
        model = nb_train(corpus(("good day", "angry"), ("bad day", "angry")), LEX)
        for text in ("good", "bad", "whatever else"):
            assert predict(model, text.split()) == "angry"

    def test_unseen_tokens_fall_back_to_prior_tie(self):
        model = nb_train(corpus(("x", "happy"), ("y", "sad")), LEX)
        assert predict(model, ["zz"]) == "happy"

    def test_identical_docs_tie_break(self):
        model = nb_train(corpus(("x", "happy"), ("x", "sad")), LEX)
        assert predict(model, ["x"]) == "happy"

    def test_empty_features_follow_priors(self):
        model = nb_train(
            corpus(("a", "sad"), ("b", "sad"), ("c", "sad"), ("d", "happy")), LEX
        )
        assert predict(model, []) == "sad"

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
            model = nb_train(convs, LEX, alpha=float(alpha))
            probes = [list(rng.choice(alphabet, size=int(rng.integers(0, 5)))) for _ in range(4)]
            probes.extend(tokens for tokens, _ in token_corpus[:2])
            for probe in probes:
                expected = nb_oracle_predict(token_corpus, probe, alpha)
                assert predict(model, probe) == expected, (
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
        m1 = nb_train(base, LEX)
        m2 = nb_train(doubled, LEX)
        probes = ["good", "bad news", "mad", "nothing", "good day", "zzz"]
        probes = [text.split() for text in probes]
        assert baseline_predict(m1, probes, LEX) == baseline_predict(m2, probes, LEX)

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            nb_train([], LEX)

    def test_bad_alpha(self):
        for alpha in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="smoothing constant must be finite and positive"):
                nb_train(corpus(("x", "happy")), LEX, alpha=alpha)
            with pytest.raises(ValueError, match="smoothing"):
                NBModel(priors=[1, 0, 0, 0], vocab={}, log_likelihood=np.zeros((4, 0)),
                        alpha=alpha)

    def test_unlabeled_rejected(self):
        with pytest.raises(ValueError, match="no label"):
            nb_train([conv(0, "hi")], LEX)

    def test_prior_invariant(self):
        with pytest.raises(ValueError, match="sum to 1"):
            NBModel(
                priors=[0.5, 0.5, 0.5, 0.5],
                vocab={},
                log_likelihood=np.zeros((4, 0)),
                alpha=1.0,
            )

    @pytest.mark.parametrize("priors", [[-0.5, 1.5, 0, 0], [np.nan, 1, 0, 0], [np.inf, 0, 0, 0]])
    def test_priors_must_be_finite_and_non_negative(self, priors):
        with pytest.raises(ValueError, match="finite and non-negative"):
            NBModel(priors=priors, vocab={}, log_likelihood=np.zeros((4, 0)), alpha=1.0)


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
        model = svm_train(data, LEX, lambda_reg=0.005, epochs=40, seed=1)
        assert baseline_predict(model, [c.tokens for c in data], LEX) == [c.label for c in data]

    def test_deterministic_per_seed(self):
        data = self.separable_corpus()
        m1 = svm_train(data, LEX, epochs=10, seed=5)
        m2 = svm_train(data, LEX, epochs=10, seed=5)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.bias, m2.bias)

    def test_huge_regularization_collapses_weights(self):
        data = self.separable_corpus()
        model = svm_train(data, LEX, lambda_reg=1e6, epochs=10, seed=2)
        assert np.max(np.abs(model.weights)) < 1e-3
        fallback = int(np.argmax(model.bias))
        probes = [text.split() for text in ("good good", "bad", "zzz")]
        assert baseline_predict(model, probes, LEX) == [LABELS[fallback]] * 3

    def test_all_zero_model_ties_to_first_class(self):
        model = LinearSVMModel(
            vocab={}, weights=np.zeros((4, 3)), bias=np.zeros(4), lambda_reg=0.005
        )
        assert predict(model, ["anything"]) == "happy"

    def test_hand_set_scores(self):
        model = LinearSVMModel(
            vocab={"f": 0},
            weights=np.array([[1.0, 0, 0, 0], [3.0, 0, 0, 0], [2.0, 0, 0, 0], [0.0, 0, 0, 0]]),
            bias=np.zeros(4),
            lambda_reg=0.005,
        )
        np.testing.assert_allclose(scores(model, ["f"]), [1, 3, 2, 0])
        assert predict(model, ["f"]) == "sad"

    def test_shift_invariance_of_argmax(self):
        data = self.separable_corpus()
        model = svm_train(data, LEX, epochs=10, seed=3)
        shifted = LinearSVMModel(
            vocab=model.vocab,
            weights=model.weights.copy(),
            bias=model.bias + 123.0,
            lambda_reg=model.lambda_reg,
        )
        token_lists = [c.tokens for c in data]
        assert (baseline_predict(model, token_lists, LEX)
                == baseline_predict(shifted, token_lists, LEX))

    def test_emoticon_dimensions_are_trailing(self):
        tokens = ["a", ":)", "zzz", ">:(", "a", ">:(", ">:("]
        matrix, _ = design_matrix([tokens], LEX, vocab={"a": 0, "b": 1})
        assert matrix.cols.dtype == np.int64 and matrix.vals.dtype == np.float64
        np.testing.assert_array_equal(matrix.cols, [0, 2, 4])
        np.testing.assert_array_equal(matrix.vals, [2, 1, 3])

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
        weights, bias = svm_fit_vectors(matrix_of(rows, dim), y, lambda_reg, epochs, seed)
        ref_weights, ref_bias = dense_fit_reference(X, y, lambda_reg, epochs, seed)
        np.testing.assert_allclose(weights, ref_weights, rtol=1e-12, atol=1e-13)
        np.testing.assert_array_equal(bias, ref_bias)

    @settings(max_examples=300, deadline=None)
    @given(sparse_problems())
    def test_fit_is_bit_identical_to_numpy_margins(self, problem):
        assert_same_bits(svm_fit_vectors(*problem), numpy_margins_fit(*problem))

    def test_a_step_where_all_four_classes_violate(self):
        # Lambda 2 keeps every bias below 1 in size after the first step
        # (eta 1/2), so the second example, on a column the first did not
        # touch, has margins of +/-1/2 and violates in all four classes:
        # every bias moves again, by 1/4, classes 2 and 3 to -3/4.
        problem = (matrix_of([([0, 2], [1.0, 3.0]), ([1], [2.0])], 3), np.array([0, 1]), 2.0, 1, 7)
        reference = numpy_margins_fit(*problem)
        assert sorted(np.abs(reference[1]).tolist()) == [0.25, 0.25, 0.75, 0.75]
        assert_same_bits(svm_fit_vectors(*problem), reference)
        longer = problem[:3] + (6, 7)
        assert_same_bits(svm_fit_vectors(*longer), numpy_margins_fit(*longer))

    def test_steps_where_no_class_violates(self):
        # One example of class 2 and lambda 1/2: the first step moves all four
        # classes (every margin is 0); after it each margin is
        # 20 / (t - 1) + 2 > 1, so nothing moves and the biases keep their
        # first-step values of +/-1/lambda.
        problem = (matrix_of([([0, 2], [1.0, 3.0])], 3), np.array([2]), 0.5, 5, 0)
        reference = numpy_margins_fit(*problem)
        assert reference[1].tolist() == [-2.0, -2.0, 2.0, -2.0]
        assert_same_bits(svm_fit_vectors(*problem), reference)

    def test_margins_exactly_on_the_hinge_take_the_same_branch(self):
        # Integer counts and lambda 1/2 put two margins exactly on 1.0, where
        # any other rounding of the margin would flip the update.
        problem = (matrix_of([([0], [2.0]), ([0], [1.0])], 1), np.array([1, 0]), 0.5, 3, 30)
        on_hinge = []
        reference = numpy_margins_fit(*problem, on_hinge=on_hinge)
        assert sum(on_hinge) == 2
        assert_same_bits(svm_fit_vectors(*problem), reference)

    def test_malformed_rows_rejected(self):
        y = np.array([0, 1])
        bad_rows = {
            "repeats a column": ([0, 2], [1, 1]),
            "out of range": ([3], [2]),
        }
        for message, (cols, other) in bad_rows.items():
            matrix = matrix_of([(cols, np.ones(len(cols))), (other, np.ones(len(other)))], 3)
            with pytest.raises(ValueError, match=message):
                svm_fit_vectors(matrix, y, lambda_reg=0.1, epochs=1, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            svm_fit_vectors(matrix_of([([-1], [1.0]), ([0], [1.0])], 3), y, 0.1, 1, 0)
        # The same column in two different rows is fine.
        svm_fit_vectors(matrix_of([([1], [1.0]), ([1], [2.0])], 3), y, 0.1, 1, 0)

    def test_training_memory_stays_sparse(self):
        # 2,000 utterances of 8 unique tokens give 42,000 n-grams: a dense
        # n x (V+3) float64 matrix would take 672 MB.
        data = [
            conv(i, " ".join(f"u{i}x{j}" for j in range(8)), LABELS[i % N_CLASSES])
            for i in range(2000)
        ]
        tracemalloc.start()
        try:
            model = svm_train(data, LEX, epochs=2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data) * (len(model.vocab) + 3) * 8 > 400e6
        assert peak < 50e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            svm_train([], LEX)
        for lambda_reg in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="regularization constant must be finite"):
                svm_train(self.separable_corpus(), LEX, lambda_reg=lambda_reg)
            with pytest.raises(ValueError, match="regularization"):
                LinearSVMModel(vocab={}, weights=np.zeros((4, 3)), bias=np.zeros(4),
                               lambda_reg=lambda_reg)
        with pytest.raises(ValueError, match="epochs"):
            svm_train(self.separable_corpus(), LEX, epochs=0)
        with pytest.raises(ValueError, match="finite"):
            LinearSVMModel(
                vocab={}, weights=np.full((4, 3), np.nan), bias=np.zeros(4), lambda_reg=0.005
            )


class TestBaselineCheckpoints:
    def test_nb_round_trip(self):
        model = nb_train(
            corpus(("good good day", "happy"), ("bad day", "sad"), ("meh", "others")), LEX,
            alpha=0.5,
        )
        sink = io.StringIO()
        save_checkpoint(model, None, sink, LEX)
        text = sink.getvalue()
        assert "meta model=nb" in text
        loaded = read_baseline(io.StringIO(text))
        assert isinstance(loaded, NBModel)
        assert loaded.alpha == 0.5
        assert loaded.vocab == model.vocab
        probes = [probe.split() for probe in ("good", "bad day", "zzz", "")]
        assert baseline_predict(loaded, probes, LEX) == baseline_predict(model, probes, LEX)
        matrix, _ = design_matrix(probes, LEX, vocab=model.vocab)
        np.testing.assert_array_equal(
            baseline_scores(loaded, matrix), baseline_scores(model, matrix)
        )

    def test_svm_round_trip(self):
        data = corpus(("good good", "happy"), ("bad bad", "sad"))
        model = svm_train(data, LEX, epochs=15, seed=4)
        sink = io.StringIO()
        save_checkpoint(model, None, sink, LEX)
        text = sink.getvalue()
        assert "meta model=svm" in text
        loaded = read_baseline(io.StringIO(text))
        assert isinstance(loaded, LinearSVMModel)
        assert loaded.vocab == model.vocab
        assert loaded.lambda_reg == model.lambda_reg
        matrix, _ = design_matrix([["good"], ["bad"], ["good", "bad"]], LEX, vocab=model.vocab)
        np.testing.assert_array_equal(
            baseline_scores(loaded, matrix), baseline_scores(model, matrix)
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
            model = nb_train(data, LEX, alpha=alpha)
            fields = ("priors", "log_likelihood", "alpha")
        else:
            model = svm_train(data, LEX, lambda_reg=lambda_reg, epochs=2, seed=seed)
            fields = ("weights", "bias", "lambda_reg")
        first = io.StringIO()
        save_checkpoint(model, None, first, LEX)
        loaded = read_baseline(io.StringIO(first.getvalue()))
        assert type(loaded) is type(model)
        assert loaded.vocab == model.vocab
        for name in fields:
            np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))
        second = io.StringIO()
        save_checkpoint(loaded, None, second, LEX)
        assert second.getvalue() == first.getvalue()

    def test_multiword_grams_survive(self):
        model = nb_train(corpus(("one two three", "happy"), ("four", "sad")), LEX)
        sink = io.StringIO()
        save_checkpoint(model, None, sink, LEX)
        loaded = read_baseline(io.StringIO(sink.getvalue()))
        assert "one two three" in loaded.vocab

    def test_empty_vocab_round_trip(self):
        model = nb_train([conv(0, "@user", "happy"), conv(1, "@x", "sad")], LEX)
        assert model.vocab == {}
        sink = io.StringIO()
        save_checkpoint(model, None, sink, LEX)
        loaded = read_baseline(io.StringIO(sink.getvalue()))
        assert loaded.vocab == {}
        assert predict(loaded, ["any"]) == "happy"

    @pytest.mark.parametrize(("alpha", "priors", "message"), [
        ("1.0", "-0.5 1.5 0 0", "non-negative"),
        ("1.0", "nan 0.5 0.5 0", "non-finite"),
        ("1.0", "inf 0 0 0", "non-finite"),
        ("nan", "0.5 0.5 0 0", "smoothing"),
        ("inf", "0.5 0.5 0 0", "smoothing"),
        ("0", "0.5 0.5 0 0", "smoothing"),
    ])
    def test_nb_file_with_bad_priors_or_alpha_rejected(self, alpha, priors, message):
        text = (f"SSLSTM-CKPT 1\nmeta model=nb\nmeta alpha={alpha}\nmeta vocab=\n"
                f"tensor priors 1 4\n{priors}\nend\n")
        with pytest.raises(CheckpointError, match=message):
            read_baseline(io.StringIO(text))

    def test_svm_file_with_bad_lambda_rejected(self):
        text = ("SSLSTM-CKPT 1\nmeta model=svm\nmeta lambda=nan\nmeta vocab=\n"
                "tensor weights 4 3\n" + "0 0 0\n" * 4 + "tensor bias 1 4\n0 0 0 0\nend\n")
        with pytest.raises(CheckpointError, match="regularization"):
            read_baseline(io.StringIO(text))
        assert read_baseline(io.StringIO(text.replace("nan", "0.5"))).lambda_reg == 0.5

    def test_wrong_model_kind_rejected(self):
        with pytest.raises(CheckpointError, match="no model of a known kind"):
            read_baseline(io.StringIO("SSLSTM-CKPT 1\nmeta model=crf\nend\n"))

    def test_save_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="not a model: object"):
            save_checkpoint(object(), None, io.StringIO(), LEX)
