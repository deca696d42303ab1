"""Acceptance gate: one test per release criterion.

Each test prints a single ``[acceptance] <criterion>: PASS``/``FAIL`` line
(visible under ``pytest -s`` or in captured output) in addition to the
usual pytest verdict, so the gate can be read at a glance.  The criteria:

1. metric arithmetic reproduces hand-checked F1 / macro-F1 / distribution
   values to the printed precision;
2. backprop matches central finite differences on 21 seeded model/input
   triples (max relative error < 1e-4);
3. the classifier overfits a 50-example separable dataset at learning
   rate 0.005 within 500 epochs under all three channel configurations;
4. a task needing one signal per embedding channel is solved (>= 90%
   validation accuracy) only when both channels are active, across 3
   seeds, while single channels stay at chance (<= 80%);
5. the normalization worked example and a 1,000-case idempotence fuzz;
6. McNemar and Fleiss'-kappa values match hand computation;
7. the naive-Bayes baseline matches exact-arithmetic posterior
   enumeration and the linear SVM separates a separable corpus;
8. similarity mining and negative sampling match brute-force cosine
   scans, and pruning flags the opposite-emoticon fixture;
9. checkpoints, dataset files, and training histories round-trip.
"""

import io
import random
import string
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from conftest import LEX
from sslstm.baselines import baseline_predict, nb_train, svm_train
from sslstm.dataio import Conversation, read_dataset, write_dataset
from sslstm.datamine import MiningConfig, mine_candidates, prune_heuristics, sample_negatives
from sslstm.datamine import Candidate
from sslstm.embeddings import EmbeddingTable
from sslstm.labels import LABELS
from sslstm.metrics import dataset_stats, f1_score, fleiss_kappa, mcnemar
from sslstm.neural import ModelConfig, batch_forward, batch_predict, init_model
from sslstm.text_norm import normalize_utterance, serialize_tokens, surfaces
from sslstm.training import TrainConfig, gradient_check, load_checkpoint, save_checkpoint, train


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {name}: FAIL")
        raise
    print(f"\n[acceptance] {name}: PASS")


# ---------------------------------------------------------------------------
# shared builders

KEYWORD = {"happy": "alpha", "sad": "beta", "angry": "gamma", "others": "delta"}


def keyword_tables(scale=5.0, dim=4):
    eye = np.eye(dim) * scale
    vectors = {KEYWORD[label]: eye[i].copy() for i, label in enumerate(LABELS)}
    sem = EmbeddingTable(dim=dim, vectors=dict(vectors))
    sent = EmbeddingTable(dim=dim, vectors={k: v.copy() for k, v in vectors.items()})
    return sem, sent


def keyword_dataset(n=50, reps=3):
    data = []
    for i in range(n):
        label = LABELS[i % 4]
        text = " ".join([KEYWORD[label]] * reps)
        data.append(Conversation(f"c{i}", "turn one", "turn two", text, label, lex=LEX))
    return data


def accuracy(model, data):
    return float(np.mean([batch_predict(model, [c.tokens])[0] == c.label for c in data]))


def naive_sentence_vec(table, text):
    tokens = surfaces(normalize_utterance(text, LEX))
    vecs = [table.matrix[table.index[s]] for s in tokens if s in table.index]
    if not vecs:
        return np.zeros(table.dim)
    return sum(vecs) / len(vecs)


def naive_cosine(u, v):
    nu = float(np.sqrt(np.dot(u, u)))
    nv = float(np.sqrt(np.dot(v, v)))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if np.array_equal(u, v):
        return 1.0  # cos(u, u) is exactly 1; the quotient rounds below it
    return float(np.dot(u, v)) / (nu * nv)


# ---------------------------------------------------------------------------
# criteria


def test_1_metric_arithmetic():
    with criterion("1 metric arithmetic"):
        assert abs(f1_score(41.35, 50.46) - 45.45) <= 0.01
        assert abs(np.mean([59.68, 80.79, 73.55]) - 71.34) <= 0.01
        assert abs(np.mean([64.44, 74.71, 59.28]) - 66.14) <= 0.01
        labels = ["happy"] * 109 + ["sad"] * 107 + ["angry"] * 90 + ["others"] * 1920
        stats = dataset_stats(labels)
        assert stats["happy"] == (109, 4.90)
        assert stats["sad"] == (107, 4.81)
        assert stats["angry"] == (90, 4.04)
        assert stats["others"] == (1920, 86.25)


def test_2_gradient_correctness():
    with criterion("2 gradient correctness"):
        worst = 0.0
        for seed in range(21):
            rng = np.random.default_rng(1000 + seed)
            sem_dim = int(rng.integers(2, 6))
            sent_dim = int(rng.integers(2, 6))
            hidden = int(rng.integers(2, 6))
            vocab = [f"w{i}" for i in range(6)]
            sem = EmbeddingTable(
                dim=sem_dim, vectors={w: rng.standard_normal(sem_dim) for w in vocab}
            )
            sent = EmbeddingTable(
                dim=sent_dim, vectors={w: rng.standard_normal(sent_dim) for w in vocab}
            )
            config = ModelConfig(
                channels=("both", "semantic", "sentiment")[seed % 3],
                sem_hidden=hidden,
                sent_hidden=hidden,
                fc_hidden=hidden,
                fc_activation=("relu", "tanh")[seed % 2],
                max_seq_len=4,
            )
            model = init_model(config, sem, sent, seed=seed)
            length = int(rng.integers(1, 5))
            tokens = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=length)]
            target = int(rng.integers(0, 4))
            worst = max(worst, gradient_check(model, (tokens, target), epsilon=3e-4))
        assert worst < 1e-4, f"max relative error {worst:.3e}"


def test_3_overfits_separable_dataset_on_every_channel():
    with criterion("3 overfit oracle (lr 0.005, all channels)"):
        sem, sent = keyword_tables()
        data = keyword_dataset()
        for channels in ("both", "semantic", "sentiment"):
            model_config = ModelConfig(
                channels=channels, sem_hidden=4, sent_hidden=4, fc_hidden=8, max_seq_len=8
            )
            train_config = TrainConfig(
                learning_rate=0.005,
                token_budget=9,
                max_epochs=500,
                patience=500,
                seed=0,
                stop_when_train_accuracy=1.0,
            )
            model = init_model(model_config, sem, sent, seed=0)
            best, history = train(model, data, data, train_config)
            assert len(history.records) <= 500
            assert accuracy(best, data) == 1.0, channels


def test_4_dual_channel_advantage():
    with criterion("4 dual-channel advantage"):
        scale = 5.0
        sem = EmbeddingTable(
            dim=2,
            vectors={"sa0": np.array([scale, 0.0]), "sa1": np.array([-scale, 0.0])},
        )
        sent = EmbeddingTable(
            dim=2,
            vectors={"tb0": np.array([scale, 0.0]), "tb1": np.array([-scale, 0.0])},
        )

        def patterns(per_pattern, start):
            # the label is the parity of two bits, one visible per channel:
            # neither channel alone carries any label information
            data = []
            i = start
            for _ in range(per_pattern):
                for a in (0, 1):
                    for b in (0, 1):
                        label = "happy" if a == b else "sad"
                        data.append(Conversation(f"x{i}", "t", "t", f"sa{a} tb{b}", label, lex=LEX))
                        i += 1
            return data

        train_set = patterns(10, 0)
        val_set = patterns(5, 1000)
        for seed in (0, 1, 2):
            results = {}
            for channels in ("both", "semantic", "sentiment"):
                single = channels != "both"
                model_config = ModelConfig(
                    channels=channels, sem_hidden=8, sent_hidden=8, fc_hidden=8, max_seq_len=4
                )
                train_config = TrainConfig(
                    learning_rate=0.3,
                    token_budget=16,
                    max_epochs=120 if single else 300,
                    patience=20 if single else 60,
                    seed=seed,
                    stop_when_train_accuracy=1.0,
                )
                model = init_model(model_config, sem, sent, seed=seed)
                best, _ = train(model, train_set, val_set, train_config)
                results[channels] = accuracy(best, val_set)
            assert results["both"] >= 0.90, (seed, results)
            assert results["semantic"] <= 0.80, (seed, results)
            assert results["sentiment"] <= 0.80, (seed, results)


def test_5_normalization_example_and_idempotence():
    with criterion("5 normalization"):
        got = normalize_utterance(
            "Yeah! :((( My plan is cancelled \N{UNAMUSED FACE}\N{WHITE FROWNING FACE}", LEX
        )
        assert surfaces(got) == ["yeah", "!", ":(", "my", "plan", "is", "cancelled", ":|", ":("]

        rng = random.Random(77)
        pieces = (
            list(string.ascii_letters)
            + list(".,!?;:()[]<>@#'\"/\\|-_*&%$")
            + [":)", ":(((", ":-D", "xD", "<3", "don't", "@user", "http://x.co",
               "\N{UNAMUSED FACE}", "\N{WHITE FROWNING FACE}", "\N{FACE WITH TEARS OF JOY}",
               "soooo", "HELLO", "yeah!"]
        )
        for _ in range(1000):
            text = " ".join(
                "".join(rng.choices(pieces, k=rng.randint(1, 4)))
                for _ in range(rng.randint(0, 6))
            )
            once = normalize_utterance(text, LEX)
            assert normalize_utterance(serialize_tokens(once), LEX) == once, text


def test_6_statistical_tests():
    with criterion("6 McNemar and Fleiss kappa"):
        def correctness(b, c, both_right=10):
            a = [True] * b + [False] * c + [True] * both_right
            bb = [False] * b + [True] * c + [True] * both_right
            return a, bb

        stat, significant = mcnemar(*correctness(10, 2))
        assert abs(stat - 4.0833) <= 1e-4 and not significant

        stat, significant = mcnemar(*correctness(20, 0))
        assert abs(stat - 18.05) <= 1e-4 and significant

        perfect = np.array([[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0]])
        assert fleiss_kappa(perfect, 3) == 1.0

        fixture = np.array([[3, 0, 0, 0], [0, 3, 0, 0], [2, 1, 0, 0]])
        n, rows = 3, fixture
        p_i = [(np.sum(r * (r - 1))) / (n * (n - 1)) for r in rows]
        p_j = rows.sum(axis=0) / (len(rows) * n)
        p_bar, p_e = np.mean(p_i), float(np.sum(p_j**2))
        by_hand = (p_bar - p_e) / (1 - p_e)
        assert abs(fleiss_kappa(fixture, 3) - by_hand) <= 1e-9


def test_7_baseline_oracles():
    with criterion("7 baseline oracles"):
        # exact-arithmetic posterior enumeration for the n-gram counts model
        def oracle(train_docs, alpha, test_tokens):
            classes = sorted({label for _, label in train_docs}, key=LABELS.index)
            vocab = {}
            for tokens, _ in train_docs:
                for feats in _grams(tokens):
                    vocab.setdefault(feats, len(vocab))
            best_label, best_score = None, None
            for label in LABELS:
                docs = [t for t, l in train_docs if l == label]
                prior = Fraction(len(docs), len(train_docs))
                if prior == 0:
                    continue
                counts = {}
                total = 0
                for tokens in docs:
                    for g in _grams(tokens):
                        counts[g] = counts.get(g, 0) + 1
                        total += 1
                score = prior
                for g in _grams(test_tokens):
                    if g not in vocab:
                        continue
                    num = Fraction(counts.get(g, 0)) + Fraction(alpha)
                    den = Fraction(total) + Fraction(alpha) * max(len(vocab), 1)
                    score *= num / den
                if best_score is None or score > best_score:
                    best_label, best_score = label, score
            return best_label

        def _grams(tokens):
            grams = []
            for order in (1, 2, 3):
                for i in range(len(tokens) - order + 1):
                    grams.append(" ".join(tokens[i : i + order]))
            return grams

        pool = ["win", "lost", "rage", "ok", "game", "day", "cry", "shout", "meh", "fun"]
        rng = random.Random(4)
        checked = 0
        for _ in range(40):
            n_docs = rng.randint(2, 6)
            train_docs = []
            dataset = []
            for d in range(n_docs):
                tokens = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
                label = rng.choice(LABELS)
                train_docs.append((tokens, label))
                dataset.append(Conversation(f"d{d}", "a", "b", " ".join(tokens), label, lex=LEX))
            model = nb_train(dataset, LEX, alpha=1.0)
            assert len(model.vocab) <= 60
            tests = [t for t, _ in train_docs]
            tests += [[rng.choice(pool) for _ in range(rng.randint(1, 5))] for _ in range(3)]
            for tokens in tests:
                got = baseline_predict(model, [tokens], LEX)[0]
                assert got == oracle(train_docs, 1.0, tokens), (train_docs, tokens)
                checked += 1
        assert checked >= 200

        # separable corpus: the margin-based baseline fits it exactly
        data = keyword_dataset(n=24, reps=2)
        svm = svm_train(data, LEX, epochs=30, seed=0)
        preds = baseline_predict(svm, [c.tokens for c in data], LEX)
        assert all(p == c.label for p, c in zip(preds, data))


def test_8_mining_oracles():
    with criterion("8 mining oracles"):
        words = [f"w{i}" for i in range(12)]
        for trial in range(3):
            rng = np.random.default_rng(600 + trial)
            table = EmbeddingTable(
                dim=5, vectors={w: rng.standard_normal(5) for w in words}
            )
            seeds = [" ".join(rng.choice(words, size=rng.integers(1, 4))) for _ in range(5)]
            pool = [" ".join(rng.choice(words, size=rng.integers(1, 5))) for _ in range(25)]
            cfg = MiningConfig(threshold=0.6)

            got = mine_candidates(seeds, pool, table, LEX, cfg)
            expected = []
            for item in pool:
                vec = naive_sentence_vec(table, item)
                scores = [naive_cosine(vec, naive_sentence_vec(table, s)) for s in seeds]
                if max(scores) >= cfg.threshold:
                    expected.append((item, max(scores), seeds[scores.index(max(scores))]))
            expected.sort(key=lambda r: -r[1])
            assert [c.utterance for c in got] == [e[0] for e in expected]
            assert [c.matched for c in got] == [e[2] for e in expected]
            np.testing.assert_allclose(
                [c.score for c in got], [e[1] for e in expected], atol=1e-12
            )

            positives = [[" ".join(rng.choice(words, size=2))] for _ in range(2)]
            flat = [u for group in positives for u in group]
            eligible = [
                i
                for i, item in enumerate(pool)
                if all(
                    naive_cosine(naive_sentence_vec(table, item), naive_sentence_vec(table, p))
                    < cfg.threshold
                    for p in flat
                )
            ]
            n = min(4, len(eligible))
            sampled = sample_negatives(pool, positives, table, LEX, cfg, n=n, seed=trial)
            picks = np.random.default_rng(trial).choice(len(eligible), size=n, replace=False)
            assert sampled == [pool[eligible[i]] for i in sorted(picks)]

        kept, removed = prune_heuristics(
            [Candidate("what a great day :'(", 0.9, "so happy today")], "happy", LEX
        )
        assert kept == []
        assert removed[0].reason == "opposite-emoticon"


def test_9_round_trips():
    with criterion("9 round trips"):
        # model save/load preserves behaviour
        rng = np.random.default_rng(8)
        vocab = [f"w{i}" for i in range(10)]
        sem = EmbeddingTable(dim=4, vectors={w: rng.standard_normal(4) for w in vocab})
        sent = EmbeddingTable(dim=3, vectors={w: rng.standard_normal(3) for w in vocab})
        config = ModelConfig(channels="both", sem_hidden=5, sent_hidden=4, fc_hidden=6)
        model = init_model(config, sem, sent, seed=1)
        sink = io.StringIO()
        save_checkpoint(model, TrainConfig(), sink, LEX)
        loaded = load_checkpoint(io.StringIO(sink.getvalue()), sem, sent)
        for k in range(100):
            probe = np.random.default_rng(900 + k)
            tokens = [vocab[int(i)] for i in probe.integers(0, len(vocab), size=probe.integers(1, 6))]
            p1 = batch_forward(model, [tokens])[0][0]
            p2 = batch_forward(loaded, [tokens])[0][0]
            np.testing.assert_allclose(p1, p2, atol=1e-6)

        # dataset text survives a read/write cycle byte for byte
        text = (
            "c1\thow was it\tpretty bad\tI lost my phone :(\tsad\n"
            "c2\tmorning\they\tWON the game!\thappy\n"
            "c3\twhat now\tdunno\tok then\tothers\n"
        )
        dataset = read_dataset(text.encode("utf-8"), LEX)
        out = io.StringIO()
        write_dataset(dataset, out)
        assert out.getvalue() == text

        # fixed seeds reproduce the training history exactly
        semk, sentk = keyword_tables()
        data = keyword_dataset(n=16, reps=2)
        histories = []
        for _ in range(2):
            m = init_model(
                ModelConfig(channels="both", sem_hidden=3, sent_hidden=3, fc_hidden=4),
                semk,
                sentk,
                seed=5,
            )
            cfg = TrainConfig(learning_rate=0.05, token_budget=8, max_epochs=6,
                              patience=6, seed=5)
            _, history = train(m, data, data, cfg)
            histories.append(history)
        assert histories[0] == histories[1]
