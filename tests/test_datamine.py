"""Tests for candidate mining, pruning, response mining, and negative sampling."""

import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sslstm.datamine
from conftest import LEX

from sslstm.dataio import DataFormatError
from sslstm.datamine import (
    Candidate,
    MiningConfig,
    PRUNE_LENGTH,
    PRUNE_OPPOSITE_EMOTICON,
    make_qa_pairs,
    mine_by_response,
    mine_candidates,
    prune_heuristics,
    read_judge_queue,
    sample_negatives,
    write_judge_queue,
)
from sslstm.embeddings import EmbeddingTable
from sslstm.text_norm import EmoticonLexicon, normalize_utterance, serialize_tokens


def unit_table(n_tokens=6):
    """Tokens t0..t{n-1} mapped to orthogonal unit vectors."""
    eye = np.eye(n_tokens)
    return EmbeddingTable(dim=n_tokens, vectors={f"t{i}": eye[i] for i in range(n_tokens)})


def random_table(words, dim, seed):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(dim=dim, vectors={w: rng.standard_normal(dim) for w in words})


def naive_sentence_vec(table, text):
    """Mean pooling written out longhand, independent of the library path."""
    surfaces = [t.surface for t in normalize_utterance(text, LEX)]
    vecs = [table.matrix[table.index[s]] for s in surfaces if s in table.index]
    if not vecs:
        return np.zeros(table.dim)
    total = np.zeros(table.dim)
    for v in vecs:
        total = total + v
    return total / len(vecs)


def naive_cosine(u, v):
    nu = math.sqrt(float(np.dot(u, u)))
    nv = math.sqrt(float(np.dot(v, v)))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if np.array_equal(u, v):
        return 1.0  # cos(u, u) is exactly 1; the quotient rounds below it
    return float(np.dot(u, v)) / (nu * nv)


def brute_force_mine(seeds, pool, table, threshold):
    """Exhaustive cosine scan: the oracle for mine_candidates."""
    rows = []
    for item in pool:
        vec = naive_sentence_vec(table, item)
        scores = [naive_cosine(vec, naive_sentence_vec(table, s)) for s in seeds]
        best = max(scores)
        if best >= threshold:
            rows.append((item, best, seeds[scores.index(best)]))
    rows.sort(key=lambda r: -r[1])
    return rows


def brute_force_eligible(pool, positives, table, threshold):
    """Exhaustive cosine scan: the oracle for which pool items sample_negatives may draw."""
    return [
        i
        for i, item in enumerate(pool)
        if all(
            naive_cosine(naive_sentence_vec(table, item), naive_sentence_vec(table, p)) < threshold
            for p in positives
        )
    ]


# Utterances are sorted sets of distinct words, "zz" out of vocabulary: two
# utterances pool to the same vector exactly or to clearly different ones,
# so the oracle's ties and threshold decisions are the library's too.
_WORDS = ["w0", "w1", "w2", "w3", "w4", "zz"]
_UTTERANCES = st.sets(st.sampled_from(_WORDS), min_size=1, max_size=3).map(
    lambda words: " ".join(sorted(words))
)


@st.composite
def mining_inputs(draw):
    """A table, seeds with duplicates, and a pool with copies of seeds and
    all-OOV utterances."""
    table = random_table(_WORDS[:-1], draw(st.integers(1, 4)), draw(st.integers(0, 2**16)))
    seeds = draw(st.lists(_UTTERANCES, min_size=1, max_size=4))
    seeds += draw(st.lists(st.sampled_from(seeds), max_size=2))
    pool = draw(st.lists(st.one_of(_UTTERANCES, st.sampled_from(seeds), st.just("zz")),
                         max_size=10))
    return table, seeds, pool


class TestMiningProperties:
    @settings(max_examples=150, deadline=None)
    @given(inputs=mining_inputs(), threshold=st.sampled_from([0.3, 0.9, 1.0]),
           block=st.integers(1, 3))
    def test_mine_candidates_matches_brute_force_in_any_block_size(self, inputs, threshold, block):
        table, seeds, pool = inputs
        cfg = MiningConfig(threshold=threshold)
        got = mine_candidates(seeds, pool, table, LEX, cfg)
        expected = brute_force_mine(seeds, pool, table, threshold)
        assert [(c.utterance, c.matched) for c in got] == [(r[0], r[2]) for r in expected]
        for cand, row in zip(got, expected):
            assert abs(cand.score - row[1]) <= 1e-12
            if row[1] == 1.0:
                assert cand.score == 1.0
        with mock.patch.object(sslstm.datamine, "BLOCK", block):
            assert mine_candidates(seeds, pool, table, LEX, cfg) == got

    @settings(max_examples=150, deadline=None)
    @given(inputs=mining_inputs(), threshold=st.sampled_from([0.3, 0.9, 1.0]),
           block=st.integers(1, 3))
    def test_sample_negatives_matches_brute_force_in_any_block_size(self, inputs, threshold, block):
        table, positives, pool = inputs
        cfg = MiningConfig(threshold=threshold)
        eligible = brute_force_eligible(pool, positives, table, threshold)
        got = sample_negatives(pool, [positives], table, LEX, cfg, n=len(eligible))
        assert got == [pool[i] for i in eligible]
        with mock.patch.object(sslstm.datamine, "BLOCK", block):
            assert sample_negatives(pool, [positives], table, LEX, cfg, n=len(eligible)) == got
        with pytest.raises(ValueError, match=f"only {len(eligible)} of {len(pool)}"):
            sample_negatives(pool, [positives], table, LEX, cfg, n=len(eligible) + 1)


class TestMiningConfig:
    def test_defaults(self):
        cfg = MiningConfig()
        assert cfg.threshold == 0.8
        assert cfg.max_utterance_len == 30
        assert cfg.top_k == 100
        assert cfg.min_response_freq == 2

    def test_is_frozen(self):
        cfg = MiningConfig()
        with pytest.raises(AttributeError):
            cfg.top_k = 3

    @pytest.mark.parametrize("value", [0.0, -0.2, 1.2])
    def test_rejects_out_of_range_thresholds(self, value):
        with pytest.raises(ValueError, match="threshold"):
            MiningConfig(threshold=value)

    def test_threshold_of_one_is_allowed(self):
        assert MiningConfig(threshold=1.0).threshold == 1.0

    @pytest.mark.parametrize("attr", ["max_utterance_len", "top_k", "min_response_freq"])
    def test_rejects_non_positive_counts(self, attr):
        with pytest.raises(ValueError, match=attr):
            MiningConfig(**{attr: 0})

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ValueError, match="top_k"):
            MiningConfig(top_k=1.5)


class TestMineCandidates:
    def test_identical_copy_scores_exactly_one(self):
        table = unit_table()
        cfg = MiningConfig(threshold=1.0)
        out = mine_candidates(["t0 t1"], ["t5", "t0 t1", "t2"], table, LEX, cfg)
        assert [c.utterance for c in out] == ["t0 t1"]
        assert out[0].score == 1.0
        assert out[0].matched == "t0 t1"
        assert out[0].reason == ""

    def test_orthogonal_vocab_is_excluded(self):
        table = unit_table()
        cfg = MiningConfig(threshold=0.01)
        assert mine_candidates(["t0"], ["t1", "t2 t3"], table, LEX, cfg) == []

    def test_reports_best_matching_seed(self):
        table = unit_table()
        cfg = MiningConfig(threshold=0.5)
        out = mine_candidates(["t1", "t0"], ["t0 t0 t0"], table, LEX, cfg)
        assert out[0].matched == "t0"
        assert out[0].score == 1.0

    def test_seed_ties_go_to_the_earlier_seed(self):
        # "t0 t1" is equidistant from both seeds; the first seed wins.
        table = unit_table()
        cfg = MiningConfig(threshold=0.5)
        out = mine_candidates(["t1", "t0"], ["t0 t1"], table, LEX, cfg)
        assert out[0].matched == "t1"

    def test_sorted_by_score_with_pool_order_ties(self):
        table = unit_table()
        cfg = MiningConfig(threshold=0.5)
        # "t0 t1" and "t1 t0" pool to the same mean vector, so their
        # scores are bit-identical; pool order must break the tie.
        out = mine_candidates(["t0"], ["t0 t1", "t0", "t1 t0"], table, LEX, cfg)
        assert [c.utterance for c in out] == ["t0", "t0 t1", "t1 t0"]
        assert out[1].score == out[2].score

    def test_scores_respect_threshold(self):
        table = unit_table()
        cfg = MiningConfig(threshold=0.7)
        pool = ["t0", "t0 t1", "t0 t1 t2", "t3"]
        for cand in mine_candidates(["t0"], pool, table, LEX, cfg):
            assert cand.score >= cfg.threshold
            assert cand.utterance in pool

    def test_out_of_vocabulary_text_never_matches(self):
        table = unit_table()
        cfg = MiningConfig(threshold=0.01)
        assert mine_candidates(["t0"], ["zebra quill"], table, LEX, cfg) == []
        assert mine_candidates(["zebra"], ["t0", "zebra"], table, LEX, cfg) == []

    def test_empty_seeds_raise(self):
        with pytest.raises(ValueError, match="seed"):
            mine_candidates([], ["t0"], unit_table(), LEX, MiningConfig())

    def test_empty_pool_is_fine(self):
        assert mine_candidates(["t0"], [], unit_table(), LEX, MiningConfig()) == []

    def test_default_config_threshold(self):
        table = unit_table()
        # cos("t0 t1", "t0") = 1/sqrt(2) ~ 0.707 < 0.8 default.
        assert mine_candidates(["t0"], ["t0 t1"], table, LEX) == []
        out = mine_candidates(["t0"], ["t0 t0"], table, LEX)
        assert [c.utterance for c in out] == ["t0 t0"]

    def test_deterministic(self):
        words = [f"w{i}" for i in range(10)]
        table = random_table(words, 4, seed=3)
        rng = np.random.default_rng(5)
        pool = [" ".join(rng.choice(words, size=rng.integers(1, 4))) for _ in range(15)]
        cfg = MiningConfig(threshold=0.6)
        first = mine_candidates(pool[:3], pool, table, LEX, cfg)
        second = mine_candidates(pool[:3], pool, table, LEX, cfg)
        assert first == second

    @pytest.mark.parametrize("trial", range(5))
    def test_matches_brute_force_scan(self, trial):
        words = [f"w{i}" for i in range(12)]
        table = random_table(words, 5, seed=100 + trial)
        rng = np.random.default_rng(200 + trial)
        seeds = [" ".join(rng.choice(words, size=rng.integers(1, 4))) for _ in range(5)]
        pool = [" ".join(rng.choice(words, size=rng.integers(1, 5))) for _ in range(20)]
        for threshold in (0.55, 0.8):
            cfg = MiningConfig(threshold=threshold)
            got = mine_candidates(seeds, pool, table, LEX, cfg)
            expected = brute_force_mine(seeds, pool, table, threshold)
            assert [c.utterance for c in got] == [r[0] for r in expected]
            assert [c.matched for c in got] == [r[2] for r in expected]
            np.testing.assert_allclose(
                [c.score for c in got], [r[1] for r in expected], atol=1e-12
            )


class TestPruneHeuristics:
    def cands(self, *texts):
        return [Candidate(t, 0.9, "seed utterance") for t in texts]

    def test_opposite_emoticon_removed_from_happy(self):
        kept, removed = prune_heuristics(self.cands("what a great day :'("), "happy", LEX)
        assert kept == []
        assert len(removed) == 1
        assert removed[0].reason == PRUNE_OPPOSITE_EMOTICON
        assert removed[0].utterance == "what a great day :'("

    def test_overlong_candidate_removed(self):
        text = " ".join(["word"] * 31)
        kept, removed = prune_heuristics(self.cands(text), "happy", LEX)
        assert kept == []
        assert removed[0].reason == PRUNE_LENGTH

    def test_clean_short_candidate_retained(self):
        kept, removed = prune_heuristics(self.cands("that sounds lovely"), "happy", LEX)
        assert [c.utterance for c in kept] == ["that sounds lovely"]
        assert removed == []

    def test_exactly_max_length_is_retained(self):
        text = " ".join(["word"] * 30)
        kept, removed = prune_heuristics(self.cands(text), "sad", LEX)
        assert len(kept) == 1 and removed == []

    def test_target_class_and_neutral_emoticons_survive(self):
        kept, removed = prune_heuristics(self.cands("so glad :) :|"), "happy", LEX)
        assert len(kept) == 1 and removed == []
        kept, removed = prune_heuristics(self.cands("hmm :| :/"), "angry", LEX)
        assert len(kept) == 1 and removed == []

    def test_happy_emoticon_removed_from_sad(self):
        kept, removed = prune_heuristics(self.cands("miss you :)"), "sad", LEX)
        assert kept == []
        assert removed[0].reason == PRUNE_OPPOSITE_EMOTICON

    def test_angry_emoticon_removed_from_happy(self):
        kept, removed = prune_heuristics(self.cands("wow >:("), "happy", LEX)
        assert removed[0].reason == PRUNE_OPPOSITE_EMOTICON

    def test_sad_emoticon_allowed_for_sad(self):
        kept, removed = prune_heuristics(self.cands("miss you :'("), "sad", LEX)
        assert len(kept) == 1 and removed == []

    def test_emoticon_reason_wins_over_length(self):
        text = " ".join(["word"] * 31) + " :'("
        kept, removed = prune_heuristics(self.cands(text), "happy", LEX)
        assert removed[0].reason == PRUNE_OPPOSITE_EMOTICON

    def test_checks_run_on_normalized_form(self):
        # ":(((" collapses to the canonical sad emoticon before the check.
        kept, removed = prune_heuristics(self.cands("fantastic news :((("), "happy", LEX)
        assert removed and removed[0].reason == PRUNE_OPPOSITE_EMOTICON

    def test_partition_preserves_order_and_inputs(self):
        texts = ["fine day", "bad day :'(", "nice one", " ".join(["x"] * 40)]
        cands = self.cands(*texts)
        kept, removed = prune_heuristics(cands, "happy", LEX)
        assert [c.utterance for c in kept] == ["fine day", "nice one"]
        assert [c.utterance for c in removed] == ["bad day :'(", " ".join(["x"] * 40)]
        # originals are untouched; removals are annotated copies
        assert all(c.reason == "" for c in cands)

    def test_custom_length_limit(self):
        cfg = MiningConfig(max_utterance_len=2)
        kept, removed = prune_heuristics(self.cands("one two three"), "happy", LEX, config=cfg)
        assert removed[0].reason == PRUNE_LENGTH

    @pytest.mark.parametrize("target", ["others", "neutral", "HAPPY", ""])
    def test_rejects_non_emotion_targets(self, target):
        with pytest.raises(ValueError, match="target_class"):
            prune_heuristics([], target, LEX)


def qa(q, a):
    """One QAPair, built the way make_qa_pairs builds it."""
    (pair,) = make_qa_pairs([(q, a)], LEX)
    return pair


class TestMineByResponse:
    def angry_corpus(self):
        class_qs = [f"i am so mad about the game {i}" for i in range(5)]
        pairs = [qa(q, "There, there") for q in class_qs[:2]]
        pairs += [qa(class_qs[2], "there ,  there")]
        pairs += [qa(q, "THERE, THERE") for q in class_qs[3:]]
        pairs += [
            qa("my cat knocked over the plant", "There, there"),
            qa("we lost again", "there, there"),
            qa("what time is it", "around noon"),
            qa("i am so mad about the game 0", "calm down"),
        ]
        return pairs, class_qs

    def test_popular_consolation_response_expands_the_class(self):
        pairs, class_qs = self.angry_corpus()
        out = mine_by_response(pairs, set(class_qs), LEX)
        assert [c.utterance for c in out] == [
            "my cat knocked over the plant",
            "we lost again",
        ]
        assert all(c.score == 5.0 for c in out)
        assert all(c.matched == "There, there" for c in out)

    def test_response_variants_collapse_under_normalization(self):
        pairs, class_qs = self.angry_corpus()
        out = mine_by_response(pairs, set(class_qs), LEX)
        # five differently-typed spellings counted as one response
        assert out and out[0].score == 5.0

    def test_unique_responses_yield_nothing(self):
        pairs = [qa(f"q {i}", f"answer number {i}") for i in range(6)]
        assert mine_by_response(pairs, {"q 0", "q 1", "q 2"}, LEX) == []

    def test_empty_class_yields_nothing(self):
        pairs, _ = self.angry_corpus()
        assert mine_by_response(pairs, set(), LEX) == []

    def test_min_frequency_filter(self):
        pairs = [
            qa("q a", "oh no"),
            qa("q b", "oh no"),
            qa("q c", "oh no"),
            qa("outside question", "oh no"),
        ]
        cfg = MiningConfig(min_response_freq=4)
        assert mine_by_response(pairs, {"q a", "q b", "q c"}, LEX, cfg) == []
        cfg = MiningConfig(min_response_freq=3)
        out = mine_by_response(pairs, {"q a", "q b", "q c"}, LEX, cfg)
        assert [c.utterance for c in out] == ["outside question"]
        assert out[0].score == 3.0

    def test_top_k_keeps_most_frequent_response(self):
        pairs = [
            qa("q1", "common reply"),
            qa("q2", "common reply"),
            qa("q3", "common reply"),
            qa("q4", "rare reply"),
            qa("q5", "rare reply"),
            qa("outsider one", "common reply"),
            qa("outsider two", "rare reply"),
        ]
        cfg = MiningConfig(top_k=1)
        out = mine_by_response(pairs, {"q1", "q2", "q3", "q4", "q5"}, LEX, cfg)
        assert [c.utterance for c in out] == ["outsider one"]

    def test_top_k_frequency_tie_keeps_first_seen(self):
        pairs = [
            qa("q1", "alpha reply"),
            qa("q2", "alpha reply"),
            qa("q3", "beta reply"),
            qa("q4", "beta reply"),
            qa("outsider a", "alpha reply"),
            qa("outsider b", "beta reply"),
        ]
        cfg = MiningConfig(top_k=1)
        out = mine_by_response(pairs, {"q1", "q2", "q3", "q4"}, LEX, cfg)
        assert [c.utterance for c in out] == ["outsider a"]

    def test_class_questions_match_on_normalized_form(self):
        pairs = [
            qa("I'M MAD!", "there, there"),
            qa("i'm mad !", "there, there"),
            qa("new question", "there, there"),
        ]
        out = mine_by_response(pairs, {"i'm mad !"}, LEX)
        # both spellings of the class Q count toward the same response
        assert [c.utterance for c in out] == ["new question"]
        assert out[0].score == 2.0

    def test_candidates_are_deduplicated(self):
        pairs = [
            qa("q1", "stock reply"),
            qa("q2", "stock reply"),
            qa("Same question", "stock reply"),
            qa("same question", "stock reply"),
        ]
        out = mine_by_response(pairs, {"q1", "q2"}, LEX)
        assert [c.utterance for c in out] == ["Same question"]

    def test_sorted_by_frequency(self):
        pairs = [qa(f"qa{i}", "very common") for i in range(4)]
        pairs += [qa(f"qb{i}", "less common") for i in range(2)]
        pairs += [qa("late outsider", "less common"), qa("early outsider", "very common")]
        class_qs = {f"qa{i}" for i in range(4)} | {f"qb{i}" for i in range(2)}
        out = mine_by_response(pairs, class_qs, LEX)
        assert [(c.utterance, c.score) for c in out] == [
            ("early outsider", 4.0),
            ("late outsider", 2.0),
        ]

    def test_make_qa_pairs_drops_empty_sides(self):
        pairs = make_qa_pairs(
            [
                ("hello there", "general greeting"),
                ("@somebody", "dropped question"),
                ("dropped answer", "http://example.com"),
                ("  ", "blank question"),
            ], LEX
        )
        assert [(p.q, p.a) for p in pairs] == [("hello there", "general greeting")]

    def test_qa_pair_tokens_follow_the_lexicon(self, lexicon):
        custom = EmoticonLexicon(lexicon.entries + [("8^)", "8^)", "happy")])
        (packaged,) = make_qa_pairs([("Nice 8^)", "ok 8^)")], lexicon)
        (pair,) = make_qa_pairs([("Nice 8^)", "ok 8^)")], custom)
        assert (packaged.q, packaged.a) == (pair.q, pair.a) == ("Nice 8^)", "ok 8^)")
        assert (packaged.q_key, packaged.a_key) == ("nice 8 ^ )", "ok 8 ^ )")
        assert (pair.q_key, pair.a_key) == ("nice 8^)", "ok 8^)")
        assert pair.q_key == serialize_tokens(normalize_utterance("Nice 8^)", custom))
        # A class utterance is matched under the lexicon the pairs were built with.
        pairs = make_qa_pairs([("yay 8^)", "good"), ("yay 8^)", "good"), ("new", "good")], custom)
        assert [c.utterance for c in mine_by_response(pairs, {"YAY 8^)"}, custom)] == ["new"]


class TestSampleNegatives:
    def test_identical_pool_item_never_sampled(self):
        table = unit_table()
        positives = {"happy": ["t0"]}
        out = sample_negatives(["t0", "t1", "t2", "t3"], positives, table, LEX, n=3, seed=0)
        assert out == ["t1", "t2", "t3"]

    def test_orthogonal_pool_returned_whole(self):
        table = unit_table()
        pool = ["t0", "t1", "t2", "t3", "t4"]
        out = sample_negatives(pool, [["t5"]], table, LEX, n=len(pool), seed=9)
        assert out == pool

    def test_shortfall_error_names_counts(self):
        table = unit_table()
        with pytest.raises(ValueError, match="need 2"):
            sample_negatives(["t0", "t0", "t0"], [["t0"]], table, LEX, n=2, seed=0)
        with pytest.raises(ValueError, match="0 of 3"):
            sample_negatives(["t0", "t0", "t0"], [["t0"]], table, LEX, n=1, seed=0)

    def test_near_duplicates_rejected_by_threshold(self):
        table = unit_table()
        # cos("t0 t1", "t0") ~ 0.707: rejected at 0.7, eligible at 0.8
        strict = MiningConfig(threshold=0.7)
        loose = MiningConfig(threshold=0.8)
        pool = ["t0 t1", "t2"]
        assert sample_negatives(pool, [["t0"]], table, LEX, strict, n=1, seed=0) == ["t2"]
        assert sample_negatives(pool, [["t0"]], table, LEX, loose, n=2, seed=0) == pool

    @pytest.mark.parametrize("trial", range(5))
    def test_matches_brute_force_eligibility_oracle(self, trial):
        words = [f"w{i}" for i in range(10)]
        table = random_table(words, 5, seed=300 + trial)
        rng = np.random.default_rng(400 + trial)
        positives = {
            "happy": [" ".join(rng.choice(words, size=2)) for _ in range(3)],
            "sad": [" ".join(rng.choice(words, size=2)) for _ in range(3)],
        }
        pool = [" ".join(rng.choice(words, size=rng.integers(1, 4))) for _ in range(30)]
        pool[7] = positives["happy"][0]
        pool[19] = positives["sad"][2]
        cfg = MiningConfig(threshold=0.8)

        flat = [u for group in positives.values() for u in group]
        eligible = [
            i
            for i, item in enumerate(pool)
            if all(
                naive_cosine(naive_sentence_vec(table, item), naive_sentence_vec(table, p))
                < cfg.threshold
                for p in flat
            )
        ]
        n = min(5, len(eligible))
        seed = 500 + trial
        got = sample_negatives(pool, positives, table, LEX, cfg, n=n, seed=seed)
        picks = np.random.default_rng(seed).choice(len(eligible), size=n, replace=False)
        expected = [pool[eligible[i]] for i in sorted(picks)]
        assert got == expected
        assert not set(got) & set(flat)

    def test_deterministic_for_fixed_seed(self):
        table = unit_table()
        pool = [f"t{i}" for i in range(5)]
        a = sample_negatives(pool, [["t5"]], table, LEX, n=3, seed=42)
        b = sample_negatives(pool, [["t5"]], table, LEX, n=3, seed=42)
        assert a == b

    def test_output_in_pool_order(self):
        table = unit_table()
        pool = ["t4", "t2", "t0", "t3"]
        out = sample_negatives(pool, [["t5"]], table, LEX, n=3, seed=1)
        assert out == [u for u in pool if u in out]

    def test_list_and_dict_positive_sets_agree(self):
        table = unit_table()
        pool = [f"t{i}" for i in range(5)]
        by_dict = sample_negatives(pool, {"happy": ["t0"], "sad": ["t1"]}, table, LEX, n=2, seed=7)
        by_list = sample_negatives(pool, [["t0"], ["t1"]], table, LEX, n=2, seed=7)
        assert by_dict == by_list

    def test_zero_requested_is_empty(self):
        assert sample_negatives(["t0"], [["t1"]], unit_table(), LEX, n=0, seed=0) == []

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample_negatives(["t0"], [["t1"]], unit_table(), LEX, n=-1, seed=0)

    def test_empty_positive_sets_accept_everything(self):
        table = unit_table()
        pool = ["t0", "t1"]
        assert sample_negatives(pool, [], table, LEX, n=2, seed=0) == pool


class TestJudgeQueue:
    def sample(self):
        return [
            Candidate("lovely weather today", 0.875, "what a nice day"),
            Candidate("terrible loss :'(", 0.75, "what a nice day", PRUNE_OPPOSITE_EMOTICON),
            Candidate("my cat knocked over the plant", 5.0, "There, there"),
        ]

    def test_written_layout(self):
        sink = io.StringIO()
        write_judge_queue(self.sample(), sink)
        assert sink.getvalue() == (
            "lovely weather today\t0.875\twhat a nice day\t\n"
            "terrible loss :'(\t0.75\twhat a nice day\topposite-emoticon\n"
            "my cat knocked over the plant\t5\tThere, there\t\n"
        )

    def test_round_trip(self):
        sink = io.StringIO()
        write_judge_queue(self.sample(), sink)
        assert read_judge_queue(io.StringIO(sink.getvalue())) == self.sample()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "queue.tsv"
        write_judge_queue(self.sample(), path)
        assert read_judge_queue(path) == self.sample()

    def test_reader_skips_comments_and_blanks(self):
        text = "# queue header\n\nq one\t0.9\tseed\t\n"
        out = read_judge_queue(io.StringIO(text))
        assert [c.utterance for c in out] == ["q one"]

    def test_tab_in_field_rejected(self):
        bad = [Candidate("has\ttab", 0.9, "seed")]
        with pytest.raises(ValueError, match="tab"):
            write_judge_queue(bad, io.StringIO())

    def test_reader_validates_field_count(self):
        with pytest.raises(DataFormatError, match=":1"):
            read_judge_queue(io.StringIO("too\tfew\tfields\n"))

    def test_reader_validates_score(self):
        with pytest.raises(DataFormatError, match="score"):
            read_judge_queue(io.StringIO("q\tnot-a-number\tseed\t\n"))

    def test_mine_prune_write_pipeline(self):
        table = unit_table()
        cfg = MiningConfig(threshold=0.5, max_utterance_len=3)
        pool = ["t0 t0", "t0 :'(", "t0 t1 t2 t3 t0"]
        candidates = mine_candidates(["t0"], pool, table, LEX, cfg)
        kept, removed = prune_heuristics(candidates, "happy", LEX, config=cfg)
        sink = io.StringIO()
        write_judge_queue(kept + removed, sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == len(candidates)
        reasons = {line.split("\t")[3] for line in lines}
        assert reasons == {"", PRUNE_OPPOSITE_EMOTICON, PRUNE_LENGTH}
