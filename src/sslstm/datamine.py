"""Semi-automated mining of emotion-class training candidates.

Two complementary techniques feed a human judging queue:

* similarity mining: score unlabeled utterances against a handful of
  labeled seed utterances by cosine similarity of mean-pooled sentence
  embeddings, keep everything above a threshold;
* response mining: in a question/answer pair collection, find stock
  responses that frequently answer utterances of a known class, then
  pull in the other questions that drew the same responses.

Both produce ranked candidate lists that are pruned by cheap heuristics
(opposite-emotion emoticons, excessive length) before a person sees
them.  A negative sampler draws utterances that are dissimilar to every
positive set, for balancing the final dataset.  All outputs are
deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .textfile import DataFormatError, _open_write, _tsv_rows
from .embeddings import EmbeddingTable, cosine, sentence_embedding
from .labels import EMOTION_LABELS
from .text_norm import (
    EmoticonLexicon,
    Token,
    default_lexicon,
    emoticon_class,
    normalize_utterance,
    serialize_tokens,
)

PRUNE_OPPOSITE_EMOTICON = "opposite-emoticon"
PRUNE_LENGTH = "length"


@dataclass(frozen=True)
class MiningConfig:
    """Knobs shared by the mining techniques.

    cosine_threshold   minimum similarity for a seed match, in (0, 1]
    max_utterance_len  prune candidates longer than this many tokens
    top_k              number of frequent responses to expand
    min_response_freq  ignore responses seen fewer times than this
    negative_threshold similarity above which a pool item is too close
                       to a positive set to serve as a negative
    """

    cosine_threshold: float = 0.8
    max_utterance_len: int = 30
    top_k: int = 100
    min_response_freq: int = 2
    negative_threshold: float = 0.8

    def __post_init__(self):
        for attr in ("cosine_threshold", "negative_threshold"):
            value = getattr(self, attr)
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{attr} must be in (0, 1], got {value!r}")
        for attr in ("max_utterance_len", "top_k", "min_response_freq"):
            value = getattr(self, attr)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{attr} must be a positive integer, got {value!r}")


@dataclass
class QAPair:
    """One question/answer exchange from a conversation log."""

    q: str
    a: str
    # side ("q" or "a") -> (lexicon, tokens): the tokens under the lexicon last asked for
    _tokens: dict = field(default_factory=dict, repr=False, compare=False)

    def q_tokens(self, lex: EmoticonLexicon | None = None) -> list[Token]:
        return self._normalized("q", lex)

    def a_tokens(self, lex: EmoticonLexicon | None = None) -> list[Token]:
        return self._normalized("a", lex)

    def _normalized(self, side: str, lex: EmoticonLexicon | None) -> list[Token]:
        if lex is None:
            lex = default_lexicon()
        cached = self._tokens.get(side)
        if cached is None or cached[0] is not lex:
            cached = self._tokens[side] = (lex, normalize_utterance(getattr(self, side), lex))
        return cached[1]


def make_qa_pairs(raw_pairs, lex: EmoticonLexicon | None = None) -> list[QAPair]:
    """Build QAPairs from (q, a) tuples, dropping any whose question or
    answer normalizes to nothing (pure handles, URLs, whitespace)."""
    if lex is None:
        lex = default_lexicon()
    pairs = []
    for q, a in raw_pairs:
        pair = QAPair(str(q), str(a))
        if pair.q_tokens(lex) and pair.a_tokens(lex):
            pairs.append(pair)
    return pairs


@dataclass
class Candidate:
    """One mined utterance awaiting human judgment.

    ``matched`` is the seed utterance (similarity mining) or the shared
    response (response mining) that pulled the candidate in.  ``score``
    is the cosine similarity or the response frequency.  ``reason`` is
    empty while the candidate is alive; pruning fills it in.
    """

    utterance: str
    score: float
    matched: str
    reason: str = ""


def _tokens_of(utterance, lex: EmoticonLexicon | None):
    """Normalized tokens for a raw string, or the sequence as given."""
    if isinstance(utterance, str):
        return normalize_utterance(utterance, lex)
    return list(utterance)


def _text_of(utterance) -> str:
    return utterance if isinstance(utterance, str) else serialize_tokens(utterance)


def mine_candidates(
    seeds,
    pool,
    table: EmbeddingTable,
    config: MiningConfig | None = None,
    lex: EmoticonLexicon | None = None,
) -> list[Candidate]:
    """Score every pool utterance against every seed utterance.

    A pool item becomes a candidate when its best cosine similarity to
    any seed reaches ``config.cosine_threshold``.  Similarity is taken
    between mean-pooled sentence embeddings of the normalized tokens.
    Candidates come back sorted by score, highest first; equal scores
    keep their pool order.  Ties between seeds go to the earlier seed.
    """
    if config is None:
        config = MiningConfig()
    seeds = list(seeds)
    pool = list(pool)
    if not seeds:
        raise ValueError("mine_candidates: need at least one seed utterance")
    seed_vecs = [sentence_embedding(table, _tokens_of(s, lex)) for s in seeds]
    candidates = []
    for item in pool:
        vec = sentence_embedding(table, _tokens_of(item, lex))
        best_score = -np.inf
        best_seed = 0
        for j, seed_vec in enumerate(seed_vecs):
            score = cosine(vec, seed_vec)
            if score > best_score:
                best_score = score
                best_seed = j
        if best_score >= config.cosine_threshold:
            candidates.append(
                Candidate(_text_of(item), float(best_score), _text_of(seeds[best_seed]))
            )
    candidates.sort(key=lambda c: -c.score)
    return candidates


def prune_heuristics(
    candidates,
    target_class: str,
    lex: EmoticonLexicon | None = None,
    config: MiningConfig | None = None,
) -> tuple[list[Candidate], list[Candidate]]:
    """Drop candidates that plainly cannot belong to ``target_class``.

    Two filters run in order: an utterance carrying an emoticon of a
    *different* emotion class is removed (neutral emoticons are fine),
    and anything longer than ``config.max_utterance_len`` tokens is
    removed.  Returns ``(kept, removed)``; removed candidates carry the
    pruning reason and both lists preserve the input order.
    """
    if target_class not in EMOTION_LABELS:
        raise ValueError(
            f"target_class must be one of {EMOTION_LABELS}, got {target_class!r}"
        )
    if config is None:
        config = MiningConfig()
    if lex is None:
        lex = default_lexicon()
    kept, removed = [], []
    for cand in candidates:
        tokens = normalize_utterance(cand.utterance, lex)
        reason = ""
        for tok in tokens:
            cls = emoticon_class(tok, lex)
            if cls is not None and cls != "neutral" and cls != target_class:
                reason = PRUNE_OPPOSITE_EMOTICON
                break
        if not reason and len(tokens) > config.max_utterance_len:
            reason = PRUNE_LENGTH
        if reason:
            removed.append(dataclasses.replace(cand, reason=reason))
        else:
            kept.append(cand)
    return kept, removed


def _normalized_key(text: str, lex: EmoticonLexicon | None) -> str:
    return serialize_tokens(normalize_utterance(text, lex))


def mine_by_response(
    pairs,
    class_utterances,
    config: MiningConfig | None = None,
    lex: EmoticonLexicon | None = None,
) -> list[Candidate]:
    """Expand a class via the stock responses its utterances attract.

    Count how often each normalized response answers a question already
    in ``class_utterances``.  Keep the ``config.top_k`` most frequent
    responses seen at least ``config.min_response_freq`` times, then
    return every *other* question (not in the class, deduplicated on
    normalized form) whose answer is one of those responses.  Each
    candidate records the shared response and its frequency as the
    score; output is sorted by frequency, highest first, with ties in
    pair order.
    """
    if config is None:
        config = MiningConfig()
    if lex is None:
        lex = default_lexicon()
    pairs = list(pairs)
    class_keys = {_normalized_key(u, lex) for u in class_utterances}

    counts: dict[str, int] = {}
    first_text: dict[str, str] = {}
    for pair in pairs:
        q_key = serialize_tokens(pair.q_tokens(lex))
        if q_key not in class_keys:
            continue
        a_key = serialize_tokens(pair.a_tokens(lex))
        counts[a_key] = counts.get(a_key, 0) + 1
        first_text.setdefault(a_key, pair.a)

    frequent = [key for key, n in counts.items() if n >= config.min_response_freq]
    # dict order is insertion order, so equal frequencies keep the order
    # in which the responses were first seen.
    frequent.sort(key=lambda key: -counts[key])
    frequent = set(frequent[: config.top_k])

    candidates = []
    seen_questions = set()
    for pair in pairs:
        q_key = serialize_tokens(pair.q_tokens(lex))
        if q_key in class_keys or q_key in seen_questions:
            continue
        a_key = serialize_tokens(pair.a_tokens(lex))
        if a_key in frequent:
            seen_questions.add(q_key)
            candidates.append(
                Candidate(pair.q, float(counts[a_key]), first_text[a_key])
            )
    candidates.sort(key=lambda c: -c.score)
    return candidates


def sample_negatives(
    pool,
    positive_sets,
    table: EmbeddingTable,
    config: MiningConfig | None = None,
    n: int = 1,
    seed: int = 0,
    lex: EmoticonLexicon | None = None,
) -> list:
    """Draw ``n`` pool utterances far from every positive utterance.

    A pool item is eligible when its cosine similarity to *each*
    utterance in every positive set stays below
    ``config.negative_threshold``.  Eligible items are sampled without
    replacement using ``seed`` and returned in pool order.  Raises
    ValueError naming the shortfall when fewer than ``n`` items are
    eligible.
    """
    if config is None:
        config = MiningConfig()
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    pool = list(pool)
    if isinstance(positive_sets, dict):
        positive_sets = positive_sets.values()
    positives = [u for group in positive_sets for u in group]
    positive_vecs = [sentence_embedding(table, _tokens_of(u, lex)) for u in positives]

    eligible = []
    for i, item in enumerate(pool):
        vec = sentence_embedding(table, _tokens_of(item, lex))
        if all(cosine(vec, pv) < config.negative_threshold for pv in positive_vecs):
            eligible.append(i)
    if len(eligible) < n:
        raise ValueError(
            f"sample_negatives: need {n} utterances but only {len(eligible)} of "
            f"{len(pool)} pool items are below the similarity threshold"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(eligible), size=n, replace=False)
    return [pool[eligible[i]] for i in sorted(chosen)]


def write_judge_queue(candidates, sink) -> None:
    """Write candidates as a judging queue: one TSV row per candidate
    with columns utterance, score, matched seed or response, and the
    pruning reason (empty for live candidates)."""
    with _open_write(sink) as fh:
        for cand in candidates:
            for text in (cand.utterance, cand.matched, cand.reason):
                if "\t" in text or "\n" in text:
                    raise ValueError(f"judge queue fields may not hold tabs or newlines: {text!r}")
            line = f"{cand.utterance}\t{cand.score:g}\t{cand.matched}\t{cand.reason}"
            if line.lstrip().startswith("#") or line.endswith("\r"):
                raise ValueError(f"judge queue line would not read back: {line!r}")
            fh.write(line + "\n")


def read_judge_queue(source) -> list[Candidate]:
    """Read a judging queue written by write_judge_queue."""
    candidates = []
    for name, lineno, (utterance, score, matched, reason) in _tsv_rows(source, 4):
        try:
            value = float(score)
        except ValueError:
            raise DataFormatError(f"{name}:{lineno}: score {score!r} is not a number") from None
        candidates.append(Candidate(utterance, value, matched, reason))
    return candidates
