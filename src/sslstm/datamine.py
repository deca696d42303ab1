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
positive set, for balancing the final dataset.  Every function that
normalizes text takes the emoticon lexicon to normalize with.  All outputs
are deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .textfile import DataFormatError, _open_write, _tsv_rows
from .embeddings import EmbeddingTable, cosines, sentence_embedding
from .labels import EMOTION_LABELS
from .text_norm import EmoticonLexicon, emoticon_class, normalize_utterance, serialize_tokens

PRUNE_OPPOSITE_EMOTICON = "opposite-emoticon"
PRUNE_LENGTH = "length"

BLOCK = 1024  # pool utterances scored at once: memory O(BLOCK * (dim + seeds))


@dataclass(frozen=True)
class MiningConfig:
    """Knobs shared by the mining techniques.

    threshold          cosine similarity in (0, 1]: a seed match reaches
                       it, a negative stays below it for every positive
    max_utterance_len  prune candidates longer than this many tokens
    top_k              number of frequent responses to expand
    min_response_freq  ignore responses seen fewer times than this
    """

    threshold: float = 0.8
    max_utterance_len: int = 30
    top_k: int = 100
    min_response_freq: int = 2

    def __post_init__(self):
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold!r}")
        for attr in ("max_utterance_len", "top_k", "min_response_freq"):
            value = getattr(self, attr)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{attr} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class QAPair:
    """One question/answer exchange from a conversation log: the raw texts
    and their normalized, serialized forms."""

    q: str
    a: str
    q_key: str
    a_key: str


def make_qa_pairs(raw_pairs, lex: EmoticonLexicon) -> list[QAPair]:
    """Build QAPairs from (q, a) tuples, normalizing each side once with
    ``lex`` and dropping any pair whose question or answer normalizes to
    nothing (pure handles, URLs, whitespace)."""
    pairs = []
    for q, a in raw_pairs:
        q, a = str(q), str(a)
        q_key = serialize_tokens(normalize_utterance(q, lex))
        a_key = serialize_tokens(normalize_utterance(a, lex))
        if q_key and a_key:
            pairs.append(QAPair(q, a, q_key, a_key))
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


def _pooled(texts, table: EmbeddingTable, lex: EmoticonLexicon) -> np.ndarray:
    """The sentence embedding of each normalized utterance, one row each."""
    rows = [sentence_embedding(table, normalize_utterance(t, lex)) for t in texts]
    return np.array(rows).reshape(len(texts), table.dim)


def _similarities(pool, others, table: EmbeddingTable, lex: EmoticonLexicon):
    """``(start, sims)`` per block of up to BLOCK pool utterances, where
    ``sims[i, k]`` is the cosine similarity of ``pool[start + i]`` and ``others[k]``."""
    other_vecs = _pooled(others, table, lex)
    for start in range(0, len(pool), BLOCK):
        yield start, cosines(_pooled(pool[start:start + BLOCK], table, lex), other_vecs)


def mine_candidates(
    seeds,
    pool,
    table: EmbeddingTable,
    lex: EmoticonLexicon,
    config: MiningConfig = MiningConfig(),
) -> list[Candidate]:
    """Score every pool utterance against every seed utterance (both strings).

    A pool item becomes a candidate when its best cosine similarity to
    any seed reaches ``config.threshold``.  Similarity is taken
    between mean-pooled sentence embeddings of the normalized tokens.
    Candidates come back sorted by score, highest first; equal scores
    keep their pool order.  Ties between seeds go to the earlier seed.
    """
    seeds = list(seeds)
    pool = list(pool)
    if not seeds:
        raise ValueError("mine_candidates: need at least one seed utterance")
    candidates = []
    for start, sims in _similarities(pool, seeds, table, lex):
        best = sims.argmax(axis=1)  # the first maximum: the earlier seed
        scores = sims.max(axis=1)
        for i in np.flatnonzero(scores >= config.threshold):
            candidates.append(Candidate(pool[start + i], float(scores[i]), seeds[best[i]]))
    candidates.sort(key=lambda c: -c.score)
    return candidates


def prune_heuristics(
    candidates,
    target_class: str,
    lex: EmoticonLexicon,
    config: MiningConfig = MiningConfig(),
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


def mine_by_response(
    pairs,
    class_utterances,
    lex: EmoticonLexicon,
    config: MiningConfig = MiningConfig(),
) -> list[Candidate]:
    """Expand a class via the stock responses its utterances attract.

    Count how often each normalized response answers a question already
    in ``class_utterances`` (normalized with ``lex``, the lexicon that
    built ``pairs``).  Keep the ``config.top_k`` most frequent responses
    seen at least ``config.min_response_freq`` times, then return every
    *other* question (not in the class, deduplicated on normalized form)
    whose answer is one of those responses.  Each candidate records the
    shared response and its frequency as the score; output is sorted by
    frequency, highest first, with ties in pair order.
    """
    pairs = list(pairs)
    class_keys = {serialize_tokens(normalize_utterance(u, lex)) for u in class_utterances}

    counts: dict[str, int] = {}
    first_text: dict[str, str] = {}
    for pair in pairs:
        if pair.q_key in class_keys:
            counts[pair.a_key] = counts.get(pair.a_key, 0) + 1
            first_text.setdefault(pair.a_key, pair.a)

    frequent = [key for key, n in counts.items() if n >= config.min_response_freq]
    # dict order is insertion order, so equal frequencies keep the order
    # in which the responses were first seen.
    frequent.sort(key=lambda key: -counts[key])
    frequent = set(frequent[: config.top_k])

    candidates = []
    seen_questions = set()
    for pair in pairs:
        if pair.q_key in class_keys or pair.q_key in seen_questions:
            continue
        if pair.a_key in frequent:
            seen_questions.add(pair.q_key)
            candidates.append(
                Candidate(pair.q, float(counts[pair.a_key]), first_text[pair.a_key])
            )
    candidates.sort(key=lambda c: -c.score)
    return candidates


def sample_negatives(
    pool,
    positive_sets,
    table: EmbeddingTable,
    lex: EmoticonLexicon,
    config: MiningConfig = MiningConfig(),
    n: int = 1,
    seed: int = 0,
) -> list:
    """Draw ``n`` pool utterances far from every positive utterance (all strings).

    A pool item is eligible when its cosine similarity to *each*
    utterance in every positive set stays below
    ``config.threshold``.  Eligible items are sampled without
    replacement using ``seed`` and returned in pool order.  Raises
    ValueError naming the shortfall when fewer than ``n`` items are
    eligible.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    pool = list(pool)
    if isinstance(positive_sets, dict):
        positive_sets = positive_sets.values()
    positives = [u for group in positive_sets for u in group]
    eligible = []
    for start, sims in _similarities(pool, positives, table, lex):
        far = (sims < config.threshold).all(axis=1)
        eligible += (start + np.flatnonzero(far)).tolist()
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
