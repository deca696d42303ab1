"""Semi-automated mining of emotion-class training candidates.

Two complementary techniques feed a human judging queue:

* similarity mining: score unlabeled utterances against a handful of
  labeled seed utterances by cosine similarity of mean-pooled sentence
  embeddings, keep everything above a threshold;
* response mining: in a question/answer pair collection, find stock
  responses that frequently answer utterances of a known class, then
  pull in the other questions that drew the same responses.

Given a target class, both prune candidates by cheap heuristics
(opposite-emotion emoticons, excessive length) before a person sees
them, and queue the pruned ones after the live ones.  A negative sampler
draws utterances that are dissimilar to every positive set, for
balancing the final dataset.  Every function that normalizes text takes
the emoticon lexicon to normalize with.  All outputs are deterministic
for fixed inputs and seeds.
"""

from __future__ import annotations

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


def _pooled(token_lists, table: EmbeddingTable) -> np.ndarray:
    """The sentence embedding of each token list, one row each."""
    rows = [sentence_embedding(table, tokens) for tokens in token_lists]
    return np.array(rows).reshape(len(token_lists), table.dim)


def _similarities(pool, others, table: EmbeddingTable, lex: EmoticonLexicon):
    """``(start, tokens, sims)`` per block of up to BLOCK pool utterances:
    ``tokens[i]`` is ``pool[start + i]`` normalized, and ``sims[i, k]`` its
    cosine similarity to ``others[k]``."""
    other_vecs = _pooled([normalize_utterance(t, lex) for t in others], table)
    for start in range(0, len(pool), BLOCK):
        tokens = [normalize_utterance(t, lex) for t in pool[start:start + BLOCK]]
        yield start, tokens, cosines(_pooled(tokens, table), other_vecs)


def _check_target(target) -> None:
    if target is not None and target not in EMOTION_LABELS:
        raise ValueError(f"target must be one of {EMOTION_LABELS} or None, got {target!r}")


def _prune_reason(tokens, target, lex: EmoticonLexicon, config: MiningConfig) -> str:
    """Why an utterance of ``tokens`` plainly cannot belong to the
    ``target`` class; empty when it may, or when there is no target.  An
    emoticon of a *different* emotion class rules it out (neutral emoticons
    are fine); failing that, more than ``config.max_utterance_len`` tokens
    do."""
    if target is None:
        return ""
    for tok in tokens:
        cls = emoticon_class(tok, lex)
        if cls is not None and cls != "neutral" and cls != target:
            return PRUNE_OPPOSITE_EMOTICON
    if len(tokens) > config.max_utterance_len:
        return PRUNE_LENGTH
    return ""


def _queue(candidates: list[Candidate]) -> list[Candidate]:
    """Live candidates, then pruned ones, each by score, highest first; the
    sort is stable, so equal scores keep their input order."""
    return sorted(candidates, key=lambda c: (c.reason != "", -c.score))


def mine_candidates(
    seeds,
    pool,
    table: EmbeddingTable,
    lex: EmoticonLexicon,
    config: MiningConfig = MiningConfig(),
    target: str | None = None,
) -> list[Candidate]:
    """Score every pool utterance against every seed utterance (both strings).

    A pool item becomes a candidate when its best cosine similarity to
    any seed reaches ``config.threshold``.  Similarity is taken
    between mean-pooled sentence embeddings of the normalized tokens.
    Ties between seeds go to the earlier seed.  Given a ``target`` class,
    the pruning heuristics set each candidate's ``reason``.  The queue
    comes back live candidates first, then pruned ones, each by score,
    highest first, with equal scores in pool order.
    """
    _check_target(target)
    seeds = list(seeds)
    pool = list(pool)
    if not seeds:
        raise ValueError("mine_candidates: need at least one seed utterance")
    candidates = []
    for start, tokens, sims in _similarities(pool, seeds, table, lex):
        best = sims.argmax(axis=1)  # the first maximum: the earlier seed
        scores = sims.max(axis=1)
        for i in np.flatnonzero(scores >= config.threshold):
            reason = _prune_reason(tokens[i], target, lex, config)
            candidates.append(Candidate(pool[start + i], float(scores[i]), seeds[best[i]], reason))
    return _queue(candidates)


def mine_by_response(
    pairs,
    class_utterances,
    lex: EmoticonLexicon,
    config: MiningConfig = MiningConfig(),
    target: str | None = None,
) -> list[Candidate]:
    """Expand a class via the stock responses its utterances attract.

    ``pairs`` holds raw ``(question, answer)`` texts; a pair whose question
    or answer normalizes to nothing (pure handles, URLs, whitespace) is
    dropped.  Each distinct text, class utterances included, is normalized
    once with ``lex``.  Count how often each normalized response answers a
    question in ``class_utterances`` (compared in normalized form).  Keep
    the ``config.top_k`` most frequent responses seen at least
    ``config.min_response_freq`` times, then return every *other* question
    (not in the class, deduplicated on normalized form) whose answer is one
    of those responses.  Each candidate records the response as first seen
    and its frequency as the score.  Given a ``target`` class, the pruning
    heuristics set each candidate's ``reason``.  The queue comes back live
    candidates first, then pruned ones, each by frequency, highest first,
    with equal frequencies in pair order.
    """
    _check_target(target)
    keys: dict[str, str] = {}  # text -> its normalized, serialized form

    def key(text: str) -> str:
        if text not in keys:
            keys[text] = serialize_tokens(normalize_utterance(text, lex))
        return keys[text]

    rows = [(q, a, key(q), key(a)) for q, a in pairs]
    rows = [row for row in rows if row[2] and row[3]]
    class_keys = {key(u) for u in class_utterances}

    counts: dict[str, int] = {}
    first_text: dict[str, str] = {}
    for _, a, q_key, a_key in rows:
        if q_key in class_keys:
            counts[a_key] = counts.get(a_key, 0) + 1
            first_text.setdefault(a_key, a)

    frequent = [k for k, n in counts.items() if n >= config.min_response_freq]
    # dict order is insertion order, so equal frequencies keep the order
    # in which the responses were first seen.
    frequent.sort(key=lambda k: -counts[k])
    frequent = set(frequent[: config.top_k])

    candidates = []
    seen_questions = set()
    for q, _, q_key, a_key in rows:
        if q_key in class_keys or q_key in seen_questions:
            continue
        if a_key in frequent:
            seen_questions.add(q_key)
            # tokens hold no whitespace, so the key splits back into them
            reason = _prune_reason(q_key.split(), target, lex, config)
            candidates.append(Candidate(q, float(counts[a_key]), first_text[a_key], reason))
    return _queue(candidates)


def sample_negatives(
    pool,
    positive_sets,
    table: EmbeddingTable,
    lex: EmoticonLexicon,
    config: MiningConfig = MiningConfig(),
    n: int = 1,
    seed: int = 0,
) -> list:
    """Draw ``n`` pool utterances far from every positive utterance (all
    strings); ``positive_sets`` holds one list of utterances per class.

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
    positives = [u for group in positive_sets for u in group]
    eligible = []
    for start, _, sims in _similarities(pool, positives, table, lex):
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
    with columns utterance, score (``%g``, 6 significant digits), matched
    seed or response, and the pruning reason (empty for live candidates).
    A row that would not read back raises ValueError before the sink is
    opened, so nothing is written."""
    lines = []
    for cand in candidates:
        for text in (cand.utterance, cand.matched, cand.reason):
            if "\t" in text or "\n" in text:
                raise ValueError(f"judge queue fields may not hold tabs or newlines: {text!r}")
        line = f"{cand.utterance}\t{cand.score:g}\t{cand.matched}\t{cand.reason}"
        if line.lstrip().startswith("#") or line.endswith("\r"):
            raise ValueError(f"judge queue line would not read back: {line!r}")
        lines.append(line + "\n")
    with _open_write(sink) as fh:
        fh.writelines(lines)


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
