"""
Semi-automated training-data mining
===================================

Labeling emotional utterances by hand is expensive.  Three tricks cut
the judging queue down: (1) cosine-similarity mining against a few
labeled seeds, with cheap heuristic pruning; (2) harvesting questions
that drew the same stock response as known class members; (3) sampling
negatives that are far from every positive set.
"""

import io

import numpy as np

from sslstm.datamine import (
    MiningConfig,
    mine_by_response,
    mine_candidates,
    sample_negatives,
    write_judge_queue,
)
from sslstm.embeddings import EmbeddingTable
from sslstm.text_norm import default_lexicon

# A toy embedding space: one direction per topic.
rng = np.random.default_rng(0)
words = ["won", "lost", "game", "party", "cake", "rain", "delay", "train",
         "cat", "dog", "ok", "fine"]
table = EmbeddingTable(dim=6, vectors={w: rng.standard_normal(6) for w in words})
lex = default_lexicon()

# ---------------------------------------------------------------------------
# Technique 1: seeds -> similar pool utterances, then prune.

seeds = ["won the game", "party and cake"]
pool = [
    "won the game",            # identical to a seed
    "game won",                # same bag of words
    "party cake cake",
    "rain delay again",
    "party and cake :'(",      # similar but carries a sad emoticon
    "cat dog",
]
cfg = MiningConfig(threshold=0.7)
# With a target class, pruned candidates carry their reason and follow the live ones.
candidates = mine_candidates(seeds, pool, table, lex, cfg, target="happy")

print("judge queue for class 'happy' (utterance, score, matched seed, reason):")
queue = io.StringIO()
write_judge_queue(candidates, queue)
print(queue.getvalue())

# ---------------------------------------------------------------------------
# Technique 2: responses as a bridge.  "there, there" keeps answering
# known sad utterances, so other questions drawing it are candidates.

raw_pairs = [(f"i feel awful about it {i}", "There, there") for i in range(4)]
raw_pairs += [
    ("my cat ran away", "there ,  there"),
    ("train was late", "happens"),
    ("what time is it", "noon"),
]
class_utterances = {f"i feel awful about it {i}" for i in range(4)}
for cand in mine_by_response(raw_pairs, class_utterances, lex):
    print(f"technique 2 candidate: {cand.utterance!r} "
          f"(response {cand.matched!r} seen {cand.score:.0f} times)")
print()

# ---------------------------------------------------------------------------
# Negative sampling: pool items far from every positive set.

positives = {"happy": ["won the game", "party and cake"]}
negatives = sample_negatives(pool, positives, table, lex, cfg, n=2, seed=1)
print(f"sampled negatives: {negatives}")
