"""
Two embedding channels that disagree on purpose
===============================================

The classifier reads every utterance twice: once through *semantic*
word vectors (co-occurrence neighbours score high) and once through
*sentiment* word vectors (polarity neighbours score high).  This demo
builds two tiny hand-made tables that disagree the way real ones do,
and compares word-pair cosines side by side.
"""

import numpy as np

from sslstm.embeddings import EmbeddingTable, cosine, lookup, sentence_embedding
from sslstm.text_norm import default_lexicon, normalize_utterance

# Semantic axes: rough topics (emotion-talk, evaluation-talk).
# Sentiment axes: polarity (positive vs negative).
semantic = EmbeddingTable(dim=3, vectors={
    "depression": np.array([0.9, 0.1, 0.0]),
    ":'(":        np.array([0.2, 0.0, 0.9]),   # emoticons rarely co-occur with nouns
    "happy":      np.array([0.8, 0.3, 0.1]),
    "sad":        np.array([0.9, 0.2, 0.1]),   # topic neighbours of "happy"!
    "best":       np.array([0.1, 0.9, 0.1]),
    "great":      np.array([0.2, 0.9, 0.0]),
})
sentiment = EmbeddingTable(dim=2, vectors={
    "depression": np.array([-0.9, 0.2]),
    ":'(":        np.array([-0.8, 0.3]),       # same polarity as "depression"
    "happy":      np.array([0.9, 0.2]),
    "sad":        np.array([-0.9, 0.2]),       # opposite polarity to "happy"
    "best":       np.array([0.9, 0.4]),
    "great":      np.array([0.8, -0.1]),
})

pairs = [("depression", ":'("), ("happy", "sad"), ("best", "great")]
print(f"{'pair':<22}{'semantic':>10}{'sentiment':>11}")
for w1, w2 in pairs:
    sem_cos = cosine(lookup(semantic, w1), lookup(semantic, w2))
    sent_cos = cosine(lookup(sentiment, w1), lookup(sentiment, w2))
    print(f"{w1 + ', ' + w2:<22}{sem_cos:>10.2f}{sent_cos:>11.2f}")
print()
print("Neither table is right or wrong -- they answer different questions,")
print("which is exactly why the model consumes both.")
print()

# ---------------------------------------------------------------------------
# Sentence embeddings are mean-pooled word vectors; the mining stage
# scores whole utterances against labeled seeds this way.

lex = default_lexicon()
seed = "so happy today"
candidates = ["feeling great and happy", "best day", "depression again :'("]
seed_vec = sentence_embedding(sentiment, normalize_utterance(seed, lex))
print(f"sentiment-space similarity to seed {seed!r}:")
for cand in candidates:
    vec = sentence_embedding(sentiment, normalize_utterance(cand, lex))
    print(f"  {cosine(seed_vec, vec):+.3f}  {cand}")
