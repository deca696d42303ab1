"""
Why concatenating two channels beats either alone
=================================================

A small experiment on generated data.  Each utterance carries two
tokens: one that only the semantic table knows, one that only the
sentiment table knows, and the label is the parity of the two hidden
bits.  Either channel alone sees a coin flip; together they determine
the label exactly.  We train the same architecture three ways and
compare validation accuracy.
"""

import numpy as np

from sslstm.dataio import Conversation
from sslstm.embeddings import EmbeddingTable
from sslstm.neural import ModelConfig, batch_predict, init_model
from sslstm.text_norm import default_lexicon
from sslstm.training import TrainConfig, train

semantic = EmbeddingTable(dim=2, vectors={
    "sa0": np.array([5.0, 0.0]), "sa1": np.array([-5.0, 0.0]),
})
sentiment = EmbeddingTable(dim=2, vectors={
    "tb0": np.array([5.0, 0.0]), "tb1": np.array([-5.0, 0.0]),
})


lex = default_lexicon()


def make_split(per_pattern, start):
    data = []
    i = start
    for _ in range(per_pattern):
        for a in (0, 1):
            for b in (0, 1):
                label = "happy" if a == b else "sad"
                data.append(Conversation(f"x{i}", "t", "t", f"sa{a} tb{b}", label, lex=lex))
                i += 1
    return data


def accuracy(model, data):
    labels = batch_predict(model, [c.tokens for c in data])
    return float(np.mean([p == c.label for p, c in zip(labels, data)]))


train_set = make_split(10, 0)
val_set = make_split(5, 1000)
print(f"{len(train_set)} training / {len(val_set)} validation conversations")
print()

results = {}
for channels in ("semantic", "sentiment", "both"):
    model_config = ModelConfig(channels=channels, sem_hidden=8, sent_hidden=8,
                               fc_hidden=8, max_seq_len=4)
    train_config = TrainConfig(learning_rate=0.3, token_budget=16, max_epochs=200,
                               patience=40, seed=0, stop_when_train_accuracy=1.0)
    model = init_model(model_config, semantic, sentiment, seed=0)
    best, history = train(model, train_set, val_set, train_config)
    results[channels] = accuracy(best, val_set)
    print(f"channels={channels:<10} epochs={len(history.records):>3}  "
          f"val accuracy={results[channels]:.2f}")

print()
print("Single channels hover at chance (the label is independent of either")
print(f"bit alone); the concatenated model separates the task: "
      f"{results['both']:.0%} vs {results['semantic']:.0%}/{results['sentiment']:.0%}.")
