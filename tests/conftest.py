import os
from pathlib import Path

import numpy as np
import pytest

from sslstm.embeddings import EmbeddingTable
from sslstm.neural import batch_backward, batch_forward
from sslstm.text_norm import default_lexicon

ROOT = Path(__file__).resolve().parent.parent

# The lexicon every test passes where the program takes one.
LEX = default_lexicon()


def src_env() -> dict[str, str]:
    """The current environment with the repository's ``src`` first on
    PYTHONPATH, for subprocesses that import sslstm without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture(scope="session")
def lexicon():
    return LEX


def make_table(vocab, dim=None, seed=0):
    """Embedding table with seeded random unit-scale vectors."""
    rng = np.random.default_rng(seed)
    dim = dim or 4
    vectors = {tok: rng.standard_normal(dim) for tok in vocab}
    return EmbeddingTable(dim=dim, vectors=vectors)


def probs_of(model, tokens):
    """Class probabilities of one token sequence, run as a batch of one."""
    return batch_forward(model, [tokens])[0][0]


def example_gradients(model, tokens, target):
    """Cross-entropy gradients of one (tokens, target) example, run as a
    batch of one: the logit gradient is probs - onehot(target)."""
    probs, cache = batch_forward(model, [tokens])
    dlogits = probs.copy()
    dlogits[0, target] -= 1.0
    return batch_backward(model, cache, dlogits)


@pytest.fixture
def tiny_tables():
    vocab = ["good", "bad", "mad", "meh", "a", "b", "c", ":)", ":(", ">:(", ":|"]
    return (
        make_table(vocab, dim=5, seed=11),
        make_table(vocab, dim=3, seed=22),
    )
