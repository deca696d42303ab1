"""Input generator for the sslstm benchmark.

Writes every input one workload needs, from a seed alone, one
subdirectory per part of the workload: conversation TSVs, both embedding
tables, a classifier checkpoint, the mining pool, seeds, positives and Q/A
pairs.  It runs in its own process so
the measured program sees only files and its memory high-water mark does
not include the generator.

Alongside each part's program inputs it writes ``manifest.json`` (command
parameters, input properties and the emoticon map) and ``truth.npz`` (the
exact vectors and weights written to the text files), which the
correctness checks use as their reference.

    python3 perfbench/gen.py --workload neural --seed 1 --out DIR [--scale tiny]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from reference import GATES, Vectors, cosine_matrix, pooled  # noqa: E402
from sslstm.labels import LABELS  # noqa: E402
from sslstm.text_norm import (  # noqa: E402
    default_lexicon,
    default_lexicon_sha256,
    normalize_utterance,
)
from workloads import PARTS, WORKLOADS  # noqa: E402

# Per-scale sizes.  "full" is what the benchmark measures; "tiny" keeps the
# smoke test to seconds.  Model dimensions are always the program defaults.
SIZES = {
    "full": {
        "word_types": 40000,
        "table_rows": 20000,
        "sem_dim": 100,
        "sent_dim": 50,
        "train_examples": 160,
        "val_examples": 30,
        "epochs": 1,
        "predict_conversations": 600,
        "pool_items": 1000,
        "seeds": 50,
        "negatives": 50,
        "qa_pairs": 2000,
        "class_utterances": 150,
        "baseline_examples": 1200,
        "svm_epochs": 10,
        "markers_per_class": 25,
        "stock_responses": 240,
    },
    "tiny": {
        "word_types": 600,
        "table_rows": 400,
        "sem_dim": 100,
        "sent_dim": 50,
        "train_examples": 12,
        "val_examples": 6,
        "epochs": 1,
        "predict_conversations": 20,
        "pool_items": 40,
        "seeds": 5,
        "negatives": 3,
        "qa_pairs": 60,
        "class_utterances": 10,
        "baseline_examples": 40,
        "svm_epochs": 2,
        "markers_per_class": 3,
        "stock_responses": 12,
    },
}

CLASS_SHARE = {"happy": 0.2, "sad": 0.2, "angry": 0.2, "others": 0.4}
MIN_LEN, MAX_LEN = 4, 20
PARAPHRASE_SHARE = 0.15  # share of the pool built from a seed, so it clears t1
T1_THRESHOLD = 0.8


def pseudo_words(n: int, rng: np.random.Generator) -> list[str]:
    """``n`` distinct lowercase letter-only words, shuffled by ``rng``.

    Letters exclude x and d so that no word is an emoticon form ("xd")."""
    consonants = "bcfghjklmnrstvwz"
    vowels = "aeiu"
    syllables = [c + v for c in consonants for v in vowels]
    base = len(syllables)
    words = []
    for i in range(n):
        parts = [syllables[i % base]]
        i //= base
        while True:
            parts.append(syllables[i % base])
            i //= base
            if i == 0:
                break
        words.append("".join(parts))
    order = rng.permutation(n)
    return [words[j] for j in order]


class Corpus:
    """Zipfian word source plus class markers and emoticons."""

    def __init__(self, rng: np.random.Generator, size: dict):
        self.rng = rng
        n_types = size["word_types"]
        m = size["markers_per_class"]
        words = pseudo_words(n_types + len(LABELS) * m, rng)
        self.words = words[:n_types]
        self.markers = {
            cls: words[n_types + k * m : n_types + (k + 1) * m] for k, cls in enumerate(LABELS)
        }
        ranks = np.arange(1, n_types + 1, dtype=np.float64)
        p = 1.0 / (ranks + 2.7)
        self.cdf = np.cumsum(p / p.sum())
        self.emoticons = emoticon_forms()

    def zipf_words(self, k: int) -> list[str]:
        idx = np.searchsorted(self.cdf, self.rng.random(k), side="right")
        return [self.words[min(int(i), len(self.words) - 1)] for i in idx]

    def utterance(self, cls: str, length: int) -> str:
        rng = self.rng
        tokens = self.zipf_words(length)
        # One marker in short turns, two in long ones; a tenth carry none.
        if rng.random() >= 0.1:
            for _ in range(1 + (length > 10)):
                markers = self.markers[cls]
                tokens[int(rng.integers(length))] = markers[int(rng.integers(len(markers)))]
        emo_class = "neutral" if cls == "others" else cls
        if rng.random() < (0.3 if cls == "others" else 0.4):
            forms = self.emoticons[emo_class]
            tokens[int(rng.integers(length))] = forms[int(rng.integers(len(forms)))]
        return " ".join(tokens)

    # Lengths and labels are fixed multisets in a seeded order, so every
    # seed gives the same token count and class mix: seeds vary the text,
    # not the amount of work.
    def lengths(self, n: int) -> list[int]:
        span = MAX_LEN - MIN_LEN + 1
        return [MIN_LEN + int(k) % span for k in self.rng.permutation(n)]

    def labels(self, n: int) -> list[str]:
        counts = [int(CLASS_SHARE[c] * n) for c in LABELS]
        for k in range(n - sum(counts)):
            counts[k % len(LABELS)] += 1
        labels = [c for c, m in zip(LABELS, counts) for _ in range(m)]
        return [labels[int(k)] for k in self.rng.permutation(n)]

    def utterances(self, classes: list[str]) -> list[str]:
        return [self.utterance(c, n) for c, n in zip(classes, self.lengths(len(classes)))]


def emoticon_forms() -> dict[str, list[str]]:
    """Raw lexicon forms by class that normalize to exactly one token."""
    lex = default_lexicon()
    forms: dict[str, list[str]] = {}
    for raw, canonical, cls in lex.entries:
        toks = normalize_utterance(f"a {raw} a", lex)
        if len(toks) == 3 and toks[1].surface == canonical:
            forms.setdefault(cls, []).append(raw)
    return forms


def canonical_map() -> dict[str, str]:
    return dict(default_lexicon().raw_to_canonical)


def write_conversations(path: Path, rows, corpus: Corpus, labeled: bool) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for conv_id, cls, text in rows:
            turn1 = " ".join(corpus.zipf_words(3))
            turn2 = " ".join(corpus.zipf_words(3))
            fields = [conv_id, turn1, turn2, text] + ([cls] if labeled else [])
            fh.write("\t".join(fields) + "\n")


def labeled_rows(corpus: Corpus, n: int, prefix: str):
    classes = corpus.labels(n)
    return [(f"{prefix}{i:06d}", cls, text)
            for i, (cls, text) in enumerate(zip(classes, corpus.utterances(classes)))]


def quantized(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    """Random values that are exact multiples of 1e-6, so ``%.6f`` text
    round-trips them bit for bit."""
    return np.round(rng.normal(0.0, scale, shape) * 1e6) / 1e6


def write_table(path: Path, vocab: list[str], vectors: np.ndarray) -> str:
    fmt = " ".join(["%.6f"] * vectors.shape[1])
    text = "".join(f"{w} {fmt % tuple(row)}\n" for w, row in zip(vocab, vectors.tolist()))
    data = text.encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def build_tables(corpus: Corpus, size: dict, out: Path, rng: np.random.Generator):
    """Both tables over the most frequent words, all markers and all
    canonical emoticons.  Marker vectors lean towards a class direction."""
    canon = sorted(set(canonical_map().values()))
    vocab = corpus.words[: size["table_rows"]] + [
        w for cls in LABELS for w in corpus.markers[cls]
    ] + canon
    arrays = {}
    for name, dim in (("semantic", size["sem_dim"]), ("sentiment", size["sent_dim"])):
        vecs = quantized(rng, (len(vocab), dim), 0.4)
        directions = quantized(rng, (len(LABELS), dim), 0.8)
        start, m = size["table_rows"], size["markers_per_class"]
        for k, cls in enumerate(LABELS):
            rows = slice(start + k * m, start + (k + 1) * m)
            vecs[rows] = np.round((vecs[rows] + directions[k]) * 1e6) / 1e6
        arrays[name] = vecs
    sha = {}
    sha["semantic"] = write_table(out / "semantic.txt", vocab, arrays["semantic"])
    sha["sentiment"] = write_table(out / "sentiment.txt", vocab, arrays["sentiment"])
    return vocab, arrays, sha


def tokens_of(text: str, canon: dict[str, str]) -> list[str]:
    return [canon.get(t, t) for t in text.split()]


def oov_share(texts, vocab_set, canon) -> float:
    total = oov = 0
    for text in texts:
        for tok in tokens_of(text, canon):
            total += 1
            oov += tok not in vocab_set
    return oov / max(total, 1)


HIDDEN = FC = 128  # the program's default model dimensions


def write_checkpoint(path: Path, size: dict, sha: dict, rng: np.random.Generator) -> dict:
    """A version-1 classifier checkpoint with random weights, written as
    the documented text format so it does not depend on the model code.
    Weights are exact multiples of 1e-6 and round-trip through the text."""
    def uniform(rows, cols):
        limit = 3.0 * np.sqrt(6.0 / (rows + cols))
        return np.round(rng.uniform(-limit, limit, (rows, cols)) * 1e6) / 1e6

    weights = {}
    for prefix, dim in (("sem", size["sem_dim"]), ("sent", size["sent_dim"])):
        for gate in GATES:
            weights[f"{prefix}_W_{gate}"] = uniform(HIDDEN, dim)
        for gate in GATES:
            weights[f"{prefix}_U_{gate}"] = uniform(HIDDEN, HIDDEN)
        for gate in GATES:
            weights[f"{prefix}_b_{gate}"] = quantized(rng, (1, HIDDEN), 0.1) + (gate == "f")
    weights["fc_W"] = uniform(FC, 2 * HIDDEN)
    weights["fc_b"] = quantized(rng, (1, FC), 0.1)
    weights["out_W"] = uniform(len(LABELS), FC)
    weights["out_b"] = quantized(rng, (1, len(LABELS)), 0.1)
    meta = {
        "model": "sslstm", "channels": "both", "fc_activation": "relu",
        "sem_hidden": HIDDEN, "sent_hidden": HIDDEN, "fc_hidden": FC, "max_seq_len": 50,
        "train_embeddings": 0, "sem_dim": size["sem_dim"], "sent_dim": size["sent_dim"],
        "sem_table_sha256": sha["semantic"], "sent_table_sha256": sha["sentiment"],
        "lexicon_sha256": default_lexicon_sha256(),
    }
    lines = ["SSLSTM-CKPT 1"] + [f"meta {k}={v}" for k, v in meta.items()]
    for name, mat in weights.items():
        lines.append(f"tensor {name} {mat.shape[0]} {mat.shape[1]}")
        lines.extend(" ".join(repr(v) for v in row) for row in mat.tolist())
    path.write_text("\n".join(lines + ["end"]) + "\n", encoding="utf-8")
    return weights


def gen_train(corpus, size, out, rng, manifest):
    train = labeled_rows(corpus, size["train_examples"], "t")
    val = labeled_rows(corpus, size["val_examples"], "v")
    write_conversations(out / "train.tsv", train, corpus, labeled=True)
    write_conversations(out / "val.tsv", val, corpus, labeled=True)
    write_conversations(out / "one.tsv", train[:1], corpus, labeled=True)
    manifest["params"].update(epochs=size["epochs"])
    return [t for _, _, t in train + val]


def gen_predict(corpus, size, out, rng, manifest, sha):
    rows = labeled_rows(corpus, size["predict_conversations"], "p")
    write_conversations(out / "conversations.tsv", rows, corpus, labeled=False)
    write_conversations(out / "one.tsv", rows[:1], corpus, labeled=False)
    return [t for _, _, t in rows], write_checkpoint(out / "model.ckpt", size, sha, rng)


def paraphrase(corpus: Corpus, seed_text: str) -> str:
    """A seed with one token swapped for a frequent word; its pooled vector
    stays close to the seed's."""
    tokens = seed_text.split()
    tokens[int(corpus.rng.integers(len(tokens)))] = corpus.zipf_words(1)[0]
    return " ".join(tokens)


def gen_mine(corpus, size, out, rng, manifest, vectors):
    seeds = corpus.utterances(["happy"] * size["seeds"])
    n_pool = size["pool_items"]
    n_para = round(PARAPHRASE_SHARE * n_pool)
    pool = [paraphrase(corpus, seeds[k % len(seeds)]) for k in range(n_para)]
    pool += corpus.utterances(corpus.labels(n_pool - n_para))
    pool = [pool[int(k)] for k in rng.permutation(n_pool)]
    positives = corpus.utterances(["sad"] * size["seeds"])
    pool_vecs = pooled(vectors, pool)
    best_seed = cosine_matrix(pool_vecs, pooled(vectors, seeds)).max(axis=1)
    best_positive = cosine_matrix(pool_vecs, pooled(vectors, seeds + positives)).max(axis=1)
    # The one-item pool of the set-up run must be eligible as a negative.
    one = [pool[int(np.flatnonzero(best_positive < T1_THRESHOLD - 0.05)[0])]]
    # Stock responses: each class draws from its own frequent subset.
    n_responses = size["stock_responses"]
    responses = [" ".join(corpus.zipf_words(int(rng.integers(2, 6)))) for _ in range(n_responses)]
    per_class = n_responses // len(LABELS)
    pairs = []
    classes = corpus.labels(size["qa_pairs"])
    for cls, question in zip(classes, corpus.utterances(classes)):
        k = LABELS.index(cls)
        if rng.random() < 0.7:
            answer = responses[k * per_class + min(int(rng.zipf(1.6)) - 1, per_class - 1)]
        else:
            answer = responses[int(rng.integers(n_responses))]
        pairs.append((question, answer, cls))
    class_utterances = [q for q, _, cls in pairs if cls == "happy"][: size["class_utterances"]]
    for name, lines in (
        ("seeds.txt", seeds),
        ("pool.txt", pool),
        ("one_pool.txt", one),
        ("positives_happy.txt", seeds),
        ("positives_sad.txt", positives),
        ("class_utterances.txt", class_utterances),
    ):
        (out / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    (out / "pairs.tsv").write_text("".join(f"{q}\t{a}\n" for q, a, _ in pairs), encoding="utf-8")
    (out / "one_pairs.tsv").write_text("".join(f"{q}\t{a}\n" for q, a, _ in pairs[:2]), encoding="utf-8")
    manifest["params"].update(threshold=T1_THRESHOLD, negatives=size["negatives"])
    manifest["properties"].update(
        pool_items=len(pool), seeds=len(seeds), qa_pairs=len(pairs),
        class_utterances=len(class_utterances),
        t1_candidate_share=round(float(np.mean(best_seed >= T1_THRESHOLD)), 4),
    )
    return pool + seeds + [q for q, _, _ in pairs]


def gen_baselines(corpus, size, out, rng, manifest):
    rows = labeled_rows(corpus, size["baseline_examples"], "b")
    write_conversations(out / "train.tsv", rows, corpus, labeled=True)
    write_conversations(out / "one.tsv", rows[:1], corpus, labeled=True)
    held_out = labeled_rows(corpus, max(size["baseline_examples"] // 4, 8), "h")
    write_conversations(out / "test.tsv", held_out, corpus, labeled=True)
    manifest["params"].update(svm_epochs=size["svm_epochs"])
    return [t for _, _, t in rows]


def generate(part: str, seed: int, out: Path, scale: str = "full") -> dict:
    """The inputs of one part into ``out``; returns its manifest."""
    if part not in PARTS:
        raise ValueError(f"unknown part {part!r}")
    size = SIZES[scale]
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, PARTS.index(part)])
    corpus = Corpus(rng, size)
    manifest = {"part": part, "seed": seed, "scale": scale, "params": {}, "properties": {}}
    canon = canonical_map()
    truth = {}
    vocab = None
    if part in ("train", "predict", "mine"):
        vocab, arrays, sha = build_tables(corpus, size, out, rng)
        truth["semantic"] = arrays["semantic"]
        truth["sentiment"] = arrays["sentiment"]
    if part == "train":
        texts = gen_train(corpus, size, out, rng, manifest)
    elif part == "predict":
        texts, weights = gen_predict(corpus, size, out, rng, manifest, sha)
        truth.update({f"w_{k}": v for k, v in weights.items()})
    elif part == "mine":
        vectors = Vectors(vocab, arrays["semantic"], canon)
        texts = gen_mine(corpus, size, out, rng, manifest, vectors)
    else:
        texts = gen_baselines(corpus, size, out, rng, manifest)

    props = manifest["properties"]
    lengths = [len(t.split()) for t in texts]
    props.update(
        utterances=len(texts),
        mean_tokens=round(float(np.mean(lengths)), 3),
        corpus_word_types=len(corpus.words),
        distinct_tokens=len({tok for t in texts for tok in tokens_of(t, canon)}),
    )
    if vocab is not None:
        props.update(
            table_rows=len(vocab),
            semantic_mb=round((out / "semantic.txt").stat().st_size / 1e6, 3),
            sentiment_mb=round((out / "sentiment.txt").stat().st_size / 1e6, 3),
            oov_token_share=round(oov_share(texts, set(vocab), canon), 4),
        )
        (out / "vocab.txt").write_text("".join(w + "\n" for w in vocab), encoding="utf-8")
    np.savez(out / "truth.npz", **truth)
    manifest["canonical"] = canon
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)
    for part in WORKLOADS[args.workload]:
        generate(part, args.seed, Path(args.out) / part, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
