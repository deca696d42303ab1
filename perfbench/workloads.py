"""The benchmark workloads: the commands each runs, on which generated files.

A workload is a fixed sequence of parts, and a part is one user's job on the
``sslstm`` tool:

- ``neural``: ``train`` (the researcher trains the dual-channel LSTM) then
  ``predict`` (the labeler runs a checkpoint over a conversation file), the
  writes and the reads path of the ``neural`` layer;
- ``text``: ``mine`` (the curator mines an unlabeled pool) then
  ``baselines`` (NB and SVM trained and compared), the text-processing,
  mining and baseline layers with no LSTM at all.

Every command is an argv for ``sslstm.cli.main``, run the way a user runs
the ``sslstm`` tool, on files the generator wrote.  For each part ``setup``
is the same command sequence on a one-item input; ``measure`` is the
measured run; ``timed`` marks the commands whose wall time counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WORKLOADS = {
    "neural": ("train", "predict"),
    "text": ("mine", "baselines"),
}
PARTS = ("train", "predict", "mine", "baselines")

# What an item is, per part; each run prints the part's rate under this name.
ITEM_METRIC = {
    "train": "train_ex_per_s",
    "predict": "predict_conv_per_s",
    "mine": "mine_items_per_s",
    "baselines": "baseline_ex_per_s",
}


@dataclass
class Plan:
    setup: list[list[str]]
    measure: list[list[str]]
    timed: list[int]
    items: int


def _count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def plan(part: str, inputs: Path, outputs: Path, manifest: dict) -> Plan:
    i = lambda name: str(inputs / name)  # noqa: E731
    o = lambda name: str(outputs / name)  # noqa: E731
    params = manifest["params"]
    seed = str(manifest["seed"])
    tables = ["--semantic-emb", i("semantic.txt"), "--sentiment-emb", i("sentiment.txt")]

    if part == "train":
        epochs = str(params["epochs"])

        def train(data, val, epochs, model):
            return ["train", "--train", data, "--val", val, "--model", model, *tables,
                    "--channels", "both", "--epochs", epochs, "--patience", epochs,
                    "--seed", seed]

        return Plan(
            setup=[train(i("one.tsv"), i("one.tsv"), "1", o("setup.ckpt"))],
            measure=[train(i("train.tsv"), i("val.tsv"), epochs, o("model.ckpt"))],
            timed=[0],
            items=_count_lines(inputs / "train.tsv") * params["epochs"],
        )

    if part == "predict":
        def predict(data, output):
            return ["predict", "--model", i("model.ckpt"), "--data", data, *tables,
                    "--output", output]

        return Plan(
            setup=[predict(i("one.tsv"), o("setup.tsv"))],
            measure=[predict(i("conversations.tsv"), o("predictions.tsv"))],
            timed=[0],
            items=_count_lines(inputs / "conversations.tsv"),
        )

    if part == "mine":
        def mine(pool, pairs, n, prefix):
            return [
                ["mine", "--mode", "t1", "--seeds", i("seeds.txt"), "--pool", pool,
                 "--emb", i("semantic.txt"), "--target", "happy",
                 "--threshold", str(params["threshold"]), "--output", o(prefix + "t1.tsv")],
                ["mine", "--mode", "neg", "--pool", pool, "--emb", i("semantic.txt"),
                 "--positives", i("positives_happy.txt"), "--positives", i("positives_sad.txt"),
                 "--threshold", str(params["threshold"]), "--n", str(n), "--seed", seed,
                 "--output", o(prefix + "neg.txt")],
                ["mine", "--mode", "t2", "--pairs", pairs,
                 "--class-utterances", i("class_utterances.txt"), "--target", "happy",
                 "--output", o(prefix + "t2.tsv")],
            ]

        pool = _count_lines(inputs / "pool.txt")
        return Plan(
            setup=mine(i("one_pool.txt"), i("one_pairs.tsv"), 1, "setup_"),
            measure=mine(i("pool.txt"), i("pairs.tsv"), params["negatives"], ""),
            timed=[0, 1, 2],
            items=2 * pool + _count_lines(inputs / "pairs.tsv"),
        )

    if part == "baselines":
        def fit(data, prefix):
            return [
                ["train", "--algo", "nb", "--train", data, "--model", o(prefix + "nb.model")],
                ["train", "--algo", "svm", "--train", data, "--model", o(prefix + "svm.model"),
                 "--epochs", str(params["svm_epochs"]), "--seed", seed],
            ]

        evaluate = ["eval", "--model", o("svm.model"), "--compare-model", o("nb.model"),
                    "--data", i("test.tsv"), "--output", o("eval_svm.txt")]
        return Plan(
            setup=fit(i("one.tsv"), "setup_"),
            measure=fit(i("train.tsv"), "") + [evaluate],
            timed=[0, 1],
            items=_count_lines(inputs / "train.tsv"),
        )

    raise ValueError(f"unknown part {part!r}")
