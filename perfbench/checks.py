"""Correctness checks, one per workload part, run after the measured commands.

Each check returns a :class:`Outcome`: operations attempted, operations
failed and a message per failure.  An operation is a command, a labeled
conversation or a scored pool item.  The checks run in the harness
process, untimed.
"""

from __future__ import annotations

import contextlib
import io
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import Vectors, classify, cosine_matrix, pooled
from sslstm.labels import LABELS
MACRO_F1_FLOOR = 0.5  # chance is 0.25 on four classes
PREDICT_SAMPLE = 40
SCORE_TOLERANCE = 1e-5  # queue scores are printed with 6 significant digits


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str, ops: int = 1) -> None:
        """Count ``ops`` attempted operations; a failed check fails at least one."""
        self.attempted += ops
        if not ok:
            self.fail(max(ops, 1), message)

    def fail(self, n: int, message: str) -> None:
        if n:
            self.failed += n
            self.messages.append(message)


def run_cli(argv) -> tuple[int, str]:
    """Run one command in this process; returns (exit code, stdout+stderr)."""
    from sslstm import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _vectors(inputs: Path, manifest: dict, table: str) -> Vectors:
    vocab = _lines(inputs / "vocab.txt")
    truth = np.load(inputs / "truth.npz")
    return Vectors(vocab, truth[table], manifest["canonical"])


def check_train(inputs: Path, outputs: Path, manifest: dict, commands) -> Outcome:
    out = Outcome()
    epochs = manifest["params"]["epochs"]
    for cmd in commands:
        out.expect(cmd["code"] == 0, f"train exited {cmd['code']}: {cmd['stderr'][-300:]}")
        m = re.search(r"epochs run: (\d+)", cmd["stdout"])
        out.expect(bool(m) and int(m.group(1)) == epochs,
                   f"expected {epochs} epochs, report says {m.group(1) if m else 'nothing'}")
    code, text = run_cli(["gradcheck", "--channels", "both"])
    out.expect(code == 0, f"gradcheck failed: {text[-300:]}")
    # Loading also rejects non-finite weights.
    from sslstm.training import load_checkpoint

    try:
        load_checkpoint(str(outputs / "model.ckpt"))
        problem = ""
    except (OSError, ValueError) as exc:
        problem = str(exc)
    out.expect(not problem, f"saved checkpoint does not load: {problem}")
    return out


def check_predict(inputs: Path, outputs: Path, manifest: dict, commands) -> Outcome:
    out = Outcome()
    for cmd in commands:
        out.expect(cmd["code"] == 0, f"predict exited {cmd['code']}: {cmd['stderr'][-300:]}")
    rows = [line.split("\t") for line in _lines(inputs / "conversations.tsv")]
    path = outputs / "predictions.tsv"
    got = [line.split("\t") for line in _lines(path)] if path.exists() else []
    ok = [k < len(got) and len(got[k]) == 2 and got[k][0] == row[0] and got[k][1] in LABELS
          for k, row in enumerate(rows)]
    for k, row in enumerate(rows):
        out.expect(ok[k], f"row {k}: expected a label for {row[0]}, got {got[k:k + 1]}")
    out.expect(len(got) == len(rows), f"{len(got)} output rows for {len(rows)} conversations", ops=0)

    truth = np.load(inputs / "truth.npz")
    weights = {k: truth[k] for k in truth.files if k.startswith("w_")}
    semantic = _vectors(inputs, manifest, "semantic")
    sentiment = _vectors(inputs, manifest, "sentiment")
    step = max(len(rows) // PREDICT_SAMPLE, 1)
    for k in range(0, len(rows), step):
        probs = classify(weights, semantic, sentiment, rows[k][3], max_len=50)
        top2 = np.sort(probs)[-2:]
        if top2[1] - top2[0] < 1e-9 or not ok[k]:
            continue  # a near tie may break either way under reordered sums
        expected = LABELS[int(np.argmax(probs))]
        out.expect(got[k][1] == expected,
                   f"{rows[k][0]}: predicted {got[k][1]}, reference forward gives {expected}", ops=0)
    return out


def _queue(path: Path) -> list[tuple[str, float, str, str]]:
    rows = []
    for line in _lines(path):
        text, score, matched, *reason = line.split("\t")
        rows.append((text, float(score), matched, reason[0] if reason else ""))
    return rows


def check_mine(inputs: Path, outputs: Path, manifest: dict, commands) -> Outcome:
    out = Outcome()
    for cmd in commands:
        out.expect(cmd["code"] == 0,
                   f"mine {cmd['argv'][2]} exited {cmd['code']}: {cmd['stderr'][-300:]}")
    threshold = manifest["params"]["threshold"]
    vectors = _vectors(inputs, manifest, "semantic")
    pool = _lines(inputs / "pool.txt")
    seeds = _lines(inputs / "seeds.txt")
    pool_vecs = pooled(vectors, pool)
    best = cosine_matrix(pool_vecs, pooled(vectors, seeds)).max(axis=1)
    score_of = dict(zip(pool, best))

    # t1: every pool item is scored; the queue holds exactly those at or
    # above the threshold, kept then pruned, each part sorted by score.
    queue = _queue(outputs / "t1.tsv") if (outputs / "t1.tsv").exists() else []
    expected = Counter(t for t, s in zip(pool, best) if s >= threshold + 1e-9)
    borderline = {t for t, s in zip(pool, best) if abs(s - threshold) <= 1e-9}
    got = Counter(t for t, *_ in queue if t not in borderline)
    out.attempted += len(pool)
    out.fail(sum((expected - got).values()), "t1 misses pool items above the threshold")
    out.fail(sum((got - expected).values()), "t1 lists items the reference scores below it")
    for part in ("", "pruned"):
        scores = [s for _, s, _, r in queue if bool(r) == bool(part)]
        out.expect(all(a >= b for a, b in zip(scores, scores[1:])),
                   f"t1 {part or 'kept'} candidates are not sorted by score", ops=0)
    for text, score, _, _ in queue:
        ref = score_of.get(text)
        ok = score >= threshold and ref is not None and abs(score - ref) <= SCORE_TOLERANCE
        out.expect(ok, f"t1 score {score} of {text!r} vs reference {ref}", ops=0)

    # neg: the requested number of pool items, each below the threshold to
    # every positive utterance.
    positives = _lines(inputs / "positives_happy.txt") + _lines(inputs / "positives_sad.txt")
    worst = cosine_matrix(pool_vecs, pooled(vectors, positives)).max(axis=1)
    eligible = {t for t, s in zip(pool, worst) if s < threshold}
    negatives = _lines(outputs / "neg.txt") if (outputs / "neg.txt").exists() else []
    out.expect(len(negatives) == manifest["params"]["negatives"],
               f"neg returned {len(negatives)} items", ops=0)
    out.attempted += len(pool)
    out.fail(sum(t not in eligible for t in negatives), "neg drew items too close to a positive")

    # t2: each candidate is a question of the pairs file outside the class.
    questions = {line.split("\t")[0] for line in _lines(inputs / "pairs.tsv")}
    known = set(_lines(inputs / "class_utterances.txt"))
    rows = _queue(outputs / "t2.tsv") if (outputs / "t2.tsv").exists() else []
    out.expect(bool(rows), "t2 found no candidates", ops=0)
    for text, *_ in rows:
        out.expect(text in questions and text not in known, f"t2 candidate {text!r} is not new")
    return out


def _macro_f1(text: str) -> float | None:
    m = re.search(r"macro-F1 \(happy/sad/angry\): ([0-9.]+)", text)
    return float(m.group(1)) if m else None


def check_baselines(inputs: Path, outputs: Path, manifest: dict, commands) -> Outcome:
    out = Outcome()
    for cmd in commands:
        out.expect(cmd["code"] == 0,
                   f"{' '.join(cmd['argv'][:3])} exited {cmd['code']}: {cmd['stderr'][-300:]}")
    path = outputs / "eval_svm.txt"
    svm_text = path.read_text(encoding="utf-8") if path.exists() else ""
    code, nb_text = run_cli(["eval", "--model", str(outputs / "nb.model"),
                             "--data", str(inputs / "test.tsv")])
    out.expect(code == 0, f"eval of nb exited {code}")
    out.expect("McNemar statistic" in svm_text, "eval --compare-model printed no McNemar test")
    for name, text in (("svm", svm_text), ("nb", nb_text)):
        f1 = _macro_f1(text)
        out.expect(f1 is not None and f1 >= MACRO_F1_FLOOR,
                   f"{name} macro-F1 {f1} is below the floor {MACRO_F1_FLOOR}")
    return out


CHECKS = {
    "train": check_train,
    "predict": check_predict,
    "mine": check_mine,
    "baselines": check_baselines,
}
