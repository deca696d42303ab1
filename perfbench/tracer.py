"""Span recorder for the traced benchmark run.

The recorder wraps public functions at the module attribute each caller
resolves at call time (``sslstm.training.ss_forward``,
``sslstm.cli.load_embedding_file``, ...), so the program itself is not
edited.  Every call becomes a span: name, start, end, parent span and the id
of the CLI command it belongs to, plus a few counts taken from the
arguments or the result.  Spans stay in memory until :meth:`Tracer.write`.

A target that no longer exists (a later change removed or renamed it) is
reported in :attr:`Tracer.absent` instead of failing the run.
:func:`layer_metrics` turns a span file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

# Model dimensions used by the computed counts (FLOPs, gradient bytes).
# They are the program defaults, which every workload runs with.
DIMS = {"sem_dim": 100, "sent_dim": 50, "hidden": 128, "fc": 128, "classes": 4}


def _n_result(args, kwargs, result):
    return {"n": len(result)}


def _table_load(args, kwargs, result):
    source = args[0] if args else kwargs.get("source")
    size = os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0
    return {"rows": len(result), "bytes": size}


def _forward(args, kwargs, result):
    model, tokens = args[0], args[1]
    max_len = getattr(getattr(model, "config", None), "max_seq_len", len(tokens))
    return {"tokens": min(len(tokens), max_len)}


def _backward(args, kwargs, result):
    cache = args[1] if len(args) > 1 else kwargs.get("cache")
    return {"tokens": len(getattr(cache, "tokens", ()))}


def _train_result(args, kwargs, result):
    history = result[1] if isinstance(result, tuple) and len(result) > 1 else None
    return {"epochs": len(getattr(history, "records", ()))}


def _batches(args, kwargs, result):
    max_len = args[3] if len(args) > 3 else kwargs.get("max_len")
    tokens = 0
    for batch in result:
        for conv in batch:
            n = len(conv.tokens)
            tokens += min(n, max_len) if max_len is not None else n
    return {"n": len(result), "examples": sum(len(b) for b in result), "tokens": tokens}


def _checkpoint_size(args, kwargs, result):
    sink = args[2] if len(args) > 2 else kwargs.get("sink")
    size = os.path.getsize(sink) if isinstance(sink, (str, os.PathLike)) else 0
    return {"bytes": size}


def _baseline_model(args, kwargs, result):
    dataset = args[0] if args else kwargs.get("dataset", ())
    return {"n": len(dataset), "vocab": len(getattr(result, "vocab", ()))}


def _mined(args, kwargs, result):
    pool = args[1] if len(args) > 1 else kwargs.get("pool", ())
    return {"n": len(result), "of": len(pool)}


def _pruned(args, kwargs, result):
    kept, removed = result
    return {"n": len(removed), "of": len(kept) + len(removed)}


# (module, attribute, span name, details from (args, kwargs, result))
TARGETS = [
    ("sslstm.text_norm", "normalize_utterance", "text_norm.normalize", _n_result),
    ("sslstm.dataio", "normalize_utterance", "text_norm.normalize", _n_result),
    ("sslstm.datamine", "normalize_utterance", "text_norm.normalize", _n_result),
    ("sslstm.cli", "normalize_utterance", "text_norm.normalize", _n_result),
    ("sslstm.cli", "read_dataset", "dataio.read_dataset", _n_result),
    ("sslstm.cli", "load_embedding_file", "embeddings.load", _table_load),
    ("sslstm.datamine", "sentence_embedding", "embeddings.sentence_embedding", None),
    ("sslstm.datamine", "cosine", "embeddings.cosine", None),
    ("sslstm.cli", "cosine", "embeddings.cosine", None),
    ("sslstm.neural", "ss_forward", "neural.forward", _forward),
    ("sslstm.training", "ss_forward", "neural.forward", _forward),
    ("sslstm.neural", "lstm_forward", "neural.lstm_forward", None),
    ("sslstm.training", "ss_backward", "neural.backward", _backward),
    ("sslstm.cli", "predict", "neural.predict", None),
    ("sslstm.training", "predict", "neural.predict", None),
    ("sslstm.cli", "train", "training.train", _train_result),
    ("sslstm.training", "make_batches", "training.make_batches", _batches),
    ("sslstm.training", "sgd_step", "training.sgd_step", None),
    ("sslstm.training", "clone_model", "training.clone_model", None),
    ("sslstm.cli", "save_checkpoint", "training.save_checkpoint", _checkpoint_size),
    ("sslstm.cli", "load_checkpoint", "training.load_checkpoint", None),
    ("sslstm.baselines", "extract_features", "baselines.extract_features", None),
    ("sslstm.cli", "extract_features", "baselines.extract_features", None),
    ("sslstm.cli", "nb_train", "baselines.nb_train", _baseline_model),
    ("sslstm.cli", "svm_train", "baselines.svm_train", _baseline_model),
    ("sslstm.baselines", "svm_fit_vectors", "baselines.svm_fit", None),
    ("sslstm.cli", "nb_predict", "baselines.predict", None),
    ("sslstm.cli", "svm_predict", "baselines.predict", None),
    ("sslstm.cli", "evaluate", "metrics.evaluate", None),
    ("sslstm.cli", "mcnemar", "metrics.mcnemar", None),
    ("sslstm.cli", "mine_candidates", "datamine.mine_candidates", _mined),
    ("sslstm.cli", "prune_heuristics", "datamine.prune", _pruned),
    ("sslstm.cli", "sample_negatives", "datamine.sample_negatives", None),
    ("sslstm.cli", "mine_by_response", "datamine.mine_by_response", None),
    ("sslstm.cli", "make_qa_pairs", "datamine.make_qa_pairs", _n_result),
]

# Counted per call but not timed: too frequent for a span each.
LOOKUP_TARGETS = [("sslstm.neural", "lookup"), ("sslstm.cli", "lookup")]


class Tracer:
    """In-memory spans with parent links; install() wraps TARGETS."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, command, details]
        self.stack: list[int] = []
        self.command = -1
        self.absent: list[str] = []
        self.lookups: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # table -> [calls, oov]
        self._installed: list[tuple[object, str, object]] = []
        self._models: list[object] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.command, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def begin_command(self, name: str) -> int:
        self.command += 1
        return self.open(f"cli.{name}")

    # -- wrapping ---------------------------------------------------------
    def install(self) -> None:
        for module_name, attr, span, details in TARGETS:
            self._patch(module_name, attr, lambda fn, s=span, d=details: self._wrap(fn, s, d))
        for module_name, attr in LOOKUP_TARGETS:
            self._patch(module_name, attr, self._wrap_lookup)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _patch(self, module_name: str, attr: str, make_wrapper) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(f"{module_name}.{attr}")
            return
        self._installed.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def _wrap(self, fn, span: str, details):
        tracer = self
        channel_split = span == "neural.lstm_forward"
        is_forward = span == "neural.forward"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span
            if channel_split:
                name = f"{span}.{tracer._channel(args[0] if args else kwargs.get('params'))}"
            idx = tracer.open(name)
            if is_forward:
                tracer._models.append(args[0] if args else kwargs.get("model"))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if is_forward:
                    tracer._models.pop()
            if details is not None:
                try:
                    tracer.spans[idx][5] = details(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # The traced function changed shape; its counts read 0.
                    if f"{span} details" not in tracer.absent:
                        tracer.absent.append(f"{span} details")
            return result

        return wrapper

    def _channel(self, params) -> str:
        model = self._models[-1] if self._models else None
        if model is not None and params is getattr(model, "sem", None):
            return "semantic"
        if model is not None and params is getattr(model, "sent", None):
            return "sentiment"
        return "unknown"

    def _wrap_lookup(self, fn):
        lookups = self.lookups

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if len(args) == 2:
                table, token = args
                counts = lookups[getattr(table, "name", "") or "unnamed"]
                counts[0] += 1
                if getattr(token, "surface", token) not in getattr(table, "vectors", {}):
                    counts[1] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output -----------------------------------------------------------
    def write(self, path: str) -> None:
        """Spans as JSON lines, then one summary line with the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, command, details in self.spans:
                fh.write(json.dumps([name, start, end, parent, command, details]) + "\n")
            fh.write(json.dumps({"lookups": dict(self.lookups), "absent": self.absent}) + "\n")


def read_spans(path: str):
    spans = []
    summary = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if isinstance(record, dict):
                summary = record
            else:
                spans.append(record)
    return spans, summary


# Per-layer metric names with their units and direction.  Every traced run
# prints all of them; one a workload never reaches reads 0 and is listed
# as absent.  The comments name the end-to-end metric each group should
# move, and on which workload.
PER_LAYER = [
    # pipeline_s on text (mine and baselines); a few % at most on neural.
    ("text_norm.normalize_calls", "count", "lower"),
    ("text_norm.tokens", "count", "higher"),
    ("text_norm.normalize_s", "s", "lower"),
    # pipeline_s on neural (its predict part), slightly.
    ("dataio.read_dataset_s", "s", "lower"),
    ("dataio.conversations", "count", "higher"),
    # setup_s on neural and text.
    ("embeddings.load_s", "s", "lower"),
    ("embeddings.load_rows", "count", "higher"),
    ("embeddings.load_mb", "MB", "lower"),
    # Input properties and the useful share of lookups, not speeds.
    ("embeddings.lookup_calls", "count", "lower"),
    ("embeddings.oov_ratio.semantic", "ratio", "lower"),
    ("embeddings.oov_ratio.sentiment", "ratio", "lower"),
    # pipeline_s on text (its mine part) only.
    ("embeddings.sentence_embedding_calls", "count", "lower"),
    ("embeddings.sentence_embedding_s", "s", "lower"),
    ("embeddings.cosine_calls", "count", "lower"),
    ("embeddings.cosine_s", "s", "lower"),
    # pipeline_s on neural (train and predict); no change on text.
    ("neural.forward_calls", "count", "lower"),
    ("neural.forward_tokens", "count", "higher"),
    ("neural.forward_s", "s", "lower"),
    ("neural.lstm_forward_s.semantic", "s", "lower"),
    ("neural.lstm_forward_s.sentiment", "s", "lower"),
    ("neural.predict_calls", "count", "lower"),
    ("neural.predict_s", "s", "lower"),
    # pipeline_s on neural (its train part) only.
    ("neural.backward_calls", "count", "lower"),
    ("neural.backward_s", "s", "lower"),
    # Computed from the default dimensions and the tokens run, not counted;
    # the rates pair them with forward_s and backward_s.
    ("neural.forward_gflop", "GFLOP", "lower"),
    ("neural.backward_gflop", "GFLOP", "lower"),
    ("neural.forward_gflop_per_s", "GFLOP/s", "higher"),
    ("neural.backward_gflop_per_s", "GFLOP/s", "higher"),
    # pipeline_s on neural (train).  eval_predict_* are the predict spans whose
    # parent is train (validation and training-accuracy passes).
    ("training.train_s", "s", "lower"),
    ("training.epochs", "count", "higher"),
    ("training.make_batches_s", "s", "lower"),
    ("training.batches", "count", "lower"),
    ("training.batch_examples_mean", "count", "higher"),
    ("training.batch_tokens_mean", "count", "higher"),
    ("training.sgd_step_calls", "count", "lower"),
    ("training.sgd_step_s", "s", "lower"),
    ("training.clone_model_s", "s", "lower"),
    ("training.eval_predict_calls", "count", "lower"),
    ("training.eval_predict_s", "s", "lower"),
    # Computed: examples per batch x bytes of one gradient; peak_rss_mb on neural.
    ("training.grad_mb_per_batch", "MB", "lower"),
    # Save: pipeline_s on neural (train).  Load: setup_s on neural (predict).
    ("training.save_checkpoint_s", "s", "lower"),
    ("training.checkpoint_mb", "MB", "lower"),
    ("training.load_checkpoint_s", "s", "lower"),
    # pipeline_s and peak_rss_mb on text (baselines); svm_dense_mb is computed as
    # examples x (vocabulary + 3) x 8 bytes.
    ("baselines.extract_features_calls", "count", "lower"),
    ("baselines.extract_features_s", "s", "lower"),
    ("baselines.nb_train_s", "s", "lower"),
    ("baselines.svm_train_s", "s", "lower"),
    ("baselines.svm_fit_s", "s", "lower"),
    ("baselines.vocab_size", "count", "higher"),
    ("baselines.svm_dense_mb", "MB", "lower"),
    ("baselines.predict_s", "s", "lower"),
    # Cheap today; kept so that a regression shows.
    ("metrics.evaluate_s", "s", "lower"),
    ("metrics.mcnemar_s", "s", "lower"),
    # pipeline_s on text (mine).
    ("datamine.mine_candidates_s", "s", "lower"),
    ("datamine.kept_ratio", "ratio", "higher"),
    ("datamine.prune_s", "s", "lower"),
    ("datamine.pruned_ratio", "ratio", "lower"),
    ("datamine.sample_negatives_s", "s", "lower"),
    ("datamine.mine_by_response_s", "s", "lower"),
    ("datamine.qa_pairs", "count", "higher"),
    # Whole commands; self_s is their time outside every traced call, the
    # file I/O and formatting share of each workload.
    ("cli.train_s", "s", "lower"),
    ("cli.predict_s", "s", "lower"),
    ("cli.mine_s", "s", "lower"),
    ("cli.eval_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    # Cost of the tracing itself: traced minus untraced wall time.
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _forward_flop(tokens: int) -> float:
    """Multiply-adds x2 of one dual-channel forward over ``tokens`` steps,
    per call overhead (FC and output layers) counted separately."""
    h = DIMS["hidden"]
    per_token = sum(8 * h * (d + h) for d in (DIMS["sem_dim"], DIMS["sent_dim"]))
    return per_token * tokens


def _head_flop() -> float:
    return 2 * DIMS["fc"] * 2 * DIMS["hidden"] + 2 * DIMS["classes"] * DIMS["fc"]


def _backward_flop(tokens: int) -> float:
    # Weight gradients (outer products) plus the recurrent dh term.
    h = DIMS["hidden"]
    per_token = sum(8 * h * (d + h) + 8 * h * h for d in (DIMS["sem_dim"], DIMS["sent_dim"]))
    return per_token * tokens


def gradient_bytes() -> int:
    """Bytes of one full parameter gradient at the default dimensions."""
    h, fc = DIMS["hidden"], DIMS["fc"]
    params = sum(4 * h * (d + h) + 4 * h for d in (DIMS["sem_dim"], DIMS["sent_dim"]))
    params += fc * 2 * h + fc + DIMS["classes"] * fc + DIMS["classes"]
    return 8 * params


def layer_metrics(spans, summary) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from recorded spans; returns (values, absent names).

    A metric is absent when the span or counter it is computed from was
    never recorded, whether the workload does not reach that layer or the
    traced function no longer exists."""
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    detail: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    child_time: dict[int, float] = defaultdict(float)
    eval_calls, eval_s = 0, 0.0
    for name, start, end, parent, _command, details in spans:
        count[name] += 1
        total[name] += end - start
        if parent >= 0:
            child_time[parent] += end - start
            if name == "neural.predict" and spans[parent][0] == "training.train":
                eval_calls += 1
                eval_s += end - start
        for key, value in (details or {}).items():
            detail[name][key] += value
    cli_self = sum(
        (span[2] - span[1]) - child_time[i]
        for i, span in enumerate(spans)
        if span[3] < 0 and span[0].startswith("cli.")
    )
    count["training.eval_predict"] = eval_calls
    lookups = summary.get("lookups", {})
    count["embeddings.lookup"] = sum(calls for calls, _ in lookups.values())

    def ratio(a, b):
        return a / b if b else 0.0

    def oov(table):
        calls, missing = lookups.get(table, (0, 0))
        count[f"embeddings.lookup.{table}"] = calls
        return ratio(missing, calls)

    batches = detail["training.make_batches"]
    examples_mean = ratio(batches["examples"], batches["n"])
    fwd_tokens = detail["neural.forward"]["tokens"]
    bwd_tokens = detail["neural.backward"]["tokens"]
    fwd_gflop = (_forward_flop(fwd_tokens) + _head_flop() * count["neural.forward"]) / 1e9
    bwd_gflop = (_backward_flop(bwd_tokens) + 2 * _head_flop() * count["neural.backward"]) / 1e9
    svm = detail["baselines.svm_train"]
    mined = detail["datamine.mine_candidates"]
    pruned = detail["datamine.prune"]

    # metric -> (span or counter it comes from, value)
    table = {
        "text_norm.normalize_calls": ("text_norm.normalize", count["text_norm.normalize"]),
        "text_norm.tokens": ("text_norm.normalize", detail["text_norm.normalize"]["n"]),
        "text_norm.normalize_s": ("text_norm.normalize", total["text_norm.normalize"]),
        "dataio.read_dataset_s": ("dataio.read_dataset", total["dataio.read_dataset"]),
        "dataio.conversations": ("dataio.read_dataset", detail["dataio.read_dataset"]["n"]),
        "embeddings.load_s": ("embeddings.load", total["embeddings.load"]),
        "embeddings.load_rows": ("embeddings.load", detail["embeddings.load"]["rows"]),
        "embeddings.load_mb": ("embeddings.load", detail["embeddings.load"]["bytes"] / 1e6),
        "embeddings.lookup_calls": ("embeddings.lookup", count["embeddings.lookup"]),
        "embeddings.oov_ratio.semantic": ("embeddings.lookup.semantic", oov("semantic")),
        "embeddings.oov_ratio.sentiment": ("embeddings.lookup.sentiment", oov("sentiment")),
        "embeddings.sentence_embedding_calls": (
            "embeddings.sentence_embedding", count["embeddings.sentence_embedding"]),
        "embeddings.sentence_embedding_s": (
            "embeddings.sentence_embedding", total["embeddings.sentence_embedding"]),
        "embeddings.cosine_calls": ("embeddings.cosine", count["embeddings.cosine"]),
        "embeddings.cosine_s": ("embeddings.cosine", total["embeddings.cosine"]),
        "neural.forward_calls": ("neural.forward", count["neural.forward"]),
        "neural.forward_tokens": ("neural.forward", fwd_tokens),
        "neural.forward_s": ("neural.forward", total["neural.forward"]),
        "neural.lstm_forward_s.semantic": (
            "neural.lstm_forward.semantic", total["neural.lstm_forward.semantic"]),
        "neural.lstm_forward_s.sentiment": (
            "neural.lstm_forward.sentiment", total["neural.lstm_forward.sentiment"]),
        "neural.predict_calls": ("neural.predict", count["neural.predict"]),
        "neural.predict_s": ("neural.predict", total["neural.predict"]),
        "neural.backward_calls": ("neural.backward", count["neural.backward"]),
        "neural.backward_s": ("neural.backward", total["neural.backward"]),
        "neural.forward_gflop": ("neural.forward", fwd_gflop),
        "neural.backward_gflop": ("neural.backward", bwd_gflop),
        "neural.forward_gflop_per_s": ("neural.forward", ratio(fwd_gflop, total["neural.forward"])),
        "neural.backward_gflop_per_s": (
            "neural.backward", ratio(bwd_gflop, total["neural.backward"])),
        "training.train_s": ("training.train", total["training.train"]),
        "training.epochs": ("training.train", detail["training.train"]["epochs"]),
        "training.make_batches_s": ("training.make_batches", total["training.make_batches"]),
        "training.batches": ("training.make_batches", batches["n"]),
        "training.batch_examples_mean": ("training.make_batches", examples_mean),
        "training.batch_tokens_mean": (
            "training.make_batches", ratio(batches["tokens"], batches["n"])),
        "training.sgd_step_calls": ("training.sgd_step", count["training.sgd_step"]),
        "training.sgd_step_s": ("training.sgd_step", total["training.sgd_step"]),
        "training.clone_model_s": ("training.clone_model", total["training.clone_model"]),
        "training.eval_predict_calls": ("training.eval_predict", eval_calls),
        "training.eval_predict_s": ("training.eval_predict", eval_s),
        "training.grad_mb_per_batch": (
            "training.make_batches", examples_mean * gradient_bytes() / 1e6),
        "training.save_checkpoint_s": (
            "training.save_checkpoint", total["training.save_checkpoint"]),
        "training.checkpoint_mb": (
            "training.save_checkpoint", detail["training.save_checkpoint"]["bytes"] / 1e6),
        "training.load_checkpoint_s": (
            "training.load_checkpoint", total["training.load_checkpoint"]),
        "baselines.extract_features_calls": (
            "baselines.extract_features", count["baselines.extract_features"]),
        "baselines.extract_features_s": (
            "baselines.extract_features", total["baselines.extract_features"]),
        "baselines.nb_train_s": ("baselines.nb_train", total["baselines.nb_train"]),
        "baselines.svm_train_s": ("baselines.svm_train", total["baselines.svm_train"]),
        "baselines.svm_fit_s": ("baselines.svm_fit", total["baselines.svm_fit"]),
        "baselines.vocab_size": ("baselines.svm_train", svm["vocab"]),
        "baselines.svm_dense_mb": (
            "baselines.svm_train", svm["n"] * (svm["vocab"] + 3) * 8 / 1e6),
        "baselines.predict_s": ("baselines.predict", total["baselines.predict"]),
        "metrics.evaluate_s": ("metrics.evaluate", total["metrics.evaluate"]),
        "metrics.mcnemar_s": ("metrics.mcnemar", total["metrics.mcnemar"]),
        "datamine.mine_candidates_s": (
            "datamine.mine_candidates", total["datamine.mine_candidates"]),
        "datamine.kept_ratio": ("datamine.mine_candidates", ratio(mined["n"], mined["of"])),
        "datamine.prune_s": ("datamine.prune", total["datamine.prune"]),
        "datamine.pruned_ratio": ("datamine.prune", ratio(pruned["n"], pruned["of"])),
        "datamine.sample_negatives_s": (
            "datamine.sample_negatives", total["datamine.sample_negatives"]),
        "datamine.mine_by_response_s": (
            "datamine.mine_by_response", total["datamine.mine_by_response"]),
        "datamine.qa_pairs": ("datamine.make_qa_pairs", detail["datamine.make_qa_pairs"]["n"]),
        "cli.train_s": ("cli.train", total["cli.train"]),
        "cli.predict_s": ("cli.predict", total["cli.predict"]),
        "cli.mine_s": ("cli.mine", total["cli.mine"]),
        "cli.eval_s": ("cli.eval", total["cli.eval"]),
        "cli.self_s": (None, cli_self),
        "trace.spans": (None, len(spans)),
    }
    values = {name: float(value) for name, (_, value) in table.items()}
    absent = [name for name, (source, _) in table.items()
              if source is not None and not count[source]]
    return values, absent
