"""Command-line surface for the whole package.

One binary, ``sslstm``, with subcommands for preprocessing (normalize),
dataset management (split, stats), model building (train for the
recurrent classifier and both baselines), evaluation (eval with an
optional McNemar comparison, predict), embedding inspection (embcos),
data mining (mine), annotation agreement (kappa), and gradient
verification (gradcheck).

Exit codes: 0 success; 1 usage error (bad flags, bad values with NaN
and infinities among them, missing files); 2 data-format error
(malformed dataset, embedding, lexicon, or checkpoint files); 3 numeric
failure (non-finite loss or a gradient check exceeding its tolerance or
not finite).  Every flag default mirrors the
corresponding library default.  The library has no default emoticon
lexicon: each command resolves ``--lexicon`` or the packaged one once
and passes it to everything that reads text.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .baselines import (
    SVM_EPOCHS,
    baseline_from_container,
    baseline_predict,
    nb_train,
    save_baseline,
    svm_train,
)
from .container import CheckpointError, read_container
from .dataio import read_dataset, read_judgments, require_labeled, write_dataset
from .datamine import (
    MiningConfig,
    mine_by_response,
    mine_candidates,
    sample_negatives,
    write_judge_queue,
)
from .embeddings import (
    DEFAULT_SEMANTIC_DIM,
    DEFAULT_SENTIMENT_DIM,
    EmbeddingTable,
    cosine,
    empty_table,
    load_embedding_file,
    lookup,
)
from .labels import EMOTION_LABELS
from .metrics import (
    dataset_stats,
    evaluate,
    fleiss_kappa,
    format_report,
    format_stats,
    mcnemar,
    report_tsv,
)
from .neural import (
    CHANNELS,
    FC_ACTIVATIONS,
    ModelConfig,
    batch_predict,
    init_model,
)
from .text_norm import (
    EmoticonLexicon,
    default_lexicon,
    load_lexicon,
    normalize_utterance,
    serialize_tokens,
)
from .training import (
    GRADCHECK_EXHAUSTIVE_LIMIT,
    GRADCHECK_SAMPLE,
    TrainConfig,
    gradient_check,
    model_from_container,
    save_checkpoint,
    split_dataset,
    train,
)
from .textfile import DataFormatError, _content_lines, _lines, _open_write, _tsv_rows

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA_FORMAT = 2
EXIT_NUMERIC = 3

_MODEL_DEFAULTS = ModelConfig()
_TRAIN_DEFAULTS = TrainConfig()
_MINING_DEFAULTS = MiningConfig()


class UsageError(Exception):
    """Bad flags or flag values; mapped to exit code 1."""


class NumericError(Exception):
    """Non-finite numbers or failed gradient tolerance; exit code 3."""


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as exceptions so the
    process exit code stays under our control."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# small I/O helpers


def _emit(lines, output: str | None) -> None:
    """Write each line followed by a newline; no lines write nothing."""
    with _open_write(output or sys.stdout) as fh:
        fh.writelines(line + "\n" for line in lines)


def _read_lines(path: str) -> list[str]:
    """Non-blank, non-comment lines of a one-utterance-per-line file."""
    return [line for _, _, line in _content_lines(path)]


def _lexicon(args):
    """The one lexicon of a command: ``--lexicon`` or the packaged one.  Each
    call gives a new object, so no command starts with another's chunk memo."""
    if getattr(args, "lexicon", None):
        return load_lexicon(args.lexicon)
    packaged = default_lexicon()
    return EmoticonLexicon(packaged.entries, packaged.sha256)


def _table_or_empty(path: str | None, dim: int):
    return empty_table(dim) if path is None else load_embedding_file(path)


def _parse_emb_specs(specs) -> dict[str, str]:
    """--emb NAME=PATH pairs, in flag order."""
    tables = {}
    for spec in specs or []:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise UsageError(f"--emb expects NAME=PATH, got {spec!r}")
        if name in tables:
            raise UsageError(f"--emb name {name!r} given twice")
        tables[name] = path
    return tables


def _given(args, flags: list[str]) -> list[str]:
    return [f for f in flags if getattr(args, f.lstrip("-").replace("-", "_")) is not None]


def _require(args, flags: list[str], context: str) -> None:
    given = _given(args, flags)
    missing = [f for f in flags if f not in given]
    if missing:
        raise UsageError(f"{context} requires {', '.join(missing)}")


# ---------------------------------------------------------------------------
# model loading shared by eval/predict


def _load_predictor(path: str, args, lex):
    """A callable list of conversations -> list of labels for the saved
    model file ``path``, any kind, with the tables ``args`` names; a file
    that records its lexicon's hash must match ``lex``."""
    meta, tensors = read_container(path)
    stored = meta.get("lexicon_sha256", "-")
    if stored not in ("", "-") and stored != lex.sha256:
        raise CheckpointError(
            f"{path} was trained with another emoticon lexicon "
            f"({stored[:12]} vs {lex.sha256[:12]}); pass that one as --lexicon"
        )
    kind = meta.get("model", "sslstm")
    if kind == "sslstm":
        # A missing table loads as an empty one of the checkpoint's dimension.
        tables = {}
        for channel in ("semantic", "sentiment"):
            path = getattr(args, f"{channel}_emb")
            tables[channel] = None if path is None else load_embedding_file(path)
        model = model_from_container(meta, tensors, tables["semantic"], tables["sentiment"])
        _warn_missing_tables(args, model.config, f"{path} uses")
        return lambda convs: batch_predict(model, [conv.tokens for conv in convs])
    baseline = baseline_from_container(meta, tensors)
    return lambda convs: baseline_predict(baseline, [conv.tokens for conv in convs], lex)


def _warn_missing_tables(args, config: ModelConfig, doing: str) -> None:
    """One stderr line per active channel given no --*-emb table."""
    for channel in config.active_channels():
        if getattr(args, f"{channel}_emb") is None:
            print(
                f"warning: {doing} the {channel} channel but no --{channel}-emb "
                f"was given; every token is out of vocabulary there",
                file=sys.stderr,
            )


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_normalize(args) -> None:
    lex = _lexicon(args)
    raw_lines, _ = _lines(args.input or getattr(sys.stdin, "buffer", sys.stdin))
    _emit([serialize_tokens(normalize_utterance(line, lex)) for line in raw_lines], args.output)


def cmd_split(args) -> None:
    dataset = require_labeled(read_dataset(args.data, _lexicon(args)))
    train_set, val_set = split_dataset(dataset, args.ratio, args.seed)
    write_dataset(train_set, args.train_out)
    write_dataset(val_set, args.val_out)
    print(f"train: {len(train_set)} examples -> {args.train_out}")
    print(f"validation: {len(val_set)} examples -> {args.val_out}")


# train flags that only the neural model reads, which a baseline refuses unread.
_NEURAL_ONLY = {
    "nb": ["--val", "--semantic-emb", "--sentiment-emb", "--epochs"],
    "svm": ["--val", "--semantic-emb", "--sentiment-emb"],
}


def cmd_train(args) -> None:
    unused = _given(args, _NEURAL_ONLY.get(args.algo, []))
    if unused:
        raise UsageError(f"train --algo {args.algo} does not use {', '.join(unused)}")
    lex = _lexicon(args)
    dataset = require_labeled(read_dataset(args.train, lex))
    if args.algo != "sslstm":
        if args.algo == "nb":
            model = nb_train(dataset, lex, alpha=args.alpha)
        else:
            epochs = SVM_EPOCHS if args.epochs is None else args.epochs
            model = svm_train(dataset, lex, lambda_reg=args.lambda_reg, epochs=epochs, seed=args.seed)
        save_baseline(model, args.model, lex)
        print(f"algorithm: {args.algo}  examples: {len(dataset)}  vocabulary: {len(model.vocab)}")
        return

    train_config = TrainConfig(
        learning_rate=args.lr,
        token_budget=args.token_budget,
        max_epochs=_TRAIN_DEFAULTS.max_epochs if args.epochs is None else args.epochs,
        patience=args.patience,
        seed=args.seed,
    )
    semantic = _table_or_empty(args.semantic_emb, DEFAULT_SEMANTIC_DIM)
    sentiment = _table_or_empty(args.sentiment_emb, DEFAULT_SENTIMENT_DIM)
    if args.val:
        train_set = dataset
        val_set = require_labeled(read_dataset(args.val, lex))
    else:
        train_set, val_set = split_dataset(dataset, args.ratio, args.seed)
    model_config = ModelConfig(
        channels=args.channels,
        sem_hidden=args.sem_hidden,
        sent_hidden=args.sent_hidden,
        fc_hidden=args.fc_hidden,
        fc_activation=args.fc_activation,
        max_seq_len=args.max_seq_len,
    )
    _warn_missing_tables(args, model_config, "training")
    model = init_model(model_config, semantic, sentiment, seed=args.seed)
    best, history = train(model, train_set, val_set, train_config)
    save_checkpoint(best, train_config, args.model, lex)
    print(
        f"algorithm: sslstm  channels: {args.channels}  "
        f"train: {len(train_set)}  validation: {len(val_set)}"
    )
    print(
        f"epochs run: {len(history.records)}  best epoch: {history.best_epoch}  "
        f"best validation macro-F1: {history.best_val_macro_f1():.2f}"
    )


def cmd_eval(args) -> None:
    lex = _lexicon(args)
    dataset = require_labeled(read_dataset(args.data, lex))
    predictor = _load_predictor(args.model, args, lex)
    predictions = predictor(dataset)
    golds = [conv.label for conv in dataset]
    report = evaluate(predictions, golds)
    text = report_tsv(report) if args.format == "tsv" else format_report(report)
    if args.compare_model:
        other = _load_predictor(args.compare_model, args, lex)
        other_predictions = other(dataset)
        correct_a = [p == g for p, g in zip(predictions, golds)]
        correct_b = [p == g for p, g in zip(other_predictions, golds)]
        statistic, significant = mcnemar(correct_a, correct_b)
        text += (
            f"\nMcNemar statistic: {statistic:.2f}\n"
            f"significant at p < 0.005: {'yes' if significant else 'no'}"
        )
    _emit([text], args.output)


def cmd_predict(args) -> None:
    lex = _lexicon(args)
    dataset = read_dataset(args.data, lex)
    predictor = _load_predictor(args.model, args, lex)
    rows = [f"{conv.id}\t{label}" for conv, label in zip(dataset, predictor(dataset))]
    _emit(rows, args.output)


def cmd_embcos(args) -> None:
    paths = _parse_emb_specs(args.emb)
    if not paths:
        raise UsageError("embcos requires at least one --emb NAME=PATH")
    tables = {name: load_embedding_file(path) for name, path in paths.items()}
    pairs = [fields for _, _, fields in _tsv_rows(args.pairs, 2)]
    lines = ["word1\tword2\t" + "\t".join(tables)]
    for w1, w2 in pairs:
        scores = (f"{cosine(lookup(t, w1), lookup(t, w2)):.4f}" for t in tables.values())
        lines.append(f"{w1}\t{w2}\t" + "\t".join(scores))
    _emit(lines, args.output)


def _mining_config(args) -> MiningConfig:
    return MiningConfig(
        threshold=args.threshold,
        max_utterance_len=args.max_len,
        top_k=args.top_k,
        min_response_freq=args.min_freq,
    )


def cmd_mine(args) -> None:
    lex = _lexicon(args)
    cfg = _mining_config(args)
    if args.mode == "t1":
        _require(args, ["--seeds", "--pool", "--emb"], "mine --mode t1")
        table = load_embedding_file(args.emb)
        candidates = mine_candidates(
            _read_lines(args.seeds), _read_lines(args.pool), table, lex, cfg, target=args.target
        )
    elif args.mode == "t2":
        _require(args, ["--pairs", "--class-utterances"], "mine --mode t2")
        pairs = [fields for _, _, fields in _tsv_rows(args.pairs, 2)]
        class_utterances = set(_read_lines(args.class_utterances))
        candidates = mine_by_response(pairs, class_utterances, lex, cfg, target=args.target)
    else:
        _require(args, ["--pool", "--emb", "--positives"], "mine --mode neg")
        if args.target:
            raise UsageError("--target prunes mined candidates; mine --mode neg has none")
        table = load_embedding_file(args.emb)
        positive_sets = [_read_lines(path) for path in args.positives]
        negatives = sample_negatives(
            _read_lines(args.pool), positive_sets, table, lex, cfg, n=args.n, seed=args.seed
        )
        _emit(negatives, args.output)
        return
    write_judge_queue(candidates, args.output or sys.stdout)


def cmd_stats(args) -> None:
    dataset = require_labeled(read_dataset(args.data, _lexicon(args)))
    _emit([format_stats(dataset_stats(dataset))], args.output)


def cmd_kappa(args) -> None:
    judgments, n_raters = read_judgments(args.judgments)
    kappa = fleiss_kappa(judgments, n_raters)
    _emit(
        [f"items: {judgments.shape[0]}\nraters: {n_raters}\nfleiss-kappa: {kappa:.4f}"],
        args.output,
    )


def cmd_gradcheck(args) -> None:
    if not (np.isfinite(args.tolerance) and args.tolerance > 0):
        raise UsageError(f"--tolerance must be finite and positive, got {args.tolerance!r}")
    rng = np.random.default_rng(args.seed)
    vocab = [f"w{i}" for i in range(8)]
    semantic = EmbeddingTable(dim=4, vectors={w: rng.standard_normal(4) for w in vocab})
    sentiment = EmbeddingTable(dim=3, vectors={w: rng.standard_normal(3) for w in vocab})
    config = ModelConfig(
        channels=args.channels,
        sem_hidden=args.hidden,
        sent_hidden=args.hidden,
        fc_hidden=args.hidden,
        max_seq_len=max(args.length, 1),
    )
    model = init_model(config, semantic, sentiment, seed=args.seed)
    tokens = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=args.length)]
    target = int(rng.integers(0, 4))
    error = gradient_check(model, (tokens, target), epsilon=args.epsilon)
    n_params = sum(t.size for t in model.param_tensors().values())
    checked = f"all {n_params}"
    if n_params > GRADCHECK_EXHAUSTIVE_LIMIT:
        checked = f"{GRADCHECK_SAMPLE} of {n_params}"
    print(
        f"channels: {args.channels}  parameters checked: {checked}  "
        f"max relative error: {error:.3e}  tolerance: {args.tolerance:g}"
    )
    if not np.isfinite(error) or error > args.tolerance:
        raise NumericError(
            f"gradient check failed: max relative error {error:.3e} "
            f"exceeds tolerance {args.tolerance:g}"
        )


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(
        prog="sslstm",
        description="Emotion classification for short conversations: "
        "preprocessing, training, evaluation, and data mining.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p, lexicon=True, output=True):
        if lexicon:
            p.add_argument("--lexicon", help="emoticon lexicon TSV (default: packaged)")
        if output:
            p.add_argument("--output", help="write results here instead of stdout")

    p = sub.add_parser("normalize", help="tokenize and canonicalize utterances")
    p.add_argument("--input", help="one raw utterance per line (default: stdin)")
    add_common(p)
    p.set_defaults(handler=cmd_normalize)

    p = sub.add_parser("split", help="stratified train/validation split")
    p.add_argument("--data", required=True, help="labeled conversation TSV")
    p.add_argument("--train-out", required=True, help="training subset destination")
    p.add_argument("--val-out", required=True, help="validation subset destination")
    p.add_argument("--ratio", type=float, default=0.9, help="training fraction (default 0.9)")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed (default 0)")
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("train", help="fit a classifier and save it")
    p.add_argument("--algo", choices=("sslstm", "nb", "svm"), default="sslstm",
                   help="classifier family (default sslstm)")
    p.add_argument("--train", required=True, help="labeled conversation TSV")
    p.add_argument("--val", help="labeled validation TSV (sslstm only; default: split from --train)")
    p.add_argument("--model", required=True, help="where to save the fitted model")
    p.add_argument("--semantic-emb", help="semantic embedding text file (sslstm only)")
    p.add_argument("--sentiment-emb", help="sentiment embedding text file (sslstm only)")
    p.add_argument("--channels", choices=CHANNELS, default=_MODEL_DEFAULTS.channels,
                   help="embedding channels to use (default both)")
    p.add_argument("--sem-hidden", type=int, default=_MODEL_DEFAULTS.sem_hidden,
                   help=f"semantic hidden units (default {_MODEL_DEFAULTS.sem_hidden})")
    p.add_argument("--sent-hidden", type=int, default=_MODEL_DEFAULTS.sent_hidden,
                   help=f"sentiment hidden units (default {_MODEL_DEFAULTS.sent_hidden})")
    p.add_argument("--fc-hidden", type=int, default=_MODEL_DEFAULTS.fc_hidden,
                   help=f"hidden layer width (default {_MODEL_DEFAULTS.fc_hidden})")
    p.add_argument("--fc-activation", choices=FC_ACTIVATIONS,
                   default=_MODEL_DEFAULTS.fc_activation,
                   help="hidden layer activation (default relu)")
    p.add_argument("--max-seq-len", type=int, default=_MODEL_DEFAULTS.max_seq_len,
                   help=f"truncate utterances to this many tokens "
                        f"(default {_MODEL_DEFAULTS.max_seq_len})")
    p.add_argument("--lr", type=float, default=_TRAIN_DEFAULTS.learning_rate,
                   help=f"learning rate (default {_TRAIN_DEFAULTS.learning_rate})")
    p.add_argument("--token-budget", type=int, default=_TRAIN_DEFAULTS.token_budget,
                   help=f"tokens per batch (default {_TRAIN_DEFAULTS.token_budget})")
    p.add_argument("--epochs", type=int,
                   help=f"maximum epochs (default {_TRAIN_DEFAULTS.max_epochs} "
                        f"for sslstm, {SVM_EPOCHS} for svm; not for nb)")
    p.add_argument("--patience", type=int, default=_TRAIN_DEFAULTS.patience,
                   help=f"early-stopping patience (default {_TRAIN_DEFAULTS.patience})")
    p.add_argument("--ratio", type=float, default=0.9,
                   help="training fraction when splitting (default 0.9)")
    p.add_argument("--seed", type=int, default=_TRAIN_DEFAULTS.seed,
                   help="initialization and shuffle seed (default 0)")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="additive smoothing for --algo nb (default 1.0)")
    p.add_argument("--lambda", dest="lambda_reg", type=float, default=0.005,
                   help="regularization for --algo svm (default 0.005)")
    add_common(p, output=False)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="score a saved model on labeled data")
    p.add_argument("--model", required=True, help="saved model file")
    p.add_argument("--data", required=True, help="labeled conversation TSV")
    p.add_argument("--compare-model", help="second model for a McNemar test")
    p.add_argument("--semantic-emb", help="semantic embedding text file")
    p.add_argument("--sentiment-emb", help="sentiment embedding text file")
    p.add_argument("--format", choices=("text", "tsv"), default="text",
                   help="report style (default text)")
    add_common(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("predict", help="label conversations with a saved model")
    p.add_argument("--model", required=True, help="saved model file")
    p.add_argument("--data", required=True, help="conversation TSV (labels optional)")
    p.add_argument("--semantic-emb", help="semantic embedding text file")
    p.add_argument("--sentiment-emb", help="sentiment embedding text file")
    add_common(p)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("embcos", help="cosine similarity of word pairs per table")
    p.add_argument("--pairs", required=True, help="TSV of word1<TAB>word2 rows")
    p.add_argument("--emb", action="append", metavar="NAME=PATH",
                   help="embedding table to report (repeatable)")
    add_common(p, lexicon=False)
    p.set_defaults(handler=cmd_embcos)

    p = sub.add_parser("mine", help="mine labeled-data candidates")
    p.add_argument("--mode", choices=("t1", "t2", "neg"), required=True,
                   help="t1: cosine similarity to seeds; t2: shared frequent "
                        "responses; neg: dissimilar negative sampling")
    p.add_argument("--seeds", help="seed utterances, one per line (t1)")
    p.add_argument("--pool", help="unlabeled utterances, one per line (t1, neg)")
    p.add_argument("--pairs", help="question<TAB>response TSV (t2)")
    p.add_argument("--class-utterances", help="known class members, one per line (t2)")
    p.add_argument("--positives", action="append", metavar="PATH",
                   help="positive utterances to avoid, one file per class (neg)")
    p.add_argument("--emb", help="embedding table for sentence similarity (t1, neg)")
    p.add_argument("--target", choices=EMOTION_LABELS,
                   help="prune candidates that cannot belong to this class (t1, t2)")
    p.add_argument("--threshold", type=float, default=_MINING_DEFAULTS.threshold,
                   help=f"cosine similarity cutoff "
                        f"(default {_MINING_DEFAULTS.threshold})")
    p.add_argument("--max-len", type=int, default=_MINING_DEFAULTS.max_utterance_len,
                   help=f"prune candidates longer than this many tokens "
                        f"(default {_MINING_DEFAULTS.max_utterance_len})")
    p.add_argument("--top-k", type=int, default=_MINING_DEFAULTS.top_k,
                   help=f"frequent responses to expand "
                        f"(default {_MINING_DEFAULTS.top_k})")
    p.add_argument("--min-freq", type=int, default=_MINING_DEFAULTS.min_response_freq,
                   help=f"minimum response frequency "
                        f"(default {_MINING_DEFAULTS.min_response_freq})")
    p.add_argument("--n", type=int, default=1, help="negatives to draw (default 1)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    add_common(p)
    p.set_defaults(handler=cmd_mine)

    p = sub.add_parser("stats", help="class counts and percentages of a dataset")
    p.add_argument("--data", required=True, help="labeled conversation TSV")
    add_common(p, lexicon=False)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("kappa", help="Fleiss' kappa of an annotation table")
    p.add_argument("--judgments", required=True,
                   help="TSV of item<TAB>happy<TAB>sad<TAB>angry<TAB>others counts")
    add_common(p, lexicon=False)
    p.set_defaults(handler=cmd_kappa)

    p = sub.add_parser("gradcheck", help="compare backprop to finite differences")
    p.add_argument("--channels", choices=CHANNELS, default="both",
                   help="channel configuration to check (default both)")
    p.add_argument("--hidden", type=int, default=4,
                   help="hidden width of the probe model (default 4)")
    p.add_argument("--length", type=int, default=3,
                   help="probe utterance length in tokens (default 3)")
    p.add_argument("--seed", type=int, default=0, help="probe seed (default 0)")
    p.add_argument("--epsilon", type=float, default=3e-4,
                   help="finite-difference step (default 3e-4)")
    p.add_argument("--tolerance", type=float, default=1e-4,
                   help="maximum relative error allowed (default 1e-4)")
    p.set_defaults(handler=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.handler(args)
        return EXIT_OK
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return EXIT_OK if code in (None, 0) else EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_FORMAT
    except (NumericError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
