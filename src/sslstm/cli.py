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
not finite).  A flag left out takes the library's default; a flag that the
chosen ``train`` algorithm or ``mine`` mode does not read is a usage
error.  The library has no default emoticon lexicon: each command
resolves ``--lexicon`` or the packaged one once and passes it to
everything that reads text.  Commands write their results through
:mod:`sslstm.textfile` and open no file themselves.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys

import numpy as np

from .baselines import SVM_EPOCHS, nb_train, svm_train
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
from .neural import CHANNELS, FC_ACTIVATIONS, ModelConfig, SSLSTMModel, init_model
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
    load_model,
    predict,
    save_checkpoint,
    split_dataset,
    train,
)
from .textfile import DataFormatError, _content_lines, _lines, _tsv_rows, _write_lines

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA_FORMAT = 2
EXIT_NUMERIC = 3

# The optional flags each train algorithm and each mine mode reads, by
# argparse destination.  A command given any other one of them is a usage
# error before it reads a file.
_READS = {
    "train": {
        "sslstm": {"lexicon", "val", "semantic_emb", "sentiment_emb", "channels", "sem_hidden",
                   "sent_hidden", "fc_hidden", "fc_activation", "max_seq_len", "lr",
                   "token_budget", "epochs", "patience", "ratio", "seed"},
        "nb": {"lexicon", "alpha"},
        "svm": {"lexicon", "epochs", "seed", "lambda"},
    },
    "mine": {
        "t1": {"lexicon", "output", "seeds", "pool", "emb", "target", "threshold", "max_len"},
        "t2": {"lexicon", "output", "pairs", "class_utterances", "target", "max_len", "top_k",
               "min_freq"},
        "neg": {"lexicon", "output", "pool", "emb", "positives", "threshold", "n", "seed"},
    },
}
# Flags read only beside another: --max-len prunes only together with
# --target, and --ratio splits --train only when no --val is given.
_READ_WITH = {"max_len": "target"}
_READ_WITHOUT = {"ratio": "val"}


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


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _require(args, dests: list[str], context: str) -> None:
    missing = [_flag(dest) for dest in dests if getattr(args, dest) is None]
    if missing:
        raise UsageError(f"{context} requires {', '.join(missing)}")


def _refuse_unread(args, selector: str) -> None:
    """Usage error naming every given flag that the train algorithm or mine
    mode chosen by ``--selector`` does not read (see :data:`_READS`)."""
    choice = getattr(args, selector)
    table = _READS[args.command]
    flags = set().union(*table.values())
    unread = []
    for dest, value in vars(args).items():
        if dest not in flags or value is None:
            continue
        if dest not in table[choice]:
            unread.append(_flag(dest))
        elif dest in _READ_WITH and getattr(args, _READ_WITH[dest]) is None:
            unread.append(f"{_flag(dest)} without {_flag(_READ_WITH[dest])}")
        elif dest in _READ_WITHOUT and getattr(args, _READ_WITHOUT[dest]) is not None:
            unread.append(f"{_flag(dest)} with {_flag(_READ_WITHOUT[dest])}")
    if unread:
        raise UsageError(f"{args.command} --{selector} {choice} does not use {', '.join(unread)}")


def _given_kwargs(args, *same: str, **renamed: str) -> dict:
    """Keyword arguments for a library call from the flags given: ``same``
    are destinations named like their parameter, ``renamed`` maps a
    parameter to its destination.  A flag not given is left out, so the
    library's default applies."""
    pairs = [(dest, dest) for dest in same] + list(renamed.items())
    return {name: getattr(args, dest) for name, dest in pairs if getattr(args, dest) is not None}


# ---------------------------------------------------------------------------
# embedding tables and model loading


def _vocab(token_lists) -> set[str]:
    """Every token of ``token_lists``: the rows a command's tables hold."""
    return set(itertools.chain.from_iterable(token_lists))


def _utterance_vocab(utterances, lex) -> set[str]:
    """Every token of ``utterances`` normalized with ``lex``; the miners that
    normalize them again find each chunk in the lexicon's memo."""
    return _vocab(normalize_utterance(u, lex) for u in utterances)


def _tables(args, vocab: set[str]) -> tuple[EmbeddingTable | None, EmbeddingTable | None]:
    """The (semantic, sentiment) tables ``args`` names, None for one not
    given, holding the rows of the tokens in ``vocab``; a file given for
    both channels is loaded once."""
    load_table = functools.cache(lambda path: load_embedding_file(path, vocab=vocab))
    return tuple(None if path is None else load_table(path)
                 for path in (args.semantic_emb, args.sentiment_emb))


def _model_loader(args, lex, vocab: set[str]):
    """A function from a saved model file, any kind, to its model (see
    :func:`~sslstm.training.load_model`).  Neural models share the tables
    ``args`` names, holding the rows of the tokens in ``vocab`` and loaded
    once for all of them; a baseline loads none."""
    tables = functools.cache(lambda: _tables(args, vocab))

    def load(path: str):
        model = load_model(path, lex, tables)
        if isinstance(model, SSLSTMModel):
            _warn_missing_tables(args, model.config, f"{path} uses")
        return model

    return load


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
    lines = [serialize_tokens(normalize_utterance(line, lex)) for line in raw_lines]
    _write_lines(lines, args.output or sys.stdout)


def cmd_split(args) -> None:
    dataset = require_labeled(read_dataset(args.data, _lexicon(args)))
    train_set, val_set = split_dataset(dataset, **_given_kwargs(args, "ratio", "seed"))
    write_dataset(train_set, args.train_out)
    write_dataset(val_set, args.val_out)
    print(f"train: {len(train_set)} examples -> {args.train_out}")
    print(f"validation: {len(val_set)} examples -> {args.val_out}")


def cmd_train(args) -> None:
    _refuse_unread(args, "algo")
    lex = _lexicon(args)
    dataset = require_labeled(read_dataset(args.train, lex))
    if args.algo != "sslstm":
        if args.algo == "nb":
            model = nb_train(dataset, lex, **_given_kwargs(args, "alpha"))
        else:
            kwargs = _given_kwargs(args, "epochs", "seed", lambda_reg="lambda")
            model = svm_train(dataset, lex, **kwargs)
        save_checkpoint(model, None, args.model, lex)
        print(f"algorithm: {args.algo}  examples: {len(dataset)}  vocabulary: {len(model.vocab)}")
        return

    train_config = TrainConfig(**_given_kwargs(
        args, "token_budget", "patience", "seed", learning_rate="lr", max_epochs="epochs"
    ))
    # One seed, given or the library's, initializes the model and splits.
    seed = train_config.seed
    if args.val:
        train_set = dataset
        val_set = require_labeled(read_dataset(args.val, lex))
    else:
        train_set, val_set = split_dataset(dataset, **_given_kwargs(args, "ratio"), seed=seed)
    vocab = _vocab(conv.tokens for conv in [*train_set, *val_set])
    semantic, sentiment = (
        EmbeddingTable(dim) if table is None else table
        for table, dim in zip(_tables(args, vocab), (DEFAULT_SEMANTIC_DIM, DEFAULT_SENTIMENT_DIM))
    )
    model_config = ModelConfig(**_given_kwargs(
        args, "channels", "sem_hidden", "sent_hidden", "fc_hidden", "fc_activation", "max_seq_len"
    ))
    _warn_missing_tables(args, model_config, "training")
    model = init_model(model_config, semantic, sentiment, seed=seed)
    best, history = train(model, train_set, val_set, train_config)
    save_checkpoint(best, train_config, args.model, lex)
    print(
        f"algorithm: sslstm  channels: {model_config.channels}  "
        f"train: {len(train_set)}  validation: {len(val_set)}"
    )
    print(
        f"epochs run: {len(history.records)}  best epoch: {history.best_epoch}  "
        f"best validation macro-F1: {history.best_val_macro_f1():.2f}"
    )


def cmd_eval(args) -> None:
    lex = _lexicon(args)
    dataset = require_labeled(read_dataset(args.data, lex))
    token_lists = [conv.tokens for conv in dataset]
    load = _model_loader(args, lex, _vocab(token_lists))
    predictions = predict(load(args.model), token_lists, lex)
    golds = [conv.label for conv in dataset]
    report = evaluate(predictions, golds)
    text = report_tsv(report) if args.format == "tsv" else format_report(report)
    if args.compare_model:
        other_predictions = predict(load(args.compare_model), token_lists, lex)
        correct_a = [p == g for p, g in zip(predictions, golds)]
        correct_b = [p == g for p, g in zip(other_predictions, golds)]
        statistic, significant = mcnemar(correct_a, correct_b)
        text += (
            f"\nMcNemar statistic: {statistic:.2f}\n"
            f"significant at p < 0.005: {'yes' if significant else 'no'}"
        )
    _write_lines([text], args.output or sys.stdout)


def cmd_predict(args) -> None:
    lex = _lexicon(args)
    dataset = read_dataset(args.data, lex)
    token_lists = [conv.tokens for conv in dataset]
    model = _model_loader(args, lex, _vocab(token_lists))(args.model)
    labels = predict(model, token_lists, lex)
    rows = [f"{conv.id}\t{label}" for conv, label in zip(dataset, labels)]
    _write_lines(rows, args.output or sys.stdout)


def cmd_embcos(args) -> None:
    paths = _parse_emb_specs(args.emb)
    if not paths:
        raise UsageError("embcos requires at least one --emb NAME=PATH")
    pairs = [fields for _, _, fields in _tsv_rows(args.pairs, 2)]
    vocab = _vocab(pairs)
    tables = {name: load_embedding_file(path, vocab=vocab) for name, path in paths.items()}
    lines = ["word1\tword2\t" + "\t".join(tables)]
    for w1, w2 in pairs:
        scores = (f"{cosine(lookup(t, w1), lookup(t, w2)):.4f}" for t in tables.values())
        lines.append(f"{w1}\t{w2}\t" + "\t".join(scores))
    _write_lines(lines, args.output or sys.stdout)


def cmd_mine(args) -> None:
    _refuse_unread(args, "mode")
    lex = _lexicon(args)
    cfg = MiningConfig(**_given_kwargs(
        args, "threshold", "top_k", max_utterance_len="max_len", min_response_freq="min_freq"
    ))
    if args.mode == "t1":
        _require(args, ["seeds", "pool", "emb"], "mine --mode t1")
        seeds, pool = _read_lines(args.seeds), _read_lines(args.pool)
        table = load_embedding_file(args.emb, vocab=_utterance_vocab(seeds + pool, lex))
        candidates = mine_candidates(seeds, pool, table, lex, cfg, target=args.target)
    elif args.mode == "t2":
        _require(args, ["pairs", "class_utterances"], "mine --mode t2")
        pairs = [fields for _, _, fields in _tsv_rows(args.pairs, 2)]
        class_utterances = set(_read_lines(args.class_utterances))
        candidates = mine_by_response(pairs, class_utterances, lex, cfg, target=args.target)
    else:
        _require(args, ["pool", "emb", "positives"], "mine --mode neg")
        positive_sets = [_read_lines(path) for path in args.positives]
        pool = _read_lines(args.pool)
        utterances = pool + [u for group in positive_sets for u in group]
        table = load_embedding_file(args.emb, vocab=_utterance_vocab(utterances, lex))
        kwargs = _given_kwargs(args, "n", "seed")
        negatives = sample_negatives(pool, positive_sets, table, lex, cfg, **kwargs)
        _write_lines(negatives, args.output or sys.stdout)
        return
    write_judge_queue(candidates, args.output or sys.stdout)


def cmd_stats(args) -> None:
    dataset = require_labeled(read_dataset(args.data, _lexicon(args)))
    _write_lines([format_stats(dataset_stats(dataset))], args.output or sys.stdout)


def cmd_kappa(args) -> None:
    judgments, n_raters = read_judgments(args.judgments)
    kappa = fleiss_kappa(judgments, n_raters)
    lines = [f"items: {judgments.shape[0]}", f"raters: {n_raters}", f"fleiss-kappa: {kappa:.4f}"]
    _write_lines(lines, args.output or sys.stdout)


def cmd_gradcheck(args) -> None:
    if not (np.isfinite(args.tolerance) and args.tolerance > 0):
        raise UsageError(f"--tolerance must be finite and positive, got {args.tolerance!r}")
    if args.length < 1:
        raise UsageError(f"--length must be at least 1, got {args.length}")
    rng = np.random.default_rng(args.seed)
    vocab = [f"w{i}" for i in range(8)]
    semantic = EmbeddingTable(dim=4, vectors={w: rng.standard_normal(4) for w in vocab})
    sentiment = EmbeddingTable(dim=3, vectors={w: rng.standard_normal(3) for w in vocab})
    config = ModelConfig(
        channels=args.channels,
        sem_hidden=args.hidden,
        sent_hidden=args.hidden,
        fc_hidden=args.hidden,
        max_seq_len=args.length,
    )
    model = init_model(config, semantic, sentiment, seed=args.seed)
    tokens = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=args.length)]
    target = int(rng.integers(0, 4))
    error = gradient_check(model, (tokens, target), epsilon=args.epsilon)
    n_params = sum(t.size for t in model.params.values())
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


# Built once per process: parsing leaves the parser as it was.  Each
# handler is bound here, but handlers look up the module functions they
# call at call time.
@functools.cache
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
    p.add_argument("--ratio", type=float, help="training fraction (default 0.9)")
    p.add_argument("--seed", type=int, help="shuffle seed (default 0)")
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("train", help="fit a classifier and save it")
    p.add_argument("--algo", choices=("sslstm", "nb", "svm"), default="sslstm",
                   help="classifier family (default sslstm)")
    p.add_argument("--train", required=True, help="labeled conversation TSV")
    p.add_argument("--val", help="labeled validation TSV (sslstm only; default: split from --train)")
    p.add_argument("--model", required=True, help="where to save the fitted model")
    p.add_argument("--semantic-emb", help="semantic embedding text file (sslstm only)")
    p.add_argument("--sentiment-emb", help="sentiment embedding text file (sslstm only)")
    # Left out, each flag takes its library default, which the help repeats.
    p.add_argument("--channels", choices=CHANNELS,
                   help=f"embedding channels to use (default {ModelConfig.channels})")
    p.add_argument("--sem-hidden", type=int,
                   help=f"semantic hidden units (default {ModelConfig.sem_hidden})")
    p.add_argument("--sent-hidden", type=int,
                   help=f"sentiment hidden units (default {ModelConfig.sent_hidden})")
    p.add_argument("--fc-hidden", type=int,
                   help=f"hidden layer width (default {ModelConfig.fc_hidden})")
    p.add_argument("--fc-activation", choices=FC_ACTIVATIONS,
                   help=f"hidden layer activation (default {ModelConfig.fc_activation})")
    p.add_argument("--max-seq-len", type=int,
                   help=f"truncate utterances to this many tokens "
                        f"(default {ModelConfig.max_seq_len})")
    p.add_argument("--lr", type=float,
                   help=f"learning rate (default {TrainConfig.learning_rate})")
    p.add_argument("--token-budget", type=int,
                   help=f"tokens per batch (default {TrainConfig.token_budget})")
    p.add_argument("--epochs", type=int,
                   help=f"maximum epochs (default {TrainConfig.max_epochs} "
                        f"for sslstm, {SVM_EPOCHS} for svm; not for nb)")
    p.add_argument("--patience", type=int,
                   help=f"early-stopping patience (default {TrainConfig.patience})")
    p.add_argument("--ratio", type=float,
                   help="training fraction when splitting --train, without --val (default 0.9)")
    p.add_argument("--seed", type=int,
                   help=f"initialization and shuffle seed (default {TrainConfig.seed}; not for nb)")
    p.add_argument("--alpha", type=float,
                   help="additive smoothing for --algo nb (default 1.0)")
    p.add_argument("--lambda", type=float,
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
    p.add_argument("--threshold", type=float,
                   help=f"cosine similarity cutoff (t1, neg; default {MiningConfig.threshold})")
    p.add_argument("--max-len", type=int,
                   help=f"with --target, prune candidates longer than this many tokens "
                        f"(default {MiningConfig.max_utterance_len})")
    p.add_argument("--top-k", type=int,
                   help=f"frequent responses to expand (t2; default {MiningConfig.top_k})")
    p.add_argument("--min-freq", type=int,
                   help=f"minimum response frequency "
                        f"(t2; default {MiningConfig.min_response_freq})")
    p.add_argument("--n", type=int, help="negatives to draw (neg; default 1)")
    p.add_argument("--seed", type=int, help="sampling seed (neg; default 0)")
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
