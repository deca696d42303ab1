"""End-to-end tests of the command-line interface and its exit codes."""

import io
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import LEX, src_env
from sslstm.baselines import SVM_EPOCHS, load_baseline, save_baseline, svm_train
from sslstm.cli import main
from sslstm.dataio import read_dataset
from sslstm.datamine import read_judge_queue
from sslstm.embeddings import EmbeddingTable, save_embedding_file
from sslstm.labels import LABELS
from sslstm.text_norm import EmoticonLexicon, load_lexicon, normalize_utterance, surfaces

KEYWORD = {"happy": "alpha", "sad": "beta", "angry": "gamma", "others": "delta"}


def dataset_rows(per_class):
    rows = []
    for label, n in per_class.items():
        word = KEYWORD[label]
        for i in range(n):
            rows.append(f"{label[0]}{i}\tfirst turn\tsecond turn\t{word} {word}\t{label}")
    return rows


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: datasets, embedding files, and trained models."""
    root = tmp_path_factory.mktemp("cli")
    files = {"root": root}

    files["train"] = write_lines(
        root / "train.tsv", dataset_rows({"happy": 6, "sad": 6, "angry": 6, "others": 6})
    )
    files["emotions"] = write_lines(
        root / "emotions.tsv", dataset_rows({"happy": 7, "sad": 7, "angry": 6})
    )
    files["others_only"] = write_lines(
        root / "others.tsv", dataset_rows({"others": 4})
    )

    eye = np.eye(4)
    semantic = EmbeddingTable(
        dim=4, vectors={KEYWORD[label]: eye[i] for i, label in enumerate(LABELS)}
    )
    sentiment = EmbeddingTable(
        dim=2,
        vectors={
            "alpha": np.array([1.0, 0.0]),
            "beta": np.array([1.0, 0.0]),
            "gamma": np.array([0.0, 1.0]),
            "delta": np.array([0.1, 0.1]),
        },
    )
    files["semantic_emb"] = str(root / "semantic.txt")
    files["sentiment_emb"] = str(root / "sentiment.txt")
    save_embedding_file(semantic, files["semantic_emb"])
    save_embedding_file(sentiment, files["sentiment_emb"])

    files["svm_model"] = str(root / "svm.ckpt")
    assert main(["train", "--algo", "svm", "--train", files["train"],
                 "--model", files["svm_model"]]) == 0
    files["nb_model"] = str(root / "nb.ckpt")
    assert main(["train", "--algo", "nb", "--train", files["train"],
                 "--model", files["nb_model"]]) == 0
    files["nb_others"] = str(root / "nb_others.ckpt")
    assert main(["train", "--algo", "nb", "--train", files["others_only"],
                 "--model", files["nb_others"]]) == 0

    files["sslstm_model"] = str(root / "sslstm.ckpt")
    assert main(["train", "--train", files["train"], "--model", files["sslstm_model"],
                 "--semantic-emb", files["semantic_emb"],
                 "--sentiment-emb", files["sentiment_emb"],
                 "--sem-hidden", "4", "--sent-hidden", "3", "--fc-hidden", "5",
                 "--epochs", "40", "--lr", "0.5", "--token-budget", "16",
                 "--ratio", "0.75", "--seed", "0"]) == 0
    return files


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out or True

    @pytest.mark.parametrize(
        "command",
        ["normalize", "split", "train", "eval", "predict", "embcos",
         "mine", "stats", "kappa", "gradcheck"],
    )
    def test_subcommand_help_exits_zero(self, command, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert command in out or "usage" in out

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self, ws, tmp_path, capsys):
        assert main(["stats", "--bogus"]) == 1
        model = tmp_path / "m.ckpt"
        assert main(["train", "--train", ws["train"], "--model", str(model),
                     "--train-embeddings"]) == 1
        assert "--train-embeddings" in capsys.readouterr().err
        assert not model.exists()

    def test_missing_required_flag_names_it(self, capsys):
        assert main(["train"]) == 1
        assert "--train" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.tsv")
        assert main(["stats", "--data", missing]) == 1
        assert "absent.tsv" in capsys.readouterr().err

    def test_malformed_dataset_is_data_format_error(self, tmp_path, capsys):
        bad = write_lines(tmp_path / "bad.tsv", ["only\tthree\tfields"])
        assert main(["stats", "--data", bad]) == 2
        assert ":1" in capsys.readouterr().err

    def test_malformed_embedding_is_data_format_error(self, tmp_path, capsys):
        emb = write_lines(tmp_path / "bad.txt", ["word one two"])
        pairs = write_lines(tmp_path / "pairs.tsv", ["a\tb"])
        assert main(["embcos", "--pairs", pairs, "--emb", f"bad={emb}"]) == 2

    def test_corrupt_model_is_data_format_error(self, tmp_path, ws, capsys):
        bad = write_lines(tmp_path / "bad.ckpt", ["SSLSTM-CKPT 9", "end"])
        assert main(["eval", "--model", bad, "--data", ws["train"]]) == 2

    def test_fine_tuned_model_is_data_format_error(self, tmp_path, ws, capsys):
        text = Path(ws["sslstm_model"]).read_text(encoding="utf-8")
        assert "meta train_embeddings=0\n" in text
        tuned = tmp_path / "tuned.ckpt"
        tuned.write_text(text.replace("meta train_embeddings=0", "meta train_embeddings=1"),
                         encoding="utf-8")
        assert main(["predict", "--model", str(tuned), "--data", ws["train"],
                     "--semantic-emb", ws["semantic_emb"],
                     "--sentiment-emb", ws["sentiment_emb"]]) == 2
        assert "fine-tuned embedding vectors the file does not hold" in capsys.readouterr().err

    def test_gradcheck_tolerance_failure_is_numeric_error(self, capsys):
        assert main(["gradcheck", "--tolerance", "1e-12"]) == 3
        assert "exceeds tolerance" in capsys.readouterr().err


class TestNormalize:
    def test_file_to_file(self, tmp_path):
        src = write_lines(tmp_path / "raw.txt", ["Yeah! :((( My plan is cancelled 😒☹"])
        dst = tmp_path / "norm.txt"
        assert main(["normalize", "--input", src, "--output", str(dst)]) == 0
        assert dst.read_text(encoding="utf-8") == "yeah ! :( my plan is cancelled :| :(\n"

    def test_stdin_to_stdout(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("GOOD Morning!! :-)\n"))
        assert main(["normalize"]) == 0
        assert capsys.readouterr().out == "good morning ! ! :)\n"

    def test_output_is_idempotent(self, tmp_path):
        src = write_lines(tmp_path / "raw.txt", ["Hello, WORLD :-)))", "@user ok"])
        first = tmp_path / "one.txt"
        second = tmp_path / "two.txt"
        assert main(["normalize", "--input", src, "--output", str(first)]) == 0
        assert main(["normalize", "--input", str(first), "--output", str(second)]) == 0
        assert first.read_text() == second.read_text()

    @pytest.mark.parametrize("raw, expected", [(b"", ""), (b"\n", "\n"), (b"a\n\n", "a\n\n")])
    def test_one_output_line_per_input_line(self, tmp_path, raw, expected):
        src = tmp_path / "raw.txt"
        src.write_bytes(raw)
        dst = tmp_path / "norm.txt"
        assert main(["normalize", "--input", str(src), "--output", str(dst)]) == 0
        assert dst.read_text(encoding="utf-8") == expected


class TestSplit:
    def test_stratified_split_files(self, tmp_path, ws, capsys):
        train_out = tmp_path / "tr.tsv"
        val_out = tmp_path / "va.tsv"
        assert main(["split", "--data", ws["train"], "--train-out", str(train_out),
                     "--val-out", str(val_out), "--ratio", "0.75", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "16 examples" in out and "8 examples" in out
        train_ids = {l.split("\t")[0] for l in train_out.read_text().splitlines()}
        val_ids = {l.split("\t")[0] for l in val_out.read_text().splitlines()}
        assert len(train_ids) == 16 and len(val_ids) == 8
        assert not train_ids & val_ids
        # stratification: each class contributes floor(0.75 * 6) = 4 / 2
        train_labels = [l.split("\t")[4] for l in train_out.read_text().splitlines()]
        val_labels = [l.split("\t")[4] for l in val_out.read_text().splitlines()]
        for cls in ("happy", "sad", "angry", "others"):
            assert train_labels.count(cls) == 4
            assert val_labels.count(cls) == 2


class TestTrainEvalPredict:
    def test_svm_perfect_on_training_data(self, ws, capsys):
        assert main(["eval", "--model", ws["svm_model"], "--data", ws["train"]]) == 0
        out = capsys.readouterr().out
        assert "macro-F1 (happy/sad/angry): 100.00" in out
        assert "examples: 24" in out

    @pytest.mark.parametrize("flags", [
        ["--algo", "nb", "--alpha", "nan"],
        ["--algo", "nb", "--alpha", "inf"],
        ["--algo", "svm", "--lambda", "nan"],
        ["--algo", "svm", "--lambda", "inf"],
    ])
    def test_non_finite_hyperparameter_is_a_usage_error(self, ws, tmp_path, capsys, flags):
        model = tmp_path / "m.model"
        assert main(["train", "--train", ws["train"], "--model", str(model), *flags]) == 1
        assert "must be finite and positive" in capsys.readouterr().err
        assert not model.exists()

    def test_svm_epochs_default_is_the_library_default(self, ws, tmp_path, capsys):
        model = tmp_path / "svm.model"
        assert main(["train", "--algo", "svm", "--train", ws["train"], "--model", str(model)]) == 0
        expected = io.StringIO()
        save_baseline(svm_train(read_dataset(ws["train"], LEX), LEX), expected, LEX)
        assert model.read_text(encoding="utf-8") == expected.getvalue()
        assert main(["train", "--help"]) == 0
        assert f"{SVM_EPOCHS} for svm" in " ".join(capsys.readouterr().out.split())

    def test_nb_eval_tsv_format(self, ws, capsys):
        assert main(["eval", "--model", ws["nb_model"], "--data", ws["train"],
                     "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "class\tprecision\trecall\tf1"
        assert len(lines) == 6 and lines[-1].startswith("macro\t")

    def test_sslstm_eval_runs(self, ws, capsys):
        assert main(["eval", "--model", ws["sslstm_model"], "--data", ws["train"],
                     "--semantic-emb", ws["semantic_emb"],
                     "--sentiment-emb", ws["sentiment_emb"]]) == 0
        out = capsys.readouterr().out
        assert "macro-F1 (happy/sad/angry):" in out

    def test_sslstm_training_is_reproducible(self, ws, tmp_path, capsys):
        from pathlib import Path

        args = ["train", "--train", ws["train"],
                "--semantic-emb", ws["semantic_emb"],
                "--sentiment-emb", ws["sentiment_emb"],
                "--sem-hidden", "4", "--sent-hidden", "3", "--fc-hidden", "5",
                "--epochs", "5", "--lr", "0.1", "--token-budget", "16",
                "--ratio", "0.75", "--seed", "11"]
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        assert main(args + ["--model", str(a)]) == 0
        assert main(args + ["--model", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_non_finite_loss_stops_at_its_batch(self, ws, tmp_path, capsys, monkeypatch):
        import sslstm.training

        steps = []
        real_step = sslstm.training.sgd_step
        monkeypatch.setattr(
            sslstm.training, "sgd_step", lambda *a: steps.append(1) or real_step(*a)
        )
        model = tmp_path / "diverged.ckpt"
        assert main(["train", "--train", ws["train"], "--model", str(model),
                     "--semantic-emb", ws["semantic_emb"],
                     "--sentiment-emb", ws["sentiment_emb"],
                     "--sem-hidden", "4", "--sent-hidden", "3", "--fc-hidden", "5",
                     "--epochs", "50", "--lr", "1e4", "--token-budget", "8",
                     "--ratio", "0.75"]) == 3
        err = capsys.readouterr().err
        found = re.search(r"non-finite at epoch (\d+), batch (\d+)", err)
        assert found, err
        # The first epoch of 50 stops at the failing batch: only the batches
        # before it were applied.
        assert found.group(1) == "0"
        assert len(steps) == int(found.group(2))
        assert not model.exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_missing_table_warns_per_active_channel(self, ws, command, capsys):
        base = [command, "--model", ws["sslstm_model"], "--data", ws["train"]]
        assert main(base) == 0
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 2
        assert all(line.startswith("warning: ") for line in warnings)
        assert "--semantic-emb" in warnings[0] and "--sentiment-emb" in warnings[1]

        assert main(base + ["--semantic-emb", ws["semantic_emb"]]) == 0
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1 and "--sentiment-emb" in warnings[0]

        assert main(base + ["--semantic-emb", ws["semantic_emb"],
                            "--sentiment-emb", ws["sentiment_emb"]]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("model_key", ["sslstm_model", "nb_model", "svm_model"])
    def test_predict_parses_the_model_file_once(self, ws, model_key, monkeypatch, capsys):
        import sslstm.baselines
        import sslstm.cli
        import sslstm.training

        calls = []
        real = sslstm.training.read_container

        def counting(source):
            calls.append(source)
            return real(source)

        for module in (sslstm.cli, sslstm.training, sslstm.baselines):
            monkeypatch.setattr(module, "read_container", counting)
        assert main(["predict", "--model", ws[model_key], "--data", ws["train"],
                     "--semantic-emb", ws["semantic_emb"],
                     "--sentiment-emb", ws["sentiment_emb"]]) == 0
        assert len(calls) == 1
        assert len(capsys.readouterr().out.splitlines()) == 24

    def test_train_summary_lines(self, ws, tmp_path, capsys):
        model = tmp_path / "m.ckpt"
        assert main(["train", "--train", ws["train"], "--model", str(model),
                     "--semantic-emb", ws["semantic_emb"],
                     "--sem-hidden", "3", "--sent-hidden", "3", "--fc-hidden", "3",
                     "--epochs", "2", "--ratio", "0.75"]) == 0
        out = capsys.readouterr().out
        assert "algorithm: sslstm" in out
        assert "best validation macro-F1:" in out

    def test_train_warns_per_active_channel_without_a_table(self, ws, tmp_path, capsys):
        base = ["train", "--train", ws["train"], "--model", str(tmp_path / "m.ckpt"),
                "--sem-hidden", "3", "--sent-hidden", "3", "--fc-hidden", "3",
                "--epochs", "1", "--ratio", "0.75"]
        assert main(base) == 0
        captured = capsys.readouterr()
        warnings = captured.err.splitlines()
        assert len(warnings) == 2
        assert all(line.startswith("warning: ") for line in warnings)
        assert "--semantic-emb" in warnings[0] and "--sentiment-emb" in warnings[1]
        silent_stdout = captured.out

        assert main(base + ["--channels", "sentiment"]) == 0
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1 and "--sentiment-emb" in warnings[0]

        assert main(base + ["--semantic-emb", ws["semantic_emb"],
                            "--sentiment-emb", ws["sentiment_emb"]]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[0] == silent_stdout.splitlines()[0]

    def test_mcnemar_comparison_between_contrasting_models(self, ws, capsys):
        assert main(["eval", "--model", ws["svm_model"], "--data", ws["emotions"],
                     "--compare-model", ws["nb_others"]]) == 0
        out = capsys.readouterr().out
        assert "McNemar statistic: 18.05" in out
        assert "significant at p < 0.005: yes" in out

    def test_mcnemar_against_itself_is_not_significant(self, ws, capsys):
        assert main(["eval", "--model", ws["svm_model"], "--data", ws["emotions"],
                     "--compare-model", ws["svm_model"]]) == 0
        out = capsys.readouterr().out
        assert "McNemar statistic: 0.00" in out
        assert "significant at p < 0.005: no" in out

    def test_predict_labels_every_row(self, ws, capsys):
        assert main(["predict", "--model", ws["svm_model"], "--data", ws["train"]]) == 0
        rows = [l.split("\t") for l in capsys.readouterr().out.splitlines()]
        assert len(rows) == 24
        assert all(len(r) == 2 and r[1] in LABELS for r in rows)

    def test_predict_handles_unlabeled_data(self, ws, tmp_path, capsys):
        unlabeled = write_lines(
            tmp_path / "unlabeled.tsv",
            ["u1\thi\tthere\talpha alpha", "u2\thi\tthere\tgamma gamma"],
        )
        assert main(["predict", "--model", ws["svm_model"], "--data", unlabeled]) == 0
        rows = dict(l.split("\t") for l in capsys.readouterr().out.splitlines())
        assert rows["u1"] == "happy" and rows["u2"] == "angry"

    def test_predict_on_no_rows_writes_an_empty_file(self, ws, tmp_path):
        data = write_lines(tmp_path / "comments.tsv", ["# no conversations here"])
        out = tmp_path / "predictions.tsv"
        assert main(["predict", "--model", ws["nb_model"], "--data", data,
                     "--output", str(out)]) == 0
        assert out.read_bytes() == b""

    def test_model_files_use_the_container_header(self, ws):
        for key in ("svm_model", "nb_model", "sslstm_model"):
            with open(ws[key], encoding="utf-8") as fh:
                assert fh.readline() == "SSLSTM-CKPT 1\n"


@pytest.fixture(scope="module")
def yay(ws):
    """A lexicon that also reads "yay" as ":)", and a dataset using it."""
    entries = LEX.entries + [("yay", ":)", "happy")]
    path = ws["root"] / "yay.tsv"
    path.write_text("".join("\t".join(e) + "\n" for e in entries), encoding="utf-8")
    rows = [f"y{i}\t\t\tyay so good {KEYWORD[label]}\t{label}" for i, label in enumerate(LABELS)]
    return {"lexicon": str(path), "data": write_lines(ws["root"] / "yay_data.tsv", rows)}


class TestOneLexiconPerCommand:
    def test_train_builds_baseline_features_with_the_lexicon(self, yay, tmp_path, capsys):
        model = tmp_path / "nb.model"
        assert main(["train", "--algo", "nb", "--train", yay["data"], "--model", str(model),
                     "--lexicon", yay["lexicon"]]) == 0
        vocab = load_baseline(str(model)).vocab
        assert ":)" in vocab and ":) so good" in vocab
        assert not any("yay" in gram for gram in vocab)
        sha = load_lexicon(yay["lexicon"]).sha256
        assert f"meta lexicon_sha256={sha}\n" in model.read_text(encoding="utf-8")

    def test_predict_feeds_the_model_tokens_of_the_lexicon(self, ws, yay, tmp_path,
                                                           monkeypatch, capsys):
        import sslstm.cli

        model = str(tmp_path / "m.ckpt")
        assert main(["train", "--train", yay["data"], "--val", yay["data"], "--model", model,
                     "--lexicon", yay["lexicon"], "--sem-hidden", "2", "--sent-hidden", "2",
                     "--fc-hidden", "2", "--epochs", "1"]) == 0
        seen = []
        real = sslstm.cli.batch_predict

        def recording(model, token_lists):
            seen.extend(token_lists)
            return real(model, token_lists)

        monkeypatch.setattr(sslstm.cli, "batch_predict", recording)
        assert main(["predict", "--model", model, "--data", yay["data"],
                     "--lexicon", yay["lexicon"]]) == 0
        assert [surfaces(t)[0] for t in seen] == [":)"] * len(LABELS)
        lex = load_lexicon(yay["lexicon"])
        assert seen[0] == normalize_utterance("yay so good alpha", lex)
        assert seen == [c.tokens for c in read_dataset(yay["data"], lex)]

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("model_key", ["sslstm_model", "nb_model"])
    def test_a_model_refuses_another_lexicon(self, ws, yay, command, model_key, capsys):
        argv = [command, "--model", ws[model_key], "--data", ws["train"]]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--lexicon", yay["lexicon"]]) == 2
        assert "another emoticon lexicon" in capsys.readouterr().err

    def test_the_lexicon_of_a_model_is_required_back(self, ws, yay, tmp_path, capsys):
        model = str(tmp_path / "nb.model")
        assert main(["train", "--algo", "nb", "--train", yay["data"], "--model", model,
                     "--lexicon", yay["lexicon"]]) == 0
        assert main(["predict", "--model", model, "--data", yay["data"]]) == 2
        assert main(["predict", "--model", model, "--data", yay["data"],
                     "--lexicon", yay["lexicon"]]) == 0

    def test_a_model_without_a_lexicon_hash_is_not_checked(self, ws, yay, tmp_path, capsys):
        model = tmp_path / "nb.model"
        built = EmoticonLexicon(LEX.entries)  # built in code: no file, no hash
        save_baseline(load_baseline(ws["nb_model"]), str(model), built)
        assert "meta lexicon_sha256=-\n" in model.read_text(encoding="utf-8")
        assert main(["predict", "--model", str(model), "--data", ws["train"],
                     "--lexicon", yay["lexicon"]]) == 0

    def test_each_command_starts_with_an_empty_chunk_memo(self, tmp_path, monkeypatch):
        import sslstm.cli

        given = []  # each command's lexicon and its memo size when handed over
        real = sslstm.cli._lexicon

        def recording(args):
            lex = real(args)
            given.append((lex, len(lex._chunk_tokens)))
            return lex

        monkeypatch.setattr(sslstm.cli, "_lexicon", recording)
        src = write_lines(tmp_path / "raw.txt", ["Hello, WORLD :-)))", "@user ok"])
        for name in ("one.txt", "two.txt"):
            assert main(["normalize", "--input", src, "--output", str(tmp_path / name)]) == 0
        (first, first_size), (second, second_size) = given
        assert first is not second
        assert (first.entries, first.sha256) == (second.entries, second.sha256)
        assert (first.entries, first.sha256) == (LEX.entries, LEX.sha256)
        assert first_size == second_size == 0
        assert first._chunk_tokens.keys() == second._chunk_tokens.keys() != set()

    @pytest.mark.parametrize("argv", [
        ["split", "--train-out", "{tmp}/a.tsv", "--val-out", "{tmp}/b.tsv"],
        ["stats"],
    ])
    def test_split_and_stats_never_normalize(self, ws, tmp_path, monkeypatch, argv, capsys):
        import sslstm.dataio

        def refuse(*args):
            raise AssertionError("normalized")

        monkeypatch.setattr(sslstm.dataio, "normalize_utterance", refuse)
        argv = [a.format(tmp=tmp_path) for a in argv] + ["--data", ws["train"]]
        assert main(argv) == 0


class TestEmbcos:
    def test_reports_per_table_cosines(self, ws, tmp_path, capsys):
        pairs = write_lines(
            tmp_path / "pairs.tsv", ["alpha\talpha", "alpha\tbeta", "alpha\tnovel"]
        )
        assert main(["embcos", "--pairs", pairs,
                     "--emb", f"semantic={ws['semantic_emb']}",
                     "--emb", f"sentiment={ws['sentiment_emb']}"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "word1\tword2\tsemantic\tsentiment"
        assert lines[1] == "alpha\talpha\t1.0000\t1.0000"
        # same word pair, opposite verdicts: the channels disagree
        assert lines[2] == "alpha\tbeta\t0.0000\t1.0000"
        assert lines[3] == "alpha\tnovel\t0.0000\t0.0000"

    def test_missing_emb_flag_is_usage_error(self, ws, tmp_path, capsys):
        pairs = write_lines(tmp_path / "pairs.tsv", ["a\tb"])
        assert main(["embcos", "--pairs", pairs]) == 1

    def test_bad_emb_spec_is_usage_error(self, ws, tmp_path, capsys):
        pairs = write_lines(tmp_path / "pairs.tsv", ["a\tb"])
        assert main(["embcos", "--pairs", pairs, "--emb", "nameonly"]) == 1
        assert "NAME=PATH" in capsys.readouterr().err

    def test_duplicate_emb_name_is_usage_error(self, ws, tmp_path, capsys):
        pairs = write_lines(tmp_path / "pairs.tsv", ["a\tb"])
        spec = f"semantic={ws['semantic_emb']}"
        assert main(["embcos", "--pairs", pairs, "--emb", spec, "--emb", spec]) == 1

    def test_malformed_pairs_file(self, ws, tmp_path, capsys):
        pairs = write_lines(tmp_path / "pairs.tsv", ["just-one-word"])
        assert main(["embcos", "--pairs", pairs,
                     "--emb", f"semantic={ws['semantic_emb']}"]) == 2


class TestMine:
    def test_similarity_mode_writes_judge_queue(self, ws, tmp_path):
        seeds = write_lines(tmp_path / "seeds.txt", ["alpha beta"])
        pool = write_lines(
            tmp_path / "pool.txt",
            ["alpha beta", "alpha", "gamma", "alpha beta :'("],
        )
        queue = tmp_path / "queue.tsv"
        assert main(["mine", "--mode", "t1", "--seeds", seeds, "--pool", pool,
                     "--emb", ws["semantic_emb"], "--threshold", "0.9",
                     "--target", "happy", "--output", str(queue)]) == 0
        rows = read_judge_queue(str(queue))
        by_utt = {c.utterance: c for c in rows}
        assert by_utt["alpha beta"].score == 1.0
        assert by_utt["alpha beta"].reason == ""
        assert by_utt["alpha beta :'("].reason == "opposite-emoticon"
        assert "gamma" not in by_utt and "alpha" not in by_utt

    def test_similarity_mode_missing_flags(self, ws, capsys):
        assert main(["mine", "--mode", "t1", "--emb", ws["semantic_emb"]]) == 1
        err = capsys.readouterr().err
        assert "--seeds" in err and "--pool" in err

    def test_response_mode_finds_shared_responses(self, tmp_path):
        pairs = write_lines(
            tmp_path / "pairs.tsv",
            [f"i am so mad {i}\tThere, there" for i in range(5)]
            + ["my cat is sick\tthere ,  there", "what time is it\tnoon"],
        )
        class_file = write_lines(
            tmp_path / "angry.txt", [f"i am so mad {i}" for i in range(5)]
        )
        queue = tmp_path / "queue.tsv"
        assert main(["mine", "--mode", "t2", "--pairs", pairs,
                     "--class-utterances", class_file, "--output", str(queue)]) == 0
        rows = read_judge_queue(str(queue))
        assert [c.utterance for c in rows] == ["my cat is sick"]
        assert rows[0].score == 5.0
        assert rows[0].matched == "There, there"

    def test_response_mode_with_a_target_queues_live_then_pruned(self, tmp_path):
        class_qs = [f"i am so mad {i}" for i in range(5)]
        pairs = write_lines(
            tmp_path / "pairs.tsv",
            [f"{q}\tthere there" for q in class_qs[:3]]
            + [f"{q}\toh well" for q in class_qs[3:]]
            + ["late train :(\toh well", "sad news :'(\tthere there", "early train\toh well",
               "one two three four five\toh well", "good news\tthere there"],
        )
        class_file = write_lines(tmp_path / "angry.txt", class_qs)
        queue = tmp_path / "queue.tsv"
        assert main(["mine", "--mode", "t2", "--pairs", pairs, "--class-utterances", class_file,
                     "--target", "happy", "--max-len", "4", "--output", str(queue)]) == 0
        assert [(c.utterance, c.score, c.reason) for c in read_judge_queue(str(queue))] == [
            ("good news", 3.0, ""),
            ("early train", 2.0, ""),
            ("sad news :'(", 3.0, "opposite-emoticon"),
            ("late train :(", 2.0, "opposite-emoticon"),
            ("one two three four five", 2.0, "length"),
        ]

    def test_unwritable_candidate_leaves_no_partial_queue(self, ws, tmp_path, capsys):
        seeds = write_lines(tmp_path / "seeds.txt", ["alpha beta"])
        pool = write_lines(tmp_path / "pool.txt", ["alpha beta", "alpha\tbeta"])
        queue = tmp_path / "queue.tsv"
        assert main(["mine", "--mode", "t1", "--seeds", seeds, "--pool", pool,
                     "--emb", ws["semantic_emb"], "--threshold", "0.9",
                     "--output", str(queue)]) == 1
        assert "tabs" in capsys.readouterr().err
        assert not queue.exists()

    def test_negative_mode_samples_dissimilar_pool_items(self, ws, tmp_path):
        pool = write_lines(tmp_path / "pool.txt", ["alpha", "beta", "gamma", "delta"])
        positives = write_lines(tmp_path / "pos.txt", ["alpha"])
        out = tmp_path / "negatives.txt"
        assert main(["mine", "--mode", "neg", "--pool", pool,
                     "--positives", positives, "--emb", ws["semantic_emb"],
                     "--n", "3", "--seed", "0", "--output", str(out)]) == 0
        assert out.read_text().splitlines() == ["beta", "gamma", "delta"]

    def test_negative_mode_shortfall(self, ws, tmp_path, capsys):
        pool = write_lines(tmp_path / "pool.txt", ["alpha", "beta"])
        positives = write_lines(tmp_path / "pos.txt", ["alpha"])
        assert main(["mine", "--mode", "neg", "--pool", pool,
                     "--positives", positives, "--emb", ws["semantic_emb"],
                     "--n", "2", "--seed", "0"]) == 1
        assert "only 1" in capsys.readouterr().err

    def test_negative_mode_zero_draws_writes_an_empty_file(self, ws, tmp_path):
        pool = write_lines(tmp_path / "pool.txt", ["alpha", "beta"])
        positives = write_lines(tmp_path / "pos.txt", ["alpha"])
        out = tmp_path / "negatives.txt"
        assert main(["mine", "--mode", "neg", "--pool", pool,
                     "--positives", positives, "--emb", ws["semantic_emb"],
                     "--n", "0", "--output", str(out)]) == 0
        assert out.read_bytes() == b""

    def test_negative_mode_refuses_a_target(self, ws, tmp_path, capsys):
        pool = write_lines(tmp_path / "pool.txt", ["alpha", "beta"])
        positives = write_lines(tmp_path / "pos.txt", ["alpha"])
        out = tmp_path / "negatives.txt"
        assert main(["mine", "--mode", "neg", "--pool", pool,
                     "--positives", positives, "--emb", ws["semantic_emb"],
                     "--target", "happy", "--output", str(out)]) == 1
        assert "--target" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_mode_is_deterministic(self, ws, tmp_path):
        pool = write_lines(tmp_path / "pool.txt", ["alpha", "beta", "gamma", "delta"])
        positives = write_lines(tmp_path / "pos.txt", ["zeta"])
        runs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            assert main(["mine", "--mode", "neg", "--pool", pool,
                         "--positives", positives, "--emb", ws["semantic_emb"],
                         "--n", "2", "--seed", "9", "--output", str(out)]) == 0
            runs.append(out.read_text())
        assert runs[0] == runs[1]


class TestStatsAndKappa:
    def test_stats_reproduces_distribution_percentages(self, tmp_path, capsys):
        rows = []
        for label, n in (("happy", 109), ("sad", 107), ("angry", 90), ("others", 1920)):
            rows += [f"{label[0]}{i}\ta\tb\tc\t{label}" for i in range(n)]
        data = write_lines(tmp_path / "big.tsv", rows)
        assert main(["stats", "--data", data]) == 0
        out = capsys.readouterr().out
        for fragment in ("4.90", "4.81", "4.04", "86.25", "2226"):
            assert fragment in out
        assert "happy\t109\t4.90" in out

    def test_kappa_output(self, tmp_path, capsys):
        judgments = write_lines(
            tmp_path / "j.tsv",
            ["i1\t3\t0\t0\t0", "i2\t0\t3\t0\t0", "i3\t2\t1\t0\t0"],
        )
        assert main(["kappa", "--judgments", judgments]) == 0
        out = capsys.readouterr().out
        assert "items: 3" in out
        assert "raters: 3" in out
        assert "fleiss-kappa: 0.5500" in out

    def test_kappa_rejects_malformed_judgments(self, tmp_path, capsys):
        judgments = write_lines(tmp_path / "j.tsv", ["i1\t1\t1"])
        assert main(["kappa", "--judgments", judgments]) == 2


class TestGradcheck:
    @pytest.mark.parametrize("channels", ["both", "semantic", "sentiment"])
    def test_passes_within_tolerance(self, channels, capsys):
        assert main(["gradcheck", "--channels", channels, "--seed", "1"]) == 0
        assert "max relative error" in capsys.readouterr().out

    def test_reports_error_magnitude(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        error = float(out.split("max relative error: ")[1].split()[0])
        assert 0.0 <= error < 1e-4

    # Up to 10,000 parameters every coordinate is checked, above that a
    # seeded sample of 2,000; --hidden 4 and 40 fall on either side.
    @pytest.mark.parametrize("hidden, checked", [("4", "all 328"), ("40", "2000 of 17644")])
    def test_reports_parameters_checked(self, hidden, checked, capsys):
        assert main(["gradcheck", "--hidden", hidden]) == 0
        assert f"parameters checked: {checked}  " in capsys.readouterr().out


class TestConsoleEntry:
    def test_module_invocation_round_trip(self, ws):
        result = subprocess.run(
            [sys.executable, "-m", "sslstm.cli", "stats", "--data", ws["train"]],
            capture_output=True, text=True, env=src_env(),
        )
        assert result.returncode == 0
        assert "total" in result.stdout

    def test_module_invocation_usage_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "sslstm.cli", "train"],
            capture_output=True, text=True, env=src_env(),
        )
        assert result.returncode == 1
