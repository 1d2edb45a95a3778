import dataclasses
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ordercky import cli
from ordercky.trainer import MODES, TrainConfig, load_tensors, save_tensors
from ordercky.trees import DUMMY, BinaryTree, debinarize, load_trees, read_trees, sentence_of

DATA = Path(cli.__file__).parent / "data"

TOY = """\
(S (NP (DT the) (NN cat)) (VP (VB sees) (NP (DT a) (NN dog))))
(S (NP (DT a) (NN dog)) (VP (VB runs)))
(S (NP (DT the) (NN cat)) (VP (VB runs)))
(S (NP (DT a) (NN cat)) (VP (VB sees) (NP (DT the) (NN dog))))
"""


@pytest.fixture
def toy_treebank(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text(TOY, encoding="utf-8")
    return str(path)


@pytest.fixture
def toy_model(tmp_path, toy_treebank):
    path = str(tmp_path / "model.npz")
    rc = cli.main(
        [
            "train", "--train", toy_treebank, "--out", path, "--epochs", "40",
            "--dim", "16", "--hidden", "32", "--batch-size", "4",
            "--learning-rate", "0.02", "--seed", "0", "--quiet",
        ]
    )
    assert rc == 0
    return path


def sentences_file(tmp_path, treebank_path, name="sents.txt"):
    path = tmp_path / name
    lines = []
    for tree in load_trees(treebank_path):
        lines.append(" ".join(f"{w}_{p}" for w, p in sentence_of(tree)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestUsage:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0

    def test_invalid_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["stats", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestStats:
    def test_toy_counts(self, toy_treebank, capsys):
        assert cli.main(["stats", toy_treebank]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "label\tL\tR"
        rows = {l.split("\t")[0]: l for l in lines[1:]}
        # NP: 4 subject NPs left + 2 object NPs right; VP: 4 right, 0 left
        assert rows["NP"] == "NP\t4\t2"
        assert rows["VP"] == "VP\t0\t4"

    def test_empty_file_header_only(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        assert cli.main(["stats", str(empty)]) == 0
        assert capsys.readouterr().out == "label\tL\tR\n"

    def test_missing_file_exits_one(self, capsys):
        assert cli.main(["stats", "/no/such/file.txt"]) == 1

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("(S (NP (DT the) (NN cat)) (VP (VB x)))\n(S (NP (DT the)", encoding="utf-8")
        assert cli.main(["stats", str(bad)]) == 1
        err = capsys.readouterr().err
        assert ":2:" in err and "byte offset" in err


@pytest.mark.parametrize("command", ["stats", "eval", "train"])
def test_tree_nested_past_the_old_bound_reads(tmp_path, command, capsys):
    # 201 levels; the reader used to stop at 200
    deep = tmp_path / "deep.txt"
    first = TOY.splitlines()[0]
    deep.write_text(f"{first}\n{'(A ' * 200}(P w){')' * 200}\n", encoding="utf-8")
    argv = {
        "stats": ["stats", str(deep)],
        "eval": ["eval", "--pred", str(deep), "--gold", str(deep)],
        "train": ["train", "--train", str(deep), "--out", str(tmp_path / "m.npz"), "--epochs", "1",
                  "--dim", "8", "--hidden", "8", "--quiet"],
    }[command]
    assert cli.main(argv) == 0
    assert "error" not in capsys.readouterr().err


def test_eval_reads_a_right_branching_parse_as_deep_as_its_sentence(tmp_path, capsys):
    # the tree parse prints for a right-branching best tree under "S|VP": two
    # levels per token, 240 at 120 tokens
    n = 120
    sentence = tuple((f"w{i}", "T") for i in range(n))
    bt = BinaryTree(DUMMY, n - 1, n, sentence)
    for i in range(n - 2, -1, -1):
        bt = BinaryTree("S|VP", i, n, sentence, BinaryTree(DUMMY, i, i + 1, sentence), bt)
    pred = tmp_path / "pred.txt"
    pred.write_text(debinarize(bt).linearize() + "\n", encoding="utf-8")
    assert cli.main(["eval", "--pred", str(pred), "--gold", str(pred)]) == 0
    brackets = 2 * (n - 1)
    assert capsys.readouterr() == (
        f"P=100.00 R=100.00 F1=100.00 matched={brackets} pred={brackets} gold={brackets}\n", "")


@pytest.mark.parametrize("command", ["stats", "extract-grammar", "eval", "train"])
@pytest.mark.parametrize("tree, message", [
    ("(S (A|B (DT a)) (VP (VB b)))", "tree 1: label 'A|B' uses a reserved symbol ('∅' or '|')"),
    ("(DT a)", "tree 1 is a bare part-of-speech leaf"),
], ids=["reserved-label", "bare-leaf"])
def test_rejected_tree_names_path_and_line(tmp_path, toy_treebank, command, tree, message, capsys):
    bad = tmp_path / "bad.txt"
    first = TOY.splitlines()[0]
    bad.write_text(f"{first}\n{tree}\n", encoding="utf-8")
    argv = {
        "stats": ["stats", str(bad)],
        "extract-grammar": ["extract-grammar", str(bad)],
        "eval": ["eval", "--pred", str(bad), "--gold", toy_treebank],
        "train": ["train", "--train", str(bad), "--out", str(tmp_path / "m.npz")],
    }[command]
    assert cli.main(argv) == 1
    # the tree's first bracket, which opens line 2
    assert capsys.readouterr() == ("", f"error: {bad}:2: {message} (byte offset {len(first) + 1})\n")


@pytest.mark.parametrize("command, out", [
    ("stats", "label\tL\tR\n∅\t1499\t1499\n"),
    ("extract-grammar", "parent\tleft\tright\nS\t∅\t∅\n∅\t∅\t∅\n"),
])
def test_flat_tree_with_1500_children(tmp_path, command, out, capsys):
    wide = tmp_path / "wide.txt"
    wide.write_text("(S " + " ".join(f"(T w{k})" for k in range(1500)) + ")\n", encoding="utf-8")
    assert cli.main([command, str(wide)]) == 0
    assert capsys.readouterr() == (out, "")


class TestExtractGrammar:
    def test_toy_rules(self, toy_treebank, capsys):
        assert cli.main(["extract-grammar", toy_treebank]) == 0
        out = capsys.readouterr().out
        assert out.startswith("parent\tleft\tright\n")
        assert "S\tNP\tVP" in out
        assert "NP\t∅\t∅" in out


class TestTrainParseEval:
    def test_round_trip_reaches_perfect_f1(self, tmp_path, toy_treebank, toy_model, capsys):
        sents = sentences_file(tmp_path, toy_treebank)
        pred_path = tmp_path / "pred.txt"
        assert cli.main(["parse", "--model", toy_model, sents]) == 0
        pred_path.write_text(capsys.readouterr().out, encoding="utf-8")
        assert cli.main(["eval", "--pred", str(pred_path), "--gold", toy_treebank]) == 0
        out = capsys.readouterr().out
        assert out.startswith("P=100.00 R=100.00 F1=100.00")

    def test_parse_print_score(self, tmp_path, toy_treebank, toy_model, capsys):
        sents = sentences_file(tmp_path, toy_treebank)
        assert cli.main(["parse", "--model", toy_model, sents, "--print-score"]) == 0
        line = capsys.readouterr().out.strip().split("\n")[0]
        tree_part, score_part = line.rsplit("\t", 1)
        float(score_part)
        assert tree_part.startswith("(S ")

    def test_parse_threads_identical(self, tmp_path, toy_treebank, toy_model, capsys):
        sents = sentences_file(tmp_path, toy_treebank)
        assert cli.main(["parse", "--model", toy_model, sents, "--threads", "1"]) == 0
        one = capsys.readouterr().out
        assert cli.main(["parse", "--model", toy_model, sents, "--threads", "8"]) == 0
        eight = capsys.readouterr().out
        assert one == eight

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_parse_keeps_input_order_across_chunks(self, tmp_path, toy_treebank, toy_model,
                                                   threads, capsys):
        toy = [sentence_of(t) for t in load_trees(toy_treebank)]
        # more lines than one decode chunk, each with its own (unknown) first word
        sentences = [((f"w{i}", toy[i % 4][0][1]),) + toy[i % 4][1:]
                     for i in range(2 * cli.CHUNK + 5)]
        sents = tmp_path / "many.txt"
        sents.write_text("".join(" ".join(f"{w}_{p}" for w, p in s) + "\n" for s in sentences),
                         encoding="utf-8")
        assert cli.main(["parse", "--model", toy_model, str(sents), "--threads", threads]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [sentence_of(tree) for tree in read_trees("\n".join(lines))] == sentences

    def test_parse_malformed_token_exits_one(self, tmp_path, toy_model, capsys):
        bad = tmp_path / "bad_sents.txt"
        bad.write_text("word-without-tag\n", encoding="utf-8")
        assert cli.main(["parse", "--model", toy_model, str(bad)]) == 1
        assert "word_POS" in capsys.readouterr().err

    def test_parse_mode_override(self, tmp_path, toy_treebank, toy_model, capsys):
        sents = sentences_file(tmp_path, toy_treebank)
        for mode in ("baseline", "ablation", "ordered"):
            assert cli.main(["parse", "--model", toy_model, sents, "--mode", mode]) == 0
            out = capsys.readouterr().out
            assert out.count("(S") >= 1

    def test_eval_per_sentence_dump(self, tmp_path, toy_treebank, capsys):
        dump = tmp_path / "per.tsv"
        assert cli.main(
            ["eval", "--pred", toy_treebank, "--gold", toy_treebank,
             "--per-sentence", str(dump)]
        ) == 0
        rows = dump.read_text().strip().split("\n")
        assert rows[0] == "index\tmatched\tpredicted\tgold"
        assert len(rows) == 5

    @pytest.mark.parametrize("pred_lines, cause", [
        (TOY.splitlines()[:1], "1 predicted trees vs 4 gold trees"),
        (["(S (NP (DT the) (NN cat)) (VP (VB runs)))", *TOY.splitlines()[1:]],
         "sentence 0: predicted and gold lengths differ"),
    ], ids=["tree-count", "sentence-length"])
    def test_eval_mismatch_names_both_files(self, tmp_path, toy_treebank, pred_lines, cause, capsys):
        pred = tmp_path / "pred.txt"
        pred.write_text("\n".join(pred_lines) + "\n", encoding="utf-8")
        assert cli.main(["eval", "--pred", str(pred), "--gold", toy_treebank]) == 1
        assert capsys.readouterr() == ("", f"error: --pred {pred} vs --gold {toy_treebank}: {cause}\n")

    def test_train_log_format(self, tmp_path, toy_treebank, capsys):
        out = str(tmp_path / "m.npz")
        rc = cli.main(
            ["train", "--train", toy_treebank, "--out", out, "--epochs", "2",
             "--dim", "8", "--hidden", "8", "--seed", "3"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "epoch\tloss\tP\tR\tF1\tlr"
        assert len(lines) == 4  # header + epoch 0 + 2 epochs
        fields = lines[2].split("\t")
        assert fields[0] == "1" and len(fields) == 6

    def test_train_deterministic_given_seed(self, tmp_path, toy_treebank, capsys):
        logs = []
        for run in range(2):
            out = str(tmp_path / f"m{run}.npz")
            assert cli.main(
                ["train", "--train", toy_treebank, "--out", out, "--epochs", "3",
                 "--dim", "8", "--hidden", "8", "--seed", "11"]
            ) == 0
            logs.append(capsys.readouterr().out)
        assert logs[0] == logs[1]

    def test_config_file_precedence(self, tmp_path, toy_treebank, capsys):
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 1\ndim = 8\nhidden = 8\n# comment\n", encoding="utf-8")
        out = str(tmp_path / "m.npz")
        # config epochs=1 applies
        assert cli.main(
            ["train", "--train", toy_treebank, "--out", out, "--config", str(config)]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3  # header + epoch 0 + 1 epoch
        # flag overrides config
        assert cli.main(
            ["train", "--train", toy_treebank, "--out", out, "--config", str(config),
             "--epochs", "2"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4


class TestOracleCheckCommand:
    def test_small_pass(self, capsys):
        assert cli.main(["oracle-check", "--trials", "5", "--seed", "1"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_zero_trials_vacuous(self, capsys):
        assert cli.main(["oracle-check", "--trials", "0"]) == 0
        captured = capsys.readouterr()
        assert "0 trials" in captured.err
        assert "pass" in captured.out

    def test_corrupted_decoder_fails_with_replay(self, tmp_path, monkeypatch, capsys):
        # the production decoder that parse and train run, through the mode table
        import ordercky.trainer as trainer

        real = trainer.decode_charts_batched

        def corrupted(charts, compiled, **kwargs):
            results = real(charts, compiled, **kwargs)
            for result in results:
                result.score += 1.0
            return results

        monkeypatch.setattr(trainer, "decode_charts_batched", corrupted)
        replay = tmp_path / "replay.json"
        rc = cli.main(
            ["oracle-check", "--trials", "3", "--seed", "0", "--replay", str(replay)]
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().err
        record = json.loads(replay.read_text())
        assert record["mode"] == "ordered"
        assert record["gap"] == pytest.approx(1.0)
        assert "instance" in record


class TestBench:
    def test_reports_all_modes(self, tmp_path, toy_treebank, toy_model, capsys):
        assert cli.main(
            ["bench", "--model", toy_model, toy_treebank, "--repetitions", "2"]
        ) == 0
        out = capsys.readouterr().out.strip().split("\n")
        modes = [line.split("\t")[0] for line in out]
        assert modes == ["baseline", "ablation", "ordered"]
        for line in out:
            float(line.split("\t")[1].split()[0])

    def test_single_repetition_flagged_noisy(self, toy_treebank, toy_model, capsys):
        assert cli.main(
            ["bench", "--model", toy_model, toy_treebank, "--repetitions", "1",
             "--mode", "baseline"]
        ) == 0
        assert "noisy" in capsys.readouterr().out

    def test_threads_two_reports_each_mode_once(self, toy_treebank, toy_model, capsys):
        assert cli.main(
            ["bench", "--model", toy_model, toy_treebank, "--repetitions", "2", "--threads", "2"]
        ) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert [line.split("\t")[0] for line in out] == list(MODES)

    def test_repetitions_interleave_the_modes(self, toy_treebank, toy_model, monkeypatch, capsys):
        # every repetition runs each mode once, from a rotating start
        calls = []
        monkeypatch.setattr(cli, "_decode_all", lambda sentences, model, compiled, mode, *rest:
                            calls.append(mode))
        assert cli.main(["bench", "--model", toy_model, toy_treebank, "--repetitions", "2"]) == 0
        assert calls == ["baseline", "ablation", "ordered", "ablation", "ordered", "baseline"]
        out = capsys.readouterr().out.strip().split("\n")
        assert [line.split("\t")[0] for line in out] == list(MODES)

    def test_empty_input_na(self, tmp_path, toy_model, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        assert cli.main(["bench", "--model", toy_model, str(empty)]) == 0
        assert "n/a" in capsys.readouterr().out


def test_console_entry_point(toy_treebank):
    proc = subprocess.run(
        [sys.executable, "-m", "ordercky.cli", "stats", toy_treebank],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("label\tL\tR")


def test_parse_reads_stdin(toy_treebank, toy_model):
    proc = subprocess.run(
        [sys.executable, "-m", "ordercky.cli", "parse", "--model", toy_model],
        input="the_DT cat_NN runs_VB\n", capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("(S")


def test_parse_handles_unknown_words(tmp_path, toy_model, capsys):
    sents = tmp_path / "unk.txt"
    sents.write_text("zyzzyva_NN qwop_VB\n", encoding="utf-8")
    assert cli.main(["parse", "--model", toy_model, str(sents)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("(") and "zyzzyva" in out


def _string_tensor(bad, real):
    tensors, meta = load_tensors(str(real))
    tensors["w2_L"] = tensors["w2_L"].astype("U3")
    np.savez(bad, **tensors, __meta__=np.array(json.dumps(meta)))


@pytest.mark.parametrize("write, message", [
    (lambda bad, real: bad.write_bytes(b"not a checkpoint at all"),
     "cannot be read as an .npz archive of arrays"),
    (lambda bad, real: bad.write_bytes(real.read_bytes()[:100]),
     "cannot be read as an .npz archive of arrays"),
    (lambda bad, real: np.savez(bad, x=np.zeros(2)), "checkpoint lacks '__meta__'"),
    (lambda bad, real: np.savez(bad, __meta__=np.array("{not json")),
     "checkpoint '__meta__' is not a JSON object"),
    (lambda bad, real: np.savez(bad, __meta__=np.array("[1,2]")),
     "checkpoint '__meta__' is not a JSON object"),
    (lambda bad, real: np.savez(bad, __meta__=np.array("[" * 100_000 + "]" * 100_000)),
     "checkpoint '__meta__' is not a JSON object"),
    (lambda bad, real: save_tensors(str(bad), {}, {"format_version": 2}), "unsupported model format: 2"),
    (_string_tensor, "tensor 'w2_L' has dtype <U3, expected float64"),
], ids=["text", "first 100 bytes", "no __meta__", "{not json", "[1,2]", "deep JSON", "version 2",
        "string tensor"])
def test_malformed_checkpoint_file_exits_one_naming_it(tmp_path, toy_treebank, toy_model, write,
                                                       message, capsys):
    bad = tmp_path / "bad.npz"
    write(bad, Path(toy_model))
    sents = sentences_file(tmp_path, toy_treebank)
    assert cli.main(["parse", "--model", str(bad), sents]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")


def test_bench_sentence_exceeding_maxlen_exits_one(tmp_path, toy_treebank, capsys):
    short = tmp_path / "short.txt"
    short.write_text("(S (NP (DT the) (NN cat)) (VP (VB runs)))\n", encoding="utf-8")
    out = str(tmp_path / "tiny.npz")
    assert cli.main(
        ["train", "--train", str(short), "--out", out, "--epochs", "0",
         "--dim", "8", "--hidden", "8", "--maxlen", "4", "--quiet"]
    ) == 0
    capsys.readouterr()
    assert cli.main(["bench", "--model", out, toy_treebank, "--repetitions", "1"]) == 1
    assert capsys.readouterr() == ("", f"error: {toy_treebank}: tree 0: sentence length 5 >= maxlen 4\n")


@pytest.mark.parametrize("where", ["train", "dev"])
def test_train_rejects_a_too_long_sentence_before_epoch_0(tmp_path, toy_treebank, where, capsys):
    short = tmp_path / "short.txt"
    short.write_text("(S (NP (DT the) (NN cat)) (VP (VB runs)))\n", encoding="utf-8")
    train, dev = (toy_treebank, str(short)) if where == "train" else (str(short), toy_treebank)
    out = tmp_path / "m.npz"
    assert cli.main(["train", "--train", train, "--dev", dev, "--out", str(out),
                     "--maxlen", "4", "--dim", "8", "--hidden", "8"]) == 1
    assert capsys.readouterr() == ("", f"error: {toy_treebank}: tree 0: sentence length 5 >= maxlen 4\n")
    assert not out.exists()


@pytest.mark.parametrize("where", ["train", "dev"])
def test_train_rejects_an_empty_treebank(tmp_path, toy_treebank, where, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n", encoding="utf-8")
    train, dev = (str(empty), toy_treebank) if where == "train" else (toy_treebank, str(empty))
    out = tmp_path / "m.npz"
    assert cli.main(["train", "--train", train, "--dev", dev, "--out", str(out),
                     "--dim", "8", "--hidden", "8"]) == 1
    assert capsys.readouterr() == ("", f"error: {empty}: the treebank holds no trees\n")
    assert not out.exists()


def test_config_unknown_key_rejected(tmp_path, toy_treebank, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("epocks = 5\n", encoding="utf-8")
    out = str(tmp_path / "m.npz")
    assert cli.main(
        ["train", "--train", toy_treebank, "--out", out, "--config", str(config)]
    ) == 1
    assert "unknown config keys: epocks" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["parse", "bench"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_thread_count_below_one_is_usage_error(tmp_path, toy_treebank, command, threads, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--model", str(tmp_path / "m.npz"), toy_treebank, "--threads", threads])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oracle-check", "--trials", "-3"], "--trials: must be >= 0, got -3"),
        (["oracle-check", "--max-n", "1"], "--max-n: must be between 2 and 8, got 1"),
        (["oracle-check", "--max-n", "9"], "--max-n: must be between 2 and 8, got 9"),
        (["oracle-check", "--max-labels", "1"], "--max-labels: must be between 2 and 6, got 1"),
        (["oracle-check", "--max-labels", "9"], "--max-labels: must be between 2 and 6, got 9"),
        (["oracle-check", "--trials", "many"], "--trials: invalid int value: 'many'"),
        (["oracle-check", "--seed", "-1"], "--seed: must be >= 0, got -1"),
        (["bench", "--model", "missing.npz", "missing.txt", "--repetitions", "0"],
         "--repetitions: must be >= 1, got 0"),
    ],
)
def test_out_of_range_count_is_usage_error(argv, message, capsys):
    # checked while parsing, before any file is read
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_oracle_check_accepts_its_bounds(capsys):
    argv = ["oracle-check", "--trials", "2", "--max-n", "8", "--max-labels", "6", "--seed", "3"]
    assert cli.main(argv) == 0
    assert "8 checks over 2 trials, pass" in capsys.readouterr().out


def test_mode_choices_come_from_the_mode_table():
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    choices = {
        name: next(a.choices for a in commands[name]._actions if a.dest == "mode")
        for name in ("train", "parse", "bench")
    }
    assert list(choices["train"]) == list(choices["parse"]) == list(MODES)
    assert list(choices["bench"]) == [*MODES, "all"]


@pytest.mark.parametrize("line, cause", [
    ("_NN a_DT", "token '_NN' is not word_POS"),
    ("the_DT a_", "token 'a_' is not word_POS"),
    (" ".join(["the_DT"] * 70), "sentence length 70 >= maxlen 64"),
], ids=["_NN a_DT", "the_DT a_", "70 tokens"])
def test_parse_rejects_empty_word_or_pos(tmp_path, toy_model, line, cause, monkeypatch, capsys):
    text = f"the_DT cat_NN\n{line}\n"
    sents = tmp_path / "sents.txt"
    sents.write_text(text, encoding="utf-8")
    # every line is checked before any sentence is decoded, fallback or not
    monkeypatch.setattr(cli, "_decode_all", lambda *args: pytest.fail("decoded"))
    for fallback in ([], ["--fallback-right-branching"]):
        assert cli.main(["parse", "--model", toy_model, str(sents), *fallback]) == 1
        assert capsys.readouterr() == ("", f"error: {sents}:2: {cause}\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert cli.main(["parse", "--model", toy_model, *fallback]) == 1
        assert capsys.readouterr() == ("", f"error: <stdin>:2: {cause}\n")


def _rewrite_checkpoint(src, dst, edit_tensors=None, edit_meta=None):
    tensors, meta = load_tensors(src)
    if edit_tensors:
        edit_tensors(tensors)
    if edit_meta:
        edit_meta(meta)
    save_tensors(dst, tensors, meta)
    return dst


def _rename_first_parent(meta):
    # "AA" sorts before every toy label, so the rules stay sorted
    meta["rules"][0][0] = "AA"


def _nan_at_origin(name):
    def edit(tensors):
        tensors[name] = tensors[name].copy()
        tensors[name].flat[0] = np.nan
    return edit


@pytest.mark.parametrize(
    "edit_tensors, edit_meta, named",
    [
        (_nan_at_origin("w2_L"), None, "'w2_L' has non-finite values"),
        (_nan_at_origin("rule_scores"), None, "'rule_scores' has non-finite values"),
        (lambda t: t.pop("rule_scores"), None, "lacks tensor 'rule_scores'"),
        (lambda t: t.pop("b1_R"), None, "lacks tensor 'b1_R'"),
        (lambda t: t.update(mix_b=t["mix_b"][:-1]), None, "'mix_b' has shape"),
        (None, lambda m: m.pop("rules"), "metadata lacks 'rules'"),
        (None, lambda m: m.pop("hidden"), "metadata lacks 'hidden'"),
        (None, lambda m: m.update(dim=15), "metadata 'dim' is odd"),
        (None, lambda m: m.update(dim=16.9), "metadata 'dim' is malformed"),
        (None, lambda m: m.update(rules=[["S", "NP"]]), "metadata 'rules' is malformed"),
        (None, lambda m: m.update(mode="cubic"), "mode 'cubic'"),
        (None, lambda m: m.update(words=m["words"][1:]), "'words' lacks '<UNK>'"),
        (None, lambda m: m.update(rules=m["rules"][::-1]), "metadata 'rules' is not sorted and distinct"),
        (None, lambda m: m.update(labels=m["labels"][::-1]), "metadata 'labels' is not sorted and distinct"),
        (None, _rename_first_parent, "metadata 'rules' names unknown labels ['AA']"),
        (None, lambda m: m.update(labels=[0, *m["labels"][1:]]), "metadata 'labels' is malformed"),
        (None, lambda m: m["rules"][0].__setitem__(1, ["NP"]), "metadata 'rules' is malformed"),
    ],
)
def test_invalid_checkpoint_exits_one_naming_entry(
    tmp_path, toy_treebank, toy_model, edit_tensors, edit_meta, named, capsys
):
    bad = _rewrite_checkpoint(toy_model, str(tmp_path / "bad.npz"), edit_tensors, edit_meta)
    sents = sentences_file(tmp_path, toy_treebank)
    assert cli.main(["parse", "--model", bad, sents]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ") and named in captured.err


def _huge_span_scores(tensors):
    # finite parameters whose every span scores 1e308 in both heads: any tree
    # of two or more tokens sums to an +inf root
    for name in ("L", "R"):
        tensors[f"w2_{name}"] = np.zeros_like(tensors[f"w2_{name}"])
        tensors[f"b2_{name}"] = np.full_like(tensors[f"b2_{name}"], 1e308)


@pytest.mark.parametrize("mode", list(MODES))
def test_parse_non_finite_chart_falls_back_or_names_the_sentence(
    tmp_path, toy_treebank, toy_model, mode, capsys
):
    bad = _rewrite_checkpoint(toy_model, str(tmp_path / "huge.npz"), _huge_span_scores)
    sents = sentences_file(tmp_path, toy_treebank)
    argv = ["parse", "--model", bad, "--mode", mode, sents, "--print-score"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings stay silent
        assert cli.main(argv + ["--fallback-right-branching"]) == 0
        fallen = capsys.readouterr()
        assert cli.main(argv) == 1
    # the right-branching fallback, debinarized flat, and one line counting the causes
    lines = fallen.out.splitlines()
    assert len(lines) == 4 and all(line.endswith("\tnan") for line in lines)
    assert lines[0] == "(NP (DT the) (NN cat) (VB sees) (DT a) (NN dog))\tnan"
    assert fallen.err == "warning: 4 fallbacks: 0 no derivation, 4 non-finite\n"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: sentence 'the cat sees a dog': the chart scores are not finite (n=5); "
        "use --fallback-right-branching to emit a flat tree\n"
    )
    # a parse that falls back on nothing says nothing
    assert cli.main(["parse", "--model", toy_model, "--mode", mode, sents,
                     "--fallback-right-branching"]) == 0
    assert capsys.readouterr().err == ""


def test_parse_counts_fallbacks_that_find_no_derivation(tmp_path, toy_model, capsys):
    # no tree of the toy grammar (S -> NP VP, NP -> ∅ ∅, VP -> ∅ NP) spans six tokens
    sents = tmp_path / "odd.txt"
    sents.write_text("the_DT cat_NN runs_VB\nthe_DT cat_NN sees_VB a_DT big_JJ dog_NN\n",
                     encoding="utf-8")
    assert cli.main(["parse", "--model", toy_model, str(sents), "--fallback-right-branching"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 2
    assert captured.err == "warning: 1 fallbacks: 1 no derivation, 0 non-finite\n"


TRAIN_OWN_OPTIONS = {"help", "train_path", "dev_path", "out", "config", "quiet"}


@pytest.fixture
def fit_configs(monkeypatch):
    """The TrainConfig each ``train`` run passes to ``fit``, which is skipped."""
    seen = []

    def record(train, dev, config, **kwargs):
        seen.append(config)
        return SimpleNamespace(best_f1=0.0)

    monkeypatch.setattr(cli, "fit", record)
    return seen


def changed_settings():
    """A valid value other than the default for every TrainConfig field."""
    out = {}
    for f in dataclasses.fields(TrainConfig):
        if f.name == "mode":
            out[f.name] = next(mode for mode in MODES if mode != f.default)
        else:
            out[f.name] = f.default / 2 if isinstance(f.default, float) else f.default + 1
    return out


def test_train_options_are_the_train_config_fields():
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    options = {action.dest for action in commands["train"]._actions}
    assert options - TRAIN_OWN_OPTIONS == {f.name for f in dataclasses.fields(TrainConfig)}


def test_train_without_flags_builds_the_default_config(tmp_path, toy_treebank, fit_configs):
    assert cli.main(["train", "--train", toy_treebank, "--out", str(tmp_path / "m.npz")]) == 0
    assert fit_configs == [TrainConfig()]
    assert fit_configs[0].epochs == 200


@pytest.mark.parametrize("source", ["flags", "config"])
def test_every_train_config_field_is_a_flag_and_a_config_key(tmp_path, toy_treebank, fit_configs,
                                                             source):
    settings = changed_settings()
    argv = ["train", "--train", toy_treebank, "--out", str(tmp_path / "m.npz")]
    if source == "flags":
        for name, value in settings.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
    else:
        config = tmp_path / "train.cfg"
        config.write_text("".join(f"{name} = {value}\n" for name, value in settings.items()),
                          encoding="utf-8")
        argv += ["--config", str(config)]
    assert cli.main(argv) == 0
    assert fit_configs == [TrainConfig(**settings)]


@pytest.mark.parametrize("flags, config, message", [
    (["--maxlen", "-3"], None, "maxlen must be at least 2"),
    (["--seed", "-1"], None, "seed must be non-negative"),
    ([], "epochs = ten", "{config}: epochs: invalid literal for int() with base 10: 'ten'"),
], ids=["maxlen", "seed", "config-value"])
def test_train_setting_errors_name_the_setting(tmp_path, toy_treebank, fit_configs, flags, config,
                                               message, capsys):
    argv = ["train", "--train", toy_treebank, "--out", str(tmp_path / "m.npz"), *flags]
    path = tmp_path / "train.cfg"
    if config:
        path.write_text(config + "\n", encoding="utf-8")
        argv += ["--config", str(path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message.format(config=path)}\n"
    assert not fit_configs


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_train_rejects_a_learning_rate_that_is_not_finite(tmp_path, toy_treebank, source, value, capsys):
    # such a rate used to train a whole epoch and write a checkpoint first
    out = tmp_path / "m.npz"
    argv = ["train", "--train", toy_treebank, "--out", str(out), "--epochs", "1", "--dim", "8",
            "--hidden", "8", "--quiet"]
    if source == "flags":
        argv += ["--learning-rate", value]
    else:
        config = tmp_path / "train.cfg"
        config.write_text(f"learning-rate = {value}\n", encoding="utf-8")
        argv += ["--config", str(config)]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: learning_rate must be finite\n")
    assert not out.exists()


@pytest.mark.parametrize("key", sorted(TRAIN_OWN_OPTIONS - {"help"}))
def test_config_keys_are_only_train_config_fields(tmp_path, toy_treebank, fit_configs, key, capsys):
    config = tmp_path / "train.cfg"
    config.write_text(f"{key} = 1\n", encoding="utf-8")
    argv = ["train", "--train", toy_treebank, "--out", str(tmp_path / "m.npz"), "--config", str(config)]
    assert cli.main(argv) == 1
    assert f"unknown config keys: {key}" in capsys.readouterr().err
    assert not fit_configs


@pytest.mark.parametrize("mode", list(MODES))
def test_train_blowup_prints_one_error_line(tmp_path, mode):
    out = tmp_path / "m.npz"
    proc = subprocess.run(
        [sys.executable, "-m", "ordercky.cli", "train", "--train", str(DATA / "skew_train.txt"),
         "--dev", str(DATA / "skew_dev.txt"), "--out", str(out), "--mode", mode,
         "--learning-rate", "1e300", "--epochs", "5", "--dim", "8", "--hidden", "16"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr
    # the line says what the run left at --out: the checkpoint written before epoch 1
    assert proc.stderr.splitlines() == [
        "error: epoch 1: the loss or a parameter is not finite; try a lower learning rate; "
        f"{out} holds the checkpoint of epoch 0"
    ]
    assert proc.stdout.splitlines()[1].startswith("0\t") and out.exists()
