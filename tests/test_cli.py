import json
import subprocess
import sys

import numpy as np
import pytest

from ordercky import cli
from ordercky.trees import load_trees, sentence_of

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
        import ordercky.selfcheck as selfcheck

        real = selfcheck.decode_ordered

        def corrupted(chart, grammar, rules, **kwargs):
            result = real(chart, grammar, rules, **kwargs)
            result.score += 1.0
            return result

        monkeypatch.setattr(selfcheck, "decode_ordered", corrupted)
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


def test_corrupt_checkpoint_exits_one(tmp_path, toy_treebank, capsys):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not a checkpoint at all")
    assert cli.main(["parse", "--model", str(bad), toy_treebank]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bench_sentence_exceeding_maxlen_exits_one(tmp_path, toy_treebank, capsys):
    short = tmp_path / "short.txt"
    short.write_text("(S (NP (DT the) (NN cat)) (VP (VB runs)))\n", encoding="utf-8")
    out = str(tmp_path / "tiny.npz")
    assert cli.main(
        ["train", "--train", str(short), "--out", out, "--epochs", "0",
         "--dim", "8", "--hidden", "8", "--maxlen", "4", "--quiet"]
    ) == 0
    assert cli.main(["bench", "--model", out, toy_treebank, "--repetitions", "1"]) == 1
    assert "maxlen" in capsys.readouterr().err


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
    from ordercky.trainer import MODES

    commands = cli.build_parser()._subparsers._group_actions[0].choices
    choices = {
        name: next(a.choices for a in commands[name]._actions if a.dest == "mode")
        for name in ("train", "parse", "bench")
    }
    assert list(choices["train"]) == list(choices["parse"]) == list(MODES)
    assert list(choices["bench"]) == [*MODES, "all"]


@pytest.mark.parametrize("line", ["_NN a_DT", "the_DT a_"])
def test_parse_rejects_empty_word_or_pos(tmp_path, toy_model, line, capsys):
    sents = tmp_path / "sents.txt"
    sents.write_text(f"the_DT cat_NN\n{line}\n", encoding="utf-8")
    assert cli.main(["parse", "--model", toy_model, str(sents)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2" in captured.err


def _rewrite_checkpoint(src, dst, edit_tensors=None, edit_meta=None):
    from ordercky.scorer import load_tensors, save_tensors

    tensors, meta = load_tensors(src)
    if edit_tensors:
        edit_tensors(tensors)
    if edit_meta:
        edit_meta(meta)
    save_tensors(dst, tensors, meta)
    return dst


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
        (None, lambda m: m.update(rules=[["S", "NP"]]), "metadata 'rules' is malformed"),
        (None, lambda m: m.update(mode="cubic"), "mode 'cubic'"),
        (None, lambda m: m.update(words=m["words"][1:]), "'words' lacks '<UNK>'"),
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
