"""The benchmark under perfbench/ traces and checks the package by patching
its module attributes.  These tests read perfbench without changing it and
keep the names it patches in place, so a cleanup cannot silently disable the
benchmark's tracing or its output checks."""

import importlib
from collections import Counter
from pathlib import Path

import pytest

from ordercky import cli
from ordercky.trainer import MODES, TrainConfig, init_state, load_checkpoint, save_checkpoint
from ordercky.trees import Treebank, read_trees, sentence_of

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TOY = """\
(S (NP (DT the) (NN cat)) (VP (VB sees) (NP (DT a) (NN dog))))
(S (NP (DT a) (NN dog)) (VP (VB runs)))
(S (NP (DT the) (NN cat)) (VP (VB runs)))
(S (NP (DT a) (NN cat)) (VP (VB sees) (NP (DT the) (NN dog))))
"""


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


@pytest.fixture
def toy_files(tmp_path):
    trees = read_trees(TOY)
    treebank = tmp_path / "toy.txt"
    treebank.write_text(TOY, encoding="utf-8")
    sentences = [sentence_of(t) for t in trees]
    sents = tmp_path / "sents.txt"
    sents.write_text("".join(" ".join(f"{w}_{p}" for w, p in s) + "\n" for s in sentences),
                     encoding="utf-8")
    model = tmp_path / "model.npz"
    config = TrainConfig(seed=0, dim=8, hidden=8, maxlen=16)
    save_checkpoint(str(model), init_state(Treebank.from_trees(trees), config))
    return str(treebank), str(sents), str(model), sentences


def test_tracer_targets_resolve(perfbench):
    tracing = perfbench("tracing")
    for name, owner, attr, _ in tracing.TARGETS:
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert found is not None, f"{name}: {owner.__name__}.{attr} is gone"


@pytest.mark.parametrize("mode", list(MODES))
def test_tracer_sees_training_decodes(perfbench, toy_files, mode):
    tracing = perfbench("tracing")
    treebank, _, _, sentences = toy_files
    out = str(Path(treebank).with_suffix(".npz"))
    argv = ["train", "--train", treebank, "--out", out, "--mode", mode, "--epochs", "2",
            "--dim", "8", "--hidden", "8", "--seed", "0", "--quiet"]
    probe = tracing.Probe(timing=True)
    with tracing.installed(probe), probe.root(mode):
        assert cli.main(argv) == 0
    assert probe.counts["trainer.sentences"] == 2 * len(sentences)
    # each sentence's gradient runs one traced forward, Hamming cost, decode
    # and gold score, whichever module-level names the mode table reaches
    spans = probe.spans
    per_sentence = Counter(name for name, _, _, parent, _ in spans
                           if parent >= 0 and spans[parent][0] == "trainer.sentence_gradients")
    for name in ("scorer.forward", "decoder.hamming_costs", "decoder.decode", "decoder.tree_score"):
        assert per_sentence[name] == probe.counts["trainer.sentences"], name


@pytest.mark.parametrize("mode", list(MODES))
def test_parse_captures_one_decode_per_sentence(perfbench, toy_files, mode, capsys):
    checks = perfbench("checks")
    _, sents, model, sentences = toy_files
    sink: list = []
    with checks.captured_decodes(sink):
        argv = ["parse", "--model", model, "--mode", mode, sents, "--print-score",
                "--threads", "2"]
        assert cli.main(argv) == 0
    assert sorted(sent for sent, _, _ in sink) == sorted(sentences)
    scorer, _, rules, _ = load_checkpoint(model)
    text = capsys.readouterr().out
    assert not checks.check_results(mode, sentences, text, sink, scorer.labels, rules)
