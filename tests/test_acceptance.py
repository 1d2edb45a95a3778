"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import os
import time
from importlib import resources

import numpy as np
import pytest

from ordercky import cli
from ordercky.decoder import CompiledRules, decode_charts_batched, decode_ordered
from ordercky.evaluate import score_trees
from ordercky.scorer import ScorerModel, span_index_arrays
from ordercky.selfcheck import oracle_check
from ordercky.trainer import TrainConfig, fit
from ordercky.trees import Treebank, load_trees

DATA = resources.files("ordercky").joinpath("data")


def data_path(name):
    return str(DATA.joinpath(name))


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}{' — ' + detail if detail else ''}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def memorize_model(tmp_path_factory):
    """Checkpoint trained on the bundled 50-sentence corpus, plus timing."""
    path = str(tmp_path_factory.mktemp("accept") / "memorize.npz")
    train = Treebank.load(data_path("memorize50.txt"))
    start = time.monotonic()
    state = fit(train, train, TrainConfig(mode="ordered", epochs=200, seed=0),
                checkpoint_path=path)
    elapsed = time.monotonic() - start
    return path, state, elapsed, train


@pytest.fixture(scope="session")
def skew_runs():
    """dev F1 per (mode, seed) on the skewed corpus, capacity-limited scorer."""
    train = Treebank.load(data_path("skew_train.txt"))
    dev = Treebank.load(data_path("skew_dev.txt"))
    results = {}
    for mode in ("baseline", "ablation", "ordered"):
        for seed in range(5):
            config = TrainConfig(mode=mode, epochs=40, seed=seed, dim=8, hidden=32)
            state = fit(train, dev, config)
            results[(mode, seed)] = state.best_f1
    return results


@pytest.fixture(scope="session")
def skew_model(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("accept_bench") / "skew.npz")
    train = Treebank.load(data_path("skew_train.txt"))
    dev = Treebank.load(data_path("skew_dev.txt"))
    state = fit(train, dev, TrainConfig(mode="ordered", epochs=40, seed=0, dim=8, hidden=32),
                checkpoint_path=path)
    return path


def test_oracle_equivalence():
    start = time.monotonic()
    result = oracle_check(seed=20250810, trials=200, max_n=6, max_labels=4)
    elapsed = time.monotonic() - start
    report(
        "oracle equivalence",
        result.passed and elapsed < 60.0,
        f"{result.checks} decoder-vs-brute-force checks, {elapsed:.1f}s",
    )


def test_batched_determinism(memorize_model, tmp_path, capsys):
    path, state, _, train = memorize_model
    sentences = [s.btree.sentence for s in train.sentences[:16]]
    lengths = {len(s) for s in sentences}
    compiled = CompiledRules(state.model.labels, state.grammar, state.rules)
    charts = [state.model.forward(s)[0] for s in sentences]
    batched = decode_charts_batched(charts, compiled)
    bit_identical = True
    for chart, got in zip(charts, batched):
        want = decode_ordered(chart, state.grammar, state.rules)
        if got.score != want.score or got.tree != want.tree:
            bit_identical = False
            break

    sents_file = tmp_path / "sents.txt"
    sents_file.write_text(
        "\n".join(" ".join(f"{w}_{p}" for w, p in s) for s in sentences) + "\n",
        encoding="utf-8",
    )
    outputs = []
    for threads in ("1", "8"):
        assert cli.main(["parse", "--model", path, str(sents_file), "--threads", threads]) == 0
        outputs.append(capsys.readouterr().out)
    report(
        "batched determinism",
        bit_identical and outputs[0] == outputs[1],
        f"16 sentences, {len(lengths)} distinct lengths, threads 1 == threads 8",
    )


def test_gradient_fidelity():
    # scorer-level check on a d=8, h=8 model
    rng = np.random.default_rng(11)
    model = ScorerModel.build(
        ("alpha", "beta", "gamma", "delta"), ("A", "B", "C", "D"), rng,
        dim=8, hidden=8, maxlen=8,
    )
    assert sum(p.size for p in model.params.values()) <= 2000
    sentence = tuple((w, "T") for w in ("alpha", "beta", "gamma"))
    chart, cache = model.forward(sentence)
    out_rng = np.random.default_rng(99)
    out_grad = np.zeros_like(chart.scores)
    i_idx, j_idx = span_index_arrays(3)
    out_grad[i_idx, j_idx] = out_rng.normal(size=(len(i_idx), 4, 2))
    grads = model.backward(cache, out_grad)

    def objective():
        c, _ = model.forward(sentence)
        return float(np.sum(out_grad * c.scores))

    worst = 0.0
    step = 1e-4
    for name, param in model.params.items():
        flat = param.reshape(-1)
        an = grads[name].reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            up = objective()
            flat[k] = orig - step
            down = objective()
            flat[k] = orig
            fd = (up - down) / (2 * step)
            if max(abs(fd), abs(an[k])) < 1e-10:
                continue
            worst = max(worst, abs(fd - an[k]) / max(abs(fd), abs(an[k])))
    scorer_ok = worst <= 1e-4

    # end-to-end hinge subgradient at argmax-stable coordinates
    from test_trainer import test_hinge_subgradient_matches_finite_differences

    test_hinge_subgradient_matches_finite_differences()
    report(
        "gradient fidelity",
        scorer_ok,
        f"scorer max rel err {worst:.2e} (<= 1e-4); hinge subgradient <= 1e-3",
    )


def test_memorization(memorize_model, tmp_path, capsys):
    path, state, elapsed, train = memorize_model
    sents_file = tmp_path / "all.txt"
    sents_file.write_text(
        "\n".join(
            " ".join(f"{w}_{p}" for w, p in s.btree.sentence) for s in train.sentences
        ) + "\n",
        encoding="utf-8",
    )
    assert cli.main(["parse", "--model", path, str(sents_file)]) == 0
    pred_path = tmp_path / "pred.txt"
    pred_path.write_text(capsys.readouterr().out, encoding="utf-8")
    pred = load_trees(str(pred_path))
    reportd = score_trees(pred, [s.tree for s in train.sentences])
    report(
        "memorization",
        reportd.f1 == 100.0 and state.epoch <= 200 and elapsed < 300.0,
        f"train F1 {reportd.f1:.2f} after {state.epoch} epochs in {elapsed:.0f}s",
    )


def test_order_sensitivity_benefit(skew_runs):
    ordered = np.mean([skew_runs[("ordered", s)] for s in range(5)])
    baseline = np.mean([skew_runs[("baseline", s)] for s in range(5)])
    report(
        "order-sensitivity benefit",
        ordered >= baseline,
        f"mean dev F1 over 5 seeds: ordered {ordered:.2f} vs baseline {baseline:.2f}",
    )


def test_ablation_ordering(skew_runs):
    means = {
        mode: float(np.mean([skew_runs[(mode, s)] for s in range(5)]))
        for mode in ("baseline", "ablation", "ordered")
    }
    detail = (
        f"baseline {means['baseline']:.2f} <= ordered-span {means['ablation']:.2f}"
        f" <= ordered+rules {means['ordered']:.2f}"
    )
    report(
        "ablation ordering",
        means["baseline"] <= means["ablation"] <= means["ordered"],
        detail,
    )


def test_evalb_agreement():
    pred = load_trees(data_path("golden_pred.txt"))
    gold = load_trees(data_path("golden_gold.txt"))
    result = score_trees(pred, gold)
    ok = (
        abs(result.precision - 76.27) <= 0.01
        and abs(result.recall - 68.18) <= 0.01
        and abs(result.f1 - 72.00) <= 0.01
    )
    report(
        "labeled-bracket scorer agreement",
        ok,
        f"20-tree fixture: {result.summary()}",
    )


TABLE1_TRAIN = {
    "NP": (82466, 114615), "VP": (253, 68520), "PP": (333, 51629),
    "S": (169, 31025), "SBAR": (46, 15443), "WHNP": (6777, 394),
    "ADJP": (1408, 5175), "QP": (2442, 185), "WHADVP": (1934, 0),
    "ADVP": (1103, 2185),
}

TABLE1_TEST = {
    "NP": (5016, 6692), "VP": (16, 4173), "PP": (21, 3042),
    "S": (4, 1874), "SBAR": (5, 952), "WHNP": (395, 25),
    "ADJP": (89, 348), "QP": (136, 5), "WHADVP": (124, 0),
    "ADVP": (64, 148),
}


def test_order_statistics_reproduction():
    expectations = [("PTB_TRAIN_PATH", TABLE1_TRAIN), ("PTB_TEST_PATH", TABLE1_TEST)]
    available = [(env, table) for env, table in expectations if os.environ.get(env)]
    if not available:
        print("ACCEPTANCE order statistics reproduction: SKIPPED — "
              "supply PTB via PTB_TRAIN_PATH / PTB_TEST_PATH to enable")
        pytest.skip("PTB data not supplied; set PTB_TRAIN_PATH to enable this check")
    from ordercky.grammar import order_statistics

    for env, table in available:
        tb = Treebank.load(os.environ[env])
        stats = order_statistics(tb)
        for label, (left, right) in table.items():
            got = (stats.left[label], stats.right[label])
            report(
                f"order statistics reproduction [{env}:{label}]",
                got == (left, right),
                f"expected {left}/{right}, got {got[0]}/{got[1]}",
            )


def test_speed_direction(skew_model, capsys):
    assert cli.main(
        ["bench", "--model", skew_model, data_path("skew_dev.txt"), "--repetitions", "30"]
    ) == 0
    out = capsys.readouterr().out.strip().split("\n")
    rates = {}
    for line in out:
        mode, rest = line.split("\t")
        rates[mode] = float(rest.split()[0])
    ok = rates["baseline"] >= rates["ablation"] >= rates["ordered"]
    report(
        "speed direction",
        ok,
        f"baseline {rates['baseline']:.0f} >= ordered-span {rates['ablation']:.0f}"
        f" >= ordered+rules {rates['ordered']:.0f} sents/sec",
    )
