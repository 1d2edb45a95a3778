"""The benchmark harness: workloads, measured units, checks and metrics.

Imported by run.py after it has pinned BLAS to one thread and put the
checkout's ``src`` on the import path.
"""

import argparse
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import corpus
import tracing
from ordercky import cli
from ordercky.trainer import TrainConfig, init_state, load_checkpoint, save_checkpoint
from ordercky.trees import Treebank, load_trees, read_trees, sentence_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "ordercky" / "data"
OUT = ROOT / ".perfbench"

MODES = ("baseline", "ablation", "ordered")
WORKLOADS = {
    "parse-short": "bundled corpora, 210 sentences of 3-12 tokens: per-sentence Python work "
                   "dominates parse, so per-call costs show and chart-core costs barely do",
    "parse-long": "seeded PTB-like sentences of 20-48 tokens, ~170 rules: the ordered chart "
                  "fill dominates parse; baseline and ablation stay forward-bound",
}
RUN_SECONDS = 45
ROUNDS = 2               # train all modes, then parse, this many times per window
TRAIN_EPOCHS = 10
MIN_PASSES = 3           # parse passes per mode, whatever the window
SETUP_REPEATS = 5
LONG_SENTENCES = 16
GRAMMAR_TREES = 400

END_TO_END = (
    [(f"sents_per_s.{m}", "sent/s", "higher", 0.25) for m in MODES]
    + [(f"epoch_s.{m}", "s", "lower", 0.25) for m in MODES]
    + [(f"dev_f1.{m}", "F1", "higher", 0.1) for m in MODES]
    + [("ok_ratio", "share", "higher", 0.01),
       ("setup_s", "s", "lower", 0.25),
       ("peak_rss_mb", "MB", "lower", 0.15)]
)

# per-layer metrics: (name, unit, better); parse figures are per pass over
# the input, train figures per epoch run, unless the name says otherwise
_S, _N, _R = "s", "count", "share"
PARSE_LAYER = (
    ("scorer.forward.self_s", _S, "lower"), ("scorer.forward.calls", _N, "lower"),
    ("scorer.spans", _N, "lower"),
    ("decoder.decode.self_s", _S, "lower"), ("decoder.decode.calls", _N, "lower"),
    ("decoder.no_derivation", _N, "lower"),
    ("trees.debinarize.self_s", _S, "lower"), ("trees.linearize.self_s", _S, "lower"),
    ("cli.self_s", _S, "lower"),
    ("trainer.load_checkpoint.self_s", _S, "lower"), ("decoder.CompiledRules.self_s", _S, "lower"),
    ("trace.overhead", _R, "lower"), ("trace.coverage", _R, "higher"),
)
PARSE_ORDERED = (("decoder.cand_elems", _N, "lower"), ("decoder.pad_useful_ratio", _R, "higher"))
TRAIN_LAYER = (
    ("scorer.forward.self_s", _S, "lower"), ("scorer.forward.calls", _N, "lower"),
    ("scorer.spans", _N, "lower"),
    ("scorer.backward.self_s", _S, "lower"), ("scorer.backward.calls", _N, "lower"),
    ("decoder.decode.self_s", _S, "lower"), ("decoder.decode.calls", _N, "lower"),
    ("decoder.decode.step_s", _S, "lower"), ("decoder.decode.dev_s", _S, "lower"),
    ("decoder.hamming_costs.self_s", _S, "lower"), ("decoder.tree_score.self_s", _S, "lower"),
    ("decoder.CompiledRules.self_s", _S, "lower"), ("decoder.CompiledRules.calls", _N, "lower"),
    ("trainer.step.self_s", _S, "lower"), ("trainer.sentence_gradients.self_s", _S, "lower"),
    ("trainer.evaluate_dev.self_s", _S, "lower"), ("evaluate.score_trees.self_s", _S, "lower"),
    ("trees.debinarize.self_s", _S, "lower"), ("trainer.save_checkpoint.self_s", _S, "lower"),
    ("trainer.fit.self_s", _S, "lower"), ("cli.self_s", _S, "lower"),
    ("trainer.active_ratio", _R, "lower"), ("trainer.skip_ratio", _R, "lower"),
    ("trainer.epochs_run", _N, "higher"), ("decoder.no_derivation", _N, "lower"),
    ("trace.overhead", _R, "lower"), ("trace.coverage", _R, "higher"),
)
# once per training run, whatever the mode
TRAIN_SETUP = (
    ("trees.Treebank.load.self_s", _S, "lower"), ("trainer.init_state.self_s", _S, "lower"),
    ("grammar.extract_grammar.self_s", _S, "lower"),
)


def per_layer_names():
    out = [(f"parse.{n}.{m}", u, b) for m in MODES for n, u, b in PARSE_LAYER]
    out += [(f"parse.{n}.ordered", u, b) for n, u, b in PARSE_ORDERED]
    out += [(f"train.{n}.{m}", u, b) for m in MODES for n, u, b in TRAIN_LAYER]
    out += [(f"train.{n}", u, b) for n, u, b in TRAIN_SETUP]
    return out


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d} for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_names()],
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def _rotated(seq, k):
    k %= len(seq)
    return seq[k:] + seq[:k]


class StampedStream(io.StringIO):
    """Captures stdout and the clock time at which each line ended."""

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []

    def write(self, text):
        n = super().write(text)
        if "\n" in text:
            self.stamps.extend([time.perf_counter()] * text.count("\n"))
        return n


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, traced: bool, work: Path):
        self.workload, self.seed, self.seconds, self.traced, self.work = (
            workload, seed, seconds, traced, work)
        self.probe = tracing.Probe(timing=traced)
        self.attempted = 0
        self.failures: set = set()       # (what, mode, index)
        self.parse_times = {m: {False: [], True: []} for m in MODES}
        self.parse_out = {m: None for m in MODES}
        self.parse_runs = {m: [] for m in MODES}     # traced run ids
        self.train_runs = {m: {False: [], True: []} for m in MODES}
        self.unit = 0

    # -- inputs ---------------------------------------------------------------

    def build_inputs(self):
        """The sentences to parse, and a checkpoint made from the seed with
        init_state + save_checkpoint (decode cost does not depend on the
        weights)."""
        if self.workload == "parse-long":
            rng = random.Random(self.seed)
            source = read_trees("\n".join(corpus.grammar_trees(rng, GRAMMAR_TREES)))
            trees = read_trees("\n".join(corpus.long_trees(rng, LONG_SENTENCES)))
        else:
            names = ("memorize50", "skew_train", "skew_dev")
            trees = [t for name in names for t in load_trees(str(DATA / f"{name}.txt"))]
            source = trees
        self.sentences = [sentence_of(t) for t in trees]
        self.input = self.work / "input.txt"
        self.input.write_text(
            "".join(" ".join(f"{w}_{p}" for w, p in s) + "\n" for s in self.sentences),
            encoding="utf-8")
        state = init_state(Treebank.from_trees(source), TrainConfig(seed=self.seed))
        self.model = self.work / "model.npz"
        save_checkpoint(str(self.model), state)

    def setup_seconds(self) -> float:
        """Median of cold set-ups of both entry points, each in a fresh
        interpreter."""
        argv = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(self.model),
                str(DATA / "skew_train.txt"), str(DATA / "skew_dev.txt"), str(self.seed)]
        times = []
        for _ in range(SETUP_REPEATS):
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
            times.append(float(proc.stdout))
        return _median(times)

    # -- measured units -------------------------------------------------------

    def _call(self, argv, stdout, traced):
        run_id = f"{self.workload}/{self.seed}/{self.unit}"
        self.unit += 1
        probe = self.probe if traced else tracing.Probe(timing=False)
        targets = tracing.TARGETS if traced else tracing.COUNT_ONLY
        with tracing.installed(probe, targets), redirect_stdout(stdout), \
                redirect_stderr(io.StringIO()) as err:
            start = time.perf_counter()
            with probe.root(run_id):
                rc = cli.main(argv)
            elapsed = time.perf_counter() - start
        return rc, elapsed, err.getvalue(), run_id, probe.counts

    def parse_call(self, mode, traced=False, threads=1):
        argv = ["parse", "--model", str(self.model), "--mode", mode, str(self.input),
                "--print-score", "--fallback-right-branching", "--threads", str(threads)]
        out = io.StringIO()
        rc, elapsed, err, run_id, _ = self._call(argv, out, traced)
        self.attempted += len(self.sentences)
        if rc != 0:
            self.failures.update(("parse-exit", mode, i) for i in range(len(self.sentences)))
        return elapsed, out.getvalue(), run_id

    def parse_unit(self, mode, k):
        variants = (False, True) if self.traced else (False,)
        for traced in _rotated(variants, k):
            elapsed, text, run_id = self.parse_call(mode, traced)
            self.parse_times[mode][traced].append(elapsed)
            if traced:
                self.parse_runs[mode].append(run_id)
            elif self.parse_out[mode] is None:
                self.parse_out[mode] = text
            elif text != self.parse_out[mode]:
                bad = checks.differing_lines(text, self.parse_out[mode])
                self.failures.update(("repeat", mode, i) for i in bad)

    def train_unit(self, mode, k):
        variants = (False, True) if self.traced else (False,)
        for traced in _rotated(variants, k):
            argv = ["train", "--train", str(DATA / "skew_train.txt"),
                    "--dev", str(DATA / "skew_dev.txt"), "--out", str(self.work / f"trained-{mode}.npz"),
                    "--mode", mode, "--epochs", str(TRAIN_EPOCHS), "--seed", str(self.seed),
                    "--decay-patience", str(TRAIN_EPOCHS + 1)]
            out = StampedStream()
            rc, _, err, run_id, counts = self._call(argv, out, traced)
            # stamps: header, epoch 0 (initial dev eval), then one per epoch run
            epochs = [b - a for a, b in zip(out.stamps[1:], out.stamps[2:])]
            best = re.search(r"best dev F1 ([0-9.]+)", err)
            attempted = counts["trainer.sentences"]
            self.attempted += attempted
            self.failures.update(("train-skip", mode, (run_id, i)) for i in range(counts["trainer.skipped"]))
            if rc != 0 or not best or not epochs:
                self.failures.add(("train-exit", mode, run_id))
                continue
            self.train_runs[mode][traced].append(
                dict(run_id=run_id, epochs=epochs, f1=float(best.group(1))))

    # -- the run --------------------------------------------------------------

    def execute(self):
        """Rounds of one training run per mode then parse passes, so that
        every metric samples the whole window; then the output checks."""
        self.build_inputs()
        self.setup_s = None if self.traced else self.setup_seconds()
        start = time.perf_counter()
        passes = 0
        for r in range(ROUNDS):
            for mode in _rotated(MODES, r):
                self.train_unit(mode, r)
            until = start + self.seconds * (r + 1) / ROUNDS
            while True:
                for mode in _rotated(MODES, passes):
                    self.parse_unit(mode, passes)
                passes += 1
                if passes == MIN_PASSES:
                    # after a fixed amount of work, so the figure does not
                    # depend on how many passes the window holds
                    self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if time.perf_counter() >= until and (r + 1 < ROUNDS or passes >= MIN_PASSES):
                    break
        self.check_outputs()

    def check_outputs(self):
        """A --threads 2 pass per mode that records every decode result, checked
        against the --threads 1 output of the timed passes."""
        self.sha256 = {}
        model, grammar, rules, _ = load_checkpoint(str(self.model))
        for mode in MODES:
            sink: list = []
            with checks.captured_decodes(sink):
                _, threads2, _ = self.parse_call(mode, threads=2)
            text = self.parse_out[mode]
            self.sha256[mode] = hashlib.sha256(text.encode("utf-8")).hexdigest()
            found = {
                "lines": checks.check_lines(self.sentences, text),
                "threads": checks.differing_lines(text, threads2),
                "result": checks.check_results(mode, self.sentences, threads2, sink,
                                               model.labels, rules),
            }
            if mode == "ordered":
                found["scalar"] = checks.check_scalar(
                    checks.scalar_sample(self.sentences), self.sentences, sink, grammar, rules)
            for what, bad in found.items():
                self.failures.update((what, mode, i) for i in bad)
            runs = self.train_runs[mode][False] + self.train_runs[mode][True]
            if len({r["f1"] for r in runs}) > 1:
                self.failures.add(("train-repeat", mode, 0))

    # -- metrics --------------------------------------------------------------

    def end_to_end(self):
        m = {}
        n = len(self.sentences)
        for mode in MODES:
            m[f"sents_per_s.{mode}"] = n / _median(self.parse_times[mode][False])
        for mode in MODES:
            runs = self.train_runs[mode][False]
            m[f"epoch_s.{mode}"] = _median([e for r in runs for e in r["epochs"]])
        for mode in MODES:
            runs = self.train_runs[mode][False]
            m[f"dev_f1.{mode}"] = runs[0]["f1"] if runs else float("nan")
        m["ok_ratio"] = 1.0 - len(self.failures) / max(self.attempted, 1)
        m["setup_s"] = self.setup_s
        m["peak_rss_mb"] = self.peak_rss_mb
        units = {name: unit for name, unit, _, _ in END_TO_END}
        return {k: {"value": v, "unit": units[k]} for k, v in m.items()}

    def per_layer(self):
        own_by_run = tracing.self_times(self.probe.spans)

        def layer(run_id, norm):
            """One traced call's figures, divided by ``norm`` (passes or epochs)."""
            own, decode_by, wall = own_by_run[run_id]
            c = self.probe.counts_by_run[run_id]
            vals = {f"{name}.self_s": t / norm for name, t in own.items()}
            vals.update({key: c[key] / norm for key in tracing.COUNTS})
            vals.update({
                "cli.self_s": own[tracing.ROOT] / norm,
                "decoder.decode.step_s": decode_by["trainer.step"] / norm,
                "decoder.decode.dev_s": decode_by["trainer.evaluate_dev"] / norm,
                "decoder.pad_useful_ratio":
                    c["decoder.cand_useful"] / c["decoder.cand_elems"] if c["decoder.cand_elems"] else 0.0,
                "trainer.active_ratio": c["trainer.active"] / max(c["trainer.sentences"], 1),
                "trainer.skip_ratio": c["trainer.skipped"] / max(c["trainer.sentences"], 1),
                "trace.coverage": 1.0 - own[tracing.ROOT] / wall,
            })
            return vals

        def summary(prefix, mode, names, runs, plain, traced):
            for name, _, _ in names:
                if name == "trace.overhead":
                    value = _median(traced) / _median(plain) - 1.0
                else:
                    value = _median([r.get(name, 0.0) for r in runs])
                m[f"{prefix}.{name}.{mode}"] = value

        m = {}
        for mode in MODES:
            names = PARSE_LAYER + (PARSE_ORDERED if mode == "ordered" else ())
            runs = [layer(r, 1) for r in self.parse_runs[mode]]
            times = self.parse_times[mode]
            summary("parse", mode, names, runs, times[False], times[True])
        for mode in MODES:
            recs = self.train_runs[mode]
            runs = [dict(layer(r["run_id"], len(r["epochs"])), **{"trainer.epochs_run": len(r["epochs"])})
                    for r in recs[True]]
            epochs = [[e for r in recs[traced] for e in r["epochs"]] for traced in (False, True)]
            summary("train", mode, TRAIN_LAYER, runs, *epochs)
        traced_runs = [r["run_id"] for mode in MODES for r in self.train_runs[mode][True]]
        for name, _, _ in TRAIN_SETUP:
            span = name.removesuffix(".self_s")
            m[f"train.{name}"] = _median([own_by_run[r][0][span] for r in traced_runs])
        units = {name: unit for name, unit, _ in per_layer_names()}
        return {k: {"value": v, "unit": units[k]} for k, v in m.items()}


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy has no dict mode; the version is informational only
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ordercky benchmark")
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spec", action="store_true", help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.spec:
        print(json.dumps(spec(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        bench.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    # a metric that could not be measured (its unit failed) is null, never a number
    missing = [k for k, rec in metrics.items() if not math.isfinite(rec["value"])]
    for name in missing:
        metrics[name]["value"] = None

    env = environment()
    failed = len(bench.failures)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "output_sha256": bench.sha256, "failures": sorted(map(str, bench.failures))[:50],
        "samples": {"parse_s": {m: bench.parse_times[m][False] for m in MODES},
                    "epoch_s": {m: [r["epochs"] for r in bench.train_runs[m][False]] for m in MODES}},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(report, metrics=metrics), fh, indent=1)
    if args.trace:
        with open(OUT / f"{tag}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(bench.probe.spans, fh)
    print(f"# env {json.dumps(env)}")
    print(f"# output sha256 {json.dumps(bench.sha256)}")
    for name, rec in metrics.items():
        print(f"{name}\t{rec['value']}\t{rec['unit']}")
    print(json.dumps({"correct": failed == 0 and not missing, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


