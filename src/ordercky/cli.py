"""Command-line interface.

Subcommands: stats, extract-grammar, train, parse, eval, oracle-check, bench.
Exit codes: 0 success, 1 runtime or data error, 2 usage error.

Option precedence is flags > config file > built-in defaults.  A config file
(`--config path`) holds one `key = value` pair per line, keys named like the
long flags ("learning-rate" or "learning_rate"); blank lines and lines
starting with '#' are ignored.  All randomness derives from --seed through
named per-purpose generators, so individual stages reproduce independently.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from .decoder import (
    CompiledRules,
    NoDerivation,
    decode_ablation,
    decode_baseline,
    decode_charts_batched,
    fallback_tree,
)
from .evaluate import score_trees
from .grammar import extract_grammar, grammar_tsv, order_statistics, stats_tsv
from .selfcheck import oracle_check, write_replay
from .trainer import TrainConfig, fit, load_checkpoint
from .trees import DUMMY, BracketError, Treebank, debinarize, load_trees

EXIT_OK, EXIT_ERROR, EXIT_USAGE = 0, 1, 2

CHUNK = 32  # sentences per decode batch; fixed so --threads never changes results


def _line_of_offset(path: str, offset: int) -> int:
    with open(path, "rb") as fh:
        return fh.read()[:offset].count(b"\n") + 1


def _load_treebank(path: str) -> Treebank:
    try:
        return Treebank.load(path)
    except BracketError as err:
        line = _line_of_offset(path, err.offset)
        raise ValueError(f"{path}:{line}: {err}") from None


def _load_trees(path: str, **kwargs):
    try:
        return load_trees(path, **kwargs)
    except BracketError as err:
        line = _line_of_offset(path, err.offset)
        raise ValueError(f"{path}:{line}: {err}") from None


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


class _Resolver:
    """flags > config file > defaults, with argparse holding None sentinels."""

    def __init__(self, args: argparse.Namespace, defaults: dict):
        self.args = args
        self.defaults = defaults
        self.config = _read_config(args.config) if getattr(args, "config", None) else {}
        unknown = set(self.config) - set(defaults)
        if unknown:
            raise ValueError(
                f"{args.config}: unknown config keys: {', '.join(sorted(unknown))}"
            )

    def __call__(self, key: str):
        flag_value = getattr(self.args, key, None)
        if flag_value is not None:
            return flag_value
        if key in self.config:
            default = self.defaults[key]
            caster = type(default) if default is not None else str
            return caster(self.config[key])
        return self.defaults[key]


def _thread_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


TRAIN_DEFAULTS = dict(
    mode="ordered", epochs=200, batch_size=32, learning_rate=1e-2,
    decay_factor=0.5, max_decay=3, decay_patience=5, dim=64, hidden=250,
    maxlen=64, seed=0,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ordercky", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="left/right child counts per label")
    p_stats.add_argument("treebank")

    p_gram = sub.add_parser("extract-grammar", help="binary rules as TSV")
    p_gram.add_argument("treebank")

    p_train = sub.add_parser("train", help="max-margin training")
    p_train.add_argument("--train", required=True, dest="train_path")
    p_train.add_argument("--dev", dest="dev_path")
    p_train.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p_train.add_argument("--config")
    p_train.add_argument("--mode", choices=("ordered", "ablation", "baseline"))
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--batch-size", type=int)
    p_train.add_argument("--learning-rate", type=float)
    p_train.add_argument("--decay-factor", type=float)
    p_train.add_argument("--max-decay", type=int)
    p_train.add_argument("--decay-patience", type=int)
    p_train.add_argument("--dim", type=int)
    p_train.add_argument("--hidden", type=int)
    p_train.add_argument("--maxlen", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--quiet", action="store_true", help="suppress the epoch log")

    p_parse = sub.add_parser("parse", help="parse word_POS lines to bracketed trees")
    p_parse.add_argument("--model", required=True)
    p_parse.add_argument("input", nargs="?", help="file of sentences; stdin when omitted")
    p_parse.add_argument("--mode", choices=("ordered", "ablation", "baseline"),
                         help="decoder override; default is the checkpoint's mode")
    p_parse.add_argument("--print-score", action="store_true")
    p_parse.add_argument("--fallback-right-branching", action="store_true")
    p_parse.add_argument("--threads", type=_thread_count, default=1)

    p_eval = sub.add_parser("eval", help="labeled bracket P/R/F1")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--per-sentence", help="write per-sentence counts TSV here")

    p_oracle = sub.add_parser("oracle-check", help="decoders vs brute-force enumeration")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--trials", type=int, default=200)
    p_oracle.add_argument("--max-n", type=int, default=6)
    p_oracle.add_argument("--max-labels", type=int, default=4)
    p_oracle.add_argument("--replay", default="oracle_replay.json",
                          help="where to record the first failing instance")

    p_bench = sub.add_parser("bench", help="decoding throughput per mode")
    p_bench.add_argument("--model", required=True)
    p_bench.add_argument("treebank")
    p_bench.add_argument("--mode", choices=("ordered", "ablation", "baseline", "all"),
                         default="all")
    p_bench.add_argument("--repetitions", type=int, default=20)
    p_bench.add_argument("--threads", type=_thread_count, default=1)

    return parser


def run_stats(args) -> int:
    tb = _load_treebank(args.treebank)
    sys.stdout.write(stats_tsv(order_statistics(tb)))
    return EXIT_OK


def run_extract_grammar(args) -> int:
    tb = _load_treebank(args.treebank)
    sys.stdout.write(grammar_tsv(extract_grammar(tb)))
    return EXIT_OK


def run_train(args) -> int:
    get = _Resolver(args, TRAIN_DEFAULTS)
    config = TrainConfig(
        mode=get("mode"), epochs=get("epochs"), batch_size=get("batch_size"),
        learning_rate=get("learning_rate"), decay_factor=get("decay_factor"),
        max_decay=get("max_decay"), decay_patience=get("decay_patience"),
        seed=get("seed"), dim=get("dim"), hidden=get("hidden"), maxlen=get("maxlen"),
    )
    train = _load_treebank(args.train_path)
    dev = _load_treebank(args.dev_path) if args.dev_path else train
    log_fn = None if args.quiet else lambda line: print(line, flush=True)
    if log_fn:
        log_fn("epoch\tloss\tP\tR\tF1\tlr")
    state = fit(train, dev, config, log_fn=log_fn, checkpoint_path=args.out)
    print(f"best dev F1 {state.best_f1:.2f}; checkpoint written to {args.out}",
          file=sys.stderr)
    return EXIT_OK


def _read_sentences(stream):
    sentences = []
    for lineno, raw in enumerate(stream, 1):
        line = raw.strip()
        if not line:
            continue
        pairs = []
        for token in line.split():
            word, sep, pos = token.rpartition("_")
            if not (sep and word and pos):
                raise ValueError(f"line {lineno}: token {token!r} is not word_POS")
            pairs.append((word, pos))
        sentences.append(tuple(pairs))
    return sentences


def _decode_chunk(chunk, model, compiled, mode, fallback):
    orders = (0,) if mode == "baseline" else (0, 1)
    charts = [model.forward(sentence, orders=orders)[0] for sentence in chunk]
    if mode == "ordered":
        results = decode_charts_batched(charts, compiled, forbid_root=DUMMY)
    elif mode == "ablation":
        results = [decode_ablation(c, forbid_root=DUMMY) for c in charts]
    else:
        results = [decode_baseline(c.collapsed(), c.sentence, c.labels, forbid_root=DUMMY)
                   for c in charts]
    out = []
    for sentence, res in zip(chunk, results):
        if isinstance(res, NoDerivation):
            if not fallback:
                raise NoDerivation(
                    f"no derivation for sentence {' '.join(w for w, _ in sentence)!r}; "
                    "use --fallback-right-branching to emit a flat tree"
                )
            out.append((fallback_tree(sentence, model.labels), float("nan")))
        else:
            out.append((res.tree, res.score))
    return out


def run_parse(args) -> int:
    model, grammar, rules, ckpt_mode = load_checkpoint(args.model)
    mode = args.mode or ckpt_mode
    compiled = CompiledRules(model.labels, grammar, rules)
    stream = open(args.input, encoding="utf-8") if args.input else sys.stdin
    try:
        sentences = _read_sentences(stream)
    finally:
        if args.input:
            stream.close()
    chunks = [sentences[i : i + CHUNK] for i in range(0, len(sentences), CHUNK)]
    worker = lambda chunk: _decode_chunk(
        chunk, model, compiled, mode, args.fallback_right_branching
    )
    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            chunk_results = list(pool.map(worker, chunks))
    else:
        chunk_results = [worker(c) for c in chunks]
    for chunk_out in chunk_results:
        for btree, score in chunk_out:
            line = debinarize(btree).linearize()
            if args.print_score:
                line += f"\t{score:.4f}"
            print(line)
    return EXIT_OK


def run_eval(args) -> int:
    pred = _load_trees(args.pred)
    gold = _load_trees(args.gold)
    report = score_trees(pred, gold)
    print(report.summary())
    if args.per_sentence:
        from .evaluate import per_sentence_rows

        with open(args.per_sentence, "w", encoding="utf-8") as fh:
            fh.write("index\tmatched\tpredicted\tgold\n")
            for row in per_sentence_rows(pred, gold):
                fh.write("\t".join(str(v) for v in row) + "\n")
    return EXIT_OK


def run_oracle_check(args) -> int:
    if args.max_n > 8:
        print("--max-n must be <= 8 for exhaustive enumeration", file=sys.stderr)
        return EXIT_ERROR
    if args.trials == 0:
        print("warning: 0 trials requested; vacuous pass", file=sys.stderr)
        print("oracle-check: 0 checks, pass")
        return EXIT_OK
    report = oracle_check(
        seed=args.seed, trials=args.trials, max_n=args.max_n, max_labels=args.max_labels
    )
    if report.passed:
        print(f"oracle-check: {report.checks} checks over {report.trials} trials, pass")
        return EXIT_OK
    write_replay(report, args.replay)
    first = report.failures[0]
    print(
        f"oracle-check: FAIL in mode {first['mode']} (trial {first['trial']}): "
        f"decoder={first['decoder_score']} oracle={first['oracle_score']}; "
        f"replay written to {args.replay}",
        file=sys.stderr,
    )
    return EXIT_ERROR


def run_bench(args) -> int:
    model, grammar, rules, _ = load_checkpoint(args.model)
    trees = _load_trees(args.treebank)
    from .trees import sentence_of

    sentences = [sentence_of(t) for t in trees]
    if not sentences:
        print("bench: n/a (0 sentences)")
        return EXIT_OK
    if args.repetitions < 1:
        print("--repetitions must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    compiled = CompiledRules(model.labels, grammar, rules)
    modes = ("baseline", "ablation", "ordered") if args.mode == "all" else (args.mode,)
    chunks = [sentences[i : i + CHUNK] for i in range(0, len(sentences), CHUNK)]
    note = " (single repetition; noisy)" if args.repetitions == 1 else ""
    for mode in modes:
        worker = lambda chunk: _decode_chunk(chunk, model, compiled, mode, True)
        start = time.perf_counter()
        for _ in range(args.repetitions):
            if args.threads > 1:
                with ThreadPoolExecutor(max_workers=args.threads) as pool:
                    list(pool.map(worker, chunks))
            else:
                for chunk in chunks:
                    worker(chunk)
        elapsed = time.perf_counter() - start
        rate = len(sentences) * args.repetitions / elapsed
        print(f"{mode}\t{rate:.1f} sents/sec{note}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "stats": run_stats,
        "extract-grammar": run_extract_grammar,
        "train": run_train,
        "parse": run_parse,
        "eval": run_eval,
        "oracle-check": run_oracle_check,
        "bench": run_bench,
    }
    try:
        return handlers[args.command](args)
    except BracketError as err:
        print(f"error: malformed treebank: {err}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, NoDerivation) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
