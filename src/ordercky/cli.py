"""Command-line interface.

Subcommands: stats, extract-grammar, train, parse, eval, oracle-check, bench.
Exit codes: 0 success, 1 runtime or data error, 2 usage error.

Training settings are the fields of `trainer.TrainConfig`: they name the
`train` flags and the config keys and give the defaults, and precedence is
flags > config file > those defaults.  A config file (`--config path`) holds
one `key = value` pair per line, keys named like the long flags
("learning-rate" or "learning_rate"); blank lines and lines starting with '#'
are ignored.  All randomness derives from --seed through named per-purpose
generators, so individual stages reproduce independently.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Optional

from .decoder import (
    CompiledRules,
    DecodeResult,
    NoDerivation,
    NonFiniteChart,
    decode_ablation,
    decode_baseline,
    decode_charts_batched,
    decode_each,
    fallback_tree,
)
from .evaluate import EvalReport, per_sentence_rows
from .grammar import extract_grammar, grammar_tsv, order_statistics, stats_tsv
from .selfcheck import oracle_check, write_replay
from .trainer import CHUNK, MODES, TrainConfig, fit, load_checkpoint
from .trees import DUMMY, BracketError, LengthMismatch, Treebank, debinarize, load_trees, sentence_of

EXIT_OK, EXIT_ERROR = 0, 1


def _load(load, path: str):
    """``load(path)``, with a bracket error re-raised naming ``path:line``."""
    try:
        return load(path)
    except BracketError as err:
        with open(path, "rb") as fh:
            line = fh.read()[: err.offset].count(b"\n") + 1
        raise ValueError(f"{path}:{line}: {err}") from None


def _check_lengths(path: str, sentences, maxlen: int) -> None:
    """Every sentence (a sequence of tokens) of the treebank at ``path`` is
    shorter than ``maxlen``; else a ValueError naming the file and the tree."""
    for k, sentence in enumerate(sentences):
        if len(sentence) >= maxlen:
            raise ValueError(f"{path}: tree {k}: sentence length {len(sentence)} >= maxlen {maxlen}")


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


def _train_config(args: argparse.Namespace) -> TrainConfig:
    """flags > config file > ``TrainConfig``'s defaults; argparse leaves an
    unset flag at None."""
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - set(fields)
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys: {', '.join(sorted(unknown))}")
    values = {}
    for key, text in config.items():
        try:
            values[key] = type(fields[key].default)(text)
        except ValueError as err:
            raise ValueError(f"{args.config}: {key}: {err}") from None
    values.update((name, getattr(args, name)) for name in fields if getattr(args, name) is not None)
    return TrainConfig(**values)


def _int_in(low: int, high: Optional[int] = None):
    """An argparse type: an integer in [low, high], else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


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
    for f in dataclasses.fields(TrainConfig):
        kind = {"choices": tuple(MODES)} if f.name == "mode" else {"type": type(f.default)}
        p_train.add_argument("--" + f.name.replace("_", "-"), help=f"default {f.default}", **kind)
    p_train.add_argument("--quiet", action="store_true", help="suppress the epoch log")

    p_parse = sub.add_parser("parse", help="parse word_POS lines to bracketed trees")
    p_parse.add_argument("--model", required=True)
    p_parse.add_argument("input", nargs="?", help="file of sentences; stdin when omitted")
    p_parse.add_argument("--mode", choices=tuple(MODES),
                         help="decoder override; default is the checkpoint's mode")
    p_parse.add_argument("--print-score", action="store_true")
    p_parse.add_argument("--fallback-right-branching", action="store_true")
    p_parse.add_argument("--threads", type=_int_in(1), default=1)

    p_eval = sub.add_parser("eval", help="labeled bracket P/R/F1")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--per-sentence", help="write per-sentence counts TSV here")

    p_oracle = sub.add_parser("oracle-check", help="decoders vs brute-force enumeration")
    p_oracle.add_argument("--seed", type=_int_in(0), default=0)
    p_oracle.add_argument("--trials", type=_int_in(0), default=200)
    # random instances need two tokens and two labels; brute force stays
    # tractable up to 8 tokens, and instances name at most 6 labels
    p_oracle.add_argument("--max-n", type=_int_in(2, 8), default=6)
    p_oracle.add_argument("--max-labels", type=_int_in(2, 6), default=4)
    p_oracle.add_argument("--replay", default="oracle_replay.json",
                          help="where to record the first failing instance")

    p_bench = sub.add_parser("bench", help="decoding throughput per mode, from the median repetition")
    p_bench.add_argument("--model", required=True)
    p_bench.add_argument("treebank")
    p_bench.add_argument("--mode", choices=(*MODES, "all"), default="all")
    p_bench.add_argument("--repetitions", type=_int_in(1), default=20)
    p_bench.add_argument("--threads", type=_int_in(1), default=1)

    return parser


def run_stats(args) -> int:
    tb = _load(Treebank.load, args.treebank)
    sys.stdout.write(stats_tsv(order_statistics(tb)))
    return EXIT_OK


def run_extract_grammar(args) -> int:
    tb = _load(Treebank.load, args.treebank)
    sys.stdout.write(grammar_tsv(extract_grammar(tb)))
    return EXIT_OK


def run_train(args) -> int:
    config = _train_config(args)
    banks = [(path, _load(Treebank.load, path)) for path in (args.train_path, args.dev_path) if path]
    for path, bank in banks:
        if not bank.sentences:
            raise ValueError(f"{path}: the treebank holds no trees")
        _check_lengths(path, [sent.words for sent in bank.sentences], config.maxlen)
    train, dev = banks[0][1], banks[-1][1]
    log_fn = None if args.quiet else lambda line: print(line, flush=True)
    if log_fn:
        log_fn("epoch\tloss\tP\tR\tF1\tlr")
    state = fit(train, dev, config, log_fn=log_fn, checkpoint_path=args.out)
    print(f"best dev F1 {state.best_f1:.2f}; checkpoint written to {args.out}",
          file=sys.stderr)
    return EXIT_OK


def _decode_chunk(chunk, model, compiled, mode):
    charts = [model.forward(sentence, orders=MODES[mode].heads)[0] for sentence in chunk]
    # not MODES[mode].decode: perfbench's captured_decodes patches these names on cli
    if mode == "ordered":
        return decode_charts_batched(charts, compiled, forbid_root=DUMMY)
    if mode == "ablation":
        return decode_each(lambda c: decode_ablation(c, forbid_root=DUMMY), charts)
    return decode_each(lambda c: decode_baseline(c.scores, c.sentence, c.labels, forbid_root=DUMMY), charts)


def _decode_all(sentences, model, compiled, mode, threads):
    """The decode result, or the NoDerivation in its place, per sentence in
    input order, decoded CHUNK sentences at a time over ``threads`` workers."""
    chunks = [sentences[i : i + CHUNK] for i in range(0, len(sentences), CHUNK)]
    worker = lambda chunk: _decode_chunk(chunk, model, compiled, mode)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunk_results = list(pool.map(worker, chunks))
    else:
        chunk_results = [worker(c) for c in chunks]
    return [res for chunk_out in chunk_results for res in chunk_out]


def run_parse(args) -> int:
    """Every input line is checked before any is decoded; an error names
    ``path:line`` (``<stdin>`` for standard input)."""
    model, grammar, rules, ckpt_mode = load_checkpoint(args.model)
    mode = args.mode or ckpt_mode
    compiled = CompiledRules(model.labels, grammar, rules)
    name = args.input or "<stdin>"
    sentences = []
    with open(args.input, encoding="utf-8") if args.input else nullcontext(sys.stdin) as stream:
        for lineno, raw in enumerate(stream, 1):
            pairs = []
            for token in raw.split():
                word, _, pos = token.rpartition("_")
                if not (word and pos):
                    raise ValueError(f"{name}:{lineno}: token {token!r} is not word_POS")
                pairs.append((word, pos))
            if len(pairs) >= model.maxlen:
                raise ValueError(f"{name}:{lineno}: sentence length {len(pairs)} >= maxlen {model.maxlen}")
            if pairs:
                sentences.append(tuple(pairs))
    results = _decode_all(sentences, model, compiled, mode, args.threads)
    failed = [(sentence, res) for sentence, res in zip(sentences, results) if isinstance(res, NoDerivation)]
    if failed and not args.fallback_right_branching:
        sentence, err = failed[0]
        raise NoDerivation(f"sentence {' '.join(w for w, _ in sentence)!r}: {err}; "
                           "use --fallback-right-branching to emit a flat tree")
    for sentence, res in zip(sentences, results):
        if isinstance(res, NoDerivation):
            res = DecodeResult(fallback_tree(sentence, model.labels), float("nan"))
        line = debinarize(res.tree).linearize()
        if args.print_score:
            line += f"\t{res.score:.4f}"
        print(line)
    if failed:
        non_finite = sum(isinstance(err, NonFiniteChart) for _, err in failed)
        print(f"warning: {len(failed)} fallbacks: {len(failed) - non_finite} no derivation, "
              f"{non_finite} non-finite", file=sys.stderr)
    return EXIT_OK


def run_eval(args) -> int:
    pred = _load(load_trees, args.pred)
    gold = _load(load_trees, args.gold)
    try:
        rows = per_sentence_rows(pred, gold)
    except LengthMismatch as err:
        raise ValueError(f"--pred {args.pred} vs --gold {args.gold}: {err}") from None
    print(EvalReport.of_rows(rows).summary())
    if args.per_sentence:
        with open(args.per_sentence, "w", encoding="utf-8") as fh:
            fh.write("index\tmatched\tpredicted\tgold\n")
            for row in rows:
                fh.write("\t".join(str(v) for v in row) + "\n")
    return EXIT_OK


def run_oracle_check(args) -> int:
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
    trees = _load(load_trees, args.treebank)
    sentences = [sentence_of(t) for t in trees]
    _check_lengths(args.treebank, sentences, model.maxlen)
    if not sentences:
        print("bench: n/a (0 sentences)")
        return EXIT_OK
    compiled = CompiledRules(model.labels, grammar, rules)
    modes = tuple(MODES) if args.mode == "all" else (args.mode,)
    note = " (single repetition; noisy)" if args.repetitions == 1 else ""
    # each repetition runs every mode once, starting one mode later than the
    # last, and a mode's rate comes from its median repetition, so a stall or
    # a fast stretch of a shared machine that lands on a few repetitions of
    # one mode does not move its rate
    elapsed = {mode: [] for mode in modes}
    for rep in range(args.repetitions):
        for k in range(len(modes)):
            mode = modes[(rep + k) % len(modes)]
            start = time.perf_counter()
            _decode_all(sentences, model, compiled, mode, args.threads)
            elapsed[mode].append(time.perf_counter() - start)
    for mode in modes:
        rate = len(sentences) / statistics.median(elapsed[mode])
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
    except (OSError, ValueError, NoDerivation) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
