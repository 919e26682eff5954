"""Command-line interface exposing the pipeline as composable subcommands.

Exit codes are stable per failure category: 0 success, 1 usage or
precondition, 2 I/O, 3 input parsing, 4 numeric divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import encode_corpus, extract_corpus, label_index, load_dataset_manifest
from .encoder import dump_pgm, encode
from .errors import BotgridError, NonFiniteLoss, ParseError
from .manifest import KINDS, read_permissions, read_text, write_names
from .nn.model import load_model, save_model
from .synth import SynthSpec, generate_synthetic_corpus
from .training import (
    TrainConfig,
    build_fold_vocabulary,
    cross_validate,
    evaluate,
    predict,
    render_report,
    render_trace_csv,
    train,
)
from .vocabulary import load_vocabulary, save_vocabulary

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_DIVERGED = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="botgrid", description=__doc__)
    parser.add_argument("--version", action="version", version=f"botgrid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract permissions from an APK or manifest")
    p.add_argument("input", help="APK or manifest file (binary or plaintext)")
    p.add_argument("--kind", choices=KINDS, default=None)
    p.add_argument("--out", help="permission-list output path (default: stdout)")

    p = sub.add_parser("vocab", help="build the top-n permission vocabulary from a corpus")
    p.add_argument("--manifest", required=True, help="dataset CSV (path,label,kind)")
    p.add_argument("--n", type=int, default=41, help="vocabulary size (default 41)")
    p.add_argument("--out", required=True, help="vocabulary output path")

    p = sub.add_parser("encode", help="encode one sample as a co-occurrence image")
    p.add_argument("sample")
    p.add_argument("--kind", choices=KINDS, default=None)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="PGM output path")

    p = sub.add_parser("train", help="train the classifier on a labeled corpus")
    _add_config_flags(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", help="existing vocabulary file (default: build from corpus)")
    p.add_argument("--model-out", required=True)
    p.add_argument("--vocab-out", help="write the vocabulary used for training")
    p.add_argument("--trace-out", help="write the per-epoch trace CSV")

    p = sub.add_parser("cv", help="k-fold cross-validation")
    _add_config_flags(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--vocab-from-all", action="store_true", default=None,
                   help="rank the vocabulary over the whole corpus (leaks test folds)")
    p.add_argument("--report", help="report output path (default: stdout)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--traces", help="directory for per-fold epoch trace CSVs")

    p = sub.add_parser("predict", help="classify one sample")
    p.add_argument("sample")
    p.add_argument("--kind", choices=KINDS, default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--spec", help="JSON file with generator settings")
    p.add_argument("--seed", type=int, default=None, help="override the generator seed")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with training settings")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=None)
    p.add_argument("--n", dest="vocab_size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--val-split", dest="val_fraction", metavar="VAL_SPLIT", type=float,
                   default=None, help="validation fraction carved from the training set")
    p.add_argument("--dtype", choices=("float32", "float64"), default=None)


def _load_fields(path, cls, what: str) -> dict:
    """A JSON object whose keys must all be fields of the dataclass cls,
    each holding a value of its default's type.  An int passes for a float
    and becomes one, so reports print the same as for a float."""
    def parse_int(digits: str) -> int:
        try:
            return int(digits)
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(f"{path}: {exc}") from None

    text = read_text(path)
    try:
        loaded = json.loads(text, parse_int=parse_int)
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    if not isinstance(loaded, dict):
        raise ValueError(f"{path}: expected a JSON object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(loaded) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in loaded.items():
        expected = type(defaults[key])
        if expected is float and type(value) is int:
            try:
                loaded[key] = value = float(value)
            except OverflowError:  # past the largest float, about 1.8e308
                raise ValueError(
                    f"{what} key {key!r} must be float, got an integer too large for one"
                ) from None
        if type(value) is not expected:
            raise ValueError(
                f"{what} key {key!r} must be {expected.__name__}, got {json.dumps(value)}"
            )
    return loaded


def _load_config(args: argparse.Namespace) -> TrainConfig:
    values = _load_fields(args.config, TrainConfig, "config") if args.config else {}
    for field in dataclasses.fields(TrainConfig):  # each flag's dest is its field
        flag_value = getattr(args, field.name, None)
        if flag_value is not None:
            values[field.name] = flag_value
    return TrainConfig(**values)


def _cmd_extract(args) -> int:
    perms = read_permissions(args.input, args.kind)
    if args.out:
        write_names(sorted(perms.permissions), args.out)
    else:
        for name in sorted(perms.permissions):
            print(name)
    return EXIT_OK


def _cmd_vocab(args) -> int:
    if args.n < 1:  # before the corpus is read
        raise ValueError(f"vocabulary size must be >= 1, got {args.n}")
    records = load_dataset_manifest(args.manifest)
    corpus = extract_corpus(records)
    vocab = build_fold_vocabulary(corpus.perm_sets, corpus.labels, args.n)
    save_vocabulary(vocab, args.out)
    print(f"wrote {len(vocab)} permissions to {args.out}")
    return EXIT_OK


def _cmd_encode(args) -> int:
    vocab = load_vocabulary(args.vocab)
    perms = read_permissions(args.sample, args.kind)
    dump_pgm(encode(perms, vocab), args.out)
    return EXIT_OK


def _cmd_train(args) -> int:
    config = _load_config(args)
    records = load_dataset_manifest(args.manifest)
    corpus = extract_corpus(records)
    if args.vocab:
        vocab = load_vocabulary(args.vocab)
    else:
        vocab = build_fold_vocabulary(corpus.perm_sets, corpus.labels, config.vocab_size)

    tensors, _ = encode_corpus(corpus.perm_sets, vocab, dtype=config.np_dtype)
    labels = np.array([label_index(lbl) for lbl in corpus.labels])
    model, trace = train(tensors, labels, config)
    save_model(model, args.model_out)
    if args.vocab_out:
        save_vocabulary(vocab, args.vocab_out)
    if args.trace_out:
        Path(args.trace_out).write_text(render_trace_csv(trace), encoding="utf-8")
    metrics = evaluate(model, tensors, labels)
    acc = "undefined" if metrics.accuracy is None else f"{metrics.accuracy:.6f}"
    print(f"trained {config.epochs} epochs on {len(tensors)} samples; train accuracy {acc}")
    for path, reason in corpus.failures:
        print(f"failed: {path}: {reason}", file=sys.stderr)
    return EXIT_OK


def _cmd_cv(args) -> int:
    config = _load_config(args)
    records = load_dataset_manifest(args.manifest)
    result = cross_validate(records, config)
    report = render_report(result, fmt=args.format)
    if args.report:
        Path(args.report).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)
    if args.traces:
        trace_dir = Path(args.traces)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for fr in result.folds:
            (trace_dir / f"fold{fr.fold:02d}.csv").write_text(
                render_trace_csv(fr.trace), encoding="utf-8"
            )
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    vocab = load_vocabulary(args.vocab)
    label, prob = predict(model, vocab, args.sample, args.kind)
    print(f"{label} {prob:.6f}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    values = _load_fields(args.spec, SynthSpec, "spec") if args.spec else {}
    if args.seed is not None:
        values["seed"] = args.seed
    spec = SynthSpec(**values)
    records = generate_synthetic_corpus(spec, args.out)
    print(f"wrote {len(records)} samples to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "extract": _cmd_extract,
    "vocab": _cmd_vocab,
    "encode": _cmd_encode,
    "train": _cmd_train,
    "cv": _cmd_cv,
    "predict": _cmd_predict,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NonFiniteLoss as exc:
        print(f"botgrid: numeric divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ParseError as exc:
        print(f"botgrid: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"botgrid: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"botgrid: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (BotgridError, ValueError) as exc:
        print(f"botgrid: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
