"""Command-line entry point: train / eval / infer / render / synth.

Exit codes: 0 success, 1 I/O failure, 2 bad config, data or checkpoint,
3 divergence; `main` maps each typed error to its code in one place. All
commands are deterministic under --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_run_config
from .data import (DataError, build_vocab, load_dataset, normalize, render,
                   save_dataset, write_pgm)
from .decoder import MAX_DECODE_CEILING, MAX_DECODE_LEN
from .synth import DEFAULT_ALPHABET, synth_lines
from .training import (CheckpointError, DivergenceError, evaluate,
                       load_checkpoint, train)

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _check_max_len(max_len: int) -> None:
    if not 1 <= max_len <= MAX_DECODE_CEILING:
        raise ConfigError(f"--max-len must be from 1 to {MAX_DECODE_CEILING}, got {max_len}")


def cmd_train(args) -> int:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if args.data:
        cfg.train_data = args.data
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.training.seed = args.seed
    cfg.validate()
    if not cfg.train_data:
        raise ConfigError("no training data path (set train_data or pass --data)")
    if not cfg.out_dir:
        raise ConfigError("no output directory (set out_dir or pass --out)")
    dataset = load_dataset(cfg.train_data)
    result = train(dataset, cfg.encoder, cfg.alignment, cfg.training, build_vocab(dataset),
                   out_dir=cfg.out_dir, quiet=args.quiet)
    print(json.dumps({
        "checkpoint": str(result.checkpoint_path),
        "log": str(result.log_path),
        "steps": len([r for r in result.records if "L_all" in r]),
    }, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_max_len(args.max_len)
    model = load_checkpoint(args.checkpoint)
    rep = evaluate(model, load_dataset(args.data), max_decode_len=args.max_len)
    print(json.dumps(rep, sort_keys=True))
    return EXIT_OK


def cmd_infer(args) -> int:
    _check_max_len(args.max_len)
    model = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.input, require_text=False)
    try:
        for seq in dataset:
            print(model.infer_text(normalize(seq), max_len=args.max_len), flush=True)
    except BrokenPipeError:
        # the reader closed early (`penrec infer ... | head -1`): stop decoding, and point
        # stdout at devnull so the interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _fail(EXIT_IO, "standard output closed before all transcripts were written")
    return EXIT_OK


def _check_preview_ids(dataset) -> None:
    """Each id must be a plain, unique file name, so `<id>.pgm` stays inside the output directory."""
    seen = set()
    for seq in dataset:
        if seq.id in ("", ".", "..") or any(c in seq.id for c in "/\\\0"):
            raise DataError(f"id {seq.id!r} is not a plain file name")
        if seq.id in seen:
            raise DataError(f"duplicate id {seq.id!r}")
        seen.add(seq.id)


def cmd_render(args) -> int:
    dataset = load_dataset(args.input, require_text=False)
    _check_preview_ids(dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for seq in dataset:
        write_pgm(render(normalize(seq)), out_dir / f"{seq.id}.pgm")
    return EXIT_OK


def cmd_synth(args) -> int:
    # the arguments are checked here, before the file is opened; each line is written as it is generated
    lines = synth_lines(args.vocab, args.n, np.random.default_rng(args.seed),
                        length_range=(args.min_len, args.max_len))
    save_dataset(args.out, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="penrec",
                                     description="Two-stream pen-trajectory recognizer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSONL dataset")
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--data", help="training JSONL (overrides config train_data)")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.add_argument("--seed", type=int, help="overrides config training.seed")
    p.add_argument("--quiet", action="store_true", default=False,
                   help="suppress per-step log lines on stdout")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint; prints metrics JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--max-len", type=int, default=MAX_DECODE_LEN)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="print one transcript per input line")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--max-len", type=int, default=MAX_DECODE_LEN)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("render", help="write PGM previews of rendered inputs")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("synth", help="generate a synthetic JSONL dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--vocab", default=DEFAULT_ALPHABET, help="glyph alphabet")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--min-len", type=int, default=2)
    p.add_argument("--max-len", type=int, default=4)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, CheckpointError) as e:
        return _fail(EXIT_CONFIG, str(e))
    except DivergenceError as e:
        return _fail(EXIT_DIVERGED, str(e))
    except OSError as e:
        return _fail(EXIT_IO, str(e))


if __name__ == "__main__":
    sys.exit(main())
