#!/usr/bin/env python3
"""Train the five alignment variants and tabulate the results.

Rows are `ALIGN_VARIANTS` in order, each adding one piece of the module to
the row before it: no module at all ("none"); transformer layers only;
+ 2D position embedding ("positions"); + alignment loss ("align"); + its
stop gradient ("full").
Each row trains the same synthetic dataset for the same number of steps;
the reported CER comes from single-stream inference on a held-out split.

What the grid demonstrates at desk scale is the STRUCTURE (parameter
counts, loss wiring, gradient flow per row); with a few dozen synthetic
samples the held-out CER differences between rows are noise. Raise --n
and --steps for meaningful comparisons.
"""

import argparse
import time

import numpy as np

from penrec.config import ALIGN_VARIANTS, AlignConfig, EncoderConfig, TrainConfig
from penrec.data import build_vocab
from penrec.synth import DEFAULT_ALPHABET, synth_generate
from penrec.training import evaluate, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=48, help="synthetic samples")
    ap.add_argument("--d", type=int, default=32, help="feature width")
    ap.add_argument("--steps", type=int, default=600)
    ap.add_argument("--batch-size", type=int, default=8)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()

    data = synth_generate(DEFAULT_ALPHABET, args.n, np.random.default_rng(args.seed + 17))
    vocab = build_vocab(data)
    holdout = max(4, args.n // 5)
    train_split, eval_split = data[:-holdout], data[-holdout:]
    print(f"{args.n} samples ({len(train_split)} train / {len(eval_split)} eval), "
          f"vocab {vocab.size}, d={args.d}, {args.steps} steps per row\n")
    print(f"{'variant':<12} {'params':>8} {'L_1d':>8} {'L_align':>8} {'eval CER':>9} {'sec':>6}")

    for variant in ALIGN_VARIANTS:
        cfg = TrainConfig(batch_size=args.batch_size, epochs=1, max_steps=args.steps,
                          lr_max=2e-3, lr_min=2e-5, augment=True, val_fraction=0.0,
                          seed=args.seed)
        start = time.monotonic()
        result = train(train_split, EncoderConfig(d=args.d), AlignConfig(variant=variant),
                       cfg, vocab)
        elapsed = time.monotonic() - start
        last = [r for r in result.records if "L_all" in r][-1]
        n_params = sum(p.data.size for p in result.model.params.values())
        cer = evaluate(result.model, eval_split)["cer"]
        print(f"{variant:<12} {n_params:>8} {last['L_1d']:>8.4f} {last['L_align']:>8.4f} "
              f"{cer:>9.4f} {elapsed:>6.0f}")


if __name__ == "__main__":
    main()
