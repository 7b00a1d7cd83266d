#!/usr/bin/env python3
"""Run seed-fixed training steps and print one sha256 over everything they produce.

Each step is `training.train`'s: `batch_losses`, `backward`, `clip_grads`,
`cosine_lr` and `adam_step`, on a batch of synthetic lines. The digest
covers, step by step, the bytes of every loss component, every gradient as
`backward` left it, the gradient norm, and after the update every parameter
and both Adam moments. Two trees that print the same digest train the same
model bit for bit; run it with each tree's `src` on PYTHONPATH.

The float bits also depend on the BLAS kernels numpy runs, which OpenBLAS
picks per CPU: at one tree, train_c07 printed 83737ee2... on an x86-64 VM
with OpenBLAS's Haswell kernels and 8309f89a... on one with AVX-512. So a
digest compares two trees only when both run on the same machine; a digest
quoted from another machine says nothing about bit identity. The bits
depend on the BLAS thread count too: on a 2-core x86-64 VM, `--d 192
--glyphs 6 10 --steps 2` printed db186278... with OpenBLAS's default
threads and 5349191a... pinned to one CPU (`taskset -c 0`), and 5349191a...
both ways with OPENBLAS_NUM_THREADS=1. So the script sets
OPENBLAS_NUM_THREADS=1 itself before numpy loads OpenBLAS, unless the
environment already sets it; every digest quoted here is from one thread.

Without --d it runs the benchmark's two training shapes: `train_c07` (d=64,
lines of 2-4 glyphs) and `train_wide` (d=320, augmented lines of 6-10
glyphs). From d=128 the image stream is marked and its forward and
backward run beside the rest, as in training: on the worker thread with
two or more CPUs, and the same split inline on one.
"""

import argparse
import hashlib
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads OpenBLAS: see the docstring

import numpy as np  # noqa: E402

from penrec import autodiff as ad  # noqa: E402
from penrec.config import AlignConfig, EncoderConfig, TrainConfig  # noqa: E402
from penrec.data import augment, build_vocab, normalize  # noqa: E402
from penrec.model import Recognizer  # noqa: E402
from penrec.synth import DEFAULT_ALPHABET, synth_generate  # noqa: E402
from penrec.training import batch_losses  # noqa: E402

SHAPES = {  # name -> (d, glyphs per line, augment, lr_max, lr_min), as perfbench/workloads.py
    "train_c07": (64, (2, 4), False, 2e-3, 2e-5),
    "train_wide": (320, (6, 10), True, 2e-4, 2e-7),
}


def digest(d: int, glyphs: tuple[int, int], augmented: bool, lr: tuple[float, float],
           steps: int, dtype, seed: int, batch: int = 8) -> str:
    """The sha256 of `steps` training steps of a d-wide model of `dtype` on fresh lines of `glyphs` glyphs."""
    data_rng, aug_rng = (np.random.default_rng([seed, k]) for k in (1, 2))
    lines = [normalize(s) for s in synth_generate(DEFAULT_ALPHABET, batch * steps, data_rng, length_range=glyphs)]
    model = Recognizer(EncoderConfig(d=d), AlignConfig(), build_vocab(lines), seed=seed, dtype=dtype)
    adam = ad.AdamState(model.params)
    defaults = TrainConfig()
    h = hashlib.sha256()
    for step in range(steps):
        chunk = lines[step * batch:(step + 1) * batch]
        if augmented:
            chunk = [augment(s, defaults.augment_fraction, defaults.augment_magnitude, aug_rng) for s in chunk]
        total, comps = batch_losses(model, chunk, defaults.align_weight)
        for name in sorted(comps):
            h.update(name.encode() + comps[name].data.tobytes())
        h.update(total.data.tobytes())
        ad.zero_grads(model.params.values())
        ad.backward(total)
        for name, p in model.params.items():
            h.update(name.encode() + (b"-" if p.grad is None else p.grad.tobytes()))
        h.update(np.float64(ad.clip_grads(model.params, defaults.grad_clip)).tobytes())
        ad.adam_step(model.params, adam, ad.cosine_lr(step, steps, *lr))
        for name, p in model.params.items():
            h.update(name.encode() + p.data.tobytes() + adam.m[name].tobytes() + adam.v[name].tobytes())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--d", type=int, help="feature width; default: both benchmark shapes")
    ap.add_argument("--glyphs", type=int, nargs=2, default=(2, 4), metavar=("LO", "HI"),
                    help="glyphs per line, with --d (default 2 4)")
    ap.add_argument("--augment", action="store_true", help="augment each line, with --d")
    ap.add_argument("--steps", type=int, default=3)
    ap.add_argument("--dtype", choices=("float32", "float64"), default="float32")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.steps < 1:
        ap.error("--steps must be at least 1")
    if args.d is None:
        runs = SHAPES
    else:
        runs = {f"d={args.d}": (args.d, tuple(args.glyphs), args.augment, 2e-3, 2e-5)}
    for name, (d, glyphs, augmented, lr_max, lr_min) in runs.items():
        sha = digest(d, glyphs, augmented, (lr_max, lr_min), args.steps, np.dtype(args.dtype), args.seed)
        print(f"{name} {args.dtype} {args.steps} steps seed {args.seed}: {sha}")


if __name__ == "__main__":
    main()
