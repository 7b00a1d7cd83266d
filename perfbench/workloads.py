"""The benchmark's workloads, driven through penrec's public functions.

All workloads are closed loops with one caller: the next training step or
request starts when the previous one returns. Operation 0 is an untimed
warm-up. The first ``fixed_ops`` operations are the fixed run: the final
training loss is taken over it, and its size picks the tail percentile, so
neither depends on how many operations fit into the window. After the fixed
run the loop keeps going until the window has lasted ``seconds``.

In a traced run every other operation is traced; the untraced ones in
between give the tracing overhead under the same conditions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import penrec
import penrec.data as pdata
import penrec.model as pmodel
from penrec import autodiff as ad
from penrec import metrics
from penrec.alignment import align_loss, merge_features, sample_image_columns
from penrec.config import AlignConfig, EncoderConfig, TrainConfig
from penrec.data import EOS, RESERVED_SYMBOLS, augment, build_vocab, render
from penrec.model import Recognizer
from penrec.synth import DEFAULT_ALPHABET, synth_generate
from penrec.training import batch_losses, load_checkpoint, save_checkpoint, train, zero_image_stream
from tracer import ROOT_SPAN, Tracer


@dataclass(frozen=True)
class Workload:
    kind: str                  # "train" or "infer"
    d: int
    lines: int
    glyphs: tuple[int, int]    # glyphs per line, lengths spread evenly over the range
    fixed_ops: int             # warm-up op included
    augment: bool = False
    lr: tuple[float, float] = (2e-3, 2e-5)


WORKLOADS = {
    # The acceptance-gate C07 recipe; per-node Python dispatch dominates.
    "train_c07": Workload("train", 64, 32, (2, 4), 101),
    # The standard recipe's width on long augmented lines; larger kernels, 8.3M Adam params.
    "train_wide": Workload("train", 320, 40, (6, 10), 21, augment=True, lr=(2e-4, 2e-7)),
    # Single-stream greedy inference from a trained d=64 checkpoint, one line per request. Every
    # request of the fixed run is a distinct line, so its tail is not set by two or three lines.
    "infer_ckpt": Workload("infer", 64, 5000, (1, 8), 5001),
}

BATCH = 8
MODEL_SEED = 1             # the C07 recipe's init seed; data, order and augmentation come from --seed
SETUP_REPEATS = 11
INFER_LOADS = 31           # infer_ckpt's set-up is one load of a few ms, so it takes more
FIXED_RUN_LOADS = 20       # ckpt_load_ms: loads spread evenly over the fixed run, and on at that pace
LOSS_TAIL = 5              # the final losses average the fixed run's last steps
TRACE_CHECKS = 16          # requests whose traced transcript is compared with infer_text
ZERO_IMAGE_CHECKS = 200    # requests decoded again after zero_image_stream
FIXTURE_STEPS = 150        # d=64 C07-recipe training run that produces infer_ckpt's checkpoint
FIXTURE_DATA_SEED = 42     # C07's data seed; the checkpoint is the same for every --seed
# No p99: one caller's ms-scale requests on a few shared cores put their p99 at the scheduler's
# preemptions. On a shared 2-core x86-64 VM, over 5000 requests, it spread 21% across runs
# and p95 in 200-request blocks 5%.
TAIL_LADDER = (50, 75, 90, 95)
MAX_LEN = 256              # Recognizer.infer_text's default decode limit

FORWARD_LAYERS = ("encoders.traj_conv", "alignment.aligner", "layers.traj_gru", "decoder.dec_traj.ce",
                  "encoders.img_cnn", "layers.img_gru", "decoder.dec_img.ce", "alignment.align_loss",
                  "training.batch_losses")
LAYERS = ("data.normalize", "data.render", "data.augment", "encoders.traj_conv", "encoders.img_cnn",
          "alignment.aligner", "alignment.align_loss", "layers.traj_gru", "layers.img_gru",
          "decoder.dec_traj.ce", "decoder.dec_img.ce", "decoder.greedy", "training.batch_losses",
          "autodiff.backward", "autodiff.clip_grads", "autodiff.adam_step")
NODE_OPS = ("add", "sub", "mul", "matmul", "conv1d", "conv2d", "sigmoid", "tanh", "relu", "softmax",
            "layer_norm", "concat", "gather_rows", "squeeze_lead", "interp_rows", "sum", "mean",
            "cross_entropy_logits", "mse")
IMAGE_LAYERS = {"img_cnn": "encoders.img_cnn", "img_gru": "layers.img_gru", "dec_img": "decoder.dec_img.ce"}


class RunFailure(RuntimeError):
    """The run produced too little to report a metric."""


def make_lines(rng: np.random.Generator, n: int, glyphs: tuple[int, int], prefix: str):
    """n synthetic lines whose glyph counts cover the range evenly, in random order.

    Spreading the lengths evenly keeps the total work nearly the same for every
    seed, so the seed changes the inputs without changing the workload's size.
    """
    lo, hi = glyphs
    lengths = rng.permutation(np.resize(np.arange(lo, hi + 1), n))
    return [synth_generate(DEFAULT_ALPHABET, 1, rng, length_range=(int(k), int(k)),
                           id_prefix=f"{prefix}{i}")[0] for i, k in enumerate(lengths)]


def tail_percentile(samples, fixed_n: int):
    """Highest ladder percentile with at least 10 of `fixed_n` samples beyond it: (percentile, value).

    The percentile is picked from the fixed run's size, so a faster program
    that fits more operations into the window keeps the same percentile; it
    is then measured over all `samples`, in time order. They are cut into as
    many consecutive blocks as have 10 samples beyond the percentile each, and
    the median of the blocks' percentiles is returned. A burst of machine noise
    then moves one block, not the result. With one block this is the plain
    percentile.
    """
    fit = [p for p in TAIL_LADDER if fixed_n * (1000 - round(p * 10)) >= 10000]
    if not fit:  # fewer than 20 samples: only the maximum is left
        return 100, float(max(samples))
    p = fit[-1]
    blocks = max(1, len(samples) * (1000 - round(p * 10)) // 10000)
    return p, float(statistics.median(np.percentile(b, p) for b in np.array_split(samples, blocks)))


def closed_loop(op, fixed_ops: int, seconds: float, trace: bool, before=None) -> dict:
    """Run op(i, traced) until the fixed run is done and the window has lasted `seconds`.

    `before(i)`, when given, runs before each op, outside its timing. Training
    passes a full collection there. A training step builds a graph of about
    10^5 GC-tracked objects, and where the collector's full collections fall
    within a step depends on the whole allocation history of the process. On
    a 2-core x86-64 VM, left to chance, that moved the mean step time by about
    10% between runs of one seed; from the same collector state every step, by
    about 3%. The step's own collections still count in its time.
    """
    state = {"attempted": 0, "failed": 0, "errors": [], "results": {}, "timed": []}

    def attempt(i, traced):
        state["attempted"] += 1
        if before is not None:
            before(i)
        t0 = time.perf_counter()
        try:
            state["results"][i] = op(i, traced)
        except Exception as e:  # every failure is counted, and the loop goes on
            state["failed"] += 1
            if len(state["errors"]) < 5:
                state["errors"].append(f"op {i}: {e!r}")
            return None
        return time.perf_counter() - t0

    attempt(0, False)
    start = time.perf_counter()
    i = 1
    while i < fixed_ops or time.perf_counter() - start < seconds:
        traced = trace and i % 2 == 1
        dur = attempt(i, traced)
        if dur is not None:
            state["timed"].append((i, traced, dur))
        i += 1
    return state


def timing_report(loop: dict, fixed_ops: int, items_per_op) -> dict:
    plain = [(i, dur) for i, traced, dur in loop["timed"] if not traced]
    if not plain:
        raise RunFailure("no operation succeeded")
    ms = [dur * 1e3 for _, dur in plain]
    pct, tail = tail_percentile(ms, sum(1 for i, _ in plain if i < fixed_ops))
    items = sum(items_per_op(i) for i, _ in plain)
    return {"ops": len(plain), "ms_p50": statistics.median(ms), "ms_tail": tail,
            "tail_percentile": pct, "tail_n": len(ms),
            "items_per_s": items / sum(dur for _, dur in plain)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the forward pass composed layer by layer (traced runs only)


def traced_trajectory(model: Recognizer, seq, tr: Tracer):
    """Recognizer.trajectory_features, one span per layer."""
    with tr.span("encoders.traj_conv"):
        f_conv = model.traj_conv(seq)
    f_aligned = None
    if model.align_cfg.enabled:
        with tr.span("alignment.aligner"):
            f_aligned = model.aligner(f_conv)
    x = merge_features(f_conv.values, f_aligned)
    with tr.span("layers.traj_gru"):
        f_enc = model.traj_gru(x)
    return f_enc, f_conv, f_aligned


def traced_sample_losses(model: Recognizer, seq, tr: Tracer):
    """Recognizer.sample_losses, one span per layer."""
    target = model.vocab.encode(seq.text) + [EOS]
    f_enc, f_conv, f_aligned = traced_trajectory(model, seq, tr)
    with tr.span("decoder.dec_traj.ce"):
        loss_traj = model.dec_traj.ce_loss(f_enc, target)
    with tr.span("data.render"):
        img = render(seq)
    with tr.span("encoders.img_cnn"):
        f2d_conv = model.img_cnn(img)
    with tr.span("layers.img_gru"):
        f2d_gru = model.img_gru(f2d_conv)
    with tr.span("decoder.dec_img.ce"):
        loss_img = model.dec_img.ce_loss(f2d_gru, target)
    loss_align = None
    if model.align_cfg.use_align_loss and f_aligned is not None:
        with tr.span("alignment.align_loss"):
            sampled = sample_image_columns(f2d_conv, f_conv.positions)
            loss_align = align_loss(f_aligned, sampled, stop_grad=model.align_cfg.use_stop_gradient)
    return {"traj": loss_traj, "img": loss_img, "align": loss_align}


def traced_batch_losses(model: Recognizer, batch, tr: Tracer, align_weight: float):
    """training.batch_losses with the per-sample forward composed by the benchmark."""
    with tr.span("training.batch_losses"):
        model.sample_losses = lambda seq: traced_sample_losses(model, seq, tr)
        try:
            return batch_losses(model, batch, align_weight)
        finally:
            del model.sample_losses


def traced_infer_text(model: Recognizer, raw, tr: Tracer) -> tuple[str, int]:
    """normalize + Recognizer.infer_text, one span per layer; also returns the decode steps."""
    seq = pdata.normalize(raw)
    with ad.no_grad():
        f_enc, _, _ = traced_trajectory(model, seq, tr)
        with tr.span("decoder.greedy"):
            ids = model.dec_traj.greedy(f_enc, max_len=MAX_LEN)
    # greedy stops after the step that emits eos, or after max_len steps without one
    return model.vocab.decode(ids), min(len(ids) + 1, MAX_LEN)


def new_tracer() -> Tracer:
    return Tracer(ad, patches=[(pdata, "normalize", "data.normalize")])


def layer_metrics(tr: Tracer, untraced_ms: list[float], decode_steps: int) -> dict:
    """Per-operation means from the traced operations; they add up to trace.wall_ms."""
    n = len(tr.op_walls)
    if n == 0:
        raise RunFailure("no traced operation succeeded")
    out = {}
    for name in LAYERS:
        out[f"{name}.ms"] = tr.self_s.get(name, 0.0) * 1e3 / n
        out[f"{name}.calls"] = tr.calls[name] / n
    for name in FORWARD_LAYERS:
        out[f"autodiff.backward.{name}.ms"] = tr.self_s.get(f"autodiff.backward.{name}", 0.0) * 1e3 / n
    for op in NODE_OPS:
        out[f"autodiff.nodes.{op}"] = tr.nodes[op] / n
    out["autodiff.nodes.total"] = sum(tr.nodes.values()) / n
    greedy_s = tr.self_s.get("decoder.greedy", 0.0)
    out["decoder.greedy.steps"] = decode_steps / n
    out["decoder.greedy.us_per_step"] = greedy_s * 1e6 / decode_steps if decode_steps else 0.0
    out["gc.pause_ms"] = tr.gc_pause_s * 1e3 / n
    out["gc.collections"] = tr.gc_collections / n
    wall = statistics.fmean(tr.op_walls) * 1e3
    out["trace.wall_ms"] = wall
    out["trace.unattributed_ms"] = tr.self_s.get(ROOT_SPAN, 0.0) * 1e3 / n
    out["trace.untraced_ms"] = statistics.fmean(untraced_ms) if untraced_ms else 0.0
    out["trace.overhead_frac"] = wall / out["trace.untraced_ms"] - 1.0 if untraced_ms else 0.0
    return out


def checkpoint_metrics(save_s: list[float], load_s: list[float]) -> dict:
    """Per call, with the number of calls in the run."""
    return {"training.save_checkpoint.ms": statistics.median(save_s) * 1e3 if save_s else 0.0,
            "training.save_checkpoint.calls": float(len(save_s)),
            "training.load_checkpoint.ms": statistics.median(load_s) * 1e3,
            "training.load_checkpoint.calls": float(len(load_s))}


def loads_between(path: Path, fixed_ops: int, load_s: list, collect: bool):
    """closed_loop's `before`: a timed load_checkpoint of `path` before every few ops.

    The loads are spread evenly over the window, FIXED_RUN_LOADS of them in the
    fixed run. Timed back to back they take a fraction of a second and all fall
    into one moment of a shared host's load; on a 2-core x86-64 VM the median
    of 31 such loads moved 14% across runs. Spread out, they see the same host
    as the ops around them. With `collect`, a full collection follows.
    """
    every = max(1, (fixed_ops - 1) // FIXED_RUN_LOADS)

    def before(i):
        if i % every == 0:
            load_s.append(timed(load_checkpoint, path)[1])
        if collect:
            gc.collect()
    return before


def timed(fn, *args):
    """(fn(*args), seconds), from the same collector state each time, as closed_loop's steps."""
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# training workloads


def run_train(w: Workload, seed: int, seconds: float, trace: bool, build_dir: Path) -> dict:
    data = make_lines(np.random.default_rng(seed), w.lines, w.glyphs, "train")
    defaults = TrainConfig()

    def setup():
        base = [pdata.normalize(s) for s in data]
        model = Recognizer(EncoderConfig(d=w.d), AlignConfig(), build_vocab(base), seed=MODEL_SEED)
        return base, model, ad.AdamState(model.params)

    setup_s = []
    for _ in range(SETUP_REPEATS):
        (base, model, adam), dt = timed(setup)
        setup_s.append(dt)
    order_rng, aug_rng = (np.random.default_rng([seed, k]) for k in (1, 2))

    def batches():
        while True:
            order = order_rng.permutation(len(base))
            for lo in range(0, len(order), BATCH):
                yield [base[i] for i in order[lo:lo + BATCH]]

    stream = batches()
    tr = new_tracer() if trace else None
    checks = []
    if trace:
        checks.append(("trace_matches_batch_losses", trace_matches_batch_losses(model, base[:BATCH])))
    batch_sizes = {}

    def step(i, traced):
        batch = next(stream)
        batch_sizes[i] = len(batch)
        if traced:
            with tr.op():
                return train_step(model, adam, batch, i, w, aug_rng, defaults, tr)
        return train_step(model, adam, batch, i, w, aug_rng, defaults, None)

    with tempfile.TemporaryDirectory(dir=build_dir) as scratch:
        # The loads between steps read the checkpoint saved here, before training;
        # the checkpoint's size and format do not depend on the parameter values.
        ckpt = Path(scratch) / "model.ckpt"
        _, save_dt = timed(save_checkpoint, model, ckpt)
        load_s = []
        loop = closed_loop(step, w.fixed_ops, seconds, trace,
                           before=loads_between(ckpt, w.fixed_ops, load_s, collect=True))
        save_checkpoint(model, ckpt)
        loaded = load_checkpoint(ckpt)
    checks.append(("checkpoint_round_trip",
                   all(np.array_equal(loaded.params[n].data, p.data) for n, p in model.params.items())))

    losses = [loop["results"][i] for i in range(w.fixed_ops - LOSS_TAIL, w.fixed_ops) if i in loop["results"]]
    if not losses:
        raise RunFailure("the fixed run's last steps all failed")
    loss_all, loss_ce = (statistics.fmean(col) for col in zip(*losses))
    t = timing_report(loop, w.fixed_ops, lambda i: batch_sizes[i])
    report = {
        "train_samples_per_s": t["items_per_s"],
        "train_step_ms_p50": t["ms_p50"],
        "train_step_ms_tail": {"value": t["ms_tail"], "percentile": t["tail_percentile"], "n": t["tail_n"]},
        "train_loss_final": loss_all,
        "train_ce_final": loss_ce,
        "steps_timed": t["ops"],
        "params": sum(p.data.size for p in model.params.values()),
    }
    return finish(loop, checks, t, report, loss_ce, tr,
                  setup_s=setup_s, load_s=load_s, save_s=[save_dt], decode_steps=0)


def train_step(model, adam, batch, i, w, aug_rng, defaults, tr):
    """One step of training.train's loop; returns L_all and the two streams' CE, L_1d + L_2d."""
    span = tr.span if tr is not None else (lambda name: contextlib.nullcontext())
    if w.augment:
        with span("data.augment"):
            batch = [augment(s, defaults.augment_fraction, defaults.augment_magnitude, aug_rng)
                     for s in batch]
    if tr is not None:
        total, comps = traced_batch_losses(model, batch, tr, defaults.align_weight)
    else:
        total, comps = batch_losses(model, batch, defaults.align_weight)
    if not np.isfinite(total.data):
        raise FloatingPointError(f"non-finite loss {float(total.data)}")
    # training.train keeps this copy through the step to restore it on divergence; so does the benchmark
    last_good = {name: p.data.copy() for name, p in model.params.items()}  # noqa: F841
    ad.zero_grads(model.params.values())
    with span("autodiff.backward"):
        ad.backward(total)
    with span("autodiff.clip_grads"):
        ad.clip_grads(model.params, defaults.grad_clip)
    lr = ad.cosine_lr(i, w.fixed_ops, *w.lr)
    with span("autodiff.adam_step"):
        ad.adam_step(model.params, adam, lr)
    return float(total.data), float(comps["traj"].data) + float(comps["img"].data)


def trace_matches_batch_losses(model: Recognizer, batch) -> bool:
    """The composed, traced forward gives training.batch_losses' total bit for bit."""
    align_weight = TrainConfig().align_weight
    with ad.no_grad():
        expected, _ = batch_losses(model, batch, align_weight)
    tr = new_tracer()
    with tr.op():
        got, _ = traced_batch_losses(model, batch, tr, align_weight)
    return bool(np.array_equal(got.data, expected.data))


# ---------------------------------------------------------------------------
# inference workload


def source_digest() -> str:
    """sha256 over the program's source files."""
    digest = hashlib.sha256()
    for path in sorted(Path(penrec.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()


def fixture_checkpoint(cache: Path, steps: int) -> tuple[Path, dict]:
    """infer_ckpt's trained checkpoint, built once per source tree in a child process.

    The child keeps the training run's memory out of this process's peak RSS.
    The file name carries a digest of the program's sources and the recipe, so
    a changed program never reads a stale checkpoint.
    """
    key = hashlib.sha256(f"{source_digest()}/{steps}/{FIXTURE_DATA_SEED}/{MODEL_SEED}".encode())
    path = cache / f"fixture-{key.hexdigest()[:16]}.ckpt"
    info = {"steps": steps, "cached": path.exists(), "build_s": 0.0}
    if not path.exists():
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--build-fixture", str(path), "--fixture-steps", str(steps)]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=600, stdout=subprocess.DEVNULL)
        info["build_s"] = time.perf_counter() - t0
    return path, info


def build_fixture(path: Path, steps: int) -> None:
    """Train the C07 recipe for `steps` steps and write the checkpoint atomically."""
    data = synth_generate(DEFAULT_ALPHABET, 32, np.random.default_rng(FIXTURE_DATA_SEED))
    cfg = TrainConfig(batch_size=BATCH, epochs=1, max_steps=steps, lr_max=2e-3, lr_min=2e-5,
                      augment=False, val_fraction=0.0, seed=MODEL_SEED)
    result = train(data, EncoderConfig(d=64), AlignConfig(), cfg, build_vocab(data))
    tmp = path.with_suffix(".tmp")
    save_checkpoint(result.model, tmp)
    tmp.replace(path)


class _Counted:
    """Stands in for an image-stream module and counts every use of it."""

    __slots__ = ("_target", "_name", "_counter")

    def __init__(self, target, name, counter):
        self._target, self._name, self._counter = target, name, counter

    def __getattr__(self, attr):
        self._counter[self._name] += 1
        return getattr(self._target, attr)

    def __call__(self, *args, **kwargs):
        self._counter[self._name] += 1
        return self._target(*args, **kwargs)


def run_infer(w: Workload, seed: int, seconds: float, trace: bool, build_dir: Path,
              fixture_steps: int) -> dict:
    fixture, fixture_info = fixture_checkpoint(build_dir, fixture_steps)
    requests = make_lines(np.random.default_rng(seed), w.lines, w.glyphs, "req")
    setup_s = []
    for _ in range(INFER_LOADS):
        model, dt = timed(load_checkpoint, fixture)
        setup_s.append(dt)
    symbols = set(model.vocab.symbols[len(RESERVED_SYMBOLS):])

    image_calls = Counter()
    for attr, name in IMAGE_LAYERS.items():
        setattr(model, attr, _Counted(getattr(model, attr), name, image_calls))
    real_render = pmodel.render

    def counted_render(seq):
        image_calls["data.render"] += 1
        return real_render(seq)

    pmodel.render = counted_render

    def infer(raw):
        return model.infer_text(pdata.normalize(raw), max_len=MAX_LEN)

    tr = new_tracer() if trace else None
    checks = []
    if trace:
        checks.append(("trace_matches_infer_text", all(
            traced_infer_text(model, raw, new_tracer())[0] == infer(raw)
            for raw in requests[:TRACE_CHECKS])))
    decode_steps = 0
    load_s = []

    def request(i, traced):
        nonlocal decode_steps
        raw = requests[i % len(requests)]
        if traced:
            with tr.op():
                text, steps = traced_infer_text(model, raw, tr)
            decode_steps += steps
        else:
            text = infer(raw)
        if not set(text) <= symbols:
            raise ValueError(f"transcript {text!r} has symbols outside the vocabulary")
        return text if i < len(requests) else None

    try:
        gc.collect()
        loop = closed_loop(request, w.fixed_ops, seconds, trace,
                           before=loads_between(fixture, w.fixed_ops, load_s, collect=False))
        first_pass = [loop["results"].get(i) for i in range(len(requests))]
        checks.append(("image_stream_untouched", sum(image_calls.values()) == 0))
        zero_image_stream(model)
        checks.append(("zero_image_stream_same_transcripts",
                       [infer(r) for r in requests[:ZERO_IMAGE_CHECKS]] == first_pass[:ZERO_IMAGE_CHECKS]))
    finally:
        pmodel.render = real_render

    if any(h is None for h in first_pass):
        raise RunFailure("a request of the first pass failed; no corpus CER")
    cer = metrics.cer([r.text for r in requests], first_pass)
    t = timing_report(loop, w.fixed_ops, lambda i: 1)
    report = {
        "infer_latency_ms_p50": t["ms_p50"],
        "infer_latency_ms_tail": {"value": t["ms_tail"], "percentile": t["tail_percentile"], "n": t["tail_n"]},
        "infer_requests_per_s": t["items_per_s"],
        "infer_cer": cer,
        "chars_per_request": statistics.fmean(len(h) for h in first_pass),
        "requests_timed": t["ops"],
        "fixture": fixture_info,
    }
    if tr is not None:
        tr.calls.update(image_calls)
    return finish(loop, checks, t, report, cer, tr,
                  setup_s=setup_s, load_s=load_s, save_s=[], decode_steps=decode_steps)


# ---------------------------------------------------------------------------


def finish(loop, checks, t, report, quality, tr, *, setup_s, load_s, save_s, decode_steps) -> dict:
    """Fold the checks into the failure count and assemble both metric sets."""
    attempted = loop["attempted"] + len(checks)
    failed = loop["failed"] + sum(1 for _, ok in checks if not ok)
    report.update({
        "setup_s": statistics.median(setup_s),
        "ckpt_load_ms": statistics.median(load_s) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "failed_frac": failed / attempted,
        "checks": {name: ok for name, ok in checks},
        "errors": loop["errors"],
    })
    end_to_end = {
        "setup_s": report["setup_s"],
        "throughput_per_s": t["items_per_s"],
        "latency_ms_p50": t["ms_p50"],
        "latency_ms_tail": t["ms_tail"],
        "ckpt_load_ms": report["ckpt_load_ms"],
        "quality_error": quality,
        "peak_rss_mb": report["peak_rss_mb"],
        "ok_frac": 1.0 - failed / attempted,
    }
    per_layer = None
    if tr is not None:
        per_layer = layer_metrics(tr, [1e3 * d for _, traced, d in loop["timed"] if not traced], decode_steps)
        per_layer.update(checkpoint_metrics(save_s, load_s))
    return {"attempted": attempted, "failed": failed, "report": report,
            "end_to_end": end_to_end, "per_layer": per_layer}


def run_workload(name: str, seed: int, seconds: float, trace: bool, build_dir: Path,
                 smoke: bool = False) -> dict:
    """One run of a workload; `smoke` shrinks it to seconds for a schema check."""
    w = WORKLOADS[name]
    fixture_steps = FIXTURE_STEPS
    if smoke:
        # inference needs its first pass over the lines for the corpus CER
        w = dataclasses.replace(w, lines=min(w.lines, 12), fixed_ops=3 if w.kind == "train" else 12)
        fixture_steps = 2
    build_dir.mkdir(parents=True, exist_ok=True)
    if w.kind == "train":
        return run_train(w, seed, seconds, trace, build_dir)
    return run_infer(w, seed, seconds, trace, build_dir, fixture_steps)
