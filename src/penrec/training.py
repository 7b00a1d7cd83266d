"""Collaborative two-stream training, checkpointing, and evaluation.

A batch runs as one forward pass (`Recognizer.losses`) in which every layer
runs once over all lines: each conv stack over the lines joined with zero
gaps, then the aligner, the recurrences and the losses over the lines
zero-padded to the longest, with per-line lengths that keep the gaps and
the padding out of every state, attention weight and loss. Each loss component
is the mean over lines of each line's own loss, and the components are
combined with the alignment weight. Runs are deterministic under the config
seed: parameter init, shuffling, and augmentation all derive from it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import metrics
from .autodiff import AdamState
from .config import (AlignConfig, ConfigError, EncoderConfig, TrainConfig,
                     align_config_from_dict, encoder_config_from_dict)
from .data import DataError, Vocabulary, augment, normalize, render_width
from .decoder import MAX_DECODE_LEN
from .layers import ParamStore
from .model import IMAGE_PREFIXES, Recognizer


class DivergenceError(RuntimeError):
    """Training loss or gradient went non-finite; the last good checkpoint is retained."""


class CheckpointError(ValueError):
    """Checkpoint file inconsistent with its manifest or config."""


CHECKPOINT_VERSION = 8
HEADER_KEYS = ("version", "encoder", "alignment", "seed", "vocab", "manifest")


def batch_losses(model: Recognizer, batch, align_weight: float):
    """The batch's loss components, from one batched forward pass, combined into the total loss.

    Returns (total, components) where components maps "traj"/"img"/"align"
    to scalar DiffArrays, each the mean over the batch's lines of that
    line's loss; "align" is present only when the loss is active. The
    total is exactly traj + img (+ weight * align when active).
    """
    comps = model.losses(batch)
    align = comps.pop("align")
    total = ad.add(comps["traj"], comps["img"])
    if align is not None:
        comps["align"] = align
        if align_weight != 0.0:
            total = ad.add(total, ad.mul(align, align_weight))
    return total, comps


@dataclass
class TrainResult:
    model: Recognizer
    records: list[dict] = field(default_factory=list)
    checkpoint_path: Path | None = None
    log_path: Path | None = None


def split_train_val(dataset, val_fraction: float, rng: np.random.Generator):
    order = rng.permutation(len(dataset))
    n_val = int(round(val_fraction * len(dataset)))
    n_val = min(n_val, len(dataset) - 1)
    val_idx = set(order[:n_val].tolist())
    train = [dataset[i] for i in range(len(dataset)) if i not in val_idx]
    val = [dataset[i] for i in sorted(val_idx)]
    return train, val


def _physical_bytes() -> int | None:
    """The machine's physical memory; None where sysconf is missing."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name on this platform
        return None


# Training holds each parameter five times in float32: weights, gradient, Adam m and v, and the
# last-good copy. Adam gathers gradients one block at a time, into scratch of `_ADAM_BLOCK` elements.
_BYTES_PER_PARAM = 5 * 4


def _param_budget() -> int | None:
    """Parameter elements that fit in physical memory; None where sysconf is missing."""
    phys = _physical_bytes()
    return None if phys is None else phys // _BYTES_PER_PARAM


# Activation bytes of one line in a training step at width d: points * (24,000 + 80 * d) plus
# image columns (`render_width`) * 160 * d. Recipe: peak RSS of `batch_losses` then
# `ad.backward` on two synthetic lines, less the RSS with the model and Adam's moments built;
# lines of 8,192 points 4,096 px wide, of 2,048 points 4,096 px wide and of 8,192 points
# 1,094 px wide, each at d=64, 160 and 320 (from d=128 the image stream's sweep runs on the
# worker beside the trajectory stream's), each run in its own process on a 2-core x86-64 VM
# (OpenBLAS, one BLAS thread); a least-squares fit with its constants rounded up. The fit is
# within -0.1% and +14% of eight of the nine runs and 34% over the d=64 run of 2,048-point
# lines. A line at MAX_POINTS and MAX_WIDTH takes 0.57 GB at d=320, a batch of 8 of them
# 4.6 GB. One constant per point and unit of d would not do: measured, the bytes per point
# per unit of d are 2.3 times higher at d=64 than at d=320, and 2.1 times higher for lines of
# 2,048 points than of 8,192 at the same width.
_STEP_BYTES_PER_POINT, _STEP_BYTES_PER_POINT_D, _STEP_BYTES_PER_COLUMN_D = 24_000, 80, 160


def _step_bytes(lines, batch_size: int, d: int) -> int:
    """Activation bytes of a training step over the `batch_size` lines that need the most."""
    need = sorted((seq.length * (_STEP_BYTES_PER_POINT + _STEP_BYTES_PER_POINT_D * d)
                   + render_width(seq.points[:, 0].max()) * _STEP_BYTES_PER_COLUMN_D * d for seq in lines),
                  reverse=True)
    return sum(need[:batch_size])


def train(dataset, enc_cfg: EncoderConfig, align_cfg: AlignConfig, cfg: TrainConfig,
          vocab: Vocabulary, out_dir=None, quiet: bool = True) -> TrainResult:
    """Run the collaborative loop; returns the model plus the JSONL records."""
    cfg.validate()
    if not dataset:
        raise DataError("train: empty dataset")
    ss = np.random.SeedSequence(cfg.seed)
    shuffle_rng, aug_rng = [np.random.default_rng(c) for c in ss.spawn(2)]

    base = [normalize(seq) for seq in dataset]
    train_set, val_set = split_train_val(base, cfg.val_fraction, shuffle_rng)
    if val_set and not any(s.text for s in val_set):
        raise DataError(f"the validation split ({len(val_set)} lines) has no reference characters "
                        f"to score a CER against")
    try:
        model = Recognizer(enc_cfg, align_cfg, vocab, seed=cfg.seed,
                           store=ParamStore(np.random.default_rng(cfg.seed), budget=_param_budget()))
    except ValueError as e:  # a config error, or a model larger than the budget
        raise ConfigError(str(e)) from e
    phys = _physical_bytes()
    if phys is not None:
        need = _step_bytes(train_set, cfg.batch_size, enc_cfg.d)
        params = _BYTES_PER_PARAM * sum(p.data.size for p in model.params.values())
        if need + params > phys:
            raise ConfigError(f"a training step over the {min(cfg.batch_size, len(train_set))} largest lines at "
                              f"d={enc_cfg.d} needs about {need / 2**30:.1f} GB of activations beside "
                              f"{params / 2**30:.1f} GB for the parameters, more than the {phys / 2**30:.1f} GB "
                              f"of physical memory; lower training.batch_size or encoder.d, or shorten the lines")

    steps_per_epoch = max(1, -(-len(train_set) // cfg.batch_size))
    if cfg.max_steps is not None:
        total_steps = cfg.max_steps
        epochs = -(-cfg.max_steps // steps_per_epoch)
    else:
        total_steps = cfg.epochs * steps_per_epoch
        epochs = cfg.epochs

    adam = AdamState(model.params)
    records: list[dict] = []
    result = TrainResult(model=model)
    log_fh = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        result.checkpoint_path = out_dir / "model.ckpt"
        result.log_path = out_dir / "train_log.jsonl"
        log_fh = open(result.log_path, "w", encoding="utf-8")

    def emit(rec: dict):
        records.append(rec)
        if log_fh is not None:
            log_fh.write(json.dumps(rec, sort_keys=True) + "\n")
            log_fh.flush()
        if not quiet:
            print(json.dumps(rec, sort_keys=True))

    step = 0
    last_good: dict[str, np.ndarray] | None = None

    def diverge(message: str):
        """Restore the last parameters that gave a finite loss, save them, and abort."""
        if last_good is not None:
            for name, values in last_good.items():
                model.params[name].data = values
        if result.checkpoint_path is not None:
            save_checkpoint(model, result.checkpoint_path)
        raise DivergenceError(message)

    try:
        for epoch in range(epochs):
            order = shuffle_rng.permutation(len(train_set))
            for lo in range(0, len(order), cfg.batch_size):
                if step >= total_steps:
                    break
                batch = []
                for i in order[lo:lo + cfg.batch_size]:
                    seq = train_set[i]
                    if cfg.augment:
                        seq = augment(seq, cfg.augment_fraction, cfg.augment_magnitude, aug_rng)
                    batch.append(seq)
                total, comps = batch_losses(model, batch, cfg.align_weight)
                if not np.isfinite(total.data):
                    bad = [k for k, v in comps.items() if v is not None and not np.isfinite(v.data)]
                    diverge(f"non-finite loss at step {step} (components: {bad or ['total']})")
                # these params produced a finite loss; keep them as last-good
                last_good = {name: p.data.copy() for name, p in model.params.items()}
                ad.zero_grads(model.params.values())
                ad.backward(total)
                grad_norm = ad.clip_grads(model.params, cfg.grad_clip)
                if not math.isfinite(grad_norm):
                    diverge(f"non-finite gradient norm at step {step}")
                lr = ad.cosine_lr(step, total_steps, cfg.lr_max, cfg.lr_min)
                ad.adam_step(model.params, adam, lr)
                step += 1
                align_val = comps.get("align")
                emit({
                    "step": step,
                    "lr": lr,
                    "L_1d": float(comps["traj"].data),
                    "L_2d": float(comps["img"].data),
                    "L_align": float(align_val.data) if align_val is not None else 0.0,
                    "L_all": float(total.data),
                    "grad_norm": grad_norm,
                    "clipped": grad_norm > cfg.grad_clip > 0,  # clip_grads' own rule
                })
                # the step's graph, every activation and node gradient, goes now, not once the next
                # step's forward has returned
                del total, comps, align_val
            if val_set:
                refs = [s.text for s in val_set]
                hyps = [model.infer_text(s) for s in val_set]
                emit({"epoch": epoch + 1, "step": step, "val_cer": metrics.cer(refs, hyps)})
            if result.checkpoint_path is not None:
                save_checkpoint(model, result.checkpoint_path)
            if step >= total_steps:
                break
    finally:
        if log_fh is not None:
            log_fh.close()
    result.records = records
    return result


def evaluate(model: Recognizer, dataset, max_decode_len: int = MAX_DECODE_LEN) -> dict:
    """Single-stream inference over a dataset, reported as the metrics JSON."""
    refs = [seq.text for seq in dataset]
    if not any(refs):  # an empty dataset included
        raise DataError(f"evaluate: no reference characters to score a CER against ({len(refs)} lines)")
    hyps = [model.infer_text(normalize(seq), max_len=max_decode_len) for seq in dataset]
    return metrics.report(refs, hyps)


# ---------------------------------------------------------------------------
# checkpoint format: one JSON header line (config, vocab, manifest), an
# 8-byte little-endian payload length equal to the bytes that follow it, then
# raw little-endian float32 data. Each transformer layer packs its attention
# projections into one tensor, align.l0.attn.w_qkv (d, 3d): column blocks
# [q | k | v], heads as column blocks inside each. Each BiGRU layer packs
# both directions into four tensors, for example traj_gru.l0.w_x (forward
# gate blocks, then backward), and the decoders' GRU cells keep their packed
# w_x, w_h, b_x, b_h. Each trajectory conv weight, traj_conv.l{i}.w, is a
# one-row kernel (1, K, C_in, C_out). Version 8 holds version 7's payload
# and manifest under a header whose alignment section names its ablation row,
# alignment.variant, in place of the four toggles use_transformer, use_rope,
# use_align_loss and use_stop_gradient. Version 7 holds version 6's payload
# bytes; only those six manifest shapes gained their leading 1. Version 6
# held version 5's payload under a header without the four shape keys that
# became constants (encoder.conv1d_spec and cnn2d_blocks, alignment.ff_mult
# and rope_base).


def save_checkpoint(model: Recognizer, path) -> None:
    """Write the checkpoint to a sibling temp file, then move it over `path`.

    Each tensor's buffer goes to the file as it is (a float32 parameter on a
    little-endian host is not copied). A write that fails part-way leaves any
    previous file at `path` intact.
    """
    path = Path(path)
    manifest = []
    tensors = []
    offset = 0
    for name, p in model.params.items():
        arr = np.ascontiguousarray(p.data, dtype="<f4")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        tensors.append(arr)
        offset += arr.size
    header = {
        "version": CHECKPOINT_VERSION,
        "encoder": dataclasses.asdict(model.enc_cfg),
        "alignment": dataclasses.asdict(model.align_cfg),
        "seed": model.seed,
        "vocab": list(model.vocab.symbols),
        "manifest": manifest,
    }
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            fh.write(struct.pack("<Q", 4 * offset))
            for arr in tensors:
                fh.write(arr)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_header(header, path) -> None:
    """Reject a header whose keys, version or field types do not match the format."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    unknown = set(header) - set(HEADER_KEYS)
    if unknown:
        raise CheckpointError(f"{path}: unknown header keys {sorted(unknown)}")
    missing = [k for k in HEADER_KEYS if k not in header]
    if missing:
        raise CheckpointError(f"{path}: missing header keys {missing}")
    if not _is_int(header["version"]) or header["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {header['version']} "
                              f"(this build reads version {CHECKPOINT_VERSION})")
    for key, cls in (("encoder", EncoderConfig), ("alignment", AlignConfig)):
        if not isinstance(header[key], dict):
            raise CheckpointError(f"{path}: {key}: expected an object")
        # unlike a config file's, every field: a default variant would fit the same parameters
        missing = [f.name for f in dataclasses.fields(cls) if f.name not in header[key]]
        if missing:
            raise CheckpointError(f"{path}: {key}: missing keys {missing}")
    if not _is_int(header["seed"]) or header["seed"] < 0:
        raise CheckpointError(f"{path}: seed must be a non-negative integer")
    vocab = header["vocab"]
    if not isinstance(vocab, list) or not all(isinstance(s, str) for s in vocab):
        raise CheckpointError(f"{path}: vocab must be a list of strings")
    manifest = header["manifest"]
    if not isinstance(manifest, list):
        raise CheckpointError(f"{path}: manifest must be a list")
    for i, m in enumerate(manifest):
        if not (isinstance(m, dict) and set(m) == {"name", "shape", "offset"}
                and isinstance(m["name"], str) and _is_int(m["offset"])
                and isinstance(m["shape"], list)
                and all(_is_int(n) and n >= 0 for n in m["shape"])):
            raise CheckpointError(f"{path}: manifest entry {i} needs a name, a shape and an offset")


def load_checkpoint(path) -> Recognizer:
    """The model a checkpoint describes, with its parameters read from the payload.

    Every check runs before a payload byte is read: the header, the length
    prefix against the manifest's element total and the bytes left in the
    file (which it must equal), and the manifest's names, offsets and shapes
    against the model. The model is built on a store that draws no initial
    values and hands out no more elements than the manifest holds, so a
    header cannot make the load allocate past what the file holds. Each
    parameter then reads its own bytes into its own array.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (ValueError, RecursionError) as e:  # bad JSON, not UTF-8, too many digits or too deep
            raise CheckpointError(f"{path}: bad header") from e
        _check_header(header, path)
        manifest = header["manifest"]
        total = 0
        for m in manifest:
            if m["offset"] != total:
                raise CheckpointError(f"{path}: bad offset for {m['name']}")
            total += math.prod(m["shape"])
        lenbytes = fh.read(8)
        if len(lenbytes) != 8:
            raise CheckpointError(f"{path}: truncated length prefix")
        (payload_len,) = struct.unpack("<Q", lenbytes)
        if payload_len != 4 * total:
            raise CheckpointError(f"{path}: payload length {payload_len} bytes does not match "
                                  f"the manifest's {total} float32 values")
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload_len > left:
            raise CheckpointError(f"{path}: truncated payload")
        if payload_len < left:
            raise CheckpointError(f"{path}: {left - payload_len} bytes follow the payload")
        try:
            model = Recognizer(encoder_config_from_dict(header["encoder"]),
                               align_config_from_dict(header["alignment"]),
                               Vocabulary.from_symbols(header["vocab"]), seed=header["seed"],
                               store=ParamStore(budget=total))
        except ValueError as e:  # config, vocabulary, or a model larger than the manifest
            raise CheckpointError(f"{path}: {e}") from e
        if [m["name"] for m in manifest] != list(model.params):
            raise CheckpointError(f"{path}: manifest does not match the model parameter set")
        for m, p in zip(manifest, model.params.values()):
            if list(p.data.shape) != m["shape"]:
                raise CheckpointError(f"{path}: shape mismatch for {m['name']}")
        for p in model.params.values():
            if fh.readinto(memoryview(p.data).cast("B")) != p.data.nbytes:
                raise CheckpointError(f"{path}: truncated payload")
            if sys.byteorder == "big":
                p.data.byteswap(inplace=True)
    return model


def zero_image_stream(model: Recognizer) -> None:
    """Blank every image-stream parameter (inference-isolation probe)."""
    for name, p in model.params.items():
        if name.startswith(IMAGE_PREFIXES):
            p.data = np.zeros_like(p.data)
