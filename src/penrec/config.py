"""Dataclass configs for the model and training run.

Dict round-trips are strict: unknown keys are rejected and every value must
have its field's declared type, so config files and checkpoints cannot
silently drift.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


@dataclass
class EncoderConfig:
    """Shared width d and the depth of both BiGRU stacks.

    The conv stacks' shapes are fixed in `encoders`: the trajectory stack
    downsamples time by 8, and the image stack has total stride (32, 8), so
    height 32 collapses to one row. d must be divisible by 8 (position-
    embedding pairing needs d % 4 == 0; the image-stack channel ladder
    d/8 .. d needs d % 8 == 0).
    """

    d: int = 320
    gru_layers: int = 2

    def validate(self) -> None:
        if self.d <= 0 or self.d % 8 != 0:
            raise ConfigError(f"d must be a positive multiple of 8, got {self.d}")
        if self.gru_layers < 1:
            raise ConfigError("gru_layers must be >= 1")


@dataclass
class AlignConfig:
    """Point-to-spatial alignment settings and the four ablation toggles.

    All toggles off removes the module entirely (baseline single-stream
    trajectory encoder); use_transformer controls whether the module has
    any parameters at all.
    """

    layers: int = 3
    heads: int = 8
    use_transformer: bool = True
    use_rope: bool = True
    use_align_loss: bool = True
    use_stop_gradient: bool = True

    @property
    def enabled(self) -> bool:
        return self.use_transformer or self.use_rope or self.use_align_loss

    def validate(self, d: int) -> None:
        if self.layers < 1:
            raise ConfigError("alignment layers must be >= 1")
        if self.heads < 1 or d % (2 * self.heads) != 0:
            raise ConfigError(f"d={d} must be divisible by 2*heads={2 * self.heads}")


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 10
    max_steps: int | None = None
    lr_max: float = 2e-4
    lr_min: float = 2e-7
    align_weight: float = 2.0
    augment: bool = True
    augment_fraction: float = 0.2
    augment_magnitude: float = 1.0
    seed: int = 0
    grad_clip: float = 5.0
    val_fraction: float = 0.1

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 1 and self.max_steps is None:
            raise ConfigError("need epochs >= 1 or max_steps")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        if not (self.lr_max >= self.lr_min > 0):
            raise ConfigError(f"need lr_max >= lr_min > 0, got {self.lr_max}, {self.lr_min}")
        if self.align_weight < 0:
            raise ConfigError("align_weight must be >= 0")
        if not 0.0 <= self.augment_fraction <= 1.0:
            raise ConfigError("augment_fraction must be in [0, 1]")
        if not (self.augment_magnitude >= 0 and math.isfinite(2.0 * self.augment_magnitude)):
            # augment draws offsets from [-m, m], whose width 2m must be a finite double
            raise ConfigError(f"augment_magnitude must be >= 0 with 2 * augment_magnitude finite, "
                              f"got {self.augment_magnitude}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError("val_fraction must be in [0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass
class RunConfig:
    """Full configuration document for one experiment."""

    train_data: str | None = None
    out_dir: str | None = None
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    alignment: AlignConfig = field(default_factory=AlignConfig)
    training: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        self.encoder.validate()
        self.alignment.validate(self.encoder.d)
        self.training.validate()


def _has_type(value, tp) -> bool:
    """Whether a JSON value fits a field annotation; a bool is not an int, an int is a float.

    A float must be finite as a double: NaN, ±Infinity (which Python's json
    accepts) and ints beyond the double range are refused.
    """
    if typing.get_origin(tp) is types.UnionType:
        return any(_has_type(value, t) for t in typing.get_args(tp))
    if tp is float:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    if tp is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, tp)


def _from_dict(cls, raw: dict, where: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {type(raw).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - names
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if f.name in raw and not _has_type(raw[f.name], hints[f.name]):
            raise ConfigError(f"{where}.{f.name}: expected {f.type}, got {json.dumps(raw[f.name])}")
    return cls(**{f.name: raw[f.name] for f in dataclasses.fields(cls) if f.name in raw})


def encoder_config_from_dict(raw: dict) -> EncoderConfig:
    return _from_dict(EncoderConfig, raw, "encoder")


def align_config_from_dict(raw: dict) -> AlignConfig:
    return _from_dict(AlignConfig, raw, "alignment")


def train_config_from_dict(raw: dict) -> TrainConfig:
    return _from_dict(TrainConfig, raw, "training")


def run_config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    sections = {"encoder": encoder_config_from_dict, "alignment": align_config_from_dict,
                "training": train_config_from_dict}
    cfg = _from_dict(RunConfig, {k: sections[k](v) if k in sections else v for k, v in raw.items()},
                     "config")
    cfg.validate()
    return cfg


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # bad JSON, not UTF-8, too many digits or too deep
        raise ConfigError(f"{path}: invalid JSON ({getattr(e, 'msg', e)})") from e
    return run_config_from_dict(raw)
