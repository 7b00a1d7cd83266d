"""Point-to-spatial alignment: position-aware self-attention over trajectory
frames, point-level sampling of image columns, and the feature-matching loss.

The 2D position embedding is sinusoidal at rotary-style geometric
frequencies and is ADDED to the conv features (the first d/2 lanes encode
px, the last d/2 encode py). Sampling interpolates image-encoder columns at
each trajectory frame's pixel position; the loss pulls the aligned features
toward those (optionally gradient-stopped) samples. Each takes a batch's
(B, T, ·) features with per-line frame counts and the image stack's joined
columns; a lone line is a batch of one.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DiffArray
from .config import AlignConfig
from .encoders import FeatureSequence
from .layers import ParamStore, TransformerLayer

IMAGE_STRIDE_W = 8
ROPE_BASE = 10000.0


def rope2d(positions: np.ndarray, d: int) -> np.ndarray:
    """Sinusoidal 2D embedding, (..., 2) pixel positions -> (..., d).

    Within each axis half, pair j holds (cos t, sin t) with
    t = pos / ROPE_BASE**(j / (d/4)), so every pair has unit norm and changing
    one coordinate leaves the other axis's half bit-identical.
    """
    if d % 4 != 0:
        raise ValueError(f"embedding width must be divisible by 4, got {d}")
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim < 1 or positions.shape[-1] != 2:
        raise ValueError(f"positions must be (..., 2), got {positions.shape}")
    quarter = d // 4
    inv = ROPE_BASE ** (-(np.arange(quarter) / quarter))
    ang = positions[..., None] * inv  # (..., axis, pair)
    out = np.empty((*positions.shape, quarter, 2), dtype=np.float64)
    out[..., 0] = np.cos(ang)
    out[..., 1] = np.sin(ang)
    return out.reshape(*positions.shape[:-1], d)


class SpatialAligner:
    """Maps point-level conv features toward image-level spatial features.

    With use_transformer off the module owns no parameters and forwards the
    (optionally position-tagged) input unchanged; with all toggles off the
    model skips it entirely.
    """

    def __init__(self, store: ParamStore, name: str, d: int, cfg: AlignConfig):
        self.store = store
        self.d = d
        self.cfg = cfg
        self.layers = []
        if cfg.use_transformer:
            for i in range(cfg.layers):
                self.layers.append(TransformerLayer(store, f"{name}.l{i}", d, cfg.heads))

    def __call__(self, feat: FeatureSequence, attn_sink: list | None = None) -> DiffArray:
        """A batch's (B, T, d) features -> (B, T, d), attending within each line's frames."""
        x = feat.values
        if self.cfg.use_rope:
            x = ad.add(x, self.store.const(rope2d(feat.positions, self.d)))
        for layer in self.layers:
            x = layer(x, feat.frames, attn_sink)
        return x


def sample_image_columns(f2d_conv: DiffArray, positions: np.ndarray, starts, frames) -> DiffArray:
    """Point-level sampling of a batch's joined image-encoder columns at trajectory positions.

    Column coordinate is px / 8 (the image stack's width stride); rows are
    linearly interpolated along the width axis and the result is
    differentiable w.r.t. the image features. The joined columns of all the
    batch's images (see `encoders.Joined`) are sampled at (B, T, 2)
    positions: line b's columns are offset by starts[b] and its coordinate
    is clamped within its own frames[b] columns.
    """
    cols = np.asarray(positions, dtype=np.float64)[..., 0] / IMAGE_STRIDE_W
    cols = np.clip(cols, 0.0, np.asarray(frames)[:, None] - 1.0) + np.asarray(starts)[:, None]
    return ad.interp_rows(f2d_conv, cols)


def align_loss(f_aligned: DiffArray, f_sampled: DiffArray, frames, stop_grad: bool = True) -> DiffArray:
    """Mean squared error between a batch's aligned features and image samples, (B, T, d) each.

    `frames` (B,) makes it the mean over lines of each line's own loss.
    With stop_grad the image branch is a fixed target; without it the loss
    also backpropagates into the image encoder.
    """
    target = ad.stop_gradient(f_sampled) if stop_grad else f_sampled
    return ad.mse(f_aligned, target, frames)


def merge_features(f_conv: DiffArray, f_aligned: DiffArray | None) -> DiffArray:
    """Elementwise sum feeding the trajectory BiGRU (identity when absent)."""
    if f_aligned is None:
        return f_conv
    return ad.add(f_conv, f_aligned)
