"""Trajectory-stream and image-stream encoders.

Both streams end at width d on their own frame clock: the trajectory stack
downsamples time by 8 (frames = ceil(T/8)), the image stack collapses the
32-pixel height entirely and downsamples width by 8 (frames = W/8). The two
clocks are what the point-to-spatial sampling aligns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffArray
from .config import EncoderConfig
from .data import IMAGE_HEIGHT, TrajectorySequence
from .layers import ParamStore

COORD_SCALE = 1.0 / 32.0  # conv input conditioning; py lands in [0, 1]
# (channels, kernel, stride) of the trajectory stack's first five layers; a last
# (d, 3, 2) layer follows, so the strides multiply to 8
TRAJ_CONV_LADDER = ((64, 3, 1), (64, 3, 2), (128, 3, 1), (128, 3, 2), (256, 3, 1))


@dataclass
class FeatureSequence:
    """Time-major trajectory-stream features, frames x d.

    `positions` (frames x 2 pixel coordinates) feeds the position embedding
    and the image-column sampling.
    """

    values: DiffArray
    positions: np.ndarray


class Conv1dStack:
    def __init__(self, store: ParamStore, name: str, in_channels: int, spec):
        self.spec = spec
        self.weights = []
        self.biases = []
        for i, (cout, k, _) in enumerate(self.spec):
            self.weights.append(store.new(f"{name}.l{i}.w", (k, in_channels, cout), "he"))
            self.biases.append(store.new(f"{name}.l{i}.b", (cout,), "zeros"))
            in_channels = cout

    def __call__(self, x: DiffArray) -> DiffArray:
        for (_, k, s), w, b in zip(self.spec, self.weights, self.biases):
            x = ad.relu(ad.conv1d(x, w, b, stride=s, pad=(k - 1) // 2))
        return x


def pad_to_multiple(points: np.ndarray, multiple: int = 8) -> np.ndarray:
    """Right-pad by repeating the last point with the pen lifted."""
    t = points.shape[0]
    rem = t % multiple
    if rem == 0:
        return points
    pad = np.repeat(points[-1:], multiple - rem, axis=0)
    pad[:, 2] = 0.0
    return np.concatenate([points, pad], axis=0)


class TrajectoryEncoder:
    """6-layer strided conv stack over the raw (px, py, s) signal."""

    def __init__(self, store: ParamStore, name: str, cfg: EncoderConfig):
        self.store = store
        self.conv = Conv1dStack(store, name, 3, (*TRAJ_CONV_LADDER, (cfg.d, 3, 2)))

    def __call__(self, seq: TrajectorySequence) -> FeatureSequence:
        if seq.length < 2:
            raise ValueError(f"{seq.id}: need at least 2 points, got {seq.length}")
        pts = pad_to_multiple(np.asarray(seq.points, dtype=np.float64))
        frames = pts.shape[0] // 8
        feats = pts.copy()
        feats[:, :2] *= COORD_SCALE
        out = self.conv(self.store.const(feats))
        positions = pts[:, :2].reshape(frames, 8, 2).mean(axis=1)
        return FeatureSequence(values=out, positions=positions)


class ResidualBlock:
    """Two 3x3 convs plus a strided 1x1 projection shortcut (every block changes the stride)."""

    def __init__(self, store: ParamStore, name: str, cin: int, cout: int, stride):
        self.stride = tuple(stride)
        self.w1 = store.new(f"{name}.conv1.w", (3, 3, cin, cout), "he")
        self.b1 = store.new(f"{name}.conv1.b", (cout,), "zeros")
        self.w2 = store.new(f"{name}.conv2.w", (3, 3, cout, cout), "he")
        self.b2 = store.new(f"{name}.conv2.b", (cout,), "zeros")
        self.wp = store.new(f"{name}.proj.w", (1, 1, cin, cout), "he")

    def __call__(self, x: DiffArray) -> DiffArray:
        y = ad.relu(ad.conv2d(x, self.w1, self.b1, stride=self.stride, pad=(1, 1)))
        y = ad.conv2d(y, self.w2, self.b2, stride=(1, 1), pad=(1, 1))
        short = ad.conv2d(x, self.wp, None, stride=self.stride, pad=(0, 0))
        return ad.relu(ad.add(y, short))


class ImageEncoder:
    """Residual CNN with total stride (32, 8) ending at width d.

    Stem 3x3 stride (2,1), then four stages of one residual block each, at
    strides (2,2),(2,2),(2,2),(2,1) with a channel ladder d/8, d/4, d/2, d.
    """

    STAGE_STRIDES = ((2, 2), (2, 2), (2, 2), (2, 1))

    def __init__(self, store: ParamStore, name: str, cfg: EncoderConfig):
        d = cfg.d
        self.store = store
        stem = d // 8
        self.stem_w = store.new(f"{name}.stem.w", (3, 3, 1, stem), "he")
        self.stem_b = store.new(f"{name}.stem.b", (stem,), "zeros")
        self.blocks = []
        cin = stem
        for si, (cout, stride) in enumerate(zip((d // 8, d // 4, d // 2, d), self.STAGE_STRIDES)):
            self.blocks.append(ResidualBlock(store, f"{name}.s{si}.b0", cin, cout, stride))
            cin = cout

    def __call__(self, img: np.ndarray) -> DiffArray:
        h, w = img.shape
        if h != IMAGE_HEIGHT:
            raise ValueError(f"image height must be {IMAGE_HEIGHT}, got {h}")
        if w % 8 != 0 or w < 8:
            raise ValueError(f"image width must be a positive multiple of 8, got {w}")
        x = self.store.const(img[:, :, None])
        x = ad.relu(ad.conv2d(x, self.stem_w, self.stem_b, stride=(2, 1), pad=(1, 1)))
        for block in self.blocks:
            x = block(x)
        # height is fully collapsed here: (1, W/8, d) -> (W/8, d)
        return ad.squeeze_lead(x)
