"""Trajectory-stream and image-stream encoders.

Both streams end at width d on their own frame clock: the trajectory stack
downsamples time by 8 (frames = ceil(T/8)), the image stack collapses the
32-pixel height entirely and downsamples width by 8 (frames = W/8). The two
clocks are what the point-to-spatial sampling aligns.

Each stack runs a batch's lines as one input: the lines' padded points, or
their images, are joined along time or width with `GAP` zero rows or
columns between consecutive lines, so every layer is one node: a
convolution that applies its own relu, or a whole residual block
(`ad.residual_block`). Every such node zeroes the gap again, by index, in
its relu, so a line's edge reads zeros, as its own zero padding would give
it, and each line's output equals the stack's output on the line alone.
`Joined` records where each line's frames lie. Every stack's output is a
batch: a lone line is a batch of one, with no gap and no mask.
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
# Zero points or pixel columns between two joined lines: the total stride of either stack, so every
# line starts on a frame boundary of every layer and each gap ends as one zero frame.
GAP = 8


@dataclass
class Joined:
    """A batch's features joined along their frame axis: line b holds rows starts[b] : starts[b] + frames[b].

    `values` is (1, rows, d), as both stacks leave it; the rows between two
    lines are zero.
    """

    values: DiffArray
    starts: np.ndarray
    frames: np.ndarray

    def padded(self) -> DiffArray:
        """The lines as one zero-padded (B, max frames, d) batch: one `gather_rows` node.

        A lone line fills every row, so `values` already is its batch of one.
        """
        if len(self.frames) == 1:
            return self.values
        t = np.arange(self.frames.max())
        return ad.gather_rows(self.values, np.where(t < self.frames[:, None], self.starts[:, None] + t, -1))


def _join(parts: list[np.ndarray], axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Arrays laid end to end along `axis`, `GAP` zeros between consecutive ones.

    Returns the joined array, each part's start along `axis` and the
    (joined length,) mask of the entries that belong to a part; the mask is
    None for one part, which has no gap.
    """
    sizes = [p.shape[axis] for p in parts]
    starts = [0]
    for n in sizes[:-1]:
        starts.append(starts[-1] + n + GAP)
    shape = list(parts[0].shape)
    shape[axis] = starts[-1] + sizes[-1]
    out = np.zeros(shape, dtype=parts[0].dtype)
    live = np.zeros(shape[axis], dtype=bool) if len(parts) > 1 else None
    for p, lo, n in zip(parts, starts, sizes):
        out[(slice(None),) * axis + (slice(lo, lo + n),)] = p
        if live is not None:
            live[lo:lo + n] = True
    return out, np.array(starts), live


def _gaps(live: np.ndarray | None, stride: int) -> np.ndarray | None:
    """The gap indices after a layer of this stride along the joined axis, as the kernels' `gaps`."""
    return None if live is None else np.flatnonzero(~live[::stride])


@dataclass
class FeatureSequence:
    """Time-major trajectory-stream features of a batch, (B, T, d); a lone line is a batch of one.

    `positions`, (B, T, 2) pixel coordinates, feed the position embedding
    and the image-column sampling. `frames` (B,) gives each line's frame
    count; its rows past that are zero.
    """

    values: DiffArray
    positions: np.ndarray
    frames: np.ndarray


class Conv1dStack:
    def __init__(self, store: ParamStore, name: str, in_channels: int, spec):
        self.spec = spec
        self.weights = []
        self.biases = []
        for i, (cout, k, _) in enumerate(self.spec):
            self.weights.append(store.new(f"{name}.l{i}.w", (k, in_channels, cout), "he"))
            self.biases.append(store.new(f"{name}.l{i}.b", (cout,), "zeros"))
            in_channels = cout

    def __call__(self, x: DiffArray, live: np.ndarray | None = None) -> DiffArray:
        """x (1, L, C_in) -> (1, L_out, C_out); `live` (L,), when given, is False on the gaps every layer zeroes."""
        for (_, k, s), w, b in zip(self.spec, self.weights, self.biases):
            x = ad.conv1d(x, w, b, stride=s, pad=(k - 1) // 2, relu=True, gaps=_gaps(live, s))
            live = None if live is None else live[::s]
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
        """One line as a batch of one: (1, frames, d) features and (1, frames, 2) positions."""
        return self.batch([seq])

    def batch(self, batch: list[TrajectorySequence]) -> FeatureSequence:
        """A batch of lines as one zero-padded (B, T, d) batch, with (B, T, 2) positions and per-line frames."""
        joined, positions = self.join(batch)
        padded = np.zeros((len(batch), joined.frames.max(), 2))
        for row, p in zip(padded, positions):
            row[:len(p)] = p
        return FeatureSequence(values=joined.padded(), positions=padded, frames=joined.frames)

    def join(self, batch: list[TrajectorySequence]) -> tuple[Joined, list[np.ndarray]]:
        """One conv stack run over the batch's lines joined along time; also each line's (frames, 2) positions.

        Every line is checked before the stack runs; a line of fewer than 2
        points raises ValueError naming its id.
        """
        for seq in batch:
            if seq.length < 2:
                raise ValueError(f"{seq.id}: need at least 2 points, got {seq.length}")
        pts = [pad_to_multiple(np.asarray(seq.points, dtype=np.float64)) for seq in batch]
        feats, starts, live = _join(pts, 0)
        feats[:, :2] *= COORD_SCALE
        out = self.conv(self.store.const(feats[None]), live)
        positions = [p[:, :2].reshape(-1, 8, 2).mean(axis=1) for p in pts]
        return Joined(out, starts // 8, np.array([len(p) for p in positions])), positions


class ResidualBlock:
    """Two 3x3 convs plus a strided 1x1 projection shortcut (every block changes the stride), one graph node."""

    def __init__(self, store: ParamStore, name: str, cin: int, cout: int, stride):
        self.stride = tuple(stride)
        self.w1 = store.new(f"{name}.conv1.w", (3, 3, cin, cout), "he")
        self.b1 = store.new(f"{name}.conv1.b", (cout,), "zeros")
        self.w2 = store.new(f"{name}.conv2.w", (3, 3, cout, cout), "he")
        self.b2 = store.new(f"{name}.conv2.b", (cout,), "zeros")
        self.wp = store.new(f"{name}.proj.w", (1, 1, cin, cout), "he")

    def __call__(self, x: DiffArray, live: np.ndarray | None = None) -> DiffArray:
        """`live`, when given, marks the input columns that belong to a line; both relus zero the rest."""
        return ad.residual_block(x, self.w1, self.b1, self.w2, self.b2, self.wp, self.stride,
                                 _gaps(live, self.stride[1]))


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

    def join(self, imgs: list[np.ndarray]) -> Joined:
        """One CNN run over the batch's images joined along the width; values (1, columns, d)."""
        for img in imgs:
            h, w = img.shape
            if h != IMAGE_HEIGHT:
                raise ValueError(f"image height must be {IMAGE_HEIGHT}, got {h}")
            if w % 8 != 0 or w < 8:
                raise ValueError(f"image width must be a positive multiple of 8, got {w}")
        pixels, starts, live = _join(imgs, 1)
        x = self.store.const(pixels[:, :, None])
        x = ad.conv2d(x, self.stem_w, self.stem_b, stride=(2, 1), pad=(1, 1), relu=True, gaps=_gaps(live, 1))
        for block in self.blocks:
            x = block(x, live)
            live = None if live is None else live[::block.stride[1]]
        # the height is fully collapsed here: (1, columns, d)
        return Joined(x, starts // 8, np.array([img.shape[1] // 8 for img in imgs]))
