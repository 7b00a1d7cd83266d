"""Synthetic stroke-text generator.

Each symbol owns a fixed polyline glyph on the unit box (y grows downward,
like image rows). Glyphs are laid out left to right with small jitter, so
symbol identity stays recoverable from geometry and the recognition task is
learnable at desk scale.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import ConfigError
from .data import TrajectorySequence

# Polyline strokes per symbol, unit box coordinates (x right, y down).
GLYPH_STROKES: dict[str, tuple[tuple[tuple[float, float], ...], ...]] = {
    "a": (((0.0, 1.0), (0.5, 0.0), (1.0, 1.0)), ((0.25, 0.55), (0.75, 0.55))),
    "b": (((0.0, 0.0), (0.0, 1.0)), ((0.0, 0.5), (1.0, 0.5), (1.0, 1.0), (0.0, 1.0))),
    "c": (((1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (1.0, 1.0)),),
    "d": (((1.0, 0.0), (1.0, 1.0)), ((1.0, 0.5), (0.0, 0.5), (0.0, 1.0), (1.0, 1.0))),
    "e": (((1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (1.0, 1.0)), ((0.0, 0.5), (0.7, 0.5))),
    "f": (((0.0, 1.0), (0.0, 0.0), (1.0, 0.0)), ((0.0, 0.5), (0.7, 0.5))),
    "g": (((1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.6), (0.55, 0.6)),),
    "h": (((0.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (1.0, 1.0)), ((0.0, 0.5), (1.0, 0.5))),
    "i": (((0.5, 0.0), (0.5, 1.0)), ((0.2, 0.0), (0.8, 0.0)), ((0.2, 1.0), (0.8, 1.0))),
    "j": (((1.0, 0.0), (1.0, 1.0), (0.4, 1.0), (0.0, 0.75)),),
    "k": (((0.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.0, 0.5), (1.0, 1.0))),
    "l": (((0.0, 0.0), (0.0, 1.0), (1.0, 1.0)),),
    "m": (((0.0, 1.0), (0.0, 0.0), (0.5, 0.6), (1.0, 0.0), (1.0, 1.0)),),
    "n": (((0.0, 1.0), (0.0, 0.0), (1.0, 1.0), (1.0, 0.0)),),
    "o": (((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)),),
    "p": (((0.0, 1.0), (0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.0, 0.5)),),
}

DEFAULT_ALPHABET = "abcdefghi"

GLYPH_STEP = 0.18      # largest gap between resampled template points, unit box
GLYPH_SIZE = 24.0      # glyph box side, px
ADVANCE = 1.2          # glyph pitch, in glyph sizes
GLYPH_JITTER = 0.05    # uniform glyph offset per axis, in glyph sizes
POINT_JITTER = 0.012   # Gaussian point noise, in glyph sizes
# Longest line, in glyphs. `normalize` makes a glyph about 35 px wide, so 100 glyphs render
# under data.MAX_WIDTH (4096 px).
MAX_GLYPHS = 100


def _resample(stroke, step: float) -> np.ndarray:
    """Subdivide a polyline so consecutive points are at most `step` apart."""
    verts = np.asarray(stroke, dtype=np.float64)
    out = [verts[0]]
    for a, b in zip(verts[:-1], verts[1:]):
        dist = float(np.hypot(*(b - a)))
        n = max(1, int(np.ceil(dist / step)))
        for i in range(1, n + 1):
            out.append(a + (b - a) * (i / n))
    return np.asarray(out)


@functools.cache
def _glyph_template(ch: str) -> tuple[np.ndarray, ...]:
    """The resampled strokes of a glyph, made once and shared, so read only."""
    strokes = tuple(_resample(s, GLYPH_STEP) for s in GLYPH_STROKES[ch])
    for stroke in strokes:
        stroke.flags.writeable = False
    return strokes


def synth_lines(alphabet: str, n: int, rng: np.random.Generator,
                length_range: tuple[int, int] = (2, 4),
                id_prefix: str = "synth"):
    """Check the arguments, then return an iterator over `n` sequences, each generated when asked for.

    Transcripts are uniform random over `alphabet`. Each stroke is preceded
    by a pen-up travel point at its start, so rendering never connects
    strokes or glyphs.
    """
    if not alphabet:
        raise ConfigError("empty glyph alphabet")
    for ch in alphabet:
        if ch not in GLYPH_STROKES:
            raise ConfigError(f"no glyph template for {ch!r}")
    if n < 0:
        raise ConfigError(f"sequence count must be >= 0, got {n}")
    lo, hi = length_range
    if not 1 <= lo <= hi:
        raise ConfigError(f"bad length range {length_range}")
    if hi > MAX_GLYPHS:
        raise ConfigError(f"lines of up to {hi} glyphs requested, at most {MAX_GLYPHS} are allowed")
    symbols = list(alphabet)
    return (_synth_line(symbols, rng, lo, hi, f"{id_prefix}-{i:06d}") for i in range(n))


def _synth_line(symbols: list[str], rng: np.random.Generator, lo: int, hi: int, sid: str) -> TrajectorySequence:
    length = int(rng.integers(lo, hi + 1))
    chars = [symbols[int(j)] for j in rng.integers(0, len(symbols), size=length)]
    blocks = []
    for k, ch in enumerate(chars):
        ox = (k * ADVANCE + rng.uniform(-GLYPH_JITTER, GLYPH_JITTER)) * GLYPH_SIZE
        oy = rng.uniform(-GLYPH_JITTER, GLYPH_JITTER) * GLYPH_SIZE
        for stroke in _glyph_template(ch):
            pts = stroke * GLYPH_SIZE
            pts = pts + rng.normal(0.0, POINT_JITTER * GLYPH_SIZE, size=pts.shape)
            pts[:, 0] += ox
            pts[:, 1] += oy
            block = np.empty((len(pts) + 1, 3))  # the pen-up travel point, then the stroke pen-down
            block[0] = (pts[0, 0], pts[0, 1], 0.0)
            block[1:, :2] = pts
            block[1:, 2] = 1.0
            blocks.append(block)
    return TrajectorySequence(id=sid, points=np.concatenate(blocks), text="".join(chars))


def synth_generate(alphabet: str, n: int, rng: np.random.Generator,
                   length_range: tuple[int, int] = (2, 4),
                   id_prefix: str = "synth") -> list[TrajectorySequence]:
    """`synth_lines` as a list."""
    return list(synth_lines(alphabet, n, rng, length_range, id_prefix))
