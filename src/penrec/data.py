"""Pen-trajectory data model.

A sample is an ordered sequence of (px, py, s) points with s=1 meaning the
pen touches the surface at that instant, plus a transcript. Normalization
maps the bounding box to the fixed 32-pixel image height; rendering draws
1-pixel Bresenham segments between consecutive touching samples (pen-up
points are kept in the signal but never rasterized).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_HEIGHT = 32
# Points or pixel columns per frame: the trajectory stack's time stride and the image stack's width stride
FRAME = 8
# Widest normalized line, in px: far above real lines (synthetic lines of ten
# glyphs are about 350 px wide), and it caps a rendered image at 32 x 4104.
MAX_WIDTH = 4096
# Most points in a line. The aligner's self-attention is quadratic in frames (points / FRAME):
# peak RSS of one line's inference at d=320 (`infer_ids`, one decode step, 2-core x86-64 VM)
# is 77, 97, 172, 297 and 465 MB at 2k, 4k, 8k, 12k and 16k points, and a d=320 training
# step on one line of 8,192 points peaks at 654 MB, on two at 1,219 MB. Synthetic lines of
# synth.MAX_GLYPHS (100) glyphs have about 2,300 points.
MAX_POINTS = 8192

PAD, SOS, EOS = 0, 1, 2
RESERVED_SYMBOLS = ("\x00", "\x01", "\x02")


class DataError(ValueError):
    """Malformed dataset content."""


@dataclass
class TrajectorySequence:
    """Raw or normalized pen signal with its transcript.

    `points` is a (T, 3) float array of (px, py, s); s is 0 or 1.
    """

    id: str
    points: np.ndarray
    text: str

    @property
    def length(self) -> int:
        return self.points.shape[0]


def validate_sequence(seq: TrajectorySequence, where: str = "") -> None:
    pts = seq.points
    tag = f"{where}: " if where else ""
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DataError(f"{tag}points must be T x 3, got {pts.shape}")
    if pts.shape[0] < 2:
        raise DataError(f"{tag}need at least 2 points, got {pts.shape[0]}")
    if pts.shape[0] > MAX_POINTS:
        raise DataError(f"{tag}{pts.shape[0]} points, at most {MAX_POINTS} are allowed")
    if not np.all(np.isfinite(pts)):
        raise DataError(f"{tag}non-finite coordinate")
    # finite coordinates can still span more than a double holds (-1e308 .. 1e308)
    for axis, name in ((0, "px"), (1, "py")):
        if not math.isfinite(float(pts[:, axis].max()) - float(pts[:, axis].min())):
            raise DataError(f"{tag}{name} extent overflows")
    s = pts[:, 2]
    if not np.all((s == 0) | (s == 1)):
        raise DataError(f"{tag}pen state must be 0 or 1")


def _parse_record(line: str, where: str, require_text: bool) -> TrajectorySequence:
    """The validated sequence on one dataset line; `where` names the line in errors."""
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError) as e:  # also json's digit limit and nesting past the recursion limit
        raise DataError(f"{where}: invalid JSON ({getattr(e, 'msg', e)})") from e
    if not isinstance(rec, dict) or "id" not in rec or "points" not in rec:
        raise DataError(f"{where}: expected object with id/points/text fields")
    if require_text and "text" not in rec:
        raise DataError(f"{where}: missing text field")
    if not isinstance(rec["id"], str):
        raise DataError(f"{where}: id must be a string, got {json.dumps(rec['id'])}")
    rows = rec["points"]
    # JSON numbers only: numpy would read the string "1e1" as 10.0 and true as 1.0
    if not (isinstance(rows, list)
            and all(isinstance(row, list) and all(type(v) in (int, float) for v in row) for row in rows)):
        raise DataError(f"{where}: points must be a list of [px, py, s] rows of JSON numbers")
    try:
        pts = np.asarray(rows, dtype=np.float64)
    except (ValueError, OverflowError) as e:  # rows of unequal length; an integer beyond the double range
        raise DataError(f"{where}: bad points array") from e
    text = rec.get("text", "")
    if not isinstance(text, str):
        raise DataError(f"{where}: text must be a string, got {json.dumps(text)}")
    seq = TrajectorySequence(id=rec["id"], points=pts, text=text)
    validate_sequence(seq, where)
    return seq


def load_dataset(path, require_text: bool = True) -> list[TrajectorySequence]:
    """Read a JSONL dataset: one {"id", "points", "text"} object per line."""
    path = Path(path)
    seqs = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    seqs.append(_parse_record(line, f"{path.name} line {lineno}", require_text))
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason})") from e
    if not seqs:
        raise DataError(f"{path}: empty dataset")
    return seqs


def save_dataset(path, seqs) -> None:
    """Write `seqs`, any iterable of sequences, as JSONL; each line is written as the iterable yields it."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for seq in seqs:
            rec = {
                "id": seq.id,
                "points": [[x, y, int(s)] for x, y, s in seq.points.tolist()],
                "text": seq.text,
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def normalize(seq: TrajectorySequence) -> TrajectorySequence:
    """Affinely map py to [0, 32]; px shares the scale factor, min px -> 0.

    A line that would come out wider than MAX_WIDTH px is scaled to that
    width instead, and spans less than 32 px vertically. Zero-height input
    falls back to scaling the width to 512 px with py centered at 16. A line
    too small for its scale factor to be finite (a subnormal extent) takes
    the zero-extent fallback: px only shifted, py centered at 16.
    Idempotent on already-normalized sequences.
    """
    validate_sequence(seq, seq.id)
    pts = seq.points
    px, py, s = pts[:, 0], pts[:, 1], pts[:, 2]
    height = float(py.max() - py.min())
    width = float(px.max() - px.min())
    if height > 0:
        scale = IMAGE_HEIGHT / height if width * IMAGE_HEIGHT <= MAX_WIDTH * height else MAX_WIDTH / width
    else:
        scale = 512.0 / width if width > 0 else 1.0
    if not math.isfinite(scale):
        height, scale = 0.0, 1.0
    if height > 0:
        new_py = (py - py.min()) * scale
    else:
        new_py = np.full_like(py, IMAGE_HEIGHT / 2.0)
    new_px = (px - px.min()) * scale
    out = np.column_stack([new_px, new_py, s])
    return TrajectorySequence(id=seq.id, points=out, text=seq.text)


def _point_pixels(points: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Rounded pixel coordinates, clamped into the image (py=32 -> row 31)."""
    cols = np.clip(np.rint(points[:, 0]).astype(int), 0, width - 1)
    rows = np.clip(np.rint(points[:, 1]).astype(int), 0, IMAGE_HEIGHT - 1)
    return rows, cols


def render_width(max_px: float) -> int:
    w = max(FRAME, math.ceil(max_px) + 1)
    return -(-w // FRAME) * FRAME


def _segment_pixels(r0, c0, r1, c1) -> tuple[np.ndarray, np.ndarray]:
    """The pixels of the integer lines from (r0, c0) to (r1, c1), arrays of segments, endpoints included.

    A segment whose longer axis spans n pixels has n + 1 of them: pixel k
    (0..n) lies k steps along that axis and round(k * m / n) steps along the
    other, which spans m, ties rounded toward the segment's start; that is
    (2 k m + n - 1) // (2 n), which is k along the longer axis itself. These
    are Bresenham's pixels as drawn from (r0, c0) (`tests/test_data.py` holds
    the stepping loop, checked against every ordered segment of a 9 x 13 box).
    """
    dr, dc = r1 - r0, c1 - c0
    n = np.maximum(np.abs(dr), np.abs(dc))
    count = n + 1
    seg = np.repeat(np.arange(len(n)), count)
    k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    n1 = np.maximum(n, 1)[seg]  # a one-pixel segment (n = 0) has only k = 0

    def along(start, delta):
        d = delta[seg]
        return start[seg] + np.sign(d) * ((2 * k * np.abs(d) + n1 - 1) // (2 * n1))

    return along(r0, dr), along(c0, dc)


def render(seq: TrajectorySequence) -> np.ndarray:
    """Rasterize a normalized sequence to a (32, W) grayscale image.

    W is ceil(max px)+1 rounded up to a multiple of FRAME (minimum FRAME). Segments
    are drawn only between consecutive touching samples; every touching
    sample also inks its own pixel, so isolated pen-down points stay visible.
    Ink is 1.0 on a 0.0 background, no anti-aliasing. The pixels of all the
    line's segments are formed at once (`_segment_pixels`) and inked with one
    assignment per image.
    """
    pts = seq.points
    width = render_width(pts[:, 0].max())
    img = np.zeros((IMAGE_HEIGHT, width), dtype=np.float32)
    rows, cols = _point_pixels(pts, width)
    down = pts[:, 2] == 1
    img[rows[down], cols[down]] = 1.0
    start = np.flatnonzero(down[:-1] & down[1:])  # segment i runs from point start[i] to the next
    img[_segment_pixels(rows[start], cols[start], rows[start + 1], cols[start + 1])] = 1.0
    return img


def augment(seq: TrajectorySequence, fraction: float, magnitude: float,
            rng: np.random.Generator) -> TrajectorySequence:
    """Perturb floor(fraction*T) randomly chosen pen-down points.

    Offsets are i.i.d. uniform in [-magnitude, +magnitude] per axis; pen
    states and point order are untouched and the result is re-normalized.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"augment: fraction must be in [0, 1], got {fraction}")
    pts = seq.points.copy()
    k = int(fraction * pts.shape[0])
    down = np.flatnonzero(pts[:, 2] == 1)
    k = min(k, down.size)
    if k > 0:
        chosen = rng.choice(down, size=k, replace=False)
        pts[chosen, :2] += rng.uniform(-magnitude, magnitude, size=(k, 2))
    return normalize(TrajectorySequence(id=seq.id, points=pts, text=seq.text))


class Vocabulary:
    """Dense table of single characters with pad/sos/eos reserved at indices 0..2."""

    def __init__(self, chars):
        chars = list(chars)
        if len(set(chars)) != len(chars):
            raise DataError("vocabulary characters must be unique")
        for ch in chars:
            if len(ch) != 1:
                raise DataError(f"vocabulary entries must be single characters, got {ch!r}")
            if ch in RESERVED_SYMBOLS:
                raise DataError("vocabulary cannot contain reserved control characters")
        self.symbols = list(RESERVED_SYMBOLS) + chars
        self._index = {ch: i for i, ch in enumerate(self.symbols)}

    @property
    def size(self) -> int:
        return len(self.symbols)

    def encode(self, text: str) -> list[int]:
        try:
            return [self._index[ch] for ch in text]
        except KeyError as e:
            raise DataError(f"character {e.args[0]!r} not in vocabulary") from e

    def decode(self, ids) -> str:
        return "".join(self.symbols[i] for i in ids if i > EOS)

    @classmethod
    def from_symbols(cls, symbols) -> "Vocabulary":
        symbols = list(symbols)
        if symbols[:3] != list(RESERVED_SYMBOLS):
            raise DataError("vocabulary list must start with the reserved symbols")
        return cls(symbols[3:])


def build_vocab(dataset) -> Vocabulary:
    """Sorted unique transcript characters behind the reserved tokens."""
    if not dataset:
        raise DataError("cannot build a vocabulary from an empty dataset")
    chars = set()
    for seq in dataset:
        for ch in seq.text:
            if ch in RESERVED_SYMBOLS:
                raise DataError(f"{seq.id}: transcript contains a reserved control character")
            chars.add(ch)
    return Vocabulary(sorted(chars))


def write_pgm(img: np.ndarray, path) -> None:
    """Binary PGM (P5, maxval 255); ink 1.0 maps to 255."""
    h, w = img.shape
    data = np.rint(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
