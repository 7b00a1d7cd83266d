"""Dataset ingestion, normalization, rendering, augmentation, vocabulary."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import json_values
from penrec import data as D
from penrec.synth import DEFAULT_ALPHABET, synth_generate


def seq_of(points, text="x", sid="s"):
    return D.TrajectorySequence(id=sid, points=np.asarray(points, dtype=np.float64), text=text)


# ---------------------------------------------------------------------------
# loading


def test_load_simple_line(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"id":"a","points":[[0,0,1],[1,1,1]],"text":"x"}\n')
    seqs = D.load_dataset(p)
    assert len(seqs) == 1 and seqs[0].length == 2 and seqs[0].text == "x"


def test_load_rejects_bad_pen_state_with_line_number(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"id":"a","points":[[0,0,1],[1,1,1]],"text":"x"}\n'
                 '{"id":"b","points":[[0,0,1],[1,1,2]],"text":"y"}\n')
    with pytest.raises(D.DataError, match="line 2"):
        D.load_dataset(p)


@pytest.mark.parametrize("text", [5, None, ["x"]], ids=["int", "null", "list"])
def test_load_rejects_non_string_text(tmp_path, text):
    p = tmp_path / "d.jsonl"
    p.write_text(json.dumps({"id": "a", "points": [[0, 0, 1], [1, 1, 1]], "text": text}) + "\n")
    for require_text in (True, False):
        with pytest.raises(D.DataError, match="line 1: text must be a string"):
            D.load_dataset(p, require_text=require_text)


NOT_NUMBERS = "points must be a list of [px, py, s] rows of JSON numbers"
COERCED = [
    ({"id": None, "points": [[0, 0, 1], [1, 5, 1]]}, "id must be a string, got null"),
    ({"id": {"k": 1}, "points": [[0, 0, 1], [1, 5, 1]]}, 'id must be a string, got {"k": 1}'),
    ({"id": 7, "points": [[0, 0, 1], [1, 5, 1]]}, "id must be a string, got 7"),
    ({"id": "a", "points": [["0", "0", "1"], ["1e1", "5", "1"]]}, NOT_NUMBERS),
    ({"id": "a", "points": [[0, 0, 1], [1, 5, True]]}, NOT_NUMBERS),
    ({"id": "a", "points": [[0, 0, 1], [1, None, 1]]}, NOT_NUMBERS),
    ({"id": "a", "points": [0, 0, 1]}, NOT_NUMBERS),
]
COERCED_IDS = ["id_null", "id_object", "id_number", "coords_strings", "pen_true", "coord_null", "flat_points"]


@pytest.mark.parametrize("record,message", COERCED, ids=COERCED_IDS)
def test_load_refuses_values_it_would_have_to_coerce(tmp_path, record, message):
    p = tmp_path / "d.jsonl"
    p.write_text(json.dumps({**record, "text": "a"}) + "\n")
    with pytest.raises(D.DataError, match=f"line 1: {re.escape(message)}"):
        D.load_dataset(p)


def test_a_line_of_more_than_max_points_is_refused_by_load_and_normalize(tmp_path):
    rows = [[i, i % 7, 1] for i in range(D.MAX_POINTS + 1)]
    p = tmp_path / "d.jsonl"
    p.write_text(json.dumps({"id": "a", "points": rows[:-1], "text": "x"}) + "\n")
    assert D.load_dataset(p)[0].length == D.MAX_POINTS
    p.write_text(p.read_text() + json.dumps({"id": "b", "points": rows, "text": "y"}) + "\n")
    with pytest.raises(D.DataError, match=f"line 2: {D.MAX_POINTS + 1} points, at most {D.MAX_POINTS} are allowed"):
        D.load_dataset(p)
    with pytest.raises(D.DataError, match=f"^b: {D.MAX_POINTS + 1} points"):
        D.normalize(seq_of(rows, sid="b"))


def dataset_files():
    """Dataset file bytes: lines of arbitrary text, JSON values, records with arbitrary fields, deep nesting."""
    number = st.integers() | st.floats(allow_nan=True, allow_infinity=True)
    good_rows = st.lists(st.tuples(st.floats(-1e3, 1e3), st.integers(-1000, 1000), st.sampled_from([0, 1]))
                         .map(list), min_size=2, max_size=6)
    rows = st.lists(st.lists(number | json_values(), max_size=4), max_size=5)
    fields = {"id": st.text(max_size=8) | json_values(),
              "points": good_rows | rows | json_values(),
              "text": st.text(max_size=8) | json_values()}
    record = st.fixed_dictionaries({}, optional=fields).map(json.dumps)
    deep = st.integers(1, 3000).map(lambda n: "[" * n + "]" * n)
    line = st.text(max_size=40) | json_values().map(json.dumps) | record | deep
    return st.lists(line, max_size=4).map(lambda lines: "\n".join(lines).encode()) | st.binary(max_size=40)


@given(content=dataset_files(), require_text=st.booleans())
@example(content=b'{"id": null, "points": [["0", "0", "1"], ["1e1", "5", true]], "text": "a"}', require_text=True)
@example(content=b'{"id": "a", "points": [[0, 0, 1], [1, 1, 1]], "text": ' + b"[" * 5000 + b"]" * 5000 + b"}",
         require_text=True)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_dataset_fuzz_gives_sequences_or_a_data_error(tmp_path, content, require_text):
    p = tmp_path / "fuzz.jsonl"
    p.write_bytes(content)
    try:
        seqs = D.load_dataset(p, require_text=require_text)
    except D.DataError:
        return
    for seq in seqs:
        assert isinstance(seq.id, str) and isinstance(seq.text, str)
        pts = seq.points
        assert pts.dtype == np.float64 and pts.ndim == 2 and pts.shape[1] == 3 and pts.shape[0] >= 2
        assert np.all(np.isfinite(pts)) and set(np.unique(pts[:, 2])) <= {0.0, 1.0}


def test_load_rejects_empty_file(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text("")
    with pytest.raises(D.DataError, match="empty"):
        D.load_dataset(p)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    seqs = synth_generate(DEFAULT_ALPHABET, 5, rng)
    p = tmp_path / "d.jsonl"
    D.save_dataset(p, seqs)
    loaded = D.load_dataset(p)
    assert [s.id for s in loaded] == [s.id for s in seqs]
    for a, b in zip(seqs, loaded):
        np.testing.assert_array_equal(a.points, b.points)
        assert a.text == b.text


# ---------------------------------------------------------------------------
# normalization


def test_normalize_scale_factor():
    s = D.normalize(seq_of([[0, 10, 1], [5, 20, 1]]))
    px, py = s.points[:, 0], s.points[:, 1]
    assert py.min() == 0.0 and py.max() == pytest.approx(32.0)
    assert px.max() == pytest.approx(5 * 3.2)


def test_normalize_idempotent():
    s = D.normalize(seq_of([[3, 1, 1], [9, 7, 0], [4, 5, 1]]))
    again = D.normalize(s)
    np.testing.assert_allclose(again.points, s.points, atol=1e-12)


def test_normalize_preserves_aspect_ratio():
    raw = seq_of([[0, 0, 1], [40, 10, 1], [13, 4, 1]])
    s = D.normalize(raw)
    raw_aspect = 40.0 / 10.0
    got_aspect = s.points[:, 0].max() / s.points[:, 1].max()
    assert got_aspect == pytest.approx(raw_aspect)


@given(width=st.floats(1e-3, 1e5), height=st.floats(1e-9, 1e5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_normalize_bounds_width_and_stays_idempotent(width, height, seed):
    # render is never called here: an unbounded input would allocate 32 x width floats
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(0, width, 6), rng.uniform(0, height, 6), np.ones(6)])
    pts[0, :2], pts[1, :2] = (0.0, 0.0), (width, height)
    s = D.normalize(seq_of(pts))
    assert D.render_width(s.points[:, 0].max()) <= D.render_width(D.MAX_WIDTH)
    np.testing.assert_allclose(D.normalize(s).points, s.points, rtol=1e-12, atol=1e-9)
    scale = D.IMAGE_HEIGHT / height
    if width * scale <= D.MAX_WIDTH:
        np.testing.assert_array_equal(s.points[:, :2], pts[:, :2] * scale)


@pytest.mark.parametrize("points", [
    [[0, 0, 1], [0, 1e-320, 1]],        # zero width, subnormal height: 32 / height overflows
    [[0, 0, 1], [1e-320, 0, 1]],        # zero height, subnormal width: 512 / width overflows
    [[0, 0, 1], [1e-310, 5e-324, 1]],   # capped width, subnormal: 4096 / width overflows
], ids=["subnormal_height", "subnormal_width", "subnormal_capped_width"])
def test_normalize_keeps_subnormal_lines_finite(points):
    s = D.normalize(seq_of(points))
    assert np.all(np.isfinite(s.points))
    np.testing.assert_array_equal(D.normalize(s).points, s.points)


@pytest.mark.parametrize("axis", [0, 1], ids=["px", "py"])
def test_overflowing_extent_is_a_data_error(tmp_path, axis):
    # each coordinate is finite, but max - min overflows to inf: normalize's scale would be 0 and inf * 0 NaN
    points = [[0.0, 0.0, 1], [1.0, 1.0, 1]]
    points[0][axis], points[1][axis] = -1e308, 1e308
    with pytest.raises(D.DataError, match=f"{'px' if axis == 0 else 'py'} extent overflows"):
        D.normalize(seq_of(points))
    path = tmp_path / "wide.jsonl"
    path.write_text(json.dumps({"id": "w", "points": points, "text": "x"}) + "\n")
    with pytest.raises(D.DataError, match="wide.jsonl line 1"):
        D.load_dataset(path)


@pytest.mark.parametrize("axis", [0, 1], ids=["px", "py"])
def test_normalize_keeps_a_huge_finite_extent_finite(axis):
    points = [[0.0, 0.0, 1], [1.0, 1.0, 1], [0.5, 0.5, 0]]
    points[0][axis], points[1][axis] = -8e307, 8e307
    s = D.normalize(seq_of(points))
    assert np.all(np.isfinite(s.points))
    assert s.points[:, 0].max() <= D.MAX_WIDTH and s.points[:, 1].max() <= D.IMAGE_HEIGHT


def test_normalize_caps_a_flat_wide_stroke():
    s = D.normalize(seq_of([[0, 0, 1], [200, 1e-6, 1]]))
    assert s.points[:, 0].max() == pytest.approx(D.MAX_WIDTH)
    assert s.points[:, 1].max() == pytest.approx(D.MAX_WIDTH * 1e-6 / 200)


def test_normalize_zero_height_fallback():
    s = D.normalize(seq_of([[0, 5, 1], [100, 5, 1]]))
    assert np.all(s.points[:, 1] == 16.0)
    assert s.points[:, 0].max() <= 512.0 + 1e-9


# ---------------------------------------------------------------------------
# rendering


def test_render_horizontal_stroke():
    s = seq_of([[0, 0, 1], [7, 0, 1]])
    s = D.TrajectorySequence(id="h", points=s.points, text="")
    img = D.render(s)
    assert img.shape == (32, 8)
    np.testing.assert_array_equal(img[0], np.ones(8, dtype=np.float32))
    assert img[1:].sum() == 0


def test_render_all_pen_up_is_blank():
    img = D.render(seq_of([[0, 0, 0], [10, 20, 0], [5, 30, 0]]))
    assert img.sum() == 0.0


def test_render_width_is_multiple_of_8():
    for max_px in (0.0, 3.0, 7.9, 8.0, 100.3):
        w = D.render_width(max_px)
        assert w % 8 == 0 and w >= 8 and w >= max_px


def test_every_pen_down_point_is_inked():
    rng = np.random.default_rng(7)
    for seq in synth_generate(DEFAULT_ALPHABET, 10, rng):
        norm = D.normalize(seq)
        img = D.render(norm)
        w = img.shape[1]
        for px, py, s in norm.points:
            if s == 1:
                r = min(int(np.rint(py)), 31)
                c = min(int(np.rint(px)), w - 1)
                assert img[r, c] == 1.0


def test_isolated_pen_down_point_leaves_a_dot():
    img = D.render(seq_of([[0, 0, 0], [4, 16, 1], [8, 32, 0]]))
    assert img[16, 4] == 1.0
    assert img.sum() == 1.0


def render_by_pixel(seq):
    """The reference rasterizer: `render`'s rule, one pixel assignment at a time."""
    pts = seq.points
    width = D.render_width(pts[:, 0].max())
    img = np.zeros((D.IMAGE_HEIGHT, width), dtype=np.float32)
    rows = np.clip(np.rint(pts[:, 1]).astype(int), 0, D.IMAGE_HEIGHT - 1)
    cols = np.clip(np.rint(pts[:, 0]).astype(int), 0, width - 1)
    down = pts[:, 2] == 1
    img[rows[down], cols[down]] = 1.0
    for t in range(1, pts.shape[0]):
        if pts[t - 1, 2] == 1 and pts[t, 2] == 1:
            for r, c in D.bresenham(rows[t - 1], cols[t - 1], rows[t], cols[t]):
                img[r, c] = 1.0
    return img


def test_render_is_bit_identical_to_the_per_pixel_reference():
    rng = np.random.default_rng(17)
    lines = synth_generate(DEFAULT_ALPHABET, 40, rng, length_range=(1, 10))
    for seq in lines:
        pts = seq.points.copy()
        # lift the pen at random points: isolated pen-down points and extra gaps inside strokes
        pts[rng.random(len(pts)) < 0.2, 2] = 0.0
        for points in (seq.points, pts):
            norm = D.normalize(seq_of(points))
            got = D.render(norm)
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, render_by_pixel(norm))
    isolated = D.normalize(seq_of([[0, 0, 1], [3, 9, 0], [5, 20, 1], [9, 2, 0], [30, 31, 1], [31, 31, 1]]))
    np.testing.assert_array_equal(D.render(isolated), render_by_pixel(isolated))


def strokes_of(points):
    """A line's strokes: each its pen-up lead-in, then its pen-down run."""
    starts = [i for i in range(1, len(points)) if points[i, 2] == 0 and points[i - 1, 2] == 1]
    return np.split(points, starts)


# Stroke direction is not covered: `bresenham` does not draw a reversed segment pixel for pixel.
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=50, deadline=None)
def test_render_does_not_depend_on_stroke_order(seed, data):
    seq = synth_generate(DEFAULT_ALPHABET, 1, np.random.default_rng(seed), length_range=(1, 6))[0]
    assert seq.points[0, 2] == 0  # so a stroke moved to the front joins no segment to the one before
    strokes = strokes_of(seq.points)
    order = data.draw(st.permutations(range(len(strokes))))
    shuffled = seq_of(np.concatenate([strokes[i] for i in order]), seq.text, seq.id)
    np.testing.assert_array_equal(D.render(D.normalize(shuffled)), D.render(D.normalize(seq)))


# ---------------------------------------------------------------------------
# augmentation


def _anchored_sequence(n_down=50):
    # pen-up anchors pin the bounding box so re-normalization is the identity
    pts = [[0.0, 0.0, 0.0], [100.0, 32.0, 0.0]]
    rng = np.random.default_rng(5)
    for _ in range(n_down):
        pts.append([rng.uniform(3, 97), rng.uniform(3, 29), 1.0])
    return D.normalize(seq_of(pts))


def test_augment_fraction_zero_is_identity():
    s = _anchored_sequence()
    out = D.augment(s, 0.0, 1.0, np.random.default_rng(0))
    np.testing.assert_allclose(out.points, s.points, atol=1e-12)


def test_augment_moves_exactly_floor_fraction_T_points():
    s = _anchored_sequence(n_down=98)  # T = 100
    out = D.augment(s, 0.2, 1.0, np.random.default_rng(1))
    moved = np.any(out.points[:, :2] != s.points[:, :2], axis=1)
    assert moved.sum() == 20
    np.testing.assert_array_equal(out.points[:, 2], s.points[:, 2])


def test_augment_only_touches_pen_down_points():
    s = _anchored_sequence(n_down=30)
    out = D.augment(s, 0.5, 1.0, np.random.default_rng(2))
    up = s.points[:, 2] == 0
    np.testing.assert_array_equal(out.points[up], s.points[up])


def test_augment_is_seed_deterministic():
    s = _anchored_sequence()
    a = D.augment(s, 0.2, 1.0, np.random.default_rng(3))
    b = D.augment(s, 0.2, 1.0, np.random.default_rng(3))
    np.testing.assert_array_equal(a.points, b.points)


# ---------------------------------------------------------------------------
# vocabulary


def test_vocab_orders_characters_after_reserved():
    ds = [seq_of([[0, 0, 1], [1, 1, 1]], text=t) for t in ("ab", "ba")]
    v = D.build_vocab(ds)
    assert v.size == 5
    assert v.encode("ab") == [3, 4]
    assert v.encode("ba") == [4, 3]


def test_vocab_encode_decode_round_trip():
    ds = [seq_of([[0, 0, 1], [1, 1, 1]], text="hello world")]
    v = D.build_vocab(ds)
    assert v.decode(v.encode("hello world")) == "hello world"


def test_vocab_rejects_reserved_characters():
    ds = [seq_of([[0, 0, 1], [1, 1, 1]], text="a\x01b")]
    with pytest.raises(D.DataError, match="reserved"):
        D.build_vocab(ds)


def test_vocab_deterministic_ordering():
    ds = [seq_of([[0, 0, 1], [1, 1, 1]], text="zyx")]
    assert D.build_vocab(ds).symbols == D.build_vocab(list(reversed(ds))).symbols


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_vocab_round_trip_property(text):
    ds = [seq_of([[0, 0, 1], [1, 1, 1]], text=text)]
    v = D.build_vocab(ds)
    assert v.decode(v.encode(text)) == text


# ---------------------------------------------------------------------------
# PGM


def test_write_pgm(tmp_path):
    img = np.zeros((32, 8), dtype=np.float32)
    img[0, 0] = 1.0
    path = tmp_path / "x.pgm"
    D.write_pgm(img, path)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n8 32\n255\n")
    body = blob.split(b"255\n", 1)[1]
    assert len(body) == 32 * 8
    assert body[0] == 255 and body[1] == 0
