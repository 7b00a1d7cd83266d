"""Encoder contracts: frame clocks, widths, positions, shift equivariance."""

import functools

import numpy as np
import pytest

from penrec import autodiff as ad
from penrec.config import AlignConfig, EncoderConfig
from penrec.data import TrajectorySequence, Vocabulary
from penrec.encoders import pad_to_multiple
from penrec.layers import BiGRUStack, ParamStore
from penrec.model import Recognizer


def small_enc_cfg(d=16):
    return EncoderConfig(d=d, gru_layers=1)


def make_model(d=16, seed=0):
    return Recognizer(small_enc_cfg(d), AlignConfig(layers=1, heads=2),
                      Vocabulary(list("ab")), seed=seed)


def line_sequence(n, pen=1.0):
    xs = np.linspace(0, 2 * n, n)
    ys = np.full(n, 10.0)
    ys[0], ys[-1] = 0.0, 32.0  # give the box full height
    return TrajectorySequence(id="line", points=np.column_stack([xs, ys, np.full(n, pen)]), text="a")


def test_frame_count_is_ceil_T_over_8():
    m = make_model()
    for t, frames in ((64, 8), (63, 8), (9, 2), (8, 1), (2, 1)):
        feat = m.traj_conv(line_sequence(t))
        assert feat.values.shape == (frames, 16), (t, frames)
        assert feat.positions.shape == (frames, 2)


def test_rejects_single_point():
    m = make_model()
    seq = TrajectorySequence(id="x", points=np.array([[0.0, 0.0, 1.0]]), text="")
    with pytest.raises(ValueError):
        m.traj_conv(seq)


def test_pad_repeats_last_point_pen_up():
    pts = np.array([[1.0, 2.0, 1.0]] * 9)
    padded = pad_to_multiple(pts)
    assert padded.shape == (16, 3)
    np.testing.assert_array_equal(padded[9:, :2], np.tile([1.0, 2.0], (7, 1)))
    assert np.all(padded[9:, 2] == 0.0)


def test_frame_positions_monotonic_for_horizontal_stroke():
    m = make_model()
    feat = m.traj_conv(line_sequence(64))
    px = feat.positions[:, 0]
    assert np.all(np.diff(px) > 0)


def test_frame_positions_are_window_means():
    m = make_model()
    seq = line_sequence(16)
    feat = m.traj_conv(seq)
    np.testing.assert_allclose(feat.positions[0], seq.points[:8, :2].mean(axis=0))
    np.testing.assert_allclose(feat.positions[1], seq.points[8:, :2].mean(axis=0))


# ---------------------------------------------------------------------------
# BiGRU


def test_bigru_preserves_frames_and_width():
    store = ParamStore(np.random.default_rng(0))
    stack = BiGRUStack(store, "g", 16, layers=2)
    x = ad.array(np.random.default_rng(1).normal(size=(7, 16)))
    out = stack(x)
    assert out.shape == (7, 16)


def test_bigru_zero_parameters_zero_input_gives_zero_output():
    store = ParamStore(np.random.default_rng(0))
    stack = BiGRUStack(store, "g", 8, layers=1)
    for p in store.params.values():
        p.data = np.zeros_like(p.data)
    out = stack(ad.array(np.zeros((5, 8))))
    np.testing.assert_array_equal(out.data, np.zeros((5, 8), dtype=np.float32))


def test_bigru_packs_the_draws_of_two_separate_cells():
    # a seed gives the values that one cell per direction drew: forward w_x, w_h, then backward w_x, w_h
    d_in, hidden = 6, 3
    w_x, b_x, w_h, b_h = BiGRUStack(ParamStore(np.random.default_rng(5)), "g", d_in, layers=1).layers[0]
    rng, bound = np.random.default_rng(5), 1.0 / np.sqrt(hidden)
    shapes = [(d_in, 3 * hidden), (hidden, 3 * hidden)] * 2
    fx, fh, bx, bh = (rng.uniform(-bound, bound, size=shape) for shape in shapes)
    np.testing.assert_array_equal(w_x.data, np.concatenate([fx, bx], axis=1).astype(np.float32))
    np.testing.assert_array_equal(w_h.data, np.concatenate([fh, bh], axis=0).astype(np.float32))
    np.testing.assert_array_equal(b_x.data, np.zeros(6 * hidden, dtype=np.float32))
    np.testing.assert_array_equal(b_h.data, np.zeros(6 * hidden, dtype=np.float32))


def test_bigru_direction_swap_under_shared_parameters():
    store = ParamStore(np.random.default_rng(2))
    stack = BiGRUStack(store, "g", 6, layers=1)
    w_x, b_x, w_h, _ = stack.layers[0]
    # share parameters between directions: copy the forward block of each packed tensor into the backward block
    for p in (w_x, b_x):
        p.data[..., 9:] = p.data[..., :9]
    w_h.data[3:] = w_h.data[:3]
    x = np.random.default_rng(3).normal(size=(9, 6)).astype(np.float32)
    out = stack(ad.array(x)).data
    out_rev = stack(ad.array(x[::-1])).data
    half = 3
    # direction-0 of the reversed input equals reversed direction-1 of the original
    np.testing.assert_allclose(out_rev[:, :half], out[::-1, half:], rtol=1e-5, atol=1e-6)


# ---------------------------------------------------------------------------
# image encoder


def test_image_frames_are_width_over_8():
    m = make_model()
    img = np.zeros((32, 64), dtype=np.float32)
    out = m.img_cnn(img)
    assert out.shape == (8, 16)


def test_image_encoder_rejects_wrong_height_or_width():
    m = make_model()
    with pytest.raises(ValueError, match="height"):
        m.img_cnn(np.zeros((16, 64), dtype=np.float32))
    with pytest.raises(ValueError, match="width"):
        m.img_cnn(np.zeros((32, 60), dtype=np.float32))


def test_zero_image_gives_zero_conv_features():
    m = make_model()
    out = m.img_cnn(np.zeros((32, 40), dtype=np.float32))
    np.testing.assert_array_equal(out.data, np.zeros((5, 16), dtype=np.float32))


def test_shift_equivariance_away_from_borders():
    m = make_model()
    rng = np.random.default_rng(4)
    img = np.zeros((32, 256), dtype=np.float32)
    ink = rng.uniform(size=(32, 256)) < 0.15
    img[ink] = 1.0
    img[:, :16] = 0.0
    img[:, -16:] = 0.0
    shifted = np.zeros_like(img)
    shifted[:, 8:] = img[:, :-8]
    a = m.img_cnn(img).data
    b = m.img_cnn(shifted).data
    # receptive field is ~10 frames; compare the interior band
    np.testing.assert_allclose(b[12:20], a[11:19], rtol=1e-5, atol=1e-6)


def test_encoder_outputs_finite_for_large_inputs():
    m = make_model()
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(0, 3000, 80), rng.uniform(0, 32, 80), np.ones(80)])
    feat = m.traj_conv(TrajectorySequence(id="big", points=pts, text="a"))
    assert np.all(np.isfinite(feat.values.data))
    f_enc, _, _ = m.trajectory_features(TrajectorySequence(id="big", points=pts, text="a"))
    assert np.all(np.isfinite(f_enc.data))


def test_padding_only_kernel_rows_of_the_last_stage_are_never_read():
    # stage 3 sees inputs 2 and then 1 row high: conv1 (stride 2) reads kernel rows 1-2 only,
    # conv2 row 1 only; NaN in the other rows would poison the loss if they were multiplied by padding
    m = Recognizer(EncoderConfig(d=64), AlignConfig(), Vocabulary(list("abc")), seed=0)
    dead = {"img_cnn.s3.b0.conv1.w": [0], "img_cnn.s3.b0.conv2.w": [0, 2]}
    for name, rows in dead.items():
        m.params[name].data[rows] = np.nan
    losses = [loss for loss in m.losses([line_sequence(40)]).values() if loss is not None]
    assert all(np.isfinite(loss.data) for loss in losses)
    ad.backward(functools.reduce(ad.add, losses))
    for name, rows in dead.items():
        grad = m.params[name].grad
        assert np.all(grad[rows] == 0.0), name
        assert np.all(np.isfinite(grad)) and np.any(np.delete(grad, rows, axis=0) != 0.0), name
