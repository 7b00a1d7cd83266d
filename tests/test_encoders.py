"""Encoder contracts: frame clocks, widths, positions, shift equivariance."""

import functools
import math

import numpy as np
import pytest

from gradcheck import asum
from penrec import autodiff as ad
from penrec.config import AlignConfig, EncoderConfig
from penrec.data import FRAME, IMAGE_HEIGHT, TrajectorySequence, Vocabulary
from penrec.encoders import _join, pad_to_multiple
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
        feat = m.traj_conv(line_sequence(t))  # the line as a batch of one
        assert feat.values.shape == (1, frames, 16), (t, frames)
        assert feat.positions.shape == (1, frames, 2)
        assert feat.frames.tolist() == [frames]


def test_both_stacks_step_one_frame_per_FRAME():
    m = make_model()
    assert math.prod(s for _, _, s in m.traj_conv.conv.spec) == FRAME == 8
    strides = [m.img_cnn.STEM_STRIDE] + [block.stride for block in m.img_cnn.blocks]
    assert tuple(math.prod(s) for s in zip(*strides)) == (IMAGE_HEIGHT, FRAME)


def test_batch_lines_equal_their_own_batches_of_one():
    # mixed lengths: one frame from 2 points, an exact multiple of 8, and lines that need padding.
    # Positions are bit-identical. Features agree to rounding only: numpy sends a one-row product to gemv,
    # and OpenBLAS's small-matrix kernel, chosen by the product's size, rounds the last layer's (768-wide)
    # product of a short line alone otherwise than the same rows of the joined lines.
    m = make_model()
    rng = np.random.default_rng(6)
    lines = []
    for i, t in enumerate((37, 2, 64, 13)):
        pts = np.column_stack([np.sort(rng.uniform(0, 90, t)), rng.uniform(0, 32, t), rng.integers(0, 2, t)])
        lines.append(TrajectorySequence(id=f"l{i}", points=pts, text="a"))
    feat = m.traj_conv.batch(lines)
    assert feat.frames.tolist() == [5, 1, 8, 2]
    assert feat.values.shape == (4, 8, 16) and feat.positions.shape == (4, 8, 2)
    for b, seq in enumerate(lines):
        alone = m.traj_conv.batch([seq])
        n = feat.frames[b]
        assert alone.frames.tolist() == [n]
        np.testing.assert_allclose(feat.values.data[b, :n], alone.values.data[0], rtol=1e-5, atol=1e-6)
        assert feat.positions[b, :n].tobytes() == alone.positions[0].tobytes()
        assert np.all(feat.values.data[b, n:] == 0.0) and np.all(feat.positions[b, n:] == 0.0)


def test_rejects_single_point(monkeypatch):
    m = make_model()
    seq = TrajectorySequence(id="x", points=np.array([[0.0, 0.0, 1.0]]), text="")
    with pytest.raises(ValueError, match="^x: "):
        m.traj_conv(seq)
    # in a batch, the bad line is named before the joined stack runs on any line
    convs = []
    monkeypatch.setattr(ad, "conv1d", lambda *a, **k: convs.append(a))
    with pytest.raises(ValueError, match="^x: "):
        m.traj_conv.batch([line_sequence(16), seq])
    assert convs == []


def test_pad_repeats_last_point_pen_up():
    pts = np.array([[1.0, 2.0, 1.0]] * 9)
    padded = pad_to_multiple(pts)
    assert padded.shape == (16, 3)
    np.testing.assert_array_equal(padded[9:, :2], np.tile([1.0, 2.0], (7, 1)))
    assert np.all(padded[9:, 2] == 0.0)


def test_frame_positions_monotonic_for_horizontal_stroke():
    m = make_model()
    feat = m.traj_conv(line_sequence(64))
    px = feat.positions[0, :, 0]
    assert np.all(np.diff(px) > 0)


def test_frame_positions_are_window_means():
    m = make_model()
    seq = line_sequence(16)
    feat = m.traj_conv(seq)
    np.testing.assert_allclose(feat.positions[0, 0], seq.points[:8, :2].mean(axis=0))
    np.testing.assert_allclose(feat.positions[0, 1], seq.points[8:, :2].mean(axis=0))


# ---------------------------------------------------------------------------
# BiGRU


def test_bigru_preserves_frames_and_width():
    store = ParamStore(np.random.default_rng(0))
    stack = BiGRUStack(store, "g", 16, layers=2)
    x = ad.array(np.random.default_rng(1).normal(size=(1, 7, 16)))
    out = stack(x)
    assert out.shape == (1, 7, 16)


def test_bigru_zero_parameters_zero_input_gives_zero_output():
    store = ParamStore(np.random.default_rng(0))
    stack = BiGRUStack(store, "g", 8, layers=1)
    for p in store.params.values():
        p.data = np.zeros_like(p.data)
    out = stack(ad.array(np.zeros((1, 5, 8))))
    np.testing.assert_array_equal(out.data, np.zeros((1, 5, 8), dtype=np.float32))


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
    out = stack(ad.array(x[None])).data[0]
    out_rev = stack(ad.array(x[None, ::-1])).data[0]
    half = 3
    # direction-0 of the reversed input equals reversed direction-1 of the original
    np.testing.assert_allclose(out_rev[:, :half], out[::-1, half:], rtol=1e-5, atol=1e-6)


# ---------------------------------------------------------------------------
# image encoder


def test_image_frames_are_width_over_8():
    m = make_model()
    img = np.zeros((32, 64), dtype=np.float32)
    out = m.img_cnn.join([img])  # one image: columns 0-7 of the joined features
    assert out.values.shape == (1, 8, 16)
    assert out.starts.tolist() == [0] and out.frames.tolist() == [8]


def test_image_encoder_rejects_wrong_height_or_width():
    m = make_model()
    with pytest.raises(ValueError, match="height"):
        m.img_cnn.join([np.zeros((16, 64), dtype=np.float32)])
    with pytest.raises(ValueError, match="width"):
        m.img_cnn.join([np.zeros((32, 60), dtype=np.float32)])


def test_zero_image_gives_zero_conv_features():
    m = make_model()
    out = m.img_cnn.join([np.zeros((32, 40), dtype=np.float32)])
    np.testing.assert_array_equal(out.values.data, np.zeros((1, 5, 16), dtype=np.float32))


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
    a, b = (m.img_cnn.join([x]).values.data[0] for x in (img, shifted))
    # receptive field is ~10 frames; compare the interior band
    np.testing.assert_allclose(b[12:20], a[11:19], rtol=1e-5, atol=1e-6)


def test_encoder_outputs_finite_for_large_inputs():
    m = make_model()
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(0, 3000, 80), rng.uniform(0, 32, 80), np.ones(80)])
    feat = m.traj_conv(TrajectorySequence(id="big", points=pts, text="a"))
    assert np.all(np.isfinite(feat.values.data))
    f_enc, _ = m._encode(feat)
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


def _composed_block(x, w1, b1, w2, b2, wp, stride, keep):
    """The graph of `conv2d`, `relu`, `add` and gap-mask `mul` nodes that one `ad.residual_block` node replaces."""

    def relu_gaps(a):
        return ad.mul(ad.relu(a), np.broadcast_to(keep[None, :, None], a.shape))

    h = relu_gaps(ad.conv2d(x, w1, b1, stride=stride, pad=(1, 1)))
    y = ad.conv2d(h, w2, b2, stride=(1, 1), pad=(1, 1))
    return relu_gaps(ad.add(y, ad.conv2d(x, wp, None, stride=stride, pad=(0, 0))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_residual_block_equals_its_composed_graph_bit_for_bit(dtype):
    # the four stages of a d=64 image encoder over three images joined with gaps: inputs 16, 8, 4 and
    # 2 rows high, 8 to 64 channels; each stage reads the one before's output
    rng = np.random.default_rng(8)
    m = Recognizer(EncoderConfig(d=64), AlignConfig(), Vocabulary(list("ab")), seed=3, dtype=dtype)
    _, _, _, live = _join([np.zeros((IMAGE_HEIGHT, w)) for w in (24, 48, 16)], 1)
    x = rng.uniform(0.0, 1.0, size=(IMAGE_HEIGHT // 2, live.size, 8)).astype(dtype)
    x[:, ~live] = 0.0
    for block in m.img_cnn.blocks:
        ws = [block.w1.data, rng.normal(size=block.b1.shape), block.w2.data, rng.normal(size=block.b2.shape),
              block.wp.data]
        keep = live[::block.stride[1]]
        outs = []
        for fused in (True, False):
            ins = [ad.array(a, requires_grad=True, dtype=dtype) for a in (x, *ws)]
            y = (ad.residual_block(*ins, block.stride, np.flatnonzero(~keep)) if fused
                 else _composed_block(*ins, block.stride, keep))
            g = np.random.default_rng(9).normal(size=y.shape)
            ad.backward(asum(ad.mul(y, g)))
            outs.append([y.data] + [a.grad for a in ins])
        assert outs[0][0].shape == (x.shape[0] // 2, keep.size, block.w1.shape[-1])
        for fused, composed in zip(*outs):
            assert fused.dtype == composed.dtype == dtype
            assert fused.tobytes() == composed.tobytes()
        assert np.all(outs[0][0][:, ~keep] == 0.0) and np.any(outs[0][0] > 0.0)
        x, live = outs[0][0], keep
