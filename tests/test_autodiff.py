"""Engine-level contracts: kernels, backward, stop-gradient, Adam, schedule."""

import functools
import math

import numpy as np
import pytest

from gradcheck import asum, softmax, tanh
from penrec import autodiff as ad
from penrec.config import AlignConfig, EncoderConfig
from penrec.data import build_vocab
from penrec.model import Recognizer
from penrec.synth import DEFAULT_ALPHABET, synth_generate


def test_softmax_symmetry():
    out = softmax(ad.array([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def _softmax_reference(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# a few rows of model width, the attention kernel's (heads, T, T) scores, one decoder step's row
SOFTMAX_SHAPES = [(7, 64), (8, 9, 9), (1, 13)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", SOFTMAX_SHAPES)
def test_softmax_and_its_gradient_are_bit_identical_to_ndarray_method_references(dtype, shape):
    rng = np.random.default_rng(len(shape))
    x, g = (rng.normal(scale=4.0, size=shape).astype(dtype) for _ in range(2))
    y = ad._softmax(x)
    want = _softmax_reference(x)
    assert y.dtype == dtype and np.array_equal(y, want)
    out = np.empty_like(x)
    assert ad._softmax(x, out=out) is out and np.array_equal(out, want)
    assert np.array_equal(ad._softmax_back(want, g), want * (g - (g * want).sum(axis=-1, keepdims=True)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_in_place_is_bit_identical_to_its_python_float_formula(dtype):
    x = np.random.default_rng(3).normal(scale=8.0, size=(2, 2, 32)).astype(dtype)
    want = 0.5 * (np.tanh(0.5 * x) + 1.0)
    assert np.array_equal(ad._sigmoid(x), want)
    assert ad._sigmoid(x, out=x) is x and x.dtype == dtype and np.array_equal(x, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(9, 64), (2, 5, 32), (1, 320)])
def test_layer_norm_is_bit_identical_to_an_ndarray_method_reference(dtype, shape):
    rng = np.random.default_rng(shape[-1])
    x, g = (rng.normal(loc=1.0, scale=3.0, size=shape).astype(dtype) for _ in range(2))
    gain, bias = (rng.normal(size=shape[-1]).astype(dtype) for _ in range(2))
    d = shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + ad._LAYER_NORM_EPS)
    xh = xc * inv
    dxh = g * gain
    want = [xh * gain + bias,
            inv * (dxh - dxh.mean(axis=-1, keepdims=True) - xh * (dxh * xh).mean(axis=-1, keepdims=True)),
            (g * xh).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)]

    leaves = [ad.array(v, requires_grad=True, dtype=dtype) for v in (x, gain, bias)]
    y = ad.layer_norm(*leaves)
    ad.backward(asum(ad.mul(y, g)))  # y's gradient is g, exactly
    for name, got, w in zip(["y", "x", "gain", "bias"], [y.data] + [p.grad for p in leaves], want):
        assert got.dtype == dtype and np.array_equal(got, w), name


def test_conv1d_output_length_formula():
    x = ad.array(np.random.default_rng(0).normal(size=(1, 16, 2)))  # a height-1 image
    w = ad.array(np.random.default_rng(1).normal(size=(3, 2, 5)))
    out = ad.conv1d(x, w, None, stride=2, pad=1)
    assert out.shape == (1, 8, 5)
    assert ad.conv1d_out_length(16, 3, 2, 1) == 8


def _conv_loop_oracle(x, w, b, g, stride, pad):
    """Channels-last 2D convolution and its x, w, b gradients under output gradient g, by loops."""
    H, W, _ = x.shape
    kh, kw, _, cout = w.shape
    (sh, sw), (ph, pw) = stride, pad
    ho, wo = (H + 2 * ph - kh) // sh + 1, (W + 2 * pw - kw) // sw + 1
    y = np.tile(b, (ho, wo, 1))
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for oi in range(ho):
        for oj in range(wo):
            for i in range(kh):
                for j in range(kw):
                    r, c = oi * sh + i - ph, oj * sw + j - pw
                    if 0 <= r < H and 0 <= c < W:
                        y[oi, oj] += x[r, c] @ w[i, j]
                        dx[r, c] += w[i, j] @ g[oi, oj]
                        dw[i, j] += np.outer(x[r, c], g[oi, oj])
    return y, dx, dw, g.reshape(-1, cout).sum(axis=0)


# the model's stride/pad pairs: image stem, strided block conv, stride-1 conv,
# 1x1 projection shortcut; trajectory conv at strides 1 and 2 with pad (K-1)//2;
# a stride-2 conv1d whose last input row lies outside every window; then inputs
# 1 and 2 rows high, where kernel rows read only padding and are left out: the
# image stack's last stage (rows 0 and 2 left out at height 1, row 0 at height 2
# and stride 2), a height-2 stride-1 conv that keeps every row, a 1x1 kernel
# whose one row reads only padding, and pad 2 where rows 0 and 2 read the input
# and row 1 does not
CONV_CASES = [
    pytest.param("conv2d", (9, 11, 2), (3, 3, 2, 4), (2, 1), (1, 1), id="conv2d_s21_p11"),
    pytest.param("conv2d", (9, 11, 2), (3, 3, 2, 4), (2, 2), (1, 1), id="conv2d_s22_p11"),
    pytest.param("conv2d", (9, 11, 2), (3, 3, 2, 4), (1, 1), (1, 1), id="conv2d_s11_p11"),
    pytest.param("conv2d", (9, 11, 2), (1, 1, 2, 4), (2, 2), (0, 0), id="conv2d_k1_s22"),
    pytest.param("conv1d", (1, 12, 3), (3, 3, 4), 1, 1, id="conv1d_s1_p1"),
    pytest.param("conv1d", (1, 12, 3), (3, 3, 4), 2, 1, id="conv1d_s2_p1"),
    pytest.param("conv1d", (1, 12, 3), (3, 3, 4), 2, 0, id="conv1d_s2_p0"),
    pytest.param("conv2d", (1, 7, 3), (3, 3, 3, 4), (1, 1), (1, 1), id="conv2d_h1_s11_p11"),
    pytest.param("conv2d", (2, 7, 3), (3, 3, 3, 4), (2, 1), (1, 1), id="conv2d_h2_s21_p11"),
    pytest.param("conv2d", (2, 7, 3), (3, 3, 3, 4), (1, 1), (1, 1), id="conv2d_h2_s11_p11"),
    pytest.param("conv2d", (1, 7, 3), (1, 1, 3, 4), (2, 2), (1, 1), id="conv2d_h1_k1_s22_p11_no_live_row"),
    pytest.param("conv2d", (1, 7, 3), (3, 3, 3, 4), (2, 1), (2, 1), id="conv2d_h1_s21_p21_rows_0_and_2"),
]


@pytest.mark.parametrize("size,kernel,stride,pad,want", [
    (1, 3, 1, 1, (1, 2)), (2, 3, 2, 1, (1, 3)), (2, 3, 1, 1, (0, 3)), (1, 1, 2, 1, (0, 0)),
    (1, 3, 2, 2, (0, 3)), (12, 3, 2, 0, (0, 3))])
def test_live_taps_is_the_smallest_range_holding_every_tap_that_reads_the_input(size, kernel, stride, pad, want):
    out = ad.conv1d_out_length(size, kernel, stride, pad)
    reads = [i for i in range(kernel) if any(0 <= o * stride + i - pad < size for o in range(out))]
    assert ad._live_taps(size, kernel, stride, pad, out) == want
    assert want == ((reads[0], reads[-1] + 1) if reads else (0, 0))


@pytest.mark.parametrize("op,x_shape,w_shape,stride,pad", CONV_CASES)
def test_conv_matches_loop_oracle_in_float64(op, x_shape, w_shape, stride, pad):
    rng = np.random.default_rng(6)
    xd, wd, bd = rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=w_shape[-1])
    x, w, b = (ad.array(a, requires_grad=True, dtype=np.float64) for a in (xd, wd, bd))
    y = getattr(ad, op)(x, w, b, stride=stride, pad=pad)
    g = rng.normal(size=y.shape)
    ad.backward(asum(ad.mul(y, ad.array(g, dtype=np.float64))))
    if op == "conv1d":  # a height-1 image with one kernel row
        wd, stride, pad = wd[None], (1, stride), (0, pad)
    expected = _conv_loop_oracle(xd, wd, bd, g, stride, pad)
    for got, want in zip((y.data, x.grad, w.grad, b.grad), expected):
        np.testing.assert_allclose(got, want.reshape(got.shape), rtol=0, atol=1e-12)


def test_one_weight_on_inputs_1_and_4_rows_high_gets_both_gradients():
    # the height-1 use writes only kernel row 1 of the gradient, the height-4 use every row
    rng = np.random.default_rng(7)
    wd, bd = rng.normal(size=(3, 3, 2, 4)), rng.normal(size=4)
    w, b = ad.array(wd, requires_grad=True, dtype=np.float64), ad.array(bd, requires_grad=True, dtype=np.float64)
    xds = [rng.normal(size=(h, 5, 2)) for h in (1, 4)]
    xs = [ad.array(xd, requires_grad=True, dtype=np.float64) for xd in xds]
    ys = [ad.conv2d(x, w, b, stride=(1, 1), pad=(1, 1)) for x in xs]
    gs = [rng.normal(size=y.shape) for y in ys]
    ad.backward(ad.add(*(asum(ad.mul(y, ad.array(g, dtype=np.float64))) for y, g in zip(ys, gs))))
    expected = [_conv_loop_oracle(xd, wd, bd, g, (1, 1), (1, 1)) for xd, g in zip(xds, gs)]
    for x, y, (want_y, want_dx, _, _) in zip(xs, ys, expected):
        np.testing.assert_allclose(y.data, want_y, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, want_dx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(w.grad, expected[0][2] + expected[1][2], rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.grad, expected[0][3] + expected[1][3], rtol=0, atol=1e-12)


def test_a_leaf_used_several_times_gets_the_sum_of_its_products():
    # `backward` adds each use's product as the sweep reaches that use
    rng = np.random.default_rng(12)
    w = ad.array(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
    xs = [rng.normal(size=(rows, 3)) for rows in (128, 5, 256)]
    gs = [rng.normal(size=(x.shape[0], 4)) for x in xs]

    def loss(uses):
        terms = [asum(ad.mul(ad.matmul(ad.array(xs[i], dtype=np.float64), w), ad.array(gs[i], dtype=np.float64)))
                 for i in uses]
        return functools.reduce(ad.add, terms)

    for uses in ((0,), (0, 2), (0, 1, 2)):
        w.grad = None
        ad.backward(loss(uses))
        np.testing.assert_allclose(w.grad, sum(xs[i].T @ gs[i] for i in uses), rtol=1e-12, atol=1e-12)


# lengths for which the output-length formula alone would accept these; stride 0
# would divide by zero in the output length
@pytest.mark.parametrize("length,stride,pad", [(2, -1, 0), (6, 1, -1), (6, 0, 0)])
def test_conv_rejects_negative_stride_or_pad(length, stride, pad):
    x, w = ad.array(np.zeros((1, length, 1))), ad.array(np.zeros((3, 1, 1)))
    with pytest.raises(ad.ShapeError, match="conv1d: stride"):
        ad.conv1d(x, w, None, stride=stride, pad=pad)
    x, w = ad.array(np.zeros((length, length, 1))), ad.array(np.zeros((3, 3, 1, 1)))
    with pytest.raises(ad.ShapeError, match="conv2d: stride"):
        ad.conv2d(x, w, None, stride=(stride, 1), pad=(pad, 0))
    with pytest.raises(ad.ShapeError, match="conv2d: stride"):
        ad.conv2d(x, w, None, stride=(1, stride), pad=(0, pad))


def test_conv_of_a_non_contiguous_unpadded_input_reads_its_values():
    # the im2col view addresses memory by strides, so a transposed input must be copied first
    rng = np.random.default_rng(10)
    xd, wd = rng.normal(size=(6, 5, 2)), rng.normal(size=(3, 3, 2, 4))
    x = ad.array(xd.transpose(1, 0, 2), dtype=np.float64)
    assert not x.data.flags.c_contiguous
    y = ad.conv2d(x, ad.array(wd, dtype=np.float64), None)
    want = _conv_loop_oracle(xd.transpose(1, 0, 2), wd, np.zeros(4), np.zeros((3, 4, 4)), (1, 1), (0, 0))[0]
    np.testing.assert_allclose(y.data, want, rtol=0, atol=1e-12)


def test_matmul_against_triple_loop_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    got = ad.matmul(ad.array(a, dtype=np.float64), ad.array(b, dtype=np.float64))
    np.testing.assert_allclose(got.data, expected, rtol=1e-12)


def test_matmul_shape_error_names_kernel_and_shapes():
    a = ad.array(np.zeros((3, 4)))
    b = ad.array(np.zeros((5, 2)))
    with pytest.raises(ad.ShapeError, match=r"matmul.*\(3, 4\).*\(5, 2\)"):
        ad.matmul(a, b)


def gru_by_gate_equations(xs, h0, wx, wh, bx, bh):
    """States after each row of xs, one gate at a time in plain numpy; weights are dicts over r, z, n."""
    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    states, h = [], h0
    for x in xs:
        r = sigmoid(x @ wx["r"] + bx["r"] + h @ wh["r"] + bh["r"])
        z = sigmoid(x @ wx["z"] + bx["z"] + h @ wh["z"] + bh["z"])
        n = np.tanh(x @ wx["n"] + bx["n"] + r * (h @ wh["n"] + bh["n"]))
        h = (1.0 - z) * n + z * h
        states.append(h)
    return np.array(states)


@pytest.mark.parametrize("lengths", [(1,), (6,), (6, 1, 3), (2, 4, 1, 4)],
                         ids=lambda lengths: "-".join(map(str, lengths)))
def test_bigru_matches_gate_equations_in_float64(lengths):
    rng = np.random.default_rng(4)
    d_in, hidden, B, T = 5, 4, len(lengths), max(lengths)
    xs = rng.normal(size=(B, T, d_in))  # padding rows filled with random values too
    h0 = rng.normal(size=(2, hidden))
    cells = [{key: {g: rng.normal(size=shape) for g in "rzn"}
              for key, shape in [("wx", (d_in, hidden)), ("wh", (hidden, hidden)),
                                 ("bx", (hidden,)), ("bh", (hidden,))]} for _ in range(2)]

    def packed(key, axis):
        # forward gate blocks [r | z | n], then the backward direction's
        blocks = [np.concatenate([c[key][g] for g in "rzn"], axis=-1) for c in cells]
        return ad.array(np.concatenate(blocks, axis=axis), dtype=np.float64)

    weights = [ad.array(h0, dtype=np.float64), packed("wx", -1), packed("bx", -1), packed("wh", 0), packed("bh", -1)]
    got = ad.bigru(ad.array(xs, dtype=np.float64), *weights, lengths=lengths).data
    for b, n in enumerate(lengths):
        # each line's forward runs from row 0, its backward from its own last row
        fwd = gru_by_gate_equations(xs[b, :n], h0[0], **cells[0])
        bwd = gru_by_gate_equations(xs[b, :n][::-1], h0[1], **cells[1])[::-1]
        np.testing.assert_allclose(got[b, :n, :hidden], fwd, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[b, :n, hidden:], bwd, rtol=0, atol=1e-12)
        assert not np.any(got[b, n:]), "rows past the length are zero"


@pytest.mark.parametrize("kernel", ["attention", "bigru", "mse"])
def test_a_lone_line_is_refused_a_batch_of_one_is_taken(kernel):
    # one shape, (B, T, .), per kernel: a lone (T, d) line raises, with lengths or without
    rng = np.random.default_rng(6)
    d, H, T = 4, 3, 5
    weights = [ad.array(rng.normal(size=shape)) for shape in [(2, H), (d, 6 * H), (6 * H,), (2 * H, 3 * H), (6 * H,)]]
    run = {
        "attention": (lambda x, lengths: ad.attention(x, 2, lengths), 3 * 2 * 2),
        "bigru": (lambda x, lengths: ad.bigru(x, *weights, lengths), d),
        "mse": (lambda x, lengths: ad.mse(x, x, lengths), d),
    }
    op, width = run[kernel]
    line = rng.normal(size=(T, width))
    for lengths in ([T], None):
        with pytest.raises(ad.ShapeError, match=kernel):
            op(ad.array(line), lengths)
    out = op(ad.array(line[None]), [T])  # the same line as a batch of one
    assert out.shape == {"attention": (1, T, 4), "bigru": (1, T, 2 * H), "mse": ()}[kernel]


def test_bigru_hidden_weight_gradient_is_the_sum_over_uses():
    rng = np.random.default_rng(9)
    d_in, hidden = 3, 4

    def leaf(*shape):
        return ad.array(rng.normal(size=shape), requires_grad=True, dtype=np.float64)

    h0, w_x, b_x, w_h, b_h = leaf(2, hidden), leaf(d_in, 6 * hidden), leaf(6 * hidden), \
        leaf(2 * hidden, 3 * hidden), leaf(6 * hidden)
    uses = [(ad.array(rng.normal(size=(1, steps, d_in)), dtype=np.float64), rng.normal(size=(1, steps, 2 * hidden)))
            for steps in (1, 5, 3)]

    def loss(pairs):
        terms = [asum(ad.mul(ad.bigru(xs, h0, w_x, b_x, w_h, b_h, [xs.shape[1]]), proj)) for xs, proj in pairs]
        return functools.reduce(ad.add, terms)

    per_use = []
    for pair in uses:
        w_h.grad = None
        ad.backward(loss([pair]))
        per_use.append(w_h.grad)
    w_h.grad = None
    ad.backward(loss(uses))  # one backward: the three uses' products add up in one gradient
    np.testing.assert_allclose(w_h.grad, sum(per_use), rtol=1e-12, atol=1e-12)


def _batch_against_each_sequence(kernel, shared, per_seq, lengths_of, proj):
    """Run `kernel` once on a padded batch and once per sequence alone; compare outputs and every gradient.

    `per_seq` holds (B, T, ...) arrays whose sequence b lives in the first
    lengths_of[i][b] rows of array i; the rest is random, so a leak would
    show. `kernel(arrays, lengths)` gets the arrays and one lengths list
    per array; a sequence alone is a batch of one, unpadded. The loss
    projects the output onto `proj` (B, T, width).
    """
    def leaf(a):
        return ad.array(a, requires_grad=True, dtype=np.float64)

    def loss(out, p):
        return asum(ad.mul(out, ad.array(p, dtype=np.float64)))

    batch = [leaf(a) for a in per_seq]
    ad.zero_grads(shared)
    out = kernel(batch, lengths_of)
    ad.backward(loss(out, proj))
    shared_grads = [p.grad.copy() for p in shared]
    summed = [np.zeros_like(p.data) for p in shared]
    for b in range(len(lengths_of[0])):
        n = [lengths[b] for lengths in lengths_of]
        alone = [leaf(a[b:b + 1, :k]) for a, k in zip(per_seq, n)]
        ad.zero_grads(shared)
        got = kernel(alone, [[k] for k in n])
        ad.backward(loss(got, proj[b:b + 1, :n[0]]))
        np.testing.assert_allclose(out.data[b, :n[0]], got.data[0], rtol=0, atol=1e-12)
        assert not np.any(out.data[b, n[0]:]), "output rows past the length are zero"
        for p, total in zip(shared, summed):
            total += p.grad
        for a_batch, a, k in zip(batch, alone, n):
            np.testing.assert_allclose(a_batch.grad[b, :k], a.grad[0], rtol=0, atol=1e-12)
            assert not np.any(a_batch.grad[b, k:]), "padding rows get no gradient"
    for g, total in zip(shared_grads, summed):
        np.testing.assert_allclose(g, total, rtol=0, atol=1e-12)


@pytest.mark.parametrize("lengths", [(5, 1, 3), (1, 1), (4,), (2, 6, 1, 6)])
def test_batched_bigru_matches_each_sequence_alone_in_float64(lengths):
    rng = np.random.default_rng(len(lengths))
    d, hidden, B, T = 4, 3, len(lengths), max(lengths)
    shared = [ad.array(rng.normal(size=shape), requires_grad=True, dtype=np.float64) for shape in
              [(2, hidden), (d, 6 * hidden), (6 * hidden,), (2 * hidden, 3 * hidden), (6 * hidden,)]]

    def kernel(arrays, lengths):
        return ad.bigru(arrays[0], *shared, lengths=lengths[0])

    _batch_against_each_sequence(kernel, shared, [rng.normal(size=(B, T, d))], [lengths],
                                 rng.normal(size=(B, T, 2 * hidden)))


@pytest.mark.parametrize("lengths,frames", [((3, 1, 2), (4, 1, 2)), ((1, 1), (1, 3)), ((2,), (3,)),
                                            ((1, 4, 4), (5, 5, 2))])
def test_batched_attention_gru_matches_each_sequence_alone_in_float64(lengths, frames):
    rng = np.random.default_rng(len(lengths) + 10)
    hidden, dk, B, T, tk = 3, 4, len(lengths), max(lengths), max(frames)
    shared = [ad.array(rng.normal(size=shape), requires_grad=True, dtype=np.float64) for shape in
              [(1, hidden), (hidden, dk), (hidden, 3 * hidden), (3 * hidden,), (hidden, 3 * hidden), (3 * hidden,)]]

    def kernel(arrays, lengths):
        h0, wq, *gru = shared
        return ad.attention_gru(arrays[0], h0, wq, *arrays[1:], *gru, lengths=lengths[0], frames=lengths[1])

    per_seq = [rng.normal(size=shape) for shape in [(B, T, hidden), (B, tk, dk), (B, tk, hidden)]]
    _batch_against_each_sequence(kernel, shared, per_seq, [lengths, frames, frames],
                                 rng.normal(size=(B, T, hidden)))


def test_backward_sum_gives_ones():
    x = ad.array(np.random.default_rng(0).normal(size=(2, 3, 4)), requires_grad=True)
    ad.backward(asum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4), dtype=np.float32))


def test_backward_mse_at_minimum_gives_zeros():
    values = np.random.default_rng(1).normal(size=(1, 4, 4)).astype(np.float32)
    x = ad.array(values, requires_grad=True)
    loss = ad.mse(x, ad.array(values), [4])
    ad.backward(loss)
    assert loss.data == 0.0
    np.testing.assert_array_equal(x.grad, np.zeros_like(values))


def test_backward_rejects_non_scalar_loss():
    x = ad.array(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ad.ShapeError, match="scalar"):
        ad.backward(ad.relu(x))


def test_gradients_accumulate_across_uses():
    values = np.random.default_rng(2).normal(size=(3,)).astype(np.float32)
    x = ad.array(values, requires_grad=True)
    ad.backward(asum(ad.add(ad.mul(x, x), x)))
    both = x.grad.copy()

    x1 = ad.array(values, requires_grad=True)
    ad.backward(asum(ad.mul(x1, x1)))
    x2 = ad.array(values, requires_grad=True)
    ad.backward(asum(x2))
    np.testing.assert_allclose(both, x1.grad + x2.grad, rtol=1e-6)


def _graph(loss):
    """Every array the loss was computed from, the loss included."""
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node.parents)
    return list(nodes.values())


def _chain(rng):
    x = ad.array(rng.normal(size=(1, 12, 3)), requires_grad=True)
    w1, w2 = (ad.array(rng.normal(size=(3, 3, 3)), requires_grad=True) for _ in range(2))
    h = ad.relu(ad.conv1d(x, w1, ad.array(np.zeros(3), requires_grad=True), pad=1))
    return asum(ad.relu(ad.conv1d(h, w2, None, stride=2, pad=1)))


@pytest.mark.parametrize("build", [
    lambda rng: (lambda a: asum(ad.add(a, a)))(ad.array(rng.normal(size=(4, 3)), requires_grad=True)),
    lambda rng: ad.mse(*(ad.array(rng.normal(size=(1, 4, 3)), requires_grad=True) for _ in range(2)), [4]),
    _chain,
], ids=["add_a_a", "mse", "conv_relu_chain"])
def test_no_two_gradients_share_memory(build):
    # a kernel's fresh gradient is kept, not copied; `add` hands one gradient to both its parents
    loss = build(np.random.default_rng(4))
    ad.backward(loss)
    grads = [node.grad for node in _graph(loss) if node.grad is not None]
    assert len(grads) >= 3
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


def test_acc_copies_a_fresh_gradient_of_another_dtype():
    x = ad.array(np.ones(3), requires_grad=True, dtype=np.float32)
    g = np.ones(3, dtype=np.float64)
    ad._acc(x, g, fresh=True)
    assert x.grad.dtype == np.float32 and not np.shares_memory(x.grad, g)


def test_stop_gradient_identity_and_blocking():
    values = np.random.default_rng(3).normal(size=(1, 4, 2)).astype(np.float32)
    x = ad.array(values, requires_grad=True)
    sg = ad.stop_gradient(x)
    assert np.array_equal(sg.data, values)
    assert not sg.requires_grad

    y = ad.array(values + 1.0, requires_grad=True)
    ad.backward(ad.mse(y, sg, [4]))
    assert x.grad is None
    assert y.grad is not None


def test_add_refuses_a_bias_broadcast():
    # a bias goes into `matmul`; `add` takes equal shapes only
    x = ad.array(np.zeros((3, 4)))
    with pytest.raises(ad.ShapeError, match=r"add: incompatible shapes \(3, 4\) and \(4,\)"):
        ad.add(x, ad.array(np.ones(4)))


def test_matmul_bias_is_added_to_every_row_in_one_node():
    rng = np.random.default_rng(5)
    a, w, b = (ad.array(rng.normal(size=shape), requires_grad=True, dtype=np.float64)
               for shape in ((3, 4), (4, 2), (2,)))
    y = ad.matmul(a, w, b)
    np.testing.assert_array_equal(y.data, a.data @ w.data + b.data)
    assert y.op == "matmul" and y.parents == (a, w, b)
    g = rng.normal(size=(3, 2))
    ad.backward(asum(ad.mul(y, g)))
    np.testing.assert_allclose(b.grad, g.sum(axis=0), rtol=1e-12)
    np.testing.assert_allclose(w.grad, a.data.T @ g, rtol=1e-12)
    np.testing.assert_allclose(a.grad, g @ w.data.T, rtol=1e-12)
    with pytest.raises(ad.ShapeError, match="bias"):
        ad.matmul(a, w, ad.array(np.ones(3)))


def test_interp_rows_clamps_and_matches_grid_points():
    feat = ad.array(np.arange(12, dtype=np.float32).reshape(4, 3))
    out = ad.interp_rows(feat, [0.0, 2.0, -5.0, 99.0, 1.5])
    np.testing.assert_allclose(out.data[0], feat.data[0])
    np.testing.assert_allclose(out.data[1], feat.data[2])
    np.testing.assert_allclose(out.data[2], feat.data[0])   # clamped low
    np.testing.assert_allclose(out.data[3], feat.data[3])   # clamped high
    np.testing.assert_allclose(out.data[4], 0.5 * (feat.data[1] + feat.data[2]))


# ---------------------------------------------------------------------------
# optimizer


def _param(value):
    return ad.array(np.asarray(value, dtype=np.float32), requires_grad=True)


def test_adam_zero_gradient_leaves_parameters_unchanged():
    p = _param([1.5, -2.0])
    params = {"w": p}
    state = ad.AdamState(params)
    p.grad = np.zeros(2, dtype=np.float32)
    ad.adam_step(params, state, lr=0.1)
    np.testing.assert_array_equal(p.data, np.array([1.5, -2.0], dtype=np.float32))
    assert state.step == 1


def test_adam_single_step_matches_hand_computation():
    p = _param([1.0])
    params = {"w": p}
    state = ad.AdamState(params)
    p.grad = np.ones(1, dtype=np.float32)
    ad.adam_step(params, state, lr=0.1)
    # m=0.1, v=0.001; bias-corrected both become 1.0; update = 0.1/(1+eps)
    expected = 1.0 - 0.1 * 1.0 / (1.0 + 1e-8)
    assert abs(float(p.data[0]) - expected) < 1e-7


def test_adam_rejects_nan_gradient_with_parameter_name():
    p = _param([1.0])
    params = {"w_bad": p}
    state = ad.AdamState(params)
    p.grad = np.array([np.nan], dtype=np.float32)
    with pytest.raises(ValueError, match="w_bad"):
        ad.adam_step(params, state, lr=0.1)
    # rejected step must leave everything untouched
    assert state.step == 0
    assert float(p.data[0]) == 1.0


def _adam_by_formula(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam step on copies, as whole-array expressions."""
    p, m, v = p.copy(), m.copy(), v.copy()
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    p -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
    return p, m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_blocks_equals_the_whole_array_formula_bit_for_bit(dtype):
    rng = np.random.default_rng(11)
    block = ad._ADAM_BLOCK
    # longer than a block, exactly a block, a scalar, then two that straddle a block boundary
    values = [rng.normal(size=(3, block // 2 + 5)), rng.normal(size=block), rng.normal(size=()),
              rng.normal(size=block - 3), rng.normal(size=7)]
    params = {f"p{i}": ad.array(v, requires_grad=True, dtype=dtype) for i, v in enumerate(values)}
    state = ad.AdamState(params)
    blocks_of = [{lo for lo, _, pieces in state.blocks for piece in pieces if piece[0] == i} for i in range(5)]
    assert [len(b) for b in blocks_of] == [2, 2, 1, 2, 1]  # p0, p1 and p3 are cut between two blocks
    want = {name: (p.data.copy(), state.m[name].copy(), state.v[name].copy()) for name, p in params.items()}
    for step, lr in enumerate((1e-3, 3e-3, 2e-3), start=1):
        for name, p in params.items():
            p.grad = rng.normal(size=p.shape).astype(dtype)
            pw, mw, vw = want[name]
            want[name] = _adam_by_formula(pw, p.grad, mw, vw, step, lr)
        ad.adam_step(params, state, lr=lr)
        for name, p in params.items():
            for got, expected in zip((p.data, state.m[name], state.v[name]), want[name]):
                assert got.dtype == dtype and got.tobytes() == expected.tobytes(), name


def test_adam_nan_in_the_last_tensor_leaves_every_tensor_untouched():
    rng = np.random.default_rng(13)
    params = {name: _param(rng.normal(size=n)) for name, n in (("big", ad._ADAM_BLOCK + 7), ("small", 3))}
    state = ad.AdamState(params)
    for p in params.values():
        p.grad = rng.normal(size=p.shape).astype(np.float32)
    ad.adam_step(params, state, lr=0.1)
    before = {name: (p.data.copy(), state.m[name].copy(), state.v[name].copy()) for name, p in params.items()}
    params["small"].grad[-1] = np.nan
    with pytest.raises(ValueError, match="small"):
        ad.adam_step(params, state, lr=0.1)
    assert state.step == 1
    for name, p in params.items():
        for got, kept in zip((p.data, state.m[name], state.v[name]), before[name]):
            np.testing.assert_array_equal(got, kept)


def _recognizer(dtype):
    lines = synth_generate(DEFAULT_ALPHABET, 4, np.random.default_rng(2), length_range=(2, 3))
    return Recognizer(EncoderConfig(d=64), AlignConfig(), build_vocab(lines), seed=3, dtype=dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grouped_adam_on_a_d64_recognizer_equals_the_formula_per_tensor_bit_for_bit(dtype):
    rng = np.random.default_rng(21)
    params = _recognizer(dtype).params
    state = ad.AdamState(params)
    want = {name: (p.data.copy(), state.m[name].copy(), state.v[name].copy()) for name, p in params.items()}
    for step, lr in enumerate((1e-3, 3e-3, 2e-3), start=1):
        for name, p in params.items():
            p.grad = rng.normal(scale=1e-2, size=p.shape).astype(dtype)
            pw, mw, vw = want[name]
            want[name] = _adam_by_formula(pw, p.grad, mw, vw, step, lr)
        ad.adam_step(params, state, lr=lr)
        for name, p in params.items():
            for got, expected in zip((p.data, state.m[name], state.v[name]), want[name]):
                assert got.dtype == dtype and got.tobytes() == expected.tobytes(), name
    for name in params:  # the moments are views of the flat buffers
        for a, flat in zip((state.m[name], state.v[name]), (state.m_flat, state.v_flat)):
            assert np.shares_memory(a, flat)
    # the pieces cover each flat element once, in order: the i-th tensor's elements a:b are its moments' slot
    starts = np.cumsum([0] + [p.data.size for p in params.values()])
    covered = []
    for lo, hi, pieces in state.blocks:
        assert 0 < hi - lo <= ad._ADAM_BLOCK and sum(b - a for _, a, b, _ in pieces) == hi - lo
        for i, a, b, at in pieces:
            assert 0 <= a < b <= starts[i + 1] - starts[i] and starts[i] + a == lo + at
            covered.append(np.arange(lo + at, lo + at + b - a))
    np.testing.assert_array_equal(np.concatenate(covered), np.arange(state.m_flat.size))


def _mixed_params(rng, dtype):
    """Tensors of one dtype: a matrix, one larger than a block, a vector and a scalar."""
    params = {"a": ad.array(rng.normal(size=(3, 5)), requires_grad=True, dtype=dtype),
              "big": ad.array(rng.normal(size=ad._ADAM_BLOCK + 7), requires_grad=True, dtype=dtype),
              "b": ad.array(rng.normal(size=7), requires_grad=True, dtype=dtype),
              "c": ad.array(rng.normal(size=()), requires_grad=True, dtype=dtype)}
    for p in params.values():
        p.grad = rng.normal(size=p.shape).astype(p.dtype)
    return params


def _snapshot(params, state):
    return {name: (p.data.copy(), state.m[name].copy(), state.v[name].copy()) for name, p in params.items()}


@pytest.mark.parametrize("bad", ["a", "b", "c"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_nan_in_a_grouped_tensor_names_it_and_leaves_every_tensor_and_moment_untouched(dtype, bad):
    rng = np.random.default_rng(23)
    params = _mixed_params(rng, dtype)
    state = ad.AdamState(params)
    for step in (1, 2):  # a rejected first step, then a rejected later one
        before = _snapshot(params, state)
        params[bad].grad[...] = np.nan
        with pytest.raises(ValueError, match=f"'{bad}'"):
            ad.adam_step(params, state, lr=0.1)
        assert state.step == step - 1
        for name, p in params.items():
            for got, kept in zip((p.data, state.m[name], state.v[name]), before[name]):
                np.testing.assert_array_equal(got, kept)
        params[bad].grad[...] = 0.5
        ad.adam_step(params, state, lr=0.1)
        assert state.step == step


def test_a_gradient_that_overflows_its_groups_dtype_is_rejected_by_name():
    params = {"w": _param([1.0, 2.0])}
    state = ad.AdamState(params)
    params["w"].grad = np.array([1e300, 0.0])  # finite in float64, inf in the float32 state
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="'w'"):
        ad.adam_step(params, state, lr=0.1)
    assert state.step == 0 and params["w"].data.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_uses_a_gradient_assigned_to_p_grad_and_counts_a_missing_one_as_zeros(dtype):
    rng = np.random.default_rng(25)
    params = _mixed_params(rng, dtype)
    state = ad.AdamState(params)
    ad.adam_step(params, state, lr=1e-2)
    want = _snapshot(params, state)
    for name, p in params.items():
        p.grad = None if name in ("a", "big") else rng.normal(size=p.shape).astype(p.dtype)  # new arrays
        pw, mw, vw = want[name]
        want[name] = _adam_by_formula(pw, np.zeros_like(pw) if p.grad is None else p.grad, mw, vw, 2, 1e-2)
    ad.adam_step(params, state, lr=1e-2)
    for name, p in params.items():
        for got, expected in zip((p.data, state.m[name], state.v[name]), want[name]):
            assert got.tobytes() == expected.tobytes(), name


def test_adam_refuses_a_params_dict_other_than_its_states():
    params = {"w": _param([1.0, 2.0])}
    state = ad.AdamState(params)
    params["w"].grad = np.ones(2, dtype=np.float32)
    with pytest.raises(ValueError, match="AdamState"):
        ad.adam_step(dict(params), state, lr=0.1)
    assert state.step == 0 and params["w"].data.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_updates_a_rebound_parameter_of_a_group_and_refuses_a_reshaped_one(dtype):
    rng = np.random.default_rng(27)
    params = _mixed_params(rng, dtype)
    state = ad.AdamState(params)
    ad.adam_step(params, state, lr=1e-2)
    p = params["a"]
    p.data = rng.normal(size=p.shape).astype(dtype)  # as training restores its last-good weights
    want = _adam_by_formula(p.data, p.grad, state.m["a"], state.v["a"], 2, 1e-2)
    ad.adam_step(params, state, lr=1e-2)
    for got, expected in zip((p.data, state.m["a"], state.v["a"]), want):
        assert got.tobytes() == expected.tobytes()
    before = _snapshot(params, state)
    p.data = np.zeros((5, 3), dtype=dtype)
    p.grad = np.zeros((5, 3), dtype=dtype)
    with pytest.raises(ad.ShapeError, match="'a'"):
        ad.adam_step(params, state, lr=1e-2)
    assert state.step == 2
    for name in ("big", "b", "c"):
        for got, kept in zip((params[name].data, state.m[name], state.v[name]), before[name]):
            np.testing.assert_array_equal(got, kept)


def test_adam_state_refuses_parameters_of_two_dtypes():
    params = {"w32": _param([1.0, 2.0]), "w64": ad.array([3.0], requires_grad=True, dtype=np.float64)}
    with pytest.raises(ValueError, match="more than one dtype"):
        ad.AdamState(params)


def test_adam_state_over_no_parameters_counts_its_steps():
    params = {}
    state = ad.AdamState(params)
    ad.adam_step(params, state, lr=0.1)
    assert state.step == 1 and state.blocks == [] and state.m_flat.size == 0


@pytest.mark.parametrize("when", ["at construction", "rebound later"])
def test_adam_refuses_a_transposed_parameter_by_name_and_changes_nothing(when):
    rng = np.random.default_rng(29)
    params = _mixed_params(rng, np.float32)
    params["t"] = ad.array(rng.normal(size=(6, 4)), requires_grad=True)
    if when == "at construction":
        params["t"].data = params["t"].data.reshape(4, 6).T
    state = ad.AdamState(params)
    params["t"].grad = rng.normal(size=params["t"].shape).astype(np.float32)
    if when == "rebound later":
        ad.adam_step(params, state, lr=1e-2)
        params["t"].data = np.ascontiguousarray(params["t"].data.T).T  # its shape, without a flat view
    assert params["t"].data.shape == (6, 4) and not params["t"].data.flags.c_contiguous
    before, step = _snapshot(params, state), state.step
    with pytest.raises(ValueError, match="'t' has no flat view"):
        ad.adam_step(params, state, lr=1e-2)
    assert state.step == step
    for name, p in params.items():
        for got, kept in zip((p.data, state.m[name], state.v[name]), before[name]):
            assert got.tobytes() == kept.tobytes(), name


def test_adam_is_deterministic():
    def run():
        rng = np.random.default_rng(9)
        p = _param(rng.normal(size=(1, 1, 8)))
        params = {"w": p}
        state = ad.AdamState(params)
        for step in range(5):
            loss = ad.mse(p, ad.array(np.zeros((1, 1, 8), dtype=np.float32)), [1])
            ad.zero_grads([p])
            ad.backward(loss)
            ad.adam_step(params, state, lr=0.05)
        return p.data.copy()

    np.testing.assert_array_equal(run(), run())


def test_cosine_schedule_endpoints_and_midpoint():
    assert ad.cosine_lr(0, 100, 2e-4, 2e-7) == pytest.approx(2e-4)
    assert ad.cosine_lr(100, 100, 2e-4, 2e-7) == pytest.approx(2e-7)
    assert ad.cosine_lr(50, 100, 2e-4, 2e-7) == pytest.approx((2e-4 + 2e-7) / 2)
    assert ad.cosine_lr(150, 100, 2e-4, 2e-7) == 2e-7  # clamped past the end
    with pytest.raises(ValueError):
        ad.cosine_lr(0, 100, 1e-7, 2e-7)


def test_clip_grads_scales_to_max_norm():
    p = _param(np.zeros(4))
    p.grad = np.full(4, 10.0, dtype=np.float32)
    norm = ad.clip_grads({"w": p}, max_norm=5.0)
    assert norm == pytest.approx(20.0)
    assert np.linalg.norm(p.grad) == pytest.approx(5.0, rel=1e-6)


def test_clip_grads_keeps_a_finite_gradient_whose_squares_overflow_float32():
    # 1e20 squared is 1e40, past float32's 3.4e38: the one-pass float32 sum is inf
    p = _param(np.zeros((3, 4)))
    p.grad = np.full((3, 4), 1e20, dtype=np.float32)
    q = _param(np.zeros(2))
    q.grad = np.full(2, 1.0, dtype=np.float32)
    norm = ad.clip_grads({"w": p, "b": q}, max_norm=5.0)
    assert np.isfinite(norm)
    assert norm == pytest.approx(math.sqrt(12 * 1e40 + 2), rel=1e-6)
    clipped = np.linalg.norm(np.concatenate([p.grad.ravel(), q.grad.ravel()]).astype(np.float64))
    assert clipped == pytest.approx(5.0, rel=1e-6)


def test_clip_grads_leaves_non_finite_gradients_for_the_caller():
    for bad in (np.inf, np.nan):
        p = _param(np.zeros(3))
        p.grad = np.array([1.0, bad, 1e20], dtype=np.float32)
        assert not math.isfinite(ad.clip_grads({"w": p}, max_norm=5.0))
        assert p.grad[0] == 1.0


def _two_use_loss(x, w, raising=False):
    """sum(x @ w) + sum(tanh(x) @ w): w has two matmul uses; tanh's backward can be made to raise.

    The reverse sweep reaches both matmuls before tanh.
    """
    h = tanh(x)
    if raising:
        def fail(g):
            raise RuntimeError("backward_fn failed")
        h.backward_fn = fail
    return ad.add(asum(ad.matmul(x, w)), asum(ad.matmul(h, w)))


def test_a_raising_backward_leaves_nothing_queued_for_the_next_one():
    rng = np.random.default_rng(4)
    x = ad.array(rng.normal(size=(5, 3)), requires_grad=True, dtype=np.float64)
    w = ad.array(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
    ad.backward(_two_use_loss(x, w))
    clean = (x.grad.copy(), w.grad.copy())

    ad.zero_grads([x, w])
    with pytest.raises(RuntimeError, match="backward_fn failed"):
        ad.backward(_two_use_loss(x, w, raising=True))  # tanh's backward runs after w's products are formed
    # the two products formed before the error stay in the gradient
    ones = np.ones((5, 4))
    np.testing.assert_array_equal(w.grad, np.tanh(x.data).T @ ones + x.data.T @ ones)
    # outside backward() a node's backward_fn run by hand accumulates at once
    ad.zero_grads([w])
    y = ad.matmul(x, w)
    y.backward_fn(np.ones(y.shape))
    np.testing.assert_array_equal(w.grad, x.data.T @ np.ones(y.shape))

    ad.zero_grads([x, w])
    ad.backward(_two_use_loss(x, w))
    np.testing.assert_array_equal(x.grad, clean[0])
    np.testing.assert_array_equal(w.grad, clean[1])
