"""Engine-level contracts: kernels, backward, stop-gradient, Adam, schedule."""

import functools
import math

import numpy as np
import pytest

from penrec import autodiff as ad


def test_softmax_symmetry():
    out = ad.softmax(ad.array([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_conv1d_output_length_formula():
    x = ad.array(np.random.default_rng(0).normal(size=(16, 2)))
    w = ad.array(np.random.default_rng(1).normal(size=(3, 2, 5)))
    out = ad.conv1d(x, w, None, stride=2, pad=1)
    assert out.shape == (8, 5)
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
# and a stride-2 conv1d whose last input row lies outside every window
CONV_CASES = [
    pytest.param("conv2d", (9, 11, 2), (3, 3, 2, 4), (2, 1), (1, 1), id="conv2d_s21_p11"),
    pytest.param("conv2d", (9, 11, 2), (3, 3, 2, 4), (2, 2), (1, 1), id="conv2d_s22_p11"),
    pytest.param("conv2d", (9, 11, 2), (3, 3, 2, 4), (1, 1), (1, 1), id="conv2d_s11_p11"),
    pytest.param("conv2d", (9, 11, 2), (1, 1, 2, 4), (2, 2), (0, 0), id="conv2d_k1_s22"),
    pytest.param("conv1d", (12, 3), (3, 3, 4), 1, 1, id="conv1d_s1_p1"),
    pytest.param("conv1d", (12, 3), (3, 3, 4), 2, 1, id="conv1d_s2_p1"),
    pytest.param("conv1d", (12, 3), (3, 3, 4), 2, 0, id="conv1d_s2_p0"),
]


@pytest.mark.parametrize("op,x_shape,w_shape,stride,pad", CONV_CASES)
def test_conv_matches_loop_oracle_in_float64(op, x_shape, w_shape, stride, pad):
    rng = np.random.default_rng(6)
    xd, wd, bd = rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=w_shape[-1])
    x, w, b = (ad.array(a, requires_grad=True, dtype=np.float64) for a in (xd, wd, bd))
    y = getattr(ad, op)(x, w, b, stride=stride, pad=pad)
    g = rng.normal(size=y.shape)
    ad.backward(ad.asum(ad.mul(y, ad.array(g, dtype=np.float64))))
    if op == "conv1d":  # a height-1 image
        xd, wd, g, stride, pad = xd[None], wd[None], g[None], (1, stride), (0, pad)
    expected = _conv_loop_oracle(xd, wd, bd, g, stride, pad)
    for got, want in zip((y.data, x.grad, w.grad, b.grad), expected):
        np.testing.assert_allclose(got, want.reshape(got.shape), rtol=0, atol=1e-12)


# lengths for which the output-length formula alone would accept these
@pytest.mark.parametrize("length,stride,pad", [(2, -1, 0), (6, 1, -1)])
def test_conv_rejects_negative_stride_or_pad(length, stride, pad):
    x, w = ad.array(np.zeros((length, 1))), ad.array(np.zeros((3, 1, 1)))
    with pytest.raises(ad.ShapeError, match="conv1d: stride"):
        ad.conv1d(x, w, None, stride=stride, pad=pad)


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


@pytest.mark.parametrize("steps", [1, 6])
def test_bigru_matches_gate_equations_in_float64(steps):
    rng = np.random.default_rng(4)
    d_in, hidden = 5, 4
    xs = rng.normal(size=(steps, d_in))
    h0 = rng.normal(size=(2, hidden))
    cells = [{key: {g: rng.normal(size=shape) for g in "rzn"}
              for key, shape in [("wx", (d_in, hidden)), ("wh", (hidden, hidden)),
                                 ("bx", (hidden,)), ("bh", (hidden,))]} for _ in range(2)]

    def packed(key, axis):
        # forward gate blocks [r | z | n], then the backward direction's
        blocks = [np.concatenate([c[key][g] for g in "rzn"], axis=-1) for c in cells]
        return ad.array(np.concatenate(blocks, axis=axis), dtype=np.float64)

    got = ad.bigru(ad.array(xs, dtype=np.float64), ad.array(h0, dtype=np.float64),
                   packed("wx", -1), packed("bx", -1), packed("wh", 0), packed("bh", -1)).data
    fwd = gru_by_gate_equations(xs, h0[0], **cells[0])
    bwd = gru_by_gate_equations(xs[::-1], h0[1], **cells[1])[::-1]
    np.testing.assert_allclose(got[:, :hidden], fwd, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[:, hidden:], bwd, rtol=0, atol=1e-12)


@pytest.mark.parametrize("h_shape,w_shape", [((4,), (4, 6)), ((2, 4), (2, 4, 6))], ids=["one", "per_direction"])
def test_recurrent_row_products_match_einsum(h_shape, w_shape):
    # the matmul form runs where numpy has no vecmat (before 2.2)
    rng = np.random.default_rng(8)
    h, w = rng.normal(size=h_shape), rng.normal(size=w_shape)
    want = np.einsum("...h,...hk->...k", h, w)
    for product in (ad._rows_times, ad._rows_times_by_matmul):
        np.testing.assert_allclose(product(h, w), want, rtol=1e-12, atol=1e-12)


def test_bigru_deferred_hidden_weight_gradient_is_the_sum_over_uses():
    rng = np.random.default_rng(9)
    d_in, hidden = 3, 4

    def leaf(*shape):
        return ad.array(rng.normal(size=shape), requires_grad=True, dtype=np.float64)

    h0, w_x, b_x, w_h, b_h = leaf(2, hidden), leaf(d_in, 6 * hidden), leaf(6 * hidden), \
        leaf(2 * hidden, 3 * hidden), leaf(6 * hidden)
    uses = [(ad.array(rng.normal(size=(steps, d_in)), dtype=np.float64), rng.normal(size=(steps, 2 * hidden)))
            for steps in (1, 5, 3)]

    def loss(pairs):
        terms = [ad.asum(ad.mul(ad.bigru(xs, h0, w_x, b_x, w_h, b_h), proj)) for xs, proj in pairs]
        return functools.reduce(ad.add, terms)

    per_use = []
    for pair in uses:
        w_h.grad = None
        ad.backward(loss([pair]))
        per_use.append(w_h.grad)
    w_h.grad = None
    ad.backward(loss(uses))  # one backward: the three uses' products are queued and formed together
    np.testing.assert_allclose(w_h.grad, sum(per_use), rtol=1e-12, atol=1e-12)


def test_backward_sum_gives_ones():
    x = ad.array(np.random.default_rng(0).normal(size=(2, 3, 4)), requires_grad=True)
    ad.backward(ad.asum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4), dtype=np.float32))


def test_backward_mse_at_minimum_gives_zeros():
    values = np.random.default_rng(1).normal(size=(4, 4)).astype(np.float32)
    x = ad.array(values, requires_grad=True)
    loss = ad.mse(x, ad.array(values))
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
    ad.backward(ad.asum(ad.add(ad.mul(x, x), x)))
    both = x.grad.copy()

    x1 = ad.array(values, requires_grad=True)
    ad.backward(ad.asum(ad.mul(x1, x1)))
    x2 = ad.array(values, requires_grad=True)
    ad.backward(ad.asum(x2))
    np.testing.assert_allclose(both, x1.grad + x2.grad, rtol=1e-6)


def test_stop_gradient_identity_and_blocking():
    values = np.random.default_rng(3).normal(size=(4, 2)).astype(np.float32)
    x = ad.array(values, requires_grad=True)
    sg = ad.stop_gradient(x)
    assert np.array_equal(sg.data, values)
    assert not sg.requires_grad

    y = ad.array(values + 1.0, requires_grad=True)
    ad.backward(ad.mse(y, sg))
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
    ad.backward(ad.asum(ad.mul(y, g)))
    np.testing.assert_allclose(b.grad, g.sum(axis=0), rtol=1e-12)
    np.testing.assert_allclose(w.grad, a.data.T @ g, rtol=1e-12)
    np.testing.assert_allclose(a.grad, g @ w.data.T, rtol=1e-12)
    with pytest.raises(ad.ShapeError, match="bias"):
        ad.matmul(a, w, ad.array(np.ones(3)))


def test_validation_mode_rejects_non_finite():
    ad.set_validation(True)
    try:
        bad = ad.array([np.inf, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            ad.relu(bad)
        # every input of a kernel is checked, a convolution's bias included
        x, w = ad.array(np.ones((5, 6, 2))), ad.array(np.ones((3, 3, 2, 3)))
        with pytest.raises(ValueError, match="conv2d: non-finite"):
            ad.conv2d(x, w, ad.array([0.0, np.nan, 0.0]), pad=(1, 1))
    finally:
        ad.set_validation(False)


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
    state = ad.AdamState(params, beta1=0.9, beta2=0.999, epsilon=1e-8)
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


def test_adam_is_deterministic():
    def run():
        rng = np.random.default_rng(9)
        p = _param(rng.normal(size=8))
        params = {"w": p}
        state = ad.AdamState(params)
        for step in range(5):
            loss = ad.mse(p, ad.array(np.zeros(8, dtype=np.float32)))
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
    """sum(tanh(x) @ w) + sum(x @ w): w has two deferred uses; tanh's backward can be made to raise."""
    h = ad.tanh(x)
    if raising:
        def fail(g):
            raise RuntimeError("backward_fn failed")
        h.backward_fn = fail
    return ad.add(ad.asum(ad.matmul(h, w)), ad.asum(ad.matmul(x, w)))


def test_a_raising_backward_leaves_nothing_queued_for_the_next_one():
    rng = np.random.default_rng(4)
    x = ad.array(rng.normal(size=(5, 3)), requires_grad=True, dtype=np.float64)
    w = ad.array(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
    ad.backward(_two_use_loss(x, w))
    clean = (x.grad.copy(), w.grad.copy())

    ad.zero_grads([x, w])
    with pytest.raises(RuntimeError, match="backward_fn failed"):
        ad.backward(_two_use_loss(x, w, raising=True))  # tanh's backward runs after w's products are queued
    assert w.grad is None  # what was queued is dropped, not flushed
    # outside backward() nothing is queued: a node's backward_fn run by hand accumulates at once
    y = ad.matmul(x, w)
    y.backward_fn(np.ones(y.shape))
    np.testing.assert_array_equal(w.grad, x.data.T @ np.ones(y.shape))

    ad.zero_grads([x, w])
    ad.backward(_two_use_loss(x, w))
    np.testing.assert_array_equal(x.grad, clean[0])
    np.testing.assert_array_equal(w.grad, clean[1])
