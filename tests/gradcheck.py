"""Finite-difference gradient checking for the engine and its composites.

`check` compares reverse-mode gradients against central differences on a
probed subset of elements, in float64 (float32 differencing is too noisy
for tight tolerances). `standard_battery` enumerates every kernel plus the
composite blocks the model is built from; the test suite and the acceptance
gate both run it. Also holds `sigmoid`, `tanh`, `softmax` and `asum`, the
kernels only tests compose reference paths from, `as_batch` and `lone`
between a lone sequence and a batch of one, `step_logits`, greedy
decoding's per-token reference, and the tiny model and sequence the tests
share.
"""

from __future__ import annotations

import numpy as np

from penrec import autodiff as ad
from penrec.alignment import align_loss
from penrec.autodiff import DiffArray
from penrec.config import AlignConfig, EncoderConfig
from penrec.data import EOS, TrajectorySequence, Vocabulary, normalize
from penrec.decoder import AttentionDecoder
from penrec.encoders import Conv1dStack
from penrec.layers import BiGRUStack, ParamStore, TransformerLayer
from penrec.model import Recognizer

F64 = np.float64


# Kernels no model path calls, for reference compositions in tests. They make their nodes through
# `ad._make` looked up at call time, so a patched `_make` sees them as it sees the engine's own.


def sigmoid(x: DiffArray) -> DiffArray:
    y = ad._sigmoid(x.data)

    def back(g):
        ad._acc(x, g * y * (1.0 - y))

    return ad._make(y, (x,), "sigmoid", back)


def tanh(x: DiffArray) -> DiffArray:
    y = np.tanh(x.data)

    def back(g):
        ad._acc(x, g * (1.0 - y * y))

    return ad._make(y, (x,), "tanh", back)


def softmax(x: DiffArray) -> DiffArray:
    """Softmax along the last axis."""
    y = ad._softmax(x.data)

    def back(g):
        ad._acc(x, ad._softmax_back(y, g))

    return ad._make(y, (x,), "softmax", back)


def asum(x: DiffArray) -> DiffArray:
    y = x.data.sum()

    def back(g):
        ad._acc(x, np.full(x.shape, g, dtype=x.dtype))

    return ad._make(y, (x,), "sum", back)


def as_batch(x: DiffArray) -> DiffArray:
    """A lone (T, d) sequence as a batch of one, (1, T, d): one `gather_rows` node."""
    return ad.gather_rows(x, [np.arange(x.shape[0])])


def lone(x: DiffArray) -> DiffArray:
    """A batch of one, (1, T, d), as its lone (T, d) sequence: one `gather_rows` node."""
    return ad.gather_rows(x, np.arange(x.shape[1]))


def step_logits(dec: AttentionDecoder, prev_token: int, state: DiffArray, f_enc: DiffArray,
                attn_sink: list | None = None) -> tuple[DiffArray, DiffArray]:
    """Logits (1, V) and the new state (1, d) after `prev_token`: one decoder step over the (T, d) frames f_enc.

    Runs `dec._run` on the line as a batch of one; `attn_sink`, when given,
    receives the step's (1, T) attention weights.
    """
    frames = as_batch(f_enc)
    sink = None if attn_sink is None else []
    logits, states = dec._run([[prev_token]], state, frames, dec.keys(frames), [1], [f_enc.shape[0]], sink)
    if attn_sink is not None:
        attn_sink.extend(a[0] for a in sink)
    return lone(logits), lone(states)


def numeric_grad_at(f, arr: DiffArray, index, h: float = 1e-5) -> float:
    flat = arr.data.reshape(-1)
    orig = flat[index]
    flat[index] = orig + h
    hi = float(f().data)
    flat[index] = orig - h
    lo = float(f().data)
    flat[index] = orig
    return (hi - lo) / (2.0 * h)


def check(f, wrt, rng: np.random.Generator, probes: int = 4, h: float = 1e-5) -> float:
    """Max relative error between analytic and numeric grads over probes.

    Relative error uses denominator max(1, |analytic|, |numeric|) so
    near-zero gradients are compared absolutely.
    """
    loss = f()
    if loss.data.dtype != F64:
        raise ValueError("gradient checks must run in float64")
    ad.zero_grads(wrt)
    ad.backward(loss)
    worst = 0.0
    for arr in wrt:
        grad = np.zeros_like(arr.data) if arr.grad is None else arr.grad
        size = arr.data.size
        if size <= probes:
            idxs = np.arange(size)
        else:
            idxs = rng.choice(size, size=probes, replace=False)
        for index in idxs:
            a = float(grad.reshape(-1)[index])
            n = numeric_grad_at(f, arr, int(index), h)
            rel = abs(a - n) / max(1.0, abs(a), abs(n))
            worst = max(worst, rel)
    return worst


def _rand(rng, shape, lo=-1.0, hi=1.0):
    return ad.array(rng.uniform(lo, hi, size=shape), requires_grad=True, dtype=F64)


def _rand_away_from_zero(rng, shape, margin=0.2):
    # keeps relu/abs kinks farther than the differencing step
    mag = rng.uniform(margin, 1.0, size=shape)
    sign = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return ad.array(mag * sign, requires_grad=True, dtype=F64)


def fixed_projector(rng):
    """Scalarize with a random projection so upstream grads are non-uniform.

    The weights are drawn once per output shape and cached, so repeated
    forward calls (as finite differencing needs) see the same loss.
    """
    cache: dict[tuple, DiffArray] = {}

    def project(y: DiffArray) -> DiffArray:
        w = cache.get(y.shape)
        if w is None:
            w = ad.array(rng.normal(size=y.shape), dtype=F64)
            cache[y.shape] = w
        return asum(ad.mul(y, w))

    return project


def kernel_cases(rng: np.random.Generator):
    """(name, loss_fn, wrt) triples covering every differentiable kernel."""
    proj = fixed_projector(rng)

    def unary(op, shape, away=False):
        a = (_rand_away_from_zero if away else _rand)(rng, shape)
        p = fixed_projector(rng)
        return lambda: p(op(a)), [a]

    def binary(op, a_shape, b_shape):
        a = _rand(rng, a_shape)
        b = _rand(rng, b_shape)
        p = fixed_projector(rng)
        return lambda: p(op(a, b)), [a, b]

    def conv1d_case(stride, pad):
        x, w, b = _rand(rng, (12, 3)), _rand(rng, (3, 3, 4)), _rand(rng, (4,))
        p = fixed_projector(rng)
        return lambda: p(ad.conv1d(x, w, b, stride=stride, pad=pad)), [x, w, b]

    def conv2d_case(stride, pad, k=3, height=8):
        x, w, b = _rand(rng, (height, 10, 2)), _rand(rng, (k, k, 2, 3)), _rand(rng, (3,))
        p = fixed_projector(rng)
        return lambda: p(ad.conv2d(x, w, b, stride=stride, pad=pad)), [x, w, b]

    def layer_norm_case():
        x, g, b = _rand(rng, (4, 6)), _rand(rng, (6,), 0.5, 1.5), _rand(rng, (6,))
        return lambda: proj(ad.layer_norm(x, g, b)), [x, g, b]

    def gather_case():
        table = _rand(rng, (7, 5))
        ids = rng.integers(0, 7, size=6)
        p = fixed_projector(rng)
        return lambda: p(ad.gather_rows(table, ids)), [table]

    def interp_case():
        feat = _rand(rng, (6, 4))
        # out-of-range included (clamped); nudged off integers so the
        # floor/frac split is stable under the differencing step
        pos = rng.uniform(-1.5, 7.5, size=9)
        pos += np.where(np.abs(pos - np.round(pos)) < 1e-3, 0.01, 0.0)
        p = fixed_projector(rng)
        return lambda: p(ad.interp_rows(feat, pos)), [feat]

    def ce_case():
        logits = _rand(rng, (1, 5, 7))
        targets = rng.integers(0, 7, size=(1, 5))
        return lambda: ad.cross_entropy_logits(logits, targets, lengths=[5]), [logits]

    def mse_case():
        a, b = _rand(rng, (4, 5)), _rand(rng, (4, 5))
        return lambda: ad.mse(a, b), [a, b]

    def bigru_case(steps):
        d, hidden = 4, 3
        ins = [_rand(rng, shape) for shape in [
            (1, steps, d), (2, hidden), (d, 6 * hidden), (6 * hidden,), (2 * hidden, 3 * hidden), (6 * hidden,)]]
        p = fixed_projector(rng)
        return lambda: p(ad.bigru(*ins, lengths=[steps])), ins

    def attention_gru_case():
        steps, frames, hidden, dk = 3, 4, 3, 4
        ins = [_rand(rng, shape) for shape in [
            (1, steps, hidden), (1, hidden), (hidden, dk), (1, frames, dk), (1, frames, hidden),
            (hidden, 3 * hidden), (3 * hidden,), (hidden, 3 * hidden), (3 * hidden,)]]
        p = fixed_projector(rng)
        return lambda: p(ad.attention_gru(*ins, lengths=[steps], frames=[frames])), ins

    def bigru_batched_case():
        # three sequences of 5, 1 and 3 rows; the padding rows are probed too, and must get zero
        d, hidden = 4, 3
        ins = [_rand(rng, shape) for shape in [
            (3, 5, d), (2, hidden), (d, 6 * hidden), (6 * hidden,), (2 * hidden, 3 * hidden), (6 * hidden,)]]
        p = fixed_projector(rng)
        return lambda: p(ad.bigru(*ins, lengths=[5, 1, 3])), ins

    def attention_gru_batched_case():
        # three sequences of 3, 1 and 2 steps over 4, 1 and 2 frames
        steps, frames, hidden, dk = 3, 4, 3, 4
        ins = [_rand(rng, shape) for shape in [
            (3, steps, hidden), (1, hidden), (hidden, dk), (3, frames, dk), (3, frames, hidden),
            (hidden, 3 * hidden), (3 * hidden,), (hidden, 3 * hidden), (3 * hidden,)]]
        p = fixed_projector(rng)
        return lambda: p(ad.attention_gru(*ins, lengths=[3, 1, 2], frames=[4, 1, 2])), ins

    def ce_batched_case():
        logits = _rand(rng, (3, 4, 7))
        targets = rng.integers(0, 7, size=(3, 4))
        return lambda: ad.cross_entropy_logits(logits, targets, lengths=[4, 1, 2]), [logits]

    def matmul_bias_case():
        a, b, bias = _rand(rng, (3, 4)), _rand(rng, (4, 2)), _rand(rng, (2,))
        p = fixed_projector(rng)
        return lambda: p(ad.matmul(a, b, bias)), [a, b, bias]

    def attention_case(steps, heads, dk):
        qkv = _rand(rng, (steps, 3 * heads * dk))
        p = fixed_projector(rng)
        return lambda: p(ad.attention(qkv, heads)), [qkv]

    def attention_masked_case():
        # three sequences of 3, 1 and 2 frames; the padding keys are probed too, and must get zero
        qkv = _rand(rng, (3, 3, 3 * 2 * 2))
        p = fixed_projector(rng)
        return lambda: p(ad.attention(qkv, 2, frames=[3, 1, 2])), [qkv]

    def relu_gap_case():
        # rows 1 and 4 are gaps between joined lines: zero out, no gradient back
        keep = np.array([True, False, True, True, False])[:, None]
        return unary(lambda a: ad.relu(a, keep), (5, 3), away=True)

    def gather_cut_case():
        # joined rows cut into a zero-padded batch of 3, 1 and 2 rows; -1 marks padding
        joined = _rand(rng, (8, 4))
        p = fixed_projector(rng)
        ids = [[0, 1, 2], [4, -1, -1], [6, 7, -1]]
        return lambda: p(ad.gather_rows(joined, ids)), [joined]

    def mse_batched_case():
        a, b = _rand(rng, (3, 4, 5)), _rand(rng, (3, 4, 5))
        return lambda: ad.mse(a, b, lengths=[4, 1, 2]), [a, b]

    return [
        ("add_same", *binary(ad.add, (3, 4), (3, 4))),
        ("mul", *binary(ad.mul, (2, 3), (2, 3))),
        ("mul_scalar_const", *unary(lambda a: ad.mul(a, -1.3), (2, 3))),
        ("matmul", *binary(ad.matmul, (3, 4), (4, 2))),
        ("matmul_bias", *matmul_bias_case()),
        ("sigmoid", *unary(sigmoid, (4, 3))),
        ("tanh", *unary(tanh, (4, 3))),
        ("relu", *unary(ad.relu, (4, 5), away=True)),
        ("softmax", *unary(softmax, (3, 6))),
        ("sum", *unary(asum, (3, 4))),
        ("conv1d_s1_p0", *conv1d_case(1, 0)),
        ("conv1d_s2_p1", *conv1d_case(2, 1)),
        # length 12, kernel 3, stride 2: the last input row lies outside every window
        ("conv1d_s2_p0", *conv1d_case(2, 0)),
        ("conv2d_s11_p11", *conv2d_case((1, 1), (1, 1))),
        ("conv2d_s21_p11", *conv2d_case((2, 1), (1, 1))),
        ("conv2d_s22_p00", *conv2d_case((2, 2), (0, 0))),
        ("conv2d_s22_p11", *conv2d_case((2, 2), (1, 1))),
        ("conv2d_k1_s22", *conv2d_case((2, 2), (0, 0), k=1)),
        ("layer_norm", *layer_norm_case()),
        ("gather_rows", *gather_case()),
        ("interp_rows", *interp_case()),
        ("cross_entropy_logits", *ce_case()),
        ("mse", *mse_case()),
        ("bigru_t1", *bigru_case(1)),
        ("bigru_t5", *bigru_case(5)),
        ("attention_self_h2", *attention_case(5, 2, 3)),
        ("attention_gru", *attention_gru_case()),
        # inputs 1 and 2 rows high, whose padding-only kernel rows the convolution leaves out;
        # last, so the cases above keep their draws
        ("conv2d_h1_s11_p11", *conv2d_case((1, 1), (1, 1), height=1)),
        ("conv2d_h2_s21_p11", *conv2d_case((2, 1), (1, 1), height=2)),
        # batches of unequal lengths, length 1 included; last, so the cases above keep their draws
        ("matmul_bias_batched", *binary(lambda a, b: ad.matmul(a, b, ad.array(np.ones(2), dtype=F64)),
                                        (2, 3, 4), (4, 2))),
        ("bigru_batched", *bigru_batched_case()),
        ("attention_gru_batched", *attention_gru_batched_case()),
        ("cross_entropy_logits_batched", *ce_batched_case()),
        # a batch's joined conv stack, aligner and alignment loss
        ("attention_masked", *attention_masked_case()),
        ("relu_gap", *relu_gap_case()),
        ("gather_rows_cut", *gather_cut_case()),
        ("mse_batched", *mse_batched_case()),
    ]


def composite_cases(rng: np.random.Generator):
    """Gradient checks through the model's composite blocks."""
    cases = []

    def conv_block():
        store = ParamStore(rng, dtype=F64)
        stack = Conv1dStack(store, "blk", 3, [[4, 3, 1], [4, 3, 2]])
        x = _rand(rng, (8, 3))
        wrt = [x] + list(store.params.values())
        p = fixed_projector(rng)
        return lambda: p(stack(x)), wrt

    cases.append(("conv1d_block", *conv_block()))

    def bigru_layer():
        store = ParamStore(rng, dtype=F64)
        layer = BiGRUStack(store, "bg", 4, layers=1)
        x = _rand(rng, (5, 4))
        wrt = [x] + list(store.params.values())
        p = fixed_projector(rng)
        # applied twice: each packed weight's gradient is formed from two queued uses
        return lambda: p(layer(layer(x))), wrt

    cases.append(("bigru_layer", *bigru_layer()))

    def transformer_layer():
        store = ParamStore(rng, dtype=F64)
        layer = TransformerLayer(store, "tf", 8, heads=2)
        x = _rand(rng, (5, 8))
        wrt = [x] + list(store.params.values())
        p = fixed_projector(rng)
        return lambda: p(layer(x)), wrt

    cases.append(("transformer_layer", *transformer_layer()))

    def decode_step():
        store = ParamStore(rng, dtype=F64)
        dec = AttentionDecoder(store, "dec", vocab_size=6, d=8)
        f_enc = _rand(rng, (4, 8))
        wrt = [f_enc] + list(store.params.values())
        p = fixed_projector(rng)

        def f():
            logits, _ = step_logits(dec, 3, dec.initial_state(), f_enc)
            return p(logits)

        return f, wrt

    cases.append(("decode_step", *decode_step()))

    def ce_loss_composite():
        store = ParamStore(rng, dtype=F64)
        dec = AttentionDecoder(store, "dec", vocab_size=6, d=8)
        f_enc = _rand(rng, (1, 4, 8))
        target = [3, 4, 5, EOS]
        wrt = [f_enc] + list(store.params.values())
        return lambda: dec.ce_loss(f_enc, [target], [4]), wrt

    cases.append(("teacher_forced_ce", *ce_loss_composite()))

    def align_mse():
        a = _rand(rng, (5, 6))
        b = _rand(rng, (5, 6))
        return lambda: align_loss(a, b, stop_grad=False), [a, b]

    cases.append(("align_mse", *align_mse()))

    def shared_weight():
        # w's two matmul products are queued until the end of backward; the add reaches it at once
        w, x1, x2 = _rand(rng, (4, 3)), _rand(rng, (4, 4)), _rand(rng, (5, 4))
        p = fixed_projector(rng)
        return lambda: ad.add(p(ad.add(ad.matmul(x1, w), w)), p(ad.matmul(x2, w))), [w, x1, x2]

    cases.append(("shared_weight_matmuls_and_add", *shared_weight()))

    return cases


def tiny_model(dtype=F64, seed: int = 7, **align_overrides):
    """Smallest legal recognizer for whole-model checks (d=8)."""
    enc_cfg = EncoderConfig(d=8, gru_layers=1)
    align_kwargs = dict(layers=1, heads=2)
    align_kwargs.update(align_overrides)
    align_cfg = AlignConfig(**align_kwargs)
    vocab = Vocabulary(list("abc"))
    return Recognizer(enc_cfg, align_cfg, vocab, seed=seed, dtype=dtype)


def tiny_sequence(rng: np.random.Generator, n_points: int = 24) -> TrajectorySequence:
    xs = np.linspace(0.0, 60.0, n_points) + rng.uniform(-1, 1, size=n_points)
    ys = 16.0 + 12.0 * np.sin(np.linspace(0, 3.0, n_points)) + rng.uniform(-1, 1, size=n_points)
    s = np.ones(n_points)
    s[n_points // 2] = 0.0
    pts = np.column_stack([xs, ys, s])
    return normalize(TrajectorySequence(id="t", points=pts, text="abc"))


def model_loss_cases(rng: np.random.Generator, params_per_group: int | None = 2):
    """The three training losses through the full tiny model.

    Differentiates w.r.t. a sampled parameter subset that touches every
    parameter group reachable by each loss, or w.r.t. every parameter of
    those groups when `params_per_group` is None.
    """
    model = tiny_model(seed=int(rng.integers(1 << 30)))
    # Zero-initialised biases over the rendered image's zero background put
    # the image CNN's ReLUs exactly on their kink, where central differences
    # disagree with the one-sided analytic slope; move every 1-D parameter
    # off its init.
    for p in model.params.values():
        if p.data.ndim == 1:
            p.data[:] = rng.uniform(-0.5, 0.5, size=p.data.shape)
    seq = tiny_sequence(rng)

    def pick(prefixes):
        chosen = []
        for prefix in prefixes:
            names = sorted(n for n in model.params if n.startswith(prefix))
            if params_per_group is not None:
                names = [names[i] for i in rng.choice(len(names), size=min(params_per_group, len(names)),
                                                      replace=False)]
            chosen.extend(model.params[n] for n in names)
        return chosen

    def loss_fn(key):
        def f():
            losses = model.losses([seq])
            return losses[key]
        return f

    return [
        ("model_loss_traj", loss_fn("traj"), pick(("traj_conv.", "traj_gru.", "align.", "dec_traj."))),
        ("model_loss_img", loss_fn("img"), pick(("img_cnn.", "img_gru.", "dec_img."))),
        ("model_loss_align_no_sg", _align_no_sg(model, seq), pick(("traj_conv.", "align.", "img_cnn."))),
    ]


def _align_no_sg(model, seq):
    # differencing the align loss w.r.t. image params needs the stop
    # gradient off (its forward is an identity, so FD would see a slope
    # the analytic gradient correctly reports as zero)
    model.align_cfg.use_stop_gradient = False

    def f():
        return model.losses([seq])["align"]

    return f


def standard_battery(seed: int = 0):
    """Every kernel and composite case, ready for `check`."""
    rng = np.random.default_rng(seed)
    cases = []
    cases.extend(kernel_cases(rng))
    cases.extend(composite_cases(rng))
    cases.extend(model_loss_cases(rng))
    return cases
