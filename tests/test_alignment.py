"""Position embedding, aligner forward, column sampling, alignment loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_node_count
from gradcheck import tiny_model, tiny_sequence
from penrec import autodiff as ad
from penrec.alignment import align_loss, merge_features, rope2d, sample_image_columns
from penrec.layers import ParamStore, TransformerLayer


# ---------------------------------------------------------------------------
# 2D position embedding


def test_origin_gives_alternating_cos_sin():
    emb = rope2d(np.zeros((1, 2)), d=8)
    np.testing.assert_allclose(emb[0], [1, 0, 1, 0, 1, 0, 1, 0])


def test_rejects_width_not_divisible_by_4():
    with pytest.raises(ValueError):
        rope2d(np.zeros((1, 2)), d=6)


@given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
@settings(max_examples=100, deadline=None)
def test_pairs_have_unit_norm(px, py):
    emb = rope2d(np.array([[px, py]]), d=16)[0]
    pairs = emb.reshape(-1, 2)
    np.testing.assert_allclose((pairs ** 2).sum(axis=1), np.ones(8), atol=1e-9)


def test_axis_separability_is_bit_exact():
    rng = np.random.default_rng(0)
    pos = rng.uniform(0, 500, size=(5, 2))
    moved = pos.copy()
    moved[:, 0] += 17.0
    a = rope2d(pos, d=24)
    b = rope2d(moved, d=24)
    assert np.array_equal(a[:, 12:], b[:, 12:])       # py half untouched
    assert not np.array_equal(a[:, :12], b[:, :12])
    movedy = pos.copy()
    movedy[:, 1] -= 3.0
    c = rope2d(movedy, d=24)
    assert np.array_equal(a[:, :12], c[:, :12])       # px half untouched


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("frames,d", [(1, 8), (13, 64), (40, 320)])
def test_rope2d_is_bit_identical_to_a_per_axis_loop(dtype, frames, d):
    pos = np.random.default_rng(d).uniform(-50, 900, size=(frames, 2)).astype(dtype)
    p64, quarter = pos.astype(np.float64), d // 4
    inv = 10000.0 ** (-(np.arange(quarter) / quarter))
    want = np.empty((frames, d))
    for axis in range(2):
        ang = p64[:, axis:axis + 1] * inv[None, :]
        half = axis * (d // 2)
        want[:, half:half + d // 2:2] = np.cos(ang)
        want[:, half + 1:half + d // 2:2] = np.sin(ang)
    got = rope2d(pos, d)
    assert got.dtype == np.float64 and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# aligner forward


def test_shape_preservation():
    m = tiny_model()
    seq = tiny_sequence(np.random.default_rng(1))
    f = m.traj_conv(seq)
    out = m.aligner(f)
    assert out.shape == f.values.shape


def test_transformer_off_returns_position_tagged_input_unchanged():
    m = tiny_model(use_transformer=False)
    seq = tiny_sequence(np.random.default_rng(2))
    f = m.traj_conv(seq)
    out = m.aligner(f)
    expected = f.values.data + rope2d(f.positions, m.enc_cfg.d)
    np.testing.assert_allclose(out.data, expected.astype(np.float32), rtol=1e-6)
    assert not any(n.startswith("align.") for n in m.params)


def test_all_toggles_off_bypasses_module_bit_exact():
    m = tiny_model(use_transformer=False, use_rope=False, use_align_loss=False,
                   use_stop_gradient=False)
    assert not m.align_cfg.enabled
    seq = tiny_sequence(np.random.default_rng(3))
    f_conv = m.traj_conv(seq)
    f_enc, f_aligned = m._encode(f_conv)
    assert f_aligned is None
    np.testing.assert_array_equal(m.traj_gru(f_conv.values).data, f_enc.data)


def test_attention_rows_sum_to_one():
    m = tiny_model()
    seq = tiny_sequence(np.random.default_rng(4))
    f = m.traj_conv(seq)
    sink = []
    m.aligner(f, attn_sink=sink)
    assert len(sink) == m.align_cfg.layers * m.align_cfg.heads
    for alpha in sink:  # (1, T, T): the line as a batch of one
        np.testing.assert_allclose(alpha.sum(axis=-1), np.ones(alpha.shape[:2]), atol=1e-6)


def _layer_norm(v, g, b):
    mu = v.mean(axis=-1, keepdims=True)
    var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
    return (v - mu) / np.sqrt(var + 1e-5) * g + b


def _head_block(w, j, heads):
    width = w.shape[1] // heads
    return w[:, j * width:(j + 1) * width]


def _qkv_blocks(layer):
    """The q, k and v projections: the three column blocks of the packed `attn.w_qkv`."""
    d = layer.w_qkv.shape[0]
    return [layer.w_qkv.data[:, i * d:(i + 1) * d] for i in range(3)]


def test_single_frame_layer_matches_manual_path():
    store = ParamStore(np.random.default_rng(5))
    layer = TransformerLayer(store, "t", d=8, heads=2)
    x = np.random.default_rng(6).normal(size=(1, 1, 8)).astype(np.float32)
    out = layer(ad.array(x), [1]).data

    h = _layer_norm(x[0, 0], layer.ln1_g.data, layer.ln1_b.data)
    # softmax over a single key is 1, so each head returns its value row
    ctx = np.concatenate([h @ _head_block(_qkv_blocks(layer)[2], j, 2) for j in range(2)])
    x1 = x[0, 0] + ctx @ layer.out.w.data + layer.out.b.data
    h2 = _layer_norm(x1, layer.ln2_g.data, layer.ln2_b.data)
    ff = np.maximum(h2 @ layer.ff1.w.data + layer.ff1.b.data, 0)
    expected = x1 + ff @ layer.ff2.w.data + layer.ff2.b.data
    np.testing.assert_allclose(out[0, 0], expected, rtol=1e-4, atol=1e-5)


def test_layer_matches_per_head_equations_in_float64():
    rng = np.random.default_rng(11)
    d, heads, frames = 12, 3, 7
    store = ParamStore(rng, dtype=np.float64)
    layer = TransformerLayer(store, "t", d=d, heads=heads)
    for p in store.params.values():
        if p.data.ndim == 1:
            p.data[:] = rng.uniform(-0.5, 0.5, size=p.data.shape) + (p.data == 1.0)
    x = rng.normal(size=(frames, d))
    sink = []
    out = layer(ad.array(x[None], dtype=np.float64), [frames], attn_sink=sink).data[0]

    h = _layer_norm(x, layer.ln1_g.data, layer.ln1_b.data)
    ctx, alphas = [], []
    for j in range(heads):
        q, k, v = (h @ _head_block(w, j, heads) for w in _qkv_blocks(layer))
        scores = q @ k.T / np.sqrt(d // heads)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        alphas.append(e / e.sum(axis=1, keepdims=True))
        ctx.append(alphas[-1] @ v)
    x1 = x + np.concatenate(ctx, axis=1) @ layer.out.w.data + layer.out.b.data
    h2 = _layer_norm(x1, layer.ln2_g.data, layer.ln2_b.data)
    ff = np.maximum(h2 @ layer.ff1.w.data + layer.ff1.b.data, 0)
    expected = x1 + ff @ layer.ff2.w.data + layer.ff2.b.data
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
    assert len(sink) == heads
    for got, want in zip(sink, alphas):
        np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-12)


def test_layer_forward_builds_one_node_per_projection():
    # layer norm, the packed q|k|v matmul, attention, the output projection and
    # its residual add, layer norm, ff1, relu, ff2 and its residual add
    layer = TransformerLayer(ParamStore(np.random.default_rng(12)), "t", d=8, heads=2)
    out = layer(ad.array(np.random.default_rng(13).normal(size=(1, 5, 8))), [5])
    assert graph_node_count(out) == 10


# ---------------------------------------------------------------------------
# column sampling


# One image's columns are the joined columns of a batch of one: the line starts at column 0 and
# positions are (1, T, 2).


def test_integer_grid_positions_select_columns_exactly():
    feat = ad.array(np.random.default_rng(7).normal(size=(6, 4)))
    for k in range(6):
        out = sample_image_columns(feat, np.array([[[8.0 * k, 0.0]]]), [0], [6])
        np.testing.assert_array_equal(out.data[0, 0], feat.data[k])


def test_midpoint_blends_half_and_half():
    feat = ad.array(np.vstack([np.zeros(3), np.ones(3)]).astype(np.float32))
    out = sample_image_columns(feat, np.array([[[4.0, 0.0]]]), [0], [2])
    np.testing.assert_allclose(out.data[0, 0], np.full(3, 0.5))


def test_sampling_matches_scalar_oracle_exactly():
    rng = np.random.default_rng(8)
    feat_np = rng.normal(size=(9, 5))
    positions = np.column_stack([rng.uniform(-20, 100, size=40), np.zeros(40)])
    n = feat_np.shape[0]
    out = sample_image_columns(ad.array(feat_np, dtype=np.float64), positions[None], [0], [n]).data[0]
    for i, px in enumerate(positions[:, 0]):
        c = min(max(px / 8.0, 0.0), n - 1.0)
        i0 = int(np.floor(c))
        frac = c - i0
        i1 = min(i0 + 1, n - 1)
        for j in range(5):
            expected = (1.0 - frac) * feat_np[i0, j] + frac * feat_np[i1, j]
            assert out[i, j] == expected


@given(st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=30, deadline=None)
def test_sampling_is_linear_in_features(a, b):
    rng = np.random.default_rng(9)
    fa = rng.normal(size=(5, 3))
    fb = rng.normal(size=(5, 3))
    pos = np.column_stack([rng.uniform(0, 40, 7), np.zeros(7)])

    def sample(f):
        return sample_image_columns(ad.array(f, dtype=np.float64), pos[None], [0], [5]).data

    mixed = sample(a * fa + b * fb)
    separate = a * sample(fa) + b * sample(fb)
    np.testing.assert_allclose(mixed, separate, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# alignment loss and merge


def test_identical_inputs_give_zero_loss():
    x = ad.array(np.random.default_rng(10).normal(size=(1, 4, 3)))
    assert float(align_loss(x, x, [4]).data) == 0.0


def test_unit_offset_gives_loss_one():
    base = np.random.default_rng(11).normal(size=(1, 4, 3)).astype(np.float32)
    a = ad.array(base + 1.0)
    b = ad.array(base)
    assert float(align_loss(a, b, [4]).data) == pytest.approx(1.0, rel=1e-6)


def _align_grad_probe(stop_grad: bool):
    m = tiny_model(use_stop_gradient=stop_grad)
    seq = tiny_sequence(np.random.default_rng(12))
    losses = m.losses([seq])
    scaled = ad.mul(losses["align"], 2.0)
    ad.zero_grads(m.params.values())
    ad.backward(scaled)
    img_grads = [p.grad for n, p in m.params.items() if n.startswith("img_cnn.")]
    return img_grads


def test_stop_gradient_blocks_image_encoder_exactly():
    for g in _align_grad_probe(stop_grad=True):
        assert g is None or not np.any(g != 0)


def test_without_stop_gradient_image_encoder_receives_signal():
    assert any(g is not None and np.any(g != 0) for g in _align_grad_probe(stop_grad=False))


def test_merge_identity_when_aligned_features_are_zero():
    m = tiny_model()
    seq = tiny_sequence(np.random.default_rng(13))
    f = m.traj_conv(seq)
    zero = ad.array(np.zeros(f.values.shape))
    merged = m.traj_gru(merge_features(f.values, zero))
    plain = m.traj_gru(f.values)
    np.testing.assert_array_equal(merged.data, plain.data)


def test_merged_output_is_sensitive_to_aligned_features():
    m = tiny_model()
    seq = tiny_sequence(np.random.default_rng(14))
    f = m.traj_conv(seq)
    bump = ad.array(np.full(f.values.shape, 0.1))
    merged = m.traj_gru(merge_features(f.values, bump)).data
    plain = m.traj_gru(f.values).data
    assert merged.shape == plain.shape
    assert np.any(merged != plain)


def test_align_loss_rejects_shape_mismatch():
    a = ad.array(np.zeros((1, 3, 4)))
    b = ad.array(np.zeros((1, 4, 3)))
    with pytest.raises(ad.ShapeError):
        align_loss(a, b, [3])
