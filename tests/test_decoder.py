"""Decoder contracts: step distribution, attention, greedy, teacher-forced CE."""

import functools
import math

import numpy as np
import pytest

from conftest import graph_node_count
from gradcheck import asum, sigmoid, softmax, step_logits, tanh, tiny_model, tiny_sequence
from penrec import autodiff as ad
from penrec.data import EOS, PAD, SOS
from penrec.decoder import AttentionDecoder
from penrec.layers import Linear, ParamStore


def make_decoder(vocab_size=6, d=8, seed=0):
    store = ParamStore(np.random.default_rng(seed))
    return AttentionDecoder(store, "dec", vocab_size, d), store


def random_enc(frames, d, seed=1):
    """One line's encoded frames, a batch of one (1, frames, d)."""
    return ad.array(np.random.default_rng(seed).normal(size=(1, frames, d)))


def line_ce_loss(dec, f_enc, target):
    """`dec.ce_loss` of one line over its frames f_enc, a batch of one (1, T, d)."""
    return dec.ce_loss(f_enc, [target], [f_enc.shape[1]])


def test_step_probabilities_sum_to_one():
    dec, _ = make_decoder()
    f_enc = random_enc(5, 8)
    logits, state = step_logits(dec, SOS, dec.initial_state(), f_enc)
    probs = softmax(logits)
    assert probs.shape == (1, 6)
    assert np.all(probs.data >= 0)
    assert abs(float(probs.data.sum()) - 1.0) < 1e-6
    assert state.shape == (1, 8)


def test_single_frame_attention_returns_that_frame():
    dec, _ = make_decoder()
    f_enc = random_enc(1, 8, seed=2)
    sink = []
    step_logits(dec, SOS, dec.initial_state(), f_enc, attn_sink=sink)
    np.testing.assert_allclose(sink[0], [[1.0]])


def test_attention_weights_match_loop_oracle():
    dec, _ = make_decoder(vocab_size=5, d=8, seed=3)
    f_enc = random_enc(7, 8, seed=4)
    state = ad.array(np.random.default_rng(5).normal(size=(1, 8)).astype(np.float32))
    sink = []
    step_logits(dec, 3, state, f_enc, attn_sink=sink)

    y = dec.embed.data[3]
    q = (y + state.data[0]) @ dec.wq.data
    scores = np.empty(7)
    for t in range(7):
        k = f_enc.data[0, t] @ dec.wk.data
        scores[t] = float((q * k).sum()) / math.sqrt(8)
    e = np.exp(scores - scores.max())
    expected = e / e.sum()
    np.testing.assert_allclose(sink[0][0], expected, rtol=1e-5, atol=1e-7)


def test_token_out_of_vocabulary_rejected():
    dec, _ = make_decoder()
    with pytest.raises(ValueError, match="vocabulary"):
        f_enc = random_enc(3, 8)
        step_logits(dec, 99, dec.initial_state(), f_enc)


def test_immediate_eos_gives_empty_transcript():
    dec, store = make_decoder()
    for p in store.params.values():
        p.data = np.zeros_like(p.data)
    dec.out.b.data[EOS] = 10.0
    assert dec.greedy(random_enc(4, 8)) == []


def test_greedy_respects_max_len():
    dec, store = make_decoder()
    for p in store.params.values():
        p.data = np.zeros_like(p.data)
    dec.out.b.data[4] = 10.0  # always emits token 4, never eos
    out = dec.greedy(random_enc(4, 8), max_len=5)
    assert out == [4] * 5


def test_greedy_takes_one_line_as_a_batch_of_one():
    dec, _ = make_decoder()
    for frames in (np.zeros((2, 4, 8)), np.zeros((4, 8))):  # two lines, and a lone (T, d) line
        with pytest.raises(ValueError, match="batch of one"):
            dec.greedy(ad.array(frames))


def test_greedy_feeds_back_a_reserved_argmax_and_decode_drops_it():
    # PAD is not eos: it is appended and fed back until max_len; only Vocabulary.decode drops it
    model = tiny_model(dtype=np.float32)
    dec = model.dec_traj
    dec.out.w.data[...] = 0.0
    dec.out.b.data[...] = 0.0
    dec.out.b.data[PAD] = 10.0
    seq = tiny_sequence(np.random.default_rng(0))
    with ad.no_grad():
        f_enc, _ = model._encode(model.traj_conv(seq))
    assert dec.greedy(f_enc, max_len=7) == [PAD] * 7
    assert model.infer_ids(seq, max_len=7) == [PAD] * 7
    assert model.infer_text(seq, max_len=7) == ""


def chained_step_logits(dec, f_enc, max_len):
    """Greedy decoding by chained `step_logits` calls: the ids and the state after every step."""
    state, prev, ids, states = dec.initial_state(), SOS, [], []
    with ad.no_grad():
        for _ in range(max_len):
            logits, state = step_logits(dec, prev, state, f_enc)
            states.append(state.data[0].copy())
            tok = int(np.argmax(logits.data[0]))
            if tok == EOS:
                break
            ids.append(tok)
            prev = tok
    return ids, states


# d=320 is `EncoderConfig.d`'s default, whose (1, 320) @ (3, 320, 320) gate-block products d=64 does not run
@pytest.mark.parametrize("d", [64, 320], ids=["d64", "d320"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("frames,max_len,eos_bias", [
    pytest.param(1, 40, 0.0, id="1_frame"),
    pytest.param(5, 40, 0.0, id="5_frames"),
    pytest.param(20, 40, 0.0, id="20_frames"),
    pytest.param(5, 6, -50.0, id="max_len_cut"),
    pytest.param(5, 40, 50.0, id="immediate_eos"),
])
def test_greedy_states_are_bit_identical_to_chained_step_logits(monkeypatch, d, dtype, frames, max_len, eos_bias):
    # weights within 0.5 decode a few varied tokens, reserved ones among them, before eos or max_len
    rng = np.random.default_rng(frames)
    dec = AttentionDecoder(ParamStore(rng, dtype=dtype), "dec", 12, d)
    for p in dec.store.params.values():
        p.data[...] = rng.uniform(-0.5, 0.5, size=p.shape)
    dec.out.b.data[EOS] += eos_bias
    f_enc = ad.array(np.random.default_rng(100 + frames).normal(size=(1, frames, d)), dtype=dtype)
    want_ids, want_states = chained_step_logits(dec, f_enc, max_len)

    got_states = []
    gru_step = ad._gru_step

    def recording_gru_step(*args):
        gru_step(*args)
        got_states.append(args[-1][0].copy())  # the state the step wrote, its batch of one's row

    monkeypatch.setattr(ad, "_gru_step", recording_gru_step)
    assert dec.greedy(f_enc, max_len=max_len) == want_ids
    assert len(got_states) == len(want_states)
    for t, (got, want) in enumerate(zip(got_states, want_states)):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want), f"state {t}"
    # greedy's length rule: eos ends it one state after the last id; without eos it stops at max_len ids
    assert len(want_states) == len(want_ids) + 1 or len(want_ids) == len(want_states) == max_len
    if eos_bias > 0:
        assert want_ids == []
    elif eos_bias < 0:
        assert len(want_ids) == max_len


def test_greedy_equals_beam_size_one_by_enumeration():
    # 3-symbol vocabulary (plus reserved): a width-1 beam keeps the single
    # best-scoring hypothesis per step, which the enumeration makes explicit
    dec, _ = make_decoder(vocab_size=6, d=8, seed=6)
    f_enc = random_enc(5, 8, seed=7)
    greedy = dec.greedy(f_enc, max_len=2)

    logits1, s1 = step_logits(dec, SOS, dec.initial_state(), f_enc)
    probs1 = softmax(logits1)
    scores1 = {tok: float(probs1.data[0, tok]) for tok in range(6)}
    t1 = max(scores1, key=scores1.get)
    expected = []
    if t1 != EOS:
        expected.append(t1)
        logits2, _ = step_logits(dec, t1, s1, f_enc)
        probs2 = softmax(logits2)
        scores2 = {tok: float(probs2.data[0, tok]) for tok in range(6)}
        t2 = max(scores2, key=scores2.get)
        if t2 != EOS:
            expected.append(t2)
    assert greedy == expected


def test_uniform_logits_give_log_vocab_loss():
    dec, store = make_decoder(vocab_size=9, d=8)
    for p in store.params.values():
        p.data = np.zeros_like(p.data)
    loss = line_ce_loss(dec, random_enc(3, 8), [3, 4, EOS])
    assert float(loss.data) == pytest.approx(math.log(9), rel=1e-6)


def test_ce_loss_matches_per_step_probability_oracle():
    dec, _ = make_decoder(vocab_size=7, d=8, seed=8)
    f_enc = random_enc(6, 8, seed=9)
    target = [3, 5, 4, EOS]
    loss = float(line_ce_loss(dec, f_enc, target).data)

    total = 0.0
    state = dec.initial_state()
    prev = SOS
    for tok in target:
        logits, state = step_logits(dec, prev, state, f_enc)
        probs = softmax(logits)
        total -= math.log(float(probs.data[0, tok]))
        prev = tok
    assert loss == pytest.approx(total / len(target), rel=1e-5)


def test_ce_loss_rejects_empty_or_unterminated_target():
    dec, _ = make_decoder()
    with pytest.raises(ValueError, match="empty"):
        line_ce_loss(dec, random_enc(3, 8), [])
    with pytest.raises(ValueError, match="eos"):
        line_ce_loss(dec, random_enc(3, 8), [3, 4])


def test_decoder_overfits_single_sample():
    # teacher-forced loss < 0.01 within 300 steps at d=64
    d = 64
    store = ParamStore(np.random.default_rng(10))
    dec = AttentionDecoder(store, "dec", vocab_size=8, d=d)
    f_enc = ad.array(np.random.default_rng(11).normal(size=(1, 9, d)))
    target = [3, 6, 4, 7, EOS]
    state = ad.AdamState(store.params)
    loss_val = float("inf")
    for step in range(300):
        loss = line_ce_loss(dec, f_enc, target)
        loss_val = float(loss.data)
        if loss_val < 0.01:
            break
        ad.zero_grads(store.params.values())
        ad.backward(loss)
        ad.adam_step(store.params, state, lr=5e-3)
    assert loss_val < 0.01, f"loss stuck at {loss_val}"


def gru_step(gru, x, h):
    """One GRU step composed from single-purpose kernels; 0/1 selector matrices split the gate blocks.

    `gru` holds the packed weights (w_x, b_x, w_h, b_h).
    """
    w_x, b_x, w_h, b_h = gru
    hidden = h.shape[1]
    eye = np.eye(3 * hidden)
    r_sel, z_sel, n_sel = (ad.array(eye[:, k * hidden:(k + 1) * hidden], dtype=h.dtype) for k in range(3))
    px = ad.matmul(x, w_x, b_x)
    a = ad.matmul(h, w_h, b_h)
    r = sigmoid(ad.add(ad.matmul(px, r_sel), ad.matmul(a, r_sel)))
    z = sigmoid(ad.add(ad.matmul(px, z_sel), ad.matmul(a, z_sel)))
    n = tanh(ad.add(ad.matmul(px, n_sel), ad.mul(r, ad.matmul(a, n_sel))))
    return ad.add(n, ad.mul(z, ad.add(h, ad.mul(n, -1.0))))


def per_token_path(y, h0, wq, keys_t, values, gru, out, sink):
    """The decoder recurrence composed one token at a time from single-purpose kernels.

    `keys_t` holds the keys transposed, (dk, frames). Returns per-token lists of
    (1, V) logits and (1, d) states.
    """
    scale = 1.0 / math.sqrt(keys_t.shape[0])
    state, logits, states = h0, [], []
    for t in range(y.shape[0]):
        y_t = ad.gather_rows(y, [t])
        q = ad.matmul(ad.add(y_t, state), wq)
        alpha = softmax(ad.mul(ad.matmul(q, keys_t), scale))
        if sink is not None:
            sink.append(alpha.data)
        state = gru_step(gru, ad.add(y_t, ad.matmul(alpha, values)), state)
        logits.append(out(state))
        states.append(state)
    return logits, states


def test_attention_gru_matches_per_token_composition_in_float64():
    # a padded batch: lines of 5, 1 and 3 steps over 6, 1 and 4 frames, padding rows filled with random values
    lengths, frames, d, dk, vocab = (5, 1, 3), (6, 1, 4), 4, 3, 7
    B, steps, tk = len(lengths), max(lengths), max(frames)
    rng = np.random.default_rng(12)
    store = ParamStore(rng, dtype=np.float64)
    u = f"uniform:{1.0 / math.sqrt(d)}"
    w_x, w_h = store.new("gru.w_x", (d, 3 * d), u), store.new("gru.w_h", (d, 3 * d), u)
    b_x, b_h = store.new("gru.b_x", (3 * d,), "zeros"), store.new("gru.b_h", (3 * d,), "zeros")
    gru = (w_x, b_x, w_h, b_h)
    out = Linear(store, "out", d, vocab)
    for p in store.params.values():
        p.data[...] = rng.uniform(-0.8, 0.8, size=p.shape)

    def leaf(values):
        return ad.array(values, requires_grad=True, dtype=np.float64)

    y, h0, wq, keys, values = (leaf(rng.normal(size=shape)) for shape in
                               [(B, steps, d), (1, d), (d, dk), (B, tk, dk), (B, tk, d)])
    shared = [h0, wq, *gru, out.w, out.b]
    # the projections read only each line's own steps: its logits past them are the output bias
    valid = (np.arange(steps) < np.array(lengths)[:, None])[:, :, None]
    proj_logits, proj_states = rng.normal(size=(B, steps, vocab)) * valid, rng.normal(size=(B, steps, d)) * valid

    sink = []
    states = ad.attention_gru(y, h0, wq, keys, values, *gru, lengths, frames, sink)
    logits = out(states)
    ad.backward(ad.add(asum(ad.mul(logits, proj_logits)), asum(ad.mul(states, proj_states))))
    got_shared = [p.grad.copy() for p in shared]

    # each line alone, one token at a time, all lines under one loss
    ad.zero_grads(shared)
    lines, terms = [], []
    for b, (n, f) in enumerate(zip(lengths, frames)):
        y_b, keys_t_b, values_b = leaf(y.data[b, :n]), leaf(keys.data[b, :f].T), leaf(values.data[b, :f])
        sink_b = []
        logits_b, states_b = per_token_path(y_b, h0, wq, keys_t_b, values_b, gru, out, sink_b)
        for t, (lg, st) in enumerate(zip(logits_b, states_b)):
            terms += [asum(ad.mul(lg, proj_logits[b, t:t + 1])), asum(ad.mul(st, proj_states[b, t:t + 1]))]
        lines.append((y_b, keys_t_b, values_b, logits_b, states_b, sink_b))
    ad.backward(functools.reduce(ad.add, terms))

    def close(a, b, name):
        assert a.shape == b.shape, name
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=name)

    for b, (n, f, (y_b, keys_t_b, values_b, logits_b, states_b, sink_b)) in enumerate(zip(lengths, frames, lines)):
        close(logits.data[b, :n], np.concatenate([a.data for a in logits_b]), f"logits {b}")
        close(states.data[b, :n], np.concatenate([a.data for a in states_b]), f"states {b}")
        close(sink[0][b, :n, :f], np.concatenate(sink_b), f"sink {b}")
        close(y.grad[b, :n], y_b.grad, f"y {b}")
        close(keys.grad[b, :f], keys_t_b.grad.T, f"keys {b}")
        close(values.grad[b, :f], values_b.grad, f"values {b}")
        assert not np.any(states.data[b, n:]), "states past a line's length are zero"
        assert not np.any(sink[0][b, :, f:]), "padding frames get no attention"
        assert not np.any(y.grad[b, n:]) and not np.any(keys.grad[b, f:]) and not np.any(values.grad[b, f:])
    for name, got, p in zip(["h0", "wq", "w_x", "b_x", "w_h", "b_h", "out.w", "out.b"], got_shared, shared):
        close(got, p.grad, name)


def test_sequence_logits_feed_sos_then_the_target():
    dec = AttentionDecoder(ParamStore(np.random.default_rng(13), dtype=np.float64), "dec", 7, 8)
    f_enc = ad.array(np.random.default_rng(14).normal(size=(1, 5, 8)), dtype=np.float64)
    target = [3, 6, 4, EOS]
    logits = dec.sequence_logits(f_enc, [target], [5])
    assert logits.shape == (1, len(target), 7)
    want, _ = per_token_path(ad.gather_rows(dec.embed, [SOS] + target[:-1]), dec.initial_state(), dec.wq,
                             ad.array(dec.keys(f_enc).data[0].T, dtype=np.float64),
                             ad.array(f_enc.data[0], dtype=np.float64), dec.gru, dec.out, None)
    np.testing.assert_allclose(logits.data[0], np.concatenate([w.data for w in want]), rtol=1e-12, atol=1e-12)


def test_ce_loss_graph_size_does_not_grow_with_target_length():
    dec, _ = make_decoder(vocab_size=7, d=8)
    f_enc = random_enc(5, 8)
    short = line_ce_loss(dec, f_enc, [3, 4, EOS])
    long = line_ce_loss(dec, f_enc, [3, 4, 5, 6, 3, 4, 5, 6, EOS])
    assert graph_node_count(short) == graph_node_count(long)
