"""Attention-based autoregressive GRU decoder, one code path for both streams.

Each step embeds the previous token, attends over the encoded frames with
one head (learned q/k projections, the frames themselves as values),
advances a GRU cell, and projects to vocabulary logits. `ad.attention_gru`
runs the attention and the GRU of all steps as one graph node; the keys
depend only on the frames, so `keys` computes them once per batch.
Training uses teacher forcing, which knows every step's previous token up
front, so a whole batch of lines runs in one kernel call: `ce_loss` pads
the targets to the longest, and the kernel masks each line's padding frames
and steps. Greedy inference learns each input only from the previous
argmax, so it runs one loop per line over plain arrays: per token the
embedding row, the kernel's own attention step and GRU step
(`ad._attention_step`, `ad._gru_step`), the output projection and the
argmax, with no graph node and with its buffers allocated once per line.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import DiffArray
from .data import EOS, FRAME, MAX_POINTS, PAD, SOS
from .layers import Linear, ParamStore

MAX_DECODE_LEN = 256  # tokens a greedy decode emits at most when no eos comes
# the largest cap `eval` and `infer` take: one token per frame of a line of MAX_POINTS points
MAX_DECODE_CEILING = MAX_POINTS // FRAME


class AttentionDecoder:
    def __init__(self, store: ParamStore, name: str, vocab_size: int, d: int):
        self.store = store
        self.vocab_size = vocab_size
        self.d = d
        self.embed = store.new(f"{name}.embed", (vocab_size, d), f"uniform:{1.0 / math.sqrt(d)}")
        self.wq = store.new(f"{name}.wq", (d, d), "glorot")
        self.wk = store.new(f"{name}.wk", (d, d), "glorot")
        # the GRU cell's packed [r | z | n] gate weights, in `ad.attention_gru`'s argument order
        u = f"uniform:{1.0 / math.sqrt(d)}"
        w_x = store.new(f"{name}.gru.w_x", (d, 3 * d), u)
        w_h = store.new(f"{name}.gru.w_h", (d, 3 * d), u)
        b_x = store.new(f"{name}.gru.b_x", (3 * d,), "zeros")
        b_h = store.new(f"{name}.gru.b_h", (3 * d,), "zeros")
        self.gru = (w_x, b_x, w_h, b_h)
        self.out = Linear(store, f"{name}.out", d, vocab_size)

    def initial_state(self) -> DiffArray:
        return self.store.const(np.zeros((1, self.d)))

    def keys(self, f_enc: DiffArray) -> DiffArray:
        """Attention keys (B, frames, d) of a batch's encoded frames, shared by all their steps."""
        if f_enc.data.ndim != 3 or f_enc.shape[1] < 1:
            raise ValueError(f"decoder needs a nonempty encoded batch (B, frames, d), got {f_enc.shape}")
        return ad.matmul(f_enc, self.wk)

    def _run(self, prev_ids, state: DiffArray, f_enc: DiffArray, keys: DiffArray, lengths, frames,
             attn_sink: list | None = None) -> tuple[DiffArray, DiffArray]:
        """Logits (B, T, V) and states (B, T, d) of a batch fed `prev_ids` (B, T), starting from `state`.

        f_enc and keys are (B, frames, d); `lengths` and `frames` are
        `attention_gru`'s.
        """
        ids = np.asarray(prev_ids, dtype=np.intp)
        bad = ids[(ids < 0) | (ids >= self.vocab_size)]
        if bad.size:
            raise ValueError(f"token {bad[0]} out of vocabulary (size {self.vocab_size})")
        ys = ad.gather_rows(self.embed, ids)
        states = ad.attention_gru(ys, state, self.wq, keys, f_enc, *self.gru, lengths, frames, attn_sink)
        return self.out(states), states

    def greedy(self, f_enc: DiffArray, max_len: int = MAX_DECODE_LEN) -> list[int]:
        """Greedy decode of one line's encoded frames, a batch of one (1, frames, d), from sos.

        Stops at eos or after max_len tokens. Every other argmax, PAD and
        SOS included, is appended to the ids and fed back as the next input;
        only `Vocabulary.decode` drops the reserved ids. One loop over plain
        arrays, with every buffer allocated before the first token: per
        token it looks up the embedding row, runs `ad.attention_gru`'s
        attention step and GRU step, projects to logits and takes the
        argmax. Each state is bit for bit the one that `_run` reaches,
        token by token, on the same batch of one.
        """
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        if f_enc.shape[0] != 1:
            raise ValueError(f"greedy decodes a batch of one line, got encoded frames {f_enc.shape}")
        with ad.no_grad():
            keys = self.keys(f_enc).data[0]
        embed, wq, values = self.embed.data, self.wq.data, f_enc.data[0]
        w_x, b_x, w_h, b_h = (p.data for p in self.gru)
        w_out, b_out = self.out.w.data, self.out.b.data
        scale = 1.0 / math.sqrt(keys.shape[1])
        keys_t = np.ascontiguousarray(keys.T)  # the layout `attention_gru` gives its keys
        dtype = w_h.dtype  # every parameter's, as the store holds them in one dtype
        h, h_new = np.zeros((2, 1, self.d), dtype=dtype)  # the state entering a step and the one it writes
        u, x, q, alpha = (np.empty(k, dtype=dtype) for k in (self.d, self.d, keys.shape[1], keys.shape[0]))
        hw, a, rz, n = (np.empty(shape, dtype=dtype) for shape in (3 * self.d, (3, self.d), (2, self.d), self.d))
        hw_rows, b_rows = ad._gate_rows(hw), ad._gate_rows(b_h)
        logits = np.empty((1, self.vocab_size), dtype=dtype)
        prev = SOS
        out: list[int] = []
        for _ in range(max_len):
            px = ad._attention_step(embed[prev], h[0], wq, keys_t, values, scale, w_x, b_x, u, q, alpha, x)
            ad._gru_step(h[0], px, w_h, b_rows, hw, hw_rows, a, rz, n, h_new[0])
            np.matmul(h_new, w_out, out=logits)
            logits += b_out
            tok = int(logits.argmax())
            if tok == EOS:
                break
            out.append(tok)
            prev = tok
            h, h_new = h_new, h
        return out

    def sequence_logits(self, f_enc: DiffArray, targets: list, frames) -> DiffArray:
        """Teacher-forced logits (B, L, V) of a batch: per line sos, then each target token, fed in.

        f_enc and `frames` are as `ce_loss` takes them; L is the longest
        target's length, and a line's rows past its own target are padding.
        """
        prev, lengths = _padded([[SOS, *target][:len(target)] for target in targets])
        logits, _ = self._run(prev, self.initial_state(), f_enc, self.keys(f_enc), lengths, frames)
        return logits

    def ce_loss(self, f_enc: DiffArray, targets: list, frames) -> DiffArray:
        """Mean per-step cross entropy of a batch of lines; each target must end with eos.

        f_enc (B, T, d) holds line b's encoded frames in its first frames[b]
        rows, and `targets` holds one target per line. Teacher forcing runs
        every line to the longest target in one kernel call, and the loss is
        the mean over lines of each line's own mean.
        """
        for target in targets:
            if not target:
                raise ValueError("ce_loss: empty target")
            if target[-1] != EOS:
                raise ValueError("ce_loss: target must end with eos")
        gold, lengths = _padded(targets)
        return ad.cross_entropy_logits(self.sequence_logits(f_enc, targets, frames), gold, lengths)


def _padded(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Token rows as one (B, L) array, each padded with PAD to the longest row's length L, and their lengths."""
    lengths = np.array([len(row) for row in rows])
    out = np.full((len(rows), lengths.max()), PAD, dtype=np.intp)
    for b, row in enumerate(rows):
        out[b, :len(row)] = row
    return out, lengths
